//! Process-wide cache instrumentation.
//!
//! Counters are monotonic `AtomicU64`s; callers take a [`CacheStats`]
//! snapshot before a region of interest and subtract with
//! [`CacheStats::delta`] afterwards. Monotonic-with-deltas is chosen over
//! resettable counters deliberately: a reset racing with a concurrent
//! sweep would silently corrupt both readers, while deltas are always
//! consistent per reader.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

static OP_HITS: AtomicU64 = AtomicU64::new(0);
static OP_MISSES: AtomicU64 = AtomicU64::new(0);
static FEAT_HITS: AtomicU64 = AtomicU64::new(0);
static FEAT_MISSES: AtomicU64 = AtomicU64::new(0);
static FEAT_EXTENDS: AtomicU64 = AtomicU64::new(0);

/// Records an operator-set cache hit (normalized `PatternSet` reused).
pub fn record_op_hit() {
    OP_HITS.fetch_add(1, Ordering::Relaxed);
}

/// Records an operator-set cache miss (full sparse-product build ran).
pub fn record_op_miss() {
    OP_MISSES.fetch_add(1, Ordering::Relaxed);
}

/// Records a propagated-features hit (a cached K ≥ requested k served the
/// request as a prefix view, zero spmm calls).
pub fn record_feat_hit() {
    FEAT_HITS.fetch_add(1, Ordering::Relaxed);
}

/// Records a propagated-features miss (propagation ran from `X^(0)`).
pub fn record_feat_miss() {
    FEAT_MISSES.fetch_add(1, Ordering::Relaxed);
}

/// Records an incremental extension (cached K < requested k; propagation
/// resumed from the last cached step instead of restarting).
pub fn record_feat_extend() {
    FEAT_EXTENDS.fetch_add(1, Ordering::Relaxed);
}

/// Snapshot of the process-wide precompute-cache counters.
///
/// Values are cumulative since process start; compare
/// two snapshots with [`CacheStats::delta`] to attribute activity to a
/// region (one training run, one grid search, one benchmark sweep).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Normalized operator sets served from cache.
    pub op_hits: u64,
    /// Normalized operator sets built from scratch.
    pub op_misses: u64,
    /// Propagated-feature requests served entirely from cache.
    pub feat_hits: u64,
    /// Propagated-feature requests computed from `X^(0)`.
    pub feat_misses: u64,
    /// Propagated-feature requests served by extending a shorter cached K.
    pub feat_extends: u64,
}

impl CacheStats {
    /// Counter increments accumulated since the `earlier` snapshot.
    /// Saturating, so snapshots passed in the wrong order yield zeros
    /// rather than wrapping.
    pub fn delta(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            op_hits: self.op_hits.saturating_sub(earlier.op_hits),
            op_misses: self.op_misses.saturating_sub(earlier.op_misses),
            feat_hits: self.feat_hits.saturating_sub(earlier.feat_hits),
            feat_misses: self.feat_misses.saturating_sub(earlier.feat_misses),
            feat_extends: self.feat_extends.saturating_sub(earlier.feat_extends),
        }
    }

    /// Total requests observed (hits + misses + extends across both
    /// stores); zero means the cache was never consulted in the window.
    pub fn total(&self) -> u64 {
        self.op_hits + self.op_misses + self.feat_hits + self.feat_misses + self.feat_extends
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ops {}h/{}m, features {}h/{}m/{}x",
            self.op_hits, self.op_misses, self.feat_hits, self.feat_misses, self.feat_extends
        )
    }
}

/// Current snapshot of the process-wide counters.
pub fn stats() -> CacheStats {
    CacheStats {
        op_hits: OP_HITS.load(Ordering::Relaxed),
        op_misses: OP_MISSES.load(Ordering::Relaxed),
        feat_hits: FEAT_HITS.load(Ordering::Relaxed),
        feat_misses: FEAT_MISSES.load(Ordering::Relaxed),
        feat_extends: FEAT_EXTENDS.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_attributes_a_region() {
        let before = stats();
        record_op_hit();
        record_feat_miss();
        record_feat_extend();
        record_feat_extend();
        let d = stats().delta(&before);
        assert_eq!(d.op_hits, 1);
        assert_eq!(d.op_misses, 0);
        assert_eq!(d.feat_misses, 1);
        assert_eq!(d.feat_extends, 2);
        assert_eq!(d.total(), 4);
    }

    #[test]
    fn display_is_compact() {
        let s =
            CacheStats { op_hits: 9, op_misses: 1, feat_hits: 58, feat_misses: 2, feat_extends: 3 };
        assert_eq!(s.to_string(), "ops 9h/1m, features 58h/2m/3x");
    }
}
