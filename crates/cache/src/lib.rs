//! # amud-cache — precompute cache primitives
//!
//! ADPA's decoupled design (Sec. IV-D) makes DP-operator construction and
//! K-step feature propagation a **one-time preprocessing cost per graph** —
//! but the experiment harness constructs models hundreds of times per
//! sweep (10 seeds × every grid hyperpoint × every table bin). This crate
//! supplies the substrate the `amud_core::precompute` store is built on:
//!
//! * [`fingerprint`] — content fingerprints (FNV-1a 64) for sparse and
//!   dense matrices, so cache keys address *values*, not identities;
//! * [`store`] — a small mutex-guarded LRU map ([`SharedStore`]) bounding
//!   what a long table run can pin in memory;
//! * [`stats`] — process-wide atomic hit/miss/extend counters, surfaced in
//!   `TrainResult` and the CLI alongside the kernel thread budget;
//! * the `AMUD_CACHE` gate — [`enabled`] reads the env var once; tests and
//!   the benchmark harness override it for a scope with [`with_cache`].
//!
//! ## Determinism contract
//!
//! The cache stores *results of deterministic computations keyed by the
//! full content of their inputs*, and consumers replay cache misses with
//! exactly the serial code path. A cached artifact is therefore
//! bit-identical to a freshly computed one, and `AMUD_CACHE=off` changes
//! wall-clock only — never a single output bit. The equivalence suite
//! (`crates/core/tests/precompute_equivalence.rs`) pins this.

#![allow(
    clippy::disallowed_methods,
    reason = "the shared stores and their hit/miss counters are the cache's sync state"
)]

pub mod fingerprint;
pub mod stats;
pub mod store;

pub use fingerprint::{
    fingerprint_bytes, fingerprint_csr, fingerprint_dense, fingerprint_qdense, Fnv1a,
};
pub use stats::{
    record_feat_extend, record_feat_hit, record_feat_miss, record_op_hit, record_op_miss,
    reset_stats, stats, CacheStats,
};
pub use store::SharedStore;

use std::cell::Cell;
use std::sync::OnceLock;

/// Whether `AMUD_CACHE` enables the precompute store: `off`, `0`, or
/// `false` (case-insensitive) disable it; anything else — including unset —
/// enables it. Read once, at first use.
fn env_enabled() -> bool {
    // TAINT-PURE(env_enabled): the gate only switches between the cached
    // and uncached code paths, which are bit-identical by the determinism
    // contract above (pinned by the precompute equivalence suite).
    static CACHE: OnceLock<bool> = OnceLock::new();
    *CACHE.get_or_init(|| match std::env::var("AMUD_CACHE") {
        Ok(v) => !matches!(v.trim().to_ascii_lowercase().as_str(), "off" | "0" | "false"),
        Err(_) => true,
    })
}

thread_local! {
    static OVERRIDE: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Whether the precompute cache is in effect for the calling thread: the
/// innermost [`with_cache`] override if one is active, else the
/// process-wide `AMUD_CACHE` environment setting.
pub fn enabled() -> bool {
    OVERRIDE.get().unwrap_or_else(env_enabled)
}

/// Runs `f` with the calling thread's cache gate overridden to `on`. The
/// previous setting is restored when `f` returns — or unwinds, so a
/// failing assertion inside an equivalence test cannot leak its override
/// into the next case. This is how cached and uncached paths are compared
/// inside one process (tests, `bench-precompute`).
pub fn with_cache<R>(on: bool, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<bool>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.set(self.0);
        }
    }
    let _restore = Restore(OVERRIDE.replace(Some(on)));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_nests_and_restores() {
        let outer = enabled();
        with_cache(false, || {
            assert!(!enabled());
            with_cache(true, || assert!(enabled()));
            assert!(!enabled());
        });
        assert_eq!(enabled(), outer);
    }

    #[test]
    fn override_restores_on_panic() {
        let outer = enabled();
        let result = std::panic::catch_unwind(|| with_cache(!outer, || panic!("boom")));
        assert!(result.is_err());
        assert_eq!(enabled(), outer);
    }
}
