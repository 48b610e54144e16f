//! Content-addressed precompute store for ADPA's graph-level artifacts
//! (DESIGN.md §10).
//!
//! ADPA's complexity claim (Sec. IV-D) rests on DP operator construction
//! and K-step propagation (Eq. 9) being **one-time preprocessing** — yet
//! the experiment harness constructs a model per seed (×10 in
//! `repeat_runs`), per grid hyperpoint (which sweeps `k_steps` and
//! `conv_r` against a *fixed* graph), and per benchmark table bin. This
//! module makes the one-time claim true end-to-end by caching, keyed on
//! content fingerprints of the inputs:
//!
//! * **Raw operator sets** — the boolean pattern matrices for the full
//!   order-≤N family, keyed by `(graph fingerprint, max_order)`. Built via
//!   [`amud_graph::DirectedPattern::materialize_all`], so `A·A`, `A·Aᵀ`,
//!   `Aᵀ·A`, `Aᵀ·Aᵀ` (and every longer prefix) are each computed once per
//!   graph; every `conv_r` a sweep visits re-normalises these in `O(nnz)`
//!   instead of re-running sparse products. AMUD scores the same four
//!   2-hop products: it reads the order-2 entry through [`TwoHopFamily`],
//!   and on Paradigm II, where the prepared adjacency is the input one,
//!   `prepare_topology` writes the family it scored there, so ADPA's
//!   default `max_order = 2` build only re-normalises it.
//! * **Normalised operator sets** — `Arc<PatternSet>` keyed additionally
//!   by the `conv_r` bit pattern.
//! * **Propagated features** — [`PropagatedFeatures`] keyed by the full
//!   [`OpSetKey`] (graph, order, `conv_r`, and the exact post-selection
//!   operator list) plus the feature-matrix fingerprint. A cached `K = 5`
//!   tensor serves any `k ≤ 5` via `Arc` prefix views; a request beyond
//!   the cached depth extends incrementally from the last cached step.
//!
//! The RAW entry is the one owner of each boolean operator. A normalised
//! set holds `Arc` handles to the entry's operators and owns only its
//! propagators, and a set selected from it (`PatternSet::select`) shares
//! both, so no operator matrix is ever copied; an evicted RAW entry's
//! operators live on for as long as a set still holds them.
//!
//! ## Determinism
//!
//! Every cached artifact is the output of a deterministic function of
//! content that is fully encoded in its key, and cache misses run exactly
//! the code the uncached path runs. Prefix views share the very buffers a
//! direct compute would have produced, and extension resumes the Eq. 9
//! recurrence whose step `l` depends only on step `l-1` — so cached,
//! extended, and uncached results are bit-identical, and `AMUD_CACHE=off`
//! (or [`amud_cache::with_cache`]) changes wall-clock only. The
//! equivalence proptests in `tests/precompute_equivalence.rs` pin this at
//! `AMUD_THREADS ∈ {1, 4}`.

use crate::propagation::PropagatedFeatures;
use amud_cache::{fingerprint_csr, fingerprint_dense, SharedStore};
use amud_graph::{CsrMatrix, DirectedPattern, PatternSet};
use amud_nn::DenseMatrix;
use amud_train::TrainError;
use std::sync::{Arc, OnceLock};

/// Raw-set entries a table run can pin: one per distinct `(graph, order)`.
const RAW_CAP: usize = 8;
/// Normalised sets: `RAW_CAP` graphs × a few `conv_r` values.
const NORM_CAP: usize = 24;
/// Propagated tensors: the dominant memory cost, still a handful per
/// graph (one per distinct post-selection operator list × feature matrix).
const FEAT_CAP: usize = 32;
/// Identity of a normalised, selection-resolved DP operator set — the
/// cache key propagated features are stored under.
///
/// The `selection` field records the exact operator indices (into the full
/// enumerated order-≤N family) that survived duplicate-collapse and
/// DP-selection, *in order*: two models whose selections differ — or even
/// merely reorder the same operators — propagate different tensors and
/// must not share a cache line.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OpSetKey {
    graph_fp: u64,
    max_order: usize,
    conv_r_bits: u32,
    selection: Vec<usize>,
}

impl OpSetKey {
    /// Narrows the key after a `PatternSet::select(keep)`: indices in
    /// `keep` address the *current* selection, so composition maps them
    /// back through it onto the full-family indices.
    pub fn with_selection(&self, keep: &[usize]) -> Self {
        Self {
            graph_fp: self.graph_fp,
            max_order: self.max_order,
            conv_r_bits: self.conv_r_bits,
            selection: keep.iter().map(|&i| self.selection[i]).collect(),
        }
    }
}

/// Full order-≤N family, materialised once per graph and shared across
/// every `conv_r` (normalisation is per-entry scaling, not sparse
/// products).
struct RawOps {
    patterns: Vec<DirectedPattern>,
    operators: Vec<Arc<CsrMatrix>>,
}

impl RawOps {
    /// Materialises `patterns` over `adj`, each distinct product once.
    fn materialize(adj: &CsrMatrix, patterns: Vec<DirectedPattern>) -> amud_graph::Result<Self> {
        let operators = DirectedPattern::materialize_all(adj, &patterns)?;
        Ok(Self { patterns, operators: operators.into_iter().map(Arc::new).collect() })
    }
}

/// The order-≤2 DP family of one adjacency, as AMUD scores it: `A`, `Aᵀ`
/// and the four 2-hop products. [`TwoHopFamily::of`] reads the RAW store
/// entry `(fingerprint, 2)` when there is one, and otherwise materialises
/// the family exactly as [`operators`] would on a miss, without storing
/// it; [`TwoHopFamily::store`] writes it under that key.
pub(crate) struct TwoHopFamily {
    key: (u64, usize),
    raw: Arc<RawOps>,
}

impl TwoHopFamily {
    const ORDER: usize = 2;

    /// The family of `adj`, from the store when the cache is on and holds
    /// it. `adj` must be square (every pattern product is then defined).
    pub(crate) fn of(adj: &CsrMatrix) -> Self {
        debug_assert_eq!(adj.n_rows(), adj.n_cols(), "AMUD runs on a square adjacency");
        let key = (fingerprint_csr(adj), Self::ORDER);
        if let Some(raw) = amud_cache::enabled().then(|| raw_store().get(&key)).flatten() {
            return Self { key, raw };
        }
        let patterns = DirectedPattern::enumerate_up_to(Self::ORDER);
        let Ok(raw) = RawOps::materialize(adj, patterns) else {
            // materialize_all only fails on a bool_matmul dimension
            // mismatch, impossible for a square adjacency.
            unreachable!("square adjacency materialises every pattern")
        };
        Self { key, raw: Arc::new(raw) }
    }

    /// The four 2-hop patterns and their operators, in
    /// [`DirectedPattern::two_order`] order.
    pub(crate) fn two_hop(&self) -> (Vec<DirectedPattern>, Vec<&CsrMatrix>) {
        self.raw
            .patterns
            .iter()
            .zip(&self.raw.operators)
            .filter(|(p, _)| p.order() == Self::ORDER)
            .map(|(p, op)| (p.clone(), &**op))
            .unzip()
    }

    /// Stores the family for later [`operators`] requests on the same
    /// adjacency (a no-op with the cache off).
    pub(crate) fn store(self) {
        if amud_cache::enabled() {
            raw_store().insert(self.key, self.raw);
        }
    }
}

fn raw_store() -> &'static SharedStore<(u64, usize), Arc<RawOps>> {
    static STORE: OnceLock<SharedStore<(u64, usize), Arc<RawOps>>> = OnceLock::new();
    STORE.get_or_init(|| SharedStore::new(RAW_CAP))
}

fn norm_store() -> &'static SharedStore<(u64, usize, u32), Arc<PatternSet>> {
    static STORE: OnceLock<SharedStore<(u64, usize, u32), Arc<PatternSet>>> = OnceLock::new();
    STORE.get_or_init(|| SharedStore::new(NORM_CAP))
}

fn feat_store() -> &'static SharedStore<(OpSetKey, u64), PropagatedFeatures> {
    static STORE: OnceLock<SharedStore<(OpSetKey, u64), PropagatedFeatures>> = OnceLock::new();
    STORE.get_or_init(|| SharedStore::new(FEAT_CAP))
}

/// The normalised DP operator set for `(adj, max_order, conv_r)`, served
/// from the store when an identical request was seen before, plus the
/// [`OpSetKey`] addressing it (initially selecting the full family).
///
/// On a miss, the raw boolean family is looked up — or materialised with
/// shared-prefix memoisation — and re-normalised for this `conv_r`; the
/// set shares the RAW entry's operators. With the cache disabled this is
/// exactly [`PatternSet::build_normalized`].
pub fn operators(
    adj: &CsrMatrix,
    max_order: usize,
    conv_r: f32,
) -> Result<(Arc<PatternSet>, OpSetKey), TrainError> {
    let graph_fp = fingerprint_csr(adj);
    let conv_r_bits = conv_r.to_bits();
    let family = DirectedPattern::enumerate_up_to(max_order);
    let key = OpSetKey { graph_fp, max_order, conv_r_bits, selection: (0..family.len()).collect() };

    if !amud_cache::enabled() {
        let set = PatternSet::build_normalized(adj, family, conv_r)?;
        return Ok((Arc::new(set), key));
    }

    let norm_key = (graph_fp, max_order, conv_r_bits);
    if let Some(set) = norm_store().get(&norm_key) {
        amud_cache::record_op_hit();
        return Ok((set, key));
    }
    amud_cache::record_op_miss();
    let raw_key = (graph_fp, max_order);
    let raw = match raw_store().get(&raw_key) {
        Some(raw) => raw,
        None => {
            let raw = Arc::new(RawOps::materialize(adj, family)?);
            raw_store().insert(raw_key, Arc::clone(&raw));
            raw
        }
    };
    let set =
        Arc::new(PatternSet::from_parts(raw.patterns.clone(), raw.operators.clone(), conv_r)?);
    norm_store().insert(norm_key, Arc::clone(&set));
    Ok((set, key))
}

/// K-step propagated features for `(key, x, k_steps)`: a cached tensor of
/// depth ≥ `k_steps` is served as a prefix view (zero spmm calls); a
/// shallower one is extended incrementally from its last step; a miss
/// computes from `X^(0)` and populates the store. With the cache disabled
/// this is exactly [`PropagatedFeatures::compute`]. `patterns` must be the
/// operator set `key` describes (in `Adpa::new` both come from
/// [`operators`] plus the same recorded selections).
pub fn propagated(
    key: &OpSetKey,
    patterns: &PatternSet,
    x: &DenseMatrix,
    k_steps: usize,
) -> Result<PropagatedFeatures, TrainError> {
    if !amud_cache::enabled() {
        return PropagatedFeatures::compute(patterns, x, k_steps);
    }
    // KEY-EXEMPT(patterns): `key` fully determines the operator set — both
    // come from the same `operators()` call (see the contract above), so
    // keying on `patterns` again would be redundant.
    // KEY-EXEMPT(k_steps): depth is not identity — a cached tensor of depth
    // ≥ k serves any k as a prefix view, and a shallower entry is extended
    // in place, so one entry per (key, x) covers every depth.
    let feat_key = (key.clone(), fingerprint_dense(x));
    match feat_store().get(&feat_key) {
        Some(cached) if cached.k_steps() >= k_steps => {
            amud_cache::record_feat_hit();
            cached.prefix(k_steps)
        }
        Some(mut shallow) => {
            amud_cache::record_feat_extend();
            shallow.extend_to(patterns, k_steps)?;
            feat_store().insert(feat_key, shallow.clone());
            Ok(shallow)
        }
        None => {
            amud_cache::record_feat_miss();
            let computed = PropagatedFeatures::compute(patterns, x, k_steps)?;
            feat_store().insert(feat_key, computed.clone());
            Ok(computed)
        }
    }
}

/// Whether the RAW store holds the order-`max_order` family of `adj`.
#[cfg(test)]
pub(crate) fn raw_stored(adj: &CsrMatrix, max_order: usize) -> bool {
    raw_store().get(&(fingerprint_csr(adj), max_order)).is_some()
}

/// Drops every cached artifact — the cold-start reset used by
/// `bench-precompute` (and tests) to measure first-touch cost. Counters
/// are *not* reset; readers attribute work via snapshot deltas.
pub fn clear() {
    raw_store().clear();
    norm_store().clear();
    feat_store().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use amud_graph::spmm_calls;

    fn toy_adj() -> CsrMatrix {
        CsrMatrix::from_edges(
            6,
            6,
            vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (2, 5)],
        )
        .unwrap()
    }

    fn toy_x() -> DenseMatrix {
        DenseMatrix::from_fn(6, 3, |r, c| ((r + 1) * (c + 2)) as f32 * 0.21)
    }

    #[test]
    fn operator_requests_share_one_build() {
        amud_cache::with_cache(true, || {
            clear();
            let adj = toy_adj();
            let before = amud_cache::stats();
            let (a, key_a) = operators(&adj, 2, 0.0).unwrap();
            let (b, key_b) = operators(&adj, 2, 0.0).unwrap();
            assert_eq!(key_a, key_b);
            assert!(Arc::ptr_eq(&a, &b), "second request must reuse the stored Arc");
            let d = amud_cache::stats().delta(&before);
            assert_eq!((d.op_misses, d.op_hits), (1, 1));
        });
    }

    #[test]
    fn conv_r_variants_share_raw_products() {
        amud_cache::with_cache(true, || {
            clear();
            let adj = toy_adj();
            let (a, _) = operators(&adj, 2, 0.0).unwrap();
            let (b, _) = operators(&adj, 2, 0.5).unwrap();
            // Distinct normalisations over the same boolean operators,
            // shared with the RAW entry rather than copied.
            assert_eq!(a.operators(), b.operators());
            assert!(a.operators().iter().zip(b.operators()).all(|(x, y)| Arc::ptr_eq(x, y)));
            assert_ne!(a.propagators(), b.propagators());
            // And both bitwise-match an uncached direct build.
            let direct =
                PatternSet::build_normalized(&adj, DirectedPattern::enumerate_up_to(2), 0.5)
                    .unwrap();
            assert_eq!(b.propagators(), direct.propagators());
        });
    }

    #[test]
    fn propagated_hits_cost_zero_spmm() {
        amud_cache::with_cache(true, || {
            clear();
            let adj = toy_adj();
            let x = toy_x();
            let (set, key) = operators(&adj, 1, 0.0).unwrap();
            let first = propagated(&key, &set, &x, 3).unwrap();
            let spmm_before = spmm_calls();
            let again = propagated(&key, &set, &x, 3).unwrap();
            let shallower = propagated(&key, &set, &x, 2).unwrap();
            assert_eq!(spmm_calls(), spmm_before, "prefix hits must not run spmm");
            assert_eq!(again.step(3, 0), first.step(3, 0));
            assert_eq!(shallower.k_steps(), 2);
            assert_eq!(shallower.step(2, 1), first.step(2, 1));
        });
    }

    #[test]
    fn extension_only_pays_missing_steps() {
        amud_cache::with_cache(true, || {
            clear();
            let adj = toy_adj();
            let x = toy_x();
            let (set, key) = operators(&adj, 1, 0.0).unwrap();
            let before = amud_cache::stats();
            let _ = propagated(&key, &set, &x, 2).unwrap();
            let spmm_mid = spmm_calls();
            let grown = propagated(&key, &set, &x, 5).unwrap();
            // 2 operators × 3 missing steps.
            assert_eq!(spmm_calls() - spmm_mid, 6);
            let d = amud_cache::stats().delta(&before);
            assert_eq!((d.feat_misses, d.feat_extends, d.feat_hits), (1, 1, 0));
            // Extended tensor is bit-identical to a cold direct compute.
            let direct = amud_cache::with_cache(false, || propagated(&key, &set, &x, 5).unwrap());
            for l in 1..=5 {
                for g in 0..set.len() {
                    assert_eq!(grown.step(l, g).as_slice(), direct.step(l, g).as_slice());
                }
            }
        });
    }

    #[test]
    fn distinct_selections_do_not_collide() {
        amud_cache::with_cache(true, || {
            clear();
            let adj = toy_adj();
            let x = toy_x();
            let (set, key) = operators(&adj, 1, 0.0).unwrap();
            let sub = set.select(&[1]);
            let sub_key = key.with_selection(&[1]);
            assert_ne!(key, sub_key);
            assert!(
                Arc::ptr_eq(&sub.propagators()[0], &set.propagators()[1]),
                "selecting must share the propagator, not copy it"
            );
            let full = propagated(&key, &set, &x, 2).unwrap();
            let narrow = propagated(&sub_key, &sub, &x, 2).unwrap();
            assert_eq!(narrow.n_patterns(), 1);
            // The single kept operator is the full set's g = 1.
            assert_eq!(narrow.step(2, 0), full.step(2, 1));
        });
    }

    #[test]
    fn selection_composition_maps_through() {
        let key =
            OpSetKey { graph_fp: 7, max_order: 2, conv_r_bits: 0, selection: vec![0, 1, 2, 3] };
        // The identity selection keeps the key, so a set that drops
        // nothing still hits the full set's propagated tensor.
        assert_eq!(key.with_selection(&[0, 1, 2, 3]), key);
        let first = key.with_selection(&[0, 2, 3]);
        assert_eq!(first.selection, vec![0, 2, 3]);
        let second = first.with_selection(&[1, 2]);
        assert_eq!(second.selection, vec![2, 3], "indices compose through prior selection");
    }

    #[test]
    fn disabled_cache_bypasses_stores() {
        amud_cache::with_cache(false, || {
            clear();
            let adj = toy_adj();
            let x = toy_x();
            let before = amud_cache::stats();
            let (set, key) = operators(&adj, 1, 0.0).unwrap();
            let _ = propagated(&key, &set, &x, 2).unwrap();
            let d = amud_cache::stats().delta(&before);
            assert_eq!(d.total(), 0, "disabled cache must not touch counters");
        });
    }
}
