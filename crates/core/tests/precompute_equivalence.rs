//! Bitwise-equivalence properties for the precompute cache (DESIGN.md §10).
//!
//! The cache contract says `AMUD_CACHE` changes wall-clock only: a cached
//! artifact — whether served whole, as a prefix view of a deeper tensor,
//! or grown by incremental extension — is bit-identical to the uncached
//! computation. These properties generate random digraphs and feature
//! matrices, run every path under `AMUD_THREADS ∈ {1, 4}` (the cache must
//! compose with the deterministic parallel runtime), and compare outputs
//! *bitwise*, so even a last-ulp or sign-of-zero difference fails.
//!
//! The suite passes with the cache in either default state; `ci.sh` runs
//! it twice, with `AMUD_CACHE` unset and `AMUD_CACHE=off`, to pin both
//! process-wide defaults.

use amud_core::precompute;
use amud_core::{Adpa, AdpaConfig, PropagatedFeatures};
use amud_graph::{CsrMatrix, DiGraph, PatternSet};
use amud_nn::DenseMatrix;
use amud_train::GraphData;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREAD_COUNTS: [usize; 2] = [1, 4];

/// Seeded random digraph: `n` nodes, ~`3n` edges, no isolated structure
/// guarantees — degenerate rows are part of the property.
fn seeded_adj(n: usize, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<(usize, usize)> = (0..3 * n)
        .map(|_| (rng.gen_range(0..n as u64) as usize, rng.gen_range(0..n as u64) as usize))
        .filter(|(u, v)| u != v)
        .collect();
    let Ok(adj) = CsrMatrix::from_edges(n, n, edges) else {
        unreachable!("indices are in range by construction")
    };
    adj
}

fn seeded_x(n: usize, f: usize, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    DenseMatrix::from_fn(n, f, |_, _| rng.gen_range(-1.5f32..1.5))
}

fn bits(m: &DenseMatrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Asserts two propagated tensors agree bitwise on every step and the
/// residual, for the first `k` steps.
fn assert_tensors_equal(
    a: &PropagatedFeatures,
    b: &PropagatedFeatures,
    k: usize,
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(bits(a.x0()), bits(b.x0()), "{}: residual diverged", label);
    prop_assert_eq!(a.n_patterns(), b.n_patterns(), "{}: operator count diverged", label);
    for l in 1..=k {
        for g in 0..a.n_patterns() {
            prop_assert_eq!(
                bits(a.step(l, g)),
                bits(b.step(l, g)),
                "{}: step {} operator {} diverged",
                label,
                l,
                g
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cached vs uncached propagation: one request, same bits.
    #[test]
    fn cached_propagation_matches_uncached(
        n in 8usize..40,
        f in 1usize..8,
        k in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let adj = seeded_adj(n, seed);
        let x = seeded_x(n, f, seed ^ 0xfeed);
        for &threads in &THREAD_COUNTS {
            amud_par::with_threads(threads, || -> Result<(), TestCaseError> {
                let (set, key) = amud_cache::with_cache(true, || {
                    precompute::clear();
                    precompute::operators(&adj, 2, 0.5)
                }).unwrap();
                let cached = amud_cache::with_cache(true,
                    || precompute::propagated(&key, &set, &x, k)).unwrap();
                let uncached = amud_cache::with_cache(false,
                    || precompute::propagated(&key, &set, &x, k)).unwrap();
                assert_tensors_equal(&cached, &uncached, k, "cached-vs-uncached")?;
                // And the operator sets themselves match a direct build.
                let direct = PatternSet::build_normalized(
                    &adj,
                    amud_graph::DirectedPattern::enumerate_up_to(2),
                    0.5,
                ).unwrap();
                prop_assert_eq!(set.propagators(), direct.propagators());
                Ok(())
            })?;
        }
    }

    /// A prefix slice at k of a deeper cached tensor matches `compute(k)`.
    #[test]
    fn prefix_slice_matches_direct_compute(
        n in 8usize..40,
        f in 1usize..6,
        k in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let adj = seeded_adj(n, seed);
        let x = seeded_x(n, f, seed ^ 0xbeef);
        for &threads in &THREAD_COUNTS {
            amud_par::with_threads(threads, || -> Result<(), TestCaseError> {
                let set = PatternSet::up_to_order(&adj, 1).unwrap();
                let deep = PropagatedFeatures::compute(&set, &x, 5).unwrap();
                let view = deep.prefix(k).unwrap();
                let direct = PropagatedFeatures::compute(&set, &x, k).unwrap();
                prop_assert_eq!(view.k_steps(), k);
                assert_tensors_equal(&view, &direct, k, "prefix-vs-direct")?;
                Ok(())
            })?;
        }
    }

    /// Incremental extension K=2→5 matches a direct K=5 compute, both via
    /// the raw tensor API and through the cache store.
    #[test]
    fn incremental_extension_matches_direct_compute(
        n in 8usize..40,
        f in 1usize..6,
        seed in 0u64..1_000_000,
    ) {
        let adj = seeded_adj(n, seed);
        let x = seeded_x(n, f, seed ^ 0xcafe);
        for &threads in &THREAD_COUNTS {
            amud_par::with_threads(threads, || -> Result<(), TestCaseError> {
                let set = PatternSet::up_to_order(&adj, 1).unwrap();
                let direct = PropagatedFeatures::compute(&set, &x, 5).unwrap();
                // Raw API.
                let mut grown = PropagatedFeatures::compute(&set, &x, 2).unwrap();
                grown.extend_to(&set, 5).unwrap();
                assert_tensors_equal(&grown, &direct, 5, "extend-vs-direct")?;
                // Through the store: request K=2, then K=5 (extend path).
                let via_store = amud_cache::with_cache(true, || {
                    precompute::clear();
                    let (set, key) = precompute::operators(&adj, 1, 0.0).unwrap();
                    let _ = precompute::propagated(&key, &set, &x, 2).unwrap();
                    precompute::propagated(&key, &set, &x, 5).unwrap()
                });
                assert_tensors_equal(&via_store, &direct, 5, "store-extend-vs-direct")?;
                Ok(())
            })?;
        }
    }
}

/// Labelled random graph bundle for end-to-end model-level equivalence.
fn bundle(n: usize, seed: u64) -> GraphData {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<(usize, usize)> = (0..4 * n)
        .map(|_| (rng.gen_range(0..n as u64) as usize, rng.gen_range(0..n as u64) as usize))
        .filter(|(u, v)| u != v)
        .collect();
    let labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..3u64) as usize).collect();
    let g = DiGraph::from_edges(n, edges)
        .and_then(|g| g.with_labels(labels, 3))
        .unwrap_or_else(|e| panic!("seeded graph does not build: {e}"));
    let features = seeded_x(n, 8, seed ^ 0x51de);
    let ids: Vec<usize> = (0..n).collect();
    let (train, rest) = ids.split_at(n / 2);
    let (val, test) = rest.split_at(rest.len() / 2);
    GraphData::new(&g, features, train.to_vec(), val.to_vec(), test.to_vec())
        .unwrap_or_else(|e| panic!("seeded bundle does not assemble: {e}"))
}

/// Model-level equivalence: an `Adpa` built with the cache enabled (twice,
/// so the second construction is all hits) computes the same forward pass
/// as one built with the cache off.
#[test]
fn adpa_forward_is_cache_invariant() {
    let data = bundle(30, 9);
    let cfg = AdpaConfig { hidden: 8, k_steps: 3, ..Default::default() };
    let logits = |model: &Adpa| {
        let mut rng = StdRng::seed_from_u64(0);
        let mut tape = amud_nn::Tape::new();
        let out = amud_train::Model::forward(model, &mut tape, &data, false, &mut rng);
        bits(tape.value(out))
    };
    for &threads in &THREAD_COUNTS {
        amud_par::with_threads(threads, || {
            let uncached = amud_cache::with_cache(false, || Adpa::new(&data, cfg, 7).unwrap());
            let (cold, warm) = amud_cache::with_cache(true, || {
                precompute::clear();
                (Adpa::new(&data, cfg, 7).unwrap(), Adpa::new(&data, cfg, 7).unwrap())
            });
            assert_eq!(logits(&uncached), logits(&cold), "uncached vs cold diverged");
            assert_eq!(logits(&cold), logits(&warm), "cold vs warm diverged");
        });
    }
}

/// A seed whose model *construction* fails (bad conv_r) lands in the
/// failure manifest; the sweep's summary covers the surviving seeds.
#[test]
fn construction_failure_degrades_sweep_gracefully() {
    let data = bundle(24, 11);
    let cfg = amud_train::TrainConfig { epochs: 3, patience: 0, ..Default::default() };
    let out = amud_train::repeat_runs(
        |s| {
            let conv_r = if s == 101 { f32::NAN } else { 0.0 };
            Adpa::new(&data, AdpaConfig { hidden: 8, conv_r, ..Default::default() }, s)
        },
        &data,
        cfg,
        4,
        100,
    );
    assert_eq!(out.results.len(), 3, "three seeds must survive");
    assert_eq!(out.failures.len(), 1);
    assert_eq!(out.failures[0].seed, 101);
    assert!(
        matches!(&out.failures[0].error, amud_train::TrainError::BadInput { reason }
            if reason.contains("convolution coefficient")),
        "{:?}",
        out.failures[0].error
    );
    assert_eq!(out.summary.n_failed, 1);
}
