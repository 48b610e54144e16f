//! Bit-identity properties for the parallel dense kernels (DESIGN.md §9).
//!
//! The `amud-par` determinism contract says a kernel's output is a pure
//! function of its inputs — never of the thread count. These properties
//! run every dense hot path at `AMUD_THREADS ∈ {1, 2, 3, 8}` (via the
//! in-process override) and compare outputs *bitwise*, so even a sign-of-
//! zero or last-ulp difference fails. Shapes straddle the serial-fallback
//! thresholds, include degenerate single-row/single-column cases, and go
//! past k = 2048 rows in the `matmul_transa` reduction.

use amud_nn::{DenseMatrix, ParamBank, SparseOp, Tape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Seeded pseudo-random matrix with a few exact zeros (the matmul kernels
/// have a zero-skip fast path worth hitting) and negative values.
fn seeded(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    DenseMatrix::from_fn(rows, cols, |_, _| {
        if rng.gen_range(0.0f32..1.0) < 0.1 {
            0.0
        } else {
            rng.gen_range(-2.0f32..2.0)
        }
    })
}

fn bits(m: &DenseMatrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Runs `f` under every thread count and asserts all results are
/// bit-identical to the single-threaded run.
fn assert_thread_invariant(label: &str, f: impl Fn() -> DenseMatrix) -> Result<(), TestCaseError> {
    let baseline = amud_par::with_threads(1, &f);
    for &t in &THREAD_COUNTS[1..] {
        let got = amud_par::with_threads(t, &f);
        prop_assert_eq!(
            bits(&baseline),
            bits(&got),
            "{} diverged between 1 and {} threads",
            label,
            t
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_is_thread_invariant(
        dims in (1usize..48, 1usize..48, 1usize..40),
        seed in 0u64..1_000_000,
    ) {
        let (m, k, n) = dims;
        let a = seeded(m, k, seed);
        let b = seeded(k, n, seed ^ 0x9e37);
        assert_thread_invariant("matmul", || a.matmul(&b))?;
    }

    #[test]
    fn matmul_transb_is_thread_invariant(
        dims in (1usize..48, 1usize..48, 1usize..40),
        seed in 0u64..1_000_000,
    ) {
        let (m, k, n) = dims;
        let a = seeded(m, k, seed);
        let b = seeded(n, k, seed ^ 0x85eb);
        assert_thread_invariant("matmul_transb", || a.matmul_transb(&b))?;
    }

    #[test]
    fn matmul_transa_is_thread_invariant(
        dims in (1usize..64, 1usize..24, 1usize..24),
        seed in 0u64..1_000_000,
    ) {
        let (k, m, n) = dims;
        let a = seeded(k, m, seed);
        let b = seeded(k, n, seed ^ 0xc2b2);
        assert_thread_invariant("matmul_transa", || a.matmul_transa(&b))?;
    }

    #[test]
    fn transa_ignores_dropped_all_zero_rows_of_other(
        dims in (1usize..64, 1usize..24, 1usize..24),
        seed in 0u64..1_000_000,
        keep_bits in 0u64..u64::MAX,
    ) {
        // Row-local training drops the rows whose gradient is all zero.
        // In the full-extent sum those rows add exact ±0 terms to
        // +0-started accumulators, so dropping them changes no bit.
        let (k, m, n) = dims;
        let a = seeded(k, m, seed);
        let mut b = seeded(k, n, seed ^ 0x5bd1);
        let keep: Vec<bool> = (0..k).map(|r| keep_bits >> (r % 64) & 1 == 1).collect();
        for (r, &kept) in keep.iter().enumerate() {
            if !kept {
                for (c, v) in b.row_mut(r).iter_mut().enumerate() {
                    *v = if c % 2 == 0 { 0.0 } else { -0.0 };
                }
            }
        }
        let ids: Vec<usize> = (0..k).filter(|&r| keep[r]).collect();
        let rows = amud_nn::Rows::new(k, ids);
        let (a_kept, b_kept) = (rows.gather(&a), rows.gather(&b));
        for &t in &THREAD_COUNTS {
            let full = amud_par::with_threads(t, || a.matmul_transa(&b));
            let kept = amud_par::with_threads(t, || a_kept.matmul_transa(&b_kept));
            prop_assert_eq!(bits(&full), bits(&kept), "dropping zero rows moved bits at {} threads", t);
        }
    }

    #[test]
    fn transpose_and_elementwise_are_thread_invariant(
        dims in (1usize..96, 1usize..96),
        seed in 0u64..1_000_000,
    ) {
        let (m, n) = dims;
        let a = seeded(m, n, seed);
        let b = seeded(m, n, seed ^ 0x27d4);
        assert_thread_invariant("transpose", || a.transpose())?;
        assert_thread_invariant("map", || a.map(|v| (v * 1.7).tanh()))?;
        assert_thread_invariant("hadamard", || a.hadamard(&b))?;
        assert_thread_invariant("add_scaled_assign", || {
            let mut c = a.clone();
            c.add_scaled_assign(&b, 0.3);
            c
        })?;
        assert_thread_invariant("l2_normalize_rows", || a.l2_normalize_rows())?;
    }

    #[test]
    fn argmax_rows_is_thread_invariant(
        dims in (1usize..80, 1usize..24),
        seed in 0u64..1_000_000,
    ) {
        let (m, n) = dims;
        let a = seeded(m, n, seed);
        let baseline = amud_par::with_threads(1, || a.argmax_rows());
        for &t in &THREAD_COUNTS[1..] {
            let got = amud_par::with_threads(t, || a.argmax_rows());
            prop_assert_eq!(&baseline, &got, "argmax_rows diverged at {} threads", t);
        }
    }

    #[test]
    fn tape_forward_backward_is_thread_invariant(
        dims in (2usize..40, 1usize..16, 1usize..12),
        seed in 0u64..1_000_000,
    ) {
        let (n, f, h) = dims;
        // End-to-end: a small model touching every parallelised tape op
        // (spmm, matmul, bias, activations, dropout, softmax, masked CE)
        // must produce bit-identical loss AND gradients at any thread count.
        let x = seeded(n, f, seed);
        let w1 = seeded(f, h, seed ^ 0x1111);
        let w2 = seeded(h, 3, seed ^ 0x2222);
        let bias = seeded(1, h, seed ^ 0x3333);
        let op = SparseOp::new(
            amud_graph::CsrMatrix::from_edges(
                n,
                n,
                (0..n).map(|i| (i, (i * 7 + 1) % n)),
            )
            .expect("ring edges are in bounds"),
        );
        let mask_vals: Vec<f32> = {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x4444);
            (0..n * h).map(|_| if rng.gen_range(0.0f32..1.0) < 0.3 { 0.0 } else { 2.0 }).collect()
        };
        let labels = Rc::new((0..n).map(|i| i % 3).collect::<Vec<_>>());
        let train_mask = Rc::new((0..n).step_by(2).collect::<Vec<_>>());

        let run = || {
            let mut bank = ParamBank::new();
            let p1 = bank.add(w1.clone());
            let p2 = bank.add(w2.clone());
            let pb = bank.add(bias.clone());
            let mut tape = Tape::new();
            let xn = tape.constant(x.clone());
            let agg = tape.spmm(&op, xn);
            let w1n = tape.param(&bank, p1);
            let h1 = tape.matmul(agg, w1n);
            let bn = tape.param(&bank, pb);
            let h1b = tape.add_bias(h1, bn);
            let act = tape.relu(h1b);
            let drop = tape.dropout(act, Rc::new(mask_vals.clone()));
            let sm = tape.row_softmax(drop);
            let w2n = tape.param(&bank, p2);
            let logits = tape.matmul(sm, w2n);
            let loss =
                tape.masked_cross_entropy(logits, Rc::clone(&labels), Rc::clone(&train_mask));
            tape.backward(loss);
            tape.apply_grads(&mut bank);
            let mut flat = vec![tape.value(loss).get(0, 0)];
            for pid in [p1, p2, pb] {
                flat.extend_from_slice(bank.grad(pid).as_slice());
            }
            DenseMatrix::from_vec(1, flat.len(), flat)
        };
        assert_thread_invariant("tape forward+backward", run)?;
    }
}

/// The serial ascending-k scatter `matmul_transa` must reproduce: per
/// output element, one `+= a·b` per k in ascending order, skipping zero
/// weights.
fn transa_reference(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let mut want = DenseMatrix::zeros(a.cols(), b.cols());
    for kk in 0..a.rows() {
        for i in 0..a.cols() {
            let av = a.get(kk, i);
            if av == 0.0 {
                continue;
            }
            for j in 0..b.cols() {
                let w = want.get(i, j) + av * b.get(kk, j);
                want.set(i, j, w);
            }
        }
    }
    want
}

/// k-extents above 2048 (full-scale graphs) reduce in one ascending pass
/// per output element like every other extent: bitwise equal to the
/// serial reference at every thread count, with enough output rows that
/// four threads each get a part.
#[test]
fn transa_large_k_matches_the_serial_reference_at_every_thread_count() {
    let k = 2500;
    let a = seeded(k, 24, 77);
    let b = seeded(k, 8, 78);
    let want = bits(&transa_reference(&a, &b));
    for &t in &THREAD_COUNTS {
        let got = amud_par::with_threads(t, || a.matmul_transa(&b));
        assert_eq!(
            bits(&got),
            want,
            "k={k} transa diverged from the serial reference at {t} threads"
        );
    }
}

/// Shapes big enough to clear every serial-fallback threshold, so the
/// parallel path (not the inline fallback) is what's being compared. The
/// streaming helpers (map, per-row softmax/normalise) now carry a much
/// higher per-part floor (2^18 elements) than the matmul family, so their
/// shapes here are correspondingly larger.
#[test]
fn above_threshold_shapes_are_thread_invariant() {
    let a = seeded(160, 128, 99);
    let b = seeded(128, 96, 100);
    let big = seeded(768, 700, 101); // 537k elems ≥ 2 streaming parts
    for &t in &THREAD_COUNTS[1..] {
        let serial = amud_par::with_threads(1, || a.matmul(&b));
        let parallel = amud_par::with_threads(t, || a.matmul(&b));
        assert_eq!(bits(&serial), bits(&parallel), "matmul diverged at {t} threads");
        let serial = amud_par::with_threads(1, || big.map(|v| v.exp().min(10.0)));
        let parallel = amud_par::with_threads(t, || big.map(|v| v.exp().min(10.0)));
        assert_eq!(bits(&serial), bits(&parallel), "map diverged at {t} threads");
        let serial = amud_par::with_threads(1, || big.l2_normalize_rows());
        let parallel = amud_par::with_threads(t, || big.l2_normalize_rows());
        assert_eq!(bits(&serial), bits(&parallel), "l2_normalize_rows diverged at {t} threads");
    }
}

/// Lane-tail coverage: k-extents ≡ 1 and 7 (mod LANE_WIDTH) force every
/// microkernel through its scalar-tail path (and, at k < 4, through the
/// j/k-block tails too). Each shape is checked for thread invariance AND
/// pinned to the canonical order: `matmul`/`matmul_transa` must match the
/// legacy ascending-k scalar loop bitwise (the lane blocking is
/// order-preserving by construction), and every `matmul_transb` output
/// element must equal `amud_par::lane_dot` of its two rows bitwise
/// (whether it was produced by the 4-wide block or the tail).
#[test]
fn lane_tail_shapes_match_the_canonical_order() {
    for k in [1usize, 2, 3, 5, 7, 8, 9, 15, 17, 23, 25, 63, 65, 71] {
        let m = 13;
        let n = 11;
        let a = seeded(m, k, 1000 + k as u64);
        let b = seeded(k, n, 2000 + k as u64);
        let bt = seeded(n, k, 3000 + k as u64);

        // matmul: bitwise == legacy ikj scalar loop (ascending k, zero-skip).
        let got = a.matmul(&b);
        let mut want = DenseMatrix::zeros(m, n);
        for i in 0..m {
            for (kk, &av) in a.row(i).iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    let w = want.get(i, j) + av * b.get(kk, j);
                    want.set(i, j, w);
                }
            }
        }
        assert_eq!(bits(&got), bits(&want), "matmul k={k} diverged from the scalar reference");

        // matmul_transb: bitwise == lane_dot per element.
        let got = a.matmul_transb(&bt);
        for i in 0..m {
            for j in 0..n {
                assert_eq!(
                    got.get(i, j).to_bits(),
                    amud_par::lane_dot(a.row(i), bt.row(j)).to_bits(),
                    "transb k={k} ({i},{j}) diverged from lane_dot"
                );
            }
        }

        // matmul_transa: bitwise == legacy scalar scatter in ascending k.
        let a2 = seeded(k, m, 4000 + k as u64);
        let b2 = seeded(k, n, 5000 + k as u64);
        let got = a2.matmul_transa(&b2);
        let want = transa_reference(&a2, &b2);
        assert_eq!(bits(&got), bits(&want), "transa k={k} diverged from the scalar reference");

        // And all of the above are thread-invariant at the tail shapes.
        for &t in &THREAD_COUNTS[1..] {
            let s = amud_par::with_threads(1, || a.matmul_transb(&bt));
            let p = amud_par::with_threads(t, || a.matmul_transb(&bt));
            assert_eq!(bits(&s), bits(&p), "transb k={k} diverged at {t} threads");
        }
    }
}

/// The satellite regression shape: a 1200×128 row softmax must stay on
/// the serial path (sub-threshold) yet remain bit-identical at any budget,
/// and an above-threshold softmax must fan out and still match serial.
#[test]
fn row_softmax_granularity_is_thread_invariant() {
    for (rows, cols) in [(1200usize, 128usize), (2200, 256)] {
        let m = seeded(rows, cols, 7000 + rows as u64);
        let softmax = |x: &DenseMatrix| {
            let mut out = x.clone();
            out.par_rows_mut(|_, row| {
                let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                let mut sum = 0.0f32;
                for v in row.iter_mut() {
                    *v = (*v - max).exp();
                    sum += *v;
                }
                for v in row.iter_mut() {
                    *v /= sum;
                }
            });
            out
        };
        let baseline = amud_par::with_threads(1, || softmax(&m));
        for &t in &THREAD_COUNTS[1..] {
            let got = amud_par::with_threads(t, || softmax(&m));
            assert_eq!(
                bits(&baseline),
                bits(&got),
                "row softmax {rows}x{cols} diverged at {t} threads"
            );
        }
    }
}
