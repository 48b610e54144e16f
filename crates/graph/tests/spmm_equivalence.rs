//! Bit-identity properties for the parallel `CsrMatrix::spmm` (DESIGN.md
//! §9): nnz-balanced row partitioning must never change the result, only
//! the wall-clock. Sparsity patterns deliberately include empty rows,
//! hub-skewed nnz distributions, and row counts smaller than the thread
//! budget — the cases where a partitioner is most likely to cut wrong.

use amud_graph::CsrMatrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Builds a skewed sparse matrix: row 0 is a hub holding roughly half the
/// edges, a band of rows is left completely empty, the rest is random.
fn skewed_csr(n: usize, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(usize, usize, f32)> = Vec::new();
    let hub_deg = (n / 2).max(1);
    for _ in 0..hub_deg {
        edges.push((0, rng.gen_range(0..n as u64) as usize, rng.gen_range(-1.0f32..1.0)));
    }
    let empty_lo = n / 3;
    let empty_hi = (empty_lo + n / 4).min(n);
    for r in 1..n {
        if (empty_lo..empty_hi).contains(&r) {
            continue; // structurally empty rows
        }
        let deg = rng.gen_range(0..4u64);
        for _ in 0..deg {
            edges.push((r, rng.gen_range(0..n as u64) as usize, rng.gen_range(-1.0f32..1.0)));
        }
    }
    let Ok(m) = CsrMatrix::from_coo(n, n, edges) else {
        unreachable!("generated indices are in bounds")
    };
    m
}

fn dense(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows * cols).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn spmm_is_thread_invariant(
        dims in (1usize..160, 1usize..12),
        seed in 0u64..1_000_000,
    ) {
        let (n, x_cols) = dims;
        let m = skewed_csr(n, seed);
        let x = dense(n, x_cols, seed ^ 0xabcd);
        let baseline = amud_par::with_threads(1, || {
            let mut out = vec![0.0f32; n * x_cols];
            m.spmm(&x, x_cols, &mut out);
            out
        });
        let base_bits: Vec<u32> = baseline.iter().map(|v| v.to_bits()).collect();
        for &t in &THREAD_COUNTS[1..] {
            let got = amud_par::with_threads(t, || {
                // Dirty output buffer: spmm must fully overwrite its block.
                let mut out = vec![f32::NAN; n * x_cols];
                m.spmm(&x, x_cols, &mut out);
                out
            });
            let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&base_bits, &got_bits, "spmm diverged at {} threads (n={})", t, n);
        }
    }

    #[test]
    fn spmm_fewer_rows_than_threads(
        n in 1usize..7,
        seed in 0u64..1_000_000,
    ) {
        // 8-thread budget against 1..6 rows: the partitioner must emit
        // at most n non-empty parts and still cover everything.
        let m = skewed_csr(n, seed);
        let x = dense(n, 3, seed ^ 0x5555);
        let mut serial = vec![0.0f32; n * 3];
        amud_par::with_threads(1, || m.spmm(&x, 3, &mut serial));
        let mut wide = vec![0.0f32; n * 3];
        amud_par::with_threads(8, || m.spmm(&x, 3, &mut wide));
        let a: Vec<u32> = serial.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = wide.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(a, b);
    }
}

/// Every `spmm` output element must be bitwise equal to the legacy scalar
/// loop (ascending nonzero order): the lane axpy microkernels are
/// order-preserving by construction. Dense widths ≡ 1 and 7 (mod 8) force
/// the lane tail, widths < 4 force the nonzero-block tail.
#[test]
fn spmm_lane_tails_match_the_scalar_reference() {
    for x_cols in [1usize, 2, 3, 5, 7, 8, 9, 15, 17, 33, 39] {
        let n = 120;
        let m = skewed_csr(n, 9000 + x_cols as u64);
        let x = dense(n, x_cols, 600 + x_cols as u64);
        let mut got = vec![f32::NAN; n * x_cols];
        m.spmm(&x, x_cols, &mut got);
        let mut want = vec![0.0f32; n * x_cols];
        for r in 0..n {
            for (&c, &v) in m.row_cols(r).iter().zip(m.row_values(r)) {
                for j in 0..x_cols {
                    want[r * x_cols + j] += v * x[c as usize * x_cols + j];
                }
            }
        }
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "spmm x_cols={x_cols} elem {i} diverged from the scalar reference"
            );
        }
    }
}

/// A shape big enough to clear the per-part serial-fallback threshold
/// with at least two parts, so the nnz-balanced parallel path is what's
/// actually compared.
#[test]
fn spmm_above_threshold_is_thread_invariant() {
    let n = 1500;
    let m = skewed_csr(n, 424242);
    assert!(m.nnz() * 32 >= 2 << 15, "fixture must be worth at least two parallel parts");
    let x = dense(n, 32, 31337);
    let mut serial = vec![0.0f32; n * 32];
    amud_par::with_threads(1, || m.spmm(&x, 32, &mut serial));
    for t in [2, 3, 8] {
        let mut par = vec![f32::NAN; n * 32];
        amud_par::with_threads(t, || m.spmm(&x, 32, &mut par));
        assert!(
            serial.iter().zip(&par).all(|(a, b)| a.to_bits() == b.to_bits()),
            "spmm diverged at {t} threads"
        );
    }
}
