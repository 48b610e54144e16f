//! Property tests for the quantization error model (DESIGN.md §15): int8
//! error is bounded by half the per-tensor scale, and the quantized GEMM
//! is bitwise decode-then-matmul at every precision.

use amud_nn::matrix::DenseMatrix;
use amud_quant::{Precision, QMatrix};
use proptest::prelude::*;

/// Strategy: bounded finite f32 values with varied magnitudes.
fn finite_vals(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-1000.0f32..1000.0, n)
}

proptest! {
    #[test]
    fn int8_error_is_bounded_by_half_scale(vals in finite_vals(64)) {
        let m = DenseMatrix::from_vec(8, 8, vals);
        let q = QMatrix::quantize(&m, Precision::I8);
        let QMatrix::I8 { scale, .. } = &q else { panic!("expected I8") };
        let d = q.dequantize();
        for (x, y) in m.as_slice().iter().zip(d.as_slice()) {
            // scale/2 in exact arithmetic; a hair of slack covers the two
            // f32 roundings (divide on encode, multiply on decode).
            let bound = *scale as f64 * 0.5 * (1.0 + 1e-5);
            prop_assert!(((x - y).abs() as f64) <= bound, "x={} y={} scale={}", x, y, scale);
        }
    }

    #[test]
    fn quantized_matmul_stays_pinned_to_reference(vals in finite_vals(48)) {
        let a = DenseMatrix::from_fn(5, 6, |r, c| ((r * 7 + c * 3) % 5) as f32 - 2.0);
        for precision in [Precision::F32, Precision::I8] {
            let b = QMatrix::quantize(&DenseMatrix::from_vec(6, 8, vals.clone()), precision);
            let fused = amud_quant::matmul_deq(&a, &b);
            let reference = a.matmul(&b.dequantize());
            for (x, y) in fused.as_slice().iter().zip(reference.as_slice()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}
