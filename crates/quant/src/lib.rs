//! # amud-quant — post-training quantized artifacts for the inference path
//!
//! Every hot kernel in this workspace is memory-bandwidth-bound
//! (`BENCH_kernels.json`), and ADPA's decoupled design makes inference a
//! tiny MLP over *precomputed* propagated features — so the cheapest
//! speedup is fewer bytes, not fewer FLOPs. This crate provides
//! post-training, per-tensor symmetric int8 quantization of those stored
//! tensors: one symmetric scale per tensor (`scale = max|x| / 127`),
//! saturating to `[-127, 127]`. The dequantized value is
//! `(q as f32) * scale`, a single rounding.
//!
//! ## Determinism contract
//!
//! Quantization is a storage format, not a second kernel family: a
//! quantized weight is decoded once per [`matmul_deq`] call into a
//! temporary f32 matrix, which then runs through the one f32
//! `DenseMatrix::matmul`. `matmul_deq(a, q)` is therefore
//! `a.matmul(&q.dequantize())` by construction, and inherits that
//! kernel's bit-identity at every `AMUD_THREADS` — pinned by tests here
//! and swept across thread counts by `bench-quant`.

use amud_nn::matrix::DenseMatrix;

/// Storage precision of one quantized tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Unquantized binary32 — the identity mode (4 bytes/element).
    F32,
    /// Symmetric per-tensor int8 (1 byte/element + one f32 scale).
    I8,
}

impl Precision {
    /// Stable on-disk code for the snapshot format (`0` f32, `2` int8).
    /// Code `1` is reserved: it was the retired binary16 format and is
    /// never reused, so the snapshot reader can name it when it sees it.
    pub fn code(self) -> u32 {
        match self {
            Precision::F32 => 0,
            Precision::I8 => 2,
        }
    }

    /// Inverse of [`Precision::code`]; `None` for unknown codes,
    /// including the reserved code `1`.
    pub fn from_code(code: u32) -> Option<Precision> {
        match code {
            0 => Some(Precision::F32),
            2 => Some(Precision::I8),
            _ => None,
        }
    }

    /// Human-readable name (`"f32"`, `"int8"`).
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::I8 => "int8",
        }
    }

    /// Parses [`Precision::name`] spellings (plus `"i8"`).
    pub fn parse(s: &str) -> Option<Precision> {
        match s {
            "f32" => Some(Precision::F32),
            "int8" | "i8" => Some(Precision::I8),
            _ => None,
        }
    }
}

/// Which precision each half of a model artifact is stored at: the big
/// propagated-feature tensors and the small MLP/attention weights can be
/// quantized independently (mixed-precision snapshots are first-class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuantSpec {
    /// Precision for feature tensors (`x0`, propagation steps, `W_DP`).
    pub features: Precision,
    /// Precision for weight tensors (scorers, fuse, hop, classifier).
    pub weights: Precision,
}

impl QuantSpec {
    /// The identity spec: everything stays f32.
    pub const F32: QuantSpec = QuantSpec { features: Precision::F32, weights: Precision::F32 };

    /// Same precision for features and weights.
    pub fn uniform(p: Precision) -> QuantSpec {
        QuantSpec { features: p, weights: p }
    }

    /// Parses a spec: a single [`Precision::parse`] spelling applies
    /// uniformly (`"int8"`), and `"features:weights"` sets the two halves
    /// independently (`"int8:f32"`).
    pub fn parse(s: &str) -> Option<QuantSpec> {
        match s.split_once(':') {
            None => Precision::parse(s).map(QuantSpec::uniform),
            Some((f, w)) => {
                Some(QuantSpec { features: Precision::parse(f)?, weights: Precision::parse(w)? })
            }
        }
    }
}

/// A dense row-major matrix stored at one of the two [`Precision`]s.
///
/// The f32 variant wraps a [`DenseMatrix`] unchanged, so an all-f32
/// artifact round-trips bit-for-bit through this type (and the serving
/// engine's f32 path stays byte-identical to the pre-quantization code).
#[derive(Debug, Clone, PartialEq)]
pub enum QMatrix {
    /// Unquantized rows.
    F32(DenseMatrix),
    /// Symmetric int8 rows with one per-tensor scale.
    I8 {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
        /// Dequantization scale: value = `q as f32 * scale`.
        scale: f32,
        /// `rows * cols` quantized values, row-major.
        q: Vec<i8>,
    },
}

impl QMatrix {
    /// Quantizes `m` to precision `p` (post-training, per-tensor).
    ///
    /// int8 uses `scale = max|x| / 127` (`1.0` for an all-zero tensor so
    /// dequantization stays exact) and saturating round-to-nearest; the
    /// per-element dequantization error is bounded by `scale / 2`
    /// (property-tested).
    pub fn quantize(m: &DenseMatrix, p: Precision) -> QMatrix {
        match p {
            Precision::F32 => QMatrix::F32(m.clone()),
            Precision::I8 => {
                let mut max_abs = 0.0f32;
                for &v in m.as_slice() {
                    let a = v.abs();
                    if a > max_abs {
                        max_abs = a;
                    }
                }
                let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
                let q = m
                    .as_slice()
                    .iter()
                    .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8)
                    .collect();
                QMatrix::I8 { rows: m.rows(), cols: m.cols(), scale, q }
            }
        }
    }

    /// Builds an int8 matrix from decoded parts, validating the buffer
    /// length against the shape (`None` on mismatch).
    pub fn try_i8(rows: usize, cols: usize, scale: f32, q: Vec<i8>) -> Option<QMatrix> {
        if rows.checked_mul(cols)? != q.len() {
            return None;
        }
        Some(QMatrix::I8 { rows, cols, scale, q })
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        match self {
            QMatrix::F32(m) => m.rows(),
            QMatrix::I8 { rows, .. } => *rows,
        }
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        match self {
            QMatrix::F32(m) => m.cols(),
            QMatrix::I8 { cols, .. } => *cols,
        }
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    /// Storage precision of this matrix.
    pub fn precision(&self) -> Precision {
        match self {
            QMatrix::F32(_) => Precision::F32,
            QMatrix::I8 { .. } => Precision::I8,
        }
    }

    /// Resident payload bytes (element storage + int8 scale; excludes
    /// container overhead). The number `bench-quant` reports as
    /// "resident bytes".
    pub fn n_bytes(&self) -> usize {
        match self {
            QMatrix::F32(m) => m.as_slice().len() * 4,
            QMatrix::I8 { q, .. } => q.len() + 4,
        }
    }

    /// Expands back to f32: a clone for f32; for int8 the canonical
    /// single-rounding `q as f32 * scale`.
    pub fn dequantize(&self) -> DenseMatrix {
        match self {
            QMatrix::F32(m) => m.clone(),
            QMatrix::I8 { rows, cols, scale, q } => {
                DenseMatrix::from_vec(*rows, *cols, q.iter().map(|&v| v as f32 * *scale).collect())
            }
        }
    }

    /// Decodes row `r` into `out` (over the common prefix of the row and
    /// `out`) — the row-gather primitive the serving engine uses. The
    /// per-element decode is identical to [`QMatrix::dequantize`], so a
    /// gathered row is bitwise the corresponding dequantized row.
    pub fn decode_row_into(&self, r: usize, out: &mut [f32]) {
        match self {
            QMatrix::F32(m) => {
                let row = m.row(r);
                let n = row.len().min(out.len());
                out[..n].copy_from_slice(&row[..n]);
            }
            QMatrix::I8 { cols, scale, q, .. } => {
                let row = &q[r * cols..(r + 1) * cols];
                for (o, &v) in out.iter_mut().zip(row) {
                    *o = v as f32 * *scale;
                }
            }
        }
    }
}

/// `a · b` with `b` stored quantized: decode `b` to f32, then run the
/// f32 `DenseMatrix::matmul`.
///
/// An f32 weight goes straight to the kernel. A quantized one is
/// decoded once per call into a temporary f32 matrix, so the decode cost
/// is shared by every output row. The result is
/// `a.matmul(&b.dequantize())` by construction, at every thread count.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
pub fn matmul_deq(a: &DenseMatrix, b: &QMatrix) -> DenseMatrix {
    match b {
        QMatrix::F32(m) => a.matmul(m),
        q => a.matmul(&q.dequantize()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: usize, cols: usize, seed: f32) -> DenseMatrix {
        DenseMatrix::from_fn(rows, cols, |r, c| ((r * 31 + c * 17) as f32 * seed).sin() * 2.5)
    }

    #[test]
    fn int8_quantization_bounds_per_element_error_by_half_scale() {
        let m = sample(13, 9, 0.73);
        let q = QMatrix::quantize(&m, Precision::I8);
        let QMatrix::I8 { scale, .. } = &q else { panic!("expected I8") };
        let d = q.dequantize();
        for (x, y) in m.as_slice().iter().zip(d.as_slice()) {
            let err = (x - y).abs() as f64;
            assert!(err <= *scale as f64 * 0.5 * (1.0 + 1e-5), "x={x} y={y} scale={scale}");
        }
    }

    #[test]
    fn all_zero_tensor_quantizes_exactly_in_every_mode() {
        let m = DenseMatrix::zeros(4, 6);
        for p in [Precision::F32, Precision::I8] {
            let q = QMatrix::quantize(&m, p);
            assert_eq!(q.dequantize(), m, "{}", p.name());
        }
    }

    #[test]
    fn resident_bytes_shrink_by_mode() {
        let m = sample(32, 48, 0.41);
        let f32b = QMatrix::quantize(&m, Precision::F32).n_bytes();
        let i8b = QMatrix::quantize(&m, Precision::I8).n_bytes();
        assert_eq!(f32b, 32 * 48 * 4);
        assert_eq!(i8b, 32 * 48 + 4);
    }

    #[test]
    fn matmul_deq_is_bit_identical_to_dequantize_then_matmul() {
        for p in [Precision::F32, Precision::I8] {
            for (m, k, n) in [(1, 1, 1), (3, 5, 2), (7, 4, 9), (16, 33, 12), (30, 64, 20)] {
                let a = sample(m, k, 0.59);
                let b = QMatrix::quantize(&sample(k, n, 0.37), p);
                let fused = matmul_deq(&a, &b);
                let reference = a.matmul(&b.dequantize());
                for (x, y) in fused.as_slice().iter().zip(reference.as_slice()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{} m={m} k={k} n={n}", p.name());
                }
            }
        }
    }

    #[test]
    fn matmul_deq_handles_zero_weights_and_empty_shapes() {
        // Zero rows in `a` exercise the block-skip path against the same
        // skip in the reference matmul.
        let mut a = sample(6, 8, 0.59);
        for k in 0..8 {
            a.set(2, k, 0.0);
            if k % 2 == 0 {
                a.set(4, k, 0.0);
            }
        }
        let b = QMatrix::quantize(&sample(8, 5, 0.37), Precision::I8);
        assert_eq!(matmul_deq(&a, &b), a.matmul(&b.dequantize()));
        let empty = QMatrix::quantize(&DenseMatrix::zeros(8, 0), Precision::I8);
        assert_eq!(matmul_deq(&a, &empty).shape(), (6, 0));
    }

    #[test]
    fn matmul_deq_is_thread_count_invariant() {
        let a = sample(64, 48, 0.61);
        let b = QMatrix::quantize(&sample(48, 40, 0.43), Precision::I8);
        let reference = amud_par::with_threads(1, || matmul_deq(&a, &b));
        for threads in [2, 3, 8] {
            let got = amud_par::with_threads(threads, || matmul_deq(&a, &b));
            for (x, y) in got.as_slice().iter().zip(reference.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn decode_row_into_matches_dequantized_rows() {
        let m = sample(9, 14, 0.83);
        for p in [Precision::F32, Precision::I8] {
            let q = QMatrix::quantize(&m, p);
            let d = q.dequantize();
            let mut row = vec![0.0f32; 14];
            for r in 0..9 {
                q.decode_row_into(r, &mut row);
                for (x, y) in row.iter().zip(d.row(r)) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{} r={r}", p.name());
                }
            }
        }
    }

    #[test]
    fn try_constructors_reject_shape_mismatches() {
        assert!(QMatrix::try_i8(2, 3, 0.5, vec![0; 6]).is_some());
        assert!(QMatrix::try_i8(2, 3, 0.5, vec![0; 7]).is_none());
        assert!(QMatrix::try_i8(usize::MAX, 2, 0.5, vec![0; 4]).is_none());
    }

    #[test]
    fn precision_codes_round_trip() {
        for p in [Precision::F32, Precision::I8] {
            assert_eq!(Precision::from_code(p.code()), Some(p));
            assert_eq!(Precision::parse(p.name()), Some(p));
        }
        assert_eq!(Precision::from_code(1), None, "code 1 is reserved");
        assert_eq!(Precision::from_code(3), None);
        assert_eq!(QuantSpec::parse("int8"), Some(QuantSpec::uniform(Precision::I8)));
        assert_eq!(QuantSpec::parse("bogus"), None);
    }
}
