//! # amud-quant — post-training quantized artifacts for the inference path
//!
//! Every hot kernel in this workspace is memory-bandwidth-bound
//! (`BENCH_kernels.json`), and ADPA's decoupled design makes inference a
//! tiny MLP over *precomputed* propagated features — so the cheapest
//! speedup is fewer bytes, not fewer FLOPs. This crate provides
//! post-training, per-tensor symmetric quantization of those stored
//! tensors to two compact formats:
//!
//! * **f16** — IEEE-754 binary16, encoded bit-level in std only (no
//!   unstable `f16` type) with round-to-nearest-even. Decode is *exact*
//!   (every binary16 value is representable in binary32).
//! * **int8** — one symmetric scale per tensor (`scale = max|x| / 127`),
//!   saturating to `[-127, 127]`. Dequantized value is
//!   `(q as f32) * scale`, a single rounding.
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

/// Exact IEEE-754 binary16 → binary32 decode.
///
/// Every binary16 value (normals, subnormals, ±0, ±inf, NaNs) is exactly
/// representable in binary32, so this is a pure re-encoding with no
/// rounding. NaN payloads are preserved (shifted into the f32 mantissa),
/// matching the software decode convention.
#[inline]
pub fn f16_to_f32(bits: u16) -> f32 {
    // Branch-light widening: shift exponent+mantissa into binary32
    // position and rebias 15 → 127. The common (normal) case is pure
    // integer ALU with no taken branch; the two rare buckets fix up
    // after.
    let sign = u32::from(bits & 0x8000) << 16;
    let em = u32::from(bits & 0x7fff) << 13; // exponent+mantissa, shifted
    let exp = em & 0x0f80_0000; // the f16 exponent field, post-shift
    let mut o = em.wrapping_add(112 << 23); // rebias 15 → 127
    if exp == 0x0f80_0000 {
        // Inf / NaN: exponent saturates to 255, payload already shifted.
        o = o.wrapping_add(112 << 23);
    } else if exp == 0 {
        // Zero / subnormal: rebias once more to land at `2^-14 +
        // man·2^-24`, then renormalize with an exact binary32 subtract
        // (both operands and the difference are representable).
        o = o.wrapping_add(1 << 23);
        o = (f32::from_bits(o) - f32::from_bits(0x3880_0000)).to_bits(); // 2^-14
    }
    f32::from_bits(o | sign)
}

/// IEEE-754 binary32 → binary16 encode with round-to-nearest-even.
///
/// Handles all binary32 inputs: overflow saturates to ±inf (the IEEE
/// behaviour for round-to-nearest), values below half the smallest
/// subnormal round to ±0, the subnormal window `[2^-24, 2^-14)` rounds
/// into the 10-bit subnormal mantissa, and NaNs stay NaN (quietened, top
/// payload bits preserved). Inverse of [`f16_to_f32`] on every value
/// binary16 can represent — round-tripping those is bit-exact
/// (property-tested exhaustively).
#[inline]
pub fn f16_from_f32(v: f32) -> u16 {
    let bits = v.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        // Inf stays inf; NaN keeps its top payload bits and is quietened
        // so the result can never collapse to the inf encoding.
        return if man == 0 {
            sign | 0x7c00
        } else {
            sign | 0x7c00 | 0x0200 | ((man >> 13) & 0x1ff) as u16
        };
    }
    let e16 = exp - 127 + 15;
    if e16 >= 0x1f {
        // Above the finite range: round-to-nearest sends everything at or
        // beyond (65504 + 16) to infinity. Values between the largest
        // finite f16 and that midpoint have e16 == 0x1e and are handled
        // by the mantissa-carry path below.
        return sign | 0x7c00;
    }
    if e16 <= 0 {
        if e16 < -10 {
            // Below half the smallest subnormal (2^-25): rounds to ±0.
            return sign;
        }
        // Subnormal target: shift the (implicit-1) mantissa into the
        // 10-bit window and round the shifted-out remainder to nearest,
        // ties to even.
        let m = man | 0x0080_0000;
        let shift = (14 - e16) as u32;
        let base = (m >> shift) as u16;
        let rem = m & ((1u32 << shift) - 1);
        let half = 1u32 << (shift - 1);
        let round_up = rem > half || (rem == half && base & 1 == 1);
        return sign | if round_up { base + 1 } else { base };
    }
    // Normal target: rebias, truncate the mantissa 23 → 10 bits, round
    // the low 13 bits to nearest, ties to even. A mantissa carry ripples
    // into the exponent field naturally (including up to inf).
    let base = ((e16 as u32) << 10) | (man >> 13);
    let rem = man & 0x1fff;
    let round_up = rem > 0x1000 || (rem == 0x1000 && base & 1 == 1);
    sign | (if round_up { base + 1 } else { base }) as u16
}

/// Storage precision of one quantized tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Unquantized binary32 — the identity mode (4 bytes/element).
    F32,
    /// IEEE-754 binary16 (2 bytes/element), exact decode.
    F16,
    /// Symmetric per-tensor int8 (1 byte/element + one f32 scale).
    I8,
}

impl Precision {
    /// Stable on-disk code for the snapshot format (`0`/`1`/`2`).
    pub fn code(self) -> u32 {
        match self {
            Precision::F32 => 0,
            Precision::F16 => 1,
            Precision::I8 => 2,
        }
    }

    /// Inverse of [`Precision::code`]; `None` for unknown codes.
    pub fn from_code(code: u32) -> Option<Precision> {
        match code {
            0 => Some(Precision::F32),
            1 => Some(Precision::F16),
            2 => Some(Precision::I8),
            _ => None,
        }
    }

    /// Human-readable name (`"f32"`, `"f16"`, `"int8"`).
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::F16 => "f16",
            Precision::I8 => "int8",
        }
    }

    /// Parses [`Precision::name`] spellings (plus `"i8"`).
    pub fn parse(s: &str) -> Option<Precision> {
        match s {
            "f32" => Some(Precision::F32),
            "f16" => Some(Precision::F16),
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
    /// uniformly (`"f16"`), and `"features:weights"` sets the two halves
    /// independently (`"int8:f16"`).
    pub fn parse(s: &str) -> Option<QuantSpec> {
        match s.split_once(':') {
            None => Precision::parse(s).map(QuantSpec::uniform),
            Some((f, w)) => {
                Some(QuantSpec { features: Precision::parse(f)?, weights: Precision::parse(w)? })
            }
        }
    }
}

/// A dense row-major matrix stored at one of the three [`Precision`]s.
///
/// The f32 variant wraps a [`DenseMatrix`] unchanged, so an all-f32
/// artifact round-trips bit-for-bit through this type (and the serving
/// engine's f32 path stays byte-identical to the pre-quantization code).
#[derive(Debug, Clone, PartialEq)]
pub enum QMatrix {
    /// Unquantized rows.
    F32(DenseMatrix),
    /// binary16 rows (bit patterns), row-major.
    F16 {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
        /// `rows * cols` binary16 bit patterns, row-major.
        bits: Vec<u16>,
    },
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
            Precision::F16 => QMatrix::F16 {
                rows: m.rows(),
                cols: m.cols(),
                bits: m.as_slice().iter().map(|&v| f16_from_f32(v)).collect(),
            },
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

    /// Builds an f16 matrix from decoded parts, validating the buffer
    /// length against the shape (`None` on mismatch — snapshot decode
    /// must never panic).
    pub fn try_f16(rows: usize, cols: usize, bits: Vec<u16>) -> Option<QMatrix> {
        if rows.checked_mul(cols)? != bits.len() {
            return None;
        }
        Some(QMatrix::F16 { rows, cols, bits })
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
            QMatrix::F16 { rows, .. } | QMatrix::I8 { rows, .. } => *rows,
        }
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        match self {
            QMatrix::F32(m) => m.cols(),
            QMatrix::F16 { cols, .. } | QMatrix::I8 { cols, .. } => *cols,
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
            QMatrix::F16 { .. } => Precision::F16,
            QMatrix::I8 { .. } => Precision::I8,
        }
    }

    /// Resident payload bytes (element storage + int8 scale; excludes
    /// container overhead). The number `bench-quant` reports as
    /// "resident bytes".
    pub fn n_bytes(&self) -> usize {
        match self {
            QMatrix::F32(m) => m.as_slice().len() * 4,
            QMatrix::F16 { bits, .. } => bits.len() * 2,
            QMatrix::I8 { q, .. } => q.len() + 4,
        }
    }

    /// Expands back to f32. Exact for f32 (clone) and f16 (decode is
    /// exact); for int8 this is the canonical single-rounding
    /// `q as f32 * scale`.
    pub fn dequantize(&self) -> DenseMatrix {
        match self {
            QMatrix::F32(m) => m.clone(),
            QMatrix::F16 { rows, cols, bits } => {
                DenseMatrix::from_vec(*rows, *cols, bits.iter().map(|&b| f16_to_f32(b)).collect())
            }
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
            QMatrix::F16 { cols, bits, .. } => {
                // QMatrix payloads hold rows · cols encoded
                // entries; the serving gather contract passes r < rows.
                let row = &bits[r * cols..(r + 1) * cols];
                for (o, &b) in out.iter_mut().zip(row) {
                    *o = f16_to_f32(b);
                }
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
    fn f16_decode_is_exact_on_pinned_patterns() {
        // Exactness spot checks across every decode branch: zero, subnormal,
        // normal, inf, NaN.
        assert_eq!(f16_to_f32(0x0000).to_bits(), 0.0f32.to_bits());
        assert_eq!(f16_to_f32(0x8000).to_bits(), (-0.0f32).to_bits());
        assert_eq!(f16_to_f32(0x0001), 2.0f32.powi(-24)); // smallest subnormal
        assert_eq!(f16_to_f32(0x3c00), 1.0);
        assert_eq!(f16_to_f32(0xc000), -2.0);
        assert_eq!(f16_to_f32(0x7bff), 65504.0); // largest finite
        assert_eq!(f16_to_f32(0x7c00), f32::INFINITY);
        assert_eq!(f16_to_f32(0xfc00), f32::NEG_INFINITY);
        assert!(f16_to_f32(0x7e00).is_nan());
    }

    #[test]
    fn f16_round_trip_is_bit_exact_for_every_representable_value() {
        // All 2^16 bit patterns: finite values and infinities must
        // round-trip exactly; NaNs must stay NaN.
        for b in 0..=u16::MAX {
            let v = f16_to_f32(b);
            if v.is_nan() {
                assert!(f16_to_f32(f16_from_f32(v)).is_nan(), "bits={b:#06x}");
            } else {
                assert_eq!(f16_from_f32(v), b, "bits={b:#06x} value={v}");
            }
        }
    }

    #[test]
    fn f16_encode_rounds_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 (even) and 1 + 2^-10:
        // ties to even ⇒ 1.0.
        assert_eq!(f16_from_f32(1.0 + 2f32.powi(-11)), 0x3c00);
        // 1 + 3·2^-11 is halfway between 1 + 2^-10 (odd) and 1 + 2^-9:
        // ties to even ⇒ up.
        assert_eq!(f16_from_f32(1.0 + 3.0 * 2f32.powi(-11)), 0x3c02);
        // Just above the tie rounds up.
        assert_eq!(f16_from_f32(1.0 + 2f32.powi(-11) + 2f32.powi(-20)), 0x3c01);
        // Overflow saturates to inf at/above the rounding midpoint 65520.
        assert_eq!(f16_from_f32(65519.99), 0x7bff);
        assert_eq!(f16_from_f32(65520.0), 0x7c00);
        assert_eq!(f16_from_f32(1e30), 0x7c00);
        assert_eq!(f16_from_f32(-1e30), 0xfc00);
        // Underflow: half the smallest subnormal ties to even (zero).
        assert_eq!(f16_from_f32(2f32.powi(-25)), 0x0000);
        assert_eq!(f16_from_f32(2f32.powi(-25) * 1.5), 0x0001);
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
        for p in [Precision::F32, Precision::F16, Precision::I8] {
            let q = QMatrix::quantize(&m, p);
            assert_eq!(q.dequantize(), m, "{}", p.name());
        }
    }

    #[test]
    fn resident_bytes_shrink_by_mode() {
        let m = sample(32, 48, 0.41);
        let f32b = QMatrix::quantize(&m, Precision::F32).n_bytes();
        let f16b = QMatrix::quantize(&m, Precision::F16).n_bytes();
        let i8b = QMatrix::quantize(&m, Precision::I8).n_bytes();
        assert_eq!(f32b, 32 * 48 * 4);
        assert_eq!(f16b, 32 * 48 * 2);
        assert_eq!(i8b, 32 * 48 + 4);
    }

    #[test]
    fn matmul_deq_is_bit_identical_to_dequantize_then_matmul() {
        for p in [Precision::F32, Precision::F16, Precision::I8] {
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
        for p in [Precision::F16, Precision::I8] {
            let b = QMatrix::quantize(&sample(8, 5, 0.37), p);
            assert_eq!(matmul_deq(&a, &b), a.matmul(&b.dequantize()), "{}", p.name());
            let empty = QMatrix::quantize(&DenseMatrix::zeros(8, 0), p);
            assert_eq!(matmul_deq(&a, &empty).shape(), (6, 0));
        }
    }

    #[test]
    fn matmul_deq_is_thread_count_invariant() {
        let a = sample(64, 48, 0.61);
        for p in [Precision::F16, Precision::I8] {
            let b = QMatrix::quantize(&sample(48, 40, 0.43), p);
            let reference = amud_par::with_threads(1, || matmul_deq(&a, &b));
            for threads in [2, 3, 8] {
                let got = amud_par::with_threads(threads, || matmul_deq(&a, &b));
                for (x, y) in got.as_slice().iter().zip(reference.as_slice()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{} threads={threads}", p.name());
                }
            }
        }
    }

    #[test]
    fn decode_row_into_matches_dequantized_rows() {
        let m = sample(9, 14, 0.83);
        for p in [Precision::F32, Precision::F16, Precision::I8] {
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
        assert!(QMatrix::try_f16(2, 3, vec![0; 6]).is_some());
        assert!(QMatrix::try_f16(2, 3, vec![0; 5]).is_none());
        assert!(QMatrix::try_i8(2, 3, 0.5, vec![0; 6]).is_some());
        assert!(QMatrix::try_i8(2, 3, 0.5, vec![0; 7]).is_none());
        assert!(QMatrix::try_f16(usize::MAX, 2, vec![0; 4]).is_none());
    }

    #[test]
    fn precision_codes_round_trip() {
        for p in [Precision::F32, Precision::F16, Precision::I8] {
            assert_eq!(Precision::from_code(p.code()), Some(p));
            assert_eq!(Precision::parse(p.name()), Some(p));
        }
        assert_eq!(Precision::from_code(3), None);
        assert_eq!(QuantSpec::parse("int8"), Some(QuantSpec::uniform(Precision::I8)));
        assert_eq!(QuantSpec::parse("bogus"), None);
    }
}
