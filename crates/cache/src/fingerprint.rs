//! Content fingerprints for cache keys.
//!
//! The precompute store is *content-addressed*: two `GraphData` instances
//! loaded from the same `.amud` file hash to the same key even though they
//! are distinct allocations, so every seed of a `repeat_runs` sweep and
//! every `grid_search` hyperpoint lands on the same cached artifact. FNV-1a
//! (64-bit) is used because it is tiny, std-only, and fast enough that
//! fingerprinting is negligible next to even one spmm — a fingerprint over
//! a 2M-entry feature matrix costs a single linear pass.
//!
//! Floats are hashed via [`f32::to_bits`], so the fingerprint distinguishes
//! exactly the inputs the deterministic kernels distinguish (including
//! `-0.0` vs `0.0` and NaN payloads): bit-equal inputs ⇒ equal keys, and a
//! single changed bit anywhere ⇒ a different key with probability
//! `1 − 2⁻⁶⁴` per the usual FNV collision behaviour.

use amud_graph::CsrMatrix;
use amud_nn::DenseMatrix;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher over byte and integer words.
///
/// Not a `std::hash::Hasher`: cache keys need a *stable* value across
/// processes and runs (the default `DefaultHasher` is randomly keyed), and
/// only a handful of input types, so a tiny purpose-built accumulator is
/// clearer than the trait dance.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Absorbs a `u64` as its 8 little-endian bytes (lengths, dims, bit
    /// patterns). Feeding lengths keeps the encoding prefix-free: `[1,2]`
    /// followed by `[3]` cannot collide with `[1]` followed by `[2,3]`.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs an `f32` by bit pattern (total: distinguishes NaNs, ±0).
    pub fn write_f32(&mut self, v: f32) {
        self.write_bytes(&v.to_bits().to_le_bytes());
    }

    /// Final 64-bit digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a digest of a byte slice (length-prefixed).
pub fn fingerprint_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(bytes.len() as u64);
    h.write_bytes(bytes);
    h.finish()
}

/// Content fingerprint of a sparse matrix: shape, per-row structure, and
/// every stored value's bit pattern. Two CSR matrices fingerprint equal iff
/// they have identical shape, sparsity structure, and bit-identical values.
pub fn fingerprint_csr(m: &CsrMatrix) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(m.n_rows() as u64);
    h.write_u64(m.n_cols() as u64);
    h.write_u64(m.nnz() as u64);
    for r in 0..m.n_rows() {
        let cols = m.row_cols(r);
        h.write_u64(cols.len() as u64);
        for &c in cols {
            h.write_u64(u64::from(c));
        }
        for &v in m.row_values(r) {
            h.write_f32(v);
        }
    }
    h.finish()
}

/// Content fingerprint of a dense matrix: shape plus every entry's bit
/// pattern, in row-major order.
pub fn fingerprint_dense(m: &DenseMatrix) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(m.rows() as u64);
    h.write_u64(m.cols() as u64);
    for &v in m.as_slice() {
        h.write_f32(v);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fnv_vector() {
        // FNV-1a 64 of the bytes "a" is the published test vector.
        let mut h = Fnv1a::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn dense_fingerprint_is_content_addressed() {
        let a = DenseMatrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        let b = DenseMatrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        assert_eq!(fingerprint_dense(&a), fingerprint_dense(&b));
        let mut c = b.clone();
        c.as_mut_slice()[5] += 1.0;
        assert_ne!(fingerprint_dense(&a), fingerprint_dense(&c));
    }

    #[test]
    fn dense_fingerprint_distinguishes_shape() {
        let a = DenseMatrix::zeros(2, 6);
        let b = DenseMatrix::zeros(3, 4);
        assert_ne!(fingerprint_dense(&a), fingerprint_dense(&b));
    }

    #[test]
    fn dense_fingerprint_distinguishes_signed_zero() {
        let a = DenseMatrix::from_fn(1, 1, |_, _| 0.0);
        let b = DenseMatrix::from_fn(1, 1, |_, _| -0.0);
        assert_ne!(fingerprint_dense(&a), fingerprint_dense(&b));
    }

    #[test]
    fn csr_fingerprint_tracks_structure_and_values() {
        let edges = vec![(0usize, 1usize, 1.0f32), (1, 2, 2.0), (2, 0, 3.0)];
        let a = CsrMatrix::from_coo(3, 3, edges.clone()).unwrap();
        let b = CsrMatrix::from_coo(3, 3, edges).unwrap();
        assert_eq!(fingerprint_csr(&a), fingerprint_csr(&b));

        let moved = CsrMatrix::from_coo(3, 3, vec![(0, 2, 1.0), (1, 2, 2.0), (2, 0, 3.0)]).unwrap();
        assert_ne!(fingerprint_csr(&a), fingerprint_csr(&moved));

        let revalued =
            CsrMatrix::from_coo(3, 3, vec![(0, 1, 9.0), (1, 2, 2.0), (2, 0, 3.0)]).unwrap();
        assert_ne!(fingerprint_csr(&a), fingerprint_csr(&revalued));
    }

    #[test]
    fn bytes_fingerprint_is_length_prefixed() {
        assert_ne!(fingerprint_bytes(b""), fingerprint_bytes(b"\0"));
    }
}
