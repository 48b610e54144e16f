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
//!
//! [`word_digest`] is the word-at-a-time variant that seals snapshot
//! artifacts (`amud_serve::snapshot`, format v3) and detects a changed
//! snapshot file in the server; byte FNV stays for cache keys and for
//! the seals of older snapshot versions.

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

/// One step of [`word_digest`]: XOR in a word, multiply by the FNV prime,
/// fold the high half down.
#[inline(always)]
fn word_step(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(FNV_PRIME);
    h ^ (h >> 32)
}

/// Word-wise FNV-style digest of a byte slice: the length, then every
/// 8-byte little-endian word, then the 1–7 tail bytes zero-padded into
/// one last word. One multiply per word instead of per byte makes it
/// about five times faster than [`fingerprint_bytes`] (4.0 ms against
/// 21.6 ms over 14.4 MB on a 2-vCPU Xeon); snapshot v3 seals and the
/// server's change detection use it.
///
/// **One changed word always changes the digest.** For a fixed word `w`
/// each step is a bijection on the 64-bit state: XOR with `w` is its own
/// inverse, multiplying by the odd prime is invertible mod 2⁶⁴, and
/// `h ^ (h >> 32)` is inverted by applying it again. Two equal-length
/// inputs that differ in exactly one word (or tail byte) reach the same
/// state up to that word, differ right after it (`h ^ w ≠ h ^ w′`, then
/// bijections), and every later step maps distinct states to distinct
/// states. The length goes in first, so a zero-padded tail cannot
/// collide with a longer input that spells those zeros out.
///
/// The fold is there because multiplication only carries upward: without
/// it `(h ^ 2⁶³)·P = h·P ^ 2⁶³`, so flipping the top bit of any two
/// words would cancel. With it no single-bit difference survives a step
/// as a single bit. Like FNV this is an integrity check, not a MAC.
pub fn word_digest(bytes: &[u8]) -> u64 {
    let mut h = word_step(FNV_OFFSET, bytes.len() as u64);
    let (words, tail) = bytes.as_chunks::<8>();
    for w in words {
        h = word_step(h, u64::from_le_bytes(*w));
    }
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = word_step(h, u64::from_le_bytes(last));
    }
    h
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
    use proptest::prelude::*;

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

    #[test]
    fn word_digest_known_value() {
        // Pinned: snapshot v3 seals on disk depend on these exact bits.
        assert_eq!(word_digest(b""), 0xaf63_bd4c_2962_0a93);
        assert_eq!(word_digest(b"AMUDSNP\n seals a word at a time"), 0x9ce1_465e_0cd9_7303);
    }

    #[test]
    fn word_digest_length_is_part_of_the_digest() {
        let base = b"AMUDSNP\n+tail".to_vec();
        let mut seen = vec![word_digest(&base)];
        for extra in 1..=16 {
            let mut longer = base.clone();
            longer.resize(base.len() + extra, 0);
            let d = word_digest(&longer);
            assert!(!seen.contains(&d), "appending {extra} zero bytes kept a digest");
            seen.push(d);
        }
    }

    #[test]
    fn word_digest_runs_every_tail_width() {
        // Lengths 0..=17: no tail, every tail width 1..=7, over 0, 1 and
        // 2 whole words. Each length digests apart from the others, and
        // flipping any one byte changes the digest.
        let mut seen = Vec::new();
        for len in 0..=17usize {
            let bytes: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(37)).collect();
            let d = word_digest(&bytes);
            assert!(!seen.contains(&d), "length {len} collides with a shorter input");
            seen.push(d);
            for i in 0..len {
                let mut flipped = bytes.clone();
                flipped[i] ^= 0x80;
                assert_ne!(word_digest(&flipped), d, "length {len}, byte {i}");
            }
        }
    }

    #[test]
    fn word_digest_top_bit_flips_in_two_words_do_not_cancel() {
        // Without the fold, (h ^ 2^63)·P = h·P ^ 2^63 and these two flips
        // would cancel.
        let bytes = vec![0x5au8; 32];
        let mut flipped = bytes.clone();
        flipped[7] ^= 0x80;
        flipped[15] ^= 0x80;
        assert_ne!(word_digest(&flipped), word_digest(&bytes));
    }

    proptest! {
        #[test]
        fn word_digest_sees_any_one_changed_word_or_tail_byte(
            len in 1usize..200,
            seed in 0u64..u64::MAX,
            at in 0usize..1_000_000,
            delta in 1u64..u64::MAX,
        ) {
            let mut state = seed | 1;
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state as u8
                })
                .collect();
            let mut changed = bytes.clone();
            let words = len / 8;
            let slot = at % (words + len % 8);
            if slot < words {
                // One whole 8-byte word XORed with a nonzero delta.
                for (b, d) in changed[slot * 8..slot * 8 + 8].iter_mut().zip(delta.to_le_bytes()) {
                    *b ^= d;
                }
            } else {
                // One tail byte, changed by a nonzero amount.
                let i = words * 8 + (slot - words);
                changed[i] ^= (delta % 255 + 1) as u8;
            }
            prop_assert!(changed != bytes);
            prop_assert!(word_digest(&changed) != word_digest(&bytes));
        }
    }
}
