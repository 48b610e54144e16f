//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the *exact* API surface it consumes — [`Rng`], [`SeedableRng`],
//! [`rngs::StdRng`] and [`seq::SliceRandom`] — over a SplitMix64 generator.
//! Everything is deterministic given the seed, which is all the
//! reproduction's seeded-repeats protocol requires; no claim of statistical
//! quality beyond "good enough for Xavier init, dropout masks and dSBM
//! sampling" is made.
//!
//! The crate is named `rand` and exposed as a path dependency so that the
//! rest of the workspace compiles unchanged against either this stub or the
//! real crate.

#![forbid(unsafe_code)]

use std::ops::Range;

/// A source of uniformly distributed 64-bit values.
pub trait RngCore {
    /// The next raw 64-bit output of the generator.
    fn next_u64(&mut self) -> u64;
}

/// User-facing sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Samples a value of type `T` from its standard distribution
    /// (`f32`/`f64` uniform in `[0, 1)`, integers over the full range).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_rng(self)
    }

    /// Samples uniformly from a half-open range.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_range(range, self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types samplable via [`Rng::gen`].
pub trait Standard {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f32 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 24 high bits → uniform in [0, 1) with full f32 mantissa coverage.
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for f64 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Types samplable via [`Rng::gen_range`].
pub trait SampleUniform: Sized {
    fn sample_range<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self;
}

impl SampleUniform for usize {
    fn sample_range<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self {
        assert!(range.start < range.end, "gen_range: empty range");
        let span = (range.end - range.start) as u64;
        // Multiply-shift bounded sampling (Lemire); bias is negligible for
        // the span sizes used here and determinism is what matters.
        range.start + ((rng.next_u64() as u128 * span as u128) >> 64) as usize
    }
}

impl SampleUniform for u64 {
    fn sample_range<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self {
        assert!(range.start < range.end, "gen_range: empty range");
        let span = range.end - range.start;
        range.start + ((rng.next_u64() as u128 * span as u128) >> 64) as u64
    }
}

impl SampleUniform for i64 {
    fn sample_range<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self {
        assert!(range.start < range.end, "gen_range: empty range");
        let span = (range.end - range.start) as u64;
        range.start + (((rng.next_u64() as u128 * span as u128) >> 64) as u64) as i64
    }
}

impl SampleUniform for f32 {
    fn sample_range<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self {
        assert!(range.start < range.end, "gen_range: empty range");
        let u: f32 = Standard::from_rng(rng);
        range.start + u * (range.end - range.start)
    }
}

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self {
        assert!(range.start < range.end, "gen_range: empty range");
        let u: f64 = Standard::from_rng(rng);
        range.start + u * (range.end - range.start)
    }
}

/// Seedable generators, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: SplitMix64 — tiny state, solid
    /// 64-bit avalanche mixing, and fully deterministic from the seed.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            Self { state: seed }
        }
    }
}

pub mod seq {
    use super::Rng;

    /// Slice shuffling, mirroring `rand::seq::SliceRandom`.
    pub trait SliceRandom {
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng>(&mut self, rng: &mut R);

        /// A uniformly chosen element, or `None` on an empty slice.
        fn choose<R: Rng>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn seeded_streams_are_reproducible() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn unit_floats_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x: f32 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            let y: f64 = rng.gen();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let i = rng.gen_range(3usize..17);
            assert!((3..17).contains(&i));
            let f = rng.gen_range(-2.0f32..2.0);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "a 50-element shuffle leaving order intact is astronomically unlikely"
        );
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(4);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
    }
}
