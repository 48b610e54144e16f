//! Offline stand-in for the `rand_distr` crate: just the [`Normal`]
//! distribution (the only one the workspace samples), generated with the
//! Box–Muller transform over the vendored `rand` stub.

#![forbid(unsafe_code)]

use rand::RngCore;

/// A distribution samplable with an RNG, mirroring `rand_distr::Distribution`.
pub trait Distribution<T> {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

/// Error returned by [`Normal::new`] for non-finite or negative spread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NormalError;

impl std::fmt::Display for NormalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("standard deviation must be finite and non-negative")
    }
}

impl std::error::Error for NormalError {}

/// Floating-point scalars [`Normal`] can produce, mirroring
/// `rand_distr::num_traits::Float` in miniature.
pub trait Float: Copy + PartialOrd {
    fn from_f64(x: f64) -> Self;
    fn to_f64(self) -> f64;
    fn is_finite(self) -> bool;
}

impl Float for f32 {
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
}

impl Float for f64 {
    fn from_f64(x: f64) -> Self {
        x
    }
    fn to_f64(self) -> f64 {
        self
    }
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
}

/// The normal distribution `N(mean, std_dev²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal<F: Float> {
    mean: F,
    std_dev: F,
}

impl<F: Float> Normal<F> {
    /// Builds the distribution, rejecting NaN/negative spread.
    pub fn new(mean: F, std_dev: F) -> Result<Self, NormalError> {
        if !std_dev.is_finite() || std_dev.to_f64() < 0.0 {
            return Err(NormalError);
        }
        Ok(Self { mean, std_dev })
    }
}

impl<F: Float> Distribution<F> for Normal<F> {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> F {
        // Box–Muller: two uniforms → one standard normal. The first uniform
        // is kept away from zero so ln() stays finite.
        let u1 = ((rng.next_u64() >> 11) as f64 + 1.0) * (1.0 / (1u64 << 53) as f64);
        let u2 = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        F::from_f64(self.mean.to_f64() + self.std_dev.to_f64() * z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_negative_std() {
        assert!(Normal::new(0.0f32, -1.0).is_err());
        assert!(Normal::new(0.0f64, f64::NAN).is_err());
    }

    #[test]
    fn sample_moments_are_plausible() {
        let normal = Normal::new(2.0f64, 3.0).expect("valid parameters");
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.5, "var {var}");
    }

    #[test]
    fn samples_are_finite() {
        let normal = Normal::new(0.0f32, 1.0).expect("valid parameters");
        let mut rng = StdRng::seed_from_u64(5);
        assert!((0..10_000).all(|_| Float::is_finite(normal.sample(&mut rng))));
    }
}
