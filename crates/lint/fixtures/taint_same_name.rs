//! Seeded violation: two constructors named `new` in one file, only one
//! of which reads an env var. Expected findings under the label
//! `crates/train/src/fixture.rs`:
//!   2 × determinism-taint
//!     - `Tuned::new`'s env-derived epsilon reaching `from_vec` in
//!       `tuned_matrix`
//!     - the same epsilon passed through `doubled` into `from_vec` in
//!       `tuned_doubled`
//! `Plain::twice` calls `Self::new`, which is `Plain::new`, not every
//! `new` in the file, and `doubled` returns taint only to a caller that
//! passes taint in, so `plain_matrix` and `plain_doubled` stay silent.

pub struct Tuned {
    eps: f32,
}

impl Tuned {
    pub fn new() -> Self {
        let eps = match std::env::var("FIXTURE_EPS") {
            Ok(v) => v.len() as f32,
            Err(_) => 0.0,
        };
        Tuned { eps }
    }
}

pub struct Plain {
    n: usize,
}

impl Plain {
    pub fn new(n: usize) -> Self {
        Plain { n }
    }

    pub fn twice(n: usize) -> Self {
        Self::new(2 * n)
    }
}

pub fn doubled(x: f32) -> f32 {
    x * 2.0
}

pub fn tuned_matrix(n: usize) -> DenseMatrix {
    let t = Tuned::new();
    DenseMatrix::from_vec(n, 1, vec![t.eps; n])
}

pub fn tuned_doubled(n: usize) -> DenseMatrix {
    let d = doubled(Tuned::new().eps);
    DenseMatrix::from_vec(n, 1, vec![d; n])
}

pub fn plain_matrix(n: usize) -> DenseMatrix {
    let p = Plain::twice(n);
    DenseMatrix::from_vec(n, 1, vec![p.n as f32; n])
}

pub fn plain_doubled(n: usize) -> DenseMatrix {
    let d = doubled(n as f32);
    DenseMatrix::from_vec(n, 1, vec![d; n])
}
