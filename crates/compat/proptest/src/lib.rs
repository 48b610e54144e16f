//! Offline stand-in for the `proptest` crate.
//!
//! Supports exactly the surface the workspace's property tests use: range
//! strategies over integers and floats, tuple strategies, and
//! `prop::collection::vec`, driven by the [`proptest!`] macro with
//! `prop_assert!` / `prop_assert_eq!` assertions and an optional
//! `ProptestConfig::with_cases` header.
//!
//! Unlike the real crate there is no shrinking: a failing case reports its
//! index and message and panics immediately. Cases are generated from a
//! fixed seed, so failures are reproducible run to run.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

pub mod strategy {
    use super::*;

    /// A generator of random values, mirroring `proptest::strategy::Strategy`
    /// minus shrinking.
    pub trait Strategy {
        type Value;

        /// Produces one random value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;
    }

    macro_rules! impl_range_strategy {
        ($t:ty) => {
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        };
    }

    impl_range_strategy!(usize);
    impl_range_strategy!(u64);
    impl_range_strategy!(i64);
    impl_range_strategy!(f32);
    impl_range_strategy!(f64);

    macro_rules! impl_tuple_strategy {
        ($($s:ident / $idx:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A / 0, B / 1);
    impl_tuple_strategy!(A / 0, B / 1, C / 2);
    impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3);

    /// Strategy for `Vec<T>` with a fixed or ranged length.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let len = if self.len.start + 1 >= self.len.end {
                self.len.start
            } else {
                rng.gen_range(self.len.clone())
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Length specifications accepted by [`super::collection::vec`]: an
    /// exact `usize` or a half-open `Range<usize>`.
    pub trait IntoLenRange {
        fn into_len_range(self) -> Range<usize>;
    }

    impl IntoLenRange for usize {
        fn into_len_range(self) -> Range<usize> {
            self..self + 1
        }
    }

    impl IntoLenRange for Range<usize> {
        fn into_len_range(self) -> Range<usize> {
            self
        }
    }

    pub(crate) fn vec_strategy<S: Strategy>(element: S, len: impl IntoLenRange) -> VecStrategy<S> {
        VecStrategy { element, len: len.into_len_range() }
    }
}

/// The `proptest::prop` facade module.
pub mod prop {
    pub mod collection {
        use crate::strategy::{IntoLenRange, Strategy, VecStrategy};

        /// `Vec` strategy with an element strategy and a length spec.
        pub fn vec<S: Strategy>(element: S, len: impl IntoLenRange) -> VecStrategy<S> {
            crate::strategy::vec_strategy(element, len)
        }
    }
}

pub mod test_runner {
    /// A failed property case.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// Builds a failure with the given explanation.
        pub fn fail(message: impl Into<String>) -> Self {
            Self { message: message.into() }
        }

        /// The failure explanation.
        pub fn message(&self) -> &str {
            &self.message
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.message)
        }
    }

    /// Runner configuration, mirroring `proptest::test_runner::Config`.
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` random cases per test.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }
}

/// Everything the test files import.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Runs one named property: `cases` seeded inputs through the body closure.
/// Used by the [`proptest!`] macro; not part of the public mirror API.
pub fn run_property<F>(name: &str, cases: u32, mut case: F)
where
    F: FnMut(&mut StdRng) -> Result<(), test_runner::TestCaseError>,
{
    // Seed derived from the test name so distinct properties explore
    // distinct streams but every run of the suite is identical.
    let seed = name
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3));
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..cases {
        if let Err(e) = case(&mut rng) {
            panic!("property '{name}' failed at case {i}/{cases}: {}", e.message());
        }
    }
}

/// Mirror of `proptest::proptest!`: wraps each `fn name(arg in strategy, ...)`
/// item in a seeded multi-case runner.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr)
        $( $(#[$attr:meta])* fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$attr])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                $crate::run_property(stringify!($name), config.cases, |__rng| {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), __rng);)+
                    $body
                    Ok(())
                });
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Mirror of `proptest::prop_assert!`: on failure returns a
/// [`test_runner::TestCaseError`] from the enclosing `Result` context.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Mirror of `proptest::prop_assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: {:?} != {:?}",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "{} ({:?} != {:?})",
                format!($($fmt)+),
                left,
                right
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3usize..10, f in -1.0f32..1.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-1.0..1.0).contains(&f), "f = {}", f);
        }

        #[test]
        fn vec_lengths_respect_spec(
            fixed in prop::collection::vec(0usize..5, 7),
            ranged in prop::collection::vec((0usize..4, 0usize..4), 0..9),
        ) {
            prop_assert_eq!(fixed.len(), 7);
            prop_assert!(ranged.len() < 9);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics_with_case_index() {
        crate::run_property("always_fails", 5, |_| {
            Err(crate::test_runner::TestCaseError::fail("nope"))
        });
    }
}
