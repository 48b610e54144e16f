//! Offline stand-in for the `criterion` crate.
//!
//! Implements the calling convention the workspace's benches use —
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_with_input`],
//! [`Bencher::iter`], [`criterion_group!`] / [`criterion_main!`] — with a
//! plain wall-clock measurement loop instead of criterion's statistical
//! machinery: each benchmark is warmed up briefly, then timed over a fixed
//! number of batches, and min/mean per-iteration times are printed.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Opaque-to-the-optimiser value passthrough.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// A named benchmark id, mirroring `criterion::BenchmarkId`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `function_name/parameter` form.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        Self { label: format!("{}/{}", function.into(), parameter) }
    }

    /// Parameter-only form.
    pub fn from_parameter(parameter: impl Display) -> Self {
        Self { label: parameter.to_string() }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label)
    }
}

/// Passed to benchmark closures; [`Bencher::iter`] runs and times the body.
pub struct Bencher {
    sample_size: usize,
    /// Mean and minimum per-iteration time of the last `iter` call.
    result: Option<(Duration, Duration)>,
}

impl Bencher {
    /// Times `body`, recording mean and min per-iteration wall-clock time.
    pub fn iter<R>(&mut self, mut body: impl FnMut() -> R) {
        // Warm-up: one untimed call (page-in, allocator, caches).
        std_black_box(body());
        let mut total = Duration::ZERO;
        let mut min = Duration::MAX;
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            std_black_box(body());
            let dt = t0.elapsed();
            total += dt;
            min = min.min(dt);
        }
        self.result = Some((total / self.sample_size as u32, min));
    }
}

fn run_bench(group: &str, label: &str, sample_size: usize, f: &mut dyn FnMut(&mut Bencher)) {
    let mut b = Bencher { sample_size, result: None };
    f(&mut b);
    match b.result {
        Some((mean, min)) => {
            println!("{group}/{label}: mean {mean:?}, min {min:?} ({sample_size} samples)")
        }
        None => println!("{group}/{label}: no measurement recorded"),
    }
}

/// A group of related benchmarks, mirroring `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup {
    /// Sets how many timed iterations each benchmark runs.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Benchmarks `f` under `id`, passing `input` through.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        run_bench(&self.name, &id.to_string(), self.sample_size, &mut |b| f(b, input));
        self
    }

    /// Benchmarks `f` under a plain string label.
    pub fn bench_function(
        &mut self,
        label: impl Display,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        run_bench(&self.name, &label.to_string(), self.sample_size, &mut f);
        self
    }

    /// Ends the group (printing happens eagerly; nothing to flush).
    pub fn finish(&mut self) {}
}

/// Top-level harness handle, mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named group with the default sample size.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup { name: name.into(), sample_size: 10 }
    }

    /// Benchmarks a standalone function.
    pub fn bench_function(
        &mut self,
        label: impl Display,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        run_bench("bench", &label.to_string(), 10, &mut f);
        self
    }
}

/// Mirror of `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Mirror of `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_a_measurement() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("smoke");
        group.sample_size(3);
        let mut ran = 0u32;
        group.bench_function("count", |b| b.iter(|| ran += 1));
        group.finish();
        // warm-up + 3 timed samples
        assert_eq!(ran, 4);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("order1", 3).to_string(), "order1/3");
        assert_eq!(BenchmarkId::from_parameter(64).to_string(), "64");
    }
}
