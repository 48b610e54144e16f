//! Criterion bench: DP-guided feature propagation throughput (Eq. 9).
//!
//! Validates the Sec. IV-D claim that propagation is `O(k·K·m·f)` and a
//! one-time pre-processing cost: time should scale roughly linearly in
//! each of k (operator count via max order), K (steps) and f.

use amud_core::PropagatedFeatures;
use amud_datasets::{DsbmConfig, InterClassStructure};
use amud_graph::PatternSet;
use amud_nn::DenseMatrix;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;

fn setup(n: usize, m: usize) -> (PatternSet, PatternSet, DenseMatrix) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let g = DsbmConfig::new(n, m, 5)
        .with_homophily(0.3)
        .with_direction_informativeness(0.8)
        .with_structure(InterClassStructure::Cyclic)
        .generate(&mut rng);
    let (Ok(order1), Ok(order2)) =
        (PatternSet::up_to_order(g.adjacency(), 1), PatternSet::up_to_order(g.adjacency(), 2))
    else {
        unreachable!("a DSBM adjacency is square")
    };
    let x = DenseMatrix::xavier_uniform(n, 64, &mut rng);
    (order1, order2, x)
}

fn bench_propagation(c: &mut Criterion) {
    let (order1, order2, x) = setup(2000, 16_000);
    let mut group = c.benchmark_group("propagation");
    for k_steps in [1usize, 3] {
        group.bench_with_input(BenchmarkId::new("order1", k_steps), &k_steps, |b, &k| {
            b.iter(|| PropagatedFeatures::compute(&order1, &x, k))
        });
        group.bench_with_input(BenchmarkId::new("order2", k_steps), &k_steps, |b, &k| {
            b.iter(|| PropagatedFeatures::compute(&order2, &x, k))
        });
    }
    group.finish();
}

fn bench_feature_width(c: &mut Criterion) {
    let (_, order2, _) = setup(2000, 16_000);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("propagation_feature_width");
    for f in [16usize, 64, 256] {
        let x = DenseMatrix::xavier_uniform(2000, f, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(f), &f, |b, _| {
            b.iter(|| PropagatedFeatures::compute(&order2, &x, 2))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_propagation, bench_feature_width);
criterion_main!(benches);
