//! Criterion bench: boolean SpGEMM for 2-order DP operator materialisation
//! — the pre-processing cost AMUD and ADPA pay once per graph.

use amud_datasets::{DsbmConfig, InterClassStructure};
use amud_graph::patterns::DirectedPattern;
use amud_graph::CsrMatrix;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;

fn graph(n: usize, avg_deg: usize) -> CsrMatrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    DsbmConfig::new(n, n * avg_deg, 5)
        .with_homophily(0.3)
        .with_direction_informativeness(0.7)
        .with_structure(InterClassStructure::Cyclic)
        .generate(&mut rng)
        .adjacency()
        .clone()
}

fn bench_two_order_patterns(c: &mut Criterion) {
    let mut group = c.benchmark_group("spgemm_two_order");
    group.sample_size(20);
    for n in [500usize, 2000, 8000] {
        let a = graph(n, 8);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                DirectedPattern::two_order()
                    .iter()
                    .map(|p| p.materialize(&a).map(|m| m.nnz()))
                    .sum::<Result<usize, _>>()
            })
        });
    }
    group.finish();
}

fn bench_transpose(c: &mut Criterion) {
    let a = graph(8000, 8);
    c.bench_function("transpose_8k", |b| b.iter(|| a.transpose().nnz()));
}

criterion_group!(benches, bench_two_order_patterns, bench_transpose);
criterion_main!(benches);
