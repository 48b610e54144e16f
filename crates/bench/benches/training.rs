//! Criterion bench: per-epoch training cost — ADPA's decoupled design
//! (propagation pre-processed, training touches only dense matrices)
//! against the tightly coupled NSTE, which pays sparse aggregation every
//! step (the Sec. IV-D / IV-E efficiency claim).

use amud_bench::to_graph_data;
use amud_core::{Adpa, AdpaConfig};
use amud_datasets::{replica, ReplicaScale};
use amud_models::nste::Nste;
use amud_nn::{Adam, Tape};
use amud_train::{GraphData, Model};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;

fn one_epoch(model: &mut dyn Model, data: &GraphData, adam: &mut Adam, rng: &mut StdRng) -> f32 {
    let mut tape = Tape::new();
    let logits = model.forward(&mut tape, data, true, rng);
    let loss = tape.masked_cross_entropy(logits, Rc::clone(&data.labels), Rc::clone(&data.train));
    let out = tape.value(loss).get(0, 0);
    tape.backward(loss);
    tape.apply_grads(model.bank_mut());
    adam.step(model.bank_mut());
    out
}

fn bench_epoch_cost(c: &mut Criterion) {
    let scale = ReplicaScale { node_cap: 1000, feature_cap: 64, avg_degree_cap: 12.0 };
    let data = to_graph_data(&replica("chameleon", scale, 0));
    let mut group = c.benchmark_group("epoch");
    group.sample_size(20);

    group.bench_function("adpa_decoupled", |b| {
        let mut model = Adpa::new(&data, AdpaConfig::default(), 0)
            .unwrap_or_else(|e| panic!("ADPA construction: {e}"));
        let mut adam = Adam::new(0.01);
        let mut rng = StdRng::seed_from_u64(0);
        b.iter(|| one_epoch(&mut model, &data, &mut adam, &mut rng));
    });

    group.bench_function("nste_coupled", |b| {
        let mut model = Nste::new(&data, 64, 2, 0.4, 0);
        let mut adam = Adam::new(0.01);
        let mut rng = StdRng::seed_from_u64(0);
        b.iter(|| one_epoch(&mut model, &data, &mut adam, &mut rng));
    });

    group.finish();
}

fn bench_preprocessing_once(c: &mut Criterion) {
    // The decoupled model's one-time setup cost (operator materialisation +
    // K-step propagation) — paid once, amortised over all epochs.
    let scale = ReplicaScale { node_cap: 1000, feature_cap: 64, avg_degree_cap: 12.0 };
    let data = to_graph_data(&replica("chameleon", scale, 0));
    let mut group = c.benchmark_group("setup");
    group.sample_size(10);
    group.bench_function("adpa_construction", |b| {
        b.iter(|| Adpa::new(&data, AdpaConfig::default(), 0).map(|m| m.n_parameters()))
    });
    group.finish();
}

criterion_group!(benches, bench_epoch_cost, bench_preprocessing_once);
criterion_main!(benches);
