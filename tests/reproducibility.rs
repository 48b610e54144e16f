//! Determinism guarantees: everything in the reproduction is a pure
//! function of its seed.

use amud_repro::core::{amud::amud_score, Adpa, AdpaConfig};
use amud_repro::datasets::{replica, ReplicaScale};
use amud_repro::models::registry::{build_model, model_names};
use amud_repro::train::{train, GraphData, Model, TrainConfig};

fn bundle(name: &str, seed: u64) -> GraphData {
    let d = replica(name, ReplicaScale::tiny(), seed);
    GraphData::new(
        &d.graph,
        d.features.clone(),
        d.split.train.clone(),
        d.split.val.clone(),
        d.split.test.clone(),
    )
    .unwrap_or_else(|e| panic!("{name}: the replica does not assemble: {e}"))
}

#[test]
fn dataset_generation_is_deterministic() {
    let a = replica("chameleon", ReplicaScale::tiny(), 9);
    let b = replica("chameleon", ReplicaScale::tiny(), 9);
    assert_eq!(a.graph.edges().collect::<Vec<_>>(), b.graph.edges().collect::<Vec<_>>());
    assert_eq!(a.features, b.features);
    assert_eq!(a.split, b.split);
}

#[test]
fn different_seeds_give_different_graphs() {
    let a = replica("chameleon", ReplicaScale::tiny(), 9);
    let b = replica("chameleon", ReplicaScale::tiny(), 10);
    assert_ne!(a.graph.edges().collect::<Vec<_>>(), b.graph.edges().collect::<Vec<_>>());
}

#[test]
fn amud_is_deterministic() {
    let d = replica("texas", ReplicaScale::tiny(), 0);
    let r1 = amud_score(d.graph.adjacency(), d.labels(), d.n_classes());
    let r2 = amud_score(d.graph.adjacency(), d.labels(), d.n_classes());
    assert_eq!(r1.score, r2.score);
    assert_eq!(r1.decision, r2.decision);
}

#[test]
fn adpa_training_is_bit_reproducible() {
    let data = bundle("texas", 1);
    let cfg =
        TrainConfig { epochs: 40, patience: 0, lr: 0.01, weight_decay: 5e-4, ..Default::default() };
    let run = || {
        let mut m = Adpa::new(&data, AdpaConfig::default(), 7).unwrap();
        train(&mut m, &data, cfg, 7).unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.test_acc, b.test_acc);
    assert_eq!(a.best_val_acc, b.best_val_acc);
    assert_eq!(a.epochs_run, b.epochs_run);
}

#[test]
fn every_baseline_is_seed_reproducible() {
    let data = bundle("texas", 2);
    let cfg =
        TrainConfig { epochs: 15, patience: 0, lr: 0.01, weight_decay: 5e-4, ..Default::default() };
    struct Shim(Box<dyn Model>);
    impl Model for Shim {
        fn bank(&self) -> &amud_repro::nn::ParamBank {
            self.0.bank()
        }
        fn bank_mut(&mut self) -> &mut amud_repro::nn::ParamBank {
            self.0.bank_mut()
        }
        fn forward(
            &self,
            tape: &mut amud_repro::nn::Tape,
            data: &GraphData,
            training: bool,
            rng: &mut rand::rngs::StdRng,
        ) -> amud_repro::nn::NodeId {
            self.0.forward(tape, data, training, rng)
        }
        fn name(&self) -> &'static str {
            self.0.name()
        }
    }
    for name in model_names() {
        let run = || {
            let mut m = Shim(build_model(name, &data, 3));
            train(&mut m, &data, cfg, 3).unwrap().test_acc
        };
        assert_eq!(run(), run(), "{name} is not reproducible");
    }
}
