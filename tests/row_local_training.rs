//! Row-local training is the full-graph training loop, bit for bit.
//!
//! `train()` records each epoch's training forward over the sorted `train`
//! rows and its eval forward over the sorted `val ∪ test` rows
//! (`Model::forward_rows`). This suite runs it next to a copy of the loop
//! it replaced, which records full-graph forwards, and compares the
//! per-epoch curve (training loss, validation and test accuracy), the
//! result, and the final full-graph eval logits bitwise.

use amud_repro::core::{Adpa, AdpaConfig, DpAttention};
use amud_repro::datasets::{replica, ReplicaScale};
use amud_repro::models::registry::build_model;
use amud_repro::nn::{Adam, DenseMatrix, ParamBank, Tape};
use amud_repro::train::{accuracy, train_with_curve, GraphData, Model, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;

/// What a run reports: every curve entry as bits, then best val, test and
/// epochs.
type Trace = (Vec<(u64, u64, u64)>, u64, u64, usize);

/// The full-graph loop `train()` ran before it went row-local: every
/// forward covers all `n` rows, the loss masks the `train` rows, and the
/// accuracies index the full logit matrix. Health monitor, rollback,
/// early stopping and the tie rule are as they were; fault injection and
/// the wall-clock timeout are left out (no run here uses them), and so is
/// the verifier preflight, which drew from its own RNG.
fn full_graph_train(model: &mut dyn Model, data: &GraphData, cfg: TrainConfig, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lr = cfg.lr;
    let mut adam = Adam::new(lr).with_weight_decay(cfg.weight_decay).with_clip_norm(5.0);
    let labels = Rc::clone(&data.labels);
    let train_mask = Rc::clone(&data.train);
    let mut snapshot: (ParamBank, usize) = (model.bank().clone(), 0);
    let mut retries = 0usize;
    let mut best_val = f64::NEG_INFINITY;
    let mut test_at_best = 0.0f64;
    let mut since_best = 0usize;
    let mut curve = Vec::new();
    let mut epochs_run = 0usize;

    for epoch in 0..cfg.epochs {
        epochs_run = epoch + 1;
        let mut tape = Tape::new();
        let logits = model.forward(&mut tape, data, true, &mut rng);
        let loss = tape.masked_cross_entropy(logits, Rc::clone(&labels), Rc::clone(&train_mask));
        let train_loss = tape.value(loss).get(0, 0) as f64;
        tape.backward(loss);
        tape.apply_grads(model.bank_mut());

        let grad_norm = model.bank().grad_norm();
        if !train_loss.is_finite() || !grad_norm.is_finite() || grad_norm > cfg.grad_limit {
            model.bank_mut().zero_grads();
            assert!(retries < cfg.max_retries, "reference run diverged at epoch {epoch}");
            retries += 1;
            *model.bank_mut() = snapshot.0.clone();
            lr *= cfg.lr_backoff;
            adam = Adam::new(lr).with_weight_decay(cfg.weight_decay).with_clip_norm(5.0);
            continue;
        }

        adam.step(model.bank_mut());

        let mut eval_tape = Tape::new();
        let eval_logits = model.forward(&mut eval_tape, data, false, &mut rng);
        let logit_values = eval_tape.value(eval_logits);
        let val_acc = accuracy(logit_values, &labels, &data.val);
        let test_acc = accuracy(logit_values, &labels, &data.test);
        curve.push((train_loss.to_bits(), val_acc.to_bits(), test_acc.to_bits()));

        if val_acc > best_val {
            best_val = val_acc;
            test_at_best = test_acc;
            since_best = 0;
            snapshot = (model.bank().clone(), epoch + 1);
        } else {
            if val_acc == best_val {
                test_at_best = test_acc;
                snapshot = (model.bank().clone(), epoch + 1);
            }
            since_best += 1;
            if cfg.patience > 0 && since_best >= cfg.patience {
                break;
            }
        }
    }
    (curve, best_val.to_bits(), test_at_best.to_bits(), epochs_run)
}

fn row_local_train(model: &mut dyn Model, data: &GraphData, cfg: TrainConfig, seed: u64) -> Trace {
    let r = train_with_curve(model, data, cfg, seed)
        .unwrap_or_else(|e| panic!("the row-local run does not train: {e}"));
    let curve = r
        .curve
        .iter()
        .map(|c| (c.train_loss.to_bits(), c.val_acc.to_bits(), c.test_acc.to_bits()))
        .collect();
    (curve, r.best_val_acc.to_bits(), r.test_acc.to_bits(), r.epochs_run)
}

/// Full-graph eval-mode logits of a trained model, as bits.
fn eval_logits(model: &dyn Model, data: &GraphData) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(0);
    let mut tape = Tape::new();
    let out = model.forward(&mut tape, data, false, &mut rng);
    let logits: &DenseMatrix = tape.value(out);
    logits.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Trains two fresh models from `build`, one per loop, and asserts the
/// runs and the final logits agree bit for bit.
fn assert_loops_agree<M: Model>(
    label: &str,
    data: &GraphData,
    cfg: TrainConfig,
    seed: u64,
    build: impl Fn() -> M,
) {
    let mut reference = build();
    let want = full_graph_train(&mut reference, data, cfg, seed);
    let mut model = build();
    let got = row_local_train(&mut model, data, cfg, seed);
    assert_eq!(got, want, "{label}: row-local run diverged from the full-graph loop");
    assert_eq!(
        eval_logits(&model, data),
        eval_logits(&reference, data),
        "{label}: final logits differ"
    );
}

fn bundle(name: &str, scale: ReplicaScale, seed: u64) -> GraphData {
    let d = replica(name, scale, seed);
    GraphData::from_dataset(&d)
        .unwrap_or_else(|e| panic!("{name}: the replica does not assemble: {e}"))
}

fn cfg(epochs: usize) -> TrainConfig {
    TrainConfig { epochs, patience: 0, lr: 0.01, weight_decay: 5e-4, ..Default::default() }
}

#[test]
fn every_dp_attention_variant_and_hop_off_match_the_full_graph_loop() {
    let data = bundle("chameleon", ReplicaScale::tiny(), 11);
    let variants = [
        DpAttention::Original,
        DpAttention::Gate,
        DpAttention::Recursive,
        DpAttention::Jk,
        DpAttention::None,
    ];
    for variant in variants {
        let adpa = AdpaConfig { dp_attention: variant, k_steps: 3, ..Default::default() };
        assert_loops_agree(&format!("ADPA/{variant:?}"), &data, cfg(6), 5, || {
            Adpa::new(&data, adpa, 5).expect("valid config")
        });
    }
    let no_hop = AdpaConfig { hop_attention: false, ..Default::default() };
    assert_loops_agree("ADPA/no-hop", &data, cfg(6), 6, || {
        Adpa::new(&data, no_hop, 6).expect("valid config")
    });
    // Early stopping and the tie rule take the same path in both loops.
    let patient = TrainConfig { patience: 2, ..cfg(20) };
    assert_loops_agree("ADPA/patience", &data, patient, 7, || {
        Adpa::new(&data, AdpaConfig::default(), 7).expect("valid config")
    });
}

#[test]
fn graph_coupled_baseline_matches_through_the_default_forward_rows() {
    struct Boxed(Box<dyn Model>);
    impl Model for Boxed {
        fn bank(&self) -> &ParamBank {
            self.0.bank()
        }
        fn bank_mut(&mut self) -> &mut ParamBank {
            self.0.bank_mut()
        }
        fn forward(
            &self,
            tape: &mut Tape,
            data: &GraphData,
            training: bool,
            rng: &mut StdRng,
        ) -> amud_repro::nn::NodeId {
            self.0.forward(tape, data, training, rng)
        }
        fn name(&self) -> &'static str {
            self.0.name()
        }
    }
    let data = bundle("chameleon", ReplicaScale::tiny(), 12);
    for name in ["GCN", "DirGNN"] {
        assert_loops_agree(name, &data, cfg(5), 8, || Boxed(build_model(name, &data, 8)));
    }
}

#[test]
fn replica_above_2048_nodes_matches_the_full_graph_loop() {
    // Above 2048 rows the full-graph weight gradients reduce over more
    // rows than the old fixed k-block of `matmul_transa`; the row-local
    // run reduces over the train rows only.
    let scale = ReplicaScale { node_cap: 2300, feature_cap: 16, ..ReplicaScale::tiny() };
    let data = bundle("cora_ml", scale, 13);
    assert!(data.n_nodes() > 2048, "replica has {} nodes", data.n_nodes());
    assert_loops_agree("ADPA/2300", &data, cfg(3), 9, || {
        Adpa::new(&data, AdpaConfig::default(), 9).expect("valid config")
    });
}

#[test]
fn empty_val_and_test_splits_match_the_full_graph_loop() {
    let d = replica("texas", ReplicaScale::tiny(), 14);
    let data = GraphData::new(&d.graph, d.features.clone(), d.split.train.clone(), vec![], vec![])
        .expect("empty val and test are allowed");
    assert_loops_agree("ADPA/no-eval-rows", &data, cfg(4), 10, || {
        Adpa::new(&data, AdpaConfig::default(), 10).expect("valid config")
    });
}
