//! The training workloads: the `amud snapshot` path run end to end
//! through the workspace's public API.
//!
//! One pipeline is: generate the replica (`datasets`), run the AMUD
//! decision (`core::amud` via `prepare_topology`), build ADPA for each
//! point of the workload's `k_steps` list (`core::precompute` behind
//! `Adpa::new`), train each point for a fixed epoch budget with early
//! stopping off (`train`, `nn`), then export the last (deepest) point and
//! encode and write its snapshot (`core::export`, `serve::snapshot`); the
//! last point rather than the best keeps the artifact's size independent
//! of the seed. Every pipeline starts from a cold precompute cache.
//!
//! Untraced pipelines call `train()`. Traced pipelines make the same
//! public calls `train()` makes, in the same order, with a span around
//! each, and additionally split precompute into `precompute::operators`
//! and `precompute::propagated` ahead of `Adpa::new`.

use crate::trace::Tracer;
use amud_cache::CacheStats;
use amud_core::{precompute, prepare_topology, Adpa, AdpaConfig, AmudDecision};
use amud_datasets::{replica, ReplicaScale};
use amud_nn::verify::{has_errors, render};
use amud_nn::{Adam, Tape};
use amud_serve::{encode_snapshot, write_snapshot, Snapshot};
use amud_train::{accuracy, train, verify_model, GraphData, Model, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// What one training workload runs.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    pub dataset: &'static str,
    pub scale: ReplicaScale,
    /// ADPA `k_steps` per point, trained in order (one point = one model).
    pub k_steps: Vec<usize>,
    /// Fixed epoch budget per point (early stopping off).
    pub epochs: usize,
}

impl TrainSpec {
    pub fn adpa_config(&self, k_steps: usize) -> AdpaConfig {
        AdpaConfig { k_steps, ..AdpaConfig::default() }
    }

    pub fn train_config(&self) -> TrainConfig {
        TrainConfig { epochs: self.epochs, patience: 0, ..TrainConfig::default() }
    }
}

/// Seeds one pipeline draws from the workload seed.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub replica: u64,
    pub model: u64,
}

/// Measurements and outputs of one pipeline.
#[derive(Debug, Clone, Default)]
pub struct PipelineOut {
    pub wall_ns: u64,
    /// Loaded `GraphData` → first model ready to train.
    pub ready_ns: u64,
    /// Wall time inside `train()` (or the traced equivalent).
    pub train_ns: u64,
    pub epochs: usize,
    /// Test accuracy of every point, in `k_steps` order.
    pub test_accs: Vec<f64>,
    pub snapshot_bytes: usize,
    pub cache: CacheStats,
    pub spmm_calls: u64,
    /// Tape nodes recorded by training forwards, and how many forwards.
    pub tape_nodes: u64,
    pub tape_forwards: u64,
}

/// Generates the workload's input bundle from its seed.
pub fn load(spec: &TrainSpec, seed: u64) -> Result<GraphData, String> {
    let d = replica(spec.dataset, spec.scale, seed);
    GraphData::new(
        &d.graph,
        d.features.clone(),
        d.split.train.clone(),
        d.split.val.clone(),
        d.split.test.clone(),
    )
    .map_err(|e| format!("{}: {e}", spec.dataset))
}

/// Runs one pipeline, writing the last point's snapshot to `snap_path`.
pub fn run(
    spec: &TrainSpec,
    seeds: Seeds,
    snap_path: &Path,
    t: &mut Tracer,
) -> Result<PipelineOut, String> {
    precompute::clear();
    t.next_run();
    let cache_before = amud_cache::stats();
    let spmm_before = amud_graph::spmm_calls();
    let started = Instant::now();
    let root = t.enter("pipeline");
    let mut out = PipelineOut::default();

    let o = t.enter("datasets.replica");
    let data = load(spec, seeds.replica)?;
    t.exit(o);

    let ready_from = Instant::now();
    let o = t.enter("core.amud.decide");
    let (prepared, report, _) = prepare_topology(&data);
    t.exit(o);
    if report.decision != AmudDecision::Directed {
        return Err(format!(
            "{}: AMUD chose {:?} (S = {:.3}); Table II says Directed",
            spec.dataset, report.decision, report.score
        ));
    }

    let tcfg = spec.train_config();
    let mut last: Option<Adpa> = None;
    for (i, &k) in spec.k_steps.iter().enumerate() {
        let cfg = spec.adpa_config(k);
        if t.enabled() {
            let o = t.enter("core.precompute.operators");
            let (set, key) = precompute::operators(&prepared.adj, cfg.max_order, cfg.conv_r)
                .map_err(|e| e.to_string())?;
            t.exit(o);
            let o = t.enter("core.precompute.propagate");
            precompute::propagated(&key, &set, &prepared.features, k).map_err(|e| e.to_string())?;
            t.exit(o);
        }
        let before = amud_cache::stats();
        let o = t.enter("core.adpa.new");
        let mut model = Adpa::new(&prepared, cfg, seeds.model).map_err(|e| e.to_string())?;
        t.exit(o);
        if t.enabled() {
            let d = amud_cache::stats().delta(&before);
            let all_hits = CacheStats { op_hits: 1, feat_hits: 1, ..CacheStats::default() };
            if d != all_hits {
                return Err(format!("Adpa::new after the precompute split was not all hits: {d}"));
            }
        }
        if i == 0 {
            out.ready_ns = ready_from.elapsed().as_nanos() as u64;
        }

        let train_from = Instant::now();
        let (test, epochs) = if t.enabled() {
            traced_train(&mut model, &prepared, tcfg, seeds.model, t, &mut out)?
        } else {
            let r = train(&mut model, &prepared, tcfg, seeds.model).map_err(|e| e.to_string())?;
            (r.test_acc, r.epochs_run)
        };
        out.train_ns += train_from.elapsed().as_nanos() as u64;
        out.epochs += epochs;
        out.test_accs.push(test);
        last = Some(model);
    }
    let model = last.ok_or("workload has no k_steps points")?;

    let o = t.enter("core.export");
    let snapshot = Snapshot::from_export(seeds.model, model.export());
    t.exit(o);
    let o = t.enter("serve.snapshot.encode");
    let encoded = encode_snapshot(&snapshot);
    t.exit(o);
    let o = t.enter("serve.snapshot.write");
    out.snapshot_bytes = write_snapshot(snap_path, &snapshot).map_err(|e| e.to_string())?;
    t.exit(o);
    if encoded.len() != out.snapshot_bytes {
        return Err("encoded and written snapshot sizes differ".into());
    }
    t.exit(root);

    out.wall_ns = started.elapsed().as_nanos() as u64;
    out.cache = amud_cache::stats().delta(&cache_before);
    out.spmm_calls = amud_graph::spmm_calls() - spmm_before;
    Ok(out)
}

/// The epoch loop of `amud_train::train` driven through the same public
/// calls in the same order, with a span per stage: preflight verify, then
/// per epoch forward + loss, backward + gradient hand-off, gradient norm +
/// Adam step, and the eval forward + accuracies. Early stopping is off in
/// every workload, and a health violation (which `train()` would recover
/// from) is reported as a failure instead.
/// Returns `(test accuracy at the best validation epoch, epochs)`.
fn traced_train(
    model: &mut Adpa,
    data: &GraphData,
    cfg: TrainConfig,
    seed: u64,
    t: &mut Tracer,
    out: &mut PipelineOut,
) -> Result<(f64, usize), String> {
    let o = t.enter("train.verify");
    let preflight = verify_model(model, data, seed);
    t.exit(o);
    if has_errors(&preflight) {
        return Err(render(&preflight));
    }

    let o_train = t.enter("train.train");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut adam = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay).with_clip_norm(5.0);
    let labels = Rc::clone(&data.labels);
    let train_mask = Rc::clone(&data.train);
    let mut snapshot = (model.bank().clone(), 0usize);
    let mut best_val = f64::NEG_INFINITY;
    let mut test_at_best = 0.0f64;
    for epoch in 0..cfg.epochs {
        let o = t.enter("nn.forward");
        let mut tape = Tape::new();
        let logits = model.forward(&mut tape, data, true, &mut rng);
        let loss = tape.masked_cross_entropy(logits, Rc::clone(&labels), Rc::clone(&train_mask));
        let train_loss = tape.value(loss).get(0, 0) as f64;
        t.exit(o);
        out.tape_nodes += tape.len() as u64;
        out.tape_forwards += 1;

        let o = t.enter("nn.backward");
        tape.backward(loss);
        tape.apply_grads(model.bank_mut());
        t.exit(o);

        let o = t.enter("nn.optim");
        let grad_norm = model.bank().grad_norm();
        if !train_loss.is_finite() || !grad_norm.is_finite() || grad_norm > cfg.grad_limit {
            return Err(format!("epoch {epoch}: loss {train_loss}, gradient norm {grad_norm}"));
        }
        adam.step(model.bank_mut());
        t.exit(o);

        let o = t.enter("nn.eval");
        let mut eval_tape = Tape::new();
        let eval_logits = model.forward(&mut eval_tape, data, false, &mut rng);
        let values = eval_tape.value(eval_logits);
        let val_acc = accuracy(values, &labels, &data.val);
        let test_acc = accuracy(values, &labels, &data.test);
        t.exit(o);

        // Same best-epoch rule as `train()`, ties included.
        if val_acc >= best_val {
            best_val = val_acc;
            test_at_best = test_acc;
            snapshot = (model.bank().clone(), epoch + 1);
        }
    }
    drop(snapshot);
    t.exit(o_train);
    Ok((test_at_best, cfg.epochs))
}
