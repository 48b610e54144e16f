//! Training loop with early stopping, seeded repeats, and divergence
//! recovery (DESIGN.md §8).
//!
//! The loop is row-local: each epoch records the training forward for
//! the sorted `train` rows only and the eval forward for the sorted
//! `val ∪ test` rows only, through [`Model::forward_rows`]. Its results
//! are bit-identical to a loop over full-graph forwards (see
//! `tests/row_local_training.rs`).
//!
//! Every epoch runs under a numerical-health monitor: the training loss
//! must stay finite and the raw (pre-clip) gradient norm must stay under
//! [`TrainConfig::grad_limit`]. On a violation the trainer rolls the
//! parameters back to the last good snapshot (taken at each best-val
//! epoch), backs off the learning rate by [`TrainConfig::lr_backoff`],
//! and retries — up to [`TrainConfig::max_retries`] times before
//! reporting a typed [`TrainError`] instead of panicking. [`repeat_runs`]
//! degrades gracefully: diverged seeds land in a failure manifest while
//! the surviving seeds still produce a [`Summary`].

use crate::data::GraphData;
use crate::error::TrainError;
use crate::faults::FaultPlan;
use crate::metrics::{accuracy, Summary};
use crate::model::Model;
use amud_nn::verify::{Diagnostic, TapeVerifier};
use amud_nn::{Adam, ParamBank, Rows, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;
use std::time::Instant;

/// Hyperparameters of the training loop, including the recovery policy.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    pub epochs: usize,
    /// Early stopping: stop after this many epochs without a new best
    /// validation accuracy. `0` disables early stopping.
    pub patience: usize,
    pub lr: f32,
    pub weight_decay: f32,
    /// Divergence recovery: snapshot rollbacks allowed before the run is
    /// reported as failed. `0` fails on the first violation.
    pub max_retries: usize,
    /// Learning-rate multiplier applied at each recovery (must be in
    /// `(0, 1]`).
    pub lr_backoff: f32,
    /// Gradient-norm watchdog: a raw (pre-clip) global gradient norm above
    /// this triggers recovery. Non-finite norms always trigger it.
    pub grad_limit: f32,
    /// Wall-clock budget in seconds; `0.0` disables the timeout.
    pub max_seconds: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 200,
            patience: 30,
            lr: 0.01,
            weight_decay: 5e-4,
            max_retries: 2,
            lr_backoff: 0.5,
            grad_limit: 1e4,
            max_seconds: 0.0,
        }
    }
}

impl TrainConfig {
    /// Validates the configuration itself (the trainer calls this before
    /// spending any epochs).
    fn validate(&self) -> Result<(), TrainError> {
        if self.epochs == 0 {
            return Err(TrainError::bad_input("epochs must be >= 1"));
        }
        if !self.lr.is_finite() || self.lr <= 0.0 {
            return Err(TrainError::bad_input(format!("learning rate {} must be > 0", self.lr)));
        }
        if !self.lr_backoff.is_finite() || self.lr_backoff <= 0.0 || self.lr_backoff > 1.0 {
            return Err(TrainError::bad_input(format!(
                "lr_backoff {} must lie in (0, 1]",
                self.lr_backoff
            )));
        }
        if self.grad_limit <= 0.0 {
            return Err(TrainError::bad_input(format!(
                "grad_limit {} must be > 0",
                self.grad_limit
            )));
        }
        Ok(())
    }
}

/// One epoch's record for training-dynamics plots (Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainCurve {
    pub epoch: usize,
    pub train_loss: f64,
    pub val_acc: f64,
    pub test_acc: f64,
}

/// What tripped the numerical-health monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HealthViolation {
    /// The training loss was NaN/±Inf, or the gradients carried NaN/±Inf.
    NonFiniteLoss,
    /// The raw gradient norm exceeded [`TrainConfig::grad_limit`].
    GradientExplosion { norm: f32 },
}

/// One recovery the trainer performed mid-run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryEvent {
    /// Epoch at which the violation was detected.
    pub epoch: usize,
    /// What the monitor saw.
    pub cause: HealthViolation,
    /// Epoch whose parameter snapshot was restored (`0` = initial params).
    pub restored_epoch: usize,
    /// Learning rate in effect after the backoff.
    pub new_lr: f32,
}

/// The run's recovery history (empty on a healthy run).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    pub events: Vec<RecoveryEvent>,
}

impl RecoveryReport {
    /// Number of rollbacks performed.
    pub fn retries(&self) -> usize {
        self.events.len()
    }
}

/// Outcome of a single training run.
#[derive(Debug, Clone)]
pub struct TrainResult {
    /// Best validation accuracy observed.
    pub best_val_acc: f64,
    /// Test accuracy at the best-validation epoch (the reported metric).
    pub test_acc: f64,
    /// Epochs actually run (≤ config.epochs with early stopping).
    pub epochs_run: usize,
    /// Per-epoch curve (empty unless `train_with_curve` is used).
    pub curve: Vec<TrainCurve>,
    /// Divergence recoveries performed during the run.
    pub recovery: RecoveryReport,
    /// Kernel thread budget the run executed under (`AMUD_THREADS`).
    /// Informational only: results are bit-identical at any value.
    pub threads: usize,
    /// Process-wide precompute-cache counters at the end of the run
    /// (cumulative — compare two results' snapshots with
    /// [`amud_cache::CacheStats::delta`] to attribute activity). Like
    /// `threads`, informational only: cached and uncached runs are
    /// bit-identical.
    pub cache: amud_cache::CacheStats,
}

/// Trains `model` on `data`, returning the test accuracy at the epoch of
/// best validation accuracy, or a typed [`TrainError`] when the run is
/// unrecoverable (never a panic).
pub fn train(
    model: &mut dyn Model,
    data: &GraphData,
    cfg: TrainConfig,
    seed: u64,
) -> Result<TrainResult, TrainError> {
    train_inner(model, data, cfg, seed, false, None)
}

/// Like [`train`] but records the full per-epoch curve (used by Fig. 5).
pub fn train_with_curve(
    model: &mut dyn Model,
    data: &GraphData,
    cfg: TrainConfig,
    seed: u64,
) -> Result<TrainResult, TrainError> {
    train_inner(model, data, cfg, seed, true, None)
}

/// Like [`train`] but injects the faults scheduled in `plan` — the
/// deterministic fault-injection harness entry point (DESIGN.md §8.3).
pub fn train_with_faults(
    model: &mut dyn Model,
    data: &GraphData,
    cfg: TrainConfig,
    seed: u64,
    plan: &FaultPlan,
) -> Result<TrainResult, TrainError> {
    train_inner(model, data, cfg, seed, false, Some(plan))
}

/// Records one evaluation-mode forward pass (plus the training loss) and
/// statically verifies the resulting op graph — shape inference, gradient
/// reachability of every parameter, dangling nodes. Returns the verifier's
/// findings; an empty vector means the graph is clean. The trainer does
/// not call this; the CLI and the bench binaries run it on
/// `--verify-tape`, and `tests/verify_models.rs` runs it on every model.
pub fn verify_model(model: &dyn Model, data: &GraphData, seed: u64) -> Vec<Diagnostic> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tape = Tape::new();
    let logits = model.forward(&mut tape, data, false, &mut rng);
    let loss = tape.masked_cross_entropy(logits, Rc::clone(&data.labels), Rc::clone(&data.train));
    TapeVerifier::new().verify(&tape, loss)
}

fn train_inner(
    model: &mut dyn Model,
    data: &GraphData,
    cfg: TrainConfig,
    seed: u64,
    record_curve: bool,
    faults: Option<&FaultPlan>,
) -> Result<TrainResult, TrainError> {
    cfg.validate()?;

    // TAINT-PURE(started): wall-clock only drives the timeout check and
    // the wall-seconds reporting field, never any trained value.
    let started = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lr = cfg.lr;
    let mut adam = Adam::new(lr).with_weight_decay(cfg.weight_decay).with_clip_norm(5.0);

    // The loss reads only the train rows and the metrics only val ∪ test,
    // so each forward runs over just those rows.
    let n = data.n_nodes();
    let train_rows = Rows::new(n, data.train.iter().copied());
    let eval_rows = Rows::new(n, data.val.iter().chain(data.test.iter()).copied());
    let train_labels = Rc::new(labels_of(&train_rows, &data.labels));
    let train_mask = Rc::new(positions(&train_rows, &data.train));
    let eval_labels = labels_of(&eval_rows, &data.labels);
    let val_local = positions(&eval_rows, &data.val);
    let test_local = positions(&eval_rows, &data.test);

    // Last-good checkpoint: the initial parameters until the first
    // best-val epoch replaces them.
    let mut snapshot: (ParamBank, usize) = (model.bank().clone(), 0);
    let mut recovery = RecoveryReport::default();

    let mut best_val = f64::NEG_INFINITY;
    let mut test_at_best = 0.0f64;
    let mut since_best = 0usize;
    let mut curve = Vec::new();
    let mut epochs_run = 0usize;

    for epoch in 0..cfg.epochs {
        epochs_run = epoch + 1;
        if cfg.max_seconds > 0.0 {
            let elapsed = started.elapsed().as_secs_f64();
            if elapsed > cfg.max_seconds {
                return Err(TrainError::Timeout {
                    epoch,
                    elapsed_secs: elapsed,
                    limit_secs: cfg.max_seconds,
                });
            }
        }

        // --- optimisation step (gradients land in the bank, update held
        //     back until the health monitor clears the epoch) ---
        let mut tape = Tape::new();
        let logits = model.forward_rows(&mut tape, data, &train_rows, true, &mut rng);
        let loss =
            tape.masked_cross_entropy(logits, Rc::clone(&train_labels), Rc::clone(&train_mask));
        let mut train_loss = tape.value(loss).get(0, 0) as f64;
        tape.backward(loss);
        tape.apply_grads(model.bank_mut());
        // The gradients are in the bank now; free the tape before the eval
        // forward records its own.
        drop(tape);

        // --- fault injection (deterministic, epoch-addressed) ---
        if let Some(plan) = faults {
            if plan.nan_loss_at(epoch) {
                train_loss = f64::NAN;
                model.bank_mut().scale_grads(f32::NAN);
            }
            let factor = plan.grad_factor_at(epoch);
            if factor != 1.0 {
                model.bank_mut().scale_grads(factor);
            }
        }

        // --- numerical-health monitor ---
        let grad_norm = model.bank().grad_norm();
        let violation = if !train_loss.is_finite() || !grad_norm.is_finite() {
            Some(HealthViolation::NonFiniteLoss)
        } else if grad_norm > cfg.grad_limit {
            Some(HealthViolation::GradientExplosion { norm: grad_norm })
        } else {
            None
        };

        if let Some(cause) = violation {
            model.bank_mut().zero_grads();
            if recovery.retries() >= cfg.max_retries {
                return Err(match cause {
                    HealthViolation::NonFiniteLoss => {
                        TrainError::NonFiniteLoss { epoch, retries: recovery.retries() }
                    }
                    HealthViolation::GradientExplosion { norm } => TrainError::GradientExplosion {
                        epoch,
                        norm,
                        limit: cfg.grad_limit,
                        retries: recovery.retries(),
                    },
                });
            }
            // Roll back to the last good parameters, back off the learning
            // rate, and restart the optimiser state (stale Adam moments
            // would re-apply the diverged direction).
            *model.bank_mut() = snapshot.0.clone();
            lr *= cfg.lr_backoff;
            adam = Adam::new(lr).with_weight_decay(cfg.weight_decay).with_clip_norm(5.0);
            recovery.events.push(RecoveryEvent {
                epoch,
                cause,
                restored_epoch: snapshot.1,
                new_lr: lr,
            });
            continue;
        }

        adam.step(model.bank_mut());

        // --- evaluation ---
        let mut eval_tape = Tape::new();
        let eval_logits = model.forward_rows(&mut eval_tape, data, &eval_rows, false, &mut rng);
        let logit_values = eval_tape.value(eval_logits);
        let val_acc = accuracy(logit_values, &eval_labels, &val_local);
        let test_acc = accuracy(logit_values, &eval_labels, &test_local);

        if record_curve {
            curve.push(TrainCurve { epoch, train_loss, val_acc, test_acc });
        }

        if val_acc > best_val {
            best_val = val_acc;
            test_at_best = test_acc;
            since_best = 0;
            snapshot = (model.bank().clone(), epoch + 1);
        } else {
            // Validation accuracy is coarse on small splits; on a tie keep
            // the most-trained snapshot rather than freezing on the first
            // epoch that reached the plateau. Ties do not reset patience.
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

    Ok(TrainResult {
        best_val_acc: best_val,
        test_acc: test_at_best,
        epochs_run,
        curve,
        recovery,
        threads: amud_par::current_threads(),
        cache: amud_cache::stats(),
    })
}

/// The labels of the selected rows, in row order.
fn labels_of(rows: &Rows, labels: &[usize]) -> Vec<usize> {
    rows.ids().iter().map(|&r| labels[r]).collect()
}

/// The position of each of `ids` among `rows`, in the order of `ids`, so
/// a masked loss over the gathered rows adds its terms in split order.
fn positions(rows: &Rows, ids: &[usize]) -> Vec<usize> {
    ids.iter()
        .map(|&v| match rows.position(v) {
            Some(i) => i,
            None => unreachable!("rows are built from the split ids"),
        })
        .collect()
}

/// One seed's failure inside a repeated run (the failure manifest entry).
#[derive(Debug, Clone, PartialEq)]
pub struct SeedFailure {
    pub seed: u64,
    pub error: TrainError,
}

/// The outcome of repeated seeded runs of one model on one dataset.
/// Diverged seeds are recorded in `failures` instead of aborting the
/// sweep; `summary` covers the successful runs only (with the failure
/// count carried in [`Summary::n_failed`]).
#[derive(Debug, Clone)]
pub struct RepeatOutcome {
    pub summary: Summary,
    pub results: Vec<TrainResult>,
    pub failures: Vec<SeedFailure>,
}

/// Runs `build` → train `repeats` times with seeds `base_seed + i` and
/// summarises test accuracy — the tables' `mean±std` protocol. A seed
/// whose *construction* or run fails lands in the failure manifest; the
/// summary covers the seeds that survived. Builders are fallible because
/// model construction now includes operator materialisation and feature
/// propagation, which reject malformed inputs with typed errors instead of
/// aborting the sweep.
pub fn repeat_runs<M: Model>(
    build: impl FnMut(u64) -> Result<M, TrainError>,
    data: &GraphData,
    cfg: TrainConfig,
    repeats: usize,
    base_seed: u64,
) -> RepeatOutcome {
    repeat_runs_with_faults(build, data, cfg, repeats, base_seed, |_| FaultPlan::new())
}

/// [`repeat_runs`] with a per-seed fault schedule — the harness used by
/// the fault-injection suite to prove one diverged seed degrades the
/// sweep gracefully instead of destroying it.
pub fn repeat_runs_with_faults<M: Model>(
    mut build: impl FnMut(u64) -> Result<M, TrainError>,
    data: &GraphData,
    cfg: TrainConfig,
    repeats: usize,
    base_seed: u64,
    mut fault_for_seed: impl FnMut(u64) -> FaultPlan,
) -> RepeatOutcome {
    let mut results = Vec::with_capacity(repeats);
    let mut failures = Vec::new();
    for i in 0..repeats {
        let seed = base_seed + i as u64;
        let mut model = match build(seed) {
            Ok(m) => m,
            Err(error) => {
                failures.push(SeedFailure { seed, error });
                continue;
            }
        };
        let plan = fault_for_seed(seed);
        let run = if plan.is_empty() {
            train(&mut model, data, cfg, seed)
        } else {
            train_with_faults(&mut model, data, cfg, seed, &plan)
        };
        match run {
            Ok(result) => results.push(result),
            Err(error) => failures.push(SeedFailure { seed, error }),
        }
    }
    let summary =
        Summary::from_outcomes(results.iter().map(|r| r.test_acc).collect(), failures.len());
    RepeatOutcome { summary, results, failures }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::Fault;
    use amud_graph::DiGraph;
    use amud_nn::{Activation, DenseMatrix, Mlp, NodeId, ParamBank};

    /// A plain MLP over node features — the simplest possible Model.
    struct MlpModel {
        bank: ParamBank,
        mlp: Mlp,
    }

    impl MlpModel {
        fn new(data: &GraphData, seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut bank = ParamBank::new();
            let mlp = Mlp::new(
                &mut bank,
                &[data.n_features(), 16, data.n_classes],
                Activation::Relu,
                0.0,
                &mut rng,
            );
            Self { bank, mlp }
        }
    }

    impl Model for MlpModel {
        fn bank(&self) -> &ParamBank {
            &self.bank
        }
        fn bank_mut(&mut self) -> &mut ParamBank {
            &mut self.bank
        }
        fn forward(
            &self,
            tape: &mut Tape,
            data: &GraphData,
            training: bool,
            rng: &mut StdRng,
        ) -> NodeId {
            let x = tape.constant(data.features.clone());
            self.mlp.forward(tape, &self.bank, x, training, rng)
        }
        fn name(&self) -> &'static str {
            "MLP"
        }
    }

    /// Separable toy data: features are the one-hot label plus noise.
    fn toy_data(seed: u64) -> GraphData {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let n = 120;
        let labels: Vec<usize> = (0..n).map(|v| v % 3).collect();
        let g =
            DiGraph::from_edges(n, vec![(0, 1)]).unwrap().with_labels(labels.clone(), 3).unwrap();
        let x = DenseMatrix::from_fn(n, 3, |r, c| {
            let base = if labels[r] == c { 1.0 } else { 0.0 };
            base + 0.3 * rng.gen::<f32>()
        });
        let train: Vec<usize> = (0..60).collect();
        let val: Vec<usize> = (60..90).collect();
        let test: Vec<usize> = (90..n).collect();
        GraphData::new(&g, x, train, val, test).unwrap()
    }

    fn quick(epochs: usize) -> TrainConfig {
        TrainConfig { epochs, patience: 0, lr: 0.01, weight_decay: 0.0, ..Default::default() }
    }

    #[test]
    fn training_reaches_high_accuracy_on_separable_data() {
        let data = toy_data(0);
        let mut model = MlpModel::new(&data, 1);
        let result = train(&mut model, &data, quick(150), 1).unwrap();
        assert!(result.test_acc > 0.9, "test accuracy {}", result.test_acc);
        assert_eq!(result.epochs_run, 150);
        assert!(result.recovery.events.is_empty());
    }

    #[test]
    fn early_stopping_halts_before_max() {
        let data = toy_data(0);
        let mut model = MlpModel::new(&data, 1);
        let cfg = TrainConfig { patience: 10, ..quick(500) };
        let result = train(&mut model, &data, cfg, 1).unwrap();
        assert!(result.epochs_run < 500, "early stopping never fired");
    }

    #[test]
    fn curves_are_recorded_and_loss_decreases() {
        let data = toy_data(0);
        let mut model = MlpModel::new(&data, 2);
        let result = train_with_curve(&mut model, &data, quick(60), 2).unwrap();
        assert_eq!(result.curve.len(), 60);
        let first = result.curve.first().unwrap().train_loss;
        let last = result.curve.last().unwrap().train_loss;
        assert!(last < first * 0.5, "loss {first} → {last}");
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let data = toy_data(3);
        let cfg = quick(30);
        let r1 = train(&mut MlpModel::new(&data, 7), &data, cfg, 7).unwrap();
        let r2 = train(&mut MlpModel::new(&data, 7), &data, cfg, 7).unwrap();
        assert_eq!(r1.test_acc, r2.test_acc);
        assert_eq!(r1.best_val_acc, r2.best_val_acc);
    }

    #[test]
    fn repeat_runs_summarises() {
        let data = toy_data(4);
        let out = repeat_runs(|seed| Ok(MlpModel::new(&data, seed)), &data, quick(40), 3, 100);
        assert_eq!(out.results.len(), 3);
        assert!(out.failures.is_empty());
        assert!(out.summary.mean > 0.8);
    }

    #[test]
    fn invalid_config_is_bad_input() {
        let data = toy_data(0);
        let mut model = MlpModel::new(&data, 1);
        let cfg = TrainConfig { lr: -1.0, ..TrainConfig::default() };
        match train(&mut model, &data, cfg, 1) {
            Err(TrainError::BadInput { .. }) => {}
            other => panic!("expected BadInput, got {other:?}"),
        }
    }

    #[test]
    fn injected_nan_loss_is_recovered() {
        let data = toy_data(5);
        let mut model = MlpModel::new(&data, 1);
        let plan = FaultPlan::new().with(Fault::NanLoss { epoch: 10 });
        let result = train_with_faults(&mut model, &data, quick(80), 1, &plan).unwrap();
        assert_eq!(result.recovery.retries(), 1);
        assert_eq!(result.recovery.events[0].epoch, 10);
        assert!(result.test_acc > 0.9, "recovered run must still learn: {}", result.test_acc);
    }

    #[test]
    fn timeout_is_typed() {
        let data = toy_data(0);
        let mut model = MlpModel::new(&data, 1);
        let cfg = TrainConfig { max_seconds: 1e-9, ..quick(50) };
        match train(&mut model, &data, cfg, 1) {
            Err(TrainError::Timeout { .. }) => {}
            other => panic!("expected Timeout, got {other:?}"),
        }
    }
}
