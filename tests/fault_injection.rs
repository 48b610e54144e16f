//! Fault-injection suite (DESIGN.md §8.3): every injected failure must be
//! either *recovered* (snapshot rollback + LR backoff, run still learns)
//! or surfaced as a *typed error* — never a panic, never a silent garbage
//! result. The CLI subprocess tests additionally pin the exit-code table.

use amud_repro::core::{Adpa, AdpaConfig};
use amud_repro::datasets::io::{dataset_from_text, dataset_to_text};
use amud_repro::datasets::{replica, DatasetError, ReplicaScale};
use amud_repro::train::{
    corrupt_bytes, repeat_runs_with_faults, train, train_with_faults, truncate_fraction, Fault,
    FaultPlan, GraphData, TrainConfig, TrainError,
};

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

fn cfg(epochs: usize) -> TrainConfig {
    TrainConfig { epochs, patience: 0, lr: 0.01, weight_decay: 5e-4, ..Default::default() }
}

// --- trainer-side faults -------------------------------------------------

#[test]
fn nan_loss_glitch_is_recovered_and_run_still_learns() {
    let data = bundle("texas", 0);
    let mut model = Adpa::new(&data, AdpaConfig::default(), 0).unwrap();
    let plan = FaultPlan::new().with(Fault::NanLoss { epoch: 20 });
    let result = train_with_faults(&mut model, &data, cfg(60), 0, &plan).unwrap();
    assert_eq!(result.recovery.retries(), 1, "exactly one rollback expected");
    assert_eq!(result.recovery.events[0].epoch, 20);
    assert!(result.recovery.events[0].new_lr < 0.01, "LR must back off");
    assert!(result.test_acc > 0.2, "recovered run must still learn: {}", result.test_acc);
}

#[test]
fn gradient_spike_is_recovered() {
    let data = bundle("texas", 1);
    let mut model = Adpa::new(&data, AdpaConfig::default(), 1).unwrap();
    let plan = FaultPlan::new().with(Fault::GradientSpike { epoch: 15, factor: 1e9 });
    let result = train_with_faults(&mut model, &data, cfg(60), 1, &plan).unwrap();
    assert_eq!(result.recovery.retries(), 1);
    assert!(result.test_acc > 0.2, "recovered run must still learn: {}", result.test_acc);
}

#[test]
fn persistent_divergence_exhausts_retries_into_a_typed_error() {
    let data = bundle("texas", 2);
    let mut model = Adpa::new(&data, AdpaConfig::default(), 2).unwrap();
    let plan = FaultPlan::new().with(Fault::PersistentNanLoss { from_epoch: 5 });
    match train_with_faults(&mut model, &data, cfg(60), 2, &plan) {
        Err(TrainError::NonFiniteLoss { epoch, retries }) => {
            assert!(epoch >= 5, "failure must happen after injection starts, got {epoch}");
            assert_eq!(retries, TrainConfig::default().max_retries);
        }
        other => panic!("expected NonFiniteLoss, got {other:?}"),
    }
}

#[test]
fn zero_retry_budget_fails_on_first_violation() {
    let data = bundle("texas", 3);
    let mut model = Adpa::new(&data, AdpaConfig::default(), 3).unwrap();
    let plan = FaultPlan::new().with(Fault::NanLoss { epoch: 4 });
    let c = TrainConfig { max_retries: 0, ..cfg(30) };
    match train_with_faults(&mut model, &data, c, 3, &plan) {
        Err(TrainError::NonFiniteLoss { epoch: 4, retries: 0 }) => {}
        other => panic!("expected NonFiniteLoss at epoch 4, got {other:?}"),
    }
}

#[test]
fn faulted_and_clean_runs_agree_before_the_injection_epoch() {
    // Determinism contract: the fault harness must not perturb the run
    // before the scheduled epoch.
    let data = bundle("texas", 4);
    let clean =
        train(&mut Adpa::new(&data, AdpaConfig::default(), 4).unwrap(), &data, cfg(30), 4).unwrap();
    let plan = FaultPlan::new().with(Fault::NanLoss { epoch: 29 });
    let faulted = train_with_faults(
        &mut Adpa::new(&data, AdpaConfig::default(), 4).unwrap(),
        &data,
        cfg(30),
        4,
        &plan,
    )
    .unwrap();
    // Injection at the final epoch: everything up to it matched, so the
    // best-val accuracies track each other.
    assert_eq!(clean.best_val_acc, faulted.best_val_acc);
}

#[test]
fn ten_seed_sweep_with_one_diverged_seed_reports_nine_runs_and_a_manifest() {
    // The ISSUE.md acceptance scenario: a 10-seed repeat in which one seed
    // diverges must yield a 9-run summary plus a failure manifest — not an
    // aborted sweep, not a poisoned mean.
    let data = bundle("texas", 5);
    let bad_seed = 103u64;
    let out = repeat_runs_with_faults(
        |s| Adpa::new(&data, AdpaConfig::default(), s),
        &data,
        cfg(40),
        10,
        100,
        |seed| {
            if seed == bad_seed {
                FaultPlan::new().with(Fault::PersistentNanLoss { from_epoch: 3 })
            } else {
                FaultPlan::new()
            }
        },
    );
    assert_eq!(out.results.len(), 9, "nine seeds must survive");
    assert_eq!(out.failures.len(), 1, "one seed must land in the manifest");
    assert_eq!(out.failures[0].seed, bad_seed);
    assert!(matches!(out.failures[0].error, TrainError::NonFiniteLoss { .. }));
    assert_eq!(out.summary.n_failed, 1);
    assert_eq!(out.summary.n_attempted(), 10);
    assert!(out.summary.mean.is_finite(), "NaN seed must not poison the mean");
    assert!(out.summary.to_string().contains("(9/10)"), "summary: {}", out.summary);
}

// --- parser-side faults --------------------------------------------------

#[test]
fn corrupted_dataset_bytes_yield_typed_errors_never_panics() {
    let d = replica("texas", ReplicaScale::tiny(), 6);
    let text = dataset_to_text(&d);
    let mut rejected = 0usize;
    for seed in 0..200u64 {
        match dataset_from_text(&corrupt_bytes(&text, seed, 8)) {
            Ok(_) => {}
            Err(DatasetError::Parse { line, .. }) => {
                assert!(line >= 1, "parse errors must carry a 1-based line");
                rejected += 1;
            }
            Err(e) => panic!("unexpected error class: {e}"),
        }
    }
    assert!(rejected > 100, "8 mutations should usually break the file ({rejected}/200)");
}

#[test]
fn truncated_dataset_yields_typed_error() {
    let d = replica("cornell", ReplicaScale::tiny(), 7);
    let text = dataset_to_text(&d);
    for fraction in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let cut = truncate_fraction(&text, fraction);
        match dataset_from_text(&cut) {
            Err(DatasetError::Parse { .. }) | Err(DatasetError::Graph(_)) => {}
            Ok(_) => panic!("truncation to {fraction} silently parsed"),
            Err(e) => panic!("unexpected error class: {e}"),
        }
    }
}

// --- CLI exit codes (subprocess regression tests) ------------------------

fn amud_cli(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_amud"))
        .args(args)
        .env("AMUD_SCALE", "tiny")
        .env("AMUD_EPOCHS", "5")
        .output()
        .unwrap_or_else(|e| panic!("spawning the amud binary: {e}"))
}

#[test]
fn cli_rejects_corrupt_amud_file_with_parse_exit_code() {
    let d = replica("texas", ReplicaScale::tiny(), 8);
    let text = dataset_to_text(&d);
    let dir = std::env::temp_dir();
    let path = dir.join("amud_fault_injection_corrupt.amud");
    std::fs::write(&path, truncate_fraction(&text, 0.4)).unwrap();
    let out = amud_cli(&["score", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(4), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "stderr must explain: {stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn cli_rejects_unknown_dataset_with_bad_input_exit_code() {
    let out = amud_cli(&["score", "definitely_not_a_dataset"]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn cli_rejects_missing_file_with_io_exit_code() {
    let out = amud_cli(&["score", "/nonexistent/path/to/file.amud"]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn cli_rejects_bad_usage_with_usage_exit_code() {
    assert_eq!(amud_cli(&[]).status.code(), Some(2));
    assert_eq!(amud_cli(&["train", "texas", "--max-retries"]).status.code(), Some(2));
    assert_eq!(amud_cli(&["train", "texas", "--max-retries", "lots"]).status.code(), Some(2));
    assert_eq!(amud_cli(&["score", "texas", "--frobnicate"]).status.code(), Some(2));
}

#[test]
fn cli_train_accepts_max_retries_flag() {
    let out = amud_cli(&["train", "texas", "MLP", "--max-retries", "3"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}\nstdout: {}",
        String::from_utf8_lossy(&out.stderr),
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn every_error_variant_exit_code_is_in_the_readme_table() {
    use amud_repro::graph::GraphError;
    use amud_repro::serve::{ServeError, SnapshotError};

    let train = [
        TrainError::NonFiniteLoss { epoch: 0, retries: 0 },
        TrainError::GradientExplosion { epoch: 0, norm: 1e9, limit: 1.0, retries: 0 },
        TrainError::VerifierRejected { model: "X".into(), report: String::new() },
        TrainError::bad_input("x"),
        TrainError::Timeout { epoch: 0, elapsed_secs: 2.0, limit_secs: 1.0 },
    ];
    let dataset = [
        DatasetError::parse(1, "x"),
        DatasetError::UnknownDataset { name: "x".into() },
        DatasetError::Graph(GraphError::EmptyGraph),
    ];
    let serve = [
        ServeError::Snapshot(SnapshotError::BadMagic),
        ServeError::Deadline { waited_ms: 5 },
        ServeError::Overload { retry_after_ms: 50 },
        ServeError::bad_request("x"),
        ServeError::io("bind", &std::io::Error::other("x")),
    ];
    // Exhaustive matches: a new variant fails to compile here until it is
    // added to the lists above.
    for e in &train {
        match e {
            TrainError::NonFiniteLoss { .. }
            | TrainError::GradientExplosion { .. }
            | TrainError::VerifierRejected { .. }
            | TrainError::BadInput { .. }
            | TrainError::Timeout { .. } => {}
        }
    }
    for e in &dataset {
        match e {
            DatasetError::Parse { .. }
            | DatasetError::UnknownDataset { .. }
            | DatasetError::Graph(_) => {}
        }
    }
    for e in &serve {
        match e {
            ServeError::Snapshot(_)
            | ServeError::Deadline { .. }
            | ServeError::Overload { .. }
            | ServeError::BadRequest { .. }
            | ServeError::Io { .. } => {}
        }
    }

    // The codes in README's `| exit code | meaning |` table.
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md is readable");
    let table: Vec<i32> = readme
        .lines()
        .skip_while(|l| !l.starts_with("| exit code | meaning |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|l| l.split('|').nth(1).and_then(|c| c.trim().parse().ok()).expect("numeric code"))
        .collect();
    assert!(table.contains(&0) && table.contains(&12), "README table parsed: {table:?}");
    let codes = train
        .iter()
        .map(|e| (e.to_string(), e.exit_code()))
        .chain(dataset.iter().map(|e| (e.to_string(), e.exit_code())))
        .chain(serve.iter().map(|e| (e.to_string(), e.exit_code())));
    for (what, code) in codes {
        assert!(table.contains(&code), "`{what}` exits {code}, which README does not list");
    }
    for code in train.iter().map(TrainError::exit_code).chain(dataset.iter().map(|e| e.exit_code()))
    {
        assert!((1..=8).contains(&code), "train/dataset code {code} outside 1–8");
    }
    for e in &serve {
        let code = e.exit_code();
        let io = matches!(e, ServeError::Io { .. });
        assert!(
            (io && code == 1) || (!io && (9..=12).contains(&code)),
            "serve `{e}` exits {code}: want 1 for I/O, else 9–12"
        );
    }
}
