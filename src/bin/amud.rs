//! `amud` — command-line front door to the reproduction.
//!
//! ```text
//! amud score    <dataset|file.amud>      AMUD report for a digraph
//! amud train    <dataset> [model] [--verify-tape] [--max-retries N]
//!                                        train one model end-to-end,
//!                                        optionally printing the tape
//!                                        verifier's report first
//! amud export   <dataset> <file.amud>    write a replica to disk
//! amud snapshot <dataset> --out <file.snap> [--tag N]
//!                                        train ADPA and write a serving
//!                                        snapshot artifact
//! amud serve    --snapshot <file.snap> [--port N] [--queue-capacity N]
//!               [--max-batch N] [--max-connections N]
//!               [--default-deadline-ms N] [--watch-interval-ms N]
//!               [--batch-delay-ms N]     serve predictions over TCP
//! amud list                              datasets and models available
//! ```
//!
//! `<dataset>` is a replica name from Table II (`cora_ml`, `texas`, …);
//! anything ending in `.amud` is loaded from disk instead. Scale and
//! repeats respect the `AMUD_SCALE` / `AMUD_EPOCHS` environment knobs;
//! `AMUD_CACHE=off` disables the precompute cache (bit-identical outputs,
//! only wall-clock changes).
//!
//! Every failure maps onto a distinct exit code (see the README table):
//! 1 I/O, 2 usage, 3 bad input, 4 dataset parse, 5 verifier rejected,
//! 6 non-finite loss, 7 gradient explosion, 8 train timeout, 9 snapshot
//! rejected, 10 deadline, 11 overload, 12 bad request.

use amud_repro::core::{paradigm, Adpa, AdpaConfig};
use amud_repro::datasets::registry::all_specs;
use amud_repro::datasets::{try_replica, Dataset, DatasetError, ReplicaScale};
use amud_repro::models::registry::{
    build_model, extra_model_names, is_directed_model, model_names,
};
use amud_repro::train::{train, GraphData, Model, TrainConfig, TrainError};

fn env_scale() -> ReplicaScale {
    // TAINT-PURE(env_scale): AMUD_SCALE only selects among the fixed
    // ReplicaScale presets; the env value itself never reaches data.
    match std::env::var("AMUD_SCALE").as_deref() {
        Ok("tiny") => ReplicaScale::tiny(),
        Ok("full") => ReplicaScale::full(),
        _ => ReplicaScale::default(),
    }
}

fn load_dataset(arg: &str) -> Dataset {
    if arg.ends_with(".amud") {
        let text = std::fs::read_to_string(arg)
            .unwrap_or_else(|e| die(&format!("cannot read {arg}: {e}"), 1));
        amud_repro::datasets::io::dataset_from_text(&text).unwrap_or_else(|e: DatasetError| {
            die(&format!("cannot parse {arg}: {e}"), e.exit_code())
        })
    } else {
        try_replica(arg, env_scale(), 42).unwrap_or_else(|e| die(&e.to_string(), e.exit_code()))
    }
}

fn to_bundle(d: &Dataset) -> GraphData {
    GraphData::new(
        &d.graph,
        d.features.clone(),
        d.split.train.clone(),
        d.split.val.clone(),
        d.split.test.clone(),
    )
    .unwrap_or_else(|e| die(&e.to_string(), e.exit_code()))
}

fn die(msg: &str, code: i32) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(code)
}

fn cmd_score(target: &str) {
    let d = load_dataset(target);
    let data = to_bundle(&d);
    let (report, par) = paradigm::decide(&data);
    println!(
        "dataset: {} ({} nodes, {} edges, {} classes)",
        d.name(),
        d.n_nodes(),
        d.graph.n_edges(),
        d.n_classes()
    );
    println!("\nper-pattern correlations with node profiles:");
    for c in &report.correlations {
        println!(
            "  {:<6} r = {:+.4}   R² = {:.6}   combined R² = {:.6}   floor = {:.6}",
            c.pattern.name(),
            c.r,
            c.r_squared,
            c.r_squared_combined,
            c.noise_floor
        );
    }
    println!("\nguidance score S = {:.3} (θ = {})", report.score, report.theta);
    println!("decision: {:?} → Paradigm {:?}", report.decision, par);
}

/// Verifies the tape a model records and prints the findings
/// (`--verify-tape`). Exits with `TrainError::VerifierRejected`'s code on
/// an error-severity finding (a NaN or Inf in the forward); the trainer
/// itself does not run the verifier.
fn report_verification(label: &str, model: &dyn Model, input: &GraphData) {
    use amud_repro::nn::verify::{has_errors, render};
    let diags = amud_repro::train::verify_model(model, input, 0);
    if diags.is_empty() {
        println!("verify-tape: {label}: clean ({} params)", model.bank().len());
    } else {
        println!("verify-tape: {label}: {} finding(s)\n{}", diags.len(), render(&diags));
        if has_errors(&diags) {
            die(
                "tape verification failed",
                TrainError::VerifierRejected { model: label.to_string(), report: String::new() }
                    .exit_code(),
            );
        }
    }
}

/// Reports a training outcome, exiting with the error's code on failure.
fn finish(result: Result<amud_repro::train::TrainResult, TrainError>) {
    match result {
        Ok(result) => {
            for ev in &result.recovery.events {
                println!(
                    "recovered at epoch {} ({:?}) — rolled back to epoch {}, lr -> {}",
                    ev.epoch, ev.cause, ev.restored_epoch, ev.new_lr
                );
            }
            println!(
                "done in {} epochs ({} kernel thread{}) — best val acc {:.3}, test acc {:.3}",
                result.epochs_run,
                result.threads,
                if result.threads == 1 { "" } else { "s" },
                result.best_val_acc,
                result.test_acc
            );
            if result.cache.total() > 0 {
                println!("precompute cache: {}", result.cache);
            }
        }
        Err(e) => die(&e.to_string(), e.exit_code()),
    }
}

fn cmd_train(target: &str, model_name: &str, verify_tape: bool, max_retries: Option<usize>) {
    let d = load_dataset(target);
    let data = to_bundle(&d);
    // TAINT-PURE(epochs): a user-facing epoch budget only bounds the
    // training loop; it never enters tensor values or cache keys.
    let epochs: usize =
        std::env::var("AMUD_EPOCHS").ok().and_then(|v| v.parse().ok()).unwrap_or(150);
    let cfg = TrainConfig {
        epochs,
        patience: 30,
        lr: 0.01,
        weight_decay: 5e-4,
        max_retries: max_retries.unwrap_or(TrainConfig::default().max_retries),
        ..TrainConfig::default()
    };
    println!("training {model_name} on {} ({} nodes)...", d.name(), d.n_nodes());
    if model_name == "ADPA" {
        let (prepared, report, _) = paradigm::prepare_topology(&data);
        println!("AMUD S = {:.3} → {:?}", report.score, report.decision);
        let mut model = Adpa::new(&prepared, AdpaConfig::default(), 0)
            .unwrap_or_else(|e| die(&e.to_string(), e.exit_code()));
        if verify_tape {
            report_verification("ADPA", &model, &prepared);
        }
        finish(train(&mut model, &prepared, cfg, 0));
    } else {
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
        if !model_names().contains(&model_name) && !extra_model_names().contains(&model_name) {
            die(
                &format!("unknown model '{model_name}' (run `amud list` for the available models)"),
                TrainError::bad_input("").exit_code(),
            );
        }
        let input = if is_directed_model(model_name) { data.clone() } else { data.to_undirected() };
        let mut model = Shim(build_model(model_name, &input, 0));
        if verify_tape {
            report_verification(model_name, &model, &input);
        }
        finish(train(&mut model, &input, cfg, 0));
    }
}

/// Small `--flag value` parser for the serving subcommands (they carry
/// too many knobs for positional args).
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Flags {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                die(&format!("unexpected argument '{a}' (flags only here)"), 2);
            };
            if !allowed.contains(&name) {
                die(&format!("unknown flag '--{name}' (allowed: --{})", allowed.join(", --")), 2);
            }
            let Some(value) = it.next() else {
                die(&format!("--{name} needs a value"), 2);
            };
            out.push((name.to_string(), value.clone()));
        }
        Flags(out)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            None => default,
            Some(v) => {
                v.parse().unwrap_or_else(|_| die(&format!("--{name}: '{v}' is not a number"), 2))
            }
        }
    }
}

fn cmd_snapshot(dataset: &str, flags: &Flags) {
    let Some(out_path) = flags.get("out") else {
        die("snapshot needs --out <file.snap>", 2);
    };
    let tag: u64 = flags.num("tag", 1);
    // Validate the quantization spec before spending a training run on it.
    let quant_spec = flags.get("quantize").map(|spec| {
        amud_repro::quant::QuantSpec::parse(spec).unwrap_or_else(|| {
            die(
                &format!(
                    "--quantize: unknown precision '{spec}' (want f32 or int8, optionally features:weights)"
                ),
                2,
            )
        })
    });
    let d = load_dataset(dataset);
    let data = to_bundle(&d);
    // TAINT-PURE(epochs): a user-facing epoch budget only bounds the
    // training loop; it never enters tensor values or cache keys.
    let epochs: usize =
        std::env::var("AMUD_EPOCHS").ok().and_then(|v| v.parse().ok()).unwrap_or(150);
    let cfg = TrainConfig { epochs, patience: 30, ..TrainConfig::default() };
    println!("training ADPA on {} ({} nodes) for the snapshot...", d.name(), d.n_nodes());
    let (prepared, report, _) = paradigm::prepare_topology(&data);
    println!("AMUD S = {:.3} → {:?}", report.score, report.decision);
    let mut model = Adpa::new(&prepared, AdpaConfig::default(), 0)
        .unwrap_or_else(|e| die(&e.to_string(), e.exit_code()));
    let result =
        train(&mut model, &prepared, cfg, 0).unwrap_or_else(|e| die(&e.to_string(), e.exit_code()));
    let mut snapshot = amud_repro::serve::Snapshot::from_export(tag, model.export());
    if let Some(spec) = quant_spec {
        snapshot = snapshot.requantized(spec);
    }
    let bytes = amud_repro::serve::write_snapshot(std::path::Path::new(out_path), &snapshot)
        .unwrap_or_else(|e| die(&e.to_string(), amud_serve_exit(&e)));
    println!(
        "wrote snapshot tag {tag} ({} features / {} weights, {bytes} bytes, test acc {:.3}) to {out_path}",
        snapshot.export.spec().features.name(),
        snapshot.export.spec().weights.name(),
        result.test_acc
    );
}

fn amud_serve_exit(e: &amud_repro::serve::SnapshotError) -> i32 {
    amud_repro::serve::ServeError::from(e.clone()).exit_code()
}

fn cmd_serve(flags: &Flags) {
    let Some(snapshot_path) = flags.get("snapshot") else {
        die("serve needs --snapshot <file.snap>", 2);
    };
    let defaults = amud_repro::serve::ServerConfig::default();
    let cfg = amud_repro::serve::ServerConfig {
        snapshot_path: snapshot_path.into(),
        port: flags.num("port", defaults.port),
        queue_capacity: flags.num("queue-capacity", defaults.queue_capacity),
        max_batch: flags.num("max-batch", defaults.max_batch),
        max_connections: flags.num("max-connections", defaults.max_connections),
        default_deadline_ms: flags.num("default-deadline-ms", defaults.default_deadline_ms),
        watch_interval_ms: flags.num("watch-interval-ms", defaults.watch_interval_ms),
        batch_delay_ms: flags.num("batch-delay-ms", defaults.batch_delay_ms),
        ..defaults
    };
    let server = amud_repro::serve::Server::start(cfg)
        .unwrap_or_else(|e| die(&e.to_string(), e.exit_code()));
    println!("listening on 127.0.0.1:{}", server.port());
    // Stdout is block-buffered when piped; the listening line is how
    // harnesses learn the ephemeral port, so push it out now.
    let _ = std::io::Write::flush(&mut std::io::stdout());
    server.wait();
    // A supervising harness may have closed our stdout long ago; a dead
    // pipe must not turn a clean shutdown into a panic.
    let _ = std::io::Write::write_all(&mut std::io::stdout(), b"server stopped\n");
}

fn cmd_export(dataset: &str, path: &str) {
    let d = load_dataset(dataset);
    let text = amud_repro::datasets::io::dataset_to_text(&d);
    std::fs::write(path, text).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}"), 1));
    println!("wrote {} ({} nodes, {} edges) to {path}", d.name(), d.n_nodes(), d.graph.n_edges());
}

fn cmd_list() {
    println!("datasets (Table II replicas):");
    for s in all_specs() {
        println!(
            "  {:<18} {:>6} nodes {:>7} edges  {:?}",
            s.name, s.paper_nodes, s.paper_edges, s.regime
        );
    }
    println!("\nbaseline models: {}", model_names().join(", "));
    println!("extra models:    {}", extra_model_names().join(", "));
    println!("and ADPA (the paper's model).");
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // The serving subcommands are flag-driven; route them before the
    // legacy positional parser (which rejects unknown flags).
    match raw.first().map(String::as_str) {
        Some("snapshot") => {
            let Some(dataset) = raw.get(1).filter(|d| !d.starts_with("--")) else {
                die("usage: amud snapshot <dataset> --out <file.snap> [--tag N] [--quantize int8|f:w]", 2);
            };
            let flags = Flags::parse(&raw[2..], &["out", "tag", "quantize"]);
            cmd_snapshot(dataset, &flags);
            return;
        }
        Some("serve") => {
            let flags = Flags::parse(
                &raw[1..],
                &[
                    "snapshot",
                    "port",
                    "queue-capacity",
                    "max-batch",
                    "max-connections",
                    "default-deadline-ms",
                    "watch-interval-ms",
                    "batch-delay-ms",
                ],
            );
            cmd_serve(&flags);
            return;
        }
        _ => {}
    }
    let verify_tape = raw.iter().any(|a| a == "--verify-tape");
    let mut max_retries: Option<usize> = None;
    let mut args: Vec<String> = Vec::new();
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        if a == "--verify-tape" {
            continue;
        }
        if a == "--max-retries" {
            let value = it.next().unwrap_or_else(|| die("--max-retries needs a value", 2));
            max_retries =
                Some(value.parse().unwrap_or_else(|_| {
                    die(&format!("--max-retries: '{value}' is not a count"), 2)
                }));
            continue;
        }
        if a.starts_with("--") {
            die(&format!("unknown flag '{a}' (--verify-tape and --max-retries exist)"), 2);
        }
        args.push(a);
    }
    match args.first().map(String::as_str) {
        Some("score") if args.len() == 2 => cmd_score(&args[1]),
        Some("train") if args.len() >= 2 => cmd_train(
            &args[1],
            args.get(2).map(String::as_str).unwrap_or("ADPA"),
            verify_tape,
            max_retries,
        ),
        Some("export") if args.len() == 3 => cmd_export(&args[1], &args[2]),
        Some("list") => cmd_list(),
        _ => {
            eprintln!(
                "usage:\n  amud score    <dataset|file.amud>\n  amud train    <dataset> [model] [--verify-tape] [--max-retries N]\n  amud export   <dataset> <file.amud>\n  amud snapshot <dataset> --out <file.snap> [--tag N]\n  amud serve    --snapshot <file.snap> [--port N] [...]\n  amud list"
            );
            std::process::exit(2);
        }
    }
}
