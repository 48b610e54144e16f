//! # amud-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation section. One binary per artefact:
//!
//! | binary | artefact |
//! |---|---|
//! | `table1` | Table I — homophily measures, directed vs undirected, + AMUD |
//! | `table2` | Table II — dataset statistics + AMUD scores |
//! | `table3` | Table III — accuracy on the six Score<0.5 datasets |
//! | `table4` | Table IV — accuracy on the six Score>0.5 datasets |
//! | `table5` | Table V — Actor/Amazon-rating U- vs D- improvements |
//! | `table6` | Table VI — k-order DP operator sweep |
//! | `table7` | Table VII — attention-mechanism ablation |
//! | `fig2`   | Fig. 2 — observations O1/O2 |
//! | `fig5`   | Fig. 5 — training curves |
//! | `fig6`   | Fig. 6 — propagation-step sweep |
//! | `fig7`   | Fig. 7 — sparsity robustness |
//! | `bench-kernels` | serial vs parallel kernel timings → `BENCH_kernels.json` |
//! | `bench-precompute` | uncached/cold/warm sweep cost → `BENCH_precompute.json` |
//! | `bench-serve` | serving latency and QPS → `BENCH_serve.json` |
//! | `bench-quant` | int8 artifact bytes, decode-then-matmul, accuracy → `BENCH_quant.json` |
//!
//! The four `bench-*` binaries share their flag parsing ([`bench_args`]);
//! `bench-kernels` and `bench-quant` share the `--check` regression gate
//! ([`check_serial_ms`]).
//!
//! Shared environment knobs (all optional):
//!
//! * `AMUD_SCALE` — `tiny` / `default` / `full` replica scale;
//! * `AMUD_REPEATS` — seeded repeats per cell (default 3);
//! * `AMUD_EPOCHS` — training epochs (default 150);
//! * `AMUD_THREADS` — kernel thread budget (default = available cores;
//!   results are bit-identical at any value);
//! * `AMUD_CACHE` — `off` disables the ADPA precompute cache (results
//!   are bit-identical either way; only wall-clock changes).

use amud_core::{Adpa, AdpaConfig};
use amud_datasets::{replica, Dataset, ReplicaScale};
use amud_models::registry::{build_model, is_directed_model};
use amud_train::{repeat_runs, GraphData, Summary, TrainConfig};

/// Replica scale from `AMUD_SCALE`.
pub fn env_scale() -> ReplicaScale {
    // TAINT-PURE(env_scale): AMUD_SCALE only selects among the fixed
    // ReplicaScale presets; the env value itself never reaches data.
    match std::env::var("AMUD_SCALE").as_deref() {
        Ok("tiny") => ReplicaScale::tiny(),
        Ok("full") => ReplicaScale::full(),
        _ => ReplicaScale::default(),
    }
}

/// Repeats per experiment cell from `AMUD_REPEATS`.
pub fn env_repeats(default: usize) -> usize {
    // TAINT-PURE(env_repeats): a repeat count sizes the experiment loop;
    // each repeat is seeded independently, so it never alters values.
    std::env::var("AMUD_REPEATS").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Training epochs from `AMUD_EPOCHS`.
pub fn env_epochs(default: usize) -> usize {
    // TAINT-PURE(env_epochs): an epoch budget only bounds the training
    // loop; it never enters tensor values or cache keys.
    std::env::var("AMUD_EPOCHS").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Default training configuration for table sweeps.
pub fn sweep_config() -> TrainConfig {
    TrainConfig {
        epochs: env_epochs(150),
        patience: 30,
        lr: 0.01,
        weight_decay: 5e-4,
        ..TrainConfig::default()
    }
}

/// True when the binary was invoked with `--verify-tape`: every model a
/// harness entry point trains is then statically verified first and the
/// findings printed (the run aborts if the verifier reports errors).
pub fn verify_tape_requested() -> bool {
    std::env::args().any(|a| a == "--verify-tape")
}

/// Runs [`amud_train::verify_model`] on `model` and prints the findings
/// under the given label. Exits the process on error-severity findings (a
/// NaN or Inf in the forward), so the run dies with a report instead of
/// training on garbage.
pub fn report_verification(label: &str, model: &dyn amud_train::Model, input: &GraphData) {
    use amud_nn::verify::{has_errors, render, Severity};
    let diags = amud_train::verify_model(model, input, 0);
    if diags.is_empty() {
        eprintln!("verify-tape: {label}: clean");
        return;
    }
    let worst = diags.iter().map(|d| d.severity).max().unwrap_or(Severity::Info);
    eprintln!("verify-tape: {label}: {} finding(s) [{worst:?}]\n{}", diags.len(), render(&diags));
    if has_errors(&diags) {
        std::process::exit(1);
    }
}

/// Wraps a replica as the harness's [`GraphData`] bundle (directed topology).
/// Harness binaries have no recovery path for an inconsistent replica, so
/// this exits with the error's code rather than returning a `Result`.
pub fn to_graph_data(d: &Dataset) -> GraphData {
    GraphData::new(
        &d.graph,
        d.features.clone(),
        d.split.train.clone(),
        d.split.val.clone(),
        d.split.test.clone(),
    )
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code())
    })
}

/// Loads a named replica at the environment scale.
pub fn load(name: &str, seed: u64) -> GraphData {
    to_graph_data(&replica(name, env_scale(), seed))
}

/// Trains a *baseline* with the paper's input convention: undirected GNNs
/// receive the coarse undirected transformation (`U-`), directed GNNs the
/// natural digraph (`D-`). Returns the test-accuracy summary.
pub fn run_baseline(
    name: &'static str,
    directed: &GraphData,
    cfg: TrainConfig,
    repeats: usize,
    seed: u64,
) -> Summary {
    let input = if is_directed_model(name) { directed.clone() } else { directed.to_undirected() };
    run_on(name, &input, cfg, repeats, seed)
}

/// Adapter so boxed registry models satisfy the sized bound of
/// [`repeat_runs`].
pub struct Shim(pub Box<dyn amud_train::Model>);

impl amud_train::Model for Shim {
    fn bank(&self) -> &amud_nn::ParamBank {
        self.0.bank()
    }
    fn bank_mut(&mut self) -> &mut amud_nn::ParamBank {
        self.0.bank_mut()
    }
    fn forward(
        &self,
        tape: &mut amud_nn::Tape,
        data: &GraphData,
        training: bool,
        rng: &mut rand::rngs::StdRng,
    ) -> amud_nn::NodeId {
        self.0.forward(tape, data, training, rng)
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// Trains a baseline on exactly the given input (for the U-/D- contrast
/// experiments of Fig. 2 and Table V).
pub fn run_on(
    name: &'static str,
    input: &GraphData,
    cfg: TrainConfig,
    repeats: usize,
    seed: u64,
) -> Summary {
    if verify_tape_requested() {
        report_verification(name, &Shim(build_model(name, input, seed)), input);
    }
    repeat_runs(|s| Ok(Shim(build_model(name, input, s))), input, cfg, repeats, seed).summary
}

/// Trains ADPA on exactly the given input.
pub fn run_adpa(
    input: &GraphData,
    adpa_cfg: AdpaConfig,
    cfg: TrainConfig,
    repeats: usize,
    seed: u64,
) -> Summary {
    if verify_tape_requested() {
        match Adpa::new(input, adpa_cfg, seed) {
            Ok(model) => report_verification("ADPA", &model, input),
            Err(e) => {
                eprintln!("error: ADPA construction failed during --verify-tape: {e}");
                std::process::exit(e.exit_code());
            }
        }
    }
    repeat_runs(|s| Adpa::new(input, adpa_cfg, s), input, cfg, repeats, seed).summary
}

/// Trains ADPA with the AMUD-guided input (Fig. 1 workflow: undirected
/// transformation iff the guidance score is below θ).
pub fn run_adpa_guided(
    directed: &GraphData,
    adpa_cfg: AdpaConfig,
    cfg: TrainConfig,
    repeats: usize,
    seed: u64,
) -> Summary {
    let (prepared, _, _) = amud_core::paradigm::prepare_topology(directed);
    run_adpa(&prepared, adpa_cfg, cfg, repeats, seed)
}

/// Prints a fixed-width table row.
pub fn print_row(label: &str, cells: &[String]) {
    print!("{label:<14}");
    for c in cells {
        print!(" {c:>12}");
    }
    println!();
}

/// Prints a header row followed by a separator.
pub fn print_header(label: &str, cells: &[&str]) {
    print_row(label, &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!("{}", "-".repeat(14 + 13 * cells.len()));
}

/// Runs the Table III/IV protocol: every baseline (paper input convention)
/// plus AMUD-guided ADPA over the given datasets, printing accuracy
/// mean±std per cell and the average-rank column.
pub fn run_accuracy_table(title: &str, datasets: &[&str]) {
    use amud_models::registry::model_names;
    use amud_train::metrics::average_ranks;

    let cfg = sweep_config();
    let repeats = env_repeats(3);
    println!("{title}: accuracy mean±std over {repeats} repeats\n");
    let mut header: Vec<&str> = datasets.to_vec();
    header.push("Rank");
    print_header("Model", &header);

    let bundles: Vec<GraphData> = datasets.iter().map(|n| load(n, 42)).collect();
    let mut acc_matrix: Vec<Vec<f64>> = Vec::new();
    let mut labels: Vec<String> = Vec::new();

    // Rows stream as they finish so long sweeps are observable; the rank
    // column needs every row and is printed as a footer.
    for name in model_names() {
        let mut cells = Vec::new();
        let mut accs = Vec::new();
        for data in &bundles {
            let s = run_baseline(name, data, cfg, repeats, 0);
            accs.push(s.mean);
            cells.push(format!("{s}"));
        }
        acc_matrix.push(accs);
        labels.push(name.to_string());
        print_row(name, &cells);
    }
    {
        let mut cells = Vec::new();
        let mut accs = Vec::new();
        for data in &bundles {
            let s = run_adpa_guided(data, AdpaConfig::default(), cfg, repeats, 0);
            accs.push(s.mean);
            cells.push(format!("{s}"));
        }
        acc_matrix.push(accs);
        labels.push("ADPA".to_string());
        print_row("ADPA", &cells);
    }

    println!(
        "
Average rank (1 = best):"
    );
    let ranks = average_ranks(&acc_matrix);
    let mut order: Vec<usize> = (0..labels.len()).collect();
    order.sort_by(|&a, &b| ranks[a].total_cmp(&ranks[b]));
    for i in order {
        println!("  {:<12} {:.1}", labels[i], ranks[i]);
    }
}

/// Records a full training curve for a named model ("ADPA" or any registry
/// baseline) with the paper's input convention (Fig. 5 helper).
pub fn train_curve_for(
    name: &'static str,
    data: &GraphData,
    cfg: TrainConfig,
    seed: u64,
) -> Result<amud_train::TrainResult, amud_train::TrainError> {
    use amud_train::train_with_curve;
    if name == "ADPA" {
        let (prepared, _, _) = amud_core::paradigm::prepare_topology(data);
        let mut model = Adpa::new(&prepared, AdpaConfig::default(), seed)?;
        train_with_curve(&mut model, &prepared, cfg, seed)
    } else {
        let input = if is_directed_model(name) { data.clone() } else { data.to_undirected() };
        let mut model = Shim(build_model(name, &input, seed));
        train_with_curve(&mut model, &input, cfg, seed)
    }
}

/// Flags shared by the `bench-*` binaries.
#[derive(Debug, PartialEq)]
pub struct BenchArgs {
    /// `--smoke`: CI-sized shapes.
    pub smoke: bool,
    /// `--out <path>`: where the JSON report is written.
    pub out: String,
    /// `--check <baseline.json>`: the committed report to gate against.
    pub check: Option<String>,
}

/// Parses the `bench-*` flags: `--smoke`, `--out <path>` (default
/// `default_out`) and, when `with_check`, `--check <baseline.json>`. A
/// flag without its value or any other argument is a usage error: exit 2
/// before any work runs or any file is written.
pub fn bench_args(default_out: &str, with_check: bool) -> BenchArgs {
    parse_bench_args(std::env::args().skip(1), default_out, with_check).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

fn parse_bench_args(
    args: impl IntoIterator<Item = String>,
    default_out: &str,
    with_check: bool,
) -> Result<BenchArgs, String> {
    let mut parsed = BenchArgs { smoke: false, out: default_out.to_string(), check: None };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| match args.next() {
            Some(v) if !v.starts_with("--") => Ok(v),
            _ => Err(format!("{arg} requires {what}")),
        };
        match arg.as_str() {
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = value("an output path")?,
            "--check" if with_check => parsed.check = Some(value("a baseline path")?),
            _ => {
                let check = if with_check { ", --check <baseline.json>" } else { "" };
                return Err(format!(
                    "unknown argument '{arg}' (want --smoke, --out <path>{check})"
                ));
            }
        }
    }
    Ok(parsed)
}

/// Extracts the string value of `"key": "…"` from a single JSON-line `row`.
fn json_str_field<'a>(row: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\": \"");
    let start = row.find(&tag)? + tag.len();
    let end = row[start..].find('"')?;
    Some(&row[start..start + end])
}

/// Extracts the numeric value of `"key": <num>` from a single JSON-line
/// `row`.
fn json_num_field(row: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let start = row.find(&tag)? + tag.len();
    let num: String = row[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
        .collect();
    num.parse().ok()
}

/// Parses a committed `BENCH_*.json` into `(kernel, shape) → serial_ms`.
/// The reports are hand-rendered with one result object per line, so a
/// line scan is exact.
fn parse_baseline(text: &str) -> Vec<((String, String), f64)> {
    text.lines()
        .filter_map(|row| {
            let kernel = json_str_field(row, "kernel")?;
            let shape = json_str_field(row, "shape")?;
            let serial = json_num_field(row, "serial_ms")?;
            Some(((kernel.to_string(), shape.to_string()), serial))
        })
        .collect()
}

/// The `--check` regression gate: every `(kernel, shape, serial_ms)` row
/// also present in the baseline at `path` may be at most 10% plus 0.25 ms
/// slower (the floor absorbs host jitter on sub-millisecond kernels,
/// while a real 2× regression on any non-trivial shape still trips).
/// Rows absent from the baseline (smoke-only shapes, new kernels) are
/// skipped. Exits 1 on a regression, and 2 when the baseline is
/// unreadable, has no rows, or shares no row with this run.
pub fn check_serial_ms(path: &str, rows: &[(&str, &str, f64)]) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read baseline {path}: {e}");
        std::process::exit(2)
    });
    let baseline = parse_baseline(&text);
    if baseline.is_empty() {
        eprintln!("error: baseline {path} has no parseable result rows");
        std::process::exit(2);
    }
    let mut checked = 0usize;
    let mut regressed = 0usize;
    for &(kernel, shape, serial_ms) in rows {
        let Some((_, base_ms)) = baseline.iter().find(|((k, s), _)| k == kernel && s == shape)
        else {
            continue;
        };
        checked += 1;
        let limit = base_ms * 1.10 + 0.25;
        if serial_ms > limit {
            regressed += 1;
            eprintln!(
                "regression: {kernel} {shape} serial {serial_ms:.3}ms exceeds {limit:.3}ms (baseline {base_ms:.3}ms +10% +0.25ms)"
            );
        }
    }
    println!("check vs {path}: {checked} kernel/shape pair(s) compared, {regressed} regressed");
    if regressed > 0 {
        std::process::exit(1);
    }
    if checked == 0 {
        eprintln!("error: no kernel/shape pair overlapped the baseline — nothing was gated");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], with_check: bool) -> Result<BenchArgs, String> {
        parse_bench_args(args.iter().map(|a| a.to_string()), "BENCH_x.json", with_check)
    }

    #[test]
    fn bench_args_read_every_flag() {
        let got = parse(&["--smoke", "--out", "o.json", "--check", "b.json"], true).unwrap();
        let want = BenchArgs { smoke: true, out: "o.json".into(), check: Some("b.json".into()) };
        assert_eq!(got, want);
        let default = parse(&[], true).unwrap();
        assert_eq!(
            (default.smoke, default.out.as_str(), default.check),
            (false, "BENCH_x.json", None)
        );
    }

    #[test]
    fn bench_args_reject_missing_values() {
        // A bare trailing `--out` must not fall back to the committed report.
        assert!(parse(&["--smoke", "--out"], true).is_err());
        assert!(parse(&["--check"], true).is_err());
        assert!(parse(&["--out", "--smoke"], true).is_err());
    }

    #[test]
    fn bench_args_reject_unknown_flags() {
        let err = parse(&["--smoke", "--chek", "x"], true).unwrap_err();
        assert!(err.contains("--chek"), "{err}");
        assert!(parse(&["--check", "b.json"], false).is_err(), "--check is opt-in per binary");
        assert!(parse(&["stray"], true).is_err());
    }

    #[test]
    fn baseline_rows_parse_from_report_lines() {
        let text = "{\n  \"kernels\": [\n    {\"kernel\": \"matmul\", \"shape\": \"4x4\", \"serial_ms\": 1.25, \"gbs\": 2}\n  ]\n}\n";
        assert_eq!(parse_baseline(text), vec![(("matmul".into(), "4x4".into()), 1.25)]);
    }
}
