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
//! The four `bench-*` binaries share their flag parsing ([`bench_args`]),
//! their report layout ([`report`]: every `BENCH_*.json` is rendered and
//! read back there), and their timing and exit helpers ([`time_ms`],
//! [`min_of_rounds`], [`fail`]). `bench-kernels` and `bench-quant` share
//! the `--check` regression gate ([`check_serial_ms`]). The Sec. IV-D
//! complexity rows are the `scaling` section of `BENCH_precompute.json`.
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

pub mod report;

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
    GraphData::from_dataset(d).unwrap_or_else(|e| {
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

/// Prints `error: {msg}` and exits 1: a bench binary has no recovery
/// path.
pub fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

/// Wall-clock of one call to `f`, in milliseconds, and its result. The
/// result is moved out, so the caller drops it after the clock is read.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    // TAINT-PURE(t): the wall-clock is only reported; it is never fed
    // back into a computed value.
    let t = std::time::Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64() * 1e3, out)
}

/// Minimum of `time(i)` for every `i < n` over `reps` interleaved
/// rounds. Each round times every case once, so a slow stretch of a
/// shared host slows all cases alike instead of one case's whole series.
/// Round `r` starts at case `r mod n`, and odd rounds walk the cases
/// backwards: a rotation alone keeps the cyclic order, so case 0 would
/// still always run right after case `n - 1` and pay whatever that case
/// leaves behind (a trimmed heap, cold caches).
pub fn min_of_rounds(n: usize, reps: usize, mut time: impl FnMut(usize) -> f64) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; n];
    for round in 0..reps {
        for j in 0..n {
            let step = if round % 2 == 0 { j } else { n - j };
            let i = (round + step) % n;
            best[i] = best[i].min(time(i));
        }
    }
    best
}

/// Equal lengths and equal bits, element by element.
pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A `rows × cols` matrix of uniform draws from `[-1, 1)`.
pub fn seeded(rows: usize, cols: usize, seed: u64) -> amud_nn::DenseMatrix {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    amud_nn::DenseMatrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0f32..1.0))
}

/// The `--check` regression gate: every `(kernel, shape, serial_ms)` row
/// also present in the baseline at `path` may be at most 10% plus 0.25 ms
/// slower (the floor absorbs host jitter on sub-millisecond kernels,
/// while a real 2× regression on any non-trivial shape still trips).
/// Rows over the limit are timed once more: `retime(ix)` returns the
/// minimum `serial_ms` of rows `ix` over another series of interleaved
/// rounds, and a row fails only if the minimum over both series is still
/// over its limit, so one slow stretch of a shared host cannot fail it.
/// Rows absent from the baseline (smoke-only shapes, new kernels) are
/// skipped. Exits 1 on a regression, and 2 when the baseline is
/// unreadable, has no rows, or shares no row with this run.
pub fn check_serial_ms(
    path: &str,
    rows: &[(&str, &str, f64)],
    retime: impl FnOnce(&[usize]) -> Vec<f64>,
) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read baseline {path}: {e}");
        std::process::exit(2)
    });
    let baseline = report::parse_baseline(&text);
    if baseline.is_empty() {
        eprintln!("error: baseline {path} has no parseable result rows");
        std::process::exit(2);
    }
    let (checked, regressions) = gate(&baseline, rows, retime);
    for r in &regressions {
        eprintln!("regression: {r}");
    }
    println!(
        "check vs {path}: {checked} kernel/shape pair(s) compared, {} regressed",
        regressions.len()
    );
    if !regressions.is_empty() {
        std::process::exit(1);
    }
    if checked == 0 {
        eprintln!("error: no kernel/shape pair overlapped the baseline — nothing was gated");
        std::process::exit(2);
    }
}

/// [`check_serial_ms`]'s decision: how many rows met a baseline row, and
/// one message per row still over its limit after the re-time.
fn gate(
    baseline: &[((String, String), f64)],
    rows: &[(&str, &str, f64)],
    retime: impl FnOnce(&[usize]) -> Vec<f64>,
) -> (usize, Vec<String>) {
    let limit = |(kernel, shape, _): (&str, &str, f64)| {
        let (_, base_ms) = baseline.iter().find(|((k, s), _)| k == kernel && s == shape)?;
        Some((*base_ms, base_ms * 1.10 + 0.25))
    };
    let checked = rows.iter().filter_map(|&r| limit(r)).count();
    let over: Vec<usize> =
        (0..rows.len()).filter(|&i| limit(rows[i]).is_some_and(|(_, l)| rows[i].2 > l)).collect();
    if over.is_empty() {
        return (checked, Vec::new());
    }
    println!("re-timing {} row(s) over the limit", over.len());
    let regressions = over
        .iter()
        .zip(retime(&over))
        .filter_map(|(&i, second)| {
            let (kernel, shape, first) = rows[i];
            let (base_ms, limit) = limit(rows[i])?;
            println!("re-timed: {kernel} {shape} serial {first:.3}ms, then {second:.3}ms");
            let best = first.min(second);
            (best > limit).then(|| format!(
                "{kernel} {shape} serial {best:.3}ms exceeds {limit:.3}ms (baseline {base_ms:.3}ms +10% +0.25ms)"
            ))
        })
        .collect();
    (checked, regressions)
}

#[cfg(test)]
mod tests {
    use super::report::Object;
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
    fn min_of_rounds_varies_each_cases_predecessor() {
        let mut order = Vec::new();
        let best = min_of_rounds(3, 4, |i| {
            order.push(i);
            (10 * i + order.len()) as f64
        });
        assert_eq!(order, [0, 1, 2, 1, 0, 2, 2, 0, 1, 0, 2, 1]);
        assert_eq!(best, [1.0, 12.0, 23.0]);
    }

    #[test]
    fn baseline_rows_parse_from_report_lines() {
        let text = "{\n  \"kernels\": [\n    {\"kernel\": \"matmul\", \"shape\": \"4x4\", \"serial_ms\": 1.25, \"gbs\": 2}\n  ]\n}\n";
        assert_eq!(report::parse_baseline(text), vec![(("matmul".into(), "4x4".into()), 1.25)]);
    }

    fn kernel_row(kernel: &str, shape: &str, serial_ms: f64) -> Object {
        Object::new().str("kernel", kernel).str("shape", shape).field("serial_ms", serial_ms)
    }

    #[test]
    fn kernels_report_renders_the_committed_layout() {
        // Rows of a committed BENCH_kernels.json, in its layout.
        let rows = [("transpose", "256x64", 0.0190, 0.0154, 1.2291, 0.0, 6.9025)];
        let report = Object::new()
            .field("host_threads", 2)
            .field("amud_threads", 2)
            .field("reps", 15)
            .field("smoke", false)
            .rows(
                "results",
                rows.iter().map(|&(kernel, shape, serial, parallel, speedup, gflops, gbs)| {
                    Object::new()
                        .str("kernel", kernel)
                        .str("shape", shape)
                        .field("serial_ms", format!("{serial:.4}"))
                        .field("parallel_ms", format!("{parallel:.4}"))
                        .field("speedup", format!("{speedup:.4}"))
                        .field("gflops", format!("{gflops:.4}"))
                        .field("gbs", format!("{gbs:.4}"))
                        .field("bit_identical", true)
                }),
            );
        let want = r#"{
  "host_threads": 2,
  "amud_threads": 2,
  "reps": 15,
  "smoke": false,
  "results": [
    {"kernel": "transpose", "shape": "256x64", "serial_ms": 0.0190, "parallel_ms": 0.0154, "speedup": 1.2291, "gflops": 0.0000, "gbs": 6.9025, "bit_identical": true}
  ]
}
"#;
        assert_eq!(report.render(), want);
    }

    #[test]
    fn rendered_rows_round_trip_through_parse_baseline() {
        let rows = [("matmul", "4096x256x128", 6.2158), ("bool_matmul", "2223x2223 sq", 10.2)];
        let text =
            Object::new().rows("r", rows.iter().map(|&(k, s, ms)| kernel_row(k, s, ms))).render();
        let want: Vec<_> =
            rows.iter().map(|&(k, s, ms)| ((k.to_string(), s.to_string()), ms)).collect();
        assert_eq!(report::parse_baseline(&text), want);
    }

    #[test]
    fn labels_with_quotes_and_backslashes_are_escaped() {
        let label = "a \"b\" \\c\n";
        let text = Object::new().rows("r", [kernel_row(label, "s", 1.5)]).render();
        assert!(text.contains(r#"{"kernel": "a \"b\" \\c\u000a", "shape": "s""#), "{text}");
        assert_eq!(report::parse_baseline(&text), vec![((label.to_string(), "s".into()), 1.5)]);
    }

    #[test]
    fn the_gate_retimes_only_over_limit_rows_and_keeps_the_faster_series() {
        // Limits: a 1.35 ms, b 11.25 ms, c 1.35 ms; `d` has no baseline.
        let baseline: Vec<_> = [("a", 1.0), ("b", 10.0), ("c", 1.0)]
            .map(|(k, ms)| ((k.to_string(), "s".to_string()), ms))
            .to_vec();
        let rows = [("a", "s", 1.2), ("b", "s", 12.0), ("c", "s", 2.0), ("d", "s", 9.0)];
        let mut asked = Vec::new();
        let (checked, regressions) = gate(&baseline, &rows, |ix| {
            asked = ix.to_vec();
            vec![11.0, 1.9]
        });
        assert_eq!((asked, checked), (vec![1, 2], 3), "only over-limit rows are re-timed");
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].starts_with("c s serial 1.900ms"), "{regressions:?}");
        let (_, clean) = gate(&baseline, &rows[..1], |_| unreachable!("nothing is over"));
        assert!(clean.is_empty());
    }
}
