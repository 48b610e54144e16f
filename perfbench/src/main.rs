//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. Untraced
//! runs (`--trace 0`) report the end-to-end metrics; traced runs report
//! the per-layer split. The exit code is non-zero when any output check
//! fails. See `perfbench/README.md` for the workloads and metrics.

mod loadgen;
mod pipeline;
mod serving;
mod stats;
mod trace;

use pipeline::{PipelineOut, Seeds, TrainSpec};
use serving::ServeSpec;
use stats::{fastest, highest};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Kernel thread budget (`AMUD_THREADS`) every workload runs under.
const THREADS: usize = 1;

/// Times a serving run sets up, for the median `setup_s`.
pub const SETUPS: usize = 7;

/// Times a training run sets up before each pipeline, for the median
/// `setup_s`. Generating its inputs takes only milliseconds, so many
/// set-ups spread over the whole run keep that median steady when one
/// stretch of a shared host runs slow.
const TRAIN_SETUPS: usize = 5;

enum Kind {
    Train(TrainSpec),
    Serve(ServeSpec),
}

struct Workload {
    name: &'static str,
    kind: Kind,
}

fn chameleon_k5(epochs: usize) -> TrainSpec {
    TrainSpec {
        dataset: "chameleon",
        scale: amud_datasets::ReplicaScale::default(),
        k_steps: vec![5],
        epochs,
    }
}

/// The serving workload's ladder, as shares of its capacity: the
/// single-connection goodput it measured when these rates were fixed
/// (`README.md` has the runs). The rungs bracket capacity; the top rung is
/// far above it, so its windows read the capacity itself.
const LADDER_SHARES: [f64; 6] = [0.25, 0.5, 0.75, 1.0, 1.25, 3.0];

/// Single-connection `OK` replies per second of `serve-int8-swap` that its
/// rates are set against.
const INT8_CAPACITY: f64 = 280.0;

fn workloads() -> Vec<Workload> {
    vec![
        Workload { name: "train-chameleon-k5", kind: Kind::Train(chameleon_k5(4)) },
        Workload {
            name: "sweep-squirrel",
            kind: Kind::Train(TrainSpec {
                dataset: "squirrel",
                scale: amud_datasets::ReplicaScale {
                    node_cap: usize::MAX,
                    feature_cap: 64,
                    avg_degree_cap: f64::INFINITY,
                },
                k_steps: vec![1, 2, 3, 4, 5],
                epochs: 1,
            }),
        },
        Workload {
            name: "serve-int8-swap",
            kind: Kind::Serve(ServeSpec {
                model: chameleon_k5(3),
                quant: Some("int8"),
                nodes_per_request: 32,
                ref_rate: 70.0,
                ladder: LADDER_SHARES.iter().map(|s| s * INT8_CAPACITY).collect(),
                latency_limit_ms: 50.0,
                swap_period: Some(Duration::from_millis(500)),
            }),
        },
    ]
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad --seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// End-to-end metrics every untraced run prints, in order, with units.
/// Each workload fills every one; `README.md` says what each means there.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("ready_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("snapshot_bytes", "B"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every traced run prints, in order, with units; a
/// layer a workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("datasets.replica_ms", "ms"),
    ("core.amud.decide_ms", "ms"),
    ("core.precompute.operators_ms", "ms"),
    ("core.precompute.propagate_ms", "ms"),
    ("graph.spmm_calls", "count"),
    ("core.adpa.new_ms", "ms"),
    ("cache.op_hits", "count"),
    ("cache.op_misses", "count"),
    ("cache.feat_hits", "count"),
    ("cache.feat_misses", "count"),
    ("cache.feat_extends", "count"),
    ("cache.lookups", "count"),
    ("cache.hit_ratio", "ratio"),
    ("train.verify_ms", "ms"),
    ("train.train_ms", "ms"),
    ("nn.forward_ms", "ms"),
    ("nn.backward_ms", "ms"),
    ("nn.optim_ms", "ms"),
    ("nn.eval_ms", "ms"),
    ("nn.tape_nodes", "count"),
    ("core.export_ms", "ms"),
    ("quant.requantize_ms", "ms"),
    ("serve.snapshot.encode_ms", "ms"),
    ("serve.snapshot.write_ms", "ms"),
    ("serve.snapshot.decode_ms", "ms"),
    ("serve.server.start_ms", "ms"),
    ("serve.server.swap_visible_ms", "ms"),
    ("serve.server.swaps", "count"),
    ("serve.engine.predict_us_p50", "us"),
    ("serve.engine.predict_us_p99", "us"),
    ("serve.engine.bytes_per_query", "B"),
    ("serve.server.overhead_us_p50", "us"),
    ("serve.server.served", "count"),
    ("serve.server.shed", "count"),
    ("serve.server.timeouts", "count"),
    ("serve.server.degraded", "count"),
    ("serve.server.idle_cpu_pct", "%"),
    ("loadgen.latency_tail_ms", "ms"),
    ("loadgen.lag_us_p99", "us"),
    ("loadgen.backlog_end", "count"),
    ("loadgen.sent", "count"),
    ("loadgen.max_rate_qps", "1/s"),
    ("pipeline.self_ms", "ms"),
    ("trace.pipeline_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// What a run measured and checked.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    problems: Vec<String>,
    tracer: Tracer,
}

impl Outcome {
    fn new(traced: bool) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            problems: Vec::new(),
            tracer: Tracer::new(traced),
        }
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line: every metric of `table`, by name and unit.
    fn json(&mut self, table: &[(&'static str, &'static str)], traced: bool) -> String {
        let mut parts = Vec::new();
        for &(name, unit) in table {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                None if traced => 0.0,
                other => {
                    self.problems.push(format!("{name} was not measured ({other:?})"));
                    -1.0
                }
            };
            parts.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        if let Some(extra) = self.metrics.keys().find(|k| !table.iter().any(|(n, _)| n == *k)) {
            self.problems.push(format!("{extra} is measured but not in the metric table"));
        }
        if !self.problems.is_empty() {
            self.failed = self.failed.max(1);
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        )
    }
}

/// High-water resident set of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Scratch directory for the run's files, under the working directory.
fn run_dir(workload: &str) -> Result<PathBuf, String> {
    let dir =
        PathBuf::from("perfbench").join(".run").join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn med(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(f64::NAN)
}

/// Runs training pipelines until `seconds` have passed (at least two, so
/// the same-seed accuracy check has a pair).
fn run_train(spec: &TrainSpec, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut o = Outcome::new(traced);
    let dir = run_dir("train")?;
    let snap = dir.join("pipeline.snap");
    let seeds =
        Seeds { replica: loadgen::derive_seed(seed, 1), model: loadgen::derive_seed(seed, 2) };

    let mut setup = Vec::new();
    let mut off = Tracer::new(false);
    let mut runs: Vec<PipelineOut> = Vec::new();
    // A traced run alternates untraced and traced pipelines: the untraced
    // ones are the reference for the bit-for-bit check and the base of
    // the tracing overhead.
    let mut untraced: Vec<PipelineOut> = Vec::new();
    let started = Instant::now();
    while runs.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        // Set-up: generating the inputs the pipeline loads.
        for _ in 0..TRAIN_SETUPS {
            let from = Instant::now();
            std::hint::black_box(pipeline::load(spec, seeds.replica)?);
            setup.push(from.elapsed().as_secs_f64());
        }
        if traced {
            untraced.push(pipeline::run(spec, seeds, &snap, &mut off)?);
        }
        let t: &mut Tracer = if traced { &mut o.tracer } else { &mut off };
        let out = pipeline::run(spec, seeds, &snap, t)?;
        eprintln!(
            "perfbench: pipeline {:.3} s (ready {:.3} s, train {:.3} s, {} epochs), test acc {:?}",
            out.wall_ns as f64 / 1e9,
            out.ready_ns as f64 / 1e9,
            out.train_ns as f64 / 1e9,
            out.epochs,
            out.test_accs
        );
        runs.push(out);
    }
    std::fs::remove_dir_all(&dir).ok();

    let reference = &untraced.first().unwrap_or(&runs[0]).test_accs;
    for r in runs.iter().chain(&untraced) {
        let same = r.test_accs.len() == reference.len()
            && r.test_accs.iter().zip(reference).all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            o.failed += 1;
            o.problems.push(format!(
                "same seed, different test accuracy: {:?} vs {:?}{}",
                r.test_accs,
                reference,
                if traced { " (traced loop vs train())" } else { "" }
            ));
        }
    }
    o.attempted = (runs.len() + untraced.len()) as u64;

    let wall: Vec<f64> = runs.iter().map(|r| ms(r.wall_ns)).collect();
    if !traced {
        let ready: Vec<f64> = runs.iter().map(|r| ms(r.ready_ns)).collect();
        let rate: Vec<f64> =
            runs.iter().map(|r| r.epochs as f64 / (r.train_ns as f64 / 1e9)).collect();
        eprintln!("perfbench: {} pipelines", wall.len());
        o.put("setup_s", med(&setup));
        o.put("latency_p50_ms", fastest(&wall));
        o.put("ready_ms", fastest(&ready));
        o.put("throughput_per_s", highest(&rate));
        o.put("snapshot_bytes", runs[0].snapshot_bytes as f64);
        o.put("peak_rss_mb", peak_rss_mb());
        return Ok(o);
    }

    // Self time per pipeline, by layer.
    let n = runs.len() as f64;
    for (name, (ns, _)) in trace::self_times(o.tracer.spans()) {
        let metric = match name {
            "pipeline" => "pipeline.self_ms",
            "datasets.replica" => "datasets.replica_ms",
            "core.amud.decide" => "core.amud.decide_ms",
            "core.precompute.operators" => "core.precompute.operators_ms",
            "core.precompute.propagate" => "core.precompute.propagate_ms",
            "core.adpa.new" => "core.adpa.new_ms",
            "train.verify" => "train.verify_ms",
            "train.train" => "train.train_ms",
            "nn.forward" => "nn.forward_ms",
            "nn.backward" => "nn.backward_ms",
            "nn.optim" => "nn.optim_ms",
            "nn.eval" => "nn.eval_ms",
            "core.export" => "core.export_ms",
            "serve.snapshot.encode" => "serve.snapshot.encode_ms",
            "serve.snapshot.write" => "serve.snapshot.write_ms",
            other => return Err(format!("span {other} has no metric")),
        };
        o.put(metric, ms(ns) / n);
    }
    let c = runs[0].cache;
    let lookups = c.total() as f64;
    let traced_wall = med(&wall);
    let untraced_wall = med(&untraced.iter().map(|u| ms(u.wall_ns)).collect::<Vec<_>>());
    let forwards = runs.iter().map(|r| r.tape_forwards).sum::<u64>().max(1);
    o.put("graph.spmm_calls", runs[0].spmm_calls as f64);
    o.put("cache.op_hits", c.op_hits as f64);
    o.put("cache.op_misses", c.op_misses as f64);
    o.put("cache.feat_hits", c.feat_hits as f64);
    o.put("cache.feat_misses", c.feat_misses as f64);
    o.put("cache.feat_extends", c.feat_extends as f64);
    o.put("cache.lookups", lookups);
    o.put("cache.hit_ratio", (c.op_hits + c.feat_hits) as f64 / lookups.max(1.0));
    o.put("nn.tape_nodes", runs.iter().map(|r| r.tape_nodes).sum::<u64>() as f64 / forwards as f64);
    o.put("trace.pipeline_ms", traced_wall);
    o.put("trace.overhead_pct", (traced_wall / untraced_wall - 1.0) * 100.0);
    Ok(o)
}

fn run_serve(
    spec: &ServeSpec,
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Outcome, String> {
    let mut o = Outcome::new(traced);
    let dir = run_dir(name)?;
    let result = serving::run(spec, seed, seconds, &dir, &mut o.tracer);
    std::fs::remove_dir_all(&dir).ok();
    let out = result?;
    o.problems.extend(out.problems.iter().cloned());
    o.attempted = out.attempted;
    o.failed = out.failed;
    let medians = &out.ref_medians;
    let (latency, goodput) = (fastest(medians), highest(&out.goodputs));
    let all = stats::summarize(&out.ref_latencies).ok_or("no reference-rate requests")?;
    eprintln!(
        "perfbench: reference rate {}/s: window p50s {medians:.3?} ms, p{} of all {} = {:.3} ms; \
         top-rung goodputs {:.0?}/s; max rate {}/s",
        spec.ref_rate, all.tail_pct, all.n, all.tail, out.goodputs, out.max_rate
    );
    if !traced {
        o.put("setup_s", med(&out.setup_s));
        o.put("latency_p50_ms", latency);
        o.put("ready_ms", fastest(&out.ready_ms));
        o.put("throughput_per_s", goodput);
        o.put("snapshot_bytes", out.snapshot_bytes as f64);
        o.put("peak_rss_mb", out.peak_rss_mb);
        return Ok(o);
    }

    // Self time per call: each set-up step runs once per set-up.
    for (name, (ns, calls)) in trace::self_times(o.tracer.spans()) {
        let metric = match name {
            "core.export" => "core.export_ms",
            "quant.requantize" => "quant.requantize_ms",
            "serve.snapshot.encode" => "serve.snapshot.encode_ms",
            "serve.snapshot.write" => "serve.snapshot.write_ms",
            "serve.snapshot.decode" => "serve.snapshot.decode_ms",
            "serve.server.start" => "serve.server.start_ms",
            other => return Err(format!("span {other} has no metric")),
        };
        o.put(metric, ms(ns) / calls as f64);
    }
    let engine = out.engine_us.ok_or("engine was not timed")?;
    let overhead = med(&out.setup_s) / med(&out.untraced_setup_s) - 1.0;
    o.put("serve.server.swap_visible_ms", stats::median(&out.swap_visible_ms).unwrap_or(0.0));
    o.put("serve.server.swaps", out.swaps as f64);
    o.put("serve.engine.predict_us_p50", engine.median);
    o.put("serve.engine.predict_us_p99", out.engine_us_p99);
    o.put("serve.engine.bytes_per_query", out.bytes_per_query);
    o.put("serve.server.overhead_us_p50", latency * 1e3 - engine.median);
    o.put("serve.server.served", out.served as f64);
    o.put("serve.server.shed", out.shed as f64);
    o.put("serve.server.timeouts", out.timeouts as f64);
    o.put("serve.server.degraded", out.degraded as f64);
    o.put("serve.server.idle_cpu_pct", out.idle_cpu_pct);
    o.put("loadgen.latency_tail_ms", all.tail);
    o.put("loadgen.lag_us_p99", stats::percentile(&out.ref_lags, 99.0).unwrap_or(f64::NAN) * 1e3);
    o.put("loadgen.backlog_end", out.ref_backlog_end as f64);
    o.put("loadgen.sent", out.attempted as f64);
    o.put("loadgen.max_rate_qps", out.max_rate);
    o.put("trace.overhead_pct", overhead * 100.0);
    Ok(o)
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if let [_, mode, snapshot] = argv.as_slice() {
        if mode == "--serve-child" {
            if let Err(e) = serving::child_main(snapshot) {
                eprintln!("perfbench server: {e}");
                std::process::exit(1);
            }
            return;
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let all = workloads();
    let Some(w) = all.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = all.iter().map(|w| w.name).collect();
        eprintln!("perfbench: unknown workload {} (have {})", args.workload, names.join(", "));
        std::process::exit(2);
    };
    // The kernel thread budget is part of the workload definition; the
    // cache is on, as `amud` runs it by default.
    std::env::set_var("AMUD_THREADS", THREADS.to_string());
    std::env::set_var("AMUD_CACHE", "on");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} | AMUD_THREADS={} nproc={nproc}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        amud_par::max_threads()
    );

    let result = match &w.kind {
        Kind::Train(spec) => run_train(spec, args.seed, args.seconds, args.trace),
        Kind::Serve(spec) => run_serve(spec, w.name, args.seed, args.seconds, args.trace),
    };
    let mut o = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            std::process::exit(1);
        }
    };
    if args.trace {
        let path = std::path::PathBuf::from("perfbench")
            .join(".run")
            .join(format!("trace-{}-{}.jsonl", w.name, args.seed));
        if let Err(e) = std::fs::write(&path, o.tracer.to_jsonl()) {
            o.problems.push(format!("cannot write {}: {e}", path.display()));
        }
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let line = o.json(table, args.trace);
    for p in &o.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{line}");
    if !o.problems.is_empty() {
        std::process::exit(1);
    }
}
