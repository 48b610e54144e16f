//! The serving workloads: a chameleon k=5 ADPA snapshot served by
//! `Server::start` with default settings, driven by the open-loop
//! generator in [`crate::loadgen`].
//!
//! Set-up trains the model once (input generation), then — several times,
//! for a median — produces the served snapshot (requantize, encode,
//! write) and starts a server until it answers its first `PREDICT`. The
//! measured phase offers a reference rate, then a fixed ladder of rates.
//! With a swap period, the snapshot file is atomically replaced at that
//! period by versions alternating between two weight sets, each with a
//! new tag, while the load runs.
//!
//! Every `OK` reply is compared with an in-process `Engine::predict` of a
//! version that was live while the request was in flight, every
//! connection must conserve replies, and the server's `served` and
//! `swaps` counters must match what the client saw and wrote.

use crate::loadgen::{
    self, derive_seed, poisson_schedule, roundtrip, Phase, SplitMix, Tally, Zipf,
};
use crate::pipeline::{self, Seeds, TrainSpec};
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use amud_core::{prepare_topology, Adpa};
use amud_quant::QuantSpec;
use amud_serve::{
    decode_snapshot, encode_snapshot, write_snapshot, Engine, Server, ServerConfig, Snapshot,
};
use amud_train::train;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// What one serving workload runs.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// The model the snapshot is exported from.
    pub model: TrainSpec,
    /// Served precision (`None` serves the f32 export as is).
    pub quant: Option<&'static str>,
    pub nodes_per_request: usize,
    /// Offered rate the latency metrics are measured at.
    pub ref_rate: f64,
    /// Offered rates for the maximum-rate search, ascending. The top rung
    /// is far above capacity: it runs in every round, and its goodput is
    /// the server's capacity on one connection.
    pub ladder: Vec<f64>,
    /// Tail latency a rung must meet to count toward the maximum rate.
    pub latency_limit_ms: f64,
    /// Snapshot replacement period; `None` serves one version throughout.
    pub swap_period: Option<Duration>,
}

/// Node popularity is Zipf with this exponent.
const ZIPF_S: f64 = 1.0;

/// Tail generator lag beyond which a rung does not count: about 1.5× the
/// highest lag p99 the generator showed at the reference rates (1.9–7.3
/// ms on a 2-vCPU host), so only a generator that cannot keep up fails it.
const LAG_LIMIT_MS: f64 = 10.0;

/// The measured seconds run [`ROUNDS`] rounds of one reference-rate
/// window and one top-rung window, then the lower rungs. Interleaving
/// spreads each metric's windows over the whole run; the caller reduces
/// them with a quantile across windows, so more windows give a steadier
/// quantile.
pub const ROUNDS: usize = 16;

/// The measured seconds are split evenly among this many server
/// processes, each started fresh on the first snapshot version, with
/// [`ROUNDS`]` / SEGMENTS` rounds each; the lower rungs run in the last.
/// How fast a light-load round trip is depends on where the scheduler
/// places the server's threads, and that holds for a process's lifetime:
/// on an otherwise quiet 2-vCPU host single-node `PREDICT`s at 1000/s read
/// a p50 of 0.13 ms in some runs and 0.21 ms in others, steady within each
/// run. Several processes per run sample that placement several times.
pub const SEGMENTS: usize = 4;
const _: () = assert!(ROUNDS.is_multiple_of(SEGMENTS));

/// Shares of the measured seconds at the reference rate, on the top rung
/// (both split evenly among the rounds) and on the lower rungs (split
/// evenly among them). The two end-to-end figures get most of the time;
/// the lower rungs only place `loadgen.max_rate_qps`.
pub const REF_SHARE: f64 = 0.45;
pub const TOP_SHARE: f64 = 0.4;
pub const LADDER_SHARE: f64 = 0.15;

/// What a phase of the measured run is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Reference,
    Rung,
}

/// Per-node reference answer of one weight set: `(class, confidence as
/// the server prints it)`.
type Reference = Vec<(usize, String)>;

/// One written snapshot version.
struct Version {
    weights: usize,
    written: Instant,
    /// When `STATS` first showed its tag.
    visible: Option<Instant>,
}

/// Everything a serving run measured; the caller turns it into metrics.
#[derive(Debug, Default)]
pub struct ServeOut {
    pub setup_s: Vec<f64>,
    pub ready_ms: Vec<f64>,
    pub untraced_setup_s: Vec<f64>,
    pub snapshot_bytes: usize,
    /// Median latency of each reference-rate window.
    pub ref_medians: Vec<f64>,
    /// Latency of every reference-rate request.
    pub ref_latencies: Vec<f64>,
    /// Generator lag of every reference-rate request sent.
    pub ref_lags: Vec<f64>,
    pub ref_backlog_end: usize,
    pub max_rate: f64,
    /// `OK` replies per second in each top-rung window.
    pub goodputs: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub served: u64,
    pub shed: u64,
    pub timeouts: u64,
    pub degraded: u64,
    pub swaps: u64,
    pub swap_visible_ms: Vec<f64>,
    pub engine_us: Option<Summary>,
    pub engine_us_p99: f64,
    pub bytes_per_query: f64,
    pub idle_cpu_pct: f64,
    pub decode_ms: Vec<f64>,
    /// High-water RSS of the server process.
    pub peak_rss_mb: f64,
}

/// A server in a child process of its own (this binary in
/// `--serve-child` mode), so the generator never shares a process, an
/// allocator or page tables with the system under test.
pub struct ChildServer {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    port: u16,
}

impl ChildServer {
    fn start(snapshot: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("--serve-child")
            .arg(snapshot)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the server process: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().map(BufReader::new);
        let mut me =
            ChildServer { child: Some(child), stdin, stdout: stdout.ok_or("no stdout")?, port: 0 };
        let line = me.line()?;
        me.port = line
            .strip_prefix("PORT ")
            .and_then(|p| p.parse().ok())
            .ok_or(format!("server process said {line:?}"))?;
        Ok(me)
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        self.stdout.read_line(&mut line).map_err(|e| e.to_string())?;
        Ok(line.trim().to_string())
    }

    fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// Stops the server and waits for its process; returns its
    /// high-water RSS in MiB.
    fn stop(mut self) -> Result<f64, String> {
        drop(self.stdin.take());
        let line = self.line()?;
        let rss = line.strip_prefix("RSS ").and_then(|r| r.parse().ok());
        let status = self.child.take().map(|mut c| c.wait());
        match (rss, status) {
            (Some(rss), Some(Ok(st))) if st.success() => Ok(rss),
            _ => Err(format!("server process ended badly ({line:?})")),
        }
    }
}

impl Drop for ChildServer {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// The `--serve-child` mode: serve `snapshot` with the default
/// configuration, print the port, and stop when standard input closes.
pub fn child_main(snapshot: &str) -> Result<(), String> {
    let server =
        Server::start(ServerConfig { snapshot_path: snapshot.into(), ..ServerConfig::default() })
            .map_err(|e| e.to_string())?;
    println!("PORT {}", server.port());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let mut sink = String::new();
    while std::io::stdin().read_line(&mut sink).map_err(|e| e.to_string())? > 0 {}
    let rss = crate::peak_rss_mb();
    server.stop();
    println!("RSS {rss}");
    Ok(())
}

/// Runs one serving workload for `seconds` of measured load.
pub fn run(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    dir: &Path,
    t: &mut Tracer,
) -> Result<ServeOut, String> {
    let mut out = ServeOut::default();
    let path = dir.join("served.snap");

    // Input generation: the model and its two weight sets.
    let model_from = Instant::now();
    let (snaps, n_nodes) = train_two_versions(spec, seed, t)?;
    eprintln!(
        "perfbench: model for the snapshot trained in {:.2} s",
        model_from.elapsed().as_secs_f64()
    );

    let quant = match spec.quant {
        None => None,
        Some(s) => Some(QuantSpec::parse(s).ok_or(format!("unknown precision {s}"))?),
    };
    let mut served_snaps: Vec<Snapshot> = Vec::new();
    let mut server: Option<ChildServer> = None;
    // In a traced run the first set-up is untraced: the pair gives the
    // tracing overhead.
    let untraced_first = t.enabled();
    let mut off = Tracer::new(false);
    let setups = crate::SETUPS + usize::from(untraced_first);
    for i in 0..setups {
        if let Some(s) = server.take() {
            s.stop()?;
        }
        let tr: &mut Tracer = if untraced_first && i == 0 { &mut off } else { &mut *t };
        tr.next_run();
        let from = Instant::now();
        let o = tr.enter("quant.requantize");
        served_snaps =
            snaps.iter().map(|s| quant.map_or_else(|| s.clone(), |q| s.requantized(q))).collect();
        tr.exit(o);
        let o = tr.enter("serve.snapshot.encode");
        let bytes = encode_snapshot(&served_snaps[0]);
        tr.exit(o);
        let o = tr.enter("serve.snapshot.write");
        out.snapshot_bytes = write_snapshot(&path, &served_snaps[0]).map_err(|e| e.to_string())?;
        tr.exit(o);
        if bytes.len() != out.snapshot_bytes {
            return Err("encoded and written snapshot sizes differ".into());
        }
        let ready_from = Instant::now();
        let o = tr.enter("serve.server.start");
        let s = ChildServer::start(&path)?;
        tr.exit(o);
        let mut probe = connect(s.port)?;
        let reply = roundtrip(&mut probe, "PREDICT 0").map_err(|e| e.to_string())?;
        if !reply.starts_with("OK ") {
            return Err(format!("first PREDICT answered {reply:?}"));
        }
        let ready = ready_from.elapsed().as_secs_f64() * 1e3;
        let setup = from.elapsed().as_secs_f64();
        drop(probe);
        if untraced_first && i == 0 {
            out.untraced_setup_s.push(setup);
        } else {
            out.setup_s.push(setup);
            out.ready_ms.push(ready);
        }
        if t.enabled() && i > 0 {
            // Decode + validate, as the server's loader and watcher do.
            let from = Instant::now();
            let o = t.enter("serve.snapshot.decode");
            let decoded = decode_snapshot(&bytes).map_err(|e| e.to_string())?;
            Engine::new(decoded).map_err(|e| e.to_string())?;
            t.exit(o);
            out.decode_ms.push(from.elapsed().as_secs_f64() * 1e3);
        }
        server = Some(s);
    }
    // The probes of every set-up are requests too.
    out.attempted += setups as u64;

    for segment in 0..SEGMENTS {
        let server = match server.take() {
            Some(s) => s,
            None => {
                write_snapshot(&path, &served_snaps[0]).map_err(|e| e.to_string())?;
                ChildServer::start(&path)?
            }
        };
        let result = measure(
            spec,
            seed,
            seconds,
            segment,
            n_nodes,
            &served_snaps,
            &path,
            &server,
            t,
            &mut out,
        );
        let rss = server.stop();
        result?;
        out.peak_rss_mb = out.peak_rss_mb.max(rss?);
    }
    std::fs::remove_file(&path).ok();
    Ok(out)
}

/// Trains the chameleon k=5 model and returns two f32 snapshots with
/// different weights: after the epoch budget (tag 1) and after one more
/// epoch (tag 2).
fn train_two_versions(
    spec: &ServeSpec,
    seed: u64,
    t: &mut Tracer,
) -> Result<(Vec<Snapshot>, usize), String> {
    let seeds = Seeds { replica: derive_seed(seed, 1), model: derive_seed(seed, 2) };
    let data = pipeline::load(&spec.model, seeds.replica)?;
    let (prepared, _, _) = prepare_topology(&data);
    let k = spec.model.k_steps[0];
    let mut model =
        Adpa::new(&prepared, spec.model.adpa_config(k), seeds.model).map_err(|e| e.to_string())?;
    train(&mut model, &prepared, spec.model.train_config(), seeds.model)
        .map_err(|e| e.to_string())?;
    t.next_run();
    let o = t.enter("core.export");
    let first = Snapshot::from_export(1, model.export());
    t.exit(o);
    let one_more = amud_train::TrainConfig { epochs: 1, ..spec.model.train_config() };
    train(&mut model, &prepared, one_more, seeds.model).map_err(|e| e.to_string())?;
    let second = Snapshot::from_export(2, model.export());
    Ok((vec![first, second], prepared.n_nodes()))
}

fn connect(port: u16) -> Result<TcpStream, String> {
    let s = TcpStream::connect(("127.0.0.1", port)).map_err(|e| e.to_string())?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok(s)
}

/// Answers of the served engine for every node, plus a check that a
/// node's answer does not depend on which other nodes share its call (the
/// server merges requests into one engine call).
fn reference(snap: &Snapshot, n_nodes: usize, rng: &mut SplitMix) -> Result<Reference, String> {
    let engine = Engine::new(decode_snapshot(&encode_snapshot(snap)).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let all: Vec<usize> = (0..n_nodes).collect();
    let preds = engine.predict(&all).map_err(|e| e.to_string())?;
    let table: Reference =
        preds.iter().map(|p| (p.class, format!("{:.6}", p.confidence))).collect();
    for _ in 0..8 {
        let subset: Vec<usize> =
            (0..17).map(|_| (rng.next_u64() % n_nodes as u64) as usize).collect();
        for p in engine.predict(&subset).map_err(|e| e.to_string())? {
            if (p.class, format!("{:.6}", p.confidence)) != table[p.node] {
                return Err(format!("engine answer for node {} depends on its batch", p.node));
            }
        }
    }
    Ok(table)
}

/// Whether `reply` is exactly the reference answer for `nodes`.
fn matches(reply: &str, nodes: &[usize], table: &Reference) -> bool {
    let tokens: Vec<&str> = reply.split_whitespace().collect();
    tokens.len() == nodes.len() + 1
        && tokens[0] == "OK"
        && tokens[1..].iter().zip(nodes).all(|(tok, &node)| {
            let (class, conf) = &table[node];
            *tok == format!("{node}:{class}:{conf}")
        })
}

/// The requests of one phase: due times and bodies, all from seeds.
fn requests(
    spec: &ServeSpec,
    zipf: &Zipf,
    rate: f64,
    window: Duration,
    seed: u64,
) -> (Vec<u64>, Vec<Vec<usize>>, Vec<String>) {
    let schedule = poisson_schedule(rate, window, derive_seed(seed, 4));
    let mut rng = SplitMix::new(derive_seed(seed, 3));
    let nodes: Vec<Vec<usize>> = schedule
        .iter()
        .map(|_| (0..spec.nodes_per_request).map(|_| zipf.sample(&mut rng)).collect())
        .collect();
    let bodies = nodes
        .iter()
        .map(|ns| {
            let mut s = String::from("PREDICT");
            for v in ns {
                s.push_str(&format!(" {v}"));
            }
            s
        })
        .collect();
    (schedule, nodes, bodies)
}

/// Parses the counters out of a `STATS` reply.
fn stat(reply: &str, key: &str) -> Result<u64, String> {
    let pat = format!("\"{key}\":");
    let at = reply.find(&pat).ok_or(format!("STATS lacks {key}: {reply}"))? + pat.len();
    let digits: String = reply[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().map_err(|_| format!("STATS {key} is not a number: {reply}"))
}

/// CPU time (user + system) of process `pid` in seconds, from
/// `/proc/<pid>/stat`.
fn process_cpu_s(pid: u32) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let after = &text[text.rfind(')')? + 2..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks: u64 = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    // USER_HZ is 100 on every Linux ABI this runs on.
    Some(ticks as f64 / 100.0)
}

#[allow(clippy::too_many_arguments)]
fn measure(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    segment: usize,
    n_nodes: usize,
    snaps: &[Snapshot],
    path: &Path,
    server: &ChildServer,
    t: &mut Tracer,
    out: &mut ServeOut,
) -> Result<(), String> {
    let mut rng = SplitMix::new(derive_seed(seed, 5));
    let tables: Vec<Reference> =
        snaps.iter().map(|s| reference(s, n_nodes, &mut rng)).collect::<Result<_, _>>()?;
    let zipf = Zipf::new(n_nodes, ZIPF_S, derive_seed(seed, 6));

    if t.enabled() && segment == 0 {
        // Engine alone, in process, on the same request mix.
        let engine =
            Engine::new(decode_snapshot(&encode_snapshot(&snaps[0])).map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?;
        let (_, nodes, _) =
            requests(spec, &zipf, 1100.0, Duration::from_secs(1), derive_seed(seed, 7));
        let mut us = Vec::with_capacity(nodes.len());
        for ns in &nodes {
            let from = Instant::now();
            std::hint::black_box(
                engine.predict(std::hint::black_box(ns)).map_err(|e| e.to_string())?,
            );
            us.push(from.elapsed().as_secs_f64() * 1e6);
        }
        out.engine_us = stats::summarize(&us);
        out.engine_us_p99 = stats::percentile(&us, 99.0).unwrap_or(f64::NAN);
        let feature_row = engine.feature_bytes() as f64 / n_nodes as f64;
        let weights = (engine.n_bytes() - engine.feature_bytes()) as f64;
        out.bytes_per_query = spec.nodes_per_request as f64 * feature_row + weights;

        // Idle window: no load, so the server process's CPU is its
        // background work (the snapshot watcher's ticks).
        let pid = server.pid().ok_or("server process gone")?;
        let (cpu0, from) = (process_cpu_s(pid), Instant::now());
        std::thread::sleep(Duration::from_secs(1));
        if let (Some(c0), Some(c1)) = (cpu0, process_cpu_s(pid)) {
            out.idle_cpu_pct = (c1 - c0) / from.elapsed().as_secs_f64() * 100.0;
        }
    }

    let mut control = connect(server.port)?;
    let mut control_tally = Tally::default();
    let before = roundtrip(&mut control, "STATS").map_err(|e| e.to_string())?;
    let mut load = connect(server.port)?;

    let secs = |share: f64, parts: usize| Duration::from_secs_f64(seconds * share / parts as f64);
    let (&top, lower) = spec.ladder.split_last().ok_or("the ladder has no rungs")?;
    let mut plans = Vec::new();
    let last = segment + 1 == SEGMENTS;
    for _ in 0..ROUNDS / SEGMENTS {
        plans.push((Step::Reference, spec.ref_rate, secs(REF_SHARE, ROUNDS)));
        plans.push((Step::Rung, top, secs(TOP_SHARE, ROUNDS)));
    }
    if last {
        for &rate in lower {
            plans.push((Step::Rung, rate, secs(LADDER_SHARE, lower.len())));
        }
    }
    let planned: Vec<_> = plans
        .iter()
        .enumerate()
        .map(|(i, &(step, rate, window))| {
            let (schedule, nodes, bodies) = requests(
                spec,
                &zipf,
                rate,
                window,
                derive_seed(seed, (100 + segment * 1000 + i) as u64),
            );
            (step, rate, window, schedule, nodes, bodies)
        })
        .collect();

    let mut versions =
        vec![Version { weights: 0, written: Instant::now(), visible: Some(Instant::now()) }];
    let phases: Vec<Phase> = std::thread::scope(|scope| -> Result<Vec<Phase>, String> {
        let generator = scope.spawn(|| -> Result<Vec<Phase>, String> {
            let mut done = Vec::new();
            for (_, _, window, schedule, _, bodies) in &planned {
                let drain = Duration::from_secs(3);
                done.push(
                    loadgen::run_open_loop(&mut load, schedule, bodies, *window, drain)
                        .map_err(|e| e.to_string())?,
                );
            }
            Ok(done)
        });
        if let Some(period) = spec.swap_period {
            let mut next_write = Instant::now() + period;
            while !generator.is_finished() {
                std::thread::sleep(
                    next_write
                        .saturating_duration_since(Instant::now())
                        .min(Duration::from_millis(20)),
                );
                if Instant::now() < next_write || generator.is_finished() {
                    continue;
                }
                let weights = versions.len() % 2;
                let tag = versions.len() as u64 + 1;
                let snap = Snapshot { tag, export: snaps[weights].export.clone() };
                write_snapshot(path, &snap).map_err(|e| e.to_string())?;
                versions.push(Version { weights, written: Instant::now(), visible: None });
                next_write = Instant::now() + period;
                // Poll until the swap is visible (swaps land between batches,
                // so the load keeps batch boundaries coming).
                let want = format!("\"tag\":{tag},");
                while Instant::now() < next_write {
                    let reply = roundtrip(&mut control, "STATS").map_err(|e| e.to_string())?;
                    if reply.contains(&want) {
                        if let Some(v) = versions.last_mut() {
                            v.visible = Some(Instant::now());
                        }
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
        generator.join().map_err(|_| "generator thread panicked".to_string())?
    })?;

    // The last version must go live too: keep batches coming until it does.
    if versions.len() > 1 {
        let want = format!("\"tag\":{},", versions.len());
        let deadline = Instant::now() + Duration::from_secs(5);
        let probe_nodes = [0usize];
        loop {
            let reply = roundtrip(&mut control, "STATS").map_err(|e| e.to_string())?;
            if reply.contains(&want) {
                if let Some(v) = versions.last_mut() {
                    v.visible.get_or_insert_with(Instant::now);
                }
                break;
            }
            if Instant::now() > deadline {
                out.problems.push(format!("version {} never went live", versions.len()));
                break;
            }
            control_tally.sent += 1;
            let r = roundtrip(&mut control, "PREDICT 0").map_err(|e| e.to_string())?;
            control_tally.record(loadgen::classify(&r));
            if !tables.iter().any(|tb| matches(&r, &probe_nodes, tb)) {
                out.problems.push(format!("control PREDICT 0 answered {r:?}"));
            }
        }
    }
    let after = roundtrip(&mut control, "STATS").map_err(|e| e.to_string())?;
    for v in &versions[1..] {
        if let Some(vis) = v.visible {
            out.swap_visible_ms.push(vis.duration_since(v.written).as_secs_f64() * 1e3);
        }
    }

    // Reply checks against the versions live during each request.
    let mut load_tally = Tally::default();
    let mut mismatches = 0u64;
    for (phase, (_, _, _, _, nodes, _)) in phases.iter().zip(&planned) {
        load_tally.add(&phase.tally);
        for (s, ns) in phase.samples.iter().zip(nodes) {
            let (Some(sent), Some(recv)) = (s.sent_ns, s.recv_ns) else { continue };
            if !s.reply.starts_with("OK") {
                continue;
            }
            let sent_at = phase.start + Duration::from_nanos(sent);
            let recv_at = phase.start + Duration::from_nanos(recv);
            let live = versions.iter().enumerate().filter(|(j, v)| {
                let until = versions.get(j + 1).map(|n| n.visible.unwrap_or(recv_at));
                v.written <= recv_at && until.is_none_or(|u| u >= sent_at)
            });
            let ok = live.clone().any(|(_, v)| matches(&s.reply, ns, &tables[v.weights]));
            if !ok {
                mismatches += 1;
                if mismatches <= 3 {
                    let tags: Vec<usize> = live.map(|(j, _)| j + 1).collect();
                    out.problems.push(format!(
                        "reply {:?} matches no live version (tags {tags:?})",
                        s.reply
                    ));
                }
            }
        }
    }
    let mut all = load_tally;
    all.add(&control_tally);
    for (name, tally) in [("load", &load_tally), ("control", &control_tally)] {
        if !tally.conserved() {
            out.problems.push(format!("{name} connection broke conservation: {tally:?}"));
        }
    }
    let delta = |key: &str| -> Result<u64, String> { Ok(stat(&after, key)? - stat(&before, key)?) };
    let (served, swaps) = (delta("served")?, delta("swaps")?);
    out.served += served;
    out.shed += delta("shed")?;
    out.timeouts += delta("timeouts")?;
    out.degraded += delta("degraded")?;
    out.swaps += swaps;
    if served != all.ok {
        out.problems.push(format!("STATS served +{served} but the client saw {} OK", all.ok));
    }
    let written = versions.len() as u64 - 1;
    if swaps != written {
        out.problems.push(format!("{written} snapshot versions written but STATS swaps +{swaps}"));
    }
    out.attempted += all.sent;
    out.failed += all.not_ok() + mismatches;

    // Reference windows → latency; ladder → the highest rung that keeps
    // up, and the top rung's windows → goodput.
    let windows = |step: Step, rate: f64| {
        phases
            .iter()
            .zip(&planned)
            .filter(move |(_, p)| p.0 == step && p.1 == rate)
            .map(|(ph, _)| ph)
    };
    let (mut timed, mut span) = (Vec::new(), 0u64);
    for phase in windows(Step::Reference, spec.ref_rate) {
        for (s, ms) in phase.samples.iter().zip(phase.latencies_ms()) {
            timed.push((span + s.intended_ns, ms));
        }
        out.ref_lags.extend(phase.lags_ms());
        out.ref_backlog_end = out.ref_backlog_end.max(phase.backlog_end());
        span += phase.window_ns;
    }
    out.ref_medians.extend(
        stats::window_medians(&timed, span, ROUNDS / SEGMENTS)
            .ok_or("an empty reference window")?,
    );
    out.ref_latencies.extend(timed.iter().map(|&(_, ms)| ms));
    out.goodputs.extend(windows(Step::Rung, top).map(|phase| {
        let ok = phase
            .samples
            .iter()
            .filter(|s| {
                s.reply.starts_with("OK") && s.recv_ns.is_some_and(|r| r <= phase.window_ns)
            })
            .count();
        ok as f64 / (phase.window_ns as f64 / 1e9)
    }));
    if !last {
        return Ok(());
    }
    for &rate in &spec.ladder {
        let (mut lat, mut lag, mut growing, mut backlog) = (Vec::new(), Vec::new(), false, 0);
        for phase in windows(Step::Rung, rate) {
            lat.extend(phase.latencies_ms());
            lag.extend(phase.lags_ms());
            backlog = backlog.max(phase.backlog_end());
            growing |= phase.backlog_end() > (phase.samples.len() / 50).max(10);
        }
        let (lat, lag) = (stats::summarize(&lat), stats::summarize(&lag));
        let meets = lat.is_some_and(|l| l.tail <= spec.latency_limit_ms)
            && lag.is_some_and(|l| l.tail <= LAG_LIMIT_MS)
            && !growing;
        eprintln!(
            "perfbench: rung {rate:>7.0}/s: n={} p50={:.3} ms tail(p{})={:.3} ms lag tail={:.3} ms backlog_end={backlog} -> {}",
            lat.map_or(0, |l| l.n),
            lat.map_or(f64::NAN, |l| l.median),
            lat.map_or(f64::NAN, |l| l.tail_pct),
            lat.map_or(f64::NAN, |l| l.tail),
            lag.map_or(f64::NAN, |l| l.tail),
            if meets { "meets" } else { "misses" }
        );
        if meets {
            out.max_rate = out.max_rate.max(rate);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_matching_is_exact() {
        let table: Reference = vec![(1, "0.500000".into()), (0, "0.912345".into())];
        assert!(matches("OK 1:0:0.912345 0:1:0.500000", &[1, 0], &table));
        assert!(!matches("OK 1:0:0.912346 0:1:0.500000", &[1, 0], &table), "confidence differs");
        assert!(!matches("OK 1:0:0.912345", &[1, 0], &table), "missing node");
        assert!(!matches("OK 0:1:0.500000 1:0:0.912345", &[1, 0], &table), "order differs");
        assert!(!matches("SHED retry_after_ms=50", &[1], &table));
    }

    #[test]
    fn stats_counters_parse() {
        let r = "{\"generation\":3,\"tag\":7,\"served\":120,\"swaps\":2,\"last_degraded\":\"\"}";
        assert_eq!(stat(r, "served"), Ok(120));
        assert_eq!(stat(r, "swaps"), Ok(2));
        assert!(stat(r, "shed").is_err());
    }
}
