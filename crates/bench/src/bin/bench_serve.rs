//! `bench-serve` — load generator and fault harness for `amud-serve`.
//!
//! Starts in-process servers on a synthetic snapshot and drives them
//! through the whole robustness surface in one run:
//!
//! 1. **steady load** — Zipf-skewed node popularity (a few nodes take
//!    most of the queries, the long tail takes the rest), one request at
//!    a time so every latency sample is a clean round-trip. This is the
//!    only timed phase, and it runs on its own server with
//!    `batch_delay_ms: 0`, so its latency and QPS time the real serving
//!    path rather than a test sleep;
//! 2. **overload burst** — concurrent clients slam the bounded queue and
//!    some of them must be shed with `retry_after_ms`;
//! 3. **deadline miss** — a `DEADLINE 0` request must come back as a
//!    `TIMEOUT` line, not a hang;
//! 4. **corrupt snapshot mid-run** — garbage is written over the watched
//!    snapshot file; the server must count a degradation and keep
//!    answering from last-good, then hot-swap a subsequent valid version;
//! 5. **slow client** — a connection that trickles half a request and
//!    stalls must be disconnected by the read timeout without affecting
//!    other clients.
//!
//! Phases 2–5 run on a second server started after the first has
//! stopped. It keeps the `batch_delay_ms: 2` hook, which holds admitted
//! requests in their queue slots long enough for shedding and deadline
//! misses to be deterministic.
//!
//! Results (p50/p99 latency, QPS, shed/timeout/degraded/swap counters)
//! go to `BENCH_serve.json`; `served` sums both servers. Exit code 1 if
//! any phase fails its gate.
//!
//! ```text
//! cargo run --release -p amud-bench --bin bench-serve             # full load
//! cargo run --release -p amud-bench --bin bench-serve -- --smoke  # CI-sized
//! cargo run --release -p amud-bench --bin bench-serve -- --out s.json
//! ```

use amud_bench::{bench_args, BenchArgs};
use amud_par::spawn_service;
use amud_serve::{synthetic_snapshot, write_snapshot, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(port: u16) -> std::io::Result<Client> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        Ok(Client { reader: BufReader::new(stream.try_clone()?), writer: stream })
    }

    fn roundtrip(&mut self, cmd: &str) -> std::io::Result<String> {
        writeln!(self.writer, "{cmd}")?;
        self.writer.flush()?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        Ok(line.trim().to_string())
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Zipf(s=1) sampler over `0..n` via inverse CDF on precomputed
/// cumulative weights — node 0 is the hottest, the tail is long.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / (i + 1) as f64;
            cdf.push(acc);
        }
        Zipf { cdf }
    }

    fn sample(&self, state: &mut u64) -> usize {
        let total = match self.cdf.last() {
            Some(&t) => t,
            None => return 0,
        };
        let u = (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64 * total;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let ix = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[ix.min(sorted_us.len() - 1)]
}

/// Polls `STATS` until `pred` matches or the deadline passes.
fn poll_stats(client: &mut Client, what: &str, pred: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.roundtrip("STATS").unwrap_or_else(|e| fail(&e.to_string()));
        if pred(&stats) {
            return stats;
        }
        if Instant::now() > deadline {
            fail(&format!("timed out waiting for {what}; last STATS: {stats}"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn main() {
    let BenchArgs { smoke, out: out_path, .. } = bench_args("BENCH_serve.json", false);

    let n_nodes = if smoke { 300 } else { 5_000 };
    let n_requests = if smoke { 400 } else { 5_000 };
    let burst = if smoke { 24 } else { 64 };

    let snap_path: PathBuf =
        std::env::temp_dir().join(format!("amud-bench-serve-{}.snap", std::process::id()));
    let snapshot = synthetic_snapshot(1, n_nodes, 16, 3, 2, 32, 0);
    let snapshot_bytes;
    let snapshot_v2 = {
        // Pre-encode the hot-swap candidate so the mid-run swap is one
        // atomic write.
        snapshot_bytes =
            write_snapshot(&snap_path, &snapshot).unwrap_or_else(|e| fail(&e.to_string()));
        synthetic_snapshot(2, n_nodes, 16, 3, 2, 32, 0)
    };
    // What a single-node row-gather walks: one row of each feature
    // tensor. Denominator is nodes, numerator the resident feature bytes.
    let bytes_per_query = snapshot.export.feature_bytes() / n_nodes;

    let steady_cfg = ServerConfig {
        snapshot_path: snap_path.clone(),
        queue_capacity: 4,
        max_batch: 8,
        max_connections: 256,
        default_deadline_ms: 10_000,
        watch_interval_ms: 10,
        batch_delay_ms: 0,
        client_read_timeout_ms: 200,
        ..Default::default()
    };
    let fault_cfg = ServerConfig { batch_delay_ms: 2, ..steady_cfg.clone() };
    let server = Server::start(steady_cfg).unwrap_or_else(|e| fail(&e.to_string()));
    println!(
        "bench-serve: n_nodes={n_nodes} n_requests={n_requests} burst={burst}{}",
        if smoke { " (smoke)" } else { "" }
    );

    // -- Phase 1: steady Zipf-skewed load, one clean round-trip per sample.
    let zipf = Zipf::new(n_nodes);
    let mut state = 42u64;
    let mut client = Client::connect(server.port()).unwrap_or_else(|e| fail(&e.to_string()));
    let mut latencies_us: Vec<u64> = Vec::with_capacity(n_requests);
    let t0 = Instant::now();
    for _ in 0..n_requests {
        let node = zipf.sample(&mut state);
        let t = Instant::now();
        let reply =
            client.roundtrip(&format!("PREDICT {node}")).unwrap_or_else(|e| fail(&e.to_string()));
        if !reply.starts_with("OK ") {
            fail(&format!("steady-load request failed: {reply}"));
        }
        latencies_us.push(t.elapsed().as_micros() as u64);
    }
    let steady_wall = t0.elapsed().as_secs_f64();
    let qps = n_requests as f64 / steady_wall;
    latencies_us.sort_unstable();
    let p50_us = percentile(&latencies_us, 0.50);
    let p99_us = percentile(&latencies_us, 0.99);
    println!("steady:   {n_requests} requests in {steady_wall:.2}s — {qps:.0} QPS, p50 {p50_us}us, p99 {p99_us}us");
    drop(client);
    let steady_served = server.stats().served;
    server.stop();

    // -- Phases 2-5 run on a fresh server that keeps the batch-delay hook.
    let server = Server::start(fault_cfg).unwrap_or_else(|e| fail(&e.to_string()));
    let port = server.port();
    let mut client = Client::connect(port).unwrap_or_else(|e| fail(&e.to_string()));

    // -- Phase 2: overload burst — concurrent clients vs a 4-slot queue.
    let handles: Vec<_> = (0..burst)
        .map(|i| {
            spawn_service("bench-serve-burst", move || {
                let mut c = Client::connect(port).ok()?;
                c.roundtrip(&format!("PREDICT {}", i % 8)).ok()
            })
            .unwrap_or_else(|e| fail(&format!("spawn burst client: {e}")))
        })
        .collect();
    let mut burst_ok = 0u64;
    let mut burst_shed = 0u64;
    for h in handles {
        match h.join().as_deref() {
            Some(r) if r.starts_with("OK ") => burst_ok += 1,
            Some(r) if r.starts_with("SHED ") => burst_shed += 1,
            Some(r) if r.starts_with("BUSY ") => burst_shed += 1,
            other => fail(&format!("burst client got {other:?}")),
        }
    }
    println!("burst:    {burst} concurrent — {burst_ok} served, {burst_shed} shed");
    if burst_ok == 0 {
        fail("overload burst: no request was served");
    }

    // -- Phase 3: deadline miss must be a TIMEOUT line, not a hang.
    let reply = client.roundtrip("PREDICT 0 DEADLINE 0").unwrap_or_else(|e| fail(&e.to_string()));
    if !reply.starts_with("TIMEOUT") {
        fail(&format!("DEADLINE 0 expected TIMEOUT, got {reply}"));
    }
    println!("deadline: {reply}");

    // -- Phase 4: corrupt the watched snapshot mid-run, then hot-swap a
    // valid successor.
    std::fs::write(&snap_path, b"not a snapshot at all").unwrap_or_else(|e| fail(&e.to_string()));
    poll_stats(&mut client, "degraded counter", |s| !s.contains("\"degraded\":0,"));
    let reply = client.roundtrip("PREDICT 1").unwrap_or_else(|e| fail(&e.to_string()));
    if !reply.starts_with("OK ") {
        fail(&format!("last-good engine stopped serving after corrupt candidate: {reply}"));
    }
    write_snapshot(&snap_path, &snapshot_v2).unwrap_or_else(|e| fail(&e.to_string()));
    // Traffic gives the batcher batch boundaries to swap between.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.roundtrip("STATS").unwrap_or_else(|e| fail(&e.to_string()));
        if stats.contains("\"tag\":2") {
            break;
        }
        if Instant::now() > deadline {
            fail(&format!("valid candidate never swapped in: {stats}"));
        }
        let _ = client.roundtrip("PREDICT 2").unwrap_or_else(|e| fail(&e.to_string()));
        std::thread::sleep(Duration::from_millis(5));
    }
    println!("hot-swap: corrupt candidate degraded, valid tag 2 swapped in");

    // -- Phase 5: a slow client trickles and stalls; the read timeout
    // must disconnect it while other clients keep working.
    let slow = TcpStream::connect(("127.0.0.1", port)).unwrap_or_else(|e| fail(&e.to_string()));
    {
        let mut w = &slow;
        let _ = w.write_all(b"PRED"); // half a command, never finished
        let _ = w.flush();
    }
    std::thread::sleep(Duration::from_millis(400)); // > client_read_timeout_ms
    let reply = client.roundtrip("PREDICT 3").unwrap_or_else(|e| fail(&e.to_string()));
    if !reply.starts_with("OK ") {
        fail(&format!("server wedged by slow client: {reply}"));
    }
    drop(slow);
    println!("slow:     trickling client disconnected, service unaffected");

    let mut stats = server.stats();
    stats.served += steady_served;
    server.stop();
    std::fs::remove_file(&snap_path).ok();

    println!(
        "counters: served={} shed={} timeouts={} degraded={} swaps={}",
        stats.served, stats.shed, stats.timeouts, stats.degraded, stats.swaps
    );
    println!("artifact: snapshot_bytes={snapshot_bytes} bytes_per_query={bytes_per_query}");

    // Machine-readable JSON (hand-rendered: std-only workspace).
    let json = format!(
        "{{\n  \"smoke\": {smoke},\n  \"n_nodes\": {n_nodes},\n  \"n_requests\": {n_requests},\n  \
         \"zipf_s\": 1.0,\n  \"steady_wall_s\": {steady_wall:.3},\n  \"qps\": {qps:.1},\n  \
         \"p50_us\": {p50_us},\n  \"p99_us\": {p99_us},\n  \"burst_clients\": {burst},\n  \
         \"burst_served\": {burst_ok},\n  \"burst_shed\": {burst_shed},\n  \
         \"snapshot_bytes\": {snapshot_bytes},\n  \"bytes_per_query\": {bytes_per_query},\n  \
         \"served\": {},\n  \"shed\": {},\n  \"timeouts\": {},\n  \"degraded\": {},\n  \
         \"swaps\": {}\n}}\n",
        stats.served, stats.shed, stats.timeouts, stats.degraded, stats.swaps
    );
    if let Err(e) = std::fs::write(&out_path, json) {
        fail(&format!("cannot write {out_path}: {e}"));
    }
    println!("wrote {out_path}");

    // Gates: every robustness phase must have left its trace.
    if stats.served == 0 || stats.timeouts == 0 || stats.degraded == 0 || stats.swaps == 0 {
        fail(&format!("a phase left no trace in the counters: {stats:?}"));
    }
}
