//! `bench-serve` — steady-load latency harness for `amud-serve`.
//!
//! Starts an in-process server on a synthetic snapshot and drives it with
//! Zipf-skewed node popularity (a few nodes take most of the queries, the
//! long tail takes the rest), one request at a time so every latency
//! sample is a clean round-trip. The server runs with `batch_delay_ms: 0`,
//! so latency and QPS time the real serving path rather than a test sleep.
//!
//! Results (p50/p99 latency, QPS, served counter, snapshot size) go to
//! `BENCH_serve.json`. Exit code 1 if a request fails or the server's
//! `served` counter disagrees with the requests sent. The fault paths
//! (overload shedding, deadline misses, corrupt hot-swap candidates, slow
//! clients) are pinned by the `amud-serve` server unit tests and
//! `tests/serve_e2e.rs`.
//!
//! ```text
//! cargo run --release -p amud-bench --bin bench-serve             # full load
//! cargo run --release -p amud-bench --bin bench-serve -- --smoke  # CI-sized
//! cargo run --release -p amud-bench --bin bench-serve -- --out s.json
//! ```

use amud_bench::{bench_args, BenchArgs};
use amud_serve::{synthetic_snapshot, write_snapshot, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Instant;

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

fn main() {
    let BenchArgs { smoke, out: out_path, .. } = bench_args("BENCH_serve.json", false);

    let n_nodes = if smoke { 300 } else { 5_000 };
    let n_requests = if smoke { 400 } else { 5_000 };

    let snap_path: PathBuf =
        std::env::temp_dir().join(format!("amud-bench-serve-{}.snap", std::process::id()));
    let snapshot = synthetic_snapshot(1, n_nodes, 16, 3, 2, 32, 0);
    let snapshot_bytes =
        write_snapshot(&snap_path, &snapshot).unwrap_or_else(|e| fail(&e.to_string()));
    // What a single-node row-gather walks: one row of each feature
    // tensor. Denominator is nodes, numerator the resident feature bytes.
    let bytes_per_query = snapshot.export.feature_bytes() / n_nodes;

    let cfg = ServerConfig {
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
    let server = Server::start(cfg).unwrap_or_else(|e| fail(&e.to_string()));
    println!(
        "bench-serve: n_nodes={n_nodes} n_requests={n_requests}{}",
        if smoke { " (smoke)" } else { "" }
    );

    // Steady Zipf-skewed load, one clean round-trip per sample.
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
    let served = server.stats().served;
    server.stop();
    std::fs::remove_file(&snap_path).ok();

    println!("counters: served={served}");
    println!("artifact: snapshot_bytes={snapshot_bytes} bytes_per_query={bytes_per_query}");

    // Machine-readable JSON (hand-rendered: std-only workspace).
    let json = format!(
        "{{\n  \"smoke\": {smoke},\n  \"n_nodes\": {n_nodes},\n  \"n_requests\": {n_requests},\n  \
         \"zipf_s\": 1.0,\n  \"steady_wall_s\": {steady_wall:.3},\n  \"qps\": {qps:.1},\n  \
         \"p50_us\": {p50_us},\n  \"p99_us\": {p99_us},\n  \
         \"snapshot_bytes\": {snapshot_bytes},\n  \"bytes_per_query\": {bytes_per_query},\n  \
         \"served\": {served}\n}}\n"
    );
    if let Err(e) = std::fs::write(&out_path, json) {
        fail(&format!("cannot write {out_path}: {e}"));
    }
    println!("wrote {out_path}");

    // Gate: the server counted every request the load sent.
    if served != n_requests as u64 {
        fail(&format!("server counted {served} served requests, {n_requests} were sent"));
    }
}
