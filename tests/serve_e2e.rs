//! End-to-end subprocess tests for the serving stack (DESIGN.md §13):
//! the `amud snapshot` / `amud serve` CLI, the exit-code table extension
//! (9 snapshot, 10 deadline, 11 overload, 12 bad request), and the three
//! degradation paths the service guarantees:
//!
//! 1. a corrupt or truncated snapshot is rejected with a typed error
//!    (exit 9) — and a corrupt *hot-swap candidate* leaves the last-good
//!    engine serving;
//! 2. a past-deadline request gets a `TIMEOUT` reply without stalling
//!    the rest of its batch;
//! 3. queue overflow sheds with `retry_after_ms` while admitted requests
//!    complete.
//!
//! Every test runs the real binary (`CARGO_BIN_EXE_amud`) against a real
//! TCP socket; timing-sensitive paths are made deterministic with the
//! `--batch-delay-ms` admission hook (a queued request keeps its slot
//! while the batcher sleeps, so capacity-1 shedding is exact).

use amud_repro::serve::{synthetic_snapshot, write_snapshot};
use amud_repro::train::{corrupt_binary, truncate_binary};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("amud-serve-e2e-{}-{name}", std::process::id()))
}

/// Writes a valid synthetic snapshot and returns its path.
fn make_snapshot(name: &str, seed: u64) -> PathBuf {
    let path = scratch(&format!("{name}.snap"));
    write_snapshot(&path, &synthetic_snapshot(seed, 20, 4, 2, 2, 8, 0)).expect("write snapshot");
    path
}

/// An `amud serve` subprocess plus the port it reported on stdout.
struct ServerProc {
    child: Child,
    port: u16,
}

impl ServerProc {
    fn start(snapshot: &PathBuf, extra: &[&str]) -> ServerProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_amud"))
            .arg("serve")
            .arg("--snapshot")
            .arg(snapshot)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn amud serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        reader.read_line(&mut line).expect("read listening line");
        let port = line
            .trim()
            .rsplit(':')
            .next()
            .and_then(|p| p.parse().ok())
            .unwrap_or_else(|| panic!("no port in {line:?}"));
        ServerProc { child, port }
    }

    fn connect(&self) -> Client {
        Client::connect(self.port)
    }

    fn shutdown(mut self) {
        let _ = self.connect().roundtrip("SHUTDOWN");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    if !status.success() {
                        let mut err = String::new();
                        if let Some(mut stderr) = self.child.stderr.take() {
                            use std::io::Read;
                            let _ = stderr.read_to_string(&mut err);
                        }
                        panic!("server exited non-zero: {status}\nstderr: {err}");
                    }
                    return;
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => {
                    let _ = self.child.kill();
                    panic!("server did not exit after SHUTDOWN");
                }
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(port: u16) -> Client {
        let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
        Client { reader: BufReader::new(stream.try_clone().expect("clone")), writer: stream }
    }

    fn send(&mut self, cmd: &str) {
        writeln!(self.writer, "{cmd}").expect("send");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        line.trim().to_string()
    }

    fn roundtrip(&mut self, cmd: &str) -> String {
        self.send(cmd);
        self.recv()
    }
}

/// Polls `STATS` until `pred` matches (10s budget) and returns the line.
fn poll_stats(client: &mut Client, what: &str, pred: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.roundtrip("STATS");
        if pred(&stats) {
            return stats;
        }
        assert!(Instant::now() < deadline, "waiting for {what}; last STATS: {stats}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

// --- snapshot rejection (exit code 9) ------------------------------------

#[test]
fn corrupt_snapshot_is_rejected_with_exit_9() {
    let path = make_snapshot("corrupt-reject", 1);
    let bytes = std::fs::read(&path).expect("read snapshot");
    for seed in [1, 2, 3] {
        std::fs::write(&path, corrupt_binary(&bytes, seed, 4)).expect("write corrupt");
        let out = Command::new(env!("CARGO_BIN_EXE_amud"))
            .args(["serve", "--snapshot"])
            .arg(&path)
            .output()
            .expect("run amud serve");
        assert_eq!(
            out.status.code(),
            Some(9),
            "seed {seed}: stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("snapshot"),
            "error must name the snapshot"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_snapshot_is_rejected_with_exit_9() {
    let path = make_snapshot("truncate-reject", 2);
    let bytes = std::fs::read(&path).expect("read snapshot");
    for fraction in [0.0, 0.3, 0.7, 0.99] {
        std::fs::write(&path, truncate_binary(&bytes, fraction)).expect("write truncated");
        let out = Command::new(env!("CARGO_BIN_EXE_amud"))
            .args(["serve", "--snapshot"])
            .arg(&path)
            .output()
            .expect("run amud serve");
        assert_eq!(
            out.status.code(),
            Some(9),
            "fraction {fraction}: stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    std::fs::remove_file(&path).ok();
}

// --- the three degradation paths -----------------------------------------

#[test]
fn past_deadline_request_times_out_without_stalling_the_batch() {
    let path = make_snapshot("deadline", 3);
    let server = ServerProc::start(&path, &["--batch-delay-ms", "300"]);
    let mut c = server.connect();
    // Expired at pop time → TIMEOUT reply, no inference, no stall.
    let reply = c.roundtrip("PREDICT 0 DEADLINE 1");
    assert!(reply.starts_with("TIMEOUT waited_ms="), "{reply}");
    // The next request (default deadline) is served normally.
    let reply = c.roundtrip("PREDICT 0 1 2");
    assert!(reply.starts_with("OK "), "{reply}");
    let stats = c.roundtrip("STATS");
    assert!(stats.contains("\"timeouts\":1"), "{stats}");
    assert!(stats.contains("\"served\":1"), "{stats}");
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn queue_overflow_sheds_while_the_admitted_request_completes() {
    let path = make_snapshot("overload", 4);
    let server = ServerProc::start(&path, &["--queue-capacity", "1", "--batch-delay-ms", "700"]);
    let mut first = server.connect();
    let mut second = server.connect();
    // First request takes the only queue slot; the batcher holds it there
    // for 700ms (wait_nonempty does not pop), so the second request is
    // deterministically shed.
    first.send("PREDICT 0");
    std::thread::sleep(Duration::from_millis(200));
    let shed = second.roundtrip("PREDICT 1");
    assert!(shed.starts_with("SHED retry_after_ms="), "{shed}");
    // The admitted request still completes.
    let reply = first.recv();
    assert!(reply.starts_with("OK "), "{reply}");
    let stats = second.roundtrip("STATS");
    assert!(stats.contains("\"shed\":1"), "{stats}");
    assert!(stats.contains("\"served\":1"), "{stats}");
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_hot_swap_candidate_degrades_while_last_good_serves() {
    let path = make_snapshot("hotswap", 5);
    let server = ServerProc::start(&path, &["--watch-interval-ms", "10"]);
    let mut c = server.connect();
    assert!(c.roundtrip("PREDICT 0").starts_with("OK "));

    // Corrupt candidate: watcher must reject it and keep last-good.
    std::fs::write(&path, b"definitely not a snapshot").expect("write garbage");
    poll_stats(&mut c, "degraded counter", |s| s.contains("\"degraded\":1"));
    assert!(c.roundtrip("PREDICT 1").starts_with("OK "), "last-good must keep serving");
    let health = c.roundtrip("HEALTH");
    assert!(health.contains("degraded_total=1"), "{health}");
    assert!(health.contains("tag=5"), "engine must still be the original: {health}");

    // A valid successor (tag 99) swaps in between batches.
    write_snapshot(&path, &synthetic_snapshot(99, 20, 4, 2, 2, 8, 0)).expect("write v2");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = c.roundtrip("STATS");
        if stats.contains("\"tag\":99") {
            assert!(stats.contains("\"swaps\":1"), "{stats}");
            break;
        }
        assert!(Instant::now() < deadline, "candidate never swapped in: {stats}");
        assert!(c.roundtrip("PREDICT 2").starts_with("OK "));
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

// --- protocol errors ------------------------------------------------------

#[test]
fn bad_requests_are_rejected_in_band_with_exit_code_12() {
    let path = make_snapshot("badreq", 6);
    let server = ServerProc::start(&path, &[]);
    let mut c = server.connect();
    // Out-of-range node, malformed id, empty request, unknown command:
    // all answered in-band with the BadRequest code, connection stays up.
    assert!(c.roundtrip("PREDICT 9999").starts_with("ERR 12 "));
    assert!(c.roundtrip("PREDICT zero").starts_with("ERR 12 "));
    assert!(c.roundtrip("PREDICT").starts_with("ERR 12 "));
    assert!(c.roundtrip("FROBNICATE").starts_with("ERR 12 "));
    assert!(c.roundtrip("PREDICT 3").starts_with("OK "), "connection must survive bad requests");
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

// --- trained-model path ----------------------------------------------------

#[test]
fn snapshot_cli_trains_and_the_artifact_serves_predictions() {
    let path = scratch("trained.snap");
    let out = Command::new(env!("CARGO_BIN_EXE_amud"))
        .args(["snapshot", "texas", "--out"])
        .arg(&path)
        .args(["--tag", "7"])
        .env("AMUD_SCALE", "tiny")
        .env("AMUD_EPOCHS", "5")
        .output()
        .expect("run amud snapshot");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}\nstdout: {}",
        String::from_utf8_lossy(&out.stderr),
        String::from_utf8_lossy(&out.stdout)
    );
    let server = ServerProc::start(&path, &[]);
    let mut c = server.connect();
    let reply = c.roundtrip("PREDICT 0 1 2 3");
    assert!(reply.starts_with("OK "), "{reply}");
    assert_eq!(reply.split_whitespace().count(), 5, "4 predictions expected: {reply}");
    let health = c.roundtrip("HEALTH");
    assert!(health.contains("tag=7"), "{health}");
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Quantized-artifact e2e (run by `ci.sh` via the `ci_smoke` filter):
/// requantize the synthetic snapshot to the mixed int8-features /
/// f32-weights spec, serve it from disk through a real subprocess, and pin
/// every wire reply to the in-process `Engine` on the same artifact.
#[test]
fn ci_smoke_quantized_snapshot_serves() {
    use amud_repro::quant::QuantSpec;
    use amud_repro::serve::{read_snapshot, Engine};

    let spec = QuantSpec::parse("int8:f32").expect("spec");
    let snap = synthetic_snapshot(13, 20, 4, 2, 2, 8, 0).requantized(spec);
    let path = scratch("ci-smoke-quant.snap");
    write_snapshot(&path, &snap).expect("write quantized snapshot");

    // The artifact on disk is genuinely quantized, not silently widened.
    let back = read_snapshot(&path).expect("re-read quantized snapshot");
    assert_eq!(back.export.spec(), spec, "on-disk spec must survive the round trip");
    let engine = Engine::new(back).expect("engine from quantized snapshot");

    let server = ServerProc::start(&path, &[]);
    let mut c = server.connect();
    for node in [0usize, 5, 19] {
        let reply = c.roundtrip(&format!("PREDICT {node}"));
        assert!(reply.starts_with("OK "), "{reply}");
        // Reply format: `OK <node>:<class>:<conf>` — pin the whole triple
        // against the in-process engine on the same quantized artifact.
        let p = &engine.predict(&[node]).expect("in-process predict")[0];
        let want = format!("OK {}:{}:{:.6}", p.node, p.class, p.confidence);
        assert_eq!(reply, want, "node {node}: wire reply diverged from in-process engine");
    }
    let health = c.roundtrip("HEALTH");
    assert!(health.contains("tag=13"), "{health}");
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

// --- CI smoke -------------------------------------------------------------

/// The one test `ci.sh` runs by name: spawn a server, issue a normal
/// request, a past-deadline request, and a request during a hot swap,
/// then assert every counter moved. Small, deterministic, end-to-end.
#[test]
fn ci_smoke() {
    let path = make_snapshot("ci-smoke", 8);
    let server =
        ServerProc::start(&path, &["--watch-interval-ms", "10", "--default-deadline-ms", "5000"]);
    let mut c = server.connect();

    // Normal requests.
    for node in [0, 5, 19] {
        let reply = c.roundtrip(&format!("PREDICT {node}"));
        assert!(reply.starts_with("OK "), "{reply}");
    }
    // Past-deadline request.
    assert!(c.roundtrip("PREDICT 1 DEADLINE 0").starts_with("TIMEOUT"));

    // Hot swap: corrupt candidate first (degraded), then a valid one.
    std::fs::write(&path, b"garbage").expect("write garbage");
    poll_stats(&mut c, "degraded", |s| s.contains("\"degraded\":1"));
    assert!(c.roundtrip("PREDICT 2").starts_with("OK "), "request during degradation");
    write_snapshot(&path, &synthetic_snapshot(42, 20, 4, 2, 2, 8, 0)).expect("write v2");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = c.roundtrip("STATS");
        if stats.contains("\"tag\":42") {
            break;
        }
        assert!(Instant::now() < deadline, "swap never landed: {stats}");
        assert!(c.roundtrip("PREDICT 3").starts_with("OK "), "request during hot swap");
        std::thread::sleep(Duration::from_millis(20));
    }

    let stats = c.roundtrip("STATS");
    for needle in ["\"timeouts\":1", "\"degraded\":1", "\"swaps\":1"] {
        assert!(stats.contains(needle), "missing {needle}: {stats}");
    }
    assert!(!stats.contains("\"served\":0,"), "served counter must move: {stats}");
    server.shutdown();
    std::fs::remove_file(&path).ok();
}
