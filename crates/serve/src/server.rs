//! The TCP serving loop: admission, deadlines, batching, hot swap
//! (DESIGN.md §13.3–§13.4).
//!
//! ## Thread layout (all via [`amud_par::spawn_service`])
//!
//! * **accept** — owns the listener; enforces the connection budget
//!   (beyond it, clients get `BUSY retry_after_ms=…` and are closed).
//! * **one handler per connection** — parses the line protocol, admits
//!   `PREDICT`s into the bounded [`AdmissionQueue`], and relays the
//!   batcher's reply. A read timeout disconnects slow clients, so a
//!   trickling peer can hold a connection slot but never a buffer.
//! * **batcher** — the only thread that runs inference. It waits for
//!   work, drains up to `max_batch` requests, answers the expired ones
//!   with `TIMEOUT` (a late request never stalls the live ones), merges
//!   the rest into one engine call, and fans the rows back out. Engine
//!   swaps happen here, strictly *between* batches.
//! * **watcher** — polls the snapshot path. It reads the file only when
//!   its `(len, mtime, inode)` stamp changed or its mtime is under 2 s
//!   old. When the bytes' fingerprint changes it validates the candidate
//!   end-to-end (parse, seals, shape check) and stages it for the
//!   batcher. A candidate that fails validation bumps the `degraded`
//!   counter and the server keeps answering from the last-good engine —
//!   graceful degradation, observable via `STATS` / `HEALTH`.
//!
//! ## Protocol (text lines over TCP)
//!
//! ```text
//! PREDICT <node> [<node>…] [DEADLINE <ms>]   → OK <node>:<class>:<conf> …
//!                                            | TIMEOUT waited_ms=<n>
//!                                            | SHED retry_after_ms=<n>
//!                                            | ERR <exit_code> <message>
//! STATS                                      → one-line JSON counters
//! HEALTH                                     → OK generation=… tag=… degraded_total=…
//! SHUTDOWN                                   → OK shutting-down (server exits)
//! QUIT                                       → closes the connection
//! ```

use crate::engine::Engine;
use crate::error::{ServeError, SnapshotError};
use crate::queue::{AdmissionQueue, Reply, Request};
use crate::snapshot::{decode_snapshot, Snapshot};
use amud_cache::fingerprint_bytes;
use amud_par::{spawn_service, ServiceHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant, SystemTime};

/// Everything tunable about one server instance. Defaults are sized for
/// the replica-scale models this repo trains; tests shrink the queue and
/// inflate `batch_delay_ms` to make shedding and deadline misses
/// deterministic.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The snapshot artifact to serve (and to watch for hot swaps).
    pub snapshot_path: PathBuf,
    /// TCP port to bind on 127.0.0.1; `0` picks an ephemeral port
    /// (reported by [`Server::port`] and on stdout by the CLI).
    pub port: u16,
    /// Admission queue capacity; beyond it, requests are shed.
    pub queue_capacity: usize,
    /// Upper bound on requests merged into one engine call.
    pub max_batch: usize,
    /// Connection budget; beyond it, connections get `BUSY` and close.
    pub max_connections: usize,
    /// Deadline applied to `PREDICT`s that do not carry one.
    pub default_deadline_ms: u64,
    /// Snapshot watcher poll interval.
    pub watch_interval_ms: u64,
    /// Test hook: sleep this long between the batcher's wake-up and its
    /// drain, simulating slow inference (admitted requests keep their
    /// queue slots for the duration, so overload tests are exact).
    pub batch_delay_ms: u64,
    /// Attempts for the *initial* snapshot load (transient I/O errors
    /// only; content errors fail fast).
    pub load_retries: u32,
    /// Base backoff between initial-load attempts, doubled per retry.
    pub load_backoff_ms: u64,
    /// Per-connection read timeout; slow clients are disconnected.
    pub client_read_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            snapshot_path: PathBuf::from("model.snap"),
            port: 0,
            queue_capacity: 64,
            max_batch: 16,
            max_connections: 32,
            default_deadline_ms: 1_000,
            watch_interval_ms: 50,
            batch_delay_ms: 0,
            load_retries: 3,
            load_backoff_ms: 20,
            client_read_timeout_ms: 5_000,
        }
    }
}

/// Monotonic service counters, reported by `STATS`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Requests answered with predictions.
    pub served: u64,
    /// Requests shed (queue full) or connections rejected (budget full).
    pub shed: u64,
    /// Requests answered with `TIMEOUT`.
    pub timeouts: u64,
    /// Hot-swap candidates rejected by validation (served from last-good).
    pub degraded: u64,
    /// Successful engine swaps.
    pub swaps: u64,
}

struct State {
    engine: Arc<Engine>,
    /// A validated candidate engine, installed by the batcher between
    /// batches.
    staged: Option<Arc<Engine>>,
    /// Bumped on every successful swap; starts at 1.
    generation: u64,
    stats: Stats,
    /// Rendered error of the most recent rejected swap candidate.
    last_degraded: Option<String>,
    shutdown: bool,
    active_conns: usize,
}

struct Shared {
    cfg: ServerConfig,
    queue: AdmissionQueue,
    state: Mutex<State>,
    port: u16,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn retry_after_ms(&self) -> u64 {
        // If the batcher is artificially slowed, tell clients to come
        // back after roughly one batch; otherwise a small constant.
        self.cfg.batch_delay_ms.max(50)
    }
}

/// A running server. Dropping the handle does **not** stop it; call
/// [`Server::stop`] (tests) or [`Server::wait`] (CLI).
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<ServiceHandle<()>>,
    batcher: Option<ServiceHandle<()>>,
    watcher: Option<ServiceHandle<()>>,
}

/// Loads the snapshot with bounded retry + exponential backoff on
/// *transient* errors (a file mid-replacement, a racing writer). Content
/// errors — bad magic, seal mismatch, malformed shapes — are permanent
/// and returned immediately. Also returns the byte fingerprint, which
/// seeds the watcher's change detection.
fn load_with_retry(cfg: &ServerConfig) -> Result<(Snapshot, u64), ServeError> {
    let mut backoff = cfg.load_backoff_ms;
    let mut attempt = 0;
    loop {
        attempt += 1;
        let r = std::fs::read(&cfg.snapshot_path)
            .map_err(|e| SnapshotError::Io { op: "read", message: e.to_string() })
            .and_then(|bytes| {
                let fp = fingerprint_bytes(&bytes);
                decode_snapshot(&bytes).map(|s| (s, fp))
            });
        match r {
            Ok(ok) => return Ok(ok),
            Err(e) if e.is_transient() && attempt <= cfg.load_retries => {
                std::thread::sleep(Duration::from_millis(backoff));
                backoff = backoff.saturating_mul(2);
            }
            Err(e) => return Err(e.into()),
        }
    }
}

impl Server {
    /// Loads + validates the snapshot (with retry/backoff on transient
    /// I/O), binds the listener, and spawns the service threads. On
    /// success the server is accepting; the chosen port is
    /// [`Server::port`].
    pub fn start(cfg: ServerConfig) -> Result<Server, ServeError> {
        let (snapshot, fp) = load_with_retry(&cfg)?;
        let engine = Engine::new(snapshot)?;
        let listener =
            TcpListener::bind(("127.0.0.1", cfg.port)).map_err(|e| ServeError::io("bind", &e))?;
        let port = listener.local_addr().map_err(|e| ServeError::io("local_addr", &e))?.port();

        #[allow(
            clippy::disallowed_methods,
            reason = "the server's shared state: engine, staged swap, stats and shutdown flag"
        )]
        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(cfg.queue_capacity),
            state: Mutex::new(State {
                engine: Arc::new(engine),
                staged: None,
                generation: 1,
                stats: Stats::default(),
                last_degraded: None,
                shutdown: false,
                active_conns: 0,
            }),
            port,
            cfg,
        });

        let accept = {
            let shared = Arc::clone(&shared);
            spawn_service("amud-serve-accept", move || accept_loop(listener, &shared))
                .map_err(|e| ServeError::io("spawn", &e))?
        };
        let batcher = {
            let shared = Arc::clone(&shared);
            spawn_service("amud-serve-batch", move || batcher_loop(&shared))
                .map_err(|e| ServeError::io("spawn", &e))?
        };
        let watcher = {
            let shared = Arc::clone(&shared);
            spawn_service("amud-serve-watch", move || watcher_loop(&shared, fp))
                .map_err(|e| ServeError::io("spawn", &e))?
        };

        Ok(Server { shared, accept: Some(accept), batcher: Some(batcher), watcher: Some(watcher) })
    }

    /// The bound port on 127.0.0.1.
    pub fn port(&self) -> u16 {
        self.shared.port
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> Stats {
        self.shared.lock().stats
    }

    /// Blocks until the server shuts down (via the `SHUTDOWN` command or
    /// [`Server::stop`] from another thread), then joins every service
    /// thread.
    pub fn wait(mut self) {
        self.join_all();
    }

    /// Initiates shutdown and joins the service threads: in-flight
    /// requests are drained with a shed reply, new connections stop being
    /// accepted.
    pub fn stop(mut self) {
        request_shutdown(&self.shared);
        self.join_all();
    }

    fn join_all(&mut self) {
        if let Some(h) = self.accept.take() {
            h.join();
        }
        if let Some(h) = self.batcher.take() {
            h.join();
        }
        if let Some(h) = self.watcher.take() {
            h.join();
        }
    }
}

/// Flags shutdown and pokes the accept loop awake with a throwaway
/// connection so it observes the flag promptly.
fn request_shutdown(shared: &Shared) {
    shared.lock().shutdown = true;
    let _ = TcpStream::connect(("127.0.0.1", shared.port));
}

// ---------------------------------------------------------------------
// Accept loop
// ---------------------------------------------------------------------

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.lock().shutdown {
            break;
        }
        let Ok(stream) = stream else { continue };
        let admitted = {
            let mut st = shared.lock();
            if st.active_conns >= shared.cfg.max_connections {
                st.stats.shed += 1;
                false
            } else {
                st.active_conns += 1;
                true
            }
        };
        if !admitted {
            let mut s = stream;
            let _ = writeln!(s, "BUSY retry_after_ms={}", shared.retry_after_ms());
            continue;
        }
        let shared2 = Arc::clone(shared);
        let spawned = spawn_service("amud-serve-conn", move || {
            handle_connection(stream, &shared2);
        });
        if spawned.is_err() {
            // Could not spawn a handler (fd/thread exhaustion): release
            // the slot; the client sees a closed connection.
            shared.lock().active_conns -= 1;
        }
    }
}

// ---------------------------------------------------------------------
// Connection handler
// ---------------------------------------------------------------------

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    // Replies are one small line each — without TCP_NODELAY, Nagle +
    // delayed ACK turn every round-trip into a ~40–90 ms stall.
    let _ = stream.set_nodelay(true);
    let _ = stream
        .set_read_timeout(Some(Duration::from_millis(shared.cfg.client_read_timeout_ms.max(1))));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => {
            shared.lock().active_conns -= 1;
            return;
        }
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        // The read timeout distinguishes two kinds of quiet peer:
        // *idle* (no bytes of a command yet — fine, keep waiting, a
        // connection between requests is healthy) and *trickling* (a
        // command started but never finished — the slow-client fault
        // mode, disconnected so it can hold a connection slot but never
        // a buffer or a handler). `read_line` appends whatever was read
        // before the timeout, so `line` tells them apart.
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) if !line.is_empty() => break,
            Ok(0) => break,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.lock().shutdown {
                    break;
                }
                continue;
            }
            Err(_) => break,
            Ok(_) => {}
        }
        let cmd = line.trim();
        if cmd.is_empty() {
            continue;
        }
        let (reply, close) = process_command(cmd, shared);
        if writeln!(writer, "{reply}").and_then(|()| writer.flush()).is_err() {
            break;
        }
        if close {
            break;
        }
    }
    shared.lock().active_conns -= 1;
}

/// Executes one protocol line; returns the reply and whether to close.
fn process_command(cmd: &str, shared: &Arc<Shared>) -> (String, bool) {
    let mut parts = cmd.split_whitespace();
    match parts.next() {
        Some("PREDICT") => (handle_predict(parts, shared), false),
        Some("STATS") => (render_stats(shared), false),
        Some("HEALTH") => (render_health(shared), false),
        Some("QUIT") => ("BYE".to_string(), true),
        Some("SHUTDOWN") => {
            request_shutdown(shared);
            ("OK shutting-down".to_string(), true)
        }
        _ => {
            let e = ServeError::bad_request(format!("unknown command {cmd:?}"));
            (format!("ERR {} {e}", e.exit_code()), false)
        }
    }
}

fn handle_predict(parts: std::str::SplitWhitespace<'_>, shared: &Arc<Shared>) -> String {
    // Parse: node ids until an optional `DEADLINE <ms>` suffix.
    let mut nodes = Vec::new();
    let mut deadline_ms = shared.cfg.default_deadline_ms;
    let mut parts = parts.peekable();
    while let Some(tok) = parts.next() {
        if tok == "DEADLINE" {
            match parts.next().and_then(|t| t.parse::<u64>().ok()) {
                Some(ms) => deadline_ms = ms,
                None => return err_reply(ServeError::bad_request("DEADLINE needs milliseconds")),
            }
            if parts.peek().is_some() {
                return err_reply(ServeError::bad_request("tokens after DEADLINE value"));
            }
            break;
        }
        match tok.parse::<usize>() {
            Ok(v) => nodes.push(v),
            Err(_) => return err_reply(ServeError::bad_request(format!("bad node id {tok:?}"))),
        }
    }
    if nodes.is_empty() {
        return err_reply(ServeError::bad_request("PREDICT needs at least one node id"));
    }
    // Validate against the *current* engine at admission, so bad ids are
    // rejected immediately instead of poisoning a batch.
    let n_nodes = shared.lock().engine.n_nodes();
    if let Some(&bad) = nodes.iter().find(|&&v| v >= n_nodes) {
        return err_reply(ServeError::bad_request(format!(
            "node {bad} out of range (graph has {n_nodes} nodes)"
        )));
    }

    let (reply_tx, reply_rx) = sync_channel(1);
    let enqueued_at = Instant::now();
    let req = Request {
        nodes,
        enqueued_at,
        deadline: enqueued_at + Duration::from_millis(deadline_ms),
        reply_tx,
    };
    if !shared.queue.try_push(req) {
        shared.lock().stats.shed += 1;
        return format!("SHED retry_after_ms={}", shared.retry_after_ms());
    }
    // The batcher always replies; the generous grace period only guards
    // against a wedged batcher, in which case the client still gets a
    // timeout line instead of a hang.
    let grace = Duration::from_millis(deadline_ms.saturating_add(10_000));
    match reply_rx.recv_timeout(grace) {
        Ok(Reply::Predictions(preds)) => {
            let mut out = String::from("OK");
            for p in preds {
                out.push_str(&format!(" {}:{}:{:.6}", p.node, p.class, p.confidence));
            }
            out
        }
        Ok(Reply::Timeout { waited_ms }) => format!("TIMEOUT waited_ms={waited_ms}"),
        Ok(Reply::Failed(e)) => err_reply(e),
        Err(_) => {
            shared.lock().stats.timeouts += 1;
            format!("TIMEOUT waited_ms={}", enqueued_at.elapsed().as_millis())
        }
    }
}

fn err_reply(e: ServeError) -> String {
    format!("ERR {} {e}", e.exit_code())
}

fn render_stats(shared: &Arc<Shared>) -> String {
    let st = shared.lock();
    let last = st.last_degraded.as_deref().unwrap_or("").replace('"', "'");
    format!(
        "{{\"generation\":{},\"tag\":{},\"n_nodes\":{},\"queue_depth\":{},\"served\":{},\
         \"shed\":{},\"timeouts\":{},\"degraded\":{},\"swaps\":{},\"last_degraded\":\"{last}\"}}",
        st.generation,
        st.engine.tag(),
        st.engine.n_nodes(),
        shared.queue.len(),
        st.stats.served,
        st.stats.shed,
        st.stats.timeouts,
        st.stats.degraded,
        st.stats.swaps,
    )
}

fn render_health(shared: &Arc<Shared>) -> String {
    let st = shared.lock();
    format!(
        "OK generation={} tag={} degraded_total={} last_degraded={}",
        st.generation,
        st.engine.tag(),
        st.stats.degraded,
        if st.last_degraded.is_some() { "yes" } else { "none" },
    )
}

// ---------------------------------------------------------------------
// Batcher
// ---------------------------------------------------------------------

fn batcher_loop(shared: &Arc<Shared>) {
    loop {
        if shared.lock().shutdown {
            break;
        }
        if !shared.queue.wait_nonempty(Duration::from_millis(100)) {
            continue;
        }
        // Test hook / slow-inference simulation: admitted requests keep
        // their queue slots for the duration (see AdmissionQueue docs).
        if shared.cfg.batch_delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(shared.cfg.batch_delay_ms));
        }
        // Hot swap strictly between batches: install a staged engine
        // before draining the next batch.
        let engine = {
            let mut st = shared.lock();
            if let Some(new_engine) = st.staged.take() {
                st.engine = new_engine;
                st.generation += 1;
                st.stats.swaps += 1;
            }
            Arc::clone(&st.engine)
        };
        let batch = shared.queue.pop_batch(shared.cfg.max_batch);
        run_batch(&engine, batch, shared);
    }
    // Shutdown: every queued request gets an overload reply instead of a
    // silent hang.
    for req in shared.queue.drain_all() {
        let _ = req.reply_tx.try_send(Reply::Failed(ServeError::Overload {
            retry_after_ms: shared.retry_after_ms(),
        }));
    }
}

fn run_batch(engine: &Engine, batch: Vec<Request>, shared: &Arc<Shared>) {
    // Expired requests are answered without inference and never stall
    // the live ones.
    let now = Instant::now();
    let mut live = Vec::with_capacity(batch.len());
    for req in batch {
        if now >= req.deadline {
            shared.lock().stats.timeouts += 1;
            let waited_ms = now.duration_since(req.enqueued_at).as_millis() as u64;
            let _ = req.reply_tx.try_send(Reply::Timeout { waited_ms });
        } else {
            live.push(req);
        }
    }
    if live.is_empty() {
        return;
    }
    // One merged engine call for the whole batch; on failure (e.g. a hot
    // swap shrank the graph between admission and execution) fall back to
    // per-request calls so one bad request cannot poison its batchmates.
    let merged: Vec<usize> = live.iter().flat_map(|r| r.nodes.iter().copied()).collect();
    match engine.predict(&merged) {
        Ok(all_preds) => {
            // Count before replying: a client that has its reply in hand
            // must see itself reflected in an immediate STATS read.
            shared.lock().stats.served += live.len() as u64;
            let mut offset = 0;
            for req in &live {
                let slice = all_preds[offset..offset + req.nodes.len()].to_vec();
                offset += req.nodes.len();
                let _ = req.reply_tx.try_send(Reply::Predictions(slice));
            }
        }
        Err(_) => {
            for req in &live {
                match engine.predict(&req.nodes) {
                    Ok(preds) => {
                        shared.lock().stats.served += 1;
                        let _ = req.reply_tx.try_send(Reply::Predictions(preds));
                    }
                    Err(e) => {
                        let _ = req.reply_tx.try_send(Reply::Failed(e));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot watcher
// ---------------------------------------------------------------------

/// How old a snapshot's mtime must be before an unchanged stamp lets the
/// watcher skip reading it. A younger file can be rewritten within one
/// coarse timestamp tick and keep its stamp, so it is read every tick.
const SETTLED_AFTER: Duration = Duration::from_secs(2);

/// `(len, mtime, inode)` of a file: what changes when it is replaced or
/// rewritten.
type Stamp = (u64, SystemTime, u64);

fn stamp(path: &Path) -> Option<Stamp> {
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.len(), meta.modified().ok()?, meta.ino()))
}

fn watcher_loop(shared: &Arc<Shared>, initial_fp: u64) {
    let mut last_fp = initial_fp;
    let mut last_read: Option<Stamp> = None;
    loop {
        std::thread::sleep(Duration::from_millis(shared.cfg.watch_interval_ms.max(1)));
        if shared.lock().shutdown {
            break;
        }
        // The stamp is taken before the read, so a write racing the read
        // leaves a stale stamp behind and is read again next tick.
        let now = stamp(&shared.cfg.snapshot_path);
        if let Some(st @ (_, mtime, _)) = now {
            let settled =
                SystemTime::now().duration_since(mtime).is_ok_and(|age| age >= SETTLED_AFTER);
            if settled && last_read == Some(st) {
                continue;
            }
        }
        // A transient read failure (file mid-replacement) is retried on
        // the next tick — the poll interval *is* the backoff.
        let Ok(bytes) = std::fs::read(&shared.cfg.snapshot_path) else { continue };
        last_read = now;
        let fp = fingerprint_bytes(&bytes);
        if fp == last_fp {
            continue;
        }
        last_fp = fp;
        match decode_snapshot(&bytes).map_err(ServeError::from).and_then(Engine::new) {
            Ok(engine) => {
                let mut st = shared.lock();
                st.staged = Some(Arc::new(engine));
                st.last_degraded = None;
            }
            Err(e) => {
                // Keep serving last-good; record the degradation.
                let mut st = shared.lock();
                st.stats.degraded += 1;
                st.last_degraded = Some(e.to_string());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::write_snapshot;
    use crate::synthetic::synthetic_snapshot;

    fn tmp_snap(name: &str, seed: u64) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("amud-serve-server-{}-{name}.snap", std::process::id()));
        write_snapshot(&p, &synthetic_snapshot(seed, 12, 4, 2, 2, 8, 0)).unwrap();
        p
    }

    fn connect(port: u16) -> (BufReader<TcpStream>, TcpStream) {
        let s = TcpStream::connect(("127.0.0.1", port)).unwrap();
        s.set_nodelay(true).unwrap();
        (BufReader::new(s.try_clone().unwrap()), s)
    }

    fn roundtrip(r: &mut BufReader<TcpStream>, w: &mut TcpStream, cmd: &str) -> String {
        writeln!(w, "{cmd}").unwrap();
        w.flush().unwrap();
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        line.trim().to_string()
    }

    #[test]
    fn serves_predictions_and_stats() {
        let path = tmp_snap("basic", 1);
        let server =
            Server::start(ServerConfig { snapshot_path: path.clone(), ..Default::default() })
                .unwrap();
        let (mut r, mut w) = connect(server.port());
        let reply = roundtrip(&mut r, &mut w, "PREDICT 0 3 11");
        assert!(reply.starts_with("OK "), "{reply}");
        assert_eq!(reply.split_whitespace().count(), 4, "{reply}");
        let stats = roundtrip(&mut r, &mut w, "STATS");
        assert!(stats.contains("\"served\":1"), "{stats}");
        let health = roundtrip(&mut r, &mut w, "HEALTH");
        assert!(health.starts_with("OK generation=1"), "{health}");
        let bad = roundtrip(&mut r, &mut w, "PREDICT 999");
        assert!(bad.starts_with("ERR 12"), "{bad}");
        server.stop();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn expired_deadline_gets_timeout_without_stalling_the_batch() {
        let path = tmp_snap("deadline", 2);
        let server = Server::start(ServerConfig {
            snapshot_path: path.clone(),
            batch_delay_ms: 150,
            default_deadline_ms: 10_000,
            ..Default::default()
        })
        .unwrap();
        let (mut r, mut w) = connect(server.port());
        let reply = roundtrip(&mut r, &mut w, "PREDICT 0 DEADLINE 0");
        assert!(reply.starts_with("TIMEOUT"), "{reply}");
        // The next (live) request is still answered.
        let reply = roundtrip(&mut r, &mut w, "PREDICT 1");
        assert!(reply.starts_with("OK "), "{reply}");
        let stats = server.stats();
        assert_eq!(stats.timeouts, 1);
        assert_eq!(stats.served, 1);
        server.stop();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overload_sheds_with_retry_after_while_admitted_requests_complete() {
        let path = tmp_snap("overload", 3);
        let server = Server::start(ServerConfig {
            snapshot_path: path.clone(),
            queue_capacity: 1,
            max_batch: 1,
            batch_delay_ms: 700,
            default_deadline_ms: 10_000,
            ..Default::default()
        })
        .unwrap();
        let (mut r1, mut w1) = connect(server.port());
        let (mut r2, mut w2) = connect(server.port());
        // First request occupies the only queue slot for batch_delay_ms.
        writeln!(w1, "PREDICT 0").unwrap();
        w1.flush().unwrap();
        std::thread::sleep(Duration::from_millis(150));
        // Second request arrives while the slot is held → shed.
        let shed = roundtrip(&mut r2, &mut w2, "PREDICT 1");
        assert!(shed.starts_with("SHED retry_after_ms="), "{shed}");
        // The admitted request still completes.
        let mut line = String::new();
        r1.read_line(&mut line).unwrap();
        assert!(line.starts_with("OK "), "{line}");
        let stats = server.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.served, 1);
        server.stop();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_swap_candidate_degrades_gracefully_then_valid_one_swaps() {
        let path = tmp_snap("hotswap", 4);
        let server = Server::start(ServerConfig {
            snapshot_path: path.clone(),
            watch_interval_ms: 10,
            ..Default::default()
        })
        .unwrap();
        let (mut r, mut w) = connect(server.port());
        assert!(roundtrip(&mut r, &mut w, "PREDICT 0").starts_with("OK "));

        // Corrupt candidate: server must keep answering from last-good.
        std::fs::write(&path, b"garbage, not a snapshot").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.stats().degraded == 0 {
            assert!(Instant::now() < deadline, "watcher never flagged the corrupt candidate");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(roundtrip(&mut r, &mut w, "PREDICT 1").starts_with("OK "), "last-good must serve");
        let health = roundtrip(&mut r, &mut w, "HEALTH");
        assert!(health.contains("degraded_total=1"), "{health}");

        // Valid candidate with a new tag: swaps in between batches.
        write_snapshot(&path, &synthetic_snapshot(99, 12, 4, 2, 2, 8, 0)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let reply = roundtrip(&mut r, &mut w, "STATS");
            if reply.contains("\"tag\":99") {
                assert!(reply.contains("\"swaps\":1"), "{reply}");
                break;
            }
            assert!(Instant::now() < deadline, "valid candidate never swapped in: {reply}");
            // Keep traffic flowing so the batcher has batch boundaries.
            assert!(roundtrip(&mut r, &mut w, "PREDICT 2").starts_with("OK "));
            std::thread::sleep(Duration::from_millis(10));
        }
        server.stop();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn same_length_in_place_rewrite_of_a_settled_file_swaps() {
        let path = tmp_snap("inplace", 6);
        let backdate = |age_s: u64| {
            let f = std::fs::File::options().write(true).open(&path).unwrap();
            f.set_modified(SystemTime::now() - Duration::from_secs(age_s)).unwrap();
        };
        // A settled file: the watcher reads it once, then skips it while
        // its stamp holds.
        backdate(3600);
        let before = std::fs::metadata(&path).unwrap();
        let server = Server::start(ServerConfig {
            snapshot_path: path.clone(),
            watch_interval_ms: 10,
            ..Default::default()
        })
        .unwrap();
        std::thread::sleep(Duration::from_millis(200));

        // Same inode, same length, other weights; backdated again so only
        // the changed mtime in the stamp can reveal the rewrite.
        let bytes = crate::snapshot::encode_snapshot(&synthetic_snapshot(77, 12, 4, 2, 2, 8, 0));
        std::fs::write(&path, &bytes).unwrap();
        backdate(1800);
        let after = std::fs::metadata(&path).unwrap();
        assert_eq!((after.ino(), after.len()), (before.ino(), before.len()));

        let (mut r, mut w) = connect(server.port());
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let reply = roundtrip(&mut r, &mut w, "STATS");
            if reply.contains("\"tag\":77") {
                assert!(reply.contains("\"swaps\":1"), "{reply}");
                break;
            }
            assert!(Instant::now() < deadline, "in-place rewrite never swapped in: {reply}");
            assert!(roundtrip(&mut r, &mut w, "PREDICT 2").starts_with("OK "));
            std::thread::sleep(Duration::from_millis(10));
        }
        server.stop();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn connection_budget_rejects_with_busy() {
        let path = tmp_snap("busy", 5);
        let server = Server::start(ServerConfig {
            snapshot_path: path.clone(),
            max_connections: 1,
            ..Default::default()
        })
        .unwrap();
        let (mut r1, mut w1) = connect(server.port());
        assert!(roundtrip(&mut r1, &mut w1, "PREDICT 0").starts_with("OK "));
        let (mut r2, _w2) = connect(server.port());
        let mut line = String::new();
        r2.read_line(&mut line).unwrap();
        assert!(line.starts_with("BUSY retry_after_ms="), "{line}");
        server.stop();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trickling_client_is_disconnected_while_others_are_served() {
        let path = tmp_snap("slow", 6);
        let server = Server::start(ServerConfig {
            snapshot_path: path.clone(),
            client_read_timeout_ms: 100,
            ..Default::default()
        })
        .unwrap();
        let (mut r, mut w) = connect(server.port());
        let (mut slow_r, mut slow_w) = connect(server.port());
        slow_w.write_all(b"PRED").unwrap(); // half a command, never finished
        slow_w.flush().unwrap();
        std::thread::sleep(Duration::from_millis(300)); // > client_read_timeout_ms
        let reply = roundtrip(&mut r, &mut w, "PREDICT 3");
        assert!(reply.starts_with("OK "), "{reply}");
        // The server hung up on the trickling client: its read ends at EOF.
        slow_r.get_ref().set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut rest = String::new();
        assert_eq!(slow_r.read_line(&mut rest).unwrap(), 0, "{rest}");
        server.stop();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_snapshot_fails_start_with_typed_error_after_retries() {
        let cfg = ServerConfig {
            snapshot_path: PathBuf::from("/nonexistent/amud-model.snap"),
            load_retries: 1,
            load_backoff_ms: 1,
            ..Default::default()
        };
        match Server::start(cfg) {
            Err(ServeError::Snapshot(SnapshotError::Io { .. })) => {}
            Err(other) => panic!("expected transient snapshot I/O failure, got {other:?}"),
            Ok(_) => panic!("start must fail on a missing snapshot"),
        }
    }
}
