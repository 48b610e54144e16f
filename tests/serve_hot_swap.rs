//! Exactly one reply per request across hot swaps (ROADMAP aim 3).
//!
//! An in-process [`Server`] answers pipelined `PREDICT`s on a few
//! connections while the snapshot file alternates between two valid
//! versions. Every request must get exactly one reply, and every `OK`
//! reply must be the whole answer of one of the two engines: never a
//! torn mix, never a model that was not written.

use amud_repro::serve::{
    synthetic_snapshot, write_snapshot, Engine, Server, ServerConfig, Snapshot,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc::{channel, Receiver, TryRecvError};
use std::time::{Duration, Instant};

const N_NODES: usize = 24;
const CONNECTIONS: usize = 3;
/// PREDICTs written back to back on one connection before reading.
const PIPELINE: usize = 25;
/// Swaps the writer waits for; each one alternates the served version.
const SWAPS: u64 = 8;

fn version(seed: u64) -> Snapshot {
    synthetic_snapshot(seed, N_NODES, 4, 2, 2, 8, 0)
}

/// The nodes of request `i` on connection `c`: 1 to 4 distinct ids.
fn nodes_of(c: usize, i: usize) -> Vec<usize> {
    let len = 1 + (c + i) % 4;
    (0..len).map(|j| (c * 7 + i * 5 + j * 11) % N_NODES).collect()
}

/// The server's `OK` line for `nodes` answered by `engine`.
fn expected_reply(engine: &Engine, nodes: &[usize]) -> String {
    let mut out = String::from("OK");
    let preds = engine.predict(nodes).unwrap_or_else(|e| panic!("predict {nodes:?}: {e}"));
    for p in preds {
        out.push_str(&format!(" {}:{}:{:.6}", p.node, p.class, p.confidence));
    }
    out
}

/// Pipelines rounds of [`PIPELINE`] PREDICTs until `done`'s sender is
/// dropped and at least `min_rounds` rounds ran; checks each reply and
/// returns how many requests were sent. Ends with `QUIT` and expects
/// `BYE` then EOF, so an extra reply anywhere shows up as a wrong line.
fn client(
    port: u16,
    c: usize,
    engines: &[Engine; 2],
    done: &Receiver<()>,
    min_rounds: usize,
) -> u64 {
    let io = |what: &str, e: std::io::Error| -> ! { panic!("connection {c}: {what}: {e}") };
    let stream = TcpStream::connect(("127.0.0.1", port)).unwrap_or_else(|e| io("connect", e));
    stream.set_nodelay(true).unwrap_or_else(|e| io("nodelay", e));
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap_or_else(|e| io("timeout", e));
    let mut reader = BufReader::new(stream.try_clone().unwrap_or_else(|e| io("clone", e)));
    let mut writer = stream;
    let (mut sent, mut round) = (0u64, 0usize);
    while round < min_rounds || !matches!(done.try_recv(), Err(TryRecvError::Disconnected)) {
        let mut batch = String::new();
        let requests: Vec<Vec<usize>> =
            (0..PIPELINE).map(|k| nodes_of(c, round * PIPELINE + k)).collect();
        for nodes in &requests {
            let ids: Vec<String> = nodes.iter().map(usize::to_string).collect();
            batch.push_str(&format!("PREDICT {}\n", ids.join(" ")));
        }
        writer.write_all(batch.as_bytes()).unwrap_or_else(|e| io("write", e));
        for nodes in &requests {
            let mut line = String::new();
            let n = reader
                .read_line(&mut line)
                .unwrap_or_else(|e| panic!("connection {c}: no reply to request {sent} ({e})"));
            assert!(n > 0, "connection {c}: closed before replying to request {sent}");
            let line = line.trim_end();
            assert!(line.starts_with("OK "), "connection {c}, request {sent}: {line}");
            assert!(
                engines.iter().any(|e| expected_reply(e, nodes) == line),
                "connection {c}, request {sent} for {nodes:?}: {line} matches neither version"
            );
            sent += 1;
        }
        round += 1;
    }
    writer.write_all(b"QUIT\n").unwrap_or_else(|e| io("write", e));
    let mut line = String::new();
    reader.read_line(&mut line).unwrap_or_else(|e| io("read", e));
    assert_eq!(line.trim_end(), "BYE", "connection {c}: an extra reply was pending");
    line.clear();
    let n = reader.read_line(&mut line).unwrap_or_else(|e| io("read", e));
    assert_eq!(n, 0, "connection {c}: {line:?} after BYE");
    sent
}

#[test]
fn every_request_gets_exactly_one_reply_across_hot_swaps() {
    let path =
        std::env::temp_dir().join(format!("amud-serve-hot-swap-{}.snap", std::process::id()));
    let versions = [version(101), version(202)];
    let engines =
        [Engine::new(versions[0].clone()).unwrap(), Engine::new(versions[1].clone()).unwrap()];
    write_snapshot(&path, &versions[0]).unwrap();
    let server = Server::start(ServerConfig {
        snapshot_path: path.clone(),
        watch_interval_ms: 5,
        ..Default::default()
    })
    .unwrap();
    let port = server.port();

    let sent: u64 = std::thread::scope(|s| {
        let (mut running, mut clients) = (Vec::new(), Vec::new());
        for c in 0..CONNECTIONS {
            let (tx, rx) = channel();
            running.push(tx);
            let engines = &engines;
            clients.push(s.spawn(move || client(port, c, engines, &rx, 4)));
        }
        // Alternate the file between the two versions, each time waiting
        // until the batcher has swapped it in and served a few rounds
        // from it while the pipelines keep running.
        let wait_for = |what: &str, done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !done() {
                assert!(Instant::now() < deadline, "{what} never happened");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        for swap in 1..=SWAPS {
            write_snapshot(&path, &versions[(swap % 2) as usize]).unwrap();
            wait_for(&format!("swap {swap}"), &|| server.stats().swaps >= swap);
            let served = server.stats().served + (CONNECTIONS * PIPELINE) as u64;
            wait_for(&format!("traffic after swap {swap}"), &|| server.stats().served >= served);
        }
        drop(running);
        clients.into_iter().map(|h| h.join().unwrap()).sum()
    });

    let stats = server.stats();
    assert_eq!(stats.swaps, SWAPS);
    assert_eq!(stats.served, sent, "{stats:?}");
    assert_eq!((stats.shed, stats.timeouts, stats.degraded), (0, 0, 0), "{stats:?}");
    assert!(sent >= (CONNECTIONS * 4 * PIPELINE) as u64);
    server.stop();
    std::fs::remove_file(&path).ok();
}
