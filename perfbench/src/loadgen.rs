//! Open-loop load generation over the server's line protocol.
//!
//! Arrivals follow a seeded Poisson schedule and node popularity a seeded
//! Zipf law, so one seed fixes every request and its due time. The
//! generator sends each request when it is due whether or not earlier
//! replies have arrived, and times every request from its *intended* send
//! time: a stall delays every later request's clock too, so coordinated
//! omission cannot hide queueing. How late the generator itself ran is
//! recorded per request as lag.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// SplitMix64: a tiny, seedable, reproducible generator for the
/// benchmark's own inputs (schedules, popularity, request bodies).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` (never zero, so `ln` is finite).
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// An independent seed for stream `stream` of the workload seed `seed`
/// (replica, model init, popularity, arrivals, …).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    SplitMix::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// Due times (ns from phase start) of a Poisson arrival process at
/// `rate_per_s` over `window`: exponential gaps from a seeded stream.
pub fn poisson_schedule(rate_per_s: f64, window: Duration, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix::new(seed);
    let end = window.as_nanos() as f64;
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        t += -rng.next_unit().ln() / rate_per_s * 1e9;
        if t >= end {
            return out;
        }
        out.push(t as u64);
    }
}

/// Zipf(s) popularity over `n` nodes; the popularity order is a seeded
/// permutation so the hottest nodes are not simply the lowest ids.
pub struct Zipf {
    cdf: Vec<f64>,
    order: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        let mut rng = SplitMix::new(seed);
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                acc += 1.0 / (rank as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf, order }
    }

    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.next_unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.order[rank]
    }
}

/// The reply classes of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyKind {
    Ok,
    Shed,
    Busy,
    Timeout,
    Err,
}

pub fn classify(line: &str) -> ReplyKind {
    match line.split_whitespace().next() {
        Some("OK") => ReplyKind::Ok,
        Some("SHED") => ReplyKind::Shed,
        Some("BUSY") => ReplyKind::Busy,
        Some("TIMEOUT") => ReplyKind::Timeout,
        _ => ReplyKind::Err,
    }
}

/// Per-connection reply accounting. Every request sent must get exactly
/// one reply: `sent = OK + SHED + BUSY + TIMEOUT + ERR`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub shed: u64,
    pub busy: u64,
    pub timeout: u64,
    pub err: u64,
}

impl Tally {
    pub fn record(&mut self, kind: ReplyKind) {
        match kind {
            ReplyKind::Ok => self.ok += 1,
            ReplyKind::Shed => self.shed += 1,
            ReplyKind::Busy => self.busy += 1,
            ReplyKind::Timeout => self.timeout += 1,
            ReplyKind::Err => self.err += 1,
        }
    }

    pub fn replies(&self) -> u64 {
        self.ok + self.shed + self.busy + self.timeout + self.err
    }

    /// Whether every sent request got exactly one reply.
    pub fn conserved(&self) -> bool {
        self.sent == self.replies()
    }

    /// Requests that did not end in an `OK`, including unanswered ones.
    pub fn not_ok(&self) -> u64 {
        self.sent.max(self.replies()) - self.ok
    }

    pub fn add(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.shed += other.shed;
        self.busy += other.busy;
        self.timeout += other.timeout;
        self.err += other.err;
    }
}

/// One request of an open-loop phase; times are ns from phase start.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    pub intended_ns: u64,
    /// `None` when the window ended before the generator could send it.
    pub sent_ns: Option<u64>,
    /// `None` when no reply arrived before the drain deadline.
    pub recv_ns: Option<u64>,
    pub reply: String,
}

impl Sample {
    /// Latency from the intended send time; `None` if unanswered.
    pub fn latency_ns(&self) -> Option<u64> {
        self.recv_ns.map(|r| r - self.intended_ns)
    }

    /// How late the generator sent it; `None` if never sent.
    pub fn lag_ns(&self) -> Option<u64> {
        self.sent_ns.map(|s| s.saturating_sub(self.intended_ns))
    }
}

/// Outcome of one open-loop phase on one connection.
pub struct Phase {
    pub start: Instant,
    pub window_ns: u64,
    /// Every request due within the window, in schedule order, sent or
    /// not: a stall that keeps requests from being sent must not drop
    /// them from the latency distribution.
    pub samples: Vec<Sample>,
    pub tally: Tally,
}

impl Phase {
    /// Requests due within the window but not answered by its end,
    /// including those never sent.
    pub fn backlog_end(&self) -> usize {
        self.samples.iter().filter(|s| s.recv_ns.is_none_or(|r| r > self.window_ns)).count()
    }

    /// Latencies from the intended send time. A request not answered
    /// `OK` — refused, unanswered, or never sent — misses any limit, so it
    /// counts as infinitely late.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| match s.latency_ns() {
                Some(ns) if s.reply.starts_with("OK") => ns as f64 / 1e6,
                _ => f64::INFINITY,
            })
            .collect()
    }

    /// Generator lag of every request sent.
    pub fn lags_ms(&self) -> Vec<f64> {
        self.samples.iter().filter_map(Sample::lag_ns).map(|ns| ns as f64 / 1e6).collect()
    }
}

/// Requests allowed in flight before the generator stops sending (and
/// starts accruing lag). Keeps both socket buffers from filling, which
/// would deadlock a single-threaded client against a blocked server. The
/// server answers one connection's requests one at a time, so a deeper
/// pipeline adds no load, only drain time after an overloaded window.
const MAX_IN_FLIGHT: usize = 32;

/// Runs one open-loop phase: sends `requests[i]` at `schedule[i]` ns after
/// the start, reads replies in order (the protocol answers a connection's
/// commands in sequence), stops sending when the window ends, and returns
/// once every request sent is answered or `drain` has passed after the
/// window.
pub fn run_open_loop(
    stream: &mut TcpStream,
    schedule: &[u64],
    requests: &[String],
    window: Duration,
    drain: Duration,
) -> io::Result<Phase> {
    assert_eq!(schedule.len(), requests.len());
    let start = Instant::now();
    let now_ns = || start.elapsed().as_nanos() as u64;
    let window_ns = window.as_nanos() as u64;
    let give_up_ns = window_ns + drain.as_nanos() as u64;
    let mut samples: Vec<Sample> =
        schedule.iter().map(|&t| Sample { intended_ns: t, ..Sample::default() }).collect();
    let mut tally = Tally::default();
    let (mut next, mut answered) = (0usize, 0usize);
    let mut pending: Vec<u8> = Vec::new();
    let mut buf = vec![0u8; 1 << 16];
    let mut line = Vec::new();
    let mut read_timeout = None;
    loop {
        let now = now_ns();
        // Nothing is sent after the window: a request still unsent then
        // is generator backlog, not an attempt.
        let sending = now <= window_ns && next < samples.len();
        while sending
            && next < samples.len()
            && schedule[next] <= now
            && next - answered < MAX_IN_FLIGHT
        {
            write_line(stream, &mut line, &requests[next])?;
            samples[next].sent_ns = Some(now_ns());
            tally.sent += 1;
            next += 1;
        }
        if (answered == next && !sending) || now > give_up_ns {
            break;
        }
        let now = now_ns();
        let until_due = if sending && next < samples.len() && next - answered < MAX_IN_FLIGHT {
            schedule[next].saturating_sub(now)
        } else if sending {
            window_ns.saturating_sub(now)
        } else {
            give_up_ns.saturating_sub(now)
        };
        if answered == next {
            std::thread::sleep(Duration::from_nanos(until_due.min(50_000_000)));
            continue;
        }
        let wait = Some(Duration::from_nanos(until_due.clamp(20_000, 50_000_000)));
        if wait != read_timeout {
            stream.set_read_timeout(wait)?;
            read_timeout = wait;
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(k) => {
                let got = now_ns();
                pending.extend_from_slice(&buf[..k]);
                while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = pending.drain(..=pos).collect();
                    let line = String::from_utf8_lossy(&line).trim().to_string();
                    if answered >= next {
                        return Err(io::Error::other(format!("unsolicited reply {line:?}")));
                    }
                    tally.record(classify(&line));
                    samples[answered].recv_ns = Some(got);
                    samples[answered].reply = line;
                    answered += 1;
                }
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
    }
    stream.set_read_timeout(None)?;
    Ok(Phase { start, window_ns, samples, tally })
}

/// Writes `cmd` and its newline in one call: with `TCP_NODELAY` two
/// writes would be two segments, and the server would wake for each.
fn write_line(stream: &mut TcpStream, buf: &mut Vec<u8>, cmd: &str) -> io::Result<()> {
    buf.clear();
    buf.extend_from_slice(cmd.as_bytes());
    buf.push(b'\n');
    stream.write_all(buf)
}

/// Sends one command on a control connection and reads its reply line.
pub fn roundtrip(stream: &mut TcpStream, cmd: &str) -> io::Result<String> {
    write_line(stream, &mut Vec::new(), cmd)?;
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte)? {
            0 => return Err(io::Error::other("connection closed")),
            _ if byte[0] == b'\n' => break,
            _ => line.push(byte[0]),
        }
    }
    Ok(String::from_utf8_lossy(&line).trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let window = Duration::from_secs(2);
        let a = poisson_schedule(500.0, window, 7);
        let b = poisson_schedule(500.0, window, 7);
        let c = poisson_schedule(500.0, window, 8);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "another seed, another schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times are ordered");
        assert!(a.iter().all(|&t| t < 2_000_000_000));
        // ~1000 arrivals expected; a Poisson count stays well within ±15%.
        assert!((850..1150).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn zipf_prefers_its_head_and_is_seeded() {
        let z = Zipf::new(100, 1.0, 3);
        let mut rng = SplitMix::new(1);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        let head = z.order[0];
        assert!(counts[head] > counts[z.order[99]] * 20, "{:?}", counts);
        assert_eq!(Zipf::new(100, 1.0, 3).order, z.order);
    }

    #[test]
    fn conservation_arithmetic() {
        let mut t = Tally { sent: 6, ..Tally::default() };
        for line in ["OK 1:0:0.5", "SHED retry_after_ms=50", "BUSY retry_after_ms=50"] {
            t.record(classify(line));
        }
        t.record(classify("TIMEOUT waited_ms=3"));
        t.record(classify("ERR 12 bad node"));
        assert!(!t.conserved(), "one request still unanswered");
        assert_eq!(t.not_ok(), 5);
        t.record(classify("OK 2:1:0.9"));
        assert!(t.conserved());
        assert_eq!((t.ok, t.shed, t.busy, t.timeout, t.err), (2, 1, 1, 1, 1));
        assert_eq!(t.not_ok(), 4);
        let mut sum = Tally::default();
        sum.add(&t);
        sum.add(&t);
        assert_eq!((sum.sent, sum.replies()), (12, 12));
        // A reply with no request behind it also breaks conservation.
        sum.record(ReplyKind::Ok);
        assert!(!sum.conserved());
    }

    #[test]
    fn requests_never_sent_stay_in_the_window_as_infinitely_late() {
        // A server that accepts and never answers: the generator stops at
        // MAX_IN_FLIGHT, and the due requests it could not send must still
        // reach the latency distribution.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let server = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        let due = MAX_IN_FLIGHT + 44;
        let schedule: Vec<u64> = (0..due as u64).map(|i| i * 10_000).collect();
        let requests = vec!["PREDICT 0".to_string(); due];
        let ms = Duration::from_millis(20);
        let phase = run_open_loop(&mut stream, &schedule, &requests, ms, ms).unwrap();
        let held = server.join().unwrap().unwrap();
        drop(held);
        assert_eq!(phase.samples.len(), due);
        assert_eq!(phase.tally.sent, MAX_IN_FLIGHT as u64);
        assert_eq!(phase.samples.iter().filter(|s| s.sent_ns.is_none()).count(), 44);
        assert_eq!(phase.backlog_end(), due);
        assert_eq!(phase.lags_ms().len(), MAX_IN_FLIGHT, "lag counts sent requests only");
        let late = phase.latencies_ms();
        assert_eq!(late.len(), due);
        assert!(late.iter().all(|l| l.is_infinite()));
    }

    #[test]
    fn derived_seeds_differ_per_stream() {
        assert_ne!(derive_seed(1, 1), derive_seed(1, 2));
        assert_eq!(derive_seed(5, 3), derive_seed(5, 3));
    }
}
