//! Bounded admission queue (DESIGN.md §13.3).
//!
//! Backpressure in one place: every request the server accepts sits in
//! exactly one slot of this fixed-capacity queue until the batcher drains
//! it. Admission is non-blocking — a full queue sheds immediately
//! ([`AdmissionQueue::try_push`] returns `false`, the handler answers
//! `SHED retry_after_ms=…`) — so no component in the pipeline ever
//! buffers unboundedly on behalf of a slow consumer. The batcher blocks
//! on [`AdmissionQueue::wait_nonempty`] (condvar with a timeout so
//! shutdown is prompt) and then drains up to its batch budget with
//! [`AdmissionQueue::pop_batch`].
//!
//! The `Mutex`/`Condvar` pair here carries a scoped exemption from the
//! `clippy.toml` sync-constructor ban (serve is the third concurrency
//! crate, after `amud-par` and `amud-cache`): service threads are outside
//! the deterministic-kernel world, and this queue is their only rendezvous.

use crate::engine::Prediction;
use crate::error::ServeError;
use std::collections::VecDeque;
use std::sync::mpsc::SyncSender;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// The batcher's answer to one request, delivered over the request's
/// single-slot reply channel.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The batch ran and these are the predictions, in request order.
    Predictions(Vec<Prediction>),
    /// The request's deadline passed before its batch ran.
    Timeout {
        /// How long the request waited in the queue.
        waited_ms: u64,
    },
    /// The request failed with a typed error (bad node id after a
    /// hot swap shrank the graph, server shutting down, …).
    Failed(ServeError),
}

/// One admitted request, waiting for the batcher.
#[derive(Debug)]
pub struct Request {
    /// The queried node ids (validated against the engine at admission).
    pub nodes: Vec<usize>,
    /// When the request was admitted.
    pub enqueued_at: Instant,
    /// Absolute deadline; the batcher answers [`Reply::Timeout`] if it
    /// pops the request after this instant.
    pub deadline: Instant,
    /// Single-slot reply channel back to the connection handler. The
    /// batcher uses `try_send`, so a vanished handler never blocks it.
    pub reply_tx: SyncSender<Reply>,
}

/// A fixed-capacity FIFO between connection handlers and the batcher.
pub struct AdmissionQueue {
    inner: Mutex<VecDeque<Request>>,
    nonempty: Condvar,
    capacity: usize,
}

impl AdmissionQueue {
    /// Creates a queue holding at most `capacity` requests (≥ 1).
    #[allow(
        clippy::disallowed_methods,
        reason = "the admission queue is the serving loop's hand-off between handler threads \
                  and the batcher"
    )]
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
            nonempty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth (for the stats endpoint).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking admission: `true` and a batcher wake-up if a slot was
    /// free, `false` (shed — the caller owns the reply) if full.
    pub fn try_push(&self, req: Request) -> bool {
        let mut q = self.lock();
        if q.len() >= self.capacity {
            return false;
        }
        q.push_back(req);
        drop(q);
        self.nonempty.notify_one();
        true
    }

    /// Blocks until the queue is non-empty or `timeout` elapses; returns
    /// whether work is available. Does **not** pop — the batcher may
    /// apply a batching delay between the wake-up and the drain, during
    /// which the queued requests still occupy their slots (so overload
    /// sheds deterministically while a batch is being formed).
    pub fn wait_nonempty(&self, timeout: Duration) -> bool {
        let q = self.lock();
        if !q.is_empty() {
            return true;
        }
        let (q, _timed_out) = self
            .nonempty
            .wait_timeout(q, timeout)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        !q.is_empty()
    }

    /// Drains up to `max_batch` requests, FIFO. Non-blocking.
    pub fn pop_batch(&self, max_batch: usize) -> Vec<Request> {
        let mut q = self.lock();
        let n = max_batch.max(1).min(q.len());
        q.drain(..n).collect()
    }

    /// Drains everything (shutdown path).
    pub fn drain_all(&self) -> Vec<Request> {
        self.lock().drain(..).collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<Request>> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel;

    fn req(nodes: Vec<usize>) -> (Request, std::sync::mpsc::Receiver<Reply>) {
        let (tx, rx) = sync_channel(1);
        let now = Instant::now();
        (
            Request {
                nodes,
                enqueued_at: now,
                deadline: now + Duration::from_secs(5),
                reply_tx: tx,
            },
            rx,
        )
    }

    #[test]
    fn capacity_bounds_admission() {
        let q = AdmissionQueue::new(2);
        let (a, _ra) = req(vec![0]);
        let (b, _rb) = req(vec![1]);
        let (c, _rc) = req(vec![2]);
        assert!(q.try_push(a));
        assert!(q.try_push(b));
        assert!(!q.try_push(c), "third request must be shed at capacity 2");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pop_batch_is_fifo_and_bounded() {
        let q = AdmissionQueue::new(8);
        for i in 0..5 {
            let (r, rx) = req(vec![i]);
            std::mem::forget(rx);
            assert!(q.try_push(r));
        }
        let batch = q.pop_batch(3);
        assert_eq!(batch.iter().map(|r| r.nodes[0]).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(q.len(), 2);
        let rest = q.drain_all();
        assert_eq!(rest.len(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn wait_nonempty_times_out_on_empty_queue() {
        let q = AdmissionQueue::new(1);
        let start = Instant::now();
        assert!(!q.wait_nonempty(Duration::from_millis(30)));
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn wait_nonempty_returns_immediately_with_work() {
        let q = AdmissionQueue::new(1);
        let (r, _rx) = req(vec![0]);
        assert!(q.try_push(r));
        assert!(q.wait_nonempty(Duration::from_millis(1)));
        // Waiting does not consume the slot: the queue still sheds.
        let (r2, _rx2) = req(vec![1]);
        assert!(!q.try_push(r2));
    }
}
