//! Long-lived service threads.
//!
//! The broadcast pool in [`crate::pool`] is built for short CPU-bound
//! kernel regions: workers must return to the condvar promptly, so a
//! thread that blocks on a socket or sleeps on a watch interval would
//! starve every kernel call in the process. Server-style components (the
//! `amud-serve` accept loop, connection handlers, the snapshot watcher)
//! therefore get their own primitive here — a named, detachable OS thread
//! — instead of borrowing pool workers.
//!
//! Routing service-thread creation through this module keeps the
//! workspace invariant enforced by clippy's `disallowed-methods` ban on
//! `std::thread::spawn` (root `clippy.toml`): *all* thread creation lives
//! in `crates/par`, so the determinism contract's
//! audit surface stays one crate wide. Service threads must never touch
//! tensor kernels' shared outputs directly; they interact with compute by
//! *calling* kernels (which partition work themselves) or by message
//! passing, so they sit outside the bit-identity argument entirely.

/// A handle to a running service thread. Wraps [`std::thread::JoinHandle`]
/// so callers outside `crates/par` never name the `std::thread` spawn API
/// themselves.
pub struct ServiceHandle<T> {
    inner: std::thread::JoinHandle<T>,
}

impl<T> ServiceHandle<T> {
    /// Blocks until the service thread finishes, returning its result.
    /// A panic on the service thread is re-raised here, mirroring
    /// [`std::thread::JoinHandle::join`]'s contract but without exposing
    /// the `Result`-of-`Any` plumbing to callers.
    pub fn join(self) -> T {
        match self.inner.join() {
            Ok(v) => v,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Whether the service thread has exited (its closure returned or
    /// panicked). Non-blocking.
    pub fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
}

/// Spawns a named long-lived service thread running `f`.
///
/// Unlike pool workers, service threads may block indefinitely (socket
/// accept, condvar waits with deadlines, sleep-poll loops). The name shows
/// up in debuggers and panic messages; keep it short and unique-ish
/// (`"amud-serve-accept"`, `"amud-serve-watch"`, …). Spawn failure (fd /
/// memory exhaustion) is surfaced as the OS error, not a panic, so a
/// saturated server can shed the connection instead of dying.
pub fn spawn_service<T, F>(name: &str, f: F) -> std::io::Result<ServiceHandle<T>>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let inner = std::thread::Builder::new().name(name.to_string()).spawn(f)?;
    Ok(ServiceHandle { inner })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_thread_runs_and_joins() {
        let h = spawn_service("amud-test-svc", || 6 * 7).unwrap();
        assert_eq!(h.join(), 42);
    }

    #[test]
    fn service_thread_panic_is_reraised_on_join() {
        let h = spawn_service("amud-test-panic", || panic!("boom")).unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.join()));
        assert!(r.is_err(), "join must re-raise the service panic");
    }

    #[test]
    fn is_finished_reflects_completion() {
        let h = spawn_service("amud-test-done", || ()).unwrap();
        while !h.is_finished() {
            std::thread::yield_now();
        }
        h.join();
    }
}
