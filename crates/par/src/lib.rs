//! # amud-par — deterministic std-only data-parallel runtime
//!
//! Every experiment in the reproduction bottoms out in four serial loops —
//! `DenseMatrix::{matmul, matmul_transa, matmul_transb}` and
//! `CsrMatrix::spmm` — plus the tape's elementwise forward/backward maps.
//! This crate supplies the one piece of machinery all of them share: a
//! persistent worker pool (std only — no registry dependencies) with a
//! range-partitioned `par_chunks_mut`-style API.
//!
//! ## Determinism contract
//!
//! Parallel results are **bit-identical to serial**, for every thread
//! count, because the runtime guarantees two properties and the kernels
//! supply a third:
//!
//! 1. **Fixed partitions.** Partition boundaries ([`split_even`],
//!    [`split_by_weight`]) are pure functions of the problem shape and the
//!    requested part count — never of scheduling, timing, or which worker
//!    picks up which part.
//! 2. **Exclusive ownership.** [`par_row_blocks_mut`] hands each task a
//!    disjoint sub-slice of the output; no two tasks ever write the same
//!    element, so there is nothing for scheduling order to reorder.
//! 3. **Order-preserving kernels.** Each task runs the *same* scalar loop
//!    the serial kernel runs over its range, so every output element is
//!    produced by the same sequence of floating-point operations
//!    regardless of how many threads participate. Kernels that must
//!    reduce across partitions (the `matmul_transa` gradient scatter) use
//!    a fixed block structure and fold the per-block partials in
//!    ascending block order on one thread.
//!
//! Consequently `AMUD_THREADS=1` is an *exact* serial fallback: it runs
//! the identical code inline on the calling thread.
//!
//! ## Environment knobs
//!
//! * `AMUD_THREADS` — thread budget for the whole process. Unset, `0`, or
//!   unparsable means [`std::thread::available_parallelism`]; `1` disables
//!   the pool entirely. Read once, at first use.
//!
//! Tests (and the kernel benchmark harness) can override the budget for a
//! scope on the current thread with [`with_threads`], which is how the
//! equivalence proptests compare `AMUD_THREADS ∈ {1, 2, 3, 8}` inside one
//! process.
//!
//! ## Why not `std::thread::scope` per call?
//!
//! Spawning OS threads costs tens of microseconds; the training loop calls
//! kernels thousands of times per second. The pool spawns its workers once
//! (lazily, on first parallel call) and broadcasts jobs to them; idle
//! workers block on a condvar and cost nothing. clippy's
//! `disallowed-methods` (root `clippy.toml`) bans `std::thread::spawn`
//! everywhere else, so all parallelism flows through this runtime and
//! inherits the determinism contract.

#![allow(
    clippy::disallowed_methods,
    reason = "the pool runtime is where threads and their sync state are built"
)]
#![warn(clippy::panic, clippy::todo, clippy::unimplemented)]

mod chunks;
mod fold;
pub mod lanes;
mod partition;
mod pool;
mod service;

pub use chunks::{par_chunks_mut, par_row_blocks_mut};
pub use fold::{lane_dot, lane_sum, ordered_dot, ordered_sum};
pub use partition::{split_by_weight, split_even};
pub use pool::{pool, run, ThreadPool};
pub use service::{spawn_service, ServiceHandle};

use std::cell::Cell;
use std::sync::OnceLock;

/// Hard ceiling on the thread budget (a safety rail for typo'd env vars).
pub const MAX_THREADS: usize = 256;

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(MAX_THREADS)
}

/// The process-wide thread budget: `AMUD_THREADS` when set to a positive
/// integer (clamped to [`MAX_THREADS`]), otherwise
/// [`std::thread::available_parallelism`]. Cached after the first call.
pub fn max_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| match std::env::var("AMUD_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n.min(MAX_THREADS),
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    })
}

thread_local! {
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// The thread budget in effect for the calling thread: the innermost
/// [`with_threads`] override if one is active, else [`max_threads`].
pub fn current_threads() -> usize {
    let o = OVERRIDE.get();
    if o == 0 {
        max_threads()
    } else {
        o
    }
}

/// Runs `f` with the calling thread's budget overridden to `n` (clamped to
/// `1..=MAX_THREADS`). The previous budget is restored when `f` returns —
/// or unwinds, so a failing assertion inside a property test cannot leak
/// its thread count into the next case.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.set(self.0);
        }
    }
    let _restore = Restore(OVERRIDE.replace(n.clamp(1, MAX_THREADS)));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_nests_and_restores() {
        let outer = current_threads();
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(7, || assert_eq!(current_threads(), 7));
            assert_eq!(current_threads(), 3);
        });
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn override_restores_on_panic() {
        let outer = current_threads();
        let result = std::panic::catch_unwind(|| with_threads(5, || panic!("boom")));
        assert!(result.is_err());
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn override_is_clamped() {
        with_threads(0, || assert_eq!(current_threads(), 1));
        with_threads(usize::MAX, || assert_eq!(current_threads(), MAX_THREADS));
    }
}
