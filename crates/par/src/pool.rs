//! The persistent worker pool.
//!
//! One pool per process ([`pool`]), holding up to `MAX_THREADS - 1`
//! workers spawned lazily on first use. A parallel region is a *broadcast
//! job*: the caller publishes an erased `Fn(usize)` plus a task count,
//! wakes the workers, and then pulls task indices from a shared atomic
//! counter alongside them, so the calling thread is always participant
//! number one and a pool with zero live workers still completes every
//! task. [`ThreadPool::run`] returns only after every joined participant
//! has finished, which is what makes the borrowed-closure erasure sound.
//!
//! Scheduling (which participant claims which task index) is dynamic and
//! timing-dependent; determinism is the *partitioning* layer's job — see
//! the crate docs. A panic inside a task is caught, the job is drained,
//! and the panic is re-raised on the calling thread.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Locks a mutex, recovering the guard from a poisoned lock: a panicked
/// task must not wedge every later kernel call in the process.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A lifetime-erased broadcast job. The raw pointer is only dereferenced
/// between a worker's join (under the state lock, while `run` is still
/// blocked) and its matching `active -= 1`, which `run` awaits before
/// returning — the closure therefore outlives every dereference.
#[derive(Clone, Copy)]
struct RawJob {
    func: *const (dyn Fn(usize) + Sync),
    n_tasks: usize,
    /// Workers allowed to join (participants minus the calling thread).
    worker_cap: usize,
}

// SAFETY: `RawJob` may cross to worker threads because `func` points at a
// `Sync` closure (shared calls from several threads are fine) that `run`
// keeps borrowed — and therefore alive — until the drain loop has seen
// every joined worker leave the job, so the pointer outlives every
// dereference a worker can make.
unsafe impl Send for RawJob {}

struct State {
    /// Bumped once per published job so sleeping workers can tell a new
    /// job from a spurious wakeup.
    epoch: u64,
    job: Option<RawJob>,
    /// Workers that joined the current epoch (capped by `worker_cap`).
    joined: usize,
    /// Participants currently inside the job body.
    active: usize,
    /// Set when any worker task panicked during the current job.
    panicked: bool,
}

struct Shared {
    state: Mutex<State>,
    work_ready: Condvar,
    work_done: Condvar,
    /// Next unclaimed task index of the current job.
    next_task: AtomicUsize,
}

/// The persistent worker pool. Use the process-wide instance via [`pool`]
/// (or the [`run`] shorthand); constructing private pools is deliberately
/// not exposed, so the whole process shares one thread budget.
pub struct ThreadPool {
    shared: Arc<Shared>,
    /// Workers spawned so far; grows on demand up to the requested budget.
    spawned: Mutex<usize>,
    /// Serialises broadcasts: the pool has one job slot, so concurrent
    /// callers (e.g. parallel test threads) take turns. Workers never
    /// acquire this (nested regions run inline), so it cannot deadlock.
    driver: Mutex<()>,
}

thread_local! {
    /// True while the current thread is executing tasks of a job — used to
    /// run nested parallel regions inline instead of deadlocking on the
    /// single job slot.
    static IN_PARALLEL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

impl ThreadPool {
    fn new() -> Self {
        Self {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    epoch: 0,
                    job: None,
                    joined: 0,
                    active: 0,
                    panicked: false,
                }),
                work_ready: Condvar::new(),
                work_done: Condvar::new(),
                next_task: AtomicUsize::new(0),
            }),
            spawned: Mutex::new(0),
            driver: Mutex::new(()),
        }
    }

    fn ensure_workers(&self, target: usize) {
        let mut spawned = lock(&self.spawned);
        while *spawned < target.min(crate::MAX_THREADS - 1) {
            let shared = Arc::clone(&self.shared);
            let name = format!("amud-par-{}", *spawned);
            match std::thread::Builder::new().name(name).spawn(move || worker_loop(&shared)) {
                // Detach: the pool lives for the process; workers park on
                // the condvar between jobs and exit with the process.
                Ok(_handle) => *spawned += 1,
                // Spawn failure degrades parallelism, never correctness:
                // the calling thread drains whatever workers don't take.
                Err(_) => break,
            }
        }
    }

    /// Runs `f(0)`, `f(1)`, …, `f(n_tasks - 1)`, each exactly once, spread
    /// over at most [`crate::current_threads`] participants (the calling
    /// thread included). Returns after every task has completed.
    ///
    /// Tasks must only write state they own exclusively (see
    /// [`crate::par_row_blocks_mut`]); which participant executes which
    /// index is unspecified. With a budget of 1, inside a nested parallel
    /// region, or for `n_tasks <= 1`, the tasks run inline serially.
    ///
    /// # Panics
    /// Re-raises the panic of any panicking task after the job drains.
    pub fn run<F: Fn(usize) + Sync>(&self, n_tasks: usize, f: F) {
        let participants = crate::current_threads().min(n_tasks);
        if participants <= 1 || IN_PARALLEL.get() {
            for i in 0..n_tasks {
                f(i);
            }
            return;
        }
        self.ensure_workers(participants - 1);
        let _turn = lock(&self.driver);
        let func: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: pure lifetime erasure of the fat pointer `func` — same
        // pointee, same vtable. The drain loop below keeps `f` borrowed
        // until every worker that joined the job has left it, so no
        // dereference of the erased pointer outlives the closure.
        let func: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(func) };
        let job = RawJob { func, n_tasks, worker_cap: participants - 1 };
        {
            let mut st = lock(&self.shared.state);
            debug_assert!(st.job.is_none() && st.active == 0, "one job at a time");
            st.epoch = st.epoch.wrapping_add(1);
            st.job = Some(job);
            st.joined = 0;
            self.shared.next_task.store(0, Ordering::Relaxed);
        }
        self.shared.work_ready.notify_all();

        // The calling thread is a participant too; its own panic must not
        // skip the drain below (the workers may still hold `func`).
        IN_PARALLEL.set(true);
        let main_result = catch_unwind(AssertUnwindSafe(|| loop {
            let i = self.shared.next_task.fetch_add(1, Ordering::Relaxed);
            if i >= n_tasks {
                break;
            }
            f(i);
        }));
        IN_PARALLEL.set(false);

        let workers_panicked = {
            let mut st = lock(&self.shared.state);
            // No further joins; late workers see `None` and go back to sleep.
            st.job = None;
            while st.active > 0 {
                st = self.shared.work_done.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            std::mem::take(&mut st.panicked)
        };
        if let Err(payload) = main_result {
            resume_unwind(payload);
        }
        assert!(
            !workers_panicked,
            "amud-par: a worker task panicked (original panic message above)"
        );
    }
}

fn worker_loop(shared: &Shared) {
    // Workers only ever execute tasks, so any parallel region entered from
    // task code must run inline.
    IN_PARALLEL.set(true);
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if st.epoch != seen {
                    seen = st.epoch;
                    if let Some(job) = st.job {
                        if st.joined < job.worker_cap {
                            st.joined += 1;
                            st.active += 1;
                            break job;
                        }
                    }
                }
                st = shared.work_ready.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // SAFETY: `job.func` still points at the closure borrowed by `run`:
        // `run` blocks until `active` returns to zero, and this shared
        // reborrow is used only between our `active += 1` above and the
        // matching `active -= 1` below, so it cannot outlive the borrow.
        let f = unsafe { &*job.func };
        let result = catch_unwind(AssertUnwindSafe(|| loop {
            let i = shared.next_task.fetch_add(1, Ordering::Relaxed);
            if i >= job.n_tasks {
                break;
            }
            f(i);
        }));
        let mut st = lock(&shared.state);
        if result.is_err() {
            st.panicked = true;
        }
        st.active -= 1;
        if st.active == 0 {
            shared.work_done.notify_all();
        }
    }
}

/// The process-wide pool, created on first use.
pub fn pool() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(ThreadPool::new)
}

/// Shorthand for [`ThreadPool::run`] on the process-wide [`pool`].
pub fn run<F: Fn(usize) + Sync>(n_tasks: usize, f: F) {
    pool().run(n_tasks, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn every_task_runs_exactly_once() {
        for threads in [1, 2, 3, 8] {
            let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
            crate::with_threads(threads, || {
                run(hits.len(), |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads={threads}: some task ran zero or multiple times"
            );
        }
    }

    #[test]
    fn zero_and_one_task_jobs_complete() {
        run(0, |_| unreachable!("no tasks to run"));
        let hit = AtomicUsize::new(0);
        run(1, |i| {
            assert_eq!(i, 0);
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn back_to_back_jobs_reuse_the_pool() {
        crate::with_threads(4, || {
            for round in 0..50 {
                let sum = AtomicUsize::new(0);
                run(round % 7 + 1, |i| {
                    sum.fetch_add(i + 1, Ordering::Relaxed);
                });
                let n = round % 7 + 1;
                assert_eq!(sum.load(Ordering::Relaxed), n * (n + 1) / 2);
            }
        });
    }

    #[test]
    fn nested_parallel_regions_run_inline() {
        let total = AtomicUsize::new(0);
        crate::with_threads(4, || {
            run(4, |_| {
                // Inner region must not deadlock on the single job slot.
                run(3, |_| {
                    total.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        let result = std::panic::catch_unwind(|| {
            crate::with_threads(4, || {
                run(16, |i| {
                    assert!(i != 5, "task 5 fails");
                });
            })
        });
        assert!(result.is_err(), "panic must reach the caller");
        // The pool must still work afterwards.
        let ok = AtomicUsize::new(0);
        crate::with_threads(4, || {
            run(8, |_| {
                ok.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(ok.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn a_panicking_job_unwinds_only_after_every_started_task_finished() {
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        /// Counts a task as finished when it leaves `f`, by return or unwind.
        struct Finish<'a>(&'a AtomicUsize);
        impl Drop for Finish<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        fn wait_for(flag: &AtomicBool) {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !flag.load(Ordering::SeqCst) && Instant::now() < deadline {
                std::thread::yield_now();
            }
        }
        let caller = std::thread::current().id();
        for threads in [2, 4] {
            // Side 1 is the calling thread, side 0 the workers.
            for panic_side in [1, 0] {
                let started = AtomicUsize::new(0);
                let finished = AtomicUsize::new(0);
                let entered = [AtomicBool::new(false), AtomicBool::new(false)];
                let claimed = AtomicBool::new(false);
                let raised = AtomicBool::new(false);
                let result = std::panic::catch_unwind(|| {
                    crate::with_threads(threads, || {
                        run(32, |_| {
                            started.fetch_add(1, Ordering::SeqCst);
                            let _finish = Finish(&finished);
                            let side = usize::from(std::thread::current().id() == caller);
                            entered[side].store(true, Ordering::SeqCst);
                            if side == panic_side && !claimed.swap(true, Ordering::SeqCst) {
                                // Panic only while the other side is inside a task.
                                wait_for(&entered[1 - side]);
                                raised.store(true, Ordering::SeqCst);
                                panic!("planted task panic");
                            }
                            if side != panic_side {
                                wait_for(&raised);
                            }
                            std::thread::sleep(Duration::from_millis(1));
                        });
                    })
                });
                let case = format!("threads={threads} panic_side={panic_side}");
                assert!(result.is_err(), "{case}: the panic must reach the caller");
                assert!(raised.load(Ordering::SeqCst), "{case}: the planted panic never ran");
                assert_eq!(
                    started.load(Ordering::SeqCst),
                    finished.load(Ordering::SeqCst),
                    "{case}: `run` unwound while a started task was still inside `f`"
                );
            }
        }
    }

    #[test]
    fn concurrent_callers_from_user_threads_are_safe() {
        // Two OS threads issuing jobs against the global pool at once: the
        // epoch/join protocol must never lose or double-run a task.
        let results: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let sum = AtomicUsize::new(0);
                        crate::with_threads(3, || {
                            run(64, |i| {
                                sum.fetch_add(i, Ordering::Relaxed);
                            });
                        });
                        sum.load(Ordering::Relaxed)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("caller thread panicked")).collect()
        });
        assert!(results.iter().all(|&s| s == 63 * 64 / 2));
    }
}
