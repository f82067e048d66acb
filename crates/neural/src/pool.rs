//! Shared persistent worker pool for whole tasks.
//!
//! The seed spawned fresh `crossbeam::thread::scope` threads on every
//! large `matmul` call; at service scale (scanhub batches thousands of
//! forward passes) the spawn/join cost is pure overhead. This module
//! keeps one process-wide pool of detached workers that is initialized
//! on first use and then reused by every stage that has independent
//! work items: pair-classification chunks, the dynamic pass's reference
//! builds and candidate profiles, and scheduler batches. Matrix products and feature
//! extraction never dispatch; they run on the thread that calls them.
//!
//! Thread-count resolution is unified here: an explicit override
//! (`PipelineConfig::threads` upstream) wins, then the
//! `PATCHECKO_THREADS` environment variable, then the machine's
//! available parallelism — so `--threads 1` forces serial execution end
//! to end through [`resolve_threads`].
//!
//! Workers are plain detached `std::thread`s feeding from one unbounded
//! MPMC channel; they are spawned lazily up to the current limit and
//! never exit (the pool is `'static`). Tasks must be `'static`, so
//! callers share their inputs behind `Arc`, which keeps the whole
//! workspace free of `unsafe` lifetime erasure.
//!
//! [`WorkerPool::run`] runs its tasks inline when the limit is 1, there
//! is at most one task, or the caller is itself a pool worker, so callers
//! need no serial branch of their own. The last rule means a task that
//! itself calls `run` (e.g. a scheduler job whose scan classifies a long
//! pair list) executes its subtasks on its own worker thread. That both
//! prevents the classic fixed-pool deadlock (workers blocking on results
//! that sit behind them in the queue) and avoids oversubscription when
//! outer stages are already parallel.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Pool telemetry handles, resolved once from the global `scope` registry
/// (`pool.dispatches` = parallel fan-outs, `pool.inline_runs` = calls
/// that ran on the calling thread, `pool.tasks` = tasks executed either
/// way). Handle-based so the hot path pays one atomic add, not a map
/// lookup.
fn counters() -> &'static (scope::Counter, scope::Counter, scope::Counter) {
    static COUNTERS: OnceLock<(scope::Counter, scope::Counter, scope::Counter)> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let reg = scope::global();
        (reg.counter("pool.dispatches"), reg.counter("pool.inline_runs"), reg.counter("pool.tasks"))
    })
}

/// Environment variable overriding the default worker-thread count.
pub const THREADS_ENV: &str = "PATCHECKO_THREADS";

/// Resolve an effective worker count: an explicit override when given,
/// else the `PATCHECKO_THREADS` environment variable, else the machine's
/// available parallelism. Always at least 1.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    explicit
        .or_else(|| std::env::var(THREADS_ENV).ok().and_then(|v| v.trim().parse().ok()))
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4))
        .max(1)
}

type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether the current thread is a pool worker, so that [`WorkerPool::run`]
/// runs inline instead of re-dispatching from inside a task.
fn in_worker() -> bool {
    IN_POOL.with(|f| f.get())
}

/// A persistent pool of detached worker threads draining a shared job
/// queue. One process-wide instance lives behind [`global`]; tests and
/// benches may build private pools.
pub struct WorkerPool {
    tx: crossbeam::channel::Sender<Job>,
    rx: crossbeam::channel::Receiver<Job>,
    limit: AtomicUsize,
    spawned: Mutex<usize>,
}

impl WorkerPool {
    /// A pool that will dispatch across up to `limit` workers (threads
    /// spawn lazily on first parallel use).
    pub fn new(limit: usize) -> WorkerPool {
        let (tx, rx) = crossbeam::channel::unbounded();
        WorkerPool { tx, rx, limit: AtomicUsize::new(limit.max(1)), spawned: Mutex::new(0) }
    }

    /// Current dispatch-width limit.
    pub fn limit(&self) -> usize {
        self.limit.load(Ordering::Relaxed)
    }

    /// Set the dispatch-width limit (min 1). Already-spawned workers stay
    /// alive but idle when the limit shrinks; raising it spawns more on
    /// the next parallel dispatch.
    pub fn set_limit(&self, n: usize) {
        self.limit.store(n.max(1), Ordering::Relaxed);
    }

    fn ensure_spawned(&self, want: usize) {
        let mut spawned = self.spawned.lock().expect("pool spawn lock");
        while *spawned < want {
            let rx = self.rx.clone();
            std::thread::Builder::new()
                .name(format!("patchecko-pool-{spawned}"))
                .spawn(move || {
                    IN_POOL.with(|f| f.set(true));
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .expect("spawn pool worker");
            *spawned += 1;
        }
    }

    /// Run every task and return the outputs in task order.
    ///
    /// Runs inline (no dispatch) when the limit is 1, there is at most
    /// one task, or the caller is itself a pool worker. Tasks run
    /// concurrently otherwise, pulled from the shared queue so long
    /// tasks don't starve short ones.
    ///
    /// # Panics
    /// If a task panics, the panic is re-raised here after every task of
    /// this call has finished (workers themselves survive).
    pub fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let width = self.limit().min(tasks.len());
        let (dispatches, inline_runs, task_count) = counters();
        task_count.add(tasks.len() as u64);
        if width <= 1 || in_worker() {
            inline_runs.inc();
            return tasks.into_iter().map(|t| t()).collect();
        }
        dispatches.inc();
        self.ensure_spawned(width);
        let n = tasks.len();
        let (rtx, rrx) = crossbeam::channel::unbounded::<(usize, std::thread::Result<T>)>();
        for (i, task) in tasks.into_iter().enumerate() {
            let rtx = rtx.clone();
            let job: Job = Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(task));
                let _ = rtx.send((i, result));
            });
            assert!(self.tx.send(job).is_ok(), "pool queue accepts jobs");
        }
        drop(rtx);
        let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for _ in 0..n {
            let (i, result) = rrx.recv().expect("pool workers stay alive");
            match result {
                Ok(v) => slots[i] = Some(v),
                Err(p) => panic = Some(p),
            }
        }
        if let Some(p) = panic {
            resume_unwind(p);
        }
        slots.into_iter().map(|s| s.expect("every task reports")).collect()
    }
}

/// The process-wide shared pool. First access sizes the limit via
/// [`resolve_threads`]`(None)`; [`set_global_threads`] adjusts it later
/// (e.g. from `PipelineConfig::threads`).
pub fn global() -> &'static WorkerPool {
    static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
    GLOBAL.get_or_init(|| WorkerPool::new(resolve_threads(None)))
}

/// Set the global pool's dispatch width (min 1). Results are identical
/// at any width — every task computes the same outputs wherever it runs,
/// and `run` returns them in task order — so concurrent callers only
/// affect each other's parallelism, never their outputs.
pub fn set_global_threads(n: usize) {
    global().set_limit(n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn run_preserves_task_order() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<_> = (0..32)
            .map(|i| {
                move || {
                    if i % 3 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    i * 10
                }
            })
            .collect();
        let out = pool.run(tasks);
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn limit_one_runs_inline() {
        let pool = WorkerPool::new(1);
        let out = pool.run(vec![|| std::thread::current().id()]);
        assert_eq!(out[0], std::thread::current().id());
        assert_eq!(*pool.spawned.lock().unwrap(), 0, "no workers for inline runs");
    }

    #[test]
    fn task_panic_propagates_after_drain() {
        let pool = Arc::new(WorkerPool::new(2));
        let finished = Arc::new(AtomicBool::new(false));
        let fin = finished.clone();
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
            Box::new(|| panic!("task boom")),
            Box::new(move || {
                fin.store(true, Ordering::SeqCst);
                7
            }),
        ];
        let r = catch_unwind(AssertUnwindSafe(|| pool.run(tasks)));
        assert!(r.is_err(), "panic must propagate to the caller");
        assert!(finished.load(Ordering::SeqCst), "other tasks still complete");
        // The pool survives a panicking task.
        assert_eq!(pool.run(vec![|| 1, || 2]), vec![1, 2]);
    }

    #[test]
    fn nested_dispatch_runs_inline() {
        let pool = Arc::new(WorkerPool::new(2));
        let inner_pool = pool.clone();
        let tasks: Vec<Box<dyn FnOnce() -> bool + Send>> = vec![
            Box::new(move || {
                // From a worker thread, a nested run must not dead-lock
                // and must execute inline.
                assert!(in_worker());
                let ids = inner_pool.run(vec![|| std::thread::current().id()]);
                ids[0] == std::thread::current().id()
            }),
            Box::new(|| true),
        ];
        assert!(pool.run(tasks).into_iter().all(|b| b));
    }

    #[test]
    fn resolve_threads_precedence() {
        // Explicit override wins over everything.
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1, "clamped to at least 1");
        // Without an override the count is positive whatever the source.
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn set_limit_clamps_to_one() {
        let pool = WorkerPool::new(4);
        pool.set_limit(0);
        assert_eq!(pool.limit(), 1);
        pool.set_limit(8);
        assert_eq!(pool.limit(), 8);
    }
}
