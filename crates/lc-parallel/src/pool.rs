//! Fixed-size scoped thread pool with dynamic work-index scheduling.
//!
//! The pool mirrors the GPU block scheduler: a campaign of `n` independent
//! tasks (chunks) is drained by `threads` workers that claim monotonically
//! increasing indices from a shared atomic counter. Monotonic claiming is
//! load-bearing for [`crate::LookbackScan`]: it guarantees that whenever a
//! task spins waiting for a predecessor's scan entry, that predecessor has
//! already been claimed by some worker and will eventually publish, so the
//! look-back cannot deadlock.

use std::sync::atomic::{AtomicUsize, Ordering};

use lc_telemetry::{span_in, ArgValue, Event};

/// Drain `next` with dynamic scheduling, calling `f` for every claimed
/// index. When telemetry is enabled this also accounts per-task run time
/// and per-worker busy/wait/utilization; the disabled path is the bare
/// claim loop (the `telemetry` flag is hoisted so workers pay zero
/// per-task cost). A tripped `cancel` token stops the worker at its next
/// claim: indices past that point are simply never claimed. Each claim
/// also passes through `lc_chaos::maybe_stall` (one relaxed load when no
/// fault plan is installed) so chaos soaks can perturb the schedule.
fn worker_loop<F>(
    next: &AtomicUsize,
    tasks: usize,
    mut f: F,
    telemetry: bool,
    cancel: Option<&crate::CancelToken>,
) where
    F: FnMut(usize),
{
    if !telemetry {
        loop {
            if cancel.is_some_and(|c| c.is_cancelled()) {
                return;
            }
            lc_chaos::maybe_stall();
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                return;
            }
            f(i);
        }
    }
    // Resolve histogram handles once per worker, not per task.
    let run_hist = lc_telemetry::histogram("pool.task_run_ns");
    let wait_hist = lc_telemetry::histogram("pool.worker_wait_ns");
    let start_ns = lc_telemetry::now_ns();
    let mut busy_ns = 0u64;
    let mut claimed = 0u64;
    loop {
        if cancel.is_some_and(|c| c.is_cancelled()) {
            break;
        }
        lc_chaos::maybe_stall();
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= tasks {
            break;
        }
        let t0 = lc_telemetry::now_ns();
        f(i);
        let dt = lc_telemetry::now_ns().saturating_sub(t0);
        run_hist.record(dt);
        busy_ns += dt;
        claimed += 1;
    }
    let total_ns = lc_telemetry::now_ns().saturating_sub(start_ns);
    let wait_ns = total_ns.saturating_sub(busy_ns);
    wait_hist.record(wait_ns);
    let mut args = vec![
        ("tasks", ArgValue::from(claimed)),
        ("busy_ns", ArgValue::from(busy_ns)),
        ("wait_ns", ArgValue::from(wait_ns)),
    ];
    let req = lc_telemetry::current_request();
    if req != 0 {
        args.push(("req", ArgValue::from(req)));
    }
    lc_telemetry::emit(Event {
        name: "worker",
        cat: "pool",
        ts_ns: start_ns,
        dur_ns: total_ns,
        tid: 0, // filled by `record`
        args,
    });
    // Scoped threads are observed "finished" before TLS destructors run,
    // so hand the buffer to the sink before the closure returns.
    lc_telemetry::flush_thread();
}

/// A reusable fixed-size thread pool.
///
/// The pool holds no long-lived threads; each [`Pool::run`] call spawns a
/// `std::thread::scope`, which keeps the API free of lifetime gymnastics
/// while still amortizing well over chunk-sized work items. (Spawn cost is
/// a few microseconds per worker; LC campaigns run for milliseconds to
/// minutes.)
///
/// # Panic propagation policy
///
/// A panic in a task closure propagates out of [`Pool::run`] / [`Pool::map`]
/// / [`Pool::fold`] on the caller's thread once all workers have stopped —
/// one bad task aborts the whole call. The pool never catches a panic:
/// callers that must survive a failing task fence the work inside it
/// (the campaign runner runs each stage through
/// `lc_study::runner::run_stage_checked`, which catches the panic and
/// quarantines the unit).
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// Create a pool with an explicit worker count (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Create a pool sized by [`crate::default_threads`].
    pub fn with_default_threads() -> Self {
        Self::new(crate::default_threads())
    }

    /// Number of workers this pool will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `tasks` independent work items, calling `f(index)` exactly once
    /// for every `index in 0..tasks`, with dynamic scheduling.
    ///
    /// Indices are claimed in increasing order across all workers.
    pub fn run<F>(&self, tasks: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.run_cancellable(tasks, None, f)
    }

    /// Like [`Pool::run`], but workers additionally poll `cancel` (when
    /// given) before every claim and stop once it trips. Tasks already
    /// claimed finish normally; unclaimed indices are never started.
    fn run_cancellable<F>(&self, tasks: usize, cancel: Option<&crate::CancelToken>, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if tasks == 0 {
            return;
        }
        let workers = self.threads.min(tasks);
        // Hoisted once per call: workers below branch on a plain bool, so a
        // disabled-telemetry run costs this single relaxed load in total.
        let telemetry = lc_telemetry::active();
        // Propagate the submitting thread's request scope into the
        // workers, so per-chunk stage spans stay linked to the request
        // that triggered them.
        let req = lc_telemetry::current_request();
        let _span = span_in!("pool", "run", tasks = tasks, workers = workers);
        let next = AtomicUsize::new(0);
        let f = &f;
        let next = &next;
        if workers == 1 {
            // Runs on the caller's thread, which already carries `req`.
            worker_loop(next, tasks, f, telemetry, cancel);
            return;
        }
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(move || {
                    let _scope = lc_telemetry::request_scope(req);
                    worker_loop(next, tasks, f, telemetry, cancel)
                });
            }
        });
    }

    /// Like [`Pool::run`], but each worker owns a mutable scratch state
    /// created once by `init` and passed to every task that worker claims.
    ///
    /// This is the arena-reuse primitive: a worker processing hundreds of
    /// chunks allocates its stage buffers once instead of once per chunk,
    /// mirroring how a GPU thread block reuses its shared-memory staging
    /// area across grid-stride iterations. Equivalent to [`Pool::fold`]
    /// with the accumulators discarded, but without requiring a merge.
    pub fn run_with_state<S, I, F>(&self, tasks: usize, init: I, f: F)
    where
        S: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) + Sync,
    {
        self.fold(tasks, init, |s, i| f(s, i), |a, _| a);
    }

    /// Produce a `Vec` of `tasks` results, computing `f(i)` for each index
    /// in parallel. Results land in index order.
    pub fn map<T, F>(&self, tasks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut out: Vec<Option<T>> = Vec::new();
        out.resize_with(tasks, || None);
        {
            let slots = crate::DisjointSlice::new(&mut out);
            self.run(tasks, |i| {
                // SAFETY: each index in 0..tasks is claimed exactly once by
                // `run`, so no two tasks touch the same slot.
                unsafe { *slots.get_mut(i) = Some(f(i)) };
            });
        }
        out.into_iter()
            .map(|v| v.expect("every slot filled by run()")) // invariant: run() fills every slot
            .collect()
    }

    /// Like [`Pool::map`], but workers stop claiming once `cancel` trips.
    /// Returns one slot per index: `Some(result)` for tasks that ran,
    /// `None` for tasks never claimed. Slots are in index order; the set
    /// of `None` slots depends on worker timing, which is exactly why
    /// callers (the campaign runner) treat them as "pending, re-run on
    /// resume" rather than as failures.
    pub fn map_cancellable<T, F>(
        &self,
        tasks: usize,
        cancel: &crate::CancelToken,
        f: F,
    ) -> Vec<Option<T>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut out: Vec<Option<T>> = Vec::new();
        out.resize_with(tasks, || None);
        {
            let slots = crate::DisjointSlice::new(&mut out);
            self.run_cancellable(tasks, Some(cancel), |i| {
                // SAFETY: each index in 0..tasks is claimed at most once by
                // `run_cancellable`, so no two tasks touch the same slot.
                unsafe { *slots.get_mut(i) = Some(f(i)) };
            });
        }
        out
    }

    /// Fold each worker's locally-accumulated state into a final reduction.
    ///
    /// `init` creates a per-worker accumulator, `step(acc, index)` consumes a
    /// task, and `merge` combines accumulators. This is the idiomatic
    /// "thread-local partials, then reduce" HPC pattern and avoids all
    /// sharing on the hot path.
    pub fn fold<A, I, S, M>(&self, tasks: usize, init: I, step: S, merge: M) -> A
    where
        A: Send,
        I: Fn() -> A + Sync,
        S: Fn(&mut A, usize) + Sync,
        M: Fn(A, A) -> A,
    {
        self.fold_cancellable(tasks, None, init, step, merge)
    }

    /// Like [`Pool::fold`], but workers poll `cancel` (when given) before
    /// every claim and stop once it trips; unclaimed indices are never
    /// started. This is the encoder's request-scoped shape:
    /// per-worker scratch arenas and statistics plus a deadline token,
    /// so a blown deadline stops chunk fan-out at the next claim
    /// boundary while already-claimed chunks finish and publish
    /// (keeping [`crate::LookbackScan`] deadlock-free).
    pub fn fold_cancellable<A, I, S, M>(
        &self,
        tasks: usize,
        cancel: Option<&crate::CancelToken>,
        init: I,
        step: S,
        merge: M,
    ) -> A
    where
        A: Send,
        I: Fn() -> A + Sync,
        S: Fn(&mut A, usize) + Sync,
        M: Fn(A, A) -> A,
    {
        if tasks == 0 {
            return init();
        }
        let workers = self.threads.min(tasks);
        let telemetry = lc_telemetry::active();
        let req = lc_telemetry::current_request();
        let _span = span_in!("pool", "fold", tasks = tasks, workers = workers);
        let next = AtomicUsize::new(0);
        let next = &next;
        let init = &init;
        let step = &step;
        let partials: Vec<A> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(move || {
                        let _scope = lc_telemetry::request_scope(req);
                        let mut acc = init();
                        worker_loop(next, tasks, |i| step(&mut acc, i), telemetry, cancel);
                        acc
                    })
                })
                .collect();
            handles
                .into_iter()
                // Deliberate propagation, with the worker's own message.
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        let mut iter = partials.into_iter();
        let first = iter.next().expect("at least one worker"); // invariant: pool has >= 1 worker
        iter.fold(first, merge)
    }
}

impl Default for Pool {
    fn default() -> Self {
        Self::with_default_threads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn run_visits_every_index_once() {
        let pool = Pool::new(4);
        let n = 1000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.run(n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn run_zero_tasks_is_noop() {
        Pool::new(4).run(0, |_| panic!("must not be called"));
    }

    #[test]
    fn run_single_thread_is_sequential() {
        let pool = Pool::new(1);
        let order = std::sync::Mutex::new(Vec::new());
        pool.run(10, |i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn map_preserves_index_order() {
        let pool = Pool::new(8);
        let out = pool.map(257, |i| i * i);
        assert_eq!(out.len(), 257);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn run_with_state_reuses_per_worker_state() {
        let pool = Pool::new(3);
        let n = 500;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let states = AtomicUsize::new(0);
        pool.run_with_state(
            n,
            || {
                states.fetch_add(1, Ordering::Relaxed);
                Vec::<u8>::new()
            },
            |scratch, i| {
                scratch.push(0); // state persists across this worker's tasks
                hits[i].fetch_add(1, Ordering::Relaxed);
            },
        );
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert!(states.load(Ordering::Relaxed) <= 3, "one state per worker");
    }

    #[test]
    fn fold_cancellable_stops_at_claim_boundary() {
        let pool = Pool::new(4);
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let cancel = crate::CancelToken::new();
        let cancel_ref = &cancel;
        let done = pool.fold_cancellable(
            n,
            Some(cancel_ref),
            || 0usize,
            |claimed, i| {
                *claimed += 1;
                if i == 29 {
                    cancel_ref.cancel();
                }
                hits[i].fetch_add(1, Ordering::Relaxed);
            },
            |a, b| a + b,
        );
        assert!(
            hits[29].load(Ordering::Relaxed) == 1,
            "claimed task finished"
        );
        assert!(done < n, "cancellation must leave unclaimed tasks");
        assert_eq!(
            done,
            hits.iter()
                .map(|h| h.load(Ordering::Relaxed))
                .sum::<usize>(),
            "every worker's partial is merged"
        );
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) <= 1));
    }

    #[test]
    fn fold_cancellable_untripped_matches_fold() {
        let pool = Pool::new(3);
        let total = pool.fold_cancellable(
            500,
            Some(&crate::CancelToken::new()),
            || 0u64,
            |acc, i| *acc += i as u64,
            |a, b| a + b,
        );
        assert_eq!(total, 500 * 499 / 2);
    }

    #[test]
    fn fold_sums_all_tasks() {
        let pool = Pool::new(5);
        let total = pool.fold(10_000, || 0u64, |acc, i| *acc += i as u64, |a, b| a + b);
        assert_eq!(total, 10_000u64 * 9_999 / 2);
    }

    #[test]
    fn fold_zero_tasks_returns_init() {
        let pool = Pool::new(4);
        let v = pool.fold(0, || 42u64, |_, _| panic!(), |a, _| a);
        assert_eq!(v, 42);
    }

    #[test]
    fn map_cancellable_without_cancel_matches_map() {
        let pool = Pool::new(4);
        let out = pool.map_cancellable(100, &crate::CancelToken::new(), |i| i * 3);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, Some(i * 3));
        }
    }

    #[test]
    fn pre_cancelled_token_claims_nothing() {
        let pool = Pool::new(4);
        let cancel = crate::CancelToken::new();
        cancel.cancel();
        let out = pool.map_cancellable(50, &cancel, |_| panic!("must not run"));
        assert!(out.iter().all(|v| v.is_none()));
    }

    #[test]
    fn mid_run_cancel_yields_partial_prefix_free_drain() {
        let pool = Pool::new(4);
        let cancel = crate::CancelToken::new();
        let n = 10_000;
        let cancel_ref = &cancel;
        let out = pool.map_cancellable(n, cancel_ref, |i| {
            if i == 17 {
                cancel_ref.cancel();
            }
            i
        });
        // Every claimed task completed and landed in its own slot; the
        // cancel point guarantees at least one ran and (with n far larger
        // than anything 4 workers get through before noticing) at least
        // one was never claimed.
        let done: Vec<usize> = out.iter().flatten().copied().collect();
        assert!(done.contains(&17));
        assert!(done.len() < n, "cancellation must leave unclaimed tasks");
        for (i, v) in out.iter().enumerate() {
            if let Some(x) = v {
                assert_eq!(*x, i);
            }
        }
    }

    #[test]
    fn tasks_fewer_than_threads() {
        let pool = Pool::new(16);
        let sum = AtomicU64::new(0);
        pool.run(3, |i| {
            sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
    }
}
