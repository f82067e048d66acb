//! Bounded, tenant-fair admission queue with in-flight request dedup,
//! end-to-end deadlines, and per-tenant caps.
//!
//! The daemon's contention policy lives here, generic over the job and
//! result types so it is unit-testable without a trained model:
//!
//! * **Admission control** — at most `limit` requests queue; the next one
//!   is refused with a typed [`ScanError::Overloaded`] carrying a
//!   retry-after hint that scales with queue pressure (see
//!   [`FairQueue::retry_hint`]). The daemon sheds load instead of
//!   queueing unboundedly.
//! * **Fairness** — tenants take turns: workers pop from a round-robin
//!   rotation of tenants with queued work, so one tenant flooding the
//!   queue cannot starve another's single request (it waits behind at
//!   most one job per other tenant, not behind the flood).
//! * **In-flight dedup** — a request identical (same tenant, same
//!   fingerprint) to one already queued or executing joins that job's
//!   waiter list instead of queueing again: two clients auditing the same
//!   image trigger one computation, and each still gets its own
//!   correctly-tagged response.
//! * **Deadlines** — each [`Waiter`] may carry an absolute deadline.
//!   [`FairQueue::next`] prunes expired waiters at pop time and *discards*
//!   a job whose every waiter has expired without ever burning an
//!   executor slot; the expired waiters are handed to the caller so each
//!   can be answered with a typed
//!   [`ScanError::DeadlineExceeded`].
//!   A job that still has live waiters returns the strictest *surviving*
//!   envelope (`None` if any waiter is unbounded, else the latest
//!   deadline) for the executor's cancellation token.
//! * **Per-tenant cap** — on top of the global bound, a tenant may hold
//!   at most `tenant_cap` distinct jobs (queued + executing); the next
//!   distinct job is refused with a typed `QuotaExceeded`. Dedup joins
//!   are exempt: they consume no execution capacity.
//! * **Drain** — a state machine `Running → Draining → Stopped`. Draining
//!   refuses new work ([`ScanError::Draining`]), lets queued + in-flight
//!   work finish, and wakes the drain caller when the queue is idle.
//!
//! Everything synchronizes on one `Mutex` + two `Condvar`s (`ready` for
//! workers, `idle` for drainers); the service state lives *inside* the
//! mutex so a state flip can never race a worker's decision to sleep.

use patchecko_core::error::ScanError;
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Service lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// Accepting and executing work.
    Running,
    /// Refusing new work; queued and in-flight work is finishing.
    Draining,
    /// All work finished; workers have been told to exit.
    Stopped,
}

/// How an admitted request entered the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admitted {
    /// A new job was queued.
    Queued,
    /// The request joined an identical job already queued or executing.
    Joined,
}

/// A job identity: (tenant, fingerprint of the operation).
pub type JobKey = (String, u64);

/// One client awaiting a job's result under its own request tag, with
/// its (optional) end-to-end deadline.
pub struct Waiter<R> {
    /// The request tag echoed back in the response.
    pub tag: u64,
    /// Absolute expiry instant; `None` waits indefinitely.
    pub deadline: Option<Instant>,
    /// The millisecond budget behind `deadline` (0 when unbounded) —
    /// retained so a typed `DeadlineExceeded` can name the envelope.
    pub budget_ms: u64,
    /// Where the `(tag, result)` pair is delivered.
    pub tx: Sender<(u64, R)>,
}

impl<R> Waiter<R> {
    /// A waiter with no deadline.
    pub fn unbounded(tag: u64, tx: Sender<(u64, R)>) -> Waiter<R> {
        Waiter { tag, deadline: None, budget_ms: 0, tx }
    }

    /// Whether this waiter's deadline has passed at `now`.
    fn expired_at(&self, now: Instant) -> bool {
        matches!(self.deadline, Some(d) if now >= d)
    }
}

/// The clients awaiting a job's result.
pub type Waiters<R> = Vec<Waiter<R>>;

/// A popped job, as handed to an executor: its key, the job itself, and
/// the strictest surviving deadline envelope — `None` when any live
/// waiter is unbounded, otherwise the latest live `(deadline, budget_ms)`.
pub type PoppedJob<J> = (JobKey, J, Option<(Instant, u64)>);

struct Entry<J, R> {
    job: J,
    enqueued: Instant,
    waiters: Waiters<R>,
}

struct Inner<J, R> {
    state: State,
    jobs: HashMap<JobKey, Entry<J, R>>,
    per_tenant: HashMap<String, VecDeque<JobKey>>,
    rotation: VecDeque<String>,
    // Distinct jobs (queued + in flight) per tenant, for the tenant cap.
    load: HashMap<String, usize>,
    depth: usize,
    in_flight: usize,
}

impl<J, R> Inner<J, R> {
    fn load_dec(&mut self, tenant: &str) {
        if let Some(n) = self.load.get_mut(tenant) {
            *n -= 1;
            if *n == 0 {
                self.load.remove(tenant);
            }
        }
    }
}

/// The tenant-fair bounded queue. `J` is the job payload workers execute;
/// `R` is the (cloneable) result broadcast to every waiter.
pub struct FairQueue<J, R> {
    inner: Mutex<Inner<J, R>>,
    ready: Condvar,
    idle: Condvar,
    limit: usize,
    retry_after_ms: u64,
    tenant_cap: Option<usize>,
}

impl<J: Clone, R: Clone> FairQueue<J, R> {
    /// A queue admitting at most `limit` jobs, advertising a pressure-
    /// scaled multiple of `retry_after_ms` in its typed rejections.
    pub fn new(limit: usize, retry_after_ms: u64) -> FairQueue<J, R> {
        FairQueue {
            inner: Mutex::new(Inner {
                state: State::Running,
                jobs: HashMap::new(),
                per_tenant: HashMap::new(),
                rotation: VecDeque::new(),
                load: HashMap::new(),
                depth: 0,
                in_flight: 0,
            }),
            ready: Condvar::new(),
            idle: Condvar::new(),
            limit: limit.max(1),
            retry_after_ms,
            tenant_cap: None,
        }
    }

    /// Cap the distinct jobs (queued + executing) any one tenant may hold;
    /// `None` leaves only the global bound.
    pub fn with_tenant_cap(mut self, cap: Option<usize>) -> FairQueue<J, R> {
        self.tenant_cap = cap.map(|c| c.max(1));
        self
    }

    /// The admission limit.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Current (state, queued, in-flight).
    pub fn status(&self) -> (State, usize, usize) {
        let inner = self.inner.lock().expect("queue lock");
        (inner.state, inner.depth, inner.in_flight)
    }

    /// The backoff hint for a rejection issued under `pressure` live jobs
    /// (queued + in flight): the configured base, scaled linearly with
    /// `pressure / queue_limit` up to 8× base, so clients back off harder
    /// exactly when the service is deepest under water. An empty queue
    /// hints the base itself.
    pub fn retry_hint(&self, pressure: usize) -> u64 {
        let base = self.retry_after_ms.max(1);
        let scaled = base + (base * 3).saturating_mul(pressure as u64) / self.limit as u64;
        scaled.min(base * 8)
    }

    /// Submit a request: the waiter receives `(tag, result)` when the job
    /// completes. Identical in-flight requests coalesce.
    ///
    /// # Errors
    /// [`ScanError::Draining`] once drain has begun;
    /// [`ScanError::Overloaded`] when the queue is full; `QuotaExceeded`
    /// when the tenant's distinct-job cap is reached.
    pub fn submit(
        &self,
        tenant: &str,
        fingerprint: u64,
        job: &J,
        waiter: Waiter<R>,
    ) -> Result<Admitted, ScanError> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.state != State::Running {
            return Err(ScanError::Draining);
        }
        let key: JobKey = (tenant.to_string(), fingerprint);
        if let Some(entry) = inner.jobs.get_mut(&key) {
            entry.waiters.push(waiter);
            return Ok(Admitted::Joined);
        }
        let pressure = inner.depth + inner.in_flight;
        if let Some(cap) = self.tenant_cap {
            if inner.load.get(tenant).copied().unwrap_or(0) >= cap {
                return Err(ScanError::QuotaExceeded {
                    tenant: tenant.to_string(),
                    retry_after_ms: self.retry_hint(pressure),
                });
            }
        }
        if inner.depth >= self.limit {
            return Err(ScanError::Overloaded {
                queue_depth: inner.depth,
                queue_limit: self.limit,
                retry_after_ms: self.retry_hint(pressure),
            });
        }
        inner.jobs.insert(
            key.clone(),
            Entry { job: job.clone(), enqueued: Instant::now(), waiters: vec![waiter] },
        );
        let queue = inner.per_tenant.entry(tenant.to_string()).or_default();
        queue.push_back(key);
        if queue.len() == 1 {
            inner.rotation.push_back(tenant.to_string());
        }
        *inner.load.entry(tenant.to_string()).or_insert(0) += 1;
        inner.depth += 1;
        drop(inner);
        self.ready.notify_one();
        Ok(Admitted::Queued)
    }

    /// Block until a job is available (rotating fairly across tenants) or
    /// the queue shuts down. `None` tells the worker to exit: the queue
    /// is stopped, or draining with nothing left to run.
    ///
    /// Deadline enforcement happens here, at pop time: waiters whose
    /// deadline has already passed are pruned and handed to `on_expired`
    /// (keyed by the job they were waiting on) so the caller can answer
    /// each with a typed `DeadlineExceeded`. A job left with *no* live
    /// waiters is discarded outright — it never reaches an executor —
    /// and the loop moves on to the next queued job. A surviving job
    /// returns the strictest remaining envelope: `None` if any live
    /// waiter is unbounded, otherwise the latest live deadline.
    pub fn next(
        &self,
        mut on_expired: impl FnMut(&JobKey, Waiters<R>),
    ) -> Option<PoppedJob<J>> {
        let mut expired_batches: Vec<(JobKey, Waiters<R>)> = Vec::new();
        let mut became_idle = false;
        let popped = {
            let mut inner = self.inner.lock().expect("queue lock");
            loop {
                if let Some(tenant) = inner.rotation.pop_front() {
                    let queue =
                        inner.per_tenant.get_mut(&tenant).expect("rotated tenant has a queue");
                    let key = queue.pop_front().expect("rotated tenant queue is non-empty");
                    if queue.is_empty() {
                        inner.per_tenant.remove(&tenant);
                    } else {
                        inner.rotation.push_back(tenant.clone());
                    }
                    inner.depth -= 1;
                    let now = Instant::now();
                    let entry = inner.jobs.get_mut(&key).expect("queued job has an entry");
                    let expired: Waiters<R> = {
                        let mut kept = Vec::new();
                        let mut gone = Vec::new();
                        for w in entry.waiters.drain(..) {
                            if w.expired_at(now) {
                                gone.push(w);
                            } else {
                                kept.push(w);
                            }
                        }
                        entry.waiters = kept;
                        gone
                    };
                    if entry.waiters.is_empty() {
                        // Every waiter's deadline passed while the job sat
                        // queued: discard it without burning an executor
                        // slot and try the next job.
                        inner.jobs.remove(&key);
                        inner.load_dec(&tenant);
                        expired_batches.push((key, expired));
                        if inner.depth == 0 && inner.in_flight == 0 {
                            became_idle = true;
                        }
                        continue;
                    }
                    // The strictest envelope that still satisfies every
                    // live waiter: any unbounded waiter means the job
                    // must run to completion; otherwise the latest
                    // deadline (with its budget, for typed errors) wins.
                    let mut envelope: Option<(Instant, u64)> = None;
                    let mut bounded = true;
                    for w in &entry.waiters {
                        match w.deadline {
                            None => {
                                bounded = false;
                                break;
                            }
                            Some(d) => {
                                if envelope.is_none_or(|(a, _)| d > a) {
                                    envelope = Some((d, w.budget_ms));
                                }
                            }
                        }
                    }
                    let deadline = if bounded { envelope } else { None };
                    let job = entry.job.clone();
                    inner.in_flight += 1;
                    if !expired.is_empty() {
                        expired_batches.push((key.clone(), expired));
                    }
                    break Some((key, job, deadline));
                }
                if inner.state != State::Running {
                    break None;
                }
                inner = self.ready.wait(inner).expect("queue lock");
            }
        };
        if became_idle {
            self.idle.notify_all();
        }
        for (key, waiters) in expired_batches {
            on_expired(&key, waiters);
        }
        popped
    }

    /// Retire a job without waking its waiters yet: remove it from the
    /// in-flight set and return its admission-to-completion latency plus
    /// the waiter list. The caller records telemetry *before* passing the
    /// waiters to [`broadcast`], so a client released by the
    /// broadcast can never observe counters that predate its own job.
    pub fn settle(&self, key: &JobKey) -> (Duration, Waiters<R>) {
        let (entry, drained) = {
            let mut inner = self.inner.lock().expect("queue lock");
            let entry = inner.jobs.remove(key).expect("settled job has an entry");
            inner.in_flight -= 1;
            inner.load_dec(&key.0);
            (entry, inner.depth == 0 && inner.in_flight == 0)
        };
        if drained {
            self.idle.notify_all();
        }
        (entry.enqueued.elapsed(), entry.waiters)
    }

    /// [`FairQueue::settle`] + [`broadcast`] in one step.
    pub fn complete(&self, key: &JobKey, result: R) -> Duration {
        let (latency, waiters) = self.settle(key);
        broadcast(waiters, result);
        latency
    }

    /// Begin (or join) a drain: refuse new work, wait until every queued
    /// and in-flight job has completed. Returns whether this caller
    /// initiated the drain (the initiator persists and then [`FairQueue::stop`]s).
    pub fn drain_wait(&self) -> bool {
        let mut inner = self.inner.lock().expect("queue lock");
        let initiator = inner.state == State::Running;
        if initiator {
            inner.state = State::Draining;
            // Idle workers re-check state and exit once the queue empties.
            self.ready.notify_all();
        }
        while inner.depth > 0 || inner.in_flight > 0 {
            inner = self.idle.wait(inner).expect("queue lock");
        }
        initiator
    }

    /// Final transition: tell every worker to exit.
    pub fn stop(&self) {
        let mut inner = self.inner.lock().expect("queue lock");
        inner.state = State::Stopped;
        drop(inner);
        self.ready.notify_all();
    }
}

/// Deliver `result` to every waiter from [`FairQueue::settle`], each
/// under its own tag — late joiners from dedup included.
pub fn broadcast<R: Clone>(waiters: Waiters<R>, result: R) {
    for w in waiters {
        // A waiter whose connection died mid-request dropped its
        // receiver; the send just fails and the job's other waiters
        // (and the cache warm-up) are unaffected.
        let _ = w.tx.send((w.tag, result.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn queue(limit: usize) -> FairQueue<u32, u32> {
        FairQueue::new(limit, 25)
    }

    fn no_expiry(_: &JobKey, _: Waiters<u32>) {
        panic!("no waiter should expire in this test");
    }

    #[test]
    fn rotation_interleaves_tenants_fairly() {
        let q = queue(16);
        // Tenant "flood" queues four jobs before "meek" queues one.
        for i in 0..4 {
            let (tx, _rx) = channel();
            q.submit("flood", i, &(i as u32), Waiter::unbounded(0, tx)).unwrap();
        }
        let (tx, _rx) = channel();
        q.submit("meek", 100, &100, Waiter::unbounded(0, tx)).unwrap();

        let first = q.next(no_expiry).unwrap();
        let second = q.next(no_expiry).unwrap();
        assert_eq!(first.0 .0, "flood");
        assert_eq!(second.0 .0, "meek", "one queued job is enough to take the second turn");
        let rest: Vec<String> = (0..3).map(|_| q.next(no_expiry).unwrap().0 .0).collect();
        assert_eq!(rest, ["flood"; 3], "the flood then finishes in order");
    }

    #[test]
    fn admission_rejects_above_the_limit_with_a_typed_hint() {
        let q = queue(2);
        for i in 0..2 {
            let (tx, _rx) = channel();
            q.submit("t", i, &0, Waiter::unbounded(0, tx)).unwrap();
        }
        let (tx, _rx) = channel();
        match q.submit("t", 99, &0, Waiter::unbounded(0, tx)) {
            Err(ScanError::Overloaded { queue_depth, queue_limit, retry_after_ms }) => {
                assert_eq!((queue_depth, queue_limit), (2, 2));
                assert_eq!(retry_after_ms, q.retry_hint(2), "hint reflects pressure at rejection");
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // In-flight jobs do not occupy queue slots: popping one admits one.
        let popped = q.next(no_expiry).unwrap();
        let (tx, _rx) = channel();
        q.submit("t", 99, &0, Waiter::unbounded(0, tx)).unwrap();
        q.complete(&popped.0, 0);
    }

    #[test]
    fn retry_hint_scales_with_pressure_and_saturates() {
        let q = queue(8); // base 25ms
        assert_eq!(q.retry_hint(0), 25, "empty queue hints the base");
        assert!(q.retry_hint(4) > q.retry_hint(0));
        assert_eq!(q.retry_hint(8), 100, "full queue hints 4x base");
        assert!(q.retry_hint(12) > q.retry_hint(8), "in-flight pressure keeps scaling");
        assert_eq!(q.retry_hint(1000), 200, "hint saturates at 8x base");
        let monotone: Vec<u64> = (0..32).map(|p| q.retry_hint(p)).collect();
        assert!(monotone.windows(2).all(|w| w[0] <= w[1]), "{monotone:?}");
    }

    #[test]
    fn identical_requests_coalesce_and_all_waiters_hear_the_result() {
        let q = queue(8);
        let (tx1, rx1) = channel();
        let (tx2, rx2) = channel();
        let (tx3, rx3) = channel();
        assert_eq!(q.submit("t", 7, &41, Waiter::unbounded(101, tx1)).unwrap(), Admitted::Queued);
        assert_eq!(q.submit("t", 7, &41, Waiter::unbounded(102, tx2)).unwrap(), Admitted::Joined);
        let (key, job, deadline) = q.next(no_expiry).unwrap();
        assert!(deadline.is_none(), "unbounded waiters leave the job unbounded");
        // A waiter arriving while the job executes still joins it.
        assert_eq!(q.submit("t", 7, &41, Waiter::unbounded(103, tx3)).unwrap(), Admitted::Joined);
        assert_eq!(q.status().1, 0, "three requests, one queue slot");
        q.complete(&key, job + 1);
        assert_eq!(rx1.recv().unwrap(), (101, 42), "each waiter gets its own tag back");
        assert_eq!(rx2.recv().unwrap(), (102, 42));
        assert_eq!(rx3.recv().unwrap(), (103, 42));
        // Different tenant, same fingerprint: never coalesced.
        let (tx, _rx) = channel();
        assert_eq!(q.submit("other", 7, &41, Waiter::unbounded(104, tx)).unwrap(), Admitted::Queued);
    }

    #[test]
    fn expired_jobs_are_discarded_at_pop_without_burning_a_slot() {
        let q = queue(8);
        let past = Instant::now() - Duration::from_millis(5);
        let (tx_dead, _rx_dead) = channel();
        q.submit(
            "a",
            1,
            &10,
            Waiter { tag: 7, deadline: Some(past), budget_ms: 3, tx: tx_dead },
        )
        .unwrap();
        let (tx_live, rx_live) = channel();
        q.submit("b", 2, &20, Waiter::unbounded(8, tx_live)).unwrap();

        let mut expired: Vec<(JobKey, u64, u64)> = Vec::new();
        let (key, job, _) = q
            .next(|k, ws| {
                for w in ws {
                    expired.push((k.clone(), w.tag, w.budget_ms));
                }
            })
            .unwrap();
        assert_eq!(key.0, "b", "the expired job was skipped, the live one popped");
        assert_eq!(expired, vec![(("a".to_string(), 1), 7, 3)]);
        let (_, depth, in_flight) = q.status();
        assert_eq!((depth, in_flight), (0, 1), "discard never entered in_flight");
        q.complete(&key, job);
        assert_eq!(rx_live.recv().unwrap(), (8, 20));
        // The discarded tenant's load was released: it can submit again.
        let (tx, _rx) = channel();
        assert_eq!(q.submit("a", 3, &30, Waiter::unbounded(9, tx)).unwrap(), Admitted::Queued);
    }

    #[test]
    fn partially_expired_job_still_runs_for_its_live_waiters() {
        let q = queue(8);
        let past = Instant::now() - Duration::from_millis(5);
        let future = Instant::now() + Duration::from_secs(60);
        let (tx_dead, _rx_dead) = channel();
        let (tx_live, rx_live) = channel();
        q.submit("t", 1, &5, Waiter { tag: 1, deadline: Some(past), budget_ms: 2, tx: tx_dead })
            .unwrap();
        q.submit(
            "t",
            1,
            &5,
            Waiter { tag: 2, deadline: Some(future), budget_ms: 60_000, tx: tx_live },
        )
        .unwrap();
        let mut expired_tags = Vec::new();
        let (key, job, deadline) = q
            .next(|_, ws| expired_tags.extend(ws.into_iter().map(|w| w.tag)))
            .unwrap();
        assert_eq!(expired_tags, vec![1], "only the expired waiter was pruned");
        assert_eq!(
            deadline,
            Some((future, 60_000)),
            "the surviving envelope (and its budget) bounds the executor"
        );
        q.complete(&key, job);
        assert_eq!(rx_live.recv().unwrap(), (2, 5));
    }

    #[test]
    fn tenant_cap_rejects_distinct_jobs_but_not_joins() {
        let q: FairQueue<u32, u32> = FairQueue::new(16, 25).with_tenant_cap(Some(1));
        let (tx, _rx) = channel();
        q.submit("t", 1, &1, Waiter::unbounded(1, tx)).unwrap();
        // Second distinct job: over the cap, typed rejection.
        let (tx, _rx) = channel();
        match q.submit("t", 2, &2, Waiter::unbounded(2, tx)) {
            Err(ScanError::QuotaExceeded { tenant, retry_after_ms }) => {
                assert_eq!(tenant, "t");
                assert!(retry_after_ms >= 25);
            }
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
        // A dedup join consumes no capacity and is always admitted.
        let (tx, rx) = channel();
        assert_eq!(q.submit("t", 1, &1, Waiter::unbounded(3, tx)).unwrap(), Admitted::Joined);
        // Another tenant is unaffected by t's cap.
        let (tx, _rx) = channel();
        assert_eq!(q.submit("u", 9, &9, Waiter::unbounded(4, tx)).unwrap(), Admitted::Queued);
        // The cap covers execution too: popping t's job keeps it loaded...
        let (key, job, _) = q.next(no_expiry).unwrap();
        assert_eq!(key.0, "t");
        let (tx, _rx) = channel();
        assert!(matches!(
            q.submit("t", 3, &3, Waiter::unbounded(5, tx)),
            Err(ScanError::QuotaExceeded { .. })
        ));
        // ...and settling releases it.
        q.complete(&key, job);
        assert_eq!(rx.recv().unwrap(), (3, 1));
        let (tx, _rx) = channel();
        assert_eq!(q.submit("t", 3, &3, Waiter::unbounded(6, tx)).unwrap(), Admitted::Queued);
    }

    #[test]
    fn drain_refuses_new_work_and_waits_for_the_queue_to_empty() {
        let q = std::sync::Arc::new(queue(8));
        let (tx, rx) = channel();
        q.submit("t", 1, &10, Waiter::unbounded(1, tx)).unwrap();

        let worker = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || {
                while let Some((key, job, _)) = q.next(|_, _| {}) {
                    std::thread::sleep(Duration::from_millis(30));
                    q.complete(&key, job);
                }
            })
        };
        // Give the worker time to pick the job up, then drain mid-flight.
        std::thread::sleep(Duration::from_millis(10));
        assert!(q.drain_wait(), "first drainer initiates");
        let (tx2, _rx2) = channel();
        assert!(matches!(
            q.submit("t", 2, &20, Waiter::unbounded(2, tx2)),
            Err(ScanError::Draining)
        ));
        assert_eq!(rx.recv().unwrap(), (1, 10), "in-flight work finished before drain returned");
        assert_eq!(q.status().0, State::Draining);
        assert!(!q.drain_wait(), "later drainers join, not initiate");
        q.stop();
        worker.join().unwrap();
        assert_eq!(q.status().0, State::Stopped);
    }

    #[test]
    fn draining_queue_of_expired_jobs_reaches_idle() {
        let q = std::sync::Arc::new(queue(8));
        let past = Instant::now() - Duration::from_millis(1);
        let (tx, _rx) = channel();
        q.submit("t", 1, &10, Waiter { tag: 1, deadline: Some(past), budget_ms: 1, tx }).unwrap();
        let worker = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || {
                let mut expired = 0usize;
                while let Some((key, job, _)) = q.next(|_, ws| expired += ws.len()) {
                    q.complete(&key, job);
                }
                expired
            })
        };
        // The only queued job is expired: drain must still observe idle
        // once the worker discards it.
        assert!(q.drain_wait());
        q.stop();
        assert_eq!(worker.join().unwrap(), 1, "the expired waiter was reported");
    }
}
