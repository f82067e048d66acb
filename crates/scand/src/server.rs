//! The scan daemon: one warm [`ScanHub`] serving many tenants over a
//! Unix socket.
//!
//! ## Architecture
//!
//! One accept thread takes connections and hands each to a detached
//! handler thread; handlers speak the [`proto`] framing and
//! *submit* scan/audit work into the shared [`FairQueue`] rather than
//! executing it themselves. A fixed pool of executor threads pops jobs
//! from the queue — round-robin across tenants — and runs them against
//! the one shared hub; the classify chunks and candidate profiling
//! inside each job fan out further onto the process-wide
//! `neural::pool`. `stats` and `drain` never queue:
//! statistics must stay observable *while* the queue is full, and drain
//! must be able to stop a saturated daemon.
//!
//! Tenancy is a cache-namespace property, not a data-path one: every job
//! runs `eval::audit_image` or `Patchecko::analyze_image` with the
//! context of the tenant's store handle
//! ([`ScanHub::tenant_view`](patchecko_scanhub::ScanHub::tenant_view)),
//! which relocates artifact keys into the tenant's namespace, so tenants
//! share the hub's warm memory without ever reading each other's cache
//! entries. Per-tenant counters and latency histograms record under
//! `tenant.<name>.*` in the hub's registry via scoped views.
//!
//! ## Overload & misbehavior survival
//!
//! Beyond the global admission bound, the daemon survives hostile or
//! unlucky tenants (see DESIGN.md §14):
//!
//! * **Deadlines** — a request's `deadline_ms` is converted to an
//!   absolute instant at receipt; the queue discards fully-expired jobs
//!   at pop time, executors carry a [`CancelToken`] checked between
//!   pipeline stages, and the connection layer bounds its wait so a
//!   deduped follower can never hang behind a slower leader.
//! * **Quotas** — an optional per-tenant token bucket
//!   ([`QuotaLedger`]) meters request rates, and the queue caps each
//!   tenant's distinct jobs; both reject with typed `QuotaExceeded`.
//! * **Slow clients** — every connection socket carries read/write
//!   timeouts; a stalled or idle peer is reaped (counted in stats)
//!   instead of pinning a handler thread forever, and a stalled *reader*
//!   hits the write timeout so responses are bounded too.
//! * **Circuit breaker** — per-tenant ([`BreakerLedger`]): after N
//!   consecutive jobs whose dynamic stage failed, the tenant's jobs run
//!   static-only (`Confidence::Degraded`) until a half-open probe
//!   succeeds, so a tenant whose binaries crash the VM cannot monopolize
//!   executors with doomed dynamic work.
//! * **Crash-tolerant restart** — startup connect-probes an existing
//!   socket: a live daemon is refused (`AddrInUse`), a stale socket left
//!   by a killed process is taken over (with the stale owner's pid read
//!   from the daemon's lockfile for the log line). With
//!   `checkpoint_every`, caches persist periodically so a SIGKILL loses
//!   at most the last interval of warm artifacts.
//!
//! Failure model: everything a handler can hit — malformed frames,
//! unknown CVEs, image indices out of range, admission overload, quota
//! or deadline rejections, drain races, worker panics — becomes a typed
//! [`ScanError`] on the wire. A panicking job is caught, answered as
//! [`ScanError::WorkerPanic`] to every waiter of that job, and the
//! executor thread survives.

use crate::breaker::{BreakerConfig, BreakerLedger, DynDecision};
use crate::proto::{
    self, BreakerStats, DrainSummary, Op, Outcome, Request, Response, ScanSummary, ServiceStats,
    TenantStats,
};
use crate::queue::{self, FairQueue, State, Waiter};
use crate::quota::{QuotaLedger, TenantQuota};
use corpus::vulndb::VulnDb;
use fwbin::FirmwareImage;
use patchecko_core::cancel::CancelToken;
use patchecko_core::differential::DifferentialConfig;
use patchecko_core::dynsource::{DynProfile, DynProfileSource, EnvSet, Fnv2};
use patchecko_core::error::ScanError;
use patchecko_core::eval::audit_image;
use patchecko_core::pipeline::RunCtx;
use patchecko_scanhub::ScanHub;
use scope::MetricsRegistry;
use std::collections::BTreeMap;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix socket path to listen on. A stale socket (no listener behind
    /// it) is taken over; a live one is refused.
    pub socket: PathBuf,
    /// Admission limit: requests queued beyond in-flight work. The next
    /// request is refused with [`ScanError::Overloaded`].
    pub queue_limit: usize,
    /// Executor threads popping jobs from the fair queue.
    pub workers: usize,
    /// Base backoff hint carried in typed rejections, milliseconds
    /// (scaled with queue pressure — see [`FairQueue::retry_hint`]).
    pub retry_after_ms: u64,
    /// Socket read/write timeout per connection, milliseconds. Doubles
    /// as the idle-connection reaper: a peer that neither sends a frame
    /// nor drains its responses for this long is disconnected. 0
    /// disables (not recommended outside tests).
    pub io_timeout_ms: u64,
    /// Per-tenant token-bucket rate limit and in-flight cap; `None`
    /// leaves only the global admission bound.
    pub tenant_quota: Option<TenantQuota>,
    /// Dynamic-stage circuit breaker tuning (`threshold: 0` disables).
    pub breaker: BreakerConfig,
    /// Persist the four cache lanes after every N completed jobs (`None` =
    /// only on drain). Saves are atomic, so a SIGKILL mid-checkpoint
    /// never corrupts the cache, and a lane whose file already holds it
    /// is not rewritten; `serve.checkpoints` counts the checkpoints that
    /// wrote a file.
    pub checkpoint_every: Option<u64>,
    /// Chaos seam: tenants whose dynamic stage is forced to fail, as if
    /// every one of their binaries crashed the VM. Test-only — the wire
    /// protocol cannot induce real per-tenant VM crashes since ops only
    /// reference daemon-hosted images.
    pub fault_vm_tenants: Vec<String>,
}

impl ServerConfig {
    /// Defaults: queue limit 64, 4 executors, 25 ms retry hint, 30 s io
    /// timeout, no tenant quota, breaker at 5 failures / 2 s cooldown,
    /// persist on drain only.
    pub fn new(socket: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            socket: socket.into(),
            queue_limit: 64,
            workers: 4,
            retry_after_ms: 25,
            io_timeout_ms: 30_000,
            tenant_quota: None,
            breaker: BreakerConfig::default(),
            checkpoint_every: None,
            fault_vm_tenants: Vec::new(),
        }
    }

    fn io_timeout(&self) -> Option<Duration> {
        (self.io_timeout_ms > 0).then(|| Duration::from_millis(self.io_timeout_ms))
    }
}

/// The tenant label used in telemetry for the empty (anonymous) tenant.
pub const ANONYMOUS_TENANT: &str = "anonymous";

fn tenant_label(tenant: &str) -> &str {
    if tenant.is_empty() {
        ANONYMOUS_TENANT
    } else {
        tenant
    }
}

/// The daemon's pid lockfile for a socket path: `<socket>.pid`.
pub fn lockfile_path(socket: &Path) -> PathBuf {
    PathBuf::from(format!("{}.pid", socket.display()))
}

/// 64-bit FNV-1a (the plain-byte lane of [`Fnv2`]) over the operation's
/// canonical JSON: the in-flight dedup fingerprint. Two requests coalesce
/// only when tenant AND fingerprint match, so namespaces never share a
/// computation's *identity* even when the underlying artifacts would
/// coincide.
fn fingerprint(op: &Op) -> u64 {
    let mut h = Fnv2::new();
    h.update(serde_json::to_string(op).unwrap_or_default().as_bytes());
    h.hi
}

/// A [`DynProfileSource`] that refuses every call with a transient
/// injected-fault error. The pipeline already degrades dynsrc failures
/// to static-only [`Confidence::Degraded`](patchecko_core::pipeline::Confidence)
/// evidence, so substituting this source forces exactly the breaker's
/// "static-only" mode — and the chaos seam's "this tenant's binaries
/// crash the VM" mode — without touching the tenant's cached dynamic
/// lane.
struct RefusingDynSource {
    site: &'static str,
}

impl DynProfileSource for RefusingDynSource {
    fn environments(
        &self,
        _reference: &vm::loader::LoadedBinary,
        _fuzz_cfg: &vm::fuzz::FuzzConfig,
        _vm: &vm::exec::VmConfig,
    ) -> Result<EnvSet, ScanError> {
        Err(ScanError::Injected { site: self.site.into(), detail: "dynamic stage refused".into() })
    }

    fn profile(
        &self,
        _target: &vm::loader::LoadedBinary,
        _func: usize,
        _envs: &EnvSet,
        _vm: &vm::exec::VmConfig,
    ) -> Result<DynProfile, ScanError> {
        Err(ScanError::Injected { site: self.site.into(), detail: "dynamic stage refused".into() })
    }
}

struct Shared {
    cfg: ServerConfig,
    hub: Arc<ScanHub>,
    images: Arc<Vec<FirmwareImage>>,
    db: Arc<VulnDb>,
    diff: DifferentialConfig,
    queue: FairQueue<Op, Outcome>,
    quota: Option<QuotaLedger>,
    breaker: BreakerLedger,
    /// Substituted for a tenant's dynamic source while its breaker is
    /// open (or half-open with a probe already outstanding).
    tripped_dynsrc: Arc<dyn DynProfileSource>,
    /// Substituted for `fault_vm_tenants` — the chaos seam.
    chaos_dynsrc: Arc<dyn DynProfileSource>,
    /// Completed-job counter driving periodic checkpoints.
    completed_jobs: AtomicU64,
    /// Serializes checkpoint/drain persistence.
    persist_lock: std::sync::Mutex<()>,
    /// Queued-op responses accepted but not yet written to their
    /// sockets. Drain waits for zero so no accepted request's response
    /// can be cut off by process exit after [`ScanServer::join`].
    replies: std::sync::Mutex<usize>,
    replies_idle: std::sync::Condvar,
}

impl Shared {
    fn registry(&self) -> &Arc<MetricsRegistry> {
        self.hub.registry()
    }

    fn count(&self, tenant: &str, which: &str) {
        self.registry().scoped(&format!("tenant.{}", tenant_label(tenant))).add(which, 1);
        self.registry().add(&format!("serve.{which}"), 1);
    }

    fn image(&self, index: usize) -> Result<&FirmwareImage, ScanError> {
        self.images
            .get(index)
            .ok_or(ScanError::ImageOutOfRange { index, images: self.images.len() })
    }

    fn execute(&self, op: &Op, ctx: &RunCtx) -> Outcome {
        let analyzer = &self.hub.analyzer;
        match op {
            Op::Scan { image, cve, basis } => {
                let img = match self.image(*image) {
                    Ok(img) => img,
                    Err(e) => return Outcome::Error(e),
                };
                let Some(entry) = self.db.get(cve) else {
                    return Outcome::Error(ScanError::UnknownCve(cve.clone()));
                };
                match analyzer.analyze_image(img, &[(entry, *basis)], ctx) {
                    Ok(analyses) => Outcome::Scan(ScanSummary::from_analysis(
                        analyses.first().expect("one analysis per pair"),
                    )),
                    Err(e) => Outcome::Error(e),
                }
            }
            Op::Audit { image } => match self
                .image(*image)
                .and_then(|img| audit_image(analyzer, &self.db, img, &self.diff, ctx))
            {
                Ok(report) => Outcome::Audit(Box::new(report)),
                Err(e) => Outcome::Error(e),
            },
            Op::BatchAudit { images } => {
                let mut reports = Vec::with_capacity(images.len());
                for &index in images {
                    match self
                        .image(index)
                        .and_then(|img| audit_image(analyzer, &self.db, img, &self.diff, ctx))
                    {
                        Ok(report) => reports.push(report),
                        Err(e) => return Outcome::Error(e),
                    }
                }
                Outcome::BatchAudit(reports)
            }
            // Stats and drain are answered at the connection layer; a
            // queued copy reaching an executor is a protocol bug.
            Op::Stats | Op::Drain => Outcome::Error(ScanError::Protocol {
                detail: "stats/drain are control operations and are never queued".into(),
            }),
        }
    }

    /// Whether an outcome's dynamic stage failed: every path through the
    /// pipeline marks static-only fallback as degraded findings/analyses.
    fn dyn_failed(outcome: &Outcome) -> bool {
        match outcome {
            Outcome::Audit(r) => r.findings.iter().any(|f| f.degraded),
            Outcome::BatchAudit(rs) => {
                rs.iter().any(|r| r.findings.iter().any(|f| f.degraded))
            }
            Outcome::Scan(s) => s.degraded > 0,
            _ => false,
        }
    }

    fn stats(&self) -> ServiceStats {
        let (state, queue_depth, in_flight) = self.queue.status();
        let snapshot = self.hub.telemetry_snapshot();
        let mut tenants = BTreeMap::new();
        for name in snapshot.names_under("tenant") {
            let view = snapshot.filtered(&format!("tenant.{name}"));
            let breaker = (self.cfg.breaker.threshold > 0).then(|| {
                let (state, trips) = self.breaker.state(&name);
                BreakerStats { state, trips }
            });
            tenants.insert(
                name,
                TenantStats {
                    accepted: view.counter("accepted"),
                    deduped: view.counter("deduped"),
                    rejected: view.counter("rejected"),
                    completed: view.counter("completed"),
                    failed: view.counter("failed"),
                    expired: view.counter("expired"),
                    quota_rejected: view.counter("quota_rejected"),
                    degraded_jobs: view.counter("degraded_jobs"),
                    breaker,
                    latency: view.duration("latency").cloned(),
                },
            );
        }
        let opened = snapshot.counter("serve.connections");
        let closed = snapshot.counter("serve.connections_closed");
        ServiceStats {
            state: match state {
                State::Running => "running".into(),
                State::Draining | State::Stopped => "draining".into(),
            },
            queue_depth,
            queue_limit: self.queue.limit(),
            in_flight,
            images: self.images.len(),
            open_connections: opened.saturating_sub(closed),
            reaped_connections: snapshot.counter("serve.reaped"),
            expired_at_executor: snapshot.counter("serve.expired_at_executor"),
            tenants,
            cache: self.hub.stats(),
            vm_executions: snapshot.counter("vm.executions"),
            telemetry: snapshot,
        }
    }

    /// Drain: refuse new work, let queued + in-flight jobs finish AND
    /// their responses reach the wire, then persist the caches.
    /// Idempotent — a second concurrent drain waits for the same idle
    /// point and reports `persisted: false`. Stopping the executors and
    /// accept loop happens in [`Shared::shutdown`], which the connection
    /// handler calls only *after* the drain response itself is written —
    /// so neither job responses nor the drain acknowledgement can be cut
    /// off by the process exiting right after [`ScanServer::join`].
    fn drain(&self) -> DrainSummary {
        let initiator = self.queue.drain_wait();
        let mut pending = self.replies.lock().expect("replies lock");
        while *pending > 0 {
            pending = self.replies_idle.wait(pending).expect("replies lock");
        }
        drop(pending);
        let persisted = if initiator {
            let _guard = self.persist_lock.lock().expect("persist lock");
            self.hub.persist().unwrap_or(false)
        } else {
            false
        };
        DrainSummary { persisted }
    }

    /// Stop the executors and unblock the accept loop so it observes the
    /// stop and exits. Idempotent.
    fn shutdown(&self) {
        self.queue.stop();
        let _ = UnixStream::connect(&self.cfg.socket);
    }

    /// Answer waiters whose deadline passed while their job sat queued:
    /// each gets the typed error naming its own budget. The per-request
    /// `expired` counter is recorded by the waiter's own connection
    /// handler (whose bounded wait expires at the same deadline), so the
    /// queue side only delivers — it never double-counts.
    fn expire_waiters(&self, waiters: queue::Waiters<Outcome>) {
        for w in waiters {
            let err = ScanError::DeadlineExceeded { budget_ms: w.budget_ms };
            let _ = w.tx.send((w.tag, Outcome::Error(err)));
        }
    }

    fn checkpoint(&self) {
        if let Some(every) = self.cfg.checkpoint_every {
            let done = self.completed_jobs.fetch_add(1, Ordering::Relaxed) + 1;
            if every > 0 && done.is_multiple_of(every) {
                let _guard = self.persist_lock.lock().expect("persist lock");
                if self.hub.persist().unwrap_or(false) {
                    self.registry().add("serve.checkpoints", 1);
                }
            }
        }
    }

    fn worker_loop(&self) {
        while let Some((key, op, envelope)) =
            self.queue.next(|_, waiters| self.expire_waiters(waiters))
        {
            let tenant = key.0.clone();
            let cancel = match envelope {
                Some((deadline, budget_ms)) => CancelToken::with_deadline(deadline, budget_ms),
                None => CancelToken::unbounded(),
            };
            if cancel.expired() {
                // The deadline passed in the instants between pop and
                // here: refuse to run the job at all. This counter is
                // the soak's "no executor ever ran expired work" oracle
                // together with the stage-boundary checks inside run.
                self.registry().add("serve.expired_at_executor", 1);
                let (_latency, waiters) = self.queue.settle(&key);
                self.expire_waiters(waiters);
                continue;
            }
            let decision = self.breaker.before_job(tenant_label(&tenant));
            let chaos = self
                .cfg
                .fault_vm_tenants
                .iter()
                .any(|t| t == tenant_label(&tenant));
            // The breaker and the chaos seam swap only the dynamic source:
            // the tenant's static namespace still serves warm artifacts,
            // and its dynamic lane is left untouched rather than poisoned.
            let view = self.hub.tenant_view(&tenant);
            let mut ctx = view.ctx(cancel);
            match decision {
                DynDecision::Shed => ctx.profiles = Arc::clone(&self.tripped_dynsrc),
                // A chaos tenant still "attempts" dynamics — they fail,
                // feeding the breaker exactly like real VM crashes.
                DynDecision::Attempt | DynDecision::Probe if chaos => {
                    ctx.profiles = Arc::clone(&self.chaos_dynsrc);
                }
                _ => {}
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| self.execute(&op, &ctx)))
                .unwrap_or_else(|payload| Outcome::Error(ScanError::from_panic(payload.as_ref())));
            let dyn_failed = Self::dyn_failed(&outcome);
            if decision != DynDecision::Shed {
                self.breaker.after_job(tenant_label(&tenant), decision, dyn_failed);
            }
            if dyn_failed {
                self.count(&tenant, "degraded_jobs");
            }
            let ok = !matches!(outcome, Outcome::Error(_));
            // Counters and latency are recorded between retiring the job
            // and waking its waiters: a client released by the broadcast
            // always sees its own job reflected in `stats`.
            let (latency, waiters) = self.queue.settle(&key);
            self.registry()
                .scoped(&format!("tenant.{}", tenant_label(&tenant)))
                .record("latency", latency);
            self.count(&tenant, if ok { "completed" } else { "failed" });
            queue::broadcast(waiters, outcome);
            if ok {
                self.checkpoint();
            }
        }
    }

    fn handle_conn(&self, mut stream: UnixStream) {
        // Slow-client protection: a peer that stalls mid-frame, never
        // sends the next request, or never drains its responses hits
        // these timeouts instead of pinning this thread forever.
        let _ = stream.set_read_timeout(self.cfg.io_timeout());
        let _ = stream.set_write_timeout(self.cfg.io_timeout());
        self.registry().add("serve.connections", 1);
        // Balance the open-connections gauge on every exit path.
        struct Closed<'a>(&'a Shared);
        impl Drop for Closed<'_> {
            fn drop(&mut self) {
                self.0.registry().add("serve.connections_closed", 1);
            }
        }
        let _closed = Closed(self);
        loop {
            let request: Request = match proto::recv(&mut stream) {
                Ok(Some(request)) => request,
                // Clean hangup between frames: the client is done.
                Ok(None) => return,
                // A socket timeout is the reaper firing on a stalled or
                // idle peer: drop the connection without a reply (the
                // peer isn't reading anyway). In-flight jobs of *other*
                // connections are untouched — reaping only abandons this
                // handler's receive loop.
                Err(e) if proto::is_timeout(&e) => {
                    self.registry().add("serve.reaped", 1);
                    return;
                }
                // Malformed frame (truncation, bogus length, garbage
                // JSON): best-effort typed reply, then drop the one
                // connection. The request tag is unknowable, so protocol
                // errors are the one response class tagged 0.
                Err(e) => {
                    let _ =
                        proto::send(&mut stream, &Response { tag: 0, outcome: Outcome::Error(e) });
                    return;
                }
            };
            let queued = !matches!(request.op, Op::Stats | Op::Drain);
            let shutdown_after = matches!(request.op, Op::Drain);
            if queued {
                *self.replies.lock().expect("replies lock") += 1;
            }
            let response = self.dispatch(request);
            let sent = proto::send(&mut stream, &response).is_ok();
            if queued {
                let mut pending = self.replies.lock().expect("replies lock");
                *pending -= 1;
                if *pending == 0 {
                    self.replies_idle.notify_all();
                }
            }
            if shutdown_after {
                self.shutdown();
            }
            if !sent {
                // Client vanished (or stalled past the write timeout)
                // mid-request; its job (if any) already completed into
                // the shared cache, nothing to unwind.
                return;
            }
        }
    }

    fn dispatch(&self, request: Request) -> Response {
        let Request { tenant, tag, deadline_ms, op } = request;
        // The budget starts at receipt: queueing time counts against it.
        let arrival = Instant::now();
        let deadline = deadline_ms.map(|ms| arrival + Duration::from_millis(ms));
        match op {
            Op::Stats => Response { tag, outcome: Outcome::Stats(Box::new(self.stats())) },
            Op::Drain => Response { tag, outcome: Outcome::Drained(self.drain()) },
            op => {
                // Token-bucket rate metering happens before the queue:
                // dedup joins spend tokens too (each is a held
                // connection and a response), and a flooding tenant is
                // turned away without touching shared queue state.
                if let Some(quota) = &self.quota {
                    if let Err(e) = quota.admit(&tenant) {
                        self.count(&tenant, "rejected");
                        self.count(&tenant, "quota_rejected");
                        return Response { tag, outcome: Outcome::Error(e) };
                    }
                }
                let (tx, rx) = channel();
                let waiter =
                    Waiter { tag, deadline, budget_ms: deadline_ms.unwrap_or(0), tx };
                match self.queue.submit(&tenant, fingerprint(&op), &op, waiter) {
                    Ok(admitted) => {
                        self.count(
                            &tenant,
                            if admitted == crate::queue::Admitted::Joined {
                                "deduped"
                            } else {
                                "accepted"
                            },
                        );
                        let received = match deadline {
                            None => rx.recv().map_err(|_| None),
                            // Bounded wait: a deduped follower (or any
                            // waiter) whose deadline passes while the
                            // leader still executes gets the typed error
                            // now — never a hang. If the result arrives
                            // first, it wins.
                            Some(d) => {
                                rx.recv_timeout(d.saturating_duration_since(Instant::now()))
                                    .map_err(|e| match e {
                                        RecvTimeoutError::Timeout => {
                                            Some(deadline_ms.unwrap_or(0))
                                        }
                                        RecvTimeoutError::Disconnected => None,
                                    })
                            }
                        };
                        match received {
                            Ok((tag, outcome)) => Response { tag, outcome },
                            Err(Some(budget_ms)) => {
                                self.count(&tenant, "expired");
                                Response {
                                    tag,
                                    outcome: Outcome::Error(ScanError::DeadlineExceeded {
                                        budget_ms,
                                    }),
                                }
                            }
                            // The executor side of the channel can only
                            // vanish if the process is tearing down.
                            Err(None) => {
                                Response { tag, outcome: Outcome::Error(ScanError::Draining) }
                            }
                        }
                    }
                    Err(e) => {
                        self.count(&tenant, "rejected");
                        if matches!(e, ScanError::QuotaExceeded { .. }) {
                            self.count(&tenant, "quota_rejected");
                        }
                        Response { tag, outcome: Outcome::Error(e) }
                    }
                }
            }
        }
    }
}

/// A running scan daemon. Construct with [`ScanServer::start`]; the
/// daemon runs on background threads until a client sends `drain`, after
/// which [`ScanServer::join`] returns.
pub struct ScanServer {
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ScanServer {
    /// Bind the socket and start the accept loop and executor pool. The
    /// hub is the daemon's single warm analyzer+store; `images` is the
    /// hosted corpus requests index into; `db` is the vulnerability
    /// database every audit runs against.
    ///
    /// If the socket path already exists, it is connect-probed: a live
    /// daemon answering it is refused with `AddrInUse` (never clobber a
    /// running service), while a stale socket — left behind by a killed
    /// daemon — is taken over, logging the stale owner's pid from the
    /// `<socket>.pid` lockfile when one survives. The lockfile is
    /// rewritten with this process's pid and removed on clean exit.
    ///
    /// # Errors
    /// Propagates socket bind failures; `AddrInUse` when a live daemon
    /// already serves the socket.
    pub fn start(
        cfg: ServerConfig,
        hub: ScanHub,
        images: Vec<FirmwareImage>,
        db: VulnDb,
    ) -> std::io::Result<ScanServer> {
        let lockfile = lockfile_path(&cfg.socket);
        if cfg.socket.exists() {
            match UnixStream::connect(&cfg.socket) {
                Ok(_) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::AddrInUse,
                        format!(
                            "socket {} is live: another daemon is serving it",
                            cfg.socket.display()
                        ),
                    ));
                }
                Err(_) => {
                    let stale = std::fs::read_to_string(&lockfile)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    match stale {
                        Some(pid) => eprintln!(
                            "scand: taking over stale socket {} (left by dead pid {pid})",
                            cfg.socket.display()
                        ),
                        None => eprintln!(
                            "scand: taking over stale socket {}",
                            cfg.socket.display()
                        ),
                    }
                    std::fs::remove_file(&cfg.socket)?;
                }
            }
        }
        let listener = UnixListener::bind(&cfg.socket)?;
        let _ = std::fs::write(&lockfile, format!("{}\n", std::process::id()));
        let queue = FairQueue::new(cfg.queue_limit, cfg.retry_after_ms)
            .with_tenant_cap(cfg.tenant_quota.and_then(|q| q.max_in_flight));
        let shared = Arc::new(Shared {
            quota: cfg.tenant_quota.map(QuotaLedger::new),
            breaker: BreakerLedger::new(cfg.breaker),
            tripped_dynsrc: Arc::new(RefusingDynSource { site: "scand.breaker_open" }),
            chaos_dynsrc: Arc::new(RefusingDynSource { site: "scand.chaos_vm" }),
            completed_jobs: AtomicU64::new(0),
            persist_lock: std::sync::Mutex::new(()),
            cfg,
            hub: Arc::new(hub),
            images: Arc::new(images),
            db: Arc::new(db),
            diff: DifferentialConfig::default(),
            queue,
            replies: std::sync::Mutex::new(0),
            replies_idle: std::sync::Condvar::new(),
        });

        let workers = (0..shared.cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("scand-exec-{i}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawn executor")
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("scand-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        let stopped = shared.queue.status().0 == State::Stopped;
                        if let Ok(stream) = stream {
                            let conn = Arc::clone(&shared);
                            // Handlers are detached: each lives exactly as
                            // long as its connection, and drain only waits
                            // for *jobs*, not for idle keep-alive clients.
                            // A connection that raced into the backlog
                            // just before stop still gets a handler — its
                            // submissions are refused with the typed
                            // drain error rather than a slammed socket.
                            let _ = std::thread::Builder::new()
                                .name("scand-conn".into())
                                .spawn(move || conn.handle_conn(stream));
                        }
                        if stopped {
                            break;
                        }
                    }
                    let _ = std::fs::remove_file(&shared.cfg.socket);
                    let _ = std::fs::remove_file(lockfile_path(&shared.cfg.socket));
                })
                .expect("spawn accept loop")
        };

        Ok(ScanServer { shared, accept, workers })
    }

    /// The socket path clients connect to.
    pub fn socket(&self) -> &Path {
        &self.shared.cfg.socket
    }

    /// The daemon's hub (its registry carries all service telemetry).
    pub fn hub(&self) -> &Arc<ScanHub> {
        &self.shared.hub
    }

    /// A statistics snapshot, as the `stats` request would return it.
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats()
    }

    /// Block until the daemon has fully shut down (a client sent `drain`)
    /// and every executor has exited.
    pub fn join(self) {
        let _ = self.accept.join();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_separate_distinct_ops_and_agree_on_identical_ones() {
        let a = Op::Audit { image: 0 };
        let b = Op::Audit { image: 1 };
        let c = Op::BatchAudit { images: vec![0] };
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c), "audit(0) and batch-audit([0]) are distinct jobs");
    }

    /// The dedup fingerprint is plain 64-bit FNV-1a of the op's JSON, so
    /// routing it through `Fnv2` changed no value.
    #[test]
    fn fingerprint_is_fnv1a_of_the_op_json() {
        let fnv1a = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        for op in [Op::Audit { image: 3 }, Op::BatchAudit { images: vec![0, 2] }, Op::Stats] {
            let json = serde_json::to_string(&op).unwrap();
            assert_eq!(fingerprint(&op), fnv1a(json.as_bytes()), "{json}");
        }
    }

    #[test]
    fn anonymous_tenant_gets_a_printable_label() {
        assert_eq!(tenant_label(""), ANONYMOUS_TENANT);
        assert_eq!(tenant_label("acme"), "acme");
    }

    #[test]
    fn lockfile_rides_next_to_the_socket() {
        assert_eq!(lockfile_path(Path::new("/tmp/scand.sock")), Path::new("/tmp/scand.sock.pid"));
    }
}
