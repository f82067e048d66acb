//! Production-hardening behaviors of the daemon: end-to-end deadlines
//! (including their interaction with in-flight dedup), per-tenant
//! quotas, the dynamic-stage circuit breaker, and crash-tolerant socket
//! takeover. Every rejection in here must be *typed* — the absence of a
//! hang is as much the subject as the presence of an error.

mod common;

use common::{analyzer, shared_device, small_db, temp_path, tiny_analyzer};
use patchecko_core::error::ScanError;
use patchecko_scand::server::lockfile_path;
use patchecko_scand::{BreakerConfig, ScanClient, ScanServer, ServerConfig};
use std::os::unix::net::UnixListener;
use std::time::{Duration, Instant};

fn wait_until_idle(probe: &mut ScanClient) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = probe.stats().unwrap();
        if stats.queue_depth == 0 && stats.in_flight == 0 {
            return;
        }
        assert!(Instant::now() < deadline, "daemon never went idle: {stats:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn expired_requests_are_discarded_typed_and_never_executed() {
    let socket = temp_path("deadline.sock");
    let cfg = ServerConfig { workers: 1, ..ServerConfig::new(&socket) };
    let server = ScanServer::start(
        cfg,
        ScanHubFixture::real(),
        vec![shared_device().image.clone()],
        small_db(),
    )
    .unwrap();

    // Fill the single executor with a cold audit...
    let blocker = std::thread::spawn({
        let socket = socket.clone();
        move || ScanClient::connect(&socket, "blocker").unwrap().audit(0)
    });
    std::thread::sleep(Duration::from_millis(50));

    // ...then race a 1 ms budget in behind it: the deadline elapses in
    // the queue, the connection answers with the typed error at the
    // deadline, and the queue later discards the job unexecuted.
    let mut tight = ScanClient::connect(&socket, "tight").unwrap();
    tight.set_deadline_ms(Some(1));
    match tight.audit(0) {
        Err(ScanError::DeadlineExceeded { budget_ms }) => {
            assert_eq!(budget_ms, 1, "the error names the request's own budget");
        }
        other => panic!("a 1ms budget behind a cold audit must expire, got {other:?}"),
    }

    let report = blocker.join().unwrap().unwrap();
    assert!(!report.findings.is_empty(), "the blocking tenant is unaffected");

    let mut probe = ScanClient::connect(&socket, "").unwrap();
    wait_until_idle(&mut probe);
    let stats = probe.stats().unwrap();
    let tight_stats = &stats.tenants["tight"];
    assert_eq!(tight_stats.expired, 1, "the expiry is counted once, for its tenant");
    assert_eq!(tight_stats.completed, 0, "the expired job never produced a result");
    assert_eq!(
        stats.expired_at_executor, 0,
        "no executor ever started the expired job — the queue discarded it at pop"
    );
    probe.drain().unwrap();
    server.join();
}

#[test]
fn dedup_followers_with_deadlines_get_the_result_or_the_typed_error_never_a_hang() {
    let socket = temp_path("dedup-deadline.sock");
    let cfg = ServerConfig { workers: 1, ..ServerConfig::new(&socket) };
    let server = ScanServer::start(
        cfg,
        ScanHubFixture::real(),
        vec![shared_device().image.clone()],
        small_db(),
    )
    .unwrap();

    // The leader's unbounded job audits the image 64 times over, so it
    // is still running when both followers join it. Wait until the
    // executor has popped it.
    const IMAGES: [usize; 64] = [0; 64];
    let leader = std::thread::spawn({
        let socket = socket.clone();
        move || ScanClient::connect(&socket, "dup").unwrap().batch_audit(&IMAGES)
    });
    let mut poll = ScanClient::connect(&socket, "").unwrap();
    let polled = Instant::now();
    while poll.stats().unwrap().in_flight != 1 {
        assert!(polled.elapsed() < Duration::from_secs(60), "the leader's job never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(poll);

    // A deduped follower whose deadline expires mid-execution gets the
    // typed error at its deadline, while the leader keeps the job.
    let mut impatient = ScanClient::connect(&socket, "dup").unwrap();
    impatient.set_deadline_ms(Some(1));
    let asked = Instant::now();
    let outcome = impatient.batch_audit(&IMAGES);
    assert!(
        asked.elapsed() < Duration::from_secs(20),
        "the follower must be released at its deadline, not at job completion"
    );
    match outcome {
        Err(ScanError::DeadlineExceeded { budget_ms }) => assert_eq!(budget_ms, 1),
        other => panic!("expired follower must get the typed error, got {other:?}"),
    }

    // A deduped follower with a generous deadline simply gets the result.
    let mut patient = ScanClient::connect(&socket, "dup").unwrap();
    patient.set_deadline_ms(Some(600_000));
    let follower_reports = patient.batch_audit(&IMAGES).unwrap();
    let leader_reports = leader.join().unwrap().unwrap();
    assert_eq!(
        serde_json::to_string(&follower_reports).unwrap(),
        serde_json::to_string(&leader_reports).unwrap(),
        "both waiters of the coalesced job hear the same result"
    );

    let mut probe = ScanClient::connect(&socket, "").unwrap();
    wait_until_idle(&mut probe);
    let stats = probe.stats().unwrap();
    let dup = &stats.tenants["dup"];
    assert_eq!(dup.deduped, 2, "both followers joined the leader's job: {dup:?}");
    assert_eq!(dup.expired, 1, "exactly one waiter expired");
    probe.drain().unwrap();
    server.join();
}

#[test]
fn tenant_quota_meters_bursts_with_typed_live_hints() {
    let socket = temp_path("quota.sock");
    let cfg = ServerConfig {
        tenant_quota: Some("10:2".parse().unwrap()),
        ..ServerConfig::new(&socket)
    };
    // No hosted images: every admitted audit fails fast with a typed
    // ImageOutOfRange, which makes admission-vs-execution unambiguous.
    let server =
        ScanServer::start(cfg, ScanHubFixture::tiny(), Vec::new(), small_db()).unwrap();

    let mut metered = ScanClient::connect(&socket, "metered").unwrap();
    for i in 0..2 {
        match metered.audit(0) {
            Err(ScanError::ImageOutOfRange { .. }) => {}
            other => panic!("burst admission {i} must reach execution, got {other:?}"),
        }
    }
    match metered.audit(0) {
        Err(ScanError::QuotaExceeded { tenant, retry_after_ms }) => {
            assert_eq!(tenant, "metered");
            assert!(
                (1..=150).contains(&retry_after_ms),
                "at 10/s one token is ~100ms away, hint says {retry_after_ms}"
            );
        }
        other => panic!("an empty bucket must reject typed, got {other:?}"),
    }

    // audit_with_retry honours the quota hint (with jitter) the same way
    // it honours overload: it retries through to the real outcome.
    match metered.audit_with_retry(0, 20) {
        Err(ScanError::ImageOutOfRange { .. }) => {}
        other => panic!("retry must wait out the bucket and be admitted, got {other:?}"),
    }

    // Buckets are per tenant: another tenant's burst is untouched.
    let mut free = ScanClient::connect(&socket, "free").unwrap();
    for _ in 0..2 {
        assert!(matches!(free.audit(0), Err(ScanError::ImageOutOfRange { .. })));
    }

    let stats = free.stats().unwrap();
    let metered_stats = &stats.tenants["metered"];
    assert!(metered_stats.quota_rejected >= 1, "rejections are counted: {metered_stats:?}");
    assert_eq!(stats.tenants["free"].quota_rejected, 0);
    free.drain().unwrap();
    server.join();
}

#[test]
fn breaker_degrades_a_vm_crashing_tenant_to_static_only_and_probes_recovery() {
    let socket = temp_path("breaker.sock");
    let cfg = ServerConfig {
        breaker: BreakerConfig { threshold: 2, cooldown_ms: 3_000 },
        fault_vm_tenants: vec!["crashy".into()],
        ..ServerConfig::new(&socket)
    };
    let server = ScanServer::start(
        cfg,
        ScanHubFixture::real(),
        vec![shared_device().image.clone()],
        small_db(),
    )
    .unwrap();
    let mut probe = ScanClient::connect(&socket, "").unwrap();

    // Two consecutive audits whose dynamic stage "crashes the VM":
    // results still flow, degraded to static-only evidence.
    let mut crashy = ScanClient::connect(&socket, "crashy").unwrap();
    for i in 0..2 {
        let report = crashy.audit(0).unwrap();
        assert!(!report.findings.is_empty());
        assert!(
            report.findings.iter().all(|f| f.degraded),
            "audit {i}: a refused dynamic stage degrades every finding"
        );
    }
    let stats = probe.stats().unwrap();
    let breaker = stats.tenants["crashy"].breaker.clone().expect("breaker enabled");
    assert_eq!((breaker.state.as_str(), breaker.trips), ("open", 1), "threshold 2 tripped");
    assert_eq!(stats.tenants["crashy"].degraded_jobs, 2);

    // Open: jobs shed their dynamic stage outright — same degraded
    // results, zero VM time burned on a doomed tenant.
    let shed = crashy.audit(0).unwrap();
    assert!(shed.findings.iter().all(|f| f.degraded));

    // A healthy tenant on the same daemon keeps real dynamics and a
    // closed breaker.
    let mut healthy = ScanClient::connect(&socket, "healthy").unwrap();
    let clean = healthy.audit(0).unwrap();
    assert!(!clean.findings.is_empty());
    assert!(
        clean.findings.iter().all(|f| !f.degraded),
        "the breaker is per tenant: healthy dynamics run for real"
    );
    let stats = probe.stats().unwrap();
    assert_eq!(stats.tenants["healthy"].degraded_jobs, 0);
    assert_eq!(stats.tenants["healthy"].breaker.clone().unwrap().state, "closed");

    // After the cooldown the next job is a half-open probe: it attempts
    // real dynamics, fails again (the tenant is still "crashing"), and
    // re-opens the breaker for another cooldown.
    std::thread::sleep(Duration::from_millis(3_100));
    let probe_job = crashy.audit(0).unwrap();
    assert!(probe_job.findings.iter().all(|f| f.degraded));
    let stats = probe.stats().unwrap();
    let breaker = stats.tenants["crashy"].breaker.clone().unwrap();
    assert_eq!(breaker.state, "open", "a failed probe re-opens");
    assert!(breaker.trips >= 2, "the failed probe counts as a trip: {breaker:?}");

    probe.drain().unwrap();
    server.join();
}

#[test]
fn stale_sockets_are_taken_over_and_live_sockets_refused() {
    let socket = temp_path("takeover.sock");
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_file(lockfile_path(&socket));

    // A killed daemon's leavings: the socket file of a listener nobody
    // is accepting on any more, plus its pid lockfile.
    drop(UnixListener::bind(&socket).unwrap());
    std::fs::write(lockfile_path(&socket), "999999\n").unwrap();
    assert!(socket.exists(), "dropping a listener leaves the socket file behind");

    // A fresh daemon connect-probes, finds no live peer, and takes over.
    let server =
        ScanServer::start(ServerConfig::new(&socket), ScanHubFixture::tiny(), Vec::new(), small_db())
            .unwrap();
    let mut client = ScanClient::connect(&socket, "").unwrap();
    assert_eq!(client.stats().unwrap().state, "running");

    // But a *live* socket is refused — never clobber a running daemon.
    match ScanServer::start(ServerConfig::new(&socket), ScanHubFixture::tiny(), Vec::new(), small_db())
    {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::AddrInUse),
        Ok(_) => panic!("a second daemon must refuse a live socket"),
    }
    // The refusal did not disturb the incumbent.
    assert_eq!(client.stats().unwrap().state, "running");

    client.drain().unwrap();
    server.join();
    assert!(!socket.exists(), "clean exit removes the socket");
    assert!(!lockfile_path(&socket).exists(), "clean exit removes the lockfile");
}

/// Hub construction shorthands for this suite.
struct ScanHubFixture;

impl ScanHubFixture {
    fn real() -> patchecko_scanhub::ScanHub {
        patchecko_scanhub::ScanHub::new(analyzer())
    }

    fn tiny() -> patchecko_scanhub::ScanHub {
        patchecko_scanhub::ScanHub::new(tiny_analyzer())
    }
}
