//! Soak test for the scan daemon: many concurrent clients across several
//! tenants, mixed cold/warm phases, admission overload, and graceful
//! drain — the acceptance scenario of the service architecture.
//!
//! The warm-phase assertions read the process-global `vm.executions`
//! counter, so the audit-running tests serialize on a local mutex; as its
//! own integration-test binary this file owns the process and no other
//! suite's VM work can leak in.

mod common;

use common::{analyzer, shared_device, small_db, temp_path};
use patchecko_core::cancel::CancelToken;
use patchecko_core::differential::DifferentialConfig;
use patchecko_core::eval::audit_image;
use patchecko_core::error::ScanError;
use patchecko_core::report::AuditReport;
use patchecko_scand::{ScanClient, ScanServer, ServerConfig};
use patchecko_scanhub::{ArtifactStore, ScanHub};
use std::path::Path;
use std::sync::{Arc, Barrier, Mutex, OnceLock};

fn vm_counter_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    // Poison-tolerant: one test's failure should report itself, not
    // cascade into PoisonErrors in the other two.
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

const TENANTS: [&str; 2] = ["acme", "zenith"];

/// Eight concurrent clients (four per tenant), all batch-auditing the
/// same hosted image. Returns each client's (tenant, reports).
fn storm(socket: &Path) -> Vec<(String, Vec<AuditReport>)> {
    let barrier = Arc::new(Barrier::new(8));
    std::thread::scope(|s| {
        (0..8)
            .map(|i| {
                let tenant = TENANTS[i % TENANTS.len()];
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    let mut client = ScanClient::connect(socket, tenant).unwrap();
                    barrier.wait();
                    (tenant.to_string(), client.batch_audit(&[0]).unwrap())
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    })
}

#[test]
fn soak_two_tenants_eight_clients_cold_warm_drain_and_checksum_clean_reload() {
    let _guard = vm_counter_lock();
    let cache_dir = temp_path("soak-cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let socket = temp_path("soak.sock");

    let hub = ScanHub::with_cache_dir(analyzer(), &cache_dir).unwrap();
    let cfg = ServerConfig { workers: 4, ..ServerConfig::new(&socket) };
    let server =
        ScanServer::start(cfg, hub, vec![shared_device().image.clone()], small_db()).unwrap();

    // ---- Cold phase: every response arrives, none misrouted. ----------
    // (The client verifies the response tag echo on every call, so a
    // misrouted or dropped response fails the unwrap inside `storm`.)
    let cold = storm(&socket);
    let reference = serde_json::to_string(&cold[0].1[0].findings).unwrap();
    for (tenant, reports) in &cold {
        assert_eq!(reports.len(), 1, "{tenant}: one report per requested image");
        assert_eq!(
            serde_json::to_string(&reports[0].findings).unwrap(),
            reference,
            "{tenant}: every client sees the same verdicts"
        );
    }

    let mut probe = ScanClient::connect(&socket, "").unwrap();
    let stats_cold = probe.stats().unwrap();
    assert_eq!(stats_cold.state, "running");
    assert_eq!(stats_cold.images, 1);
    assert!(stats_cold.cache.extractions > 0, "cold phase fills the static lane");
    assert!(stats_cold.vm_executions > 0, "cold phase executes the VM");
    for tenant in TENANTS {
        let t = &stats_cold.tenants[tenant];
        assert_eq!(t.accepted + t.deduped, 4, "{tenant}: all four requests accounted for");
        assert!(t.deduped >= 1, "{tenant}: identical concurrent requests coalesce");
        assert_eq!(t.completed, t.accepted, "{tenant}: every queued job completed");
        assert_eq!((t.failed, t.rejected), (0, 0), "{tenant}");
        let latency = t.latency.as_ref().expect("latency histogram recorded");
        assert_eq!(latency.count, t.completed, "{tenant}: one latency sample per job");
    }

    // ---- Warm phase: zero VM executions, zero extractions. ------------
    let warm = storm(&socket);
    for (tenant, reports) in &warm {
        assert_eq!(
            serde_json::to_string(&reports[0].findings).unwrap(),
            reference,
            "{tenant}: warm verdicts identical to cold"
        );
    }
    let stats_warm = probe.stats().unwrap();
    assert_eq!(
        stats_warm.vm_executions, stats_cold.vm_executions,
        "warm requests perform zero VM executions"
    );
    assert_eq!(
        stats_warm.cache.extractions, stats_cold.cache.extractions,
        "warm requests perform zero feature extractions"
    );
    for tenant in TENANTS {
        let t = &stats_warm.tenants[tenant];
        assert_eq!(t.accepted + t.deduped, 8, "{tenant}: cold + warm requests all accounted for");
        assert_eq!((t.failed, t.rejected), (0, 0), "{tenant}");
    }

    // Latency histograms from scope, in the test output (acceptance).
    for tenant in TENANTS {
        let latency = stats_warm.tenants[tenant].latency.as_ref().unwrap();
        println!(
            "tenant {tenant}: {} jobs, mean {:.1} ms, max {:.1} ms, log2-ns buckets {:?}",
            latency.count,
            latency.mean_ns() as f64 / 1e6,
            latency.max_ns as f64 / 1e6,
            latency.buckets
        );
    }
    println!("{}", stats_warm.telemetry.filtered("tenant.acme").to_table());

    // ---- Drain: persist, refuse new work, exit cleanly. ---------------
    let drained = probe.drain().unwrap();
    assert!(drained.persisted, "drain persisted the caches");
    server.join();
    assert!(!socket.exists(), "the daemon removed its socket on exit");
    assert!(ScanClient::connect(&socket, "acme").is_err(), "no daemon behind the socket anymore");

    // ---- Both cache lanes reload checksum-clean. ----------------------
    let store = ArtifactStore::load(&cache_dir).unwrap();
    let reloaded = store.stats();
    assert_eq!(reloaded.quarantined, 0, "static lane is checksum-clean");
    assert_eq!(reloaded.dyn_quarantined, 0, "dynamic lane is checksum-clean");
    assert!(reloaded.entries > 0, "static lane persisted");
    assert!(reloaded.dyn_entries > 0, "dynamic lane persisted");

    // A restarted hub serves the tenant's audit fully warm: zero
    // extractions AND zero VM executions across the restart.
    let hub = ScanHub::with_cache_dir(analyzer(), &cache_dir).unwrap();
    let vm_before = scope::snapshot().counter("vm.executions");
    let acme = hub.tenant_view("acme");
    let (diff, ctx) = (DifferentialConfig::default(), acme.ctx(CancelToken::unbounded()));
    let report = audit_image(&hub.analyzer, &small_db(), &shared_device().image, &diff, &ctx)
        .unwrap();
    assert_eq!(serde_json::to_string(&report.findings).unwrap(), reference);
    assert_eq!(hub.stats().extractions, 0, "restart-warm audit extracts nothing");
    assert_eq!(
        scope::snapshot().counter("vm.executions"),
        vm_before,
        "restart-warm audit performs zero VM executions"
    );
    std::fs::remove_dir_all(&cache_dir).unwrap();
}

#[test]
fn overload_sheds_typed_rejections_and_the_retry_hint_recovers() {
    let _guard = vm_counter_lock();
    let socket = temp_path("overload.sock");
    let cfg = ServerConfig {
        workers: 1,
        queue_limit: 1,
        retry_after_ms: 10,
        ..ServerConfig::new(&socket)
    };
    let server = ScanServer::start(
        cfg,
        ScanHub::new(analyzer()),
        vec![shared_device().image.clone()],
        small_db(),
    )
    .unwrap();

    // Six tenants rush a one-worker, one-slot daemon simultaneously.
    // Distinct tenants keep dedup out of the picture: six distinct jobs
    // compete for 1 running + 1 queued, so some must be shed.
    let barrier = Arc::new(Barrier::new(6));
    let results: Vec<(String, Result<AuditReport, ScanError>)> = std::thread::scope(|s| {
        (0..6)
            .map(|i| {
                let tenant = format!("t{i}");
                let barrier = Arc::clone(&barrier);
                let socket = &socket;
                s.spawn(move || {
                    let mut client = ScanClient::connect(socket, &tenant).unwrap();
                    barrier.wait();
                    let outcome = client.audit(0);
                    (tenant, outcome)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });

    let mut served = 0;
    let mut shed = Vec::new();
    for (tenant, outcome) in &results {
        match outcome {
            Ok(report) => {
                assert!(!report.findings.is_empty());
                served += 1;
            }
            Err(ScanError::Overloaded { queue_limit, retry_after_ms, .. }) => {
                assert_eq!(*queue_limit, 1, "the hint names the server's limit");
                // The hint scales with queue pressure: between the base
                // (idle) and its 8x saturation cap.
                assert!(
                    (10..=80).contains(retry_after_ms),
                    "hint {retry_after_ms} outside the scaled [base, 8x base] window"
                );
                shed.push(tenant.clone());
            }
            Err(other) => panic!("{tenant}: overload must be typed, got {other:?}"),
        }
    }
    assert!(served >= 1, "someone was served");
    assert!(!shed.is_empty(), "a one-slot queue under a six-way rush must shed load");

    // The retry hint recovers every shed tenant: back off and resubmit.
    for tenant in &shed {
        let mut client = ScanClient::connect(&socket, tenant).unwrap();
        let report = client.audit_with_retry(0, 500).unwrap();
        assert!(!report.findings.is_empty(), "{tenant} recovered after backoff");
    }

    let mut probe = ScanClient::connect(&socket, "").unwrap();
    let stats = probe.stats().unwrap();
    let rejected: u64 = stats.tenants.values().map(|t| t.rejected).sum();
    assert!(rejected >= shed.len() as u64, "rejections are counted per tenant");
    probe.drain().unwrap();
    server.join();
}

#[test]
fn draining_daemon_refuses_new_work_with_a_typed_error() {
    let _guard = vm_counter_lock();
    let socket = temp_path("drainrace.sock");
    let server = ScanServer::start(
        ServerConfig::new(&socket),
        ScanHub::new(analyzer()),
        vec![shared_device().image.clone()],
        small_db(),
    )
    .unwrap();

    // Warm the daemon with one audit, then drain from one client while
    // another immediately tries to submit.
    let mut first = ScanClient::connect(&socket, "acme").unwrap();
    first.audit(0).unwrap();

    let mut late = ScanClient::connect(&socket, "acme").unwrap();
    let drained = first.drain().unwrap();
    assert!(!drained.persisted, "no cache directory, nothing to persist");
    // The already-open connection outlives the listener; its next
    // submission is refused with the typed drain error.
    match late.audit(0) {
        Err(ScanError::Draining) => {}
        other => panic!("expected Draining, got {other:?}"),
    }
    server.join();
}
