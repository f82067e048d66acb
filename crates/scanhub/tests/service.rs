//! Integration tests for the scan service: cache-backed scans must be
//! observably equivalent to direct pipeline runs, warm re-audits must do
//! zero extraction work, and the scheduler must survive bad jobs.

use corpus::dataset1::Dataset1Config;
use corpus::vulndb::VulnDb;
use neural::net::TrainConfig;
use patchecko_core::detector::{self, Detector, DetectorConfig};
use patchecko_core::differential::DifferentialConfig;
use patchecko_core::error::ScanError;
use patchecko_core::cancel::CancelToken;
use patchecko_core::pipeline::{Basis, FeatureSource, Patchecko, PipelineConfig, RunCtx};
use patchecko_scanhub::{full_schedule, JobOutcome, JobSpec, ScanHub};
use std::sync::OnceLock;

fn shared_detector() -> &'static Detector {
    static DET: OnceLock<Detector> = OnceLock::new();
    DET.get_or_init(|| {
        let ds = corpus::build_dataset1(&Dataset1Config {
            num_libraries: 10,
            min_functions: 8,
            max_functions: 12,
            seed: 1,
            include_catalog: true,
        });
        let cfg = DetectorConfig {
            pairs_per_function: 6,
            train: TrainConfig { epochs: 10, batch: 256, lr: 1e-3, seed: 7, ..Default::default() },
            ..DetectorConfig::default()
        };
        detector::train(&ds, &cfg).0
    })
}

fn shared_device() -> &'static corpus::DeviceBuild {
    static DEV: OnceLock<corpus::DeviceBuild> = OnceLock::new();
    DEV.get_or_init(|| {
        corpus::build_device(&corpus::android_things_spec(), &corpus::full_catalog(), 0.05)
    })
}

fn small_db() -> VulnDb {
    let mut db = corpus::build_vulndb(0, 1);
    // Trim the featured list so the audits stay test-sized.
    db.entries.truncate(3);
    db
}

fn fresh_hub() -> ScanHub {
    ScanHub::new(Patchecko::new(shared_detector().clone(), PipelineConfig::default()))
}

#[test]
fn warm_cache_reaudit_extracts_nothing() {
    // The headline acceptance property: a warm re-audit of the same image
    // performs ZERO disassembly/feature-extraction calls — every static
    // feature (targets, references, differential three-way) is served from
    // the content-addressed store.
    let hub = fresh_hub();
    let db = small_db();
    let image = &shared_device().image;
    let diff = DifferentialConfig::default();

    let cold = hub.audit(&db, image, &diff).unwrap();
    let after_cold = hub.stats();
    assert!(after_cold.extractions > 0, "cold audit fills the cache");
    assert_eq!(after_cold.misses, after_cold.extractions);

    let warm = hub.audit(&db, image, &diff).unwrap();
    let delta = hub.stats().since(&after_cold);
    assert_eq!(delta.extractions, 0, "warm re-audit must not extract");
    assert_eq!(delta.misses, 0, "warm re-audit must not miss");
    assert!(delta.hits > 0, "warm re-audit is served by the cache");

    // Identical verdicts, cold vs warm (cached features are bit-identical,
    // the dynamic stage is seeded).
    assert_eq!(
        serde_json::to_string(&cold).unwrap(),
        serde_json::to_string(&warm).unwrap(),
        "cache must not change audit results"
    );
}

#[test]
fn cached_scan_matches_direct_pipeline() {
    let hub = fresh_hub();
    let db = corpus::build_vulndb(0, 1);
    let entry = db.get("CVE-2018-9412").unwrap();
    let device = shared_device();
    let truth = device.truth_for("CVE-2018-9412").unwrap();
    let bin = device.image.binary(&truth.library).unwrap();

    let cached_ctx = hub.store().ctx(CancelToken::unbounded());
    let pair = [(entry, Basis::Vulnerable)];
    let cached = hub.analyzer.analyze_library(bin, &pair, &cached_ctx).unwrap().remove(0);
    let direct = hub.analyzer.analyze_library(bin, &pair, &RunCtx::default()).unwrap().remove(0);
    assert_eq!(cached.scan.probs, direct.scan.probs);
    assert_eq!(cached.scan.candidates, direct.scan.candidates);
    assert_eq!(cached.dynamic.validated, direct.dynamic.validated);
    assert_eq!(cached.dynamic.ranking, direct.dynamic.ranking);
}

#[test]
fn scheduler_completes_batch_and_contains_failures() {
    let mut analyzer = Patchecko::new(shared_detector().clone(), PipelineConfig::default());
    analyzer.config.threads = Some(4); // satellite (f): explicit worker count
    let hub = std::sync::Arc::new(ScanHub::new(analyzer));
    let db = std::sync::Arc::new(small_db());
    let images = std::sync::Arc::new(vec![shared_device().image.clone()]);

    let mut jobs = full_schedule(images.len(), &db, &[Basis::Vulnerable]);
    assert_eq!(jobs.len(), db.featured().len());
    // Poison the schedule with jobs that must fail gracefully.
    jobs.push(JobSpec { image: 0, cve: "CVE-0000-0000".into(), basis: Basis::Vulnerable });
    jobs.push(JobSpec { image: 9, cve: "CVE-2018-9412".into(), basis: Basis::Patched });

    let report = hub.batch_audit(&images, &db, &jobs);
    assert_eq!(report.records.len(), jobs.len());
    assert_eq!(report.threads, 4);
    assert_eq!(report.failed(), 2);
    // Records stay in schedule order with their specs attached.
    for (record, spec) in report.records.iter().zip(&jobs) {
        assert_eq!(&record.spec, spec);
        assert!(record.seconds >= 0.0);
    }
    match &report.records[jobs.len() - 2].outcome {
        JobOutcome::Failed { error, attempts } => {
            assert!(matches!(error, ScanError::UnknownCve(_)), "{error}");
            assert_eq!(*attempts, 1, "permanent errors are not retried");
        }
        other => panic!("expected failure, got {other:?}"),
    }
    match &report.records[jobs.len() - 1].outcome {
        JobOutcome::Failed { error, attempts } => {
            assert!(matches!(error, ScanError::ImageOutOfRange { index: 9, .. }), "{error}");
            assert_eq!(*attempts, 1, "permanent errors are not retried");
        }
        other => panic!("expected failure, got {other:?}"),
    }
    let summary = report.failure_summary();
    assert!(summary.contains("CVE-0000-0000"), "{summary}");
    assert!(summary.contains("after 1 attempt"), "{summary}");
    let flagship = &report.records[0];
    assert!(flagship.is_ok());

    // A second identical batch rides the warm cache end to end.
    let before = hub.stats();
    let rerun = hub.batch_audit(&images, &db, &jobs);
    assert_eq!(rerun.cache_delta.extractions, 0, "warm batch extracts nothing");
    assert_eq!(rerun.completed(), report.completed());
    assert!(hub.stats().hits > before.hits);

    // The report serializes for the CLI's --json output.
    let json = serde_json::to_string(&report).unwrap();
    assert!(json.contains("CVE-2018-9412"));
}

#[test]
fn persisted_cache_survives_restart() {
    let dir = std::env::temp_dir().join(format!("scanhub-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let image = &shared_device().image;

    let db = corpus::build_vulndb(0, 1);
    let entry = db.get("CVE-2018-9412").unwrap();
    let lib = &shared_device().truth_for("CVE-2018-9412").unwrap().library;

    let hub = ScanHub::with_cache_dir(
        Patchecko::new(shared_detector().clone(), PipelineConfig::default()),
        &dir,
    )
    .unwrap();
    let mut warmed = 0;
    for bin in &image.binaries {
        warmed += hub.store().features_all(bin).unwrap().len();
    }
    assert_eq!(warmed, image.total_functions());
    // Cache the reference variants too, then persist everything.
    hub.scan_library(image.binary(lib).unwrap(), entry, Basis::Vulnerable).unwrap();
    assert!(hub.persist().unwrap());

    // "Reboot": a new hub over the same directory serves the same scan
    // without a single extraction.
    let hub2 = ScanHub::with_cache_dir(
        Patchecko::new(shared_detector().clone(), PipelineConfig::default()),
        &dir,
    )
    .unwrap();
    assert_eq!(hub2.store().len(), hub.store().len());
    let scan = hub2.scan_library(image.binary(lib).unwrap(), entry, Basis::Vulnerable).unwrap();
    assert!(scan.total > 0);
    let stats = hub2.stats();
    assert_eq!(stats.extractions, 0, "restarted hub reuses persisted artifacts");
    assert_eq!(stats.misses, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn warm_audit_telemetry_shows_zero_extractions_end_to_end() {
    // Same acceptance property as the CacheStats-based warm test, but
    // driven entirely through the scope registry the hub was built with:
    // the `cache.extractions` counter must not move across a warm
    // re-audit, and the attached report telemetry must agree.
    let hub = fresh_hub();
    let reg = hub.registry();
    let db = small_db();
    let image = &shared_device().image;
    let diff = DifferentialConfig::default();

    let cold = hub.audit_with_telemetry(&db, image, &diff).unwrap();
    let cold_t = cold.telemetry.expect("cold audit carries telemetry");
    assert!(cold_t.counter("cache.extractions") > 0, "cold audit extracts");
    assert_eq!(cold_t.counter("cache.extractions"), cold_t.counter("cache.misses"));
    // The audit's stage spans are merged into the report telemetry.
    assert!(cold_t.duration("span.audit").is_some(), "audit span recorded");
    assert!(cold_t.duration("span.static_scan").is_some(), "static span recorded");

    let after_cold = reg.snapshot();
    let warm = hub.audit_with_telemetry(&db, image, &diff).unwrap();
    let warm_t = warm.telemetry.expect("warm audit carries telemetry");
    assert_eq!(warm_t.counter("cache.extractions"), 0, "warm audit extracts nothing");
    assert_eq!(warm_t.counter("cache.misses"), 0);
    assert!(warm_t.counter("cache.hits") > 0, "warm audit is served by the cache");
    // Registry-level view agrees with the per-report deltas.
    let reg_delta = reg.snapshot().since(&after_cold);
    assert_eq!(reg_delta.counter("cache.extractions"), 0);

    // Findings are identical cold vs warm; only telemetry differs.
    assert_eq!(
        serde_json::to_string(&cold.findings).unwrap(),
        serde_json::to_string(&warm.findings).unwrap(),
    );
}

#[test]
fn each_hub_reports_its_own_cache_counters_once() {
    // Two hubs in one process: each hub's merged snapshot must carry
    // exactly the cache counters its `stats()` reads — neither the other
    // hub's nor its own twice.
    let auditor = fresh_hub();
    let scanner = fresh_hub();
    let db = small_db();
    let image = &shared_device().image;
    let diff = DifferentialConfig::default();
    auditor.audit(&db, image, &diff).unwrap();
    auditor.audit(&db, image, &diff).unwrap();
    scanner.scan_image_tenant(image, &db.featured()[0], Basis::Vulnerable, "acme").unwrap();

    for hub in [&auditor, &scanner] {
        let (snap, stats) = (hub.telemetry_snapshot(), hub.stats());
        for (counter, field) in [
            ("cache.hits", stats.hits),
            ("cache.misses", stats.misses),
            ("cache.extractions", stats.extractions),
            ("dyncache.hits", stats.dyn_hits),
            ("dyncache.misses", stats.dyn_misses),
            ("dyncache.profiled", stats.dyn_profiled),
        ] {
            assert_eq!(snap.counter(counter), field, "{counter}: {stats}");
        }
    }
    assert!(auditor.stats().hits > 0, "the warm audit was served by the cache");
    assert!(scanner.stats().extractions > 0, "the scan filled its own store");
    assert_ne!(auditor.stats(), scanner.stats(), "the two hubs did different work");
}

#[test]
fn batch_report_carries_scheduler_telemetry() {
    let hub = std::sync::Arc::new(fresh_hub());
    let reg = hub.registry();
    let db = std::sync::Arc::new(small_db());
    let images = std::sync::Arc::new(vec![shared_device().image.clone()]);
    let jobs = full_schedule(images.len(), &db, &[Basis::Vulnerable]);

    let report = hub.batch_audit(&images, &db, &jobs);
    let t = report.telemetry.as_ref().expect("batch report carries telemetry");
    assert_eq!(t.counter("sched.jobs"), jobs.len() as u64);
    assert_eq!(t.counter("sched.attempts"), jobs.len() as u64, "no retries on a clean batch");
    assert_eq!(t.counter("sched.retries"), 0);
    assert_eq!(t.counter("cache.extractions"), report.cache_delta.extractions);
    // Per-job spans are in the merged telemetry (recorded globally).
    assert!(t.duration("span.sched.job").is_some_and(|d| d.count >= jobs.len() as u64));
    // The registry itself holds the scheduler counters too.
    assert_eq!(reg.snapshot().counter("sched.jobs"), jobs.len() as u64);
}

#[test]
fn scheduler_never_sleeps_after_the_final_attempt() {
    // A job that exhausts its attempts must pay backoff only *between*
    // attempts: with max_attempts = 2 and a 150ms base, the job sleeps
    // once (~150ms), not twice (150 + 300ms). The generous upper bound
    // keeps the test robust on loaded CI machines while still failing
    // deterministically if a trailing backoff sneaks in.
    use patchecko_scanhub::RetryPolicy;
    let retry = RetryPolicy { max_attempts: 2, base_backoff_ms: 150, job_timeout_ms: None };
    let hub = std::sync::Arc::new(fresh_hub().with_retry_policy(retry).with_fault_hook(
        std::sync::Arc::new(|spec: &JobSpec, _attempt| {
            Some(ScanError::Injected {
                site: "test".into(),
                detail: format!("always-failing {}", spec.cve),
            })
        }),
    ));
    let db = std::sync::Arc::new(small_db());
    let images = std::sync::Arc::new(vec![shared_device().image.clone()]);
    let jobs =
        vec![JobSpec { image: 0, cve: db.featured()[0].entry.cve.clone(), basis: Basis::Vulnerable }];

    let started = std::time::Instant::now();
    let report = hub.batch_audit(&images, &db, &jobs);
    let elapsed = started.elapsed();
    assert_eq!(report.failed(), 1);
    assert_eq!(report.records[0].attempts, 2, "transient error retried to exhaustion");
    assert!(elapsed >= std::time::Duration::from_millis(150), "one backoff was paid");
    assert!(
        elapsed < std::time::Duration::from_millis(450),
        "no backoff after the final attempt (elapsed {elapsed:?})"
    );
    // The telemetry agrees: one retry, one backoff of exactly the base.
    let snap = hub.registry().snapshot();
    assert_eq!(snap.counter("sched.attempts"), 2);
    assert_eq!(snap.counter("sched.retries"), 1);
    assert_eq!(snap.counter("sched.backoff_ms"), 150);
}

#[test]
fn hung_job_times_out_as_transient_failure_instead_of_stalling_the_batch() {
    // A job overrunning its RetryPolicy wall-clock budget stops at the
    // next stage boundary with a transient DeadlineExceeded, is retried,
    // and is finally recorded as JobOutcome::Failed. The budget starts
    // before the fault hook, so a slow hook overruns it like slow scan
    // work; the attempt runs on the job's own thread, so nothing is left
    // running once the batch returns.
    use patchecko_scanhub::RetryPolicy;
    use std::time::Duration;
    let retry = RetryPolicy { max_attempts: 2, base_backoff_ms: 10, job_timeout_ms: Some(300) };
    let hub = std::sync::Arc::new(fresh_hub().with_retry_policy(retry).with_fault_hook(
        std::sync::Arc::new(|_spec: &JobSpec, _attempt| {
            std::thread::sleep(Duration::from_millis(400));
            None
        }),
    ));
    let db = std::sync::Arc::new(small_db());
    let images = std::sync::Arc::new(vec![shared_device().image.clone()]);
    let jobs =
        vec![JobSpec { image: 0, cve: db.featured()[0].entry.cve.clone(), basis: Basis::Vulnerable }];

    let report = hub.batch_audit(&images, &db, &jobs);
    assert_eq!(report.failed(), 1);
    match &report.records[0].outcome {
        JobOutcome::Failed { error, attempts } => {
            assert_eq!(*error, ScanError::DeadlineExceeded { budget_ms: 300 });
            assert!(error.is_transient(), "an overrun budget is retryable");
            assert_eq!(*attempts, 2, "the overrun was retried to exhaustion");
        }
        other => panic!("expected a deadline failure, got {other:?}"),
    }
    let snap = hub.registry().snapshot();
    assert_eq!(snap.counter("sched.timeouts"), 2, "each budgeted attempt recorded its expiry");
    assert_eq!(snap.counter("sched.retries"), 1);
}
