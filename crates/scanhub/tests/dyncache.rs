//! The dynamic-lane acceptance property: a warm re-audit performs ZERO VM
//! executions. Every environment set and dynamic profile — pipeline
//! validation, reference profiling, and the differential engine's
//! three-way comparisons — is served from the cache, observed through the
//! process-global `vm.executions` counter that `Vm::run` increments as its
//! single chokepoint. A binary is lowered for the fast engine on its first
//! run, so a warm re-audit lowers nothing either (`vm.lowerings`).
//!
//! The counters are process-global, so the tests in this file serialize on
//! a local mutex; as an integration-test binary the file owns its process
//! and no other suite's VM runs can leak in.

use corpus::dataset1::Dataset1Config;
use corpus::vulndb::VulnDb;
use neural::net::TrainConfig;
use patchecko_core::detector::{self, Detector, DetectorConfig};
use patchecko_core::differential::DifferentialConfig;
use patchecko_core::pipeline::{Patchecko, PipelineConfig};
use patchecko_scanhub::ScanHub;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Serializes the tests below: both read the global `vm.executions` and
/// `vm.lowerings` counters, which any concurrently running VM would
/// perturb.
fn vm_counter_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

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
    db.entries.truncate(3);
    db
}

fn vm_executions() -> u64 {
    scope::snapshot().counter("vm.executions")
}

fn vm_lowerings() -> u64 {
    scope::snapshot().counter("vm.lowerings")
}

/// At the default fuzz budget and at 1500 rounds for 10 environments.
#[test]
fn warm_reaudit_executes_zero_vm_runs() {
    let _guard = vm_counter_lock().lock().unwrap_or_else(PoisonError::into_inner);
    let db = small_db();
    let image = &shared_device().image;
    let diff = DifferentialConfig::default();
    let budgets = [
        vm::FuzzConfig::default(),
        vm::FuzzConfig { rounds: 1500, num_envs: 10, ..vm::FuzzConfig::default() },
    ];
    for fuzz in budgets {
        let what = format!("{} rounds, {} envs", fuzz.rounds, fuzz.num_envs);
        let cfg = PipelineConfig { fuzz, ..PipelineConfig::default() };
        let hub = ScanHub::new(Patchecko::new(shared_detector().clone(), cfg));

        let (before_cold, lowered_before_cold) = (vm_executions(), vm_lowerings());
        let cold = hub.audit(&db, image, &diff).unwrap();
        let (after_cold, lowered_after_cold) = (vm_executions(), vm_lowerings());
        assert!(after_cold > before_cold, "{what}: cold audit must actually execute on the VM");
        assert!(lowered_after_cold > lowered_before_cold, "{what}: cold audit lowers what it runs");
        let stats_cold = hub.stats();
        assert!(stats_cold.dyn_misses > 0, "{what}: cold audit fills the dynamic lane");
        assert!(stats_cold.dyn_profiled > 0, "{what}: cold audit profiles live");

        let warm = hub.audit(&db, image, &diff).unwrap();
        assert_eq!(
            vm_executions(),
            after_cold,
            "{what}: warm re-audit must perform zero VM executions"
        );
        assert_eq!(vm_lowerings(), lowered_after_cold, "{what}: warm re-audit lowers nothing");
        let delta = hub.stats().since(&stats_cold);
        assert_eq!(delta.dyn_misses, 0, "{what}: warm re-audit must not miss the dynamic lane");
        assert_eq!(delta.dyn_profiled, 0, "{what}: warm re-audit must not profile live");
        assert!(delta.dyn_hits > 0, "{what}: warm re-audit is served by the dynamic lane");

        assert_eq!(
            serde_json::to_string(&cold).unwrap(),
            serde_json::to_string(&warm).unwrap(),
            "{what}: the dynamic cache must not change audit results"
        );
    }
}

#[test]
fn persisted_dyn_cache_serves_fresh_hub_with_zero_vm_runs() {
    let _guard = vm_counter_lock().lock().unwrap_or_else(PoisonError::into_inner);
    let dir = std::env::temp_dir().join(format!("scanhub-dyncache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = small_db();
    let image = &shared_device().image;
    let diff = DifferentialConfig::default();
    let analyzer = || Patchecko::new(shared_detector().clone(), PipelineConfig::default());

    let cold_hub = ScanHub::with_cache_dir(analyzer(), &dir).unwrap();
    let cold = cold_hub.audit(&db, image, &diff).unwrap();
    assert!(cold_hub.persist().unwrap(), "cold audit produces new artifacts to persist");
    drop(cold_hub);

    // A fresh hub — fresh process in spirit — reads the same cache
    // directory and must answer the whole audit without touching the VM.
    let warm_hub = ScanHub::with_cache_dir(analyzer(), &dir).unwrap();
    assert!(warm_hub.stats().dyn_entries > 0, "persisted dynamic lane reloads");
    let (before_warm, lowered_before_warm) = (vm_executions(), vm_lowerings());
    let warm = warm_hub.audit(&db, image, &diff).unwrap();
    assert_eq!(
        vm_executions(),
        before_warm,
        "an audit served from a persisted dynamic cache executes nothing"
    );
    assert_eq!(vm_lowerings(), lowered_before_warm, "nor lowers anything");
    let stats = warm_hub.stats();
    assert_eq!(stats.dyn_profiled, 0);
    assert_eq!(stats.dyn_misses, 0);
    assert!(stats.dyn_hits > 0);

    assert_eq!(
        serde_json::to_string(&cold).unwrap(),
        serde_json::to_string(&warm).unwrap(),
        "persisted dynamic cache must reproduce the cold report bitwise"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
