//! Concurrent same-key access: racing requesters for one image's
//! artifacts must coalesce to exactly one extraction (static lane) and
//! exactly one live profiling run (dynamic lane), and count exactly one
//! miss (the computation) and one hit (the requester it served) per key.
//! This is the single-process precursor to the scan daemon's in-flight
//! request dedup — two clients auditing the same image trigger one
//! computation.
//!
//! The dynamic-lane assertions read the process-global `vm.executions`
//! counter, so those tests serialize on a local mutex; as its own
//! integration-test binary this file owns the process and no other
//! suite's VM runs can leak in.

use fwbin::format::Binary;
use fwbin::isa::{Arch, OptLevel};
use fwlang::ast::{BinOp, Expr, Function, Library, Param, Stmt, Ty};
use fwlang::gen::Generator;
use patchecko_core::dynsource::{DynProfileSource, EnvSet};
use patchecko_core::pipeline::FeatureSource;
use patchecko_scanhub::ArtifactStore;
use std::sync::{Arc, Barrier, Mutex, OnceLock, PoisonError};
use vm::env::{ArgSpec, ExecEnv};
use vm::exec::VmConfig;
use vm::fuzz::FuzzConfig;
use vm::loader::LoadedBinary;

fn vm_counter_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn vm_executions() -> u64 {
    scope::snapshot().counter("vm.executions")
}

fn sample_binary() -> Binary {
    let lib = Generator::new(33).library_sized("librace", 6);
    fwbin::compile_library(&lib, Arch::Arm64, OptLevel::O2).unwrap()
}

#[test]
fn concurrent_feature_requests_extract_exactly_once() {
    let store = Arc::new(ArtifactStore::new());
    let bin = Arc::new(sample_binary());
    let n = bin.function_count() as u64;

    let results: Vec<_> = std::thread::scope(|s| {
        (0..2)
            .map(|_| {
                let (store, bin) = (Arc::clone(&store), Arc::clone(&bin));
                s.spawn(move || store.features_all(&bin).unwrap())
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(results[0], results[1], "both racers see identical features");

    let stats = store.stats();
    assert_eq!(
        stats.extractions, n,
        "two concurrent requesters perform exactly one extraction per function"
    );
    assert_eq!(stats.entries, n, "one cache entry per function, no duplicates");
    assert_eq!(stats.hits + stats.misses, 2 * n, "every lookup was counted");
    assert_eq!((stats.misses, stats.hits), (n, n), "one miss (the extraction) and one hit per key");
}

/// A library of `count` functions that each add up `0..n` for their
/// one argument `n`: given a huge `n`, every run spins until the VM's
/// instruction budget stops it.
fn spinning_binary(count: usize) -> Binary {
    let mut lib = Library::new("libspin");
    for k in 0..count {
        let mut f = Function {
            name: format!("spin_{k}"),
            params: vec![Param { name: "n".into(), ty: Ty::Int }],
            locals: vec![],
            ret: Some(Ty::Int),
            body: vec![],
            exported: true,
        };
        let i = f.add_local("i", Ty::Int);
        let acc = f.add_local("acc", Ty::Int);
        f.body = vec![
            Stmt::Let { local: acc, value: Expr::ConstInt(k as i64) },
            Stmt::For {
                var: i,
                start: Expr::ConstInt(0),
                end: Expr::Param(0),
                step: Expr::ConstInt(1),
                body: vec![Stmt::Let {
                    local: acc,
                    value: Expr::bin(BinOp::Add, Expr::Local(acc), Expr::Local(i)),
                }],
            },
            Stmt::Return(Some(Expr::Local(acc))),
        ];
        lib.functions.push(f);
    }
    fwbin::compile_library(&lib, Arch::Arm64, OptLevel::O2).unwrap()
}

/// A requester that arrives while another computes the same key, waits,
/// and is served the published value counts a hit, not a miss: each key
/// counts exactly one miss (its computation) and one hit, however the two
/// requesters interleave. Each profile runs 4 environments to a
/// 2M-instruction budget, far longer than the second requester takes to
/// arrive after the barrier, so the two always overlap.
#[test]
fn a_requester_served_by_a_concurrent_computation_counts_a_hit() {
    let _guard = vm_counter_lock().lock().unwrap_or_else(PoisonError::into_inner);
    let store = Arc::new(ArtifactStore::new());
    let keys = 3;
    let lb = Arc::new(LoadedBinary::load(spinning_binary(keys)).unwrap());
    let vmc = VmConfig { max_instructions: 2_000_000, ..VmConfig::default() };
    let env =
        ExecEnv { input: vec![], args: vec![ArgSpec::Int(1 << 40)], global_overrides: vec![] };
    let envs = Arc::new(EnvSet::new(vec![env; 4], &vmc));
    let barrier = Arc::new(Barrier::new(2));
    let before = store.stats();
    let profiles: Vec<_> = std::thread::scope(|s| {
        (0..2)
            .map(|_| {
                let (store, lb, envs) = (Arc::clone(&store), Arc::clone(&lb), Arc::clone(&envs));
                let (barrier, vmc) = (Arc::clone(&barrier), vmc.clone());
                s.spawn(move || {
                    barrier.wait();
                    let profile = |f| store.profile(&lb, f, &envs, &vmc).unwrap();
                    (0..keys).map(profile).collect::<Vec<_>>()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(profiles[0], profiles[1], "both requesters see the same profiles");
    assert!(profiles[0].iter().all(|p| !p.validated()), "every run hits the budget");
    let delta = store.stats().since(&before);
    assert_eq!(delta.dyn_profiled, keys as u64, "one computation per key");
    assert_eq!(
        (delta.dyn_misses, delta.dyn_hits),
        (keys as u64, keys as u64),
        "exactly one miss and one hit per key"
    );
}

#[test]
fn concurrent_profile_requests_execute_the_vm_exactly_once() {
    let _guard = vm_counter_lock().lock().unwrap_or_else(PoisonError::into_inner);
    let store = Arc::new(ArtifactStore::new());
    let lb = Arc::new(LoadedBinary::load(sample_binary()).unwrap());
    let (fuzz, vmc) = (FuzzConfig::default(), VmConfig::default());

    // Baseline: what one uncontended profiling run costs in VM executions.
    // A second store guarantees a cold dynamic lane for the measurement.
    let baseline_store = ArtifactStore::new();
    let envs = baseline_store.environments(&lb, &fuzz, &vmc).unwrap();
    let before = vm_executions();
    let expected = baseline_store.profile(&lb, 0, &envs, &vmc).unwrap();
    let single_run_cost = vm_executions() - before;
    assert!(single_run_cost > 0, "a cold profile must actually execute");

    // Race: two threads request the same profile from one cold store.
    let envs = Arc::new(store.environments(&lb, &fuzz, &vmc).unwrap());
    let before = vm_executions();
    let profiles: Vec<_> = std::thread::scope(|s| {
        (0..2)
            .map(|_| {
                let (store, lb, envs) = (Arc::clone(&store), Arc::clone(&lb), Arc::clone(&envs));
                let vmc = vmc.clone();
                s.spawn(move || store.profile(&lb, 0, &envs, &vmc).unwrap())
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(
        vm_executions() - before,
        single_run_cost,
        "two concurrent requesters pay for exactly one profiling run"
    );
    assert_eq!(store.stats().dyn_profiled, 1, "one live profile, not two");
    assert_eq!(profiles[0], expected, "the shared profile matches an uncontended run");
    assert_eq!(profiles[0], profiles[1], "both racers see the same profile");
}

#[test]
fn concurrent_environment_requests_fuzz_exactly_once() {
    let _guard = vm_counter_lock().lock().unwrap_or_else(PoisonError::into_inner);
    let store = Arc::new(ArtifactStore::new());
    let lb = Arc::new(LoadedBinary::load(sample_binary()).unwrap());
    let (fuzz, vmc) = (FuzzConfig::default(), VmConfig::default());

    let baseline_store = ArtifactStore::new();
    let before = vm_executions();
    let expected = baseline_store.environments(&lb, &fuzz, &vmc).unwrap();
    let single_run_cost = vm_executions() - before;
    assert!(single_run_cost > 0, "environment survival-filtering executes the reference");

    let before = vm_executions();
    let sets: Vec<_> = std::thread::scope(|s| {
        (0..2)
            .map(|_| {
                let (store, lb, fuzz) = (Arc::clone(&store), Arc::clone(&lb), fuzz.clone());
                let vmc = vmc.clone();
                s.spawn(move || store.environments(&lb, &fuzz, &vmc).unwrap())
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(
        vm_executions() - before,
        single_run_cost,
        "two concurrent requesters pay for exactly one environment generation"
    );
    assert_eq!(sets[0].envs, expected.envs);
    assert_eq!(sets[0].fingerprint, sets[1].fingerprint);
}
