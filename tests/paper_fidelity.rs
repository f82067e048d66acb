//! Paper-fidelity gates at reduced scale: claims of the paper's
//! evaluation that a regression in the hybrid pipeline must be able to
//! fail, checked on the evaluation the table binaries build under
//! `--quick` (20 Dataset I libraries, 12 epochs, 8 pairs per function,
//! device scale 0.05).
//!
//! * Every environment a dynamic stage runs on is one that both the
//!   vulnerable and the patched reference survive (§IV-B: inputs "tested
//!   ... worked with both the vulnerable and patched functions").
//! * Table VII: every target the static stage finds ranks top-3.
//! * The differential engine's dynamic channel is the union of both
//!   reference builds' environment sets kept where all three functions
//!   survive, so its distances and verdicts cannot move when the dynamic
//!   pass's sets do.

use patchecko::core::detector::DetectorConfig;
use patchecko::core::differential::{self, DifferentialConfig, PatchVerdict};
use patchecko::core::dynsource::{live_environments, live_profile};
use patchecko::core::eval::{build_evaluation, Evaluation, EvaluationConfig};
use patchecko::core::pipeline::{Basis, PipelineConfig, RunCtx};
use patchecko::core::similarity;
use patchecko::corpus::dataset1::Dataset1Config;
use patchecko::corpus::vulndb::DbEntry;
use patchecko::fwbin::format::Binary;
use patchecko::neural::net::TrainConfig;
use patchecko::vm::loader::LoadedBinary;
use std::sync::OnceLock;

const BASES: [Basis; 2] = [Basis::Vulnerable, Basis::Patched];

/// The table binaries' `--quick` evaluation.
fn quick_evaluation() -> &'static Evaluation {
    static EV: OnceLock<Evaluation> = OnceLock::new();
    EV.get_or_init(|| {
        build_evaluation(&EvaluationConfig {
            dataset1: Dataset1Config {
                num_libraries: 20,
                min_functions: 12,
                max_functions: 20,
                seed: 1,
                include_catalog: true,
            },
            detector: DetectorConfig {
                pairs_per_function: 8,
                train: TrainConfig { epochs: 12, batch: 256, lr: 1e-3, seed: 7, ..Default::default() },
                ..DetectorConfig::default()
            },
            pipeline: PipelineConfig::default(),
            device_scale: 0.05,
            bulk_db: 0,
        })
    })
}

/// Both reference builds of `entry` for `bin`'s architecture, vulnerable
/// first.
fn reference_builds(entry: &DbEntry, bin: &Binary) -> [LoadedBinary; 2] {
    [false, true].map(|patched| LoadedBinary::load(entry.reference_for(bin.arch, patched).clone()).unwrap())
}

/// Every environment of every featured CVE's dynamic stage on Android
/// Things, on both bases, is survived by both reference builds. The sets
/// depend only on the reference builds and the fuzzer, not on the
/// detector.
#[test]
fn every_stage_environment_is_survived_by_both_reference_builds() {
    let ev = quick_evaluation();
    let device = &ev.devices[0];
    let vm = &ev.patchecko.config.vm;
    let mut faults = Vec::new();
    for entry in ev.db.featured() {
        let cve = &entry.entry.cve;
        let truth = device.truth_for(cve).unwrap();
        let bin = device.image.binary(&truth.library).unwrap();
        let builds = reference_builds(entry, bin);
        for basis in BASES {
            let analysis = ev
                .patchecko
                .analyze_library(bin, &[(entry, basis)], &RunCtx::default())
                .unwrap()
                .remove(0);
            assert!(!analysis.dynamic.envs.is_empty(), "{cve} {basis}: the stage has no environment");
            for (build, name) in builds.iter().zip(["vulnerable", "patched"]) {
                let faulted = analysis
                    .dynamic
                    .envs
                    .iter()
                    .filter(|env| !build.run_any(0, env, vm).outcome.is_ok())
                    .count();
                if faulted > 0 {
                    let of = analysis.dynamic.envs.len();
                    faults.push(format!("{cve} {basis}: {faulted} of {of} fault the {name} build"));
                }
            }
        }
    }
    assert!(faults.is_empty(), "stage environments one reference build does not survive:\n{}", faults.join("\n"));
}

/// Table VII (Android Things, patched basis): every target the static
/// stage finds ranks top-3, the paper's "100% of the time".
#[test]
fn table7_ranks_every_found_target_top3() {
    let rows = quick_evaluation().table_rows(0, Basis::Patched);
    let found: Vec<_> = rows.iter().filter(|r| r.tp > 0).collect();
    assert!(!found.is_empty(), "the static stage finds no target");
    let missed: Vec<String> = found
        .iter()
        .filter(|r| r.ranking.is_none_or(|k| k > 3))
        .map(|r| format!("{} (rank {:?}, {} validated)", r.cve, r.ranking, r.execution))
        .collect();
    assert!(
        missed.is_empty(),
        "{} of {} found targets ranked top-3; not: {missed:?}",
        found.len() - missed.len(),
        found.len()
    );
}

/// The dynamic channel's distances as the engine computed them before
/// the environment rule was shared: both builds' own sets concatenated,
/// the three functions profiled live, kept where all three survive.
fn union_rule_distances(entry: &DbEntry, bin: &Binary, idx: usize, ev: &Evaluation) -> (f64, f64) {
    let cfg = &ev.patchecko.config;
    let [vref, pref] = reference_builds(entry, bin);
    let target = LoadedBinary::load(bin.clone()).unwrap();
    let mut union = live_environments(&vref, &cfg.fuzz, &cfg.vm).envs;
    union.extend(live_environments(&pref, &cfg.fuzz, &cfg.vm).envs);
    let prof_v = live_profile(&vref, 0, &union, &cfg.vm);
    let prof_p = live_profile(&pref, 0, &union, &cfg.vm);
    let prof_t = live_profile(&target, idx, &union, &cfg.vm);
    let keep: Vec<usize> =
        (0..union.len()).filter(|&i| prof_v.ok[i] && prof_p.ok[i] && prof_t.ok[i]).collect();
    let sub = |features: &[patchecko::vm::DynFeatures]| -> Vec<_> {
        keep.iter().map(|&i| features[i].clone()).collect()
    };
    let t = sub(&prof_t.features);
    let p = cfg.minkowski_p;
    (
        similarity::sim_over_envs(&sub(&prof_v.features), &t, p),
        similarity::sim_over_envs(&sub(&prof_p.features), &t, p),
    )
}

/// The verdict's margin and patch decision from the union rule's
/// distances and the verdict's own static and signature channels, which
/// do not depend on environments: the engine's channel-majority vote.
fn union_rule_vote(verdict: &PatchVerdict, (dv, dp): (f64, f64), cfg: &DifferentialConfig) -> (f64, bool) {
    let share = |a: f64, b: f64| if a + b < 1e-12 { 0.5 } else { a / (a + b) };
    let channel = |r: f64| -> i32 {
        if (r - 0.5).abs() <= cfg.tie_epsilon {
            0
        } else if r > 0.5 {
            1
        } else {
            -1
        }
    };
    let signature = &verdict.signature;
    let votes = channel(share(dv, dp))
        + channel(share(verdict.static_dist_vulnerable, verdict.static_dist_patched))
        + channel(share(f64::from(signature.votes_patched), f64::from(signature.votes_vulnerable)));
    (f64::from(votes) / 3.0, votes >= 0)
}

/// `detect_patch` on every featured CVE's planted target and on each
/// stage's best false positive, on both devices, gives bitwise the
/// distances, margin and verdict of the union rule: Table VIII cannot
/// move when the dynamic pass's environment sets do.
#[test]
fn differential_verdicts_equal_the_union_rule() {
    let ev = quick_evaluation();
    let cfg = DifferentialConfig::default();
    let ctx = RunCtx::default();
    let mut checked = 0;
    for device in &ev.devices {
        for entry in ev.db.featured() {
            let cve = &entry.entry.cve;
            let truth = device.truth_for(cve).unwrap();
            let bin = device.image.binary(&truth.library).unwrap();
            let mut targets = vec![truth.function_index];
            for basis in BASES {
                let analysis = ev
                    .patchecko
                    .analyze_library(bin, &[(entry, basis)], &ctx)
                    .unwrap()
                    .remove(0);
                let mut ranked = analysis.dynamic.ranking.iter().map(|r| r.function_index);
                if let Some(fp) = ranked.find(|&f| f != truth.function_index) {
                    if !targets.contains(&fp) {
                        targets.push(fp);
                    }
                }
            }
            for idx in targets {
                let what = format!("{} {cve} {}:{idx}", device.image.device, bin.lib_name);
                let verdict = differential::detect_patch(&ev.patchecko, entry, bin, idx, &cfg, &ctx).unwrap();
                assert!(!verdict.degraded, "{what}: degraded verdict");
                let (dv, dp) = union_rule_distances(entry, bin, idx, ev);
                assert_eq!(verdict.dyn_dist_vulnerable.to_bits(), dv.to_bits(), "{what}: d(v, t)");
                assert_eq!(verdict.dyn_dist_patched.to_bits(), dp.to_bits(), "{what}: d(p, t)");
                let (margin, patched) = union_rule_vote(&verdict, (dv, dp), &cfg);
                assert_eq!(verdict.margin.to_bits(), margin.to_bits(), "{what}: margin");
                assert_eq!(verdict.patched, patched, "{what}: verdict");
                checked += 1;
            }
        }
    }
    assert!(checked > 2 * 25, "only {checked} targets checked");
}
