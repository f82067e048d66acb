//! The differential engine (§III-D): given the vulnerable reference `f_v`,
//! the patched reference `f_p`, and the located target `f_t`, decide
//! whether the target carries the patch.
//!
//! Three evidence channels, as in the paper:
//!
//! 1. **static features** — the 48 Table I features of all three versions;
//! 2. **dynamic semantic similarity** — `sim(f_v, f_t)` vs `sim(f_p, f_t)`
//!    on shared execution environments;
//! 3. **differential signatures** — CFG topology plus semantic information
//!    (library-call sets, string references, parameters, local sizes; the
//!    paper's `j___aeabi_memmove` / "if condition" examples).
//!
//! When every channel is inconclusive (|margin| below the tie threshold)
//! the verdict defaults to *patched* — this documented tie-break is what
//! reproduces the paper's single Table VIII miss, CVE-2018-9470, whose
//! patch changes one integer constant and is invisible to all three
//! channels.

use crate::dynsource::EnvSet;
use crate::error::ScanError;
use crate::features::StaticFeatures;
use crate::pipeline::{Basis, Patchecko, RunCtx};
use crate::similarity;
use corpus::vulndb::DbEntry;
use fwbin::format::Binary;
use fwbin::isa::Inst;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use vm::loader::LoadedBinary;

/// Differential-engine tuning.
#[derive(Debug, Clone)]
pub struct DifferentialConfig {
    /// Margin below which the evidence is considered inconclusive.
    pub tie_epsilon: f64,
    /// Enable the exploit channel: replay the catalog entry's
    /// proof-of-concept input (when one is public) against all three
    /// functions and vote on behavioural match. Off by default — the
    /// paper's evaluation does not use exploits; its §V-D limitations
    /// discussion proposes exactly this to close the CVE-2018-9470 gap
    /// ("a solution would be to add more fine-grained features from known
    /// vulnerability exploits"). See the `ablation_exploit_channel`
    /// binary.
    pub use_exploit_channel: bool,
}

impl Default for DifferentialConfig {
    fn default() -> DifferentialConfig {
        DifferentialConfig { tie_epsilon: 0.02, use_exploit_channel: false }
    }
}

/// The signature comparison detail (for reports).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SignatureDiff {
    /// Library routines called by the vulnerable reference.
    pub vuln_imports: Vec<String>,
    /// Library routines called by the patched reference.
    pub patched_imports: Vec<String>,
    /// Library routines called by the target.
    pub target_imports: Vec<String>,
    /// Signature components that matched the vulnerable side.
    pub votes_vulnerable: u32,
    /// Signature components that matched the patched side.
    pub votes_patched: u32,
}

/// The engine's decision with its full evidence trail.
///
/// Serialization is handwritten (not derived) because degraded verdicts
/// carry `f64::INFINITY` dynamic distances and JSON has no ±infinity:
/// non-finite distances map through `null` on the wire and back, so a
/// degraded verdict survives daemon transport losslessly.
#[derive(Debug, Clone)]
pub struct PatchVerdict {
    /// CVE under test.
    pub cve: String,
    /// Final decision: `true` = the target carries the patch.
    pub patched: bool,
    /// Dynamic similarity distance to the vulnerable reference
    /// (Equation 2; the paper's case study reports 34.7 here).
    pub dyn_dist_vulnerable: f64,
    /// Dynamic distance to the patched reference (the case study's 65.6).
    pub dyn_dist_patched: f64,
    /// Static (normalized L2) distance to the vulnerable reference.
    pub static_dist_vulnerable: f64,
    /// Static distance to the patched reference.
    pub static_dist_patched: f64,
    /// Signature comparison.
    pub signature: SignatureDiff,
    /// Combined decision margin in [-1, 1]; positive favors patched.
    pub margin: f64,
    /// Whether the tie-break rule decided (inconclusive evidence).
    pub tie_break: bool,
    /// Exploit-channel vote, when the channel ran: +1 the target behaves
    /// like the patched build on the PoC, -1 like the vulnerable build,
    /// 0 inconclusive.
    pub exploit_vote: Option<i32>,
    /// Whether the dynamic channel was unavailable (a reference or the
    /// target failed to load) and the verdict rests on the static and
    /// signature channels alone. Degraded verdicts report
    /// `f64::INFINITY` dynamic distances and abstain on the dynamic vote.
    pub degraded: bool,
}

impl PatchVerdict {
    /// How close the target is to either reference version: the smaller
    /// dynamic distance plus the smaller static distance. Degraded
    /// verdicts have infinite dynamic distances; their dynamic term counts
    /// as 0, so candidate selection falls back to static proximity alone.
    pub fn proximity(&self) -> f64 {
        let dynamic = self.dyn_dist_vulnerable.min(self.dyn_dist_patched);
        let dynamic = if dynamic.is_finite() { dynamic } else { 0.0 };
        dynamic + self.static_dist_vulnerable.min(self.static_dist_patched)
    }
}

impl Serialize for PatchVerdict {
    fn to_value(&self) -> serde::value::Value {
        use serde::value::Value;
        // Non-finite (degraded) dynamic distances become JSON null.
        let dist = |v: f64| if v.is_finite() { Value::Float(v) } else { Value::Null };
        Value::Map(vec![
            ("cve".into(), self.cve.to_value()),
            ("patched".into(), Value::Bool(self.patched)),
            ("dyn_dist_vulnerable".into(), dist(self.dyn_dist_vulnerable)),
            ("dyn_dist_patched".into(), dist(self.dyn_dist_patched)),
            ("static_dist_vulnerable".into(), Value::Float(self.static_dist_vulnerable)),
            ("static_dist_patched".into(), Value::Float(self.static_dist_patched)),
            ("signature".into(), self.signature.to_value()),
            ("margin".into(), Value::Float(self.margin)),
            ("tie_break".into(), Value::Bool(self.tie_break)),
            ("exploit_vote".into(), self.exploit_vote.to_value()),
            ("degraded".into(), Value::Bool(self.degraded)),
        ])
    }
}

impl<'de> Deserialize<'de> for PatchVerdict {
    fn from_value(v: serde::value::Value) -> Result<PatchVerdict, serde::de::DeError> {
        use serde::value::Value;
        let mut map = serde::de::into_map(v)?;
        // A dynamic distance is a number, or null for the degraded
        // (non-finite) case; a missing field also reads as degraded.
        let mut dist = |name: &str| -> Result<f64, serde::de::DeError> {
            match serde::de::opt_field::<Value>(&mut map, name)? {
                None | Some(Value::Null) => Ok(f64::INFINITY),
                Some(v) => v.as_f64().ok_or_else(|| {
                    serde::de::DeError(format!("field `{name}`: expected number or null"))
                }),
            }
        };
        let dyn_dist_vulnerable = dist("dyn_dist_vulnerable")?;
        let dyn_dist_patched = dist("dyn_dist_patched")?;
        Ok(PatchVerdict {
            dyn_dist_vulnerable,
            dyn_dist_patched,
            cve: serde::de::field(&mut map, "cve")?,
            patched: serde::de::field(&mut map, "patched")?,
            static_dist_vulnerable: serde::de::field(&mut map, "static_dist_vulnerable")?,
            static_dist_patched: serde::de::field(&mut map, "static_dist_patched")?,
            signature: serde::de::field(&mut map, "signature")?,
            margin: serde::de::field(&mut map, "margin")?,
            tie_break: serde::de::field(&mut map, "tie_break")?,
            exploit_vote: serde::de::opt_field(&mut map, "exploit_vote")?.flatten(),
            degraded: serde::de::opt_field(&mut map, "degraded")?.unwrap_or(false),
        })
    }
}

/// Names of imported routines called by function `idx` of `bin`.
pub fn import_call_names(bin: &Binary, idx: usize) -> BTreeSet<String> {
    let Ok(code) = bin.decode_function(idx) else {
        return BTreeSet::new();
    };
    code.iter()
        .filter_map(|i| match i {
            Inst::Call { sym } if sym.is_import() => {
                bin.imports.get(sym.index() as usize).cloned()
            }
            _ => None,
        })
        .collect()
}

fn static_distance(norm: &crate::features::Normalizer, a: &StaticFeatures, b: &StaticFeatures) -> f64 {
    norm.apply(a)
        .iter()
        .zip(norm.apply(b))
        .map(|(x, y)| ((x - y) as f64).powi(2))
        .sum::<f64>()
        .sqrt()
}

/// Ratio in [0, 1]: 0 when all weight sits on `a`, 1 when on `b`, 0.5 when
/// equal or both zero.
fn share(a: f64, b: f64) -> f64 {
    if a + b < 1e-12 {
        0.5
    } else {
        a / (a + b)
    }
}

/// Run the differential engine for one located target function, static
/// features and dynamic profiles served by `ctx`: cached sources let a
/// warm re-audit skip all three static extractions *and* every VM
/// execution here.
///
/// `target_idx` is the function (from the pipeline's ranking) inside
/// `target_bin`. Environments are generated from both references and
/// filtered to those all three functions survive, so the three dynamic
/// profiles are comparable.
///
/// # Errors
/// [`ScanError::DeadlineExceeded`] when `ctx.cancel` has expired;
/// otherwise static extraction failures from the source. Loader failures
/// on the dynamic side do **not** error: the verdict degrades to the
/// static and signature channels with [`PatchVerdict::degraded`] set.
pub fn detect_patch(
    patchecko: &Patchecko,
    entry: &DbEntry,
    target_bin: &Binary,
    target_idx: usize,
    cfg: &DifferentialConfig,
    ctx: &RunCtx,
) -> Result<PatchVerdict, ScanError> {
    ctx.cancel.check()?;
    let _span = scope::SpanGuard::enter("differential").with_detail(entry.entry.cve.clone());
    let vm_cfg = &patchecko.config.vm;
    let dynsrc = &ctx.profiles;

    // --- static channel ---
    let fv = Patchecko::reference_features(entry, Basis::Vulnerable, ctx.features)?;
    let fp = Patchecko::reference_features(entry, Basis::Patched, ctx.features)?;
    let ft = ctx.features.features_one(target_bin, target_idx)?;
    let norm = &patchecko.detector.norm;
    let sv = static_distance(norm, &fv, &ft);
    let sp = static_distance(norm, &fp, &ft);

    // --- dynamic channel (references compiled for the target's platform,
    // as both run on-device in the paper's setup) --- A loader failure on
    // any of the three binaries degrades the verdict to the remaining
    // channels instead of panicking.
    let loaded: Result<(LoadedBinary, LoadedBinary, LoadedBinary), ScanError> = (|| {
        let vref = LoadedBinary::load(entry.reference_for(target_bin.arch, false).clone())
            .map_err(|e| ScanError::load(&entry.entry.library, &e))?;
        let pref = LoadedBinary::load(entry.reference_for(target_bin.arch, true).clone())
            .map_err(|e| ScanError::load(&entry.entry.library, &e))?;
        let target = LoadedBinary::load(target_bin.clone())
            .map_err(|e| ScanError::load(&target_bin.lib_name, &e))?;
        Ok((vref, pref, target))
    })();
    let mut degraded = loaded.is_err();
    let (dv, dp, loaded) = match loaded {
        Ok((vref, pref, target)) => {
            // Env union of both references, then the old in-place `retain`
            // (keep environments all three functions survive) expressed as
            // an ok-bit intersection over full per-env profiles — runs are
            // independent per environment, so subsetting a full profile is
            // bitwise-identical to re-running the subset, and one cached
            // profile per (function, env set) serves every verdict.
            let dyn_channel = (|| -> Result<(f64, f64), ScanError> {
                let fuzz_cfg = &patchecko.config.fuzz;
                let set_v = dynsrc.environments(&vref, fuzz_cfg, vm_cfg)?;
                let set_p = dynsrc.environments(&pref, fuzz_cfg, vm_cfg)?;
                let union: EnvSet = set_v.union(&set_p, vm_cfg);
                let prof_v = dynsrc.profile(&vref, 0, &union, vm_cfg)?;
                let prof_p = dynsrc.profile(&pref, 0, &union, vm_cfg)?;
                let prof_t = dynsrc.profile(&target, target_idx, &union, vm_cfg)?;
                let keep: Vec<usize> = (0..union.len())
                    .filter(|&i| prof_v.ok[i] && prof_p.ok[i] && prof_t.ok[i])
                    .collect();
                let sub = |prof: &crate::dynsource::DynProfile| -> Vec<vm::DynFeatures> {
                    keep.iter().map(|&i| prof.features[i].clone()).collect()
                };
                let p = patchecko.config.minkowski_p;
                let dv = similarity::sim_over_envs(&sub(&prof_v), &sub(&prof_t), p);
                let dp = similarity::sim_over_envs(&sub(&prof_p), &sub(&prof_t), p);
                Ok((dv, dp))
            })();
            match dyn_channel {
                Ok((dv, dp)) => (dv, dp, Some((vref, pref, target))),
                Err(_) => {
                    degraded = true;
                    (f64::INFINITY, f64::INFINITY, Some((vref, pref, target)))
                }
            }
        }
        Err(_) => (f64::INFINITY, f64::INFINITY, None),
    };

    // --- signature channel ---
    let vuln_imports = import_call_names(&entry.vulnerable_bin, 0);
    let patched_imports = import_call_names(&entry.patched_bin, 0);
    let target_imports = import_call_names(target_bin, target_idx);
    let mut votes_v = 0u32;
    let mut votes_p = 0u32;
    let mut vote = |d_v: f64, d_p: f64| {
        if d_v < d_p {
            votes_v += 1;
        } else if d_p < d_v {
            votes_p += 1;
        }
    };
    // Library-call set (the paper's memmove example) — counted only when
    // the references actually disagree.
    if vuln_imports != patched_imports {
        let jac = |a: &BTreeSet<String>, b: &BTreeSet<String>| -> f64 {
            let inter = a.intersection(b).count() as f64;
            let uni = a.union(b).count() as f64;
            if uni == 0.0 {
                0.0
            } else {
                1.0 - inter / uni
            }
        };
        vote(jac(&vuln_imports, &target_imports), jac(&patched_imports, &target_imports));
    }
    // CFG topology: block and edge counts.
    for name in ["num_bb", "num_edge", "cyclomatic_complexity"] {
        let v = fv.by_name(name).unwrap();
        let pch = fp.by_name(name).unwrap();
        let t = ft.by_name(name).unwrap();
        if v != pch {
            vote((v - t).abs(), (pch - t).abs());
        }
    }
    // Semantic info: string refs, constants, locals, calls.
    for name in ["num_string", "num_constant", "size_local", "num_cx"] {
        let v = fv.by_name(name).unwrap();
        let pch = fp.by_name(name).unwrap();
        let t = ft.by_name(name).unwrap();
        if v != pch {
            vote((v - t).abs(), (pch - t).abs());
        }
    }

    // --- optional exploit channel (§V-D future work) ---
    let exploit_vote = match (&loaded, cfg.use_exploit_channel) {
        (Some((vref, pref, target)), true) => entry.entry.poc.as_ref().map(|poc| {
            let env = vm::ExecEnv::for_buffer(poc.clone(), &[]);
            let run = |lb: &LoadedBinary, f: usize| lb.run_any(f, &env, vm_cfg);
            let rv = run(vref, 0);
            let rp = run(pref, 0);
            let rt = run(target, target_idx);
            exploit_behaviour_vote(&rv, &rp, &rt)
        }),
        _ => None,
    };

    // --- combine: channel-majority vote ---
    // Each channel casts +1 (patched), -1 (vulnerable) or abstains when
    // its ratio sits inside the tie band. All three ratios share one
    // orientation: > 0.5 means the target sits far from the vulnerable
    // reference (looks patched). Channel votes rather than a blended mean
    // keep a decisive signature (the paper's `j___aeabi_memmove` example)
    // from being drowned out by noisy dynamic instruction counts.
    // A degraded verdict abstains on the dynamic channel (its infinite
    // distances carry no information).
    let r_dyn = if degraded { 0.5 } else { share(dv, dp) };
    let r_static = share(sv, sp);
    let r_sig = share(votes_p as f64, votes_v as f64);
    let channel = |r: f64| -> i32 {
        if (r - 0.5).abs() <= cfg.tie_epsilon {
            0
        } else if r > 0.5 {
            1
        } else {
            -1
        }
    };
    let mut votes = channel(r_dyn) + channel(r_static) + channel(r_sig);
    let mut n_channels = 3;
    if let Some(ev) = exploit_vote {
        // Exploit behaviour is the most direct evidence: it observes the
        // vulnerability itself, so it carries double weight.
        votes += 2 * ev;
        n_channels += 2;
    }
    let margin = votes as f64 / n_channels as f64;
    let tie_break = votes == 0;
    let patched = if tie_break { true } else { votes > 0 };

    Ok(PatchVerdict {
        cve: entry.entry.cve.clone(),
        patched,
        dyn_dist_vulnerable: dv,
        dyn_dist_patched: dp,
        static_dist_vulnerable: sv,
        static_dist_patched: sp,
        signature: SignatureDiff {
            vuln_imports: vuln_imports.into_iter().collect(),
            patched_imports: patched_imports.into_iter().collect(),
            target_imports: target_imports.into_iter().collect(),
            votes_vulnerable: votes_v,
            votes_patched: votes_p,
        },
        margin,
        tie_break,
        exploit_vote,
        degraded,
    })
}

/// Compare the target's behaviour on the PoC input against both reference
/// builds: -1 when it behaves like the vulnerable build, +1 like the
/// patched build, 0 when indistinguishable.
///
/// Behaviour is compared hierarchically, most to least decisive: outcome
/// class (return vs crash), returned value, then the Minkowski distance of
/// the dynamic feature vectors of the PoC run.
fn exploit_behaviour_vote(
    vuln: &vm::RunResult,
    patched: &vm::RunResult,
    target: &vm::RunResult,
) -> i32 {
    use vm::Outcome;
    let class = |o: &Outcome| matches!(o, Outcome::Returned(_));
    let (cv, cp, ct) = (class(&vuln.outcome), class(&patched.outcome), class(&target.outcome));
    if cv != cp {
        // The PoC separates the builds by outcome class (e.g. the
        // vulnerable build crashes): the target's class decides.
        return if ct == cp { 1 } else { -1 };
    }
    if let (Outcome::Returned(v), Outcome::Returned(p), Outcome::Returned(t)) =
        (&vuln.outcome, &patched.outcome, &target.outcome)
    {
        if v.as_int() != p.as_int() {
            if t.as_int() == p.as_int() {
                return 1;
            }
            if t.as_int() == v.as_int() {
                return -1;
            }
        }
    }
    // Fall back to dynamic-profile proximity on the PoC run (the
    // flagship's quadratic-memmove signature shows up here).
    let dv = crate::similarity::minkowski(
        vuln.features.as_slice(),
        target.features.as_slice(),
        crate::similarity::PAPER_P,
    );
    let dp = crate::similarity::minkowski(
        patched.features.as_slice(),
        target.features.as_slice(),
        crate::similarity::PAPER_P,
    );
    if (dv - dp).abs() < 1e-9 {
        0
    } else if dp < dv {
        1
    } else {
        -1
    }
}

/// Run the differential engine on several candidate target functions and
/// keep the verdict of the candidate most likely to *be* the target: the
/// one closest to either reference version
/// ([`PatchVerdict::proximity`]). A false positive sits far from both the
/// vulnerable and the patched build of the CVE function; the true target
/// is near one of them. Proximities within 1e-9 tie (including the
/// all-zero distances of feature-invisible patches) and break toward the
/// more decisive margin.
///
/// Returns `None` if `candidates` is empty.
///
/// # Errors
/// The first per-candidate [`ScanError`], if any — including
/// [`ScanError::DeadlineExceeded`], which [`detect_patch`] checks before
/// every candidate.
pub fn detect_patch_best(
    patchecko: &Patchecko,
    entry: &DbEntry,
    target_bin: &Binary,
    candidates: &[usize],
    cfg: &DifferentialConfig,
    ctx: &RunCtx,
) -> Result<Option<(usize, PatchVerdict)>, ScanError> {
    let mut best: Option<(usize, PatchVerdict)> = None;
    for &c in candidates {
        let v = detect_patch(patchecko, entry, target_bin, c, cfg, ctx)?;
        let better = match &best {
            Some((_, b)) => {
                let (p, d) = (v.proximity(), b.proximity());
                p < d - 1e-9 || ((p - d).abs() <= 1e-9 && v.margin.abs() > b.margin.abs())
            }
            None => true,
        };
        if better {
            best = Some((c, v));
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use crate::testutil::shared_detector;

    fn quick_patchecko() -> Patchecko {
        Patchecko::new(shared_detector().clone(), PipelineConfig::default())
    }

    /// Compile a target carrying the requested version of a CVE entry's
    /// function at index 0 (standalone; enough for engine tests).
    fn target_with(entry: &corpus::vulndb::DbEntry, patched: bool) -> Binary {
        let lib = corpus::catalog::reference_library(&entry.entry, patched);
        // Device-style compilation: different arch/opt from the reference.
        let mut bin =
            fwbin::compile_library(&lib, fwbin::Arch::Arm32, fwbin::OptLevel::O2).unwrap();
        bin.strip();
        bin
    }

    #[test]
    fn degraded_verdicts_round_trip_through_json() {
        // Degraded verdicts carry infinite dynamic distances; JSON has no
        // ±inf, so the wire shim maps them through `null` and back.
        let v = PatchVerdict {
            cve: "CVE-0000-0000".into(),
            patched: true,
            dyn_dist_vulnerable: f64::INFINITY,
            dyn_dist_patched: f64::INFINITY,
            static_dist_vulnerable: 0.25,
            static_dist_patched: 0.125,
            signature: SignatureDiff {
                vuln_imports: vec!["memmove".into()],
                patched_imports: Vec::new(),
                target_imports: Vec::new(),
                votes_vulnerable: 1,
                votes_patched: 2,
            },
            margin: 0.5,
            tie_break: false,
            exploit_vote: None,
            degraded: true,
        };
        let json = serde_json::to_string(&v).unwrap();
        let back: PatchVerdict = serde_json::from_str(&json).unwrap();
        assert!(back.dyn_dist_vulnerable.is_infinite() && back.dyn_dist_patched.is_infinite());
        assert_eq!(back.static_dist_patched, 0.125, "finite distances pass through exactly");
        assert!(back.degraded);
    }

    #[test]
    fn flagship_vulnerable_target_detected_vulnerable() {
        let patchecko = quick_patchecko();
        let db = corpus::build_vulndb(0, 1);
        let entry = db.get("CVE-2018-9412").unwrap();
        let target = target_with(entry, false);
        let cfg = DifferentialConfig::default();
        let v = detect_patch(&patchecko, entry, &target, 0, &cfg, &RunCtx::default()).unwrap();
        assert!(!v.patched, "margin {}, dv {} dp {}", v.margin, v.dyn_dist_vulnerable, v.dyn_dist_patched);
        // The paper's case-study signal: memmove in the vulnerable import
        // set, absent from the patched one, present in the target.
        assert!(v.signature.vuln_imports.contains(&"memmove".to_string()));
        assert!(!v.signature.patched_imports.contains(&"memmove".to_string()));
        assert!(v.signature.target_imports.contains(&"memmove".to_string()));
    }

    #[test]
    fn flagship_patched_target_detected_patched() {
        let patchecko = quick_patchecko();
        let db = corpus::build_vulndb(0, 1);
        let entry = db.get("CVE-2018-9412").unwrap();
        let target = target_with(entry, true);
        let cfg = DifferentialConfig::default();
        let v = detect_patch(&patchecko, entry, &target, 0, &cfg, &RunCtx::default()).unwrap();
        assert!(v.patched, "margin {}", v.margin);
    }

    #[test]
    fn exploit_channel_resolves_tiny_patch() {
        // §V-D: with the PoC available, the one-integer patch becomes
        // behaviourally observable and the tie-break never fires.
        let patchecko = quick_patchecko();
        let db = corpus::build_vulndb(0, 1);
        let entry = db.get("CVE-2018-9470").unwrap();
        assert!(entry.entry.poc.is_some(), "9470 carries a PoC");
        let cfg = DifferentialConfig { use_exploit_channel: true, ..Default::default() };
        let ctx = RunCtx::default();
        let v = detect_patch(&patchecko, entry, &target_with(entry, false), 0, &cfg, &ctx).unwrap();
        assert_eq!(v.exploit_vote, Some(-1), "target behaves like the vulnerable build");
        assert!(!v.patched, "exploit evidence overrides the tie");
        let v = detect_patch(&patchecko, entry, &target_with(entry, true), 0, &cfg, &ctx).unwrap();
        assert_eq!(v.exploit_vote, Some(1));
        assert!(v.patched);
    }

    #[test]
    fn exploit_channel_flagship_profile_match() {
        // The flagship PoC (ff 00 stuffing) separates the builds by
        // dynamic profile (quadratic memmove), not by return value.
        let patchecko = quick_patchecko();
        let db = corpus::build_vulndb(0, 1);
        let entry = db.get("CVE-2018-9412").unwrap();
        let cfg = DifferentialConfig { use_exploit_channel: true, ..Default::default() };
        let ctx = RunCtx::default();
        let v = detect_patch(&patchecko, entry, &target_with(entry, false), 0, &cfg, &ctx).unwrap();
        assert_eq!(v.exploit_vote, Some(-1));
        assert!(!v.patched);
    }

    use proptest::prelude::*;

    /// [`quick_patchecko`] with a narrow fuzz budget: the properties below
    /// run the engine several times per case, and the invariants under
    /// test do not depend on the environment count.
    fn small_patchecko() -> Patchecko {
        let cfg = PipelineConfig {
            fuzz: vm::FuzzConfig { rounds: 40, num_envs: 3, ..vm::FuzzConfig::default() },
            ..PipelineConfig::default()
        };
        Patchecko::new(shared_detector().clone(), cfg)
    }

    /// The vulnerable/patched roles of `entry`, swapped — both the source
    /// functions the references are compiled from and the precompiled
    /// signature-channel binaries.
    fn role_flipped(entry: &DbEntry) -> DbEntry {
        DbEntry::new(corpus::catalog::CveEntry {
            vulnerable: entry.entry.patched.clone(),
            patched: entry.entry.vulnerable.clone(),
            ..entry.entry.clone()
        })
    }

    const PROP_CVES: [&str; 3] = ["CVE-2018-9412", "CVE-2018-9451", "CVE-2018-9470"];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

        /// Satellite invariant 1: [`detect_patch_best`] must not depend on
        /// the order the candidate list is supplied in — same chosen
        /// function, same decision, bit-identical margin. The candidates
        /// are distinct functions of a generated library, so proximity
        /// ties (the only order-sensitive code path) cannot occur.
        #[test]
        fn best_verdict_invariant_under_candidate_order(
            seed in 0u64..10_000,
            rot in 1usize..4,
            cve_i in 0usize..3,
        ) {
            let patchecko = small_patchecko();
            let db = corpus::build_vulndb(0, 1);
            let entry = db.get(PROP_CVES[cve_i]).unwrap();
            let lib = fwlang::gen::Generator::new(seed).library_sized("libdiff", 6);
            let target =
                fwbin::compile_library(&lib, fwbin::Arch::Arm32, fwbin::OptLevel::O2).unwrap();
            let cfg = DifferentialConfig::default();
            let base: Vec<usize> = vec![0, 1, 2, 3];
            let mut permuted = base.clone();
            permuted.rotate_left(rot);
            permuted.reverse();
            let ctx = RunCtx::default();
            let (ac, av) =
                detect_patch_best(&patchecko, entry, &target, &base, &cfg, &ctx).unwrap().unwrap();
            let (bc, bv) = detect_patch_best(&patchecko, entry, &target, &permuted, &cfg, &ctx)
                .unwrap()
                .unwrap();
            prop_assert_eq!(ac, bc, "chosen candidate depends on supply order");
            prop_assert_eq!(av.patched, bv.patched);
            prop_assert_eq!(av.tie_break, bv.tie_break);
            prop_assert_eq!(av.margin.to_bits(), bv.margin.to_bits());
            prop_assert_eq!(av.dyn_dist_vulnerable.to_bits(), bv.dyn_dist_vulnerable.to_bits());
            prop_assert_eq!(av.dyn_dist_patched.to_bits(), bv.dyn_dist_patched.to_bits());
        }

        /// Satellite invariant 2: swapping the vulnerable and patched
        /// references flips every non-tie verdict — the engine's evidence
        /// channels are symmetric in the two reference roles. Ties stay
        /// ties and keep the documented patched-by-default decision in
        /// both orientations.
        #[test]
        fn swapping_references_flips_the_verdict(
            cve_i in 0usize..3,
            target_patched in any::<bool>(),
        ) {
            let patchecko = small_patchecko();
            let db = corpus::build_vulndb(0, 1);
            let entry = db.get(PROP_CVES[cve_i]).unwrap();
            let target = target_with(entry, target_patched);
            let cfg = DifferentialConfig::default();
            let ctx = RunCtx::default();
            let v = detect_patch(&patchecko, entry, &target, 0, &cfg, &ctx).unwrap();
            let w = detect_patch(&patchecko, &role_flipped(entry), &target, 0, &cfg, &ctx).unwrap();
            prop_assert_eq!(v.tie_break, w.tie_break, "tie is role-symmetric");
            if v.tie_break {
                prop_assert!(v.patched && w.patched, "tie-break defaults to patched");
            } else {
                prop_assert_eq!(v.patched, !w.patched, "verdict must flip with the roles");
                prop_assert!(
                    v.margin * w.margin <= 0.0,
                    "margins must change sign: {} vs {}", v.margin, w.margin
                );
            }
            // The static and signature channels swap exactly — same
            // extractions and same import sets, with the roles reversed.
            prop_assert_eq!(v.static_dist_vulnerable.to_bits(), w.static_dist_patched.to_bits());
            prop_assert_eq!(v.static_dist_patched.to_bits(), w.static_dist_vulnerable.to_bits());
            prop_assert_eq!(v.signature.votes_vulnerable, w.signature.votes_patched);
            prop_assert_eq!(v.signature.votes_patched, w.signature.votes_vulnerable);
        }
    }

    #[test]
    fn tiny_patch_falls_to_tie_break() {
        // CVE-2018-9470: one-constant patch; all channels inconclusive.
        let patchecko = quick_patchecko();
        let db = corpus::build_vulndb(0, 1);
        let entry = db.get("CVE-2018-9470").unwrap();
        let target = target_with(entry, false); // actually vulnerable
        let cfg = DifferentialConfig::default();
        let v = detect_patch(&patchecko, entry, &target, 0, &cfg, &RunCtx::default()).unwrap();
        // The engine cannot tell and defaults to "patched" — the paper's
        // one Table VIII miss.
        assert!(v.tie_break, "expected inconclusive evidence, margin {}", v.margin);
        assert!(v.patched);
    }
}
