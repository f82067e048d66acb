//! Where the dynamic stage gets execution environments and dynamic
//! profiles from — the dynamic-side twin of
//! [`crate::pipeline::FeatureSource`] — and the one rule that decides
//! which environments a search runs on.
//!
//! The paper's dynamic stage is the pipeline's dominant cost (Table VII:
//! hours of on-device execution against seconds of static scanning), and
//! both its products are pure functions of content:
//!
//! * an **environment set** is determined by the reference function's
//!   code, the fuzzer configuration, and the interpreter limits;
//! * a **dynamic profile** is determined by the profiled function's code,
//!   the exact environment set, and the interpreter limits.
//!
//! [`DynProfileSource`] abstracts over where those come from. The default
//! [`LiveProfiling`] fuzzes and executes on every call; scanhub's
//! artifact store implements the trait to serve both from its
//! content-addressed dynamic lane, which is how a warm re-audit performs
//! zero VM executions.
//!
//! The paper replays inputs that it "tested ... worked with both the
//! vulnerable and patched functions" (§IV-B). [`shared_environments`] is
//! that rule, written once: a search basis runs on its own build's set,
//! kept where the other build survives too. The dynamic pass ranks every
//! stage on it, and the differential engine compares the target on both
//! bases' sets, so the two can never disagree about which inputs count.

use crate::error::ScanError;
use crate::pipeline::Basis;
use serde::{Deserialize, Serialize};
use vm::env::{ArgSpec, ExecEnv};
use vm::envpool::EnvPool;
use vm::exec::VmConfig;
use vm::fuzz::{self, FuzzConfig};
use vm::loader::LoadedBinary;
use vm::DynFeatures;

/// Dual-lane 64-bit FNV-1a: the `hi` lane hashes bytes as-is, the `lo`
/// lane hashes each byte rotated left by 3 from a different offset basis,
/// giving two decorrelated 64-bit digests. It names every cached artifact
/// (scanhub's `ArtifactKey`, tenant salts, entry checksums) and every
/// [`EnvSet`] fingerprint, so its output is part of the persisted cache
/// format: changing it cold-misses every on-disk cache.
pub struct Fnv2 {
    /// The plain-byte lane.
    pub hi: u64,
    /// The rotated-byte lane.
    pub lo: u64,
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv2 {
    /// A hasher at the two offset bases.
    pub fn new() -> Fnv2 {
        Fnv2 { hi: 0xcbf2_9ce4_8422_2325, lo: 0x6c62_272e_07bb_0142 }
    }

    /// Feed `bytes` to both lanes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hi = (self.hi ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            self.lo = (self.lo ^ u64::from(b.rotate_left(3))).wrapping_mul(FNV_PRIME);
        }
    }

    /// Feed `v` as 4 little-endian bytes.
    pub fn update_u32(&mut self, v: u32) {
        self.update(&v.to_le_bytes());
    }

    /// Feed `v` as 8 little-endian bytes.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Feed `words` whole: each lane folds one word per multiply, the `lo`
    /// lane's rotated left by 3, instead of one byte per multiply as
    /// [`Fnv2::update`] does, so bulk input (model parameters, feature
    /// rows, code bytes) hashes five to eight times faster. Each fold is
    /// a bijection of the lane's state, so two sequences of one length
    /// that differ in a single word always digest apart. It digests a
    /// word differently from [`Fnv2::update_u64`], so moving an input
    /// from one to the other changes every key that hashes it.
    pub fn update_words(&mut self, words: impl IntoIterator<Item = u64>) {
        for w in words {
            self.hi = (self.hi ^ w).wrapping_mul(FNV_PRIME);
            self.lo = (self.lo ^ w.rotate_left(3)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Feed an environment list: its length, then each environment's
    /// length-prefixed input bytes, argument specs and global overrides.
    /// [`EnvSet`] fingerprints and scanhub's env-set checksums both hash
    /// through here.
    pub fn update_envs(&mut self, envs: &[ExecEnv]) {
        self.update_u64(envs.len() as u64);
        for env in envs {
            self.update_u64(env.input.len() as u64);
            self.update(&env.input);
            self.update_u64(env.args.len() as u64);
            for arg in &env.args {
                match arg {
                    ArgSpec::InputPtr => self.update(&[1]),
                    ArgSpec::Int(v) => {
                        self.update(&[2]);
                        self.update_u64(*v as u64);
                    }
                    ArgSpec::Float(v) => {
                        self.update(&[3]);
                        self.update_u64(v.to_bits());
                    }
                }
            }
            self.update_u64(env.global_overrides.len() as u64);
            for &(gid, v) in &env.global_overrides {
                self.update_u64(u64::from(gid));
                self.update_u64(v as u64);
            }
        }
    }
}

impl Default for Fnv2 {
    fn default() -> Fnv2 {
        Fnv2::new()
    }
}

/// A set of execution environments plus a content fingerprint.
///
/// The fingerprint digests the interpreter limits and every environment's
/// full contents (input bytes, argument specs, global overrides), so two
/// sets fingerprint equal exactly when replaying them is guaranteed to
/// produce bitwise-identical profiles. It is the "env-set fingerprint"
/// lane of scanhub's dynamic-profile cache key: changing [`VmConfig`] or
/// any environment invalidates every profile derived from the set.
#[derive(Debug, Clone)]
pub struct EnvSet {
    /// The environments, in generation order.
    pub envs: Vec<ExecEnv>,
    /// 128-bit content fingerprint of `(vm config, envs)`.
    pub fingerprint: (u64, u64),
}

impl EnvSet {
    /// Wrap `envs`, computing the content fingerprint under `vm`.
    pub fn new(envs: Vec<ExecEnv>, vm: &VmConfig) -> EnvSet {
        let mut h = Fnv2::new();
        h.update_u64(vm.max_instructions);
        h.update_u64(vm.max_depth as u64);
        h.update_u64(vm.heap_limit as u64);
        h.update_envs(&envs);
        EnvSet { fingerprint: (h.hi, h.lo), envs }
    }

    /// Number of environments.
    pub fn len(&self) -> usize {
        self.envs.len()
    }

    /// True when the set holds no environments.
    pub fn is_empty(&self) -> bool {
        self.envs.is_empty()
    }
}

/// One function's dynamic behaviour over every environment of an
/// [`EnvSet`]: per-environment Table II feature vectors plus the
/// execution-validation outcome of each run.
///
/// Keeping the per-environment `ok` bits (instead of the pipeline's old
/// early-exit `Option`) lets one cached profile serve every consumer
/// bitwise-identically: the pipeline validates a candidate iff every run
/// succeeded, [`shared_environments`] keeps the environments whose `ok`
/// bits hold for both reference builds, and the differential engine
/// keeps those the target survives too — per-environment runs are
/// independent, so subsetting a full profile equals re-running the
/// subset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynProfile {
    /// Per-environment execution-validation outcome (`true` = returned).
    pub ok: Vec<bool>,
    /// Per-environment dynamic features, aligned with `ok`.
    pub features: Vec<DynFeatures>,
}

impl DynProfile {
    /// Whether the function survived every environment (the paper's
    /// execution-validation criterion).
    pub fn validated(&self) -> bool {
        self.ok.iter().all(|&b| b)
    }

    /// Number of environments profiled.
    pub fn len(&self) -> usize {
        self.ok.len()
    }

    /// True when no environments were profiled.
    pub fn is_empty(&self) -> bool {
        self.ok.is_empty()
    }
}

/// Where the dynamic stage gets environment sets and profiles from.
///
/// Both methods are deterministic in their inputs; implementations may
/// cache aggressively. Errors are *advisory*: the pipeline degrades to
/// static evidence instead of failing, and the cached implementation
/// falls back to live execution internally rather than surfacing cache
/// damage.
pub trait DynProfileSource: Send + Sync {
    /// Execution environments for one reference build (fuzz its
    /// function 0, keep environments that build itself survives). This is
    /// one build's input to [`shared_environments`], not the set a search
    /// runs on: that rule also drops what the other build does not
    /// survive.
    ///
    /// # Errors
    /// Implementation-specific transient failures; [`LiveProfiling`]
    /// never errors.
    fn environments(
        &self,
        reference: &LoadedBinary,
        fuzz_cfg: &FuzzConfig,
        vm: &VmConfig,
    ) -> Result<EnvSet, ScanError>;

    /// Dynamic profile of function `func` of `target` over every
    /// environment of `envs`.
    ///
    /// # Errors
    /// Implementation-specific transient failures; [`LiveProfiling`]
    /// never errors (but may panic on out-of-range `func`, like
    /// [`LoadedBinary::run_any`]).
    fn profile(
        &self,
        target: &LoadedBinary,
        func: usize,
        envs: &EnvSet,
        vm: &VmConfig,
    ) -> Result<DynProfile, ScanError>;
}

/// The uncached [`DynProfileSource`]: fuzz and execute on every call.
pub struct LiveProfiling;

impl DynProfileSource for LiveProfiling {
    fn environments(
        &self,
        reference: &LoadedBinary,
        fuzz_cfg: &FuzzConfig,
        vm: &VmConfig,
    ) -> Result<EnvSet, ScanError> {
        Ok(live_environments(reference, fuzz_cfg, vm))
    }

    fn profile(
        &self,
        target: &LoadedBinary,
        func: usize,
        envs: &EnvSet,
        vm: &VmConfig,
    ) -> Result<DynProfile, ScanError> {
        Ok(live_profile(target, func, &envs.envs, vm))
    }
}

/// Generate execution environments by fuzzing `reference`'s function 0,
/// keeping only environments the reference itself survives. The survival
/// replay goes through one [`EnvPool`] so the reference's state is
/// snapshotted once, not per environment. [`shared_environments`] then
/// keeps the ones the other build survives too.
pub fn live_environments(
    reference: &LoadedBinary,
    fuzz_cfg: &FuzzConfig,
    vm: &VmConfig,
) -> EnvSet {
    let envs = fuzz::fuzz_function(reference, 0, fuzz_cfg, vm);
    let pool = EnvPool::new(reference, &envs, vm);
    let surviving = envs
        .into_iter()
        .enumerate()
        .filter(|&(i, _)| pool.run(0, i).outcome.is_ok())
        .map(|(_, e)| e)
        .collect();
    EnvSet::new(surviving, vm)
}

/// The environments one search basis runs on, with both reference
/// builds' profiles over them.
#[derive(Debug, Clone)]
pub struct SharedEnvironments {
    /// The basis build's environments that both builds survive, in the
    /// basis build's order.
    pub set: EnvSet,
    /// The vulnerable build's function 0 over [`SharedEnvironments::set`].
    pub vulnerable: Vec<DynFeatures>,
    /// The patched build's function 0 over [`SharedEnvironments::set`].
    pub patched: Vec<DynFeatures>,
}

impl SharedEnvironments {
    /// The profile of the build that drives `basis`.
    pub fn reference(&self, basis: Basis) -> &[DynFeatures] {
        match basis {
            Basis::Vulnerable => &self.vulnerable,
            Basis::Patched => &self.patched,
        }
    }
}

/// The paper's environment rule (§IV-B: inputs "tested ... worked with
/// both the vulnerable and patched functions"), for one CVE, architecture
/// and search basis. `builds` holds the vulnerable and the patched
/// reference build of that architecture, in that order.
///
/// The set is `basis`'s own build's [`DynProfileSource::environments`],
/// kept where both builds survive, in its order. Both builds' profiles
/// over that own set come through [`DynProfileSource::profile`], so a
/// cached source keeps them, and the kept environments' features are
/// returned. The dynamic pass ranks a stage's candidates on `set`; the
/// differential engine concatenates both bases' sets, vulnerable first,
/// and keeps the environments the target survives, which is the union of
/// both builds' sets kept where all three functions survive.
///
/// # Errors
/// The first error from `src`.
pub fn shared_environments(
    src: &dyn DynProfileSource,
    builds: [&LoadedBinary; 2],
    basis: Basis,
    fuzz_cfg: &FuzzConfig,
    vm: &VmConfig,
) -> Result<SharedEnvironments, ScanError> {
    let [vulnerable, patched] = builds;
    let own = match basis {
        Basis::Vulnerable => vulnerable,
        Basis::Patched => patched,
    };
    let own_set = src.environments(own, fuzz_cfg, vm)?;
    let vulnerable = src.profile(vulnerable, 0, &own_set, vm)?;
    let patched = src.profile(patched, 0, &own_set, vm)?;
    let keep: Vec<usize> =
        (0..own_set.len()).filter(|&i| vulnerable.ok[i] && patched.ok[i]).collect();
    let pick = |profile: DynProfile| -> Vec<DynFeatures> {
        keep.iter().map(|&i| profile.features[i].clone()).collect()
    };
    let set = if keep.len() == own_set.len() {
        own_set
    } else {
        EnvSet::new(keep.iter().map(|&i| own_set.envs[i].clone()).collect(), vm)
    };
    Ok(SharedEnvironments { set, vulnerable: pick(vulnerable), patched: pick(patched) })
}

/// Profile `target[func]` under every environment, through one
/// [`EnvPool`] snapshot.
///
/// # Panics
/// Panics if `func` is out of range, with the same diagnostic as
/// [`LoadedBinary::run_any`].
pub fn live_profile(
    target: &LoadedBinary,
    func: usize,
    envs: &[ExecEnv],
    vm: &VmConfig,
) -> DynProfile {
    let pool = EnvPool::new(target, envs, vm);
    let mut ok = Vec::with_capacity(envs.len());
    let mut features = Vec::with_capacity(envs.len());
    for r in pool.run_all(func) {
        ok.push(r.outcome.is_ok());
        features.push(r.features);
    }
    DynProfile { ok, features }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fwbin::isa::{Arch, OptLevel};
    use fwlang::gen::Generator;

    fn loaded(seed: u64) -> LoadedBinary {
        let lib = Generator::new(seed).library_sized("libdyn", 4);
        let bin = fwbin::compile_library(&lib, Arch::Arm64, OptLevel::O2).unwrap();
        LoadedBinary::load(bin).unwrap()
    }

    #[test]
    fn fingerprint_is_deterministic_and_content_sensitive() {
        let vm = VmConfig::default();
        let envs = vec![
            ExecEnv::for_buffer(vec![1, 2, 3], &[0]),
            ExecEnv::for_buffer(vec![9; 16], &[0]),
        ];
        let a = EnvSet::new(envs.clone(), &vm);
        let b = EnvSet::new(envs.clone(), &vm);
        assert_eq!(a.fingerprint, b.fingerprint);

        let mut mutated = envs.clone();
        mutated[1].input[3] = 0xAA;
        assert_ne!(EnvSet::new(mutated, &vm).fingerprint, a.fingerprint);

        let tighter = VmConfig { max_instructions: 1_000, ..VmConfig::default() };
        assert_ne!(EnvSet::new(envs, &tighter).fingerprint, a.fingerprint);
    }

    #[test]
    fn live_profile_matches_run_any_bitwise() {
        let lb = loaded(5);
        let vm = VmConfig::default();
        let set = live_environments(&lb, &FuzzConfig::default(), &vm);
        assert!(!set.is_empty(), "fuzzer should produce surviving envs");
        for func in 0..lb.function_count() {
            let prof = live_profile(&lb, func, &set.envs, &vm);
            assert_eq!(prof.len(), set.len());
            for (i, env) in set.envs.iter().enumerate() {
                let direct = lb.run_any(func, env, &vm);
                assert_eq!(prof.ok[i], direct.outcome.is_ok());
                assert_eq!(
                    prof.features[i].as_slice().iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                    direct.features.as_slice().iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                );
            }
        }
    }

    /// The rule's set is the basis build's own set kept where both builds
    /// survive, in order, and its profiles are each build's live profile
    /// over that set. On CVE-2018-9451's patched basis the vulnerable
    /// build faults on part of the patched build's set.
    #[test]
    fn shared_environments_keep_what_both_builds_survive() {
        let db = corpus::build_vulndb(0, 1);
        let vm = VmConfig::default();
        let fuzz = FuzzConfig::default();
        let mut dropped = 0;
        for cve in ["CVE-2018-9412", "CVE-2018-9451", "CVE-2018-9470"] {
            let entry = db.get(cve).unwrap();
            let builds = [false, true].map(|patched| {
                LoadedBinary::load(entry.reference_for(Arch::Arm32, patched).clone()).unwrap()
            });
            for basis in [Basis::Vulnerable, Basis::Patched] {
                let own = &builds[usize::from(basis == Basis::Patched)];
                let own_set = live_environments(own, &fuzz, &vm);
                let shared = shared_environments(
                    &LiveProfiling,
                    [&builds[0], &builds[1]],
                    basis,
                    &fuzz,
                    &vm,
                )
                .unwrap();
                let survived_by_both = |env: &ExecEnv| {
                    builds.iter().all(|b| b.run_any(0, env, &vm).outcome.is_ok())
                };
                let expect: Vec<ExecEnv> =
                    own_set.envs.iter().filter(|e| survived_by_both(e)).cloned().collect();
                assert!(!expect.is_empty(), "{cve} {basis}: no shared environment");
                assert_eq!(shared.set.envs, expect, "{cve} {basis}");
                assert_eq!(shared.set.fingerprint, EnvSet::new(expect, &vm).fingerprint);
                dropped += own_set.len() - shared.set.len();
                for (build, features) in builds.iter().zip([&shared.vulnerable, &shared.patched]) {
                    let live = live_profile(build, 0, &shared.set.envs, &vm);
                    assert!(live.validated(), "{cve} {basis}");
                    assert_eq!(&live.features, features, "{cve} {basis}");
                }
            }
        }
        assert!(dropped > 0, "the fixture must include an environment one build faults on");
    }
}
