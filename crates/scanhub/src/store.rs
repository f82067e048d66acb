//! The content-addressed artifact store: four cache lanes behind the
//! pipeline's [`FeatureSource`] and [`DynProfileSource`] seams.
//!
//! * **static** — one Table-I [`StaticFeatures`] vector per
//!   [`ArtifactKey::for_function`]; `cache.*` counters; [`ARTIFACTS_FILE`];
//! * **env sets** — the fuzzed execution environments per
//!   [`ArtifactKey::for_env_set`]; `dyncache.*`; [`DYN_ENVSETS_FILE`];
//! * **profiles** — one [`DynProfile`] per [`ArtifactKey::for_dyn_profile`];
//!   `dyncache.*`, shared with the env sets; [`DYN_PROFILES_FILE`];
//! * **scans** — one finished [`StaticScan`] per (library, reference set),
//!   keyed by [`ArtifactKey::for_static_scan`] over everything the scan
//!   reads (the store is the pipeline's [`ScanStore`]); `scancache.*`;
//!   [`SCANS_FILE`].
//!
//! Each is a `Lane`: sharded lookup, single-flight computation on a
//! miss (the scan lane's misses are scored in batches by the static pass
//! instead), and a checksummed on-disk document that is quarantined,
//! never served, when damaged (the `lane` module lists the load
//! outcomes). Every lane persists to its own file, so corruption in one
//! never takes down the others, and a damaged or missing entry is only a
//! miss: the store recomputes it — re-extraction, live fuzzing, live
//! execution, re-scoring — and the results stay bitwise-identical to a
//! cold run. Besides the lane counters, the store counts the work it
//! actually performs:
//! `cache.extractions` (disassemblies with feature extraction) and
//! `dyncache.profiled` (live profiling runs).
//!
//! The store caches only work that is expensive to redo. A retrieval
//! signature is a pure function of the features the static lane already
//! serves, and recomputing it costs less than loading it back from disk,
//! so the store answers [`FeatureSource::signatures_all`] with the
//! trait's default.
//!
//! ## Tenant namespaces
//!
//! An [`ArtifactStore`] is a handle: the shared lanes plus one namespace
//! salt ([`crate::key::tenant_salt`]). Every lookup relocates its key by
//! the handle's salt (XOR) before it reaches a lane, so tenants sharing
//! one store (and one persisted cache) never observe each other's
//! artifacts. [`ArtifactStore::new`] and [`ArtifactStore::load`] return
//! the base namespace, salt `(0, 0)`, which the anonymous tenant `""`
//! shares; [`ArtifactStore::tenant`] returns the same lanes under a
//! tenant's salt.

use crate::key::{tenant_salt, ArtifactKey};
use crate::lane::{Checksummed, Lane};
use fwbin::format::Binary;
use patchecko_core::cancel::CancelToken;
use patchecko_core::dynsource::{self, DynProfile, DynProfileSource, EnvSet, Fnv2};
use patchecko_core::error::ScanError;
use patchecko_core::features::{self, StaticFeatures};
use patchecko_core::pipeline::{FeatureSource, RunCtx, ScanKey, ScanStore, StaticScan};
use scope::{Counter, MetricsRegistry};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::Arc;
use vm::env::ExecEnv;
use vm::exec::VmConfig;
use vm::fuzz::FuzzConfig;
use vm::loader::LoadedBinary;

/// File name of the static lane.
pub const ARTIFACTS_FILE: &str = "artifacts.json";
/// File name of the environment-set lane.
pub const DYN_ENVSETS_FILE: &str = "dyn_envsets.json";
/// File name of the dynamic-profile lane.
pub const DYN_PROFILES_FILE: &str = "dyn_profiles.json";
/// File name of the static-scan lane.
pub const SCANS_FILE: &str = "static_scans.json";
/// Every file [`ArtifactStore::save`] writes, in save order.
pub const LANE_FILES: [&str; 4] =
    [ARTIFACTS_FILE, DYN_ENVSETS_FILE, DYN_PROFILES_FILE, SCANS_FILE];

/// The 48 feature bit patterns.
impl Checksummed for StaticFeatures {
    fn checksum(&self) -> u64 {
        let mut h = Fnv2::new();
        for &f in self.as_slice() {
            h.update_u64(f.to_bits());
        }
        h.hi
    }
}

/// Every environment's full contents, hashed as [`Fnv2::update_envs`]
/// feeds them.
impl Checksummed for Vec<ExecEnv> {
    fn checksum(&self) -> u64 {
        let mut h = Fnv2::new();
        h.update_envs(self);
        h.hi
    }
}

/// The ok bits and every per-environment feature vector.
impl Checksummed for DynProfile {
    fn checksum(&self) -> u64 {
        let mut h = Fnv2::new();
        h.update_u64(self.ok.len() as u64);
        for &b in &self.ok {
            h.update(&[b as u8]);
        }
        h.update_u64(self.features.len() as u64);
        for f in &self.features {
            for &x in f.as_slice() {
                h.update_u64(x.to_bits());
            }
        }
        h.hi
    }
}

/// Every field, the library name's bytes and the probability, candidate
/// and best-reference lists length-prefixed. The lane keeps scans with
/// `seconds` 0: a served scan takes the time of the pass that serves it.
impl Checksummed for StaticScan {
    fn checksum(&self) -> u64 {
        let mut h = Fnv2::new();
        h.update_u64(self.library.len() as u64);
        h.update(self.library.as_bytes());
        h.update_u64(self.total as u64);
        h.update_u64(self.probs.len() as u64);
        h.update_words(self.probs.iter().map(|p| u64::from(p.to_bits())));
        for list in [&self.candidates, &self.best_ref] {
            h.update_u64(list.len() as u64);
            h.update_words(list.iter().map(|&i| i as u64));
        }
        h.update_u64(self.seconds.to_bits());
        h.hi
    }
}

/// A point-in-time snapshot of the store's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups served from the map.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Disassembly + feature extractions actually performed.
    pub extractions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Persisted entries (or whole cache files) evicted because they
    /// failed checksum/schema/parse validation on load.
    #[serde(default)]
    pub quarantined: u64,
    /// Dynamic-lane lookups (environment sets and profiles) served from
    /// the cache — each one is a batch of VM executions *not* performed.
    #[serde(default)]
    pub dyn_hits: u64,
    /// Dynamic-lane lookups that found nothing.
    #[serde(default)]
    pub dyn_misses: u64,
    /// Dynamic profiles actually computed by live VM execution.
    #[serde(default)]
    pub dyn_profiled: u64,
    /// Dynamic-lane entries currently resident (env sets + profiles).
    #[serde(default)]
    pub dyn_entries: u64,
    /// Dynamic-lane entries (or whole dynamic-lane files) evicted on load
    /// for failing checksum/schema/parse validation.
    #[serde(default)]
    pub dyn_quarantined: u64,
    /// Static scans served from the scan lane — each one a (library,
    /// reference set) the pass neither fetched features for nor scored.
    #[serde(default)]
    pub scan_hits: u64,
    /// Scan-lane lookups that found nothing (each one scored and kept).
    #[serde(default)]
    pub scan_misses: u64,
    /// Scan-lane entries currently resident.
    #[serde(default)]
    pub scan_entries: u64,
    /// Scan-lane entries (or whole scan-lane files) evicted on load for
    /// failing checksum/schema/parse validation.
    #[serde(default)]
    pub scan_quarantined: u64,
    /// Always 0: the store keeps no signature lane.
    // Kept: `hybridbench` adds this into its hit count.
    #[serde(default)]
    pub sig_hits: u64,
    /// Always 0: the store keeps no signature lane.
    // Kept: `hybridbench` adds this into its miss count.
    #[serde(default)]
    pub sig_misses: u64,
}

impl CacheStats {
    /// Hit fraction in [0, 1]; 0 when no lookups happened yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter deltas since an earlier snapshot.
    ///
    /// Saturating: when `earlier` is not actually earlier — it came from
    /// a different store, or from before a quarantine/reload replaced the
    /// store behind the same cache dir — each counter clamps at zero
    /// instead of panicking in debug builds (or wrapping to ~2⁶⁴ in
    /// release and reporting nonsense like "18446744073709551615 hits").
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            extractions: self.extractions.saturating_sub(earlier.extractions),
            entries: self.entries,
            quarantined: self.quarantined.saturating_sub(earlier.quarantined),
            dyn_hits: self.dyn_hits.saturating_sub(earlier.dyn_hits),
            dyn_misses: self.dyn_misses.saturating_sub(earlier.dyn_misses),
            dyn_profiled: self.dyn_profiled.saturating_sub(earlier.dyn_profiled),
            dyn_entries: self.dyn_entries,
            dyn_quarantined: self.dyn_quarantined.saturating_sub(earlier.dyn_quarantined),
            scan_hits: self.scan_hits.saturating_sub(earlier.scan_hits),
            scan_misses: self.scan_misses.saturating_sub(earlier.scan_misses),
            scan_entries: self.scan_entries,
            scan_quarantined: self.scan_quarantined.saturating_sub(earlier.scan_quarantined),
            sig_hits: self.sig_hits.saturating_sub(earlier.sig_hits),
            sig_misses: self.sig_misses.saturating_sub(earlier.sig_misses),
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate), {} extractions, {} entries, {} quarantined; \
             dyn: {} hits / {} misses, {} profiled, {} entries, {} quarantined; \
             scan: {} hits / {} misses, {} entries, {} quarantined",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.extractions,
            self.entries,
            self.quarantined,
            self.dyn_hits,
            self.dyn_misses,
            self.dyn_profiled,
            self.dyn_entries,
            self.dyn_quarantined,
            self.scan_hits,
            self.scan_misses,
            self.scan_entries,
            self.scan_quarantined
        )
    }
}

/// The artifact store: a cheap-to-clone handle on four cache lanes, in
/// one namespace (see the module docs).
///
/// Clones and [`ArtifactStore::tenant`] handles share the lanes, the work
/// counters and the registry; only the salt differs. Cache counters are
/// `scope` registry counters, resolved once at construction and bumped
/// through lock-free handles on the hot path. Every store owns a fresh
/// private registry, so two stores never see each other's counts.
#[derive(Clone)]
pub struct ArtifactStore {
    lanes: Arc<Lanes>,
    salt: (u64, u64),
}

/// What every handle on one store shares.
struct Lanes {
    registry: Arc<MetricsRegistry>,
    artifacts: Lane<StaticFeatures>,
    envsets: Lane<Vec<ExecEnv>>,
    profiles: Lane<DynProfile>,
    scans: Lane<StaticScan>,
    extractions: Counter,
    profiled: Counter,
}

impl Default for ArtifactStore {
    fn default() -> ArtifactStore {
        ArtifactStore::new()
    }
}

impl ArtifactStore {
    /// An empty store in the base namespace, with a fresh private metrics
    /// registry.
    pub fn new() -> ArtifactStore {
        let registry = Arc::new(MetricsRegistry::new());
        let lanes = Lanes {
            artifacts: Lane::new(&registry, "cache", ARTIFACTS_FILE),
            envsets: Lane::new(&registry, "dyncache", DYN_ENVSETS_FILE),
            profiles: Lane::new(&registry, "dyncache", DYN_PROFILES_FILE),
            scans: Lane::new(&registry, "scancache", SCANS_FILE),
            extractions: registry.counter("cache.extractions"),
            profiled: registry.counter("dyncache.profiled"),
            registry,
        };
        ArtifactStore { lanes: Arc::new(lanes), salt: (0, 0) }
    }

    /// Load a store persisted by [`ArtifactStore::save`], in the base
    /// namespace. The disk layer is untrusted: each lane file loads on its
    /// own, and damage is quarantined rather than served or raised — a
    /// missing file is an empty lane, an unparseable one is moved aside, a
    /// stale schema is discarded, and a bad entry is evicted while the
    /// rest load (the full list is in the `lane` module).
    ///
    /// # Errors
    /// Propagates filesystem errors other than `NotFound`.
    pub fn load(dir: &Path) -> std::io::Result<ArtifactStore> {
        let store = ArtifactStore::new();
        store.lanes.artifacts.load(dir)?;
        store.lanes.envsets.load(dir)?;
        store.lanes.profiles.load(dir)?;
        store.lanes.scans.load(dir)?;
        Ok(store)
    }

    /// This store's lanes in `tenant`'s namespace. The empty tenant is the
    /// base namespace.
    pub fn tenant(&self, tenant: &str) -> ArtifactStore {
        ArtifactStore { lanes: Arc::clone(&self.lanes), salt: tenant_salt(tenant) }
    }

    /// The namespace salt every key is relocated by.
    pub fn salt(&self) -> (u64, u64) {
        self.salt
    }

    /// A pipeline context running in this handle's namespace: static
    /// features and dynamic profiles both come from the handle, and the
    /// run stops at the first stage boundary after `cancel` expires. Every
    /// hub, scheduler, daemon and CLI run builds its context here.
    pub fn ctx(&self, cancel: CancelToken) -> RunCtx<'_> {
        RunCtx { features: self, profiles: Arc::new(self.clone()), cancel }
    }

    /// The registry this store's counters live in.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.lanes.registry
    }

    /// Current counter snapshot, over every namespace. The two dynamic
    /// lanes share their `dyncache.*` counters, so either lane's handle
    /// reads the total.
    pub fn stats(&self) -> CacheStats {
        let lanes = &*self.lanes;
        CacheStats {
            hits: lanes.artifacts.hits.get(),
            misses: lanes.artifacts.misses.get(),
            extractions: lanes.extractions.get(),
            entries: lanes.artifacts.len() as u64,
            quarantined: lanes.artifacts.quarantined.get(),
            dyn_hits: lanes.profiles.hits.get(),
            dyn_misses: lanes.profiles.misses.get(),
            dyn_profiled: lanes.profiled.get(),
            dyn_entries: (lanes.envsets.len() + lanes.profiles.len()) as u64,
            dyn_quarantined: lanes.profiles.quarantined.get(),
            scan_hits: lanes.scans.hits.get(),
            scan_misses: lanes.scans.misses.get(),
            scan_entries: lanes.scans.len() as u64,
            scan_quarantined: lanes.scans.quarantined.get(),
            sig_hits: 0,
            sig_misses: 0,
        }
    }

    /// Details of every quarantine event since construction (validation
    /// failures found while loading the disk layer, all lanes).
    pub fn quarantine_records(&self) -> Vec<String> {
        let mut records = self.lanes.artifacts.quarantine_records();
        records.extend(self.lanes.envsets.quarantine_records());
        records.extend(self.lanes.profiles.quarantine_records());
        records.extend(self.lanes.scans.quarantine_records());
        records
    }

    /// Number of resident static-lane entries, over every namespace.
    pub fn len(&self) -> usize {
        self.lanes.artifacts.len()
    }

    /// Whether the static lane holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write every lane to its file under `dir` (creating `dir` as
    /// needed), each through a temp file and a rename, so a crash mid-save
    /// leaves the previous cache intact rather than a truncated document.
    /// A lane whose file there already holds exactly its entries (loaded
    /// whole or written by this store, unchanged since, nothing inserted
    /// since) is skipped. Returns whether any file was written.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save(&self, dir: &Path) -> std::io::Result<bool> {
        let wrote = [
            self.lanes.artifacts.save(dir)?,
            self.lanes.envsets.save(dir)?,
            self.lanes.profiles.save(dir)?,
            self.lanes.scans.save(dir)?,
        ];
        Ok(wrote.contains(&true))
    }

    /// The features of function `idx` of `bin` in this namespace,
    /// extracting and caching on first sight. Concurrent misses
    /// single-flight, so `cache.extractions` counts distinct extractions
    /// even under a racing scheduler.
    pub(crate) fn get_or_extract(
        &self,
        bin: &Binary,
        idx: usize,
    ) -> Result<Arc<StaticFeatures>, ScanError> {
        let key = ArtifactKey::for_function(bin, idx).namespaced(self.salt);
        self.lanes.artifacts.get_or_compute(key, || {
            self.lanes.extractions.inc();
            let dis = disasm::disassemble(bin, idx)
                .map_err(|e| ScanError::extraction(&bin.lib_name, idx, &e))?;
            Ok(features::extract(&dis, &bin.functions[idx]))
        })
    }
}

/// The static lane in this handle's namespace. A function whose code
/// fails to decode is a typed [`ScanError::Extraction`]. The store keeps
/// the static pass's finished scans too, in the scan lane.
impl FeatureSource for ArtifactStore {
    fn features_one(&self, bin: &Binary, idx: usize) -> Result<StaticFeatures, ScanError> {
        Ok((*self.get_or_extract(bin, idx)?).clone())
    }

    fn scan_store(&self) -> Option<&dyn ScanStore> {
        Some(self)
    }
}

/// The scan lane in this handle's namespace: one [`StaticScan`] per
/// [`ArtifactKey::for_static_scan`], relocated by the tenant salt. The
/// library half of a key is [`ArtifactKey::for_library`].
impl ScanStore for ArtifactStore {
    fn library_digest(&self, bin: &Binary) -> (u64, u64) {
        let key = ArtifactKey::for_library(bin);
        (key.hi, key.lo)
    }

    fn kept(&self, key: ScanKey) -> Option<Arc<StaticScan>> {
        self.lanes.scans.lookup(ArtifactKey::for_static_scan(key).namespaced(self.salt))
    }

    fn keep(&self, key: ScanKey, scan: StaticScan) {
        let key = ArtifactKey::for_static_scan(key).namespaced(self.salt);
        self.lanes.scans.insert(key, StaticScan { seconds: 0.0, ..scan });
    }
}

/// The dynamic lanes in this handle's namespace. Both methods are
/// infallible by construction: a damaged or missing cache entry was
/// already quarantined at load time and is simply a miss here, answered
/// by live fuzzing/execution — so cache trouble degrades to cold-run
/// behaviour (bitwise-identical results, more VM executions), never to an
/// error. One live profiling run (a whole batch of VM executions) serves
/// every concurrent requester. `profile` panics when `func` is out of
/// range for `target`'s function table (same contract as
/// `LoadedBinary::run_any`).
impl DynProfileSource for ArtifactStore {
    fn environments(
        &self,
        reference: &LoadedBinary,
        fuzz_cfg: &FuzzConfig,
        vm: &VmConfig,
    ) -> Result<EnvSet, ScanError> {
        let key = ArtifactKey::for_env_set(reference.binary(), fuzz_cfg, vm).namespaced(self.salt);
        let envs = self.lanes.envsets.get_or_compute(key, || {
            Ok::<_, ScanError>(dynsource::live_environments(reference, fuzz_cfg, vm).envs)
        })?;
        // Recomputing the fingerprint from the stored contents (rather
        // than persisting it) keeps the env-set → profile linkage
        // self-validating: a tampered env list that somehow survived the
        // checksum would fingerprint differently and miss every profile
        // derived from the original.
        Ok(EnvSet::new((*envs).clone(), vm))
    }

    fn profile(
        &self,
        target: &LoadedBinary,
        func: usize,
        envs: &EnvSet,
        vm: &VmConfig,
    ) -> Result<DynProfile, ScanError> {
        // Same contract (and same message) as `LoadedBinary::run_any` and
        // `LiveProfiling`, checked before key derivation so an
        // out-of-range candidate produces identical degradation
        // diagnostics whether the lane is warm or cold.
        assert!(
            func < target.function_count(),
            "function index {func} out of range (table holds {})",
            target.function_count()
        );
        let key = ArtifactKey::for_dyn_profile(target.binary(), func, envs.fingerprint)
            .namespaced(self.salt);
        let profile = self.lanes.profiles.get_or_compute(key, || {
            self.lanes.profiled.inc();
            Ok::<_, ScanError>(dynsource::live_profile(target, func, &envs.envs, vm))
        })?;
        Ok((*profile).clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::SCHEMA_VERSION;
    use crate::lane::Envelope;
    use crate::testfix::{dyn_fixture, store_binary as sample_binary};
    use patchecko_core::features::NUM_STATIC_FEATURES;
    use patchecko_core::pipeline::DirectExtraction;

    #[test]
    fn second_lookup_hits_and_skips_extraction() {
        let store = ArtifactStore::new();
        let bin = sample_binary();
        let cold = store.features_all(&bin).unwrap();
        let s1 = store.stats();
        assert_eq!(s1.hits, 0);
        assert_eq!(s1.misses, bin.function_count() as u64);
        assert_eq!(s1.extractions, bin.function_count() as u64);

        let warm = store.features_all(&bin).unwrap();
        let s2 = store.stats();
        assert_eq!(s2.extractions, s1.extractions, "warm pass extracts nothing");
        assert_eq!(s2.hits, bin.function_count() as u64);
        assert_eq!(cold, warm);
        assert!(s2.hit_rate() > 0.49 && s2.hit_rate() < 0.51);
    }

    #[test]
    fn cached_features_match_direct_extraction() {
        let store = ArtifactStore::new();
        let bin = sample_binary();
        let direct = DirectExtraction.features_all(&bin).unwrap();
        // Twice: once populating, once from cache.
        assert_eq!(store.features_all(&bin).unwrap(), direct);
        assert_eq!(store.features_all(&bin).unwrap(), direct);
        for (idx, expected) in direct.iter().enumerate() {
            assert_eq!(&store.features_one(&bin, idx).unwrap(), expected);
        }
    }

    #[test]
    fn corrupt_binary_extraction_is_typed_not_a_panic() {
        let store = ArtifactStore::new();
        let mut bin = sample_binary();
        bin.functions[2].code = vec![0xEE, 0xEE, 0xEE];
        let detail = match store.features_all(&bin) {
            Err(ScanError::Extraction { function: 2, detail, .. }) => detail,
            other => panic!("expected typed extraction error, got {other:?}"),
        };
        // The uncached source names the same function, with the same text.
        match DirectExtraction.features_all(&bin) {
            Err(ScanError::Extraction { function: 2, detail: direct, .. }) => {
                assert_eq!(direct, detail);
            }
            other => panic!("expected typed extraction error, got {other:?}"),
        }
        // Healthy functions are still servable individually.
        assert!(store.features_one(&bin, 0).is_ok());
    }

    #[test]
    fn persistence_roundtrip_preserves_artifacts() {
        let dir = std::env::temp_dir().join(format!("scanhub-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::new();
        let bin = sample_binary();
        store.features_all(&bin).unwrap();
        store.save(&dir).unwrap();

        let reloaded = ArtifactStore::load(&dir).unwrap();
        assert_eq!(reloaded.len(), store.len());
        assert_eq!(reloaded.stats().quarantined, 0, "a clean cache quarantines nothing");
        let before = reloaded.stats();
        let feats = reloaded.features_all(&bin).unwrap();
        let after = reloaded.stats();
        assert_eq!(after.extractions, before.extractions, "reloaded store serves from cache");
        assert_eq!(after.misses, before.misses);
        assert_eq!(feats, DirectExtraction.features_all(&bin).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Each lane file's inode: a save replaces a file by renaming a new
    /// one into place, so a changed inode means the lane was rewritten.
    fn lane_inodes(dir: &Path) -> Vec<u64> {
        use std::os::unix::fs::MetadataExt;
        LANE_FILES.iter().map(|f| std::fs::metadata(dir.join(f)).unwrap().ino()).collect()
    }

    /// A save skips exactly the lanes whose file already holds them: a
    /// store loaded whole and unchanged writes nothing; one insert
    /// rewrites only its lane; a lane that quarantined an entry on load,
    /// or whose file was damaged after it was written, is rewritten; and
    /// a save to another directory writes every lane.
    #[test]
    fn save_rewrites_only_lanes_whose_file_does_not_hold_them() {
        let dir = temp_cache("save-skip");
        let (lb, fuzz, vmc) = dyn_fixture();
        let store = ArtifactStore::new();
        store.features_all(&sample_binary()).unwrap();
        let envs = store.environments(&lb, &fuzz, &vmc).unwrap();
        store.profile(&lb, 0, &envs, &vmc).unwrap();
        store.keep(ScanKey { library: (1, 2), query: (3, 4) }, StaticScan {
            library: "libs".into(),
            total: 1,
            probs: vec![0.5],
            candidates: vec![0],
            best_ref: vec![0],
            seconds: 0.0,
        });
        assert!(store.save(&dir).unwrap(), "a first save writes");
        let written = lane_inodes(&dir);
        assert!(!store.save(&dir).unwrap(), "a second save with nothing new writes nothing");
        assert_eq!(lane_inodes(&dir), written);

        // A warm run: loaded whole, asked again, nothing new.
        let warm = ArtifactStore::load(&dir).unwrap();
        warm.features_all(&sample_binary()).unwrap();
        let envs = warm.environments(&lb, &fuzz, &vmc).unwrap();
        warm.profile(&lb, 0, &envs, &vmc).unwrap();
        assert!(!warm.save(&dir).unwrap(), "a warm store writes nothing");
        assert_eq!(lane_inodes(&dir), written);

        // One new profile rewrites the profile lane alone.
        warm.profile(&lb, 1, &envs, &vmc).unwrap();
        assert!(warm.save(&dir).unwrap());
        let after_insert = lane_inodes(&dir);
        let rewritten: Vec<&str> = (0..LANE_FILES.len())
            .filter(|&i| after_insert[i] != written[i])
            .map(|i| LANE_FILES[i])
            .collect();
        assert_eq!(rewritten, [DYN_PROFILES_FILE]);

        // A lane that quarantined an entry on load is rewritten, whole.
        let path = dir.join(ARTIFACTS_FILE);
        let mut doc: Envelope =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        doc.entries.values_mut().next().unwrap().checksum ^= 1;
        std::fs::write(&path, serde_json::to_string(&doc).unwrap()).unwrap();
        let damaged = lane_inodes(&dir);
        let healed = ArtifactStore::load(&dir).unwrap();
        assert_eq!(healed.stats().quarantined, 1);
        assert!(healed.save(&dir).unwrap());
        let after_heal = lane_inodes(&dir);
        assert_ne!(after_heal[0], damaged[0], "the lane that dropped an entry is rewritten");
        assert_eq!(after_heal[1..], damaged[1..], "the whole lanes are not");

        // A file damaged behind a synced lane's back is rewritten too.
        std::fs::write(dir.join(SCANS_FILE), "{ not json").unwrap();
        assert!(healed.save(&dir).unwrap());
        let reloaded = ArtifactStore::load(&dir).unwrap();
        assert_eq!(reloaded.quarantine_records(), Vec::<String>::new());
        assert_eq!(reloaded.stats().scan_entries, 1);

        // Another directory gets every lane.
        let other = temp_cache("save-skip-other");
        assert!(reloaded.save(&other).unwrap());
        for file in LANE_FILES {
            assert!(other.join(file).exists(), "{file} written to the other directory");
        }
        assert!(!reloaded.save(&other).unwrap(), "and then holds them");
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&other).unwrap();
    }

    #[test]
    fn missing_cache_dir_loads_empty() {
        let dir = std::env::temp_dir().join("scanhub-store-definitely-missing");
        let store = ArtifactStore::load(&dir).unwrap();
        assert!(store.is_empty());
    }

    /// A fresh temp cache dir, cleaned before use.
    fn temp_cache(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("scanhub-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn garbage_cache_file_quarantined_and_reextracted() {
        let dir = temp_cache("garbage");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("artifacts.json"), b"{ not json at all \xff\xfe").unwrap();

        let store = ArtifactStore::load(&dir).unwrap();
        assert!(store.is_empty(), "garbage must never be served");
        assert_eq!(store.stats().quarantined, 1);
        assert!(store.quarantine_records()[0].contains("unparseable"));
        // The bad file was moved aside, so the store can save cleanly.
        assert!(dir.join("artifacts.json.quarantined").exists());
        assert!(!dir.join("artifacts.json").exists());

        // Warm scan falls back to re-extraction, matching a cold scan bitwise.
        let bin = sample_binary();
        let recovered = store.features_all(&bin).unwrap();
        assert_eq!(recovered, DirectExtraction.features_all(&bin).unwrap());
        assert_eq!(store.stats().extractions, bin.function_count() as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_cache_file_quarantined_and_reextracted() {
        let dir = temp_cache("truncated");
        let bin = sample_binary();
        let store = ArtifactStore::new();
        let cold = store.features_all(&bin).unwrap();
        store.save(&dir).unwrap();
        // Simulate a crash mid-write of a non-atomic writer: cut the file.
        let path = dir.join("artifacts.json");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        let reloaded = ArtifactStore::load(&dir).unwrap();
        assert!(reloaded.is_empty(), "truncated JSON must never be served");
        assert_eq!(reloaded.stats().quarantined, 1);
        let warm = reloaded.features_all(&bin).unwrap();
        assert_eq!(warm, cold, "recovery matches the cold scan bitwise");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_schema_cache_discarded() {
        let dir = temp_cache("stale-schema");
        let bin = sample_binary();
        let store = ArtifactStore::new();
        store.features_all(&bin).unwrap();
        store.save(&dir).unwrap();
        // Rewrite the document under an old schema version.
        let path = dir.join(ARTIFACTS_FILE);
        let json = std::fs::read_to_string(&path).unwrap();
        let stale = json.replacen(
            &format!("\"schema\":{SCHEMA_VERSION}"),
            "\"schema\":1",
            1,
        );
        assert_ne!(json, stale, "schema field rewritten");
        std::fs::write(&path, stale).unwrap();

        let reloaded = ArtifactStore::load(&dir).unwrap();
        assert!(reloaded.is_empty(), "stale-schema artifacts are discarded");
        assert_eq!(reloaded.stats().quarantined, 1);
        assert!(reloaded.quarantine_records()[0].contains("stale schema"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checksum_mismatch_evicts_only_the_tampered_entry() {
        let dir = temp_cache("tampered");
        let bin = sample_binary();
        let store = ArtifactStore::new();
        let cold = store.features_all(&bin).unwrap();
        store.save(&dir).unwrap();
        // Corrupt one entry's checksum so its artifact no longer validates
        // (equivalent to the artifact bytes having been tampered with).
        let path = dir.join(ARTIFACTS_FILE);
        let mut doc: Envelope =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let n_entries = doc.entries.len();
        doc.entries.values_mut().next().unwrap().checksum ^= 1;
        std::fs::write(&path, serde_json::to_string(&doc).unwrap()).unwrap();

        let reloaded = ArtifactStore::load(&dir).unwrap();
        assert_eq!(reloaded.len(), n_entries - 1, "only the tampered entry is evicted");
        assert_eq!(reloaded.stats().quarantined, 1);
        assert!(reloaded.quarantine_records()[0].contains("checksum mismatch"));
        // The tampered value is never served: the warm scan re-extracts it
        // and matches the cold scan bitwise.
        let warm = reloaded.features_all(&bin).unwrap();
        assert_eq!(warm, cold);
        assert_eq!(reloaded.stats().extractions, 1, "exactly the evicted entry re-extracts");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_delta_saturates_across_quarantine_reload() {
        // Snapshot a warmed store, then quarantine-reload the cache dir
        // (the reloaded store's counters restart at zero). A delta taken
        // across that boundary used to underflow — panicking in debug,
        // reporting ~2^64 hits in release. It must clamp at zero.
        let dir = temp_cache("delta-saturate");
        let bin = sample_binary();
        let store = ArtifactStore::new();
        store.features_all(&bin).unwrap();
        store.features_all(&bin).unwrap();
        store.save(&dir).unwrap();
        let before = store.stats();
        assert!(before.hits > 0 && before.extractions > 0);

        // Corrupt the cache so the reload starts from an empty store.
        std::fs::write(dir.join("artifacts.json"), b"garbage").unwrap();
        let reloaded = ArtifactStore::load(&dir).unwrap();
        let after = reloaded.stats();
        let delta = after.since(&before);
        assert_eq!(delta.hits, 0, "saturates instead of underflowing");
        assert_eq!(delta.misses, 0);
        assert_eq!(delta.extractions, 0);
        assert_eq!(delta.quarantined, 1, "the quarantine itself still shows");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_delta_on_same_store_is_exact() {
        let store = ArtifactStore::new();
        let bin = sample_binary();
        store.features_all(&bin).unwrap();
        let mid = store.stats();
        store.features_all(&bin).unwrap();
        let delta = store.stats().since(&mid);
        assert_eq!(delta.hits, bin.function_count() as u64);
        assert_eq!(delta.misses, 0);
        assert_eq!(delta.extractions, 0);
    }

    #[test]
    fn counters_live_in_the_store_registry() {
        let store = ArtifactStore::new();
        let bin = sample_binary();
        store.features_all(&bin).unwrap();
        store.tenant("").features_all(&bin).unwrap();
        let snap = store.registry().snapshot();
        let n = bin.function_count() as u64;
        assert_eq!(snap.counter("cache.misses"), n);
        assert_eq!(snap.counter("cache.extractions"), n);
        assert_eq!(snap.counter("cache.hits"), n);
        // stats() reads the very same counters.
        let stats = store.stats();
        assert_eq!(stats.hits, snap.counter("cache.hits"));
        // Every handle on one store shares its registry; another store
        // owns its own.
        assert!(Arc::ptr_eq(store.tenant("acme").registry(), store.registry()));
        assert!(!Arc::ptr_eq(ArtifactStore::new().registry(), store.registry()));
    }

    #[test]
    fn dyn_lane_roundtrip_serves_cached_envs_and_profiles() {
        let dir = temp_cache("dyn-roundtrip");
        let (lb, fuzz, vmc) = dyn_fixture();
        let store = ArtifactStore::new();
        let envs = store.environments(&lb, &fuzz, &vmc).unwrap();
        let cold = store.profile(&lb, 1, &envs, &vmc).unwrap();
        let s = store.stats();
        assert_eq!((s.dyn_hits, s.dyn_misses, s.dyn_profiled), (0, 2, 1));
        assert_eq!(s.dyn_entries, 2, "one env set + one profile resident");
        store.save(&dir).unwrap();

        let reloaded = ArtifactStore::load(&dir).unwrap();
        assert_eq!(reloaded.stats().dyn_entries, 2);
        assert_eq!(reloaded.stats().dyn_quarantined, 0, "a clean dyn cache quarantines nothing");
        let envs2 = reloaded.environments(&lb, &fuzz, &vmc).unwrap();
        assert_eq!(envs2.envs, envs.envs);
        assert_eq!(envs2.fingerprint, envs.fingerprint, "recomputed fingerprint matches");
        let warm = reloaded.profile(&lb, 1, &envs2, &vmc).unwrap();
        assert_eq!(warm, cold, "cached profile is bitwise-identical to the live one");
        let s = reloaded.stats();
        assert_eq!((s.dyn_hits, s.dyn_misses), (2, 0), "warm pass is all hits");
        assert_eq!(s.dyn_profiled, 0, "warm pass executes nothing");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tampered_dyn_entry_evicted_and_recomputed() {
        let dir = temp_cache("dyn-tampered");
        let (lb, fuzz, vmc) = dyn_fixture();
        let store = ArtifactStore::new();
        let envs = store.environments(&lb, &fuzz, &vmc).unwrap();
        let cold = store.profile(&lb, 0, &envs, &vmc).unwrap();
        store.save(&dir).unwrap();

        // Flip one profile checksum so the entry no longer validates.
        let path = dir.join(DYN_PROFILES_FILE);
        let mut doc: Envelope =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        doc.entries.values_mut().next().unwrap().checksum ^= 1;
        std::fs::write(&path, serde_json::to_string(&doc).unwrap()).unwrap();

        let reloaded = ArtifactStore::load(&dir).unwrap();
        assert_eq!(reloaded.stats().dyn_quarantined, 1, "only the tampered entry is evicted");
        assert!(reloaded
            .quarantine_records()
            .iter()
            .any(|r| r.contains(DYN_PROFILES_FILE) && r.contains("checksum mismatch")));
        // The evicted profile is recomputed live, bitwise-identical.
        let envs2 = reloaded.environments(&lb, &fuzz, &vmc).unwrap();
        let warm = reloaded.profile(&lb, 0, &envs2, &vmc).unwrap();
        assert_eq!(warm, cold);
        assert_eq!(reloaded.stats().dyn_profiled, 1, "exactly the evicted profile re-executes");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_dyn_schema_discarded_independently_of_static_lane() {
        let dir = temp_cache("dyn-stale");
        let (lb, fuzz, vmc) = dyn_fixture();
        let store = ArtifactStore::new();
        store.features_all(lb.binary()).unwrap();
        let envs = store.environments(&lb, &fuzz, &vmc).unwrap();
        store.profile(&lb, 0, &envs, &vmc).unwrap();
        store.save(&dir).unwrap();

        for file in [DYN_ENVSETS_FILE, DYN_PROFILES_FILE] {
            let path = dir.join(file);
            let json = std::fs::read_to_string(&path).unwrap();
            let stale = json.replacen(&format!("\"schema\":{SCHEMA_VERSION}"), "\"schema\":2", 1);
            assert_ne!(json, stale, "schema field rewritten");
            std::fs::write(&path, stale).unwrap();
        }

        let reloaded = ArtifactStore::load(&dir).unwrap();
        assert_eq!(reloaded.stats().dyn_entries, 0, "stale dyn entries are discarded");
        assert_eq!(reloaded.stats().dyn_quarantined, 2, "one discard per dynamic-lane file");
        assert!(reloaded.quarantine_records().iter().any(|r| r.contains("stale schema")));
        // The static lane is untouched by dynamic-lane staleness.
        assert_eq!(reloaded.len(), store.len());
        assert_eq!(reloaded.stats().quarantined, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dyn_profile_out_of_range_panics_like_run_any() {
        let (lb, fuzz, vmc) = dyn_fixture();
        let store = ArtifactStore::new();
        let envs = store.environments(&lb, &fuzz, &vmc).unwrap();
        let _ = store.profile(&lb, lb.function_count() + 1, &envs, &vmc);
    }

    #[test]
    fn concurrent_same_key_misses_single_flight_to_one_extraction() {
        let store = Arc::new(ArtifactStore::new());
        let bin = Arc::new(sample_binary());
        let n = bin.function_count() as u64;
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (store, bin) = (Arc::clone(&store), Arc::clone(&bin));
                s.spawn(move || store.features_all(&bin).unwrap());
            }
        });
        let stats = store.stats();
        assert_eq!(stats.extractions, n, "one extraction per function, regardless of racers");
        assert_eq!(stats.entries, n);
    }

    #[test]
    fn failed_winner_releases_the_flight_for_waiters() {
        // Every racer must get the typed error back — a panicking or
        // failing winner may not strand waiters on the condvar.
        let store = Arc::new(ArtifactStore::new());
        let mut bin = sample_binary();
        bin.functions[2].code = vec![0xEE, 0xEE, 0xEE];
        let bin = Arc::new(bin);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let (store, bin) = (Arc::clone(&store), Arc::clone(&bin));
                    s.spawn(move || store.features_one(&bin, 2))
                })
                .collect();
            for h in handles {
                match h.join().unwrap() {
                    Err(ScanError::Extraction { function: 2, .. }) => {}
                    other => panic!("expected typed extraction error, got {other:?}"),
                }
            }
        });
    }

    #[test]
    fn checksum_is_structural_and_stable() {
        let bin = sample_binary();
        let store = ArtifactStore::new();
        let a = store.get_or_extract(&bin, 0).unwrap();
        let c1 = a.checksum();
        // A JSON round-trip preserves the checksum (bit-exact floats).
        let json = serde_json::to_string(&*a).unwrap();
        let back: StaticFeatures = serde_json::from_str(&json).unwrap();
        assert_eq!(back.checksum(), c1);
        // Any feature change moves it, down to its lowest bit.
        for k in [0, NUM_STATIC_FEATURES - 1] {
            let mut tampered = back.clone();
            tampered.0[k] = f64::from_bits(tampered.0[k].to_bits() ^ 1);
            assert_ne!(tampered.checksum(), c1, "feature {k}");
        }
    }

    #[test]
    fn env_set_checksum_is_content_sensitive_and_json_stable() {
        let envs = crate::testfix::sample_envs();
        let c = envs.checksum();
        let json = serde_json::to_string(&envs).unwrap();
        let back: Vec<ExecEnv> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.checksum(), c, "JSON round-trip preserves the checksum");

        let mut tampered = envs.clone();
        tampered[0].input[1] ^= 1;
        assert_ne!(tampered.checksum(), c);
        let mut reargued = envs.clone();
        reargued[1].args.pop();
        assert_ne!(reargued.checksum(), c);
    }

    /// Both env-list hashes name persisted cache entries, so their values
    /// are part of the cache format: moving either one cold-misses every
    /// cache written before the move.
    #[test]
    fn env_list_hashes_are_pinned() {
        let envs = crate::testfix::sample_envs();
        let fingerprint = EnvSet::new(envs.clone(), &VmConfig::default()).fingerprint;
        assert_eq!(fingerprint, (0xb3c6_5814_6078_038e, 0x44a2_7777_ac5b_f185));
        assert_eq!(envs.checksum(), 0x915f_d5f3_0e07_e086);
    }

    #[test]
    fn profile_checksum_is_content_sensitive_and_json_stable() {
        let p = crate::testfix::sample_profile();
        let c = p.checksum();
        let json = serde_json::to_string(&p).unwrap();
        let back: DynProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back.checksum(), c, "JSON round-trip preserves the checksum");

        let mut flipped = p.clone();
        flipped.ok[1] = true;
        assert_ne!(flipped.checksum(), c);
        let mut nudged = p.clone();
        nudged.features[0].0[0] = 1.250_000_001;
        assert_ne!(nudged.checksum(), c);
    }

    #[test]
    fn tenants_partition_one_store_and_the_anonymous_view_is_identity() {
        let store = ArtifactStore::new();
        let bin = sample_binary();
        let n = bin.function_count() as u64;

        let acme = store.tenant("acme");
        let feats = acme.features_all(&bin).unwrap();
        let s1 = store.stats();
        assert_eq!((s1.extractions, s1.entries), (n, n));

        // Same tenant again: pure cache hits, no new entries.
        assert_eq!(acme.features_all(&bin).unwrap(), feats);
        assert_eq!(store.stats().extractions, n);

        // A different tenant re-extracts into its own key set: identical
        // values, disjoint entries in the same store.
        let rival = store.tenant("rival");
        assert_eq!(rival.features_all(&bin).unwrap(), feats);
        let s2 = store.stats();
        assert_eq!((s2.extractions, s2.entries), (2 * n, 2 * n));

        // The anonymous tenant shares the base namespace with the plain
        // (un-namespaced) store surface.
        let anon = store.tenant("");
        assert_eq!(anon.salt(), (0, 0));
        anon.features_all(&bin).unwrap();
        assert_eq!(store.stats().entries, 3 * n);
        store.features_all(&bin).unwrap();
        assert_eq!(store.stats().extractions, 3 * n, "plain surface hits anon's entries");
    }

    #[test]
    fn namespaced_entries_survive_persistence_per_tenant() {
        let dir = std::env::temp_dir().join(format!("scanhub-ns-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::new();
        let bin = sample_binary();
        let n = bin.function_count() as u64;
        store.tenant("acme").features_all(&bin).unwrap();
        store.save(&dir).unwrap();

        let reloaded = ArtifactStore::load(&dir).unwrap();
        assert_eq!(reloaded.stats().quarantined, 0);
        // acme is warm after reload; rival is still cold.
        reloaded.tenant("acme").features_all(&bin).unwrap();
        assert_eq!(reloaded.stats().extractions, 0);
        reloaded.tenant("rival").features_all(&bin).unwrap();
        assert_eq!(reloaded.stats().extractions, n);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dyn_lane_respects_tenant_namespaces() {
        let store = ArtifactStore::new();
        let (lb, fuzz, vmc) = dyn_fixture();
        let acme = store.tenant("acme");
        let envs = acme.environments(&lb, &fuzz, &vmc).unwrap();
        let p = acme.profile(&lb, 0, &envs, &vmc).unwrap();
        assert_eq!(store.stats().dyn_profiled, 1);

        // Same tenant: cached. Other tenant: recomputed (bitwise equal).
        assert_eq!(acme.profile(&lb, 0, &envs, &vmc).unwrap(), p);
        assert_eq!(store.stats().dyn_profiled, 1);
        let rival = store.tenant("rival");
        let envs2 = rival.environments(&lb, &fuzz, &vmc).unwrap();
        assert_eq!(envs2.fingerprint, envs.fingerprint, "contents identical across tenants");
        assert_eq!(rival.profile(&lb, 0, &envs2, &vmc).unwrap(), p);
        assert_eq!(store.stats().dyn_profiled, 2, "rival's cold lane profiles live");
    }
}
