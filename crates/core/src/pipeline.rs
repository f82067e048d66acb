//! The PATCHECKO pipeline (Figure 1): static deep-learning scan →
//! execution validation → dynamic feature profiling → similarity ranking.
//!
//! Timings are captured per stage — the "DP" (deep learning) and "DA"
//! (dynamic analysis) columns of Tables VI and VII.

use crate::cancel::CancelToken;
use crate::detector::Detector;
use crate::dynsource::{self, DynProfile, DynProfileSource, EnvSet, LiveProfiling};
use crate::error::ScanError;
use crate::features::{self, StaticFeatures};
use crate::retrieval::{self, FunctionSignature, Retrieval, SignatureSet};
use crate::similarity::{self, RankedCandidate};
use corpus::vulndb::DbEntry;
use fwbin::format::Binary;
use fwbin::isa::Arch;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use vm::env::ExecEnv;
use vm::exec::VmConfig;
use vm::fuzz::FuzzConfig;
use vm::loader::{LoadError, LoadedBinary};
use vm::DynFeatures;

/// Which version of the CVE function drives the search — Tables VI
/// (vulnerable) vs VII (patched).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Basis {
    /// Search with the vulnerable reference.
    Vulnerable,
    /// Search with the patched reference.
    Patched,
}

impl std::fmt::Display for Basis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Basis::Vulnerable => "vulnerable",
            Basis::Patched => "patched",
        })
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// VM limits and engine choice (`vm.engine`): the fast engine is the
    /// default; `Engine::Interp` selects the reference interpreter for
    /// differential testing. Both produce bitwise-identical profiles, so
    /// the choice never perturbs cache keys or rankings.
    pub vm: VmConfig,
    /// Fuzzer settings (execution-environment generation).
    pub fuzz: FuzzConfig,
    /// Minkowski order (paper: 3).
    pub minkowski_p: f64,
    /// Worker-thread count for the stages that fan out on the shared
    /// [`neural::pool`]: the static pass's front end (one item per binary
    /// with a scan to compute: its feature extraction, signatures and
    /// top-K retrieval; never one item per function), the dynamic pass
    /// (one task per (pair, architecture) environment set, then one per
    /// candidate of every stage — the paper parallelizes
    /// execution-environment testing), pair classification (one task per
    /// chunk of a list longer than one chunk, such as an image's list
    /// against many reference sets or a streaming working set's) and the
    /// scanhub job scheduler. Work already running on a pool worker runs
    /// inline.
    /// `None` derives the count from the `PATCHECKO_THREADS` environment
    /// variable or the machine's available parallelism; `Some(1)` forces
    /// serial execution end to end.
    pub threads: Option<usize>,
    /// How the static scan selects (reference, target) pairs:
    /// [`Retrieval::Exact`] scores every pair, [`Retrieval::TopK`] runs
    /// the signature/LSH pre-filter and classifies only each target's
    /// nearest references.
    pub retrieval: Retrieval,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            vm: VmConfig::default(),
            fuzz: FuzzConfig::default(),
            minkowski_p: similarity::PAPER_P,
            threads: None,
            retrieval: Retrieval::Exact,
        }
    }
}

impl PipelineConfig {
    /// The effective worker count, resolved through the shared
    /// [`neural::pool::resolve_threads`] helper: the explicit
    /// [`PipelineConfig::threads`] override when set, then the
    /// `PATCHECKO_THREADS` environment variable, then the machine's
    /// available parallelism.
    pub fn effective_threads(&self) -> usize {
        neural::pool::resolve_threads(self.threads)
    }
}

/// Where the static stage gets per-function artifacts from. The default
/// [`DirectExtraction`] disassembles and extracts on every call; scanhub's
/// content-addressed artifact store implements this trait to serve cached
/// features instead, which is how a warm re-audit skips disassembly and
/// feature extraction entirely.
///
/// Both methods are fallible: a corrupt binary (undecodable function
/// code), a quarantined cache entry, or an injected chaos fault comes
/// back as a typed [`ScanError`] instead of a panic, so one poisoned
/// input cannot sink a batch.
pub trait FeatureSource: Sync {
    /// Static features of every function of `bin`, in function-table order.
    /// The default maps [`FeatureSource::features_one`] over the function
    /// table, so a failure carries the index of the first function that
    /// failed.
    ///
    /// # Errors
    /// [`ScanError::Extraction`] (with function context) when any
    /// function's code bytes fail to decode; implementations may also
    /// surface transient cache/injection failures.
    fn features_all(&self, bin: &Binary) -> Result<Vec<StaticFeatures>, ScanError> {
        (0..bin.function_count()).map(|idx| self.features_one(bin, idx)).collect()
    }

    /// Static features of one function of `bin`.
    ///
    /// # Errors
    /// As for [`FeatureSource::features_all`].
    fn features_one(&self, bin: &Binary, idx: usize) -> Result<StaticFeatures, ScanError>;

    /// Retrieval signatures for every function of `bin`, in function-table
    /// order. `feats` is the output of [`FeatureSource::features_all`] for
    /// the same binary, and the signature is a pure function of the
    /// features, so the default computes each one directly. scanhub's
    /// cached sources keep the default: recomputing signatures costs less
    /// than loading them back from a cache file. A source that wraps
    /// another may override it to count or time the call.
    fn signatures_all(&self, bin: &Binary, feats: &[StaticFeatures]) -> Vec<FunctionSignature> {
        let _ = bin;
        feats.iter().map(FunctionSignature::of).collect()
    }

    /// Where this source keeps finished static scans, if it keeps any.
    /// The default keeps none, and the static pass then scores every
    /// (binary, set) and derives no key at all. scanhub's store keeps one
    /// scan per (library, reference set). A source that wraps another
    /// keeps the wrapped source's scans in use only if it forwards this.
    fn scan_store(&self) -> Option<&dyn ScanStore> {
        None
    }
}

/// The key of one kept [`StaticScan`], in two halves, each a digest of
/// one side of the scan's inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScanKey {
    /// The scanned binary's [`ScanStore::library_digest`].
    pub library: (u64, u64),
    /// What it was scanned with: the detector's
    /// [`Detector::fingerprint`], the retrieval mode with its `k`, and
    /// the reference set's rows in order.
    pub query: (u64, u64),
}

/// A store of finished static scans, keyed by everything a scan reads
/// ([`ScanKey`]), which the static pass consults before it builds any
/// pair list ([`FeatureSource::scan_store`]).
pub trait ScanStore: Sync {
    /// A digest of every input of `bin` that its scan reads: each
    /// function's Table I inputs, in function order. The library's name
    /// is not one of them. The static pass asks once per binary.
    fn library_digest(&self, bin: &Binary) -> (u64, u64);

    /// The scan kept under `key`, if any.
    fn kept(&self, key: ScanKey) -> Option<Arc<StaticScan>>;

    /// Keep `scan` under `key`.
    fn keep(&self, key: ScanKey, scan: StaticScan);
}

/// One binary's static front end ([`Patchecko::front_end`]): its features,
/// and under top-K one indexed pair list per missing reference set.
type FrontEnd = (Vec<StaticFeatures>, Vec<Vec<(u32, u32)>>);

/// The uncached [`FeatureSource`]: disassemble + extract on every request.
pub struct DirectExtraction;

impl FeatureSource for DirectExtraction {
    fn features_one(&self, bin: &Binary, idx: usize) -> Result<StaticFeatures, ScanError> {
        let dis = disasm::disassemble(bin, idx)
            .map_err(|e| ScanError::extraction(&bin.lib_name, idx, &e))?;
        Ok(features::extract(&dis, &bin.functions[idx]))
    }
}

/// Where one run gets its artifacts from and when it must stop: the
/// static feature source, the dynamic profile source and the request's
/// cancellation token. Every entry point that can reach the dynamic stage
/// takes one ([`Patchecko::analyze_library`], [`Patchecko::analyze_image`],
/// [`crate::differential::detect_patch`],
/// [`crate::differential::detect_patch_best`],
/// [`crate::eval::audit_one_cve`], [`crate::eval::audit_image`]); the
/// static-only scans take just a [`FeatureSource`].
///
/// [`RunCtx::default`] is the uncached, unbounded run: [`DirectExtraction`],
/// [`LiveProfiling`] and [`CancelToken::unbounded`]. scanhub builds a
/// tenant's context from its cache namespace
/// (`patchecko_scanhub::ArtifactStore::ctx`).
pub struct RunCtx<'a> {
    /// Static features, target and reference sides alike.
    pub features: &'a dyn FeatureSource,
    /// Execution environments and dynamic profiles.
    pub profiles: Arc<dyn DynProfileSource>,
    /// Checked between stages; expiry surfaces as
    /// [`ScanError::DeadlineExceeded`].
    pub cancel: CancelToken,
}

impl Default for RunCtx<'_> {
    fn default() -> Self {
        RunCtx {
            features: &DirectExtraction,
            profiles: Arc::new(LiveProfiling),
            cancel: CancelToken::unbounded(),
        }
    }
}

/// Result of the static (deep learning) stage on one library.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StaticScan {
    /// Scanned library name.
    pub library: String,
    /// Total functions scanned.
    pub total: usize,
    /// Per-function similarity probability.
    pub probs: Vec<f32>,
    /// Indices with probability ≥ threshold (the candidate set).
    pub candidates: Vec<usize>,
    /// Per-function index (into the scan's reference set) of the
    /// reference variant that produced [`StaticScan::probs`] — the
    /// groundwork for patch localization. Empty when the reference set
    /// is empty; otherwise one entry per scanned function.
    #[serde(default)]
    pub best_ref: Vec<usize>,
    /// Wall-clock seconds of the static pass that produced this scan (the
    /// "DP" column). A batched pass scans the library against every
    /// reference set at once, an image analysis's pass spans every
    /// library of the image, and a streaming scan's pass spans a whole
    /// working set of libraries; each of a pass's scans carries the whole
    /// pass's time, not a share of it.
    pub seconds: f64,
}

/// Confidence of a dynamic-stage result.
///
/// `Full` means the paper's pipeline ran end to end: environments were
/// generated, the reference profiled, every candidate execution-validated.
/// `Degraded` means the dynamic stage could not run (the reference failed
/// to load, no execution environment survived, or candidate profiling
/// died) and the ranking fell back to static-only evidence — better than
/// dropping the candidates or panicking, but to be read with the static
/// stage's false-positive rate in mind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Confidence {
    /// Dynamic validation and profiling ran for every ranked candidate.
    Full,
    /// Static-only fallback: dynamic evidence was unavailable for at
    /// least part of the ranking.
    Degraded,
}

/// Result of the dynamic stage.
#[derive(Debug, Clone)]
pub struct DynamicAnalysis {
    /// The fixed execution environments used.
    pub envs: Vec<ExecEnv>,
    /// Reference function's dynamic features per environment.
    pub reference_profile: Vec<DynFeatures>,
    /// Candidates that survived execution validation (the "Execution"
    /// column).
    pub validated: Vec<usize>,
    /// Dynamic profiles of the validated candidates.
    pub profiles: Vec<(usize, Vec<DynFeatures>)>,
    /// Final similarity ranking (ascending distance). Under
    /// [`Confidence::Degraded`], distances are static pseudo-distances
    /// (`1 - probability`), not comparable with dynamic distances.
    pub ranking: Vec<RankedCandidate>,
    /// Whether the ranking carries full dynamic evidence or fell back to
    /// static-only ordering.
    pub confidence: Confidence,
    /// Why the stage degraded, when it did.
    pub degradation: Option<String>,
    /// Wall-clock seconds of the dynamic pass that produced this analysis
    /// (the "DA" column), target and reference loads included. An image
    /// analysis's pass spans every (library, pair) stage of the image, and
    /// each of its analyses carries the whole pass's time, as
    /// [`StaticScan::seconds`] does.
    pub seconds: f64,
}

impl DynamicAnalysis {
    /// Whether this analysis fell back to static-only evidence.
    pub fn is_degraded(&self) -> bool {
        self.confidence == Confidence::Degraded
    }
}

/// A full per-CVE hybrid analysis.
#[derive(Debug, Clone)]
pub struct CveAnalysis {
    /// CVE identifier.
    pub cve: String,
    /// Search basis.
    pub basis: Basis,
    /// Static stage result.
    pub scan: StaticScan,
    /// Dynamic stage result.
    pub dynamic: DynamicAnalysis,
}

impl CveAnalysis {
    /// The best-ranked candidate function index, if any survived.
    pub fn top_candidate(&self) -> Option<usize> {
        self.dynamic.ranking.first().map(|r| r.function_index)
    }

    /// Whether the dynamic stage fell back to static-only evidence.
    pub fn is_degraded(&self) -> bool {
        self.dynamic.is_degraded()
    }
}

/// The PATCHECKO analyzer: a trained detector plus pipeline settings.
pub struct Patchecko {
    /// Trained deep-learning detector.
    pub detector: Detector,
    /// Pipeline settings.
    pub config: PipelineConfig,
    /// Built signature indexes memoized by reference-set fingerprint:
    /// reference DBs are stable across scans while targets change per
    /// image, so rebuilding MinHash × |refs| per scan would dwarf the
    /// classification work the index saves.
    ref_index: Mutex<HashMap<u64, Arc<SignatureSet>>>,
}

impl Patchecko {
    /// Create an analyzer. Sizes the shared worker pool from the config,
    /// so `--threads 1` forces serial kernels end to end and a larger
    /// override widens every parallel stage.
    pub fn new(detector: Detector, config: PipelineConfig) -> Patchecko {
        neural::pool::set_global_threads(config.effective_threads());
        Patchecko { detector, config, ref_index: Mutex::new(HashMap::new()) }
    }

    /// Static features of a database entry's primary reference function,
    /// served by `features` (reference binaries are content-addressable
    /// too).
    ///
    /// # Errors
    /// Propagates extraction failures from the source.
    pub fn reference_features(
        entry: &DbEntry,
        basis: Basis,
        features: &dyn FeatureSource,
    ) -> Result<StaticFeatures, ScanError> {
        let bin = match basis {
            Basis::Vulnerable => &entry.vulnerable_bin,
            Basis::Patched => &entry.patched_bin,
        };
        features.features_one(bin, 0)
    }

    /// Static features of every multi-platform reference variant (§II-A:
    /// the database compiles the reference "for different hardware
    /// architectures and software platforms").
    ///
    /// # Errors
    /// Propagates the first extraction failure from the source.
    pub fn reference_feature_set(
        entry: &DbEntry,
        basis: Basis,
    ) -> Result<Vec<StaticFeatures>, ScanError> {
        // Kept: the frozen `hybridbench` calls this two-argument form.
        Self::reference_feature_set_with(entry, basis, &DirectExtraction)
    }

    /// [`Patchecko::reference_feature_set`] through an explicit
    /// [`FeatureSource`].
    ///
    /// # Errors
    /// Propagates the first extraction failure from the source.
    pub fn reference_feature_set_with(
        entry: &DbEntry,
        basis: Basis,
        source: &dyn FeatureSource,
    ) -> Result<Vec<StaticFeatures>, ScanError> {
        entry
            .reference_variants(basis == Basis::Patched)
            .map(|bin| source.features_one(bin, 0))
            .collect()
    }

    /// Stage 1: scan every function of `bin` against each reference
    /// feature set with the deep-learning classifier, features served by
    /// `features`. Returns one [`StaticScan`] per set, in order. A
    /// function's score against a set is its best match across that set's
    /// reference variants.
    ///
    /// Retrieval only chooses which (reference, function) pairs to score;
    /// the scoring is one [`crate::detector::Detector::classify_pairs`]
    /// call over the sets' lists concatenated, with each set's reference
    /// indices offset past the sets before it. So the library's features
    /// are fetched, normalized and projected once however many sets it is
    /// scanned against, and a score is bitwise the same in any batch (it
    /// depends only on its own two rows). Under [`Retrieval::Exact`] (the
    /// default) a set's list holds every pair. Under [`Retrieval::TopK`]
    /// the set's own signature/LSH index retrieves each target's `k`
    /// nearest references of that set and only those pairs reach the
    /// classifier, which keeps scan cost near-flat as the reference
    /// database grows. Either list is grouped by function with references
    /// ascending, and one strict-`>` fold per set keeps the lowest
    /// reference on ties; at `k >= references.len()` the index returns
    /// exactly the exact list, so the two modes are bitwise-identical
    /// there.
    ///
    /// # Errors
    /// Propagates extraction failures from the source.
    pub fn scan_library(
        &self,
        bin: &Binary,
        reference_sets: &[&[StaticFeatures]],
        features: &dyn FeatureSource,
    ) -> Result<Vec<StaticScan>, ScanError> {
        self.static_pass(std::slice::from_ref(bin), reference_sets, features)
    }

    /// [`Patchecko::scan_library`] over several binaries in one pass:
    /// one [`StaticScan`] per (binary, set), binary-major. Each binary's
    /// lists are built from its own features and signatures, as in a
    /// one-binary scan; then its function indices are offset past the
    /// binaries before it, as reference indices are offset past the sets
    /// before them. So the pass makes one `classify_pairs` call over the
    /// concatenated rows, which normalizes and projects each distinct row
    /// once per pass, scores a feature pair that repeats within or across
    /// binaries once and chunks a long list across the pool, and each
    /// (binary, set) folds back exactly what its own scan would give. An
    /// image analysis makes one pass over the whole image, a stream one
    /// per working set. Each binary's front end (features, signatures
    /// and top-K lists) is one item of a [`neural::pool::WorkerPool::map`]
    /// at the pool's width; the pair list is then built in binary order
    /// on the calling thread, so the fan-out moves no offset, score or
    /// fold, and the first failing binary in binary order decides the
    /// error or panic.
    ///
    /// When `features` keeps scans ([`FeatureSource::scan_store`]), the
    /// pass first looks up every (binary, set) under its [`ScanKey`]:
    /// the detector is fingerprinted once, each set digested once and
    /// each binary once. Only the lists of the scans not kept are built
    /// and scored, still in one `classify_pairs` call, so distinct pairs
    /// still dedup across binaries; a binary whose every set was kept is
    /// not fetched at all, and each scan computed is kept. A kept scan is
    /// served under the requesting binary's name. Every scan of a pass,
    /// served or scored, carries the whole pass's time.
    pub(crate) fn static_pass(
        &self,
        bins: &[Binary],
        reference_sets: &[&[StaticFeatures]],
        features: &dyn FeatureSource,
    ) -> Result<Vec<StaticScan>, ScanError> {
        let names: Vec<&str> = bins.iter().map(|bin| bin.lib_name.as_str()).collect();
        let _span = scope::SpanGuard::enter("static_scan").with_detail(names.join(","));
        let started = Instant::now();
        // One slot per (binary, set), binary-major: the scan, once kept or
        // scored, and with a store, its key.
        let sets = reference_sets.len();
        let store = features.scan_store();
        let mut keys = Vec::new();
        let mut scans: Vec<Option<StaticScan>> = Vec::with_capacity(bins.len() * sets);
        match store {
            Some(store) => {
                let model = self.detector.fingerprint();
                let queries: Vec<_> =
                    reference_sets.iter().map(|set| self.scan_query(model, set)).collect();
                for bin in bins {
                    let library = store.library_digest(bin);
                    for &query in &queries {
                        let key = ScanKey { library, query };
                        scans.push(store.kept(key).map(|scan| (*scan).clone()));
                        keys.push(key);
                    }
                }
            }
            None => scans.resize(bins.len() * sets, None),
        }
        // Every list still to score in one pair list over the concatenated
        // reference and target rows; `lists` keeps each one's slot, row
        // offsets and slice of `pairs`. `first_rows[s]` is set `s`'s first
        // row in the concatenation.
        let first_rows: Vec<u32> = reference_sets
            .iter()
            .scan(0u32, |next, set| Some(std::mem::replace(next, *next + set.len() as u32)))
            .collect();
        // Each binary with a scan still to compute is one item of one
        // fan-out at the pool's width, which runs that binary's front end.
        // A panic is caught per binary, so the walk below meets failures in
        // binary order, as a serial loop would.
        let fetch: Vec<(usize, Vec<usize>)> = (0..bins.len())
            .map(|b| (b, (0..sets).filter(|&s| scans[b * sets + s].is_none()).collect::<Vec<_>>()))
            .filter(|(_, missing)| !missing.is_empty())
            .collect();
        let fronts = neural::pool::global().map(&fetch, |(b, missing)| {
            catch_unwind(AssertUnwindSafe(|| {
                self.front_end(&bins[*b], missing, reference_sets, features)
            }))
        });
        let mut targets: Vec<StaticFeatures> = Vec::new();
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut lists = Vec::new();
        for ((b, missing), front) in fetch.iter().zip(fronts) {
            let (feats, indexed) = front.unwrap_or_else(|panic| resume_unwind(panic))?;
            let functions = feats.len();
            let t0 = targets.len() as u32;
            for (i, &s) in missing.iter().enumerate() {
                let (references, r0) = (reference_sets[s], first_rows[s]);
                let start = pairs.len();
                match self.config.retrieval {
                    Retrieval::Exact => pairs.extend((0..functions as u32).flat_map(|j| {
                        (0..references.len() as u32).map(move |r| (r0 + r, t0 + j))
                    })),
                    Retrieval::TopK { .. } => {
                        pairs.extend(indexed[i].iter().map(|&(r, j)| (r0 + r, t0 + j)))
                    }
                }
                let slot = b * sets + s;
                lists.push((slot, functions, references.len(), (r0, t0), start..pairs.len()));
            }
            targets.extend(feats);
        }
        let scores = if pairs.is_empty() {
            Vec::new()
        } else {
            self.detector.classify_pairs(&reference_sets.concat(), &targets, &pairs)
        };
        for (slot, functions, references, offsets, range) in lists {
            let (probs, best_ref, candidates) = self.fold_scores(
                functions,
                references,
                &pairs[range.clone()],
                &scores[range],
                offsets,
            );
            let scan = StaticScan {
                library: bins[slot / sets].lib_name.clone(),
                total: functions,
                probs,
                candidates,
                best_ref,
                seconds: 0.0,
            };
            if let Some(store) = store {
                store.keep(keys[slot], scan.clone());
            }
            scans[slot] = Some(scan);
        }
        let seconds = started.elapsed().as_secs_f64();
        Ok(scans
            .into_iter()
            .enumerate()
            .map(|(slot, scan)| {
                let scan = scan.expect("every slot is kept or scored");
                StaticScan { library: bins[slot / sets].lib_name.clone(), seconds, ..scan }
            })
            .collect())
    }

    /// One binary's front end, the part of a static pass that reads only
    /// that binary: its features and, under [`Retrieval::TopK`], its
    /// signatures and the indexed list of each set in `missing`, in that
    /// order and with set-relative rows. Under [`Retrieval::Exact`] the
    /// lists are left to the caller (every pair), so the second half is
    /// empty.
    ///
    /// # Errors
    /// Propagates an extraction failure from the source.
    fn front_end(
        &self,
        bin: &Binary,
        missing: &[usize],
        reference_sets: &[&[StaticFeatures]],
        features: &dyn FeatureSource,
    ) -> Result<FrontEnd, ScanError> {
        let feats = features.features_all(bin)?;
        let Retrieval::TopK { k } = self.config.retrieval else {
            return Ok((feats, Vec::new()));
        };
        let needs_sigs = missing.iter().any(|&s| !reference_sets[s].is_empty());
        let target_sigs = if needs_sigs && !feats.is_empty() {
            features.signatures_all(bin, &feats)
        } else {
            Vec::new()
        };
        let indexed = missing
            .iter()
            .map(|&s| {
                if target_sigs.is_empty() {
                    Vec::new()
                } else {
                    self.indexed_pairs(reference_sets[s], &target_sigs, k)
                }
            })
            .collect();
        Ok((feats, indexed))
    }

    /// The query half of a [`ScanKey`]: the detector's fingerprint
    /// `model`, the retrieval mode with its `k`, and `references`' rows
    /// in order, as exact bits.
    fn scan_query(&self, model: (u64, u64), references: &[StaticFeatures]) -> (u64, u64) {
        let mut h = dynsource::Fnv2::new();
        h.update(b"scan-query");
        h.update_u64(model.0);
        h.update_u64(model.1);
        match self.config.retrieval {
            Retrieval::Exact => h.update(&[0]),
            Retrieval::TopK { k } => {
                h.update(&[1]);
                h.update_u64(k as u64);
            }
        }
        h.update_u64(references.len() as u64);
        h.update_words(references.iter().flat_map(|r| r.0.iter().map(|x| x.to_bits())));
        (h.hi, h.lo)
    }

    /// One (binary, set) list's scores folded per function: the best
    /// probability, the (set-relative) reference that produced it, and the
    /// functions at or above the threshold. `(r0, t0)` are the list's
    /// reference and target row offsets in the pass. Degenerate scans
    /// (nothing to compare) give a well-formed empty result: zero
    /// probabilities, no candidates, no best references — never NaNs or
    /// spurious threshold hits.
    fn fold_scores(
        &self,
        functions: usize,
        references: usize,
        pairs: &[(u32, u32)],
        scores: &[f32],
        (r0, t0): (u32, u32),
    ) -> (Vec<f32>, Vec<usize>, Vec<usize>) {
        if references == 0 || functions == 0 {
            return (vec![0.0f32; functions], Vec::new(), Vec::new());
        }
        let mut probs = vec![0.0f32; functions];
        let mut best_ref = vec![0usize; functions];
        for (&(r, j), &s) in pairs.iter().zip(scores) {
            let j = (j - t0) as usize;
            if s > probs[j] {
                probs[j] = s;
                best_ref[j] = (r - r0) as usize;
            }
        }
        let candidates = probs
            .iter()
            .enumerate()
            .filter(|(_, p)| **p >= self.detector.threshold)
            .map(|(i, _)| i)
            .collect();
        (probs, best_ref, candidates)
    }

    /// One set's indexed pair list: each target's `k` nearest references
    /// by quantized signature, grouped by target with references
    /// ascending. Reference signatures are computed directly — the
    /// signature is a pure function of the features, so they agree with
    /// the target signatures a source serves.
    fn indexed_pairs(
        &self,
        references: &[StaticFeatures],
        target_sigs: &[FunctionSignature],
        k: usize,
    ) -> Vec<(u32, u32)> {
        if references.is_empty() {
            return Vec::new();
        }
        let index = self.reference_index(references);
        let pairs: Vec<(u32, u32)> = target_sigs
            .iter()
            .enumerate()
            .flat_map(|(j, sig)| index.candidates(sig, k).into_iter().map(move |r| (r, j as u32)))
            .collect();
        scope::add("index.candidates", pairs.len() as u64);
        scope::add(
            "index.pairs_pruned",
            (references.len() * target_sigs.len()).saturating_sub(pairs.len()) as u64,
        );
        pairs
    }

    /// The signature index over `references`, memoized by content
    /// fingerprint. A hit costs one fingerprint pass (~1ns per feature
    /// word); a miss computes every reference signature and builds the
    /// LSH tables once, after which scans of any number of target images
    /// against the same reference DB reuse it. The memo is bounded: at
    /// 256 distinct reference sets it resets (reference sets are vuln-DB
    /// entries — a handful in practice, not unbounded user input).
    fn reference_index(&self, references: &[StaticFeatures]) -> Arc<SignatureSet> {
        let fp = retrieval::feature_fingerprint(references);
        let mut memo = self.ref_index.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(index) = memo.get(&fp) {
            scope::add("index.memo_hits", 1);
            return Arc::clone(index);
        }
        let sigs: Vec<FunctionSignature> = references.iter().map(FunctionSignature::of).collect();
        let index = Arc::new(SignatureSet::build(&sigs));
        if memo.len() >= 256 {
            memo.clear();
        }
        memo.insert(fp, Arc::clone(&index));
        index
    }

    /// Static-only fallback ranking for candidates without dynamic
    /// evidence: descending probability, i.e. ascending pseudo-distance
    /// `1 - probability`, ties broken by function index so the order is
    /// deterministic.
    fn static_fallback_ranking(scan: &StaticScan, candidates: &[usize]) -> Vec<RankedCandidate> {
        let mut ranked: Vec<RankedCandidate> = candidates
            .iter()
            .map(|&c| RankedCandidate {
                function_index: c,
                distance: 1.0 - f64::from(scan.probs[c]),
            })
            .collect();
        ranked.sort_by(|a, b| {
            similarity::distance_order(a.distance, b.distance)
                .then(a.function_index.cmp(&b.function_index))
        });
        ranked
    }

    /// A fully degraded analysis: no dynamic evidence at all, ranking by
    /// static probability. Used when the loader or the environment
    /// generator fails — the scan's candidates still reach the report
    /// instead of sinking the job. The pass it belongs to sets its
    /// `seconds`.
    pub(crate) fn degraded_analysis(scan: &StaticScan, why: String) -> DynamicAnalysis {
        scope::inc("pipeline.degraded");
        DynamicAnalysis {
            envs: Vec::new(),
            reference_profile: Vec::new(),
            validated: Vec::new(),
            profiles: Vec::new(),
            ranking: Self::static_fallback_ranking(scan, &scan.candidates),
            confidence: Confidence::Degraded,
            degradation: Some(why),
            seconds: 0.0,
        }
    }

    /// Stage 2+3: execution-validate the candidates, profile the survivors,
    /// and rank them against the reference profile.
    ///
    /// The one-target, one-pair case of an image's dynamic pass (see
    /// [`Patchecko::analyze_image`]), through the same code and in one
    /// `dynamic_stage` span: one task loads both of `entry`'s reference
    /// builds for the target's architecture and gets the `basis` stage's
    /// environments and reference profile
    /// ([`dynsource::shared_environments`]), the candidates are profiled
    /// in one dispatch on the shared [`neural::pool`] (one
    /// order-preserving task per candidate), and the ranking runs on the
    /// calling thread. Environments and profiles come from `dynsrc` —
    /// [`LiveProfiling`] executes everything, scanhub's dynamic lane
    /// serves cached profiles so a warm re-audit performs zero VM
    /// executions.
    ///
    /// Infallible by design: every failure inside the stage degrades
    /// instead of propagating. A candidate whose profiling *panics* (as
    /// opposed to the paper's execution-validation failures — fault,
    /// timeout — which still prune the candidate) falls back to its
    /// static score and is appended after the dynamically ranked set; if
    /// the whole stage cannot run (a reference build fails to load, no
    /// environment survives both builds, the source fails), the ranking
    /// is static-only and the result is marked [`Confidence::Degraded`].
    pub fn dynamic_stage(
        &self,
        target: &Arc<LoadedBinary>,
        scan: &StaticScan,
        entry: &DbEntry,
        basis: Basis,
        dynsrc: &Arc<dyn DynProfileSource>,
    ) -> DynamicAnalysis {
        let _span = scope::SpanGuard::enter("dynamic_stage").with_detail(scan.library.clone());
        let started = Instant::now();
        let unbounded = CancelToken::unbounded();
        let load = load_references(entry, target.binary().arch);
        let mut runs = self
            .reference_runs(vec![(basis, load)], dynsrc, unbounded)
            .expect("an unbounded token never expires");
        let run = runs.pop().expect("one run per load");
        let inputs = run.as_ref().map(|run| (target, run)).map_err(|e| {
            format!("reference failed to load: {}", ScanError::load(&entry.entry.library, e))
        });
        let stage = Stage { scan, inputs };
        let mut analyses = self
            .profile_and_rank(std::slice::from_ref(&stage), dynsrc, unbounded, started)
            .expect("an unbounded token never expires");
        analyses.pop().expect("one analysis per stage")
    }

    /// The dynamic half of an image analysis: every (library, pair) stage
    /// in one pass, in one `dynamic_stage` span on the calling thread.
    /// `scans` holds one static scan per stage, library-major; the result
    /// holds one analysis per stage in the same order.
    ///
    /// Each library is loaded once, on the calling thread. The paper runs
    /// both functions on the device itself, so a reference is built for
    /// its target's architecture, and a candidate runs "on the same inputs
    /// as the reference CVE function", inputs "tested ... [to work] with
    /// both the vulnerable and patched functions": an environment set
    /// belongs to a (pair, architecture), and
    /// [`dynsource::shared_environments`] makes it. So the pass has three
    /// phases. (1) One task per (pair, architecture) that some loaded
    /// library needs loads both reference builds of that architecture
    /// and gets the stage's environments and reference profile from the
    /// rule, all in one pool dispatch. (2) One task per candidate of
    /// every stage that can run, in one more dispatch. (3) Each stage is
    /// ranked on the calling thread. `ctx.cancel` is checked before each
    /// phase and before each task starts.
    ///
    /// A library that scanned statically but fails to load degrades its
    /// stages instead of sinking the job, and so does a reference build
    /// that fails to load; a reference's failure is the one reported when
    /// both fail.
    ///
    /// # Errors
    /// [`ScanError::DeadlineExceeded`] when `ctx.cancel` expires.
    fn dynamic_pass(
        &self,
        bins: &[Binary],
        pairs: &[(&DbEntry, Basis)],
        scans: &[StaticScan],
        ctx: &RunCtx,
    ) -> Result<Vec<DynamicAnalysis>, ScanError> {
        let names: Vec<&str> = bins.iter().map(|bin| bin.lib_name.as_str()).collect();
        let _span = scope::SpanGuard::enter("dynamic_stage").with_detail(names.join(","));
        let started = Instant::now();
        ctx.cancel.check()?;
        let targets: Vec<_> =
            bins.iter().map(|bin| LoadedBinary::load(bin.clone()).map(Arc::new)).collect();
        let mut archs: Vec<Arch> = Vec::new();
        for (bin, target) in bins.iter().zip(&targets) {
            if target.is_ok() && !archs.contains(&bin.arch) {
                archs.push(bin.arch);
            }
        }
        // Phase 1: the runs of arch `archs[a]` sit at `a * pairs.len()`.
        let loads = archs
            .iter()
            .flat_map(|&arch| pairs.iter().map(move |&(entry, basis)| (entry, basis, arch)))
            .map(|(entry, basis, arch)| (basis, load_references(entry, arch)))
            .collect();
        let runs = self.reference_runs(loads, &ctx.profiles, ctx.cancel)?;
        let mut stages = Vec::with_capacity(scans.len());
        for ((bin, target), scans) in bins.iter().zip(&targets).zip(scans.chunks(pairs.len())) {
            for (p, scan) in scans.iter().enumerate() {
                let library = &pairs[p].0.entry.library;
                let reference_failed = |e: &LoadError| {
                    format!("reference failed to load: {}", ScanError::load(library, e))
                };
                let inputs = match target {
                    Ok(target) => {
                        let a = archs.iter().position(|&a| a == bin.arch);
                        let a = a.expect("archs holds every loaded library's architecture");
                        match &runs[a * pairs.len() + p] {
                            Ok(run) => Ok((target, run)),
                            Err(e) => Err(reference_failed(e)),
                        }
                    }
                    // No run was made for a library that did not load, so
                    // its references are loaded here only to settle which
                    // failure the stage reports.
                    Err(e) => Err(match load_references(pairs[p].0, bin.arch)() {
                        Err(reference) => reference_failed(&reference),
                        Ok(_) => format!(
                            "target failed to load: {}",
                            ScanError::load(&bin.lib_name, e)
                        ),
                    }),
                };
                stages.push(Stage { scan, inputs });
            }
        }
        ctx.cancel.check()?;
        self.profile_and_rank(&stages, &ctx.profiles, ctx.cancel, started)
    }

    /// Phase 1 of a dynamic pass: for each (basis, load), one task loads
    /// both reference builds with `load`, then gets the basis stage's
    /// environments and reference profile from
    /// [`dynsource::shared_environments`] through `dynsrc`, all tasks in
    /// one pool dispatch. A source that errors or panics leaves the
    /// profile missing, and the stages on that run degrade.
    ///
    /// # Errors
    /// [`ScanError::DeadlineExceeded`] when `cancel` expires before a task
    /// starts.
    fn reference_runs<L>(
        &self,
        loads: Vec<(Basis, L)>,
        dynsrc: &Arc<dyn DynProfileSource>,
        cancel: CancelToken,
    ) -> Result<Vec<Result<ReferenceRun, LoadError>>, ScanError>
    where
        L: FnOnce() -> Result<[LoadedBinary; 2], LoadError> + Send + 'static,
    {
        let tasks = loads
            .into_iter()
            .map(|(basis, load)| {
                let dynsrc = Arc::clone(dynsrc);
                let (fuzz, vm) = (self.config.fuzz.clone(), self.config.vm.clone());
                move || -> Result<ReferenceRun, LoadError> {
                    let [vulnerable, patched] = load()?;
                    let builds = [&vulnerable, &patched];
                    let shared = catch_unwind(AssertUnwindSafe(|| {
                        dynsource::shared_environments(&*dynsrc, builds, basis, &fuzz, &vm)
                    }))
                    .ok()
                    .and_then(Result::ok);
                    Ok(match shared {
                        Some(shared) => ReferenceRun {
                            profile: Some(shared.reference(basis).to_vec()),
                            envset: Arc::new(shared.set),
                        },
                        None => {
                            let envset = Arc::new(EnvSet::new(Vec::new(), &vm));
                            ReferenceRun { envset, profile: None }
                        }
                    })
                }
            })
            .collect();
        run_until(cancel, tasks)
    }

    /// Phases 2 and 3 of a dynamic pass: profile every candidate of every
    /// stage that can run, in one pool dispatch, then rank each stage on
    /// the calling thread. Every analysis carries the pass's time, counted
    /// from `started`.
    ///
    /// # Errors
    /// [`ScanError::DeadlineExceeded`] when `cancel` expires before a task
    /// starts.
    fn profile_and_rank(
        &self,
        stages: &[Stage],
        dynsrc: &Arc<dyn DynProfileSource>,
        cancel: CancelToken,
        started: Instant,
    ) -> Result<Vec<DynamicAnalysis>, ScanError> {
        // `Ok(validated)` = profiled, `Ok(!validated)` =
        // execution-validation failure (pruned, as the paper prescribes),
        // `Err` = the profiler itself panicked or the source failed (the
        // candidate degrades to static evidence).
        type ProfileResult = Result<DynProfile, ScanError>;
        let mut tasks = Vec::new();
        for stage in stages {
            let Ok((target, run)) = stage.inputs else { continue };
            if run.blocked().is_some() {
                continue;
            }
            tasks.extend(stage.scan.candidates.iter().map(|&c| {
                let target = Arc::clone(target);
                let envset = Arc::clone(&run.envset);
                let dynsrc = Arc::clone(dynsrc);
                let vm = self.config.vm.clone();
                move || -> ProfileResult {
                    catch_unwind(AssertUnwindSafe(|| dynsrc.profile(&target, c, &envset, &vm)))
                        .unwrap_or_else(|p| Err(ScanError::from_panic(p.as_ref())))
                }
            }));
        }
        let mut results = run_until(cancel, tasks)?.into_iter();
        let mut analyses: Vec<DynamicAnalysis> = stages
            .iter()
            .map(|stage| {
                let scan = stage.scan;
                let run = match &stage.inputs {
                    Ok((_, run)) => run,
                    Err(why) => return Self::degraded_analysis(scan, why.clone()),
                };
                let candidates: &[usize] = &scan.candidates;
                if let (Some(why), false) = (run.blocked(), candidates.is_empty()) {
                    return Self::degraded_analysis(scan, why.to_string());
                }
                let mut validated = Vec::new();
                let mut profiles = Vec::new();
                let mut fallback = Vec::new();
                let mut degradation: Option<String> = None;
                let stage_results = results.by_ref().take(candidates.len());
                for (&c, r) in candidates.iter().zip(stage_results) {
                    match r {
                        Ok(p) if p.validated() => {
                            validated.push(c);
                            profiles.push((c, p.features));
                        }
                        Ok(_) => {} // execution-validation failure: pruned.
                        Err(e) => {
                            fallback.push(c);
                            degradation.get_or_insert_with(|| {
                                format!("candidate {c} profiling panicked: {e}")
                            });
                        }
                    }
                }
                let reference_profile = run.profile.clone().unwrap_or_default();
                let mut ranking =
                    similarity::rank(&reference_profile, &profiles, self.config.minkowski_p);
                let confidence =
                    if fallback.is_empty() { Confidence::Full } else { Confidence::Degraded };
                // Degraded candidates rank after every dynamically ranked
                // one: static evidence never outranks dynamic evidence.
                ranking.extend(Self::static_fallback_ranking(scan, &fallback));
                DynamicAnalysis {
                    envs: run.envset.envs.clone(),
                    reference_profile,
                    validated,
                    profiles,
                    ranking,
                    confidence,
                    degradation,
                    seconds: 0.0,
                }
            })
            .collect();
        let seconds = started.elapsed().as_secs_f64();
        for analysis in &mut analyses {
            analysis.seconds = seconds;
        }
        Ok(analyses)
    }

    /// Each pair's reference feature set
    /// ([`Patchecko::reference_feature_set_with`]), gathered once for a
    /// whole batched analysis. `ctx.cancel` is checked before the first
    /// feature call.
    ///
    /// # Errors
    /// [`ScanError::DeadlineExceeded`], or the first extraction failure.
    fn gather_references(
        pairs: &[(&DbEntry, Basis)],
        ctx: &RunCtx,
    ) -> Result<Vec<Vec<StaticFeatures>>, ScanError> {
        ctx.cancel.check()?;
        pairs
            .iter()
            .map(|&(entry, basis)| Self::reference_feature_set_with(entry, basis, ctx.features))
            .collect()
    }

    /// Run the full hybrid analysis of every (entry, basis) pair against
    /// one target library binary, artifacts served by `ctx`. Returns one
    /// [`CveAnalysis`] per pair, in order.
    ///
    /// The one-binary case of [`Patchecko::analyze_image`]: the library is
    /// scanned once for the whole batch (one static pass over every pair's
    /// reference set), then one dynamic pass loads it once and runs each
    /// pair's stage against it. `ctx.cancel` is checked before any
    /// feature call, before each pass, before each dynamic phase and
    /// before each dynamic task starts, so a request whose end-to-end
    /// deadline has passed stops at the next of those.
    ///
    /// # Errors
    /// [`ScanError::DeadlineExceeded`] when `ctx.cancel` expires between
    /// stages; [`ScanError::Extraction`] (or a source-specific transient
    /// error) when static features cannot be produced. Loader failures on
    /// the dynamic side do **not** error: the analysis degrades to
    /// static-only ranking instead.
    pub fn analyze_library(
        &self,
        target_bin: &Binary,
        pairs: &[(&DbEntry, Basis)],
        ctx: &RunCtx,
    ) -> Result<Vec<CveAnalysis>, ScanError> {
        let references = Self::gather_references(pairs, ctx)?;
        let mut by_library =
            self.analyze_binaries(std::slice::from_ref(target_bin), pairs, &references, ctx)?;
        Ok(by_library.pop().expect("one analysis list per binary"))
    }

    /// Scan a whole firmware image for every (entry, basis) pair: every
    /// library is analyzed and the per-library results are returned
    /// alongside the image-wide best match, one [`ImageAnalysis`] per
    /// pair, in order. This is PATCHECKO's deployment interface —
    /// "PATCHECKO outputs the vulnerable points (functions) within the
    /// target firmware image and the corresponding CVE numbers".
    ///
    /// Each pair's reference set is gathered once per call. Then one
    /// static pass scans every library of the image against every set at
    /// once, so [`crate::detector::Detector::classify_pairs`] sees the
    /// whole image's pairs in one list and scores a (reference, function)
    /// pair that repeats across libraries once. Then one dynamic pass runs
    /// every (library, pair) stage, in one `dynamic_stage` span: each
    /// library is loaded once; for each (pair, architecture) that a loaded
    /// library needs, both reference builds are loaded and the stage's
    /// environments and reference profile are made once
    /// ([`dynsource::shared_environments`]), one pool task each; every
    /// candidate of every stage is profiled in one more pool dispatch; and
    /// each stage is ranked on the calling thread. A (pair,
    /// architecture)'s environment set and reference profiles are each
    /// asked for once per call, however many libraries share them. So an
    /// expired request stops before or after the static pass, before a
    /// dynamic phase or before a dynamic task starts, never between two
    /// libraries' scans. The result holds
    /// |pairs| × |libraries| [`CveAnalysis`] values at once.
    ///
    /// # Errors
    /// [`ScanError::DeadlineExceeded`] when `ctx.cancel` expires; otherwise
    /// the first reference [`ScanError`], or the first library (in image
    /// order) whose features fail.
    pub fn analyze_image(
        &self,
        image: &fwbin::FirmwareImage,
        pairs: &[(&DbEntry, Basis)],
        ctx: &RunCtx,
    ) -> Result<Vec<ImageAnalysis>, ScanError> {
        let references = Self::gather_references(pairs, ctx)?;
        self.analyze_gathered(image, pairs, &references, ctx)
    }

    /// [`Patchecko::analyze_image`] with `references[p]` already gathered
    /// for `pairs[p]`, so a caller can settle each pair's reference
    /// failures before the batch runs. The image gets one static pass.
    pub(crate) fn analyze_gathered(
        &self,
        image: &fwbin::FirmwareImage,
        pairs: &[(&DbEntry, Basis)],
        references: &[Vec<StaticFeatures>],
        ctx: &RunCtx,
    ) -> Result<Vec<ImageAnalysis>, ScanError> {
        let mut by_library: Vec<_> = self
            .analyze_binaries(&image.binaries, pairs, references, ctx)?
            .into_iter()
            .map(Vec::into_iter)
            .collect();
        Ok(pairs
            .iter()
            .map(|&(entry, basis)| {
                let analyses: Vec<CveAnalysis> = by_library
                    .iter_mut()
                    .map(|library| library.next().expect("one analysis per pair"))
                    .collect();
                let best = best_match(&analyses).map(|(li, top, degraded)| ImageMatch {
                    library: image.binaries[li].lib_name.clone(),
                    library_index: li,
                    function_index: top.function_index,
                    distance: top.distance,
                    degraded,
                });
                ImageAnalysis { cve: entry.entry.cve.clone(), basis, best, analyses }
            })
            .collect())
    }

    /// Every binary of `bins` against every pair: one static pass over all
    /// the binaries and reference sets, then one dynamic pass over every
    /// (binary, pair) stage ([`Patchecko::dynamic_pass`]). Returns one list
    /// per binary, in order, of one [`CveAnalysis`] per pair. `ctx.cancel`
    /// is checked before each pass, before each dynamic phase and before
    /// each dynamic task starts.
    fn analyze_binaries(
        &self,
        bins: &[Binary],
        pairs: &[(&DbEntry, Basis)],
        references: &[Vec<StaticFeatures>],
        ctx: &RunCtx,
    ) -> Result<Vec<Vec<CveAnalysis>>, ScanError> {
        ctx.cancel.check()?;
        if pairs.is_empty() {
            return Ok(bins.iter().map(|_| Vec::new()).collect());
        }
        let sets: Vec<&[StaticFeatures]> = references.iter().map(Vec::as_slice).collect();
        let scans = self.static_pass(bins, &sets, ctx.features)?;
        let dynamics = self.dynamic_pass(bins, pairs, &scans, ctx)?;
        let mut analyses = scans.into_iter().zip(dynamics).zip(pairs.iter().cycle()).map(
            |((scan, dynamic), &(entry, basis))| CveAnalysis {
                cve: entry.entry.cve.clone(),
                basis,
                scan,
                dynamic,
            },
        );
        Ok(bins.iter().map(|_| analyses.by_ref().take(pairs.len()).collect()).collect())
    }
}

/// What phase 1 of a dynamic pass gives one (pair, architecture): the
/// environments both reference builds survive and, unless the source
/// failed, the basis build's profile over them.
struct ReferenceRun {
    envset: Arc<EnvSet>,
    profile: Option<Vec<DynFeatures>>,
}

impl ReferenceRun {
    /// Why no candidate can run against this reference, if none can.
    fn blocked(&self) -> Option<&'static str> {
        if self.profile.is_none() {
            Some("reference dynamic profile unavailable")
        } else if self.envset.is_empty() {
            Some("no execution environment survived both reference builds")
        } else {
            None
        }
    }
}

/// Loads `entry`'s vulnerable and patched reference builds for `arch`, in
/// that order; the first failure is the one reported.
fn load_references(
    entry: &DbEntry,
    arch: Arch,
) -> impl FnOnce() -> Result<[LoadedBinary; 2], LoadError> + Send + 'static {
    let [vulnerable, patched] = [false, true].map(|p| entry.reference_for(arch, p).clone());
    move || Ok([LoadedBinary::load(vulnerable)?, LoadedBinary::load(patched)?])
}

/// One (target, reference) stage of a dynamic pass: the static scan whose
/// candidates it profiles, and the loaded target and reference run they
/// are profiled with, or why the stage cannot run.
struct Stage<'a> {
    scan: &'a StaticScan,
    inputs: Result<(&'a Arc<LoadedBinary>, &'a ReferenceRun), String>,
}

/// Run `tasks` in one dispatch on the shared pool, outputs in task order.
/// Each task checks `cancel` before it starts and does not run once it
/// has expired; the call then returns [`ScanError::DeadlineExceeded`].
fn run_until<T, F>(cancel: CancelToken, tasks: Vec<F>) -> Result<Vec<T>, ScanError>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let tasks: Vec<_> =
        tasks.into_iter().map(|task| move || cancel.check().map(|()| task())).collect();
    neural::pool::global().run(tasks).into_iter().collect()
}

/// The image-wide best match among per-library analyses: each library's
/// top-ranked candidate, full-confidence before degraded (static
/// pseudo-distances are not comparable with dynamic distances), then by
/// [`similarity::distance_order`], which puts NaN after every number. The
/// earliest library wins ties. Returns (library index, candidate,
/// degraded).
fn best_match(analyses: &[CveAnalysis]) -> Option<(usize, &RankedCandidate, bool)> {
    analyses
        .iter()
        .enumerate()
        .filter_map(|(li, a)| a.dynamic.ranking.first().map(|top| (li, top, a.is_degraded())))
        .min_by(|(_, a, a_degraded), (_, b, b_degraded)| {
            a_degraded.cmp(b_degraded).then(similarity::distance_order(a.distance, b.distance))
        })
}

/// The image-wide best match for a CVE.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImageMatch {
    /// Library name of the match.
    pub library: String,
    /// Index of the library within the image.
    pub library_index: usize,
    /// Function-table index within that library.
    pub function_index: usize,
    /// Averaged dynamic similarity distance of the match.
    pub distance: f64,
    /// Whether this match comes from a degraded (static-only) analysis.
    #[serde(default)]
    pub degraded: bool,
}

/// A whole-image analysis for one CVE.
#[derive(Debug, Clone)]
pub struct ImageAnalysis {
    /// CVE identifier.
    pub cve: String,
    /// Search basis.
    pub basis: Basis,
    /// The image-wide best match, if any candidate survived anywhere.
    pub best: Option<ImageMatch>,
    /// Per-library analyses, in image order.
    pub analyses: Vec<CveAnalysis>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::shared_detector;

    fn quick_detector() -> Detector {
        shared_detector().clone()
    }

    #[test]
    fn end_to_end_finds_embedded_cve_function() {
        let detector = quick_detector();
        let patchecko = Patchecko::new(detector, PipelineConfig::default());
        let db = corpus::build_vulndb(0, 1);
        let entry = db.get("CVE-2018-9412").unwrap();

        // Small device image so the test stays fast.
        let cat = corpus::full_catalog();
        let device = corpus::build_device(&corpus::android_things_spec(), &cat, 0.05);
        let truth = device.truth_for("CVE-2018-9412").unwrap();
        let target_bin = device.image.binary(&truth.library).unwrap();

        let analysis = patchecko
            .analyze_library(target_bin, &[(entry, Basis::Vulnerable)], &RunCtx::default())
            .unwrap()
            .remove(0);
        assert_eq!(analysis.dynamic.confidence, Confidence::Full);
        assert!(analysis.dynamic.degradation.is_none());
        assert!(analysis.scan.total > 10);
        assert!(
            analysis.scan.candidates.contains(&truth.function_index),
            "deep learning stage must keep the true function (prob = {:.3})",
            analysis.scan.probs[truth.function_index]
        );
        assert!(
            analysis.dynamic.validated.contains(&truth.function_index),
            "true function survives execution validation"
        );
        let rank = similarity::rank_of(&analysis.dynamic.ranking, truth.function_index)
            .expect("true function is ranked");
        assert!(rank <= 3, "paper: top-3 100% of the time; got rank {rank}");
        // Dynamic stage prunes at least some static false positives or
        // keeps the set (never grows).
        assert!(analysis.dynamic.validated.len() <= analysis.scan.candidates.len());
        assert!(analysis.scan.seconds >= 0.0 && analysis.dynamic.seconds >= 0.0);
    }

    #[test]
    fn analysis_is_deterministic() {
        // The whole hybrid path (fuzzing included) is seeded: two runs on
        // the same inputs produce identical candidate sets, rankings and
        // distances — the property that makes every table reproducible.
        let detector = quick_detector();
        let patchecko = Patchecko::new(detector, PipelineConfig::default());
        let db = corpus::build_vulndb(0, 1);
        let entry = db.get("CVE-2018-9451").unwrap();
        let cat = corpus::full_catalog();
        let device = corpus::build_device(&corpus::android_things_spec(), &cat, 0.05);
        let truth = device.truth_for("CVE-2018-9451").unwrap();
        let bin = device.image.binary(&truth.library).unwrap();
        let ctx = RunCtx::default();
        let pair = [(entry, Basis::Vulnerable)];
        let a = patchecko.analyze_library(bin, &pair, &ctx).unwrap().remove(0);
        let b = patchecko.analyze_library(bin, &pair, &ctx).unwrap().remove(0);
        assert_eq!(a.scan.probs, b.scan.probs);
        assert_eq!(a.scan.candidates, b.scan.candidates);
        assert_eq!(a.dynamic.validated, b.dynamic.validated);
        assert_eq!(a.dynamic.ranking, b.dynamic.ranking);
    }

    #[test]
    fn degraded_analysis_ranks_by_static_probability() {
        let scan = StaticScan {
            library: "libx".into(),
            total: 6,
            probs: vec![0.1, 0.9, 0.2, 0.95, 0.9, 0.0],
            candidates: vec![1, 3, 4],
            best_ref: vec![0; 6],
            seconds: 0.0,
        };
        let d = Patchecko::degraded_analysis(&scan, "loader failure".into());
        assert!(d.is_degraded());
        assert_eq!(d.confidence, Confidence::Degraded);
        assert_eq!(d.degradation.as_deref(), Some("loader failure"));
        assert!(d.envs.is_empty() && d.validated.is_empty() && d.profiles.is_empty());
        let order: Vec<usize> = d.ranking.iter().map(|r| r.function_index).collect();
        // Descending probability; the 0.9 tie (1 vs 4) breaks by index.
        assert_eq!(order, vec![3, 1, 4]);
        for r in &d.ranking {
            let expect = 1.0 - f64::from(scan.probs[r.function_index]);
            assert!((r.distance - expect).abs() < 1e-12);
        }
    }

    /// Bitwise equality for dynamic-stage results: validated sets, profile
    /// features, ranking order *and* the exact distance bit patterns must
    /// match. `f64` equality would already fail on any drift, but comparing
    /// bit patterns also catches `-0.0` vs `0.0` and keeps NaN comparable.
    fn assert_dynamic_bitwise_eq(a: &DynamicAnalysis, b: &DynamicAnalysis, what: &str) {
        assert_eq!(a.envs, b.envs, "{what}: environments differ");
        assert_eq!(a.validated, b.validated, "{what}: validated sets differ");
        assert_eq!(a.confidence, b.confidence, "{what}: confidence differs");
        assert_eq!(a.degradation, b.degradation, "{what}: degradation differs");
        let bits = |fs: &[DynFeatures]| -> Vec<Vec<u64>> {
            fs.iter().map(|f| f.0.iter().map(|x| x.to_bits()).collect()).collect()
        };
        assert_eq!(bits(&a.reference_profile), bits(&b.reference_profile), "{what}: reference profile differs");
        let prof_bits = |ps: &[(usize, Vec<DynFeatures>)]| -> Vec<(usize, Vec<Vec<u64>>)> {
            ps.iter().map(|(c, fs)| (*c, bits(fs))).collect()
        };
        assert_eq!(prof_bits(&a.profiles), prof_bits(&b.profiles), "{what}: profiles differ");
        let rank_bits = |rs: &[similarity::RankedCandidate]| -> Vec<(usize, u64)> {
            rs.iter().map(|r| (r.function_index, r.distance.to_bits())).collect()
        };
        assert_eq!(rank_bits(&a.ranking), rank_bits(&b.ranking), "{what}: rankings differ");
    }

    /// `dynamic_stage` must be bitwise-identical at every worker count:
    /// candidates profiled across the pool's workers (threads 2 and 8)
    /// give what the same candidates profiled inline give (`threads =
    /// Some(1)`). The candidate set is fabricated to cover every function,
    /// so the candidate dispatch has several tasks to spread.
    #[test]
    fn dynamic_stage_identical_across_thread_counts() {
        let db = corpus::build_vulndb(0, 1);
        let entry = db.get("CVE-2018-9412").unwrap();
        let cat = corpus::full_catalog();
        let device = corpus::build_device(&corpus::android_things_spec(), &cat, 0.05);
        let truth = device.truth_for("CVE-2018-9412").unwrap();
        let bin = device.image.binary(&truth.library).unwrap();
        let target = Arc::new(LoadedBinary::load(bin.clone()).unwrap());
        let n = target.function_count();
        assert!(n > 3, "need > 3 candidates to engage the parallel arm (got {n})");
        let scan = StaticScan {
            library: truth.library.clone(),
            total: n,
            probs: vec![0.5; n],
            candidates: (0..n).collect(),
            best_ref: vec![0; n],
            seconds: 0.0,
        };
        let runs: Vec<(usize, DynamicAnalysis)> = [1usize, 2, 8]
            .into_iter()
            .map(|t| {
                let cfg = PipelineConfig { threads: Some(t), ..PipelineConfig::default() };
                let patchecko = Patchecko::new(quick_detector(), cfg);
                let profiles = RunCtx::default().profiles;
                (t, patchecko.dynamic_stage(&target, &scan, entry, Basis::Vulnerable, &profiles))
            })
            .collect();
        let (_, serial) = &runs[0];
        assert_eq!(serial.confidence, Confidence::Full);
        assert!(!serial.validated.is_empty(), "fixture must validate at least one candidate");
        for (t, run) in &runs[1..] {
            assert_dynamic_bitwise_eq(serial, run, &format!("threads 1 vs {t}"));
        }
    }

    /// The engine knob must be invisible in results: a full `dynamic_stage`
    /// under the fast engine (env generation, survival filtering, candidate
    /// profiling, ranking) is bitwise-identical to the same stage under the
    /// reference interpreter, at the default fuzz budget and at 1500
    /// rounds for 10 environments.
    #[test]
    fn dynamic_stage_identical_across_engines() {
        let db = corpus::build_vulndb(0, 1);
        let entry = db.get("CVE-2018-9412").unwrap();
        let cat = corpus::full_catalog();
        let device = corpus::build_device(&corpus::android_things_spec(), &cat, 0.05);
        let truth = device.truth_for("CVE-2018-9412").unwrap();
        let bin = device.image.binary(&truth.library).unwrap();
        let target = Arc::new(LoadedBinary::load(bin.clone()).unwrap());
        let n = target.function_count();
        let scan = StaticScan {
            library: truth.library.clone(),
            total: n,
            probs: vec![0.5; n],
            candidates: (0..n).collect(),
            best_ref: vec![0; n],
            seconds: 0.0,
        };
        let budgets = [
            vm::FuzzConfig::default(),
            vm::FuzzConfig { rounds: 1500, num_envs: 10, ..vm::FuzzConfig::default() },
        ];
        for fuzz in budgets {
            let [fast, interp] = [vm::Engine::Fast, vm::Engine::Interp].map(|engine| {
                let cfg = PipelineConfig {
                    fuzz: fuzz.clone(),
                    vm: VmConfig { engine, ..VmConfig::default() },
                    ..PipelineConfig::default()
                };
                let patchecko = Patchecko::new(quick_detector(), cfg);
                let profiles = RunCtx::default().profiles;
                patchecko.dynamic_stage(&target, &scan, entry, Basis::Vulnerable, &profiles)
            });
            let what = format!("{} rounds, {} envs", fuzz.rounds, fuzz.num_envs);
            assert_eq!(fast.confidence, Confidence::Full, "{what}");
            assert!(!fast.validated.is_empty(), "{what}: fixture must validate a candidate");
            assert_dynamic_bitwise_eq(&fast, &interp, &format!("engine fast vs interp, {what}"));
        }
    }

    /// Same invariance on the degraded/fallback branch: an out-of-range
    /// candidate makes its profiling task panic, so every thread count must
    /// produce the same fallback set, the same degradation message, and
    /// static pseudo-distances appended after the dynamic ranking.
    #[test]
    fn dynamic_stage_degraded_branch_identical_across_thread_counts() {
        let db = corpus::build_vulndb(0, 1);
        let entry = db.get("CVE-2018-9412").unwrap();
        let cat = corpus::full_catalog();
        let device = corpus::build_device(&corpus::android_things_spec(), &cat, 0.05);
        let truth = device.truth_for("CVE-2018-9412").unwrap();
        let bin = device.image.binary(&truth.library).unwrap();
        let target = Arc::new(LoadedBinary::load(bin.clone()).unwrap());
        let n = target.function_count();
        let rogue = n + 2; // out of range: profiling panics, candidate degrades.
        let scan = StaticScan {
            library: truth.library.clone(),
            total: n,
            probs: vec![0.5; rogue + 1],
            candidates: vec![0, 1, 2, rogue],
            best_ref: vec![0; rogue + 1],
            seconds: 0.0,
        };
        let runs: Vec<(usize, DynamicAnalysis)> = [1usize, 2, 8]
            .into_iter()
            .map(|t| {
                let cfg = PipelineConfig { threads: Some(t), ..PipelineConfig::default() };
                let patchecko = Patchecko::new(quick_detector(), cfg);
                let profiles = RunCtx::default().profiles;
                (t, patchecko.dynamic_stage(&target, &scan, entry, Basis::Vulnerable, &profiles))
            })
            .collect();
        let (_, serial) = &runs[0];
        assert_eq!(serial.confidence, Confidence::Degraded);
        let msg = serial.degradation.as_deref().expect("degradation message recorded");
        assert!(
            msg.starts_with(&format!("candidate {rogue} profiling panicked:")),
            "unexpected degradation message: {msg}"
        );
        // The rogue candidate ranks last, after every dynamic distance.
        assert_eq!(serial.ranking.last().map(|r| r.function_index), Some(rogue));
        for (t, run) in &runs[1..] {
            assert_dynamic_bitwise_eq(serial, run, &format!("degraded threads 1 vs {t}"));
        }
    }

    /// Bitwise equality for static scans: totals, probability bit
    /// patterns, candidate sets and best references.
    fn assert_scan_bitwise_eq(a: &StaticScan, b: &StaticScan, what: &str) {
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(a.library, b.library, "{what}: libraries differ");
        assert_eq!(a.total, b.total, "{what}: totals differ");
        assert_eq!(bits(&a.probs), bits(&b.probs), "{what}: probs differ");
        assert_eq!(a.candidates, b.candidates, "{what}: candidates differ");
        assert_eq!(a.best_ref, b.best_ref, "{what}: best references differ");
    }

    /// Satellite: an empty reference set must produce a well-formed empty
    /// scan through the exact *and* the indexed path — zero probs, no NaNs,
    /// no best references, and no spurious candidates even at threshold 0
    /// (where the old code's `0.0 >= threshold` filter would have selected
    /// every function) — alone, and as the middle set of a batched scan
    /// whose neighbours equal their one-set scans.
    #[test]
    fn empty_reference_set_yields_well_formed_scan_both_paths() {
        let db = corpus::build_vulndb(0, 1);
        let bin = &db.get("CVE-2018-9412").unwrap().vulnerable_bin;
        let none: &[StaticFeatures] = &[];
        let before =
            Patchecko::reference_feature_set(db.get("CVE-2018-9412").unwrap(), Basis::Vulnerable)
                .unwrap();
        let after =
            Patchecko::reference_feature_set(db.get("CVE-2018-9451").unwrap(), Basis::Patched)
                .unwrap();
        for retrieval in [Retrieval::Exact, Retrieval::TopK { k: 4 }] {
            let cfg = PipelineConfig { retrieval, ..PipelineConfig::default() };
            let mut patchecko = Patchecko::new(quick_detector(), cfg);
            patchecko.detector.threshold = 0.0;
            let alone = patchecko.scan_library(bin, &[none], &DirectExtraction).unwrap();
            let batch =
                patchecko.scan_library(bin, &[&before, none, &after], &DirectExtraction).unwrap();
            assert_eq!(batch.len(), 3, "{retrieval}: one scan per set");
            for scan in [&alone[0], &batch[1]] {
                assert_eq!(scan.total, bin.function_count(), "{retrieval}");
                assert_eq!(scan.probs.len(), scan.total, "{retrieval}");
                assert!(scan.probs.iter().all(|p| *p == 0.0), "{retrieval}: probs {:?}", scan.probs);
                assert!(scan.candidates.is_empty(), "{retrieval}: spurious candidates");
                assert!(scan.best_ref.is_empty(), "{retrieval}: best_ref must be empty");
            }
            for (i, references) in [(0, &before), (2, &after)] {
                let one = patchecko.scan_library(bin, &[references], &DirectExtraction).unwrap();
                assert_scan_bitwise_eq(&batch[i], &one[0], &format!("{retrieval}: set {i}"));
            }
        }
    }

    /// Batching is invisible: for every pair, a batched `analyze_image`
    /// returns bit for bit what a one-pair call returns — under exact
    /// retrieval, and under top-K with `k` below a set's four references,
    /// where top-K over the concatenated rows would pick other pairs.
    ///
    /// Both sides see the same image rows in the same order, so a wrong
    /// merge of rows inside `classify_pairs` would happen alike on both.
    /// So every score is also checked against single-pair calls, one
    /// reference row and one target row each, which have nothing to merge:
    /// under exact retrieval each function's probability and best
    /// reference are the strict-`>` maximum over the set's references,
    /// and under top-K its probability is its best reference's score.
    #[test]
    fn batched_image_analysis_equals_one_pair_calls() {
        let db = corpus::build_vulndb(0, 1);
        let cat = corpus::full_catalog();
        let device = corpus::build_device(&corpus::android_things_spec(), &cat, 0.05);
        let pairs: Vec<(&DbEntry, Basis)> =
            ["CVE-2018-9412", "CVE-2018-9451", "CVE-2018-9470", "CVE-2017-13232"]
                .into_iter()
                .flat_map(|cve| {
                    let entry = db.get(cve).unwrap();
                    [(entry, Basis::Vulnerable), (entry, Basis::Patched)]
                })
                .collect();
        let best_bits = |a: &ImageAnalysis| {
            a.best.as_ref().map(|m| {
                (m.library.clone(), m.library_index, m.function_index, m.distance.to_bits(), m.degraded)
            })
        };
        let ctx = RunCtx::default();
        let image_rows: Vec<Vec<StaticFeatures>> =
            device.image.binaries.iter().map(|bin| features::extract_all(bin).unwrap()).collect();
        for retrieval in [Retrieval::Exact, Retrieval::TopK { k: 2 }] {
            let cfg = PipelineConfig { retrieval, ..PipelineConfig::default() };
            let patchecko = Patchecko::new(quick_detector(), cfg);
            let batch = patchecko.analyze_image(&device.image, &pairs, &ctx).unwrap();
            assert_eq!(batch.len(), pairs.len());
            for (pair, batched) in pairs.iter().zip(&batch) {
                let what = format!("{retrieval}, {} {}", pair.0.entry.cve, pair.1);
                let references = Patchecko::reference_feature_set(pair.0, pair.1).unwrap();
                for (a, rows) in batched.analyses.iter().zip(&image_rows) {
                    for (f, row) in rows.iter().enumerate() {
                        let single: Vec<f32> = references
                            .iter()
                            .map(|r| {
                                let (r, t) = (std::slice::from_ref(r), std::slice::from_ref(row));
                                patchecko.detector.classify_pairs(r, t, &[(0, 0)])[0]
                            })
                            .collect();
                        let (mut arg, mut best) = (0usize, 0.0f32);
                        for (r, &score) in single.iter().enumerate() {
                            if score > best {
                                (arg, best) = (r, score);
                            }
                        }
                        let at = format!("{what}: {} function {f}", a.scan.library);
                        let best_ref = a.scan.best_ref[f];
                        match retrieval {
                            Retrieval::Exact => {
                                assert_eq!(a.scan.probs[f].to_bits(), best.to_bits(), "{at}");
                                assert_eq!(best_ref, arg, "{at}: best reference");
                            }
                            Retrieval::TopK { .. } => {
                                let score = single[best_ref].to_bits();
                                assert_eq!(a.scan.probs[f].to_bits(), score, "{at}");
                            }
                        }
                    }
                }
                let one = patchecko
                    .analyze_image(&device.image, std::slice::from_ref(pair), &ctx)
                    .unwrap()
                    .remove(0);
                assert_eq!((&batched.cve, batched.basis), (&one.cve, one.basis), "{what}");
                assert_eq!(best_bits(batched), best_bits(&one), "{what}: best match differs");
                assert_eq!(batched.analyses.len(), one.analyses.len(), "{what}");
                for (a, b) in batched.analyses.iter().zip(&one.analyses) {
                    assert_scan_bitwise_eq(&a.scan, &b.scan, &what);
                    assert_dynamic_bitwise_eq(&a.dynamic, &b.dynamic, &what);
                }
            }
        }
    }

    /// Serializes the tests that read the process-wide trace buffer: a
    /// test that drains it takes every other test's events too.
    fn trace_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// An image gets one static pass: a multi-library `analyze_image`
    /// records exactly one `static_scan` span, whose detail names every
    /// library in image order.
    #[test]
    fn image_analysis_records_one_static_scan_span() {
        let patchecko = Patchecko::new(quick_detector(), PipelineConfig::default());
        let db = corpus::build_vulndb(0, 1);
        let (a, b) = (db.get("CVE-2018-9412").unwrap(), db.get("CVE-2018-9451").unwrap());
        let mut image = fwbin::FirmwareImage::new("one_pass_fixture", "2018-05");
        image.binaries.extend([
            a.vulnerable_bin.clone(),
            b.patched_bin.clone(),
            a.patched_bin.clone(),
        ]);
        let pairs = [(a, Basis::Vulnerable), (b, Basis::Patched)];
        // Spans of tests running alongside land in the same trace buffer,
        // so count only this thread's.
        let _trace = trace_lock();
        scope::trace::enable();
        let analyses = patchecko.analyze_image(&image, &pairs, &RunCtx::default());
        let me = scope::trace::thread_id();
        let scans: Vec<_> = scope::trace::take_events()
            .into_iter()
            .filter(|e| e.tid == me && e.name == "static_scan")
            .collect();
        scope::trace::disable();
        let analyses = analyses.unwrap();
        assert_eq!(analyses.len(), pairs.len());
        assert!(analyses.iter().all(|a| a.analyses.len() == image.binaries.len()));
        assert_eq!(scans.len(), 1, "static_scan spans of a 3-library image");
        let names: Vec<&str> = image.binaries.iter().map(|b| b.lib_name.as_str()).collect();
        assert_eq!(scans[0].detail.as_deref(), Some(names.join(",").as_str()));
    }

    /// Records the dynamic stage's questions: the architecture and
    /// function-0 code of every reference build `environments` is asked
    /// about, and the number of `profile` calls.
    #[derive(Default)]
    struct CountingDyn {
        environments: Mutex<Vec<(Arch, Vec<u8>)>>,
        profiles: std::sync::atomic::AtomicUsize,
    }

    impl DynProfileSource for CountingDyn {
        fn environments(
            &self,
            reference: &LoadedBinary,
            fuzz_cfg: &FuzzConfig,
            vm: &VmConfig,
        ) -> Result<EnvSet, ScanError> {
            let bin = reference.binary();
            self.environments.lock().unwrap().push((bin.arch, bin.functions[0].code.clone()));
            LiveProfiling.environments(reference, fuzz_cfg, vm)
        }

        fn profile(
            &self,
            target: &LoadedBinary,
            func: usize,
            envs: &EnvSet,
            vm: &VmConfig,
        ) -> Result<DynProfile, ScanError> {
            self.profiles.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            LiveProfiling.profile(target, func, envs, vm)
        }
    }

    /// Serves the features of the library named like the intact build it
    /// holds from that build, as a cache filled before the library's code
    /// was damaged would: the damaged library still scans, and fails only
    /// to load. Every other binary's features are extracted directly.
    struct IntactFeatures(Binary);

    impl FeatureSource for IntactFeatures {
        fn features_one(&self, bin: &Binary, idx: usize) -> Result<StaticFeatures, ScanError> {
            let intact = if bin.lib_name == self.0.lib_name { &self.0 } else { bin };
            DirectExtraction.features_one(intact, idx)
        }
    }

    /// An image's dynamic pass asks each question once: `environments`
    /// once per distinct (pair, architecture) that a library which loads
    /// needs, for the basis build; `profile` twice per such pair and
    /// architecture, once for each reference build over the basis build's
    /// set (the other build's survival is what the set is kept by), plus
    /// once per candidate, all in one `dynamic_stage` span on the calling
    /// thread.
    /// A library that fails to load asks nothing for its architecture,
    /// which no other library has, and its stages degrade with its own
    /// load error.
    #[test]
    fn image_dynamic_pass_asks_each_question_once() {
        let db = corpus::build_vulndb(0, 1);
        let (a, b) = (db.get("CVE-2018-9412").unwrap(), db.get("CVE-2018-9451").unwrap());
        let pairs = [(a, Basis::Vulnerable), (b, Basis::Patched)];
        let cat = corpus::full_catalog();
        let device = corpus::build_device(&corpus::android_things_spec(), &cat, 0.05);
        // Two Arm32 device libraries, then two one-function libraries of
        // two other architectures (Amd64 and X86).
        let mut intact: Vec<Binary> = device.image.binaries[..2].to_vec();
        for (variant, name) in a.reference_variants(false).skip(2).zip(["libamd64", "libx86"]) {
            intact.push(Binary { lib_name: name.to_string(), ..variant.clone() });
        }
        let mut patchecko = Patchecko::new(quick_detector(), PipelineConfig::default());
        patchecko.detector.threshold = 0.0; // every function is a candidate
        let features = IntactFeatures(intact[3].clone());
        for broken in [None, Some(3)] {
            let mut image = fwbin::FirmwareImage::new("dynamic_pass_fixture", "2018-05");
            image.binaries = intact.clone();
            if let Some(l) = broken {
                image.binaries[l].functions[0].code = vec![0xEE, 0xEE, 0xEE];
            }
            let counting = Arc::new(CountingDyn::default());
            let profiles: Arc<dyn DynProfileSource> = counting.clone();
            let ctx = RunCtx { features: &features, profiles, ..RunCtx::default() };
            let _trace = trace_lock();
            scope::trace::enable();
            let analyses = patchecko.analyze_image(&image, &pairs, &ctx);
            let me = scope::trace::thread_id();
            let spans = scope::trace::take_events()
                .into_iter()
                .filter(|e| e.tid == me && e.name == "dynamic_stage")
                .count();
            scope::trace::disable();
            let analyses = analyses.unwrap();
            let what = format!("library {broken:?} broken");
            assert_eq!(spans, 1, "{what}: dynamic_stage spans");

            let loads = |l: usize| Some(l) != broken;
            let mut archs: Vec<Arch> = Vec::new();
            for (l, bin) in image.binaries.iter().enumerate() {
                if loads(l) && !archs.contains(&bin.arch) {
                    archs.push(bin.arch);
                }
            }
            assert_eq!(archs.len(), 4 - broken.map_or(1, |_| 2), "{what}: fixture architectures");
            let asked = counting.environments.lock().unwrap().clone();
            assert_eq!(asked.len(), pairs.len() * archs.len(), "{what}: environment sets asked");
            for (i, question) in asked.iter().enumerate() {
                assert!(archs.contains(&question.0), "{what}: asked for {:?}", question.0);
                assert!(!asked[..i].contains(question), "{what}: one set asked twice");
            }
            let candidates: usize = analyses
                .iter()
                .flat_map(|analysis| analysis.analyses.iter().enumerate())
                .filter(|&(l, _)| loads(l))
                .map(|(_, a)| a.scan.candidates.len())
                .sum();
            assert!(candidates > 0, "{what}: fixture has candidates");
            let profiled = counting.profiles.load(std::sync::atomic::Ordering::SeqCst);
            assert_eq!(profiled, 2 * asked.len() + candidates, "{what}: profiles asked");

            for analysis in &analyses {
                for (l, a) in analysis.analyses.iter().enumerate() {
                    let bin = &image.binaries[l];
                    if loads(l) {
                        assert_eq!(a.dynamic.degradation, None, "{what}: {}", bin.lib_name);
                        continue;
                    }
                    let e = LoadedBinary::load(bin.clone()).err().expect("damaged code");
                    let why = ScanError::load(&bin.lib_name, &e);
                    let why = format!("target failed to load: {why}");
                    assert_eq!(a.dynamic.degradation.as_deref(), Some(why.as_str()), "{what}");
                    assert!(a.is_degraded() && a.dynamic.envs.is_empty(), "{what}");
                    let order: Vec<usize> =
                        a.dynamic.ranking.iter().map(|r| r.function_index).collect();
                    assert_eq!(order, a.scan.candidates, "{what}: static fallback ranking");
                }
            }
        }
    }

    /// The image-wide pick sorts a NaN distance after every number, so
    /// library order cannot change the best match; otherwise full
    /// confidence beats degraded, then the lowest distance, then the
    /// earliest library.
    #[test]
    fn best_match_sinks_nan_whatever_the_library_order() {
        let analysis = |distance: f64, confidence: Confidence| CveAnalysis {
            cve: "CVE-TEST".into(),
            basis: Basis::Vulnerable,
            scan: StaticScan {
                library: "lib".into(),
                total: 0,
                probs: vec![],
                candidates: vec![],
                best_ref: vec![],
                seconds: 0.0,
            },
            dynamic: DynamicAnalysis {
                envs: vec![],
                reference_profile: vec![],
                validated: vec![],
                profiles: vec![],
                ranking: vec![RankedCandidate { function_index: 7, distance }],
                confidence,
                degradation: None,
                seconds: 0.0,
            },
        };
        let pick = |libraries: &[(f64, Confidence)]| {
            let analyses: Vec<CveAnalysis> =
                libraries.iter().map(|&(d, c)| analysis(d, c)).collect();
            best_match(&analyses).map(|(li, _, _)| li)
        };
        let (full, degraded) = (Confidence::Full, Confidence::Degraded);
        assert_eq!(pick(&[(f64::NAN, full), (5.0, full)]), Some(1));
        assert_eq!(pick(&[(5.0, full), (f64::NAN, full)]), Some(0));
        assert_eq!(pick(&[(4.0, full), (f64::INFINITY, full), (2.0, full)]), Some(2));
        assert_eq!(pick(&[(3.0, full), (3.0, full)]), Some(0));
        assert_eq!(pick(&[(1.0, degraded), (9.0, full)]), Some(1));
        assert_eq!(pick(&[]), None);
    }

    /// Satellite: a binary with no functions must scan to a well-formed
    /// empty result through both paths (the old reference-major reduction
    /// would divide by a zero `feats.len()`).
    #[test]
    fn empty_binary_yields_well_formed_scan_both_paths() {
        let db = corpus::build_vulndb(0, 1);
        let entry = db.get("CVE-2018-9412").unwrap();
        let references = Patchecko::reference_feature_set(entry, Basis::Vulnerable).unwrap();
        let empty = Binary {
            lib_name: "libempty".to_string(),
            arch: fwbin::isa::Arch::Amd64,
            opt: fwbin::isa::OptLevel::O2,
            functions: Vec::new(),
            strings: Vec::new(),
            globals: Vec::new(),
            imports: Vec::new(),
        };
        for retrieval in [Retrieval::Exact, Retrieval::TopK { k: 4 }] {
            let cfg = PipelineConfig { retrieval, ..PipelineConfig::default() };
            let patchecko = Patchecko::new(quick_detector(), cfg);
            let scan =
                patchecko.scan_library(&empty, &[&references], &DirectExtraction).unwrap().remove(0);
            assert_eq!(scan.total, 0, "{retrieval}");
            assert!(scan.probs.is_empty(), "{retrieval}");
            assert!(scan.candidates.is_empty(), "{retrieval}");
            assert!(scan.best_ref.is_empty(), "{retrieval}");
        }
    }

    /// Indexed retrieval at `k = |references|` selects every pair, so the
    /// scan must be bitwise-identical to the exact all-pairs path; and
    /// `best_ref` must be the first-strict argmax of the full
    /// reference × function score matrix.
    #[test]
    fn topk_at_full_k_is_bitwise_identical_to_exact() {
        let db = corpus::build_vulndb(0, 1);
        let entry = db.get("CVE-2018-9412").unwrap();
        let references = Patchecko::reference_feature_set(entry, Basis::Vulnerable).unwrap();
        let cat = corpus::full_catalog();
        let device = corpus::build_device(&corpus::android_things_spec(), &cat, 0.05);
        let truth = device.truth_for("CVE-2018-9412").unwrap();
        let bin = device.image.binary(&truth.library).unwrap();

        let exact_p = Patchecko::new(quick_detector(), PipelineConfig::default());
        let exact = exact_p.scan_library(bin, &[&references], &DirectExtraction).unwrap().remove(0);
        let topk_p = Patchecko::new(
            quick_detector(),
            PipelineConfig {
                retrieval: Retrieval::TopK { k: references.len() },
                ..PipelineConfig::default()
            },
        );
        let indexed = topk_p.scan_library(bin, &[&references], &DirectExtraction).unwrap().remove(0);

        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(exact.total, indexed.total);
        assert_eq!(bits(&exact.probs), bits(&indexed.probs), "probs must be bitwise identical");
        assert_eq!(exact.candidates, indexed.candidates);
        assert_eq!(exact.best_ref, indexed.best_ref);

        // best_ref = first-strict argmax over the reference-major scores.
        let feats = features::extract_all(bin).unwrap();
        let all: Vec<(u32, u32)> = (0..references.len() as u32)
            .flat_map(|r| (0..feats.len() as u32).map(move |f| (r, f)))
            .collect();
        let scores = exact_p.detector.classify_pairs(&references, &feats, &all);
        assert_eq!(exact.best_ref.len(), exact.total);
        for f in 0..feats.len() {
            let (mut arg, mut best) = (0usize, 0.0f32);
            for r in 0..references.len() {
                let s = scores[r * feats.len() + f];
                if s > best {
                    best = s;
                    arg = r;
                }
            }
            assert_eq!(exact.best_ref[f], arg, "function {f}");
            assert_eq!(exact.probs[f].to_bits(), best.to_bits(), "function {f}");
        }
    }

    /// Counts every call into the static stage's source.
    #[derive(Default)]
    struct CountingSource(std::sync::atomic::AtomicUsize);

    impl CountingSource {
        fn bump(&self) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }

        fn calls(&self) -> usize {
            self.0.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    impl FeatureSource for CountingSource {
        fn features_all(&self, bin: &Binary) -> Result<Vec<StaticFeatures>, ScanError> {
            self.bump();
            DirectExtraction.features_all(bin)
        }

        fn features_one(&self, bin: &Binary, idx: usize) -> Result<StaticFeatures, ScanError> {
            self.bump();
            DirectExtraction.features_one(bin, idx)
        }

        fn signatures_all(&self, bin: &Binary, feats: &[StaticFeatures]) -> Vec<FunctionSignature> {
            self.bump();
            DirectExtraction.signatures_all(bin, feats)
        }
    }

    /// Fails the binary named `error` with an extraction error and panics
    /// on the one named `panic`; extracts every other binary.
    struct FailingSource {
        error: &'static str,
        panic: &'static str,
    }

    impl FeatureSource for FailingSource {
        fn features_one(&self, bin: &Binary, idx: usize) -> Result<StaticFeatures, ScanError> {
            if bin.lib_name == self.panic {
                panic!("{} panics", self.panic);
            }
            if bin.lib_name == self.error {
                return Err(ScanError::Extraction {
                    library: bin.lib_name.clone(),
                    function: idx,
                    detail: "injected".to_string(),
                });
            }
            DirectExtraction.features_one(bin, idx)
        }
    }

    /// A static pass fetches every binary at the pool's width but fails
    /// as a serial loop over the binaries would: with the first failing
    /// binary in binary order, whether that one errs or panics.
    #[test]
    fn static_pass_fails_with_the_first_failing_binary_at_any_width() {
        let db = corpus::build_vulndb(0, 1);
        let entry = db.get("CVE-2018-9412").unwrap();
        let references = Patchecko::reference_feature_set(entry, Basis::Vulnerable).unwrap();
        let bins: Vec<Binary> = ["liba", "libb", "libc", "libd"]
            .iter()
            .map(|name| Binary { lib_name: name.to_string(), ..entry.vulnerable_bin.clone() })
            .collect();
        for threads in [1, 2] {
            for retrieval in [Retrieval::Exact, Retrieval::TopK { k: 2 }] {
                let cfg = PipelineConfig {
                    retrieval,
                    threads: Some(threads),
                    ..PipelineConfig::default()
                };
                let patchecko = Patchecko::new(quick_detector(), cfg);
                let ctx = format!("width {threads}, {retrieval}");
                let error_first = FailingSource { error: "libb", panic: "libd" };
                match patchecko.static_pass(&bins, &[&references], &error_first) {
                    Err(ScanError::Extraction { library, .. }) if library == "libb" => {}
                    other => panic!("{ctx}: expected libb's error, got {other:?}"),
                }
                let panic_first = FailingSource { error: "libd", panic: "libb" };
                let payload = catch_unwind(AssertUnwindSafe(|| {
                    patchecko.static_pass(&bins, &[&references], &panic_first)
                }))
                .expect_err("libb's panic is re-raised");
                let message = payload.downcast_ref::<String>().map(String::as_str);
                assert_eq!(message, Some("libb panics"), "{ctx}");
            }
        }
    }

    /// Every entry point that takes a context honours `ctx.cancel`: an
    /// already-expired token returns the typed deadline error before a
    /// single feature is extracted.
    #[test]
    fn expired_token_stops_every_context_entry_point_before_extraction() {
        use crate::differential::{detect_patch, detect_patch_best, DifferentialConfig};
        use crate::eval::audit_image;
        let patchecko = Patchecko::new(quick_detector(), PipelineConfig::default());
        let db = corpus::build_vulndb(0, 1);
        let entry = db.get("CVE-2018-9412").unwrap();
        let mut image = fwbin::FirmwareImage::new("cancel_fixture", "2018-05");
        image.binaries.push(entry.vulnerable_bin.clone());
        let bin = &image.binaries[0];
        let diff = DifferentialConfig::default();
        let counting = CountingSource::default();
        let ctx = RunCtx {
            features: &counting,
            cancel: CancelToken::with_budget(std::time::Duration::ZERO),
            ..RunCtx::default()
        };
        type Case<'a> = (&'static str, Box<dyn Fn() -> Result<(), ScanError> + 'a>);
        let (p, vuln) = (&patchecko, Basis::Vulnerable);
        let cases: Vec<Case> = vec![
            ("analyze_library", Box::new(|| p.analyze_library(bin, &[(entry, vuln)], &ctx).map(drop))),
            ("analyze_image", Box::new(|| p.analyze_image(&image, &[(entry, vuln)], &ctx).map(drop))),
            ("detect_patch", Box::new(|| detect_patch(p, entry, bin, 0, &diff, &ctx).map(drop))),
            (
                "detect_patch_best",
                Box::new(|| detect_patch_best(p, entry, bin, &[0, 1], &diff, &ctx).map(drop)),
            ),
            ("audit_image", Box::new(|| audit_image(p, &db, &image, &diff, &ctx).map(drop))),
        ];
        for (name, run) in &cases {
            let result = run();
            assert!(
                matches!(result, Err(ScanError::DeadlineExceeded { budget_ms: 0 })),
                "{name}: expected DeadlineExceeded, got {result:?}"
            );
            assert_eq!(counting.calls(), 0, "{name} called into the feature source");
        }
    }
}
