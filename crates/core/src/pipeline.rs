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
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use vm::env::ExecEnv;
use vm::exec::VmConfig;
use vm::fuzz::FuzzConfig;
use vm::loader::LoadedBinary;
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
    /// Worker-thread count for parallel stages (candidate profiling — the
    /// paper parallelizes execution-environment testing — GEMM kernels,
    /// feature extraction, and the scanhub job scheduler). `None` derives
    /// the count from the `PATCHECKO_THREADS` environment variable or the
    /// machine's available parallelism; `Some(1)` forces serial execution
    /// end to end.
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
    ///
    /// # Errors
    /// [`ScanError::Extraction`] (with function context) when any
    /// function's code bytes fail to decode; implementations may also
    /// surface transient cache/injection failures.
    fn features_all(&self, bin: &Binary) -> Result<Vec<StaticFeatures>, ScanError>;

    /// Static features of one function of `bin`.
    ///
    /// # Errors
    /// As for [`FeatureSource::features_all`].
    fn features_one(&self, bin: &Binary, idx: usize) -> Result<StaticFeatures, ScanError>;

    /// Retrieval signatures for every function of `bin`, in function-table
    /// order. `feats` is the output of [`FeatureSource::features_all`] for
    /// the same binary, so the default computes signatures directly (the
    /// signature is a pure function of the features); scanhub's artifact
    /// store overrides this to serve and incrementally populate its
    /// persistent signature lane instead. Infallible: a cache problem at
    /// worst degrades to recomputation.
    fn signatures_all(&self, bin: &Binary, feats: &[StaticFeatures]) -> Vec<FunctionSignature> {
        let _ = bin;
        feats.iter().map(FunctionSignature::of).collect()
    }
}

/// The uncached [`FeatureSource`]: disassemble + extract on every request.
pub struct DirectExtraction;

/// Locate which function a whole-binary extraction failure came from: the
/// parallel extractor reports only the first [`DecodeError`]
/// (fwbin::encode::DecodeError); re-probe serially to pin the index for
/// the error context. Only runs on the (rare) failure path.
fn locate_extraction_failure(bin: &Binary, e: &fwbin::encode::DecodeError) -> ScanError {
    for idx in 0..bin.function_count() {
        if let Err(probe) = disasm::disassemble(bin, idx) {
            return ScanError::extraction(&bin.lib_name, idx, &probe);
        }
    }
    ScanError::extraction(&bin.lib_name, 0, e)
}

impl FeatureSource for DirectExtraction {
    fn features_all(&self, bin: &Binary) -> Result<Vec<StaticFeatures>, ScanError> {
        features::extract_all_parallel(bin).map_err(|e| locate_extraction_failure(bin, &e))
    }

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
/// (`patchecko_scanhub::TenantView::ctx`).
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
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    /// Wall-clock seconds (the "DP" column).
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
    /// Wall-clock seconds (the "DA" column).
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

    /// Stage 1: scan every function of `bin` against the reference feature
    /// vectors with the deep-learning classifier, features served by
    /// `features`. A function's score is its best match across the
    /// reference variants.
    ///
    /// Retrieval only chooses which (reference, function) pairs to score;
    /// the scoring is one [`crate::detector::Detector::classify_pairs`]
    /// call over that list, so the whole library scan is a single
    /// forward pass per layer. Under [`Retrieval::Exact`] (the default)
    /// the list holds every pair. Under [`Retrieval::TopK`] the
    /// signature/LSH index retrieves each target's `k` nearest references
    /// and only those pairs reach the classifier, which keeps scan cost
    /// near-flat as the reference database grows. Either list is grouped
    /// by function with references ascending, and one strict-`>` fold
    /// keeps the lowest reference on ties; at `k >= references.len()` the
    /// index returns exactly the exact list, so the two modes are
    /// bitwise-identical there.
    ///
    /// # Errors
    /// Propagates extraction failures from the source.
    pub fn scan_library(
        &self,
        bin: &Binary,
        references: &[StaticFeatures],
        features: &dyn FeatureSource,
    ) -> Result<StaticScan, ScanError> {
        let _span = scope::SpanGuard::enter("static_scan").with_detail(bin.lib_name.clone());
        let started = Instant::now();
        let feats = features.features_all(bin)?;
        // Degenerate scans (nothing to compare) return a well-formed empty
        // result: zero probabilities, no candidates, no best references —
        // never NaNs or spurious threshold hits.
        let (probs, best_ref, candidates) = if references.is_empty() || feats.is_empty() {
            (vec![0.0f32; feats.len()], Vec::new(), Vec::new())
        } else {
            let pairs: Vec<(u32, u32)> = match self.config.retrieval {
                Retrieval::Exact => (0..feats.len() as u32)
                    .flat_map(|j| (0..references.len() as u32).map(move |r| (r, j)))
                    .collect(),
                Retrieval::TopK { k } => self.indexed_pairs(bin, references, &feats, k, features),
            };
            let scores = self.detector.classify_pairs(references, &feats, &pairs);
            let mut probs = vec![0.0f32; feats.len()];
            let mut best_ref = vec![0usize; feats.len()];
            for (&(r, j), &s) in pairs.iter().zip(&scores) {
                let j = j as usize;
                if s > probs[j] {
                    probs[j] = s;
                    best_ref[j] = r as usize;
                }
            }
            let candidates = probs
                .iter()
                .enumerate()
                .filter(|(_, p)| **p >= self.detector.threshold)
                .map(|(i, _)| i)
                .collect();
            (probs, best_ref, candidates)
        };
        Ok(StaticScan {
            library: bin.lib_name.clone(),
            total: feats.len(),
            probs,
            candidates,
            best_ref,
            seconds: started.elapsed().as_secs_f64(),
        })
    }

    /// The indexed pair list: each target's `k` nearest references by
    /// quantized signature, grouped by target with references ascending.
    /// Target signatures come from the source (scanhub serves its
    /// persistent lane); reference signatures are computed directly — the
    /// signature is a pure function of the features, so both routes
    /// agree.
    fn indexed_pairs(
        &self,
        bin: &Binary,
        references: &[StaticFeatures],
        feats: &[StaticFeatures],
        k: usize,
        source: &dyn FeatureSource,
    ) -> Vec<(u32, u32)> {
        let index = self.reference_index(references);
        let target_sigs = source.signatures_all(bin, feats);
        let pairs: Vec<(u32, u32)> = target_sigs
            .iter()
            .enumerate()
            .flat_map(|(j, sig)| index.candidates(sig, k).into_iter().map(move |r| (r, j as u32)))
            .collect();
        scope::add("index.candidates", pairs.len() as u64);
        scope::add(
            "index.pairs_pruned",
            (references.len() * feats.len()).saturating_sub(pairs.len()) as u64,
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

    /// Generate execution environments by fuzzing the reference function,
    /// keeping only environments the reference itself survives ("We tested
    /// that these inputs worked with both the vulnerable and patched
    /// functions").
    pub fn make_environments(&self, reference: &LoadedBinary) -> Vec<ExecEnv> {
        dynsource::live_environments(reference, &self.config.fuzz, &self.config.vm).envs
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
    /// instead of sinking the job.
    pub(crate) fn degraded_analysis(scan: &StaticScan, why: String, seconds: f64) -> DynamicAnalysis {
        scope::inc("pipeline.degraded");
        DynamicAnalysis {
            envs: Vec::new(),
            reference_profile: Vec::new(),
            validated: Vec::new(),
            profiles: Vec::new(),
            ranking: Self::static_fallback_ranking(scan, &scan.candidates),
            confidence: Confidence::Degraded,
            degradation: Some(why),
            seconds,
        }
    }

    /// Stage 2+3: execution-validate the candidates, profile the survivors,
    /// and rank them against the reference profile.
    ///
    /// Environments and profiles come from `dynsrc` — [`LiveProfiling`]
    /// executes everything, scanhub's dynamic lane serves cached profiles
    /// so a warm re-audit performs zero VM executions. Cache-miss
    /// profiling is dispatched onto the shared [`neural::pool`] (one
    /// order-preserving task per candidate), replacing the old per-call
    /// `crossbeam::thread::scope`.
    ///
    /// Infallible by design: every failure inside the stage degrades
    /// instead of propagating. A candidate whose profiling *panics* (as
    /// opposed to the paper's execution-validation failures — fault,
    /// timeout — which still prune the candidate) falls back to its
    /// static score and is appended after the dynamically ranked set; if
    /// the whole stage cannot run (no surviving environment, reference
    /// profile dies), the ranking is static-only and the result is marked
    /// [`Confidence::Degraded`].
    pub fn dynamic_stage(
        &self,
        target: &Arc<LoadedBinary>,
        scan: &StaticScan,
        reference: &Arc<LoadedBinary>,
        dynsrc: &Arc<dyn DynProfileSource>,
    ) -> DynamicAnalysis {
        let _span = scope::SpanGuard::enter("dynamic_stage").with_detail(scan.library.clone());
        let started = Instant::now();
        let candidates: &[usize] = &scan.candidates;
        let envset = match catch_unwind(AssertUnwindSafe(|| {
            dynsrc.environments(reference, &self.config.fuzz, &self.config.vm)
        })) {
            Ok(Ok(set)) => Arc::new(set),
            Ok(Err(_)) | Err(_) => Arc::new(EnvSet::new(Vec::new(), &self.config.vm)),
        };
        if envset.is_empty() && !candidates.is_empty() {
            return Self::degraded_analysis(
                scan,
                "no execution environment survived the reference".to_string(),
                started.elapsed().as_secs_f64(),
            );
        }
        let reference_profile = match catch_unwind(AssertUnwindSafe(|| {
            dynsrc.profile(reference, 0, &envset, &self.config.vm)
        })) {
            Ok(Ok(p)) if p.validated() => p.features,
            _ if candidates.is_empty() => Vec::new(),
            _ => {
                return Self::degraded_analysis(
                    scan,
                    "reference dynamic profile unavailable".to_string(),
                    started.elapsed().as_secs_f64(),
                );
            }
        };

        // Validate + profile candidates. Each candidate is one task on the
        // shared worker pool (results come back in submission order); the
        // serial path is kept for narrow configs so `--threads 1` never
        // touches the pool. `Ok(validated)` = profiled, `Ok(!validated)` =
        // execution-validation failure (pruned, as the paper prescribes),
        // `Err` = the profiler itself panicked or the source failed (the
        // candidate degrades to static evidence).
        type ProfileResult = Result<DynProfile, ScanError>;
        let fan_out = candidates.len() > 3 && self.config.effective_threads() > 1;
        let results: Vec<ProfileResult> = if fan_out {
            let tasks: Vec<_> = candidates
                .iter()
                .map(|&c| {
                    let target = Arc::clone(target);
                    let envset = Arc::clone(&envset);
                    let dynsrc = Arc::clone(dynsrc);
                    let vm_cfg = self.config.vm.clone();
                    move || -> ProfileResult {
                        catch_unwind(AssertUnwindSafe(|| {
                            dynsrc.profile(&target, c, &envset, &vm_cfg)
                        }))
                        .unwrap_or_else(|p| Err(ScanError::from_panic(p.as_ref())))
                    }
                })
                .collect();
            neural::pool::global().run(tasks)
        } else {
            candidates
                .iter()
                .map(|&c| {
                    catch_unwind(AssertUnwindSafe(|| {
                        dynsrc.profile(target, c, &envset, &self.config.vm)
                    }))
                    .unwrap_or_else(|p| Err(ScanError::from_panic(p.as_ref())))
                })
                .collect()
        };

        let mut validated = Vec::new();
        let mut profiles = Vec::new();
        let mut fallback = Vec::new();
        let mut degradation: Option<String> = None;
        for (&c, r) in candidates.iter().zip(results) {
            match r {
                Ok(p) if p.validated() => {
                    validated.push(c);
                    profiles.push((c, p.features));
                }
                Ok(_) => {} // execution-validation failure: pruned.
                Err(e) => {
                    fallback.push(c);
                    degradation
                        .get_or_insert_with(|| format!("candidate {c} profiling panicked: {e}"));
                }
            }
        }
        let mut ranking = similarity::rank(&reference_profile, &profiles, self.config.minkowski_p);
        let confidence = if fallback.is_empty() { Confidence::Full } else { Confidence::Degraded };
        // Degraded candidates rank after every dynamically ranked one:
        // static evidence never outranks dynamic evidence.
        ranking.extend(Self::static_fallback_ranking(scan, &fallback));
        DynamicAnalysis {
            envs: envset.envs.clone(),
            reference_profile,
            validated,
            profiles,
            ranking,
            confidence,
            degradation,
            seconds: started.elapsed().as_secs_f64(),
        }
    }

    /// Run the full hybrid analysis of one CVE against one target library
    /// binary, artifacts served by `ctx`.
    ///
    /// `ctx.cancel` is checked between stages — before static extraction
    /// and again before the (much more expensive) dynamic stage — so a
    /// request whose end-to-end deadline has passed stops within one
    /// stage boundary instead of running the library to completion.
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
        entry: &DbEntry,
        basis: Basis,
        ctx: &RunCtx,
    ) -> Result<CveAnalysis, ScanError> {
        ctx.cancel.check()?;
        let references = Self::reference_feature_set_with(entry, basis, ctx.features)?;
        let scan = self.scan_library(target_bin, &references, ctx.features)?;
        ctx.cancel.check()?;
        // Dynamic stage: reference compiled for the *target's* platform —
        // the paper executes both functions on the device itself. A binary
        // that scanned statically but fails to *load* degrades the dynamic
        // stage rather than sinking the job.
        let ref_bin = entry.reference_for(target_bin.arch, basis == Basis::Patched).clone();
        let dynamic = match (LoadedBinary::load(ref_bin), LoadedBinary::load(target_bin.clone())) {
            (Ok(reference), Ok(target)) => {
                self.dynamic_stage(&Arc::new(target), &scan, &Arc::new(reference), &ctx.profiles)
            }
            (Err(e), _) => Self::degraded_analysis(
                &scan,
                format!("reference failed to load: {}", ScanError::load(&entry.entry.library, &e)),
                0.0,
            ),
            (_, Err(e)) => Self::degraded_analysis(
                &scan,
                format!("target failed to load: {}", ScanError::load(&target_bin.lib_name, &e)),
                0.0,
            ),
        };
        Ok(CveAnalysis { cve: entry.entry.cve.clone(), basis, scan, dynamic })
    }

    /// Scan a whole firmware image for one CVE: every library is analyzed
    /// and the per-library results are returned alongside the image-wide
    /// best match. This is PATCHECKO's deployment interface — "PATCHECKO
    /// outputs the vulnerable points (functions) within the target firmware
    /// image and the corresponding CVE numbers".
    ///
    /// Every library goes through [`Patchecko::analyze_library`] with the
    /// same `ctx`, so an expired request stops at the next library
    /// boundary.
    ///
    /// # Errors
    /// [`ScanError::DeadlineExceeded`] when `ctx.cancel` expires; otherwise
    /// the first per-library [`ScanError`] encountered.
    pub fn analyze_image(
        &self,
        image: &fwbin::FirmwareImage,
        entry: &DbEntry,
        basis: Basis,
        ctx: &RunCtx,
    ) -> Result<ImageAnalysis, ScanError> {
        ctx.cancel.check()?;
        let analyses: Vec<CveAnalysis> = image
            .binaries
            .iter()
            .map(|bin| self.analyze_library(bin, entry, basis, ctx))
            .collect::<Result<_, _>>()?;
        // Best match: the lowest-distance top candidate across libraries.
        // Full-confidence matches always beat degraded (static-only) ones,
        // whose pseudo-distances are not comparable with dynamic distances.
        let mut best: Option<(usize, usize, f64, bool)> = None;
        for (li, a) in analyses.iter().enumerate() {
            if let Some(r) = a.dynamic.ranking.first() {
                let cand = (a.is_degraded(), r.distance);
                let replace = match best {
                    Some((_, _, d, deg)) => cand < (deg, d),
                    None => true,
                };
                if replace {
                    best = Some((li, r.function_index, r.distance, a.is_degraded()));
                }
            }
        }
        Ok(ImageAnalysis {
            cve: entry.entry.cve.clone(),
            basis,
            best: best.map(|(li, fi, distance, degraded)| ImageMatch {
                library: image.binaries[li].lib_name.clone(),
                library_index: li,
                function_index: fi,
                distance,
                degraded,
            }),
            analyses,
        })
    }
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
            .analyze_library(target_bin, entry, Basis::Vulnerable, &RunCtx::default())
            .unwrap();
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
        let a = patchecko.analyze_library(bin, entry, Basis::Vulnerable, &ctx).unwrap();
        let b = patchecko.analyze_library(bin, entry, Basis::Vulnerable, &ctx).unwrap();
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
        let d = Patchecko::degraded_analysis(&scan, "loader failure".into(), 0.0);
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

    /// Satellite: the pool-dispatched parallel arm of `dynamic_stage` must
    /// be bitwise-identical to the serial arm at every worker count. The
    /// candidate set is fabricated to cover every function so the parallel
    /// gate (`candidates.len() > 3`) engages at threads 2 and 8, while
    /// `threads = Some(1)` pins the serial path.
    #[test]
    fn dynamic_stage_identical_across_thread_counts() {
        let db = corpus::build_vulndb(0, 1);
        let entry = db.get("CVE-2018-9412").unwrap();
        let cat = corpus::full_catalog();
        let device = corpus::build_device(&corpus::android_things_spec(), &cat, 0.05);
        let truth = device.truth_for("CVE-2018-9412").unwrap();
        let bin = device.image.binary(&truth.library).unwrap();
        let target = Arc::new(LoadedBinary::load(bin.clone()).unwrap());
        let reference = Arc::new(LoadedBinary::load(entry.vulnerable_bin.clone()).unwrap());
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
                (t, patchecko.dynamic_stage(&target, &scan, &reference, &profiles))
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
    /// reference interpreter.
    #[test]
    fn dynamic_stage_identical_across_engines() {
        let db = corpus::build_vulndb(0, 1);
        let entry = db.get("CVE-2018-9412").unwrap();
        let cat = corpus::full_catalog();
        let device = corpus::build_device(&corpus::android_things_spec(), &cat, 0.05);
        let truth = device.truth_for("CVE-2018-9412").unwrap();
        let bin = device.image.binary(&truth.library).unwrap();
        let target = Arc::new(LoadedBinary::load(bin.clone()).unwrap());
        let reference = Arc::new(LoadedBinary::load(entry.vulnerable_bin.clone()).unwrap());
        let n = target.function_count();
        let scan = StaticScan {
            library: truth.library.clone(),
            total: n,
            probs: vec![0.5; n],
            candidates: (0..n).collect(),
            best_ref: vec![0; n],
            seconds: 0.0,
        };
        let runs: Vec<(vm::Engine, DynamicAnalysis)> = [vm::Engine::Fast, vm::Engine::Interp]
            .into_iter()
            .map(|engine| {
                let cfg = PipelineConfig {
                    vm: VmConfig { engine, ..VmConfig::default() },
                    ..PipelineConfig::default()
                };
                let patchecko = Patchecko::new(quick_detector(), cfg);
                let profiles = RunCtx::default().profiles;
                (engine, patchecko.dynamic_stage(&target, &scan, &reference, &profiles))
            })
            .collect();
        let (_, fast) = &runs[0];
        assert_eq!(fast.confidence, Confidence::Full);
        assert!(!fast.validated.is_empty(), "fixture must validate at least one candidate");
        assert_dynamic_bitwise_eq(fast, &runs[1].1, "engine fast vs interp");
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
        let reference = Arc::new(LoadedBinary::load(entry.vulnerable_bin.clone()).unwrap());
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
                (t, patchecko.dynamic_stage(&target, &scan, &reference, &profiles))
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

    /// Satellite: an empty reference set must produce a well-formed empty
    /// scan through the exact *and* the indexed path — zero probs, no NaNs,
    /// no best references, and no spurious candidates even at threshold 0
    /// (where the old code's `0.0 >= threshold` filter would have selected
    /// every function).
    #[test]
    fn empty_reference_set_yields_well_formed_scan_both_paths() {
        let db = corpus::build_vulndb(0, 1);
        let bin = &db.get("CVE-2018-9412").unwrap().vulnerable_bin;
        for retrieval in [Retrieval::Exact, Retrieval::TopK { k: 4 }] {
            let cfg = PipelineConfig { retrieval, ..PipelineConfig::default() };
            let mut patchecko = Patchecko::new(quick_detector(), cfg);
            patchecko.detector.threshold = 0.0;
            let scan = patchecko.scan_library(bin, &[], &DirectExtraction).unwrap();
            assert_eq!(scan.total, bin.function_count(), "{retrieval}");
            assert_eq!(scan.probs.len(), scan.total, "{retrieval}");
            assert!(scan.probs.iter().all(|p| *p == 0.0), "{retrieval}: probs {:?}", scan.probs);
            assert!(scan.candidates.is_empty(), "{retrieval}: spurious candidates");
            assert!(scan.best_ref.is_empty(), "{retrieval}: best_ref must be empty");
        }
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
            let scan = patchecko.scan_library(&empty, &references, &DirectExtraction).unwrap();
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
        let exact = exact_p.scan_library(bin, &references, &DirectExtraction).unwrap();
        let topk_p = Patchecko::new(
            quick_detector(),
            PipelineConfig {
                retrieval: Retrieval::TopK { k: references.len() },
                ..PipelineConfig::default()
            },
        );
        let indexed = topk_p.scan_library(bin, &references, &DirectExtraction).unwrap();

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
            ("analyze_library", Box::new(|| p.analyze_library(bin, entry, vuln, &ctx).map(drop))),
            ("analyze_image", Box::new(|| p.analyze_image(&image, entry, vuln, &ctx).map(drop))),
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

    #[test]
    fn environments_are_reference_survivable() {
        let detector = quick_detector();
        let patchecko = Patchecko::new(detector, PipelineConfig::default());
        let db = corpus::build_vulndb(0, 1);
        for cve in ["CVE-2018-9412", "CVE-2018-9451", "CVE-2018-9470"] {
            let entry = db.get(cve).unwrap();
            let ref_loaded = LoadedBinary::load(entry.vulnerable_bin.clone()).unwrap();
            let envs = patchecko.make_environments(&ref_loaded);
            assert!(!envs.is_empty(), "{cve}: no surviving environments");
            for env in &envs {
                assert!(ref_loaded.run_any(0, env, &patchecko.config.vm).outcome.is_ok());
            }
        }
    }
}
