//! Evaluation harness (§V): drives the pipeline over the 25 CVEs and the
//! device images, producing the rows of Tables VI, VII and VIII and the
//! series of Figures 7 and 8.

use crate::detector::{self, DetectorConfig, TestMetrics};
use crate::differential::{self, DifferentialConfig, PatchVerdict};
use crate::dynsource::DynProfileSource;
use crate::error::ScanError;
use crate::pipeline::{
    Basis, CveAnalysis, FeatureSource, ImageAnalysis, Patchecko, PipelineConfig, RunCtx,
};
use crate::report::{AuditFinding, AuditReport, AuditStatus};
use crate::similarity;
use corpus::device::DeviceBuild;
use corpus::vulndb::{DbEntry, VulnDb};
use corpus::dataset1::Dataset1Config;
use neural::net::TrainHistory;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One row of Table VI / Table VII.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CveRow {
    /// CVE id.
    pub cve: String,
    /// Search basis (vulnerable = Table VI, patched = Table VII).
    pub basis: String,
    /// Deep-learning classification confusion counts against the
    /// single-target ground truth.
    pub tp: u32,
    /// True negatives.
    pub tn: u32,
    /// False positives.
    pub fp: u32,
    /// False negatives.
    pub fn_: u32,
    /// Functions in the host library ("Total").
    pub total: usize,
    /// FP percentage ("FP(%)").
    pub fp_percent: f64,
    /// Candidates surviving execution validation ("Execution").
    pub execution: usize,
    /// 1-based rank of the true function in the final ranking
    /// ("Ranking"; `None` = the paper's "N/A").
    pub ranking: Option<usize>,
    /// Static-stage seconds ("DP").
    pub dp_seconds: f64,
    /// Dynamic-stage seconds ("DA").
    pub da_seconds: f64,
}

/// One row of Table VIII.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PatchRow {
    /// CVE id.
    pub cve: String,
    /// PATCHECKO's verdict (`None`: target never located).
    pub detected_patched: Option<bool>,
    /// Ground truth.
    pub truth_patched: bool,
    /// Whether the differential engine fell back to the tie-break.
    pub tie_break: bool,
}

impl PatchRow {
    /// Whether the verdict matches the ground truth.
    pub fn correct(&self) -> bool {
        self.detected_patched == Some(self.truth_patched)
    }
}

/// Evaluate one CVE on one device with one basis, producing its table row
/// and the underlying analysis.
///
/// # Errors
/// Propagates pipeline [`ScanError`]s (extraction and cache failures).
pub fn evaluate_cve(
    patchecko: &Patchecko,
    entry: &DbEntry,
    device: &DeviceBuild,
    basis: Basis,
) -> Result<(CveRow, CveAnalysis), ScanError> {
    let truth = device
        .truth_for(&entry.entry.cve)
        .ok_or_else(|| ScanError::UnknownCve(entry.entry.cve.clone()))?;
    let bin = device
        .image
        .binary(&truth.library)
        .unwrap_or_else(|| panic!("{} missing from image", truth.library));
    let analysis = patchecko
        .analyze_library(bin, &[(entry, basis)], &RunCtx::default())?
        .pop()
        .expect("one analysis per pair");

    let mut tp = 0u32;
    let mut fp = 0u32;
    let mut tn = 0u32;
    let mut fn_ = 0u32;
    for (i, p) in analysis.scan.probs.iter().enumerate() {
        let predicted = *p >= patchecko.detector.threshold;
        let is_target = i == truth.function_index;
        match (predicted, is_target) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, false) => tn += 1,
            (false, true) => fn_ += 1,
        }
    }
    let total = analysis.scan.total;
    let row = CveRow {
        cve: entry.entry.cve.clone(),
        basis: basis.to_string(),
        tp,
        tn,
        fp,
        fn_,
        total,
        fp_percent: 100.0 * fp as f64 / total.max(1) as f64,
        execution: analysis.dynamic.validated.len(),
        ranking: similarity::rank_of(&analysis.dynamic.ranking, truth.function_index),
        dp_seconds: analysis.scan.seconds,
        da_seconds: analysis.dynamic.seconds,
    };
    Ok((row, analysis))
}

/// Candidate target functions for the differential engine: the union of
/// the top-3 of both bases' rankings (distances across bases are not
/// directly comparable — the environments differ — so the differential
/// engine itself arbitrates via [`differential::detect_patch_best`]).
pub fn locate_candidates(vuln: &CveAnalysis, patched: &CveAnalysis) -> Vec<usize> {
    let mut out = Vec::new();
    for r in vuln.dynamic.ranking.iter().take(3).chain(patched.dynamic.ranking.iter().take(3)) {
        if !out.contains(&r.function_index) {
            out.push(r.function_index);
        }
    }
    out
}

/// Run the full Table VIII flow for one CVE: both-basis analysis, target
/// location, differential verdict.
///
/// # Errors
/// Propagates pipeline [`ScanError`]s (extraction and cache failures).
pub fn evaluate_patch_detection(
    patchecko: &Patchecko,
    entry: &DbEntry,
    device: &DeviceBuild,
    diff_cfg: &DifferentialConfig,
) -> Result<(PatchRow, Option<PatchVerdict>), ScanError> {
    let (_, va) = evaluate_cve(patchecko, entry, device, Basis::Vulnerable)?;
    let (_, pa) = evaluate_cve(patchecko, entry, device, Basis::Patched)?;
    let truth = device
        .truth_for(&entry.entry.cve)
        .ok_or_else(|| ScanError::UnknownCve(entry.entry.cve.clone()))?;
    let candidates = locate_candidates(&va, &pa);
    let bin = device.image.binary(&truth.library).expect("library present");
    let ctx = RunCtx::default();
    let Some((_, verdict)) =
        differential::detect_patch_best(patchecko, entry, bin, &candidates, diff_cfg, &ctx)?
    else {
        return Ok((
            PatchRow {
                cve: entry.entry.cve.clone(),
                detected_patched: None,
                truth_patched: truth.patched,
                tie_break: false,
            },
            None,
        ));
    };
    let row = PatchRow {
        cve: entry.entry.cve.clone(),
        detected_patched: Some(verdict.patched),
        truth_patched: truth.patched,
        tie_break: verdict.tie_break,
    };
    Ok((row, Some(verdict)))
}

/// The two search bases an audit runs for every entry, in analysis order.
const BASES: [Basis; 2] = [Basis::Vulnerable, Basis::Patched];

/// One CVE's audit (the CLI's `patch-check`): both-basis image analysis,
/// then the per-CVE differential tail it shares with [`audit_image`]:
/// per-library candidate collection and differential arbitration. Across
/// libraries the target is the verdict with the smallest
/// [`PatchVerdict::proximity`], the same rule
/// [`differential::detect_patch_best`] ranks candidates by. Returns the
/// located target as `library:function` with its verdict, or `None` when
/// neither basis located the CVE function.
///
/// # Errors
/// The first [`ScanError`] from the analyses or the differential engine,
/// including [`ScanError::DeadlineExceeded`] once `ctx.cancel` expires.
pub fn audit_one_cve(
    patchecko: &Patchecko,
    entry: &DbEntry,
    image: &fwbin::FirmwareImage,
    diff_cfg: &DifferentialConfig,
    ctx: &RunCtx,
) -> Result<Option<(String, PatchVerdict)>, ScanError> {
    let pairs = BASES.map(|basis| (entry, basis));
    let [va, pa]: [ImageAnalysis; 2] = patchecko
        .analyze_image(image, &pairs, ctx)?
        .try_into()
        .expect("one analysis per pair");
    locate_and_verify(patchecko, entry, image, &va, &pa, diff_cfg, ctx)
}

/// The per-CVE tail of an audit, shared by [`audit_one_cve`] and
/// [`audit_image`]: per-library candidate sets from both bases' best
/// matches, then differential arbitration, the closest verdict winning.
fn locate_and_verify(
    patchecko: &Patchecko,
    entry: &DbEntry,
    image: &fwbin::FirmwareImage,
    va: &ImageAnalysis,
    pa: &ImageAnalysis,
    diff_cfg: &DifferentialConfig,
    ctx: &RunCtx,
) -> Result<Option<(String, PatchVerdict)>, ScanError> {
    // Per-library candidate sets from both bases.
    let mut by_lib: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for m in va.best.iter().chain(pa.best.iter()) {
        let cands = by_lib.entry(m.library_index).or_default();
        if !cands.contains(&m.function_index) {
            cands.push(m.function_index);
        }
    }
    let mut best: Option<(String, PatchVerdict)> = None;
    for (li, cands) in by_lib {
        let bin = &image.binaries[li];
        if let Some((idx, v)) =
            differential::detect_patch_best(patchecko, entry, bin, &cands, diff_cfg, ctx)?
        {
            if best.as_ref().is_none_or(|(_, b)| v.proximity() < b.proximity()) {
                best = Some((format!("{}:{idx}", bin.lib_name), v));
            }
        }
    }
    Ok(best)
}

/// Audit a whole firmware image against the vulnerability database,
/// producing the deployment-facing [`AuditReport`]. The static and
/// dynamic stages run in one [`Patchecko::analyze_image`] call over both
/// search bases of every entry: the image is scanned once, in one static
/// pass over every library and every reference set (each distinct
/// feature pair scored once), then in one dynamic pass that loads each
/// library once, asks for each reference build's environment set and
/// profile once, and profiles every candidate of the database in one pool
/// dispatch. Then, per CVE, the differential tail shared with
/// [`audit_one_cve`] arbitrates with [`differential::detect_patch_best`]
/// and classifies. With a warm scanhub context, the whole audit performs
/// zero disassembly / feature-extraction work *and* zero VM executions.
///
/// `ctx.cancel` is checked before the first feature call, before the
/// image's static pass, before each dynamic phase and each dynamic task,
/// before every CVE's differential and per differential candidate, so an
/// audit whose end-to-end deadline has passed surfaces the typed
/// [`ScanError::DeadlineExceeded`] at the next stage boundary instead of
/// running the database to completion.
///
/// Failure policy: a *permanent* per-CVE failure (malformed input) is
/// recorded as an [`AuditStatus::Error`] finding and the audit continues
/// — one poisoned entry must not sink the image. An entry whose reference
/// features fail leaves the batch with its error; a library whose
/// features fail gives every CVE still in the batch that library's error
/// (a reference failure takes precedence). A *transient* failure
/// (quarantined artifact, injected fault, worker death, expired
/// deadline) propagates as `Err` so the caller — typically the scanhub
/// scheduler — can retry the whole job.
///
/// # Errors
/// The first transient [`ScanError`] encountered.
pub fn audit_image(
    patchecko: &Patchecko,
    db: &VulnDb,
    image: &fwbin::FirmwareImage,
    diff_cfg: &DifferentialConfig,
    ctx: &RunCtx,
) -> Result<AuditReport, ScanError> {
    let _span = scope::SpanGuard::enter("audit").with_detail(image.device.clone());
    ctx.cancel.check()?;
    // The whole database, not just the featured Table VI slice: a
    // production audit answers for every CVE the reference DB knows.
    // Each entry's reference sets are gathered once, before the batch.
    let mut pairs = Vec::with_capacity(2 * db.entries.len());
    let mut references = Vec::with_capacity(2 * db.entries.len());
    let mut reference_errors: Vec<Option<ScanError>> = Vec::with_capacity(db.entries.len());
    for entry in &db.entries {
        let sets: Result<Vec<_>, _> = BASES
            .iter()
            .map(|&basis| Patchecko::reference_feature_set_with(entry, basis, ctx.features))
            .collect();
        match sets {
            Ok(sets) => {
                pairs.extend(BASES.iter().map(|&basis| (entry, basis)));
                references.extend(sets);
                reference_errors.push(None);
            }
            Err(e) if e.is_transient() => return Err(e),
            Err(e) => reference_errors.push(Some(e)),
        }
    }
    let mut batch = match patchecko.analyze_gathered(image, &pairs, &references, ctx) {
        Err(e) if e.is_transient() => return Err(e),
        analyses => analyses.map(Vec::into_iter),
    };
    let mut findings = Vec::with_capacity(db.entries.len());
    for (entry, reference_error) in db.entries.iter().zip(reference_errors) {
        ctx.cancel.check()?;
        let found = match (reference_error, &mut batch) {
            (Some(e), _) => Err(e),
            (None, Err(e)) => Err(e.clone()),
            (None, Ok(batch)) => {
                let mut next = || batch.next().expect("both bases of every batched entry");
                let (va, pa) = (next(), next());
                locate_and_verify(patchecko, entry, image, &va, &pa, diff_cfg, ctx)
            }
        };
        let (status, located, verdict, error) = match found {
            Ok(Some((located, v))) => {
                let status = if v.patched { AuditStatus::Patched } else { AuditStatus::Vulnerable };
                (status, Some(located), Some(v), None)
            }
            Ok(None) => (AuditStatus::NotFound, None, None, None),
            Err(e) if e.is_transient() => return Err(e),
            Err(e) => (AuditStatus::Error, None, None, Some(e)),
        };
        let degraded = verdict.as_ref().is_some_and(|v| v.degraded);
        findings.push(AuditFinding {
            cve: entry.entry.cve.clone(),
            expected_library: entry.entry.library.clone(),
            severity: format!("{:?}", entry.entry.severity).to_lowercase(),
            cwe: Some(entry.meta.cwe().to_string()),
            cvss: Some(entry.meta.metrics.base_score),
            status,
            located,
            verdict,
            degraded,
            error,
        });
    }
    Ok(AuditReport {
        device: image.device.clone(),
        patch_level: image.patch_level.clone(),
        libraries: image.binaries.len(),
        functions: image.total_functions(),
        findings,
        telemetry: None,
    })
}

/// [`audit_image`] through explicit sources with an unbounded deadline.
///
/// # Errors
/// As for [`audit_image`].
pub fn audit_image_with(
    patchecko: &Patchecko,
    db: &VulnDb,
    image: &fwbin::FirmwareImage,
    diff_cfg: &DifferentialConfig,
    source: &dyn FeatureSource,
    dynsrc: &Arc<dyn DynProfileSource>,
) -> Result<AuditReport, ScanError> {
    // Kept: the frozen `hybridbench` calls this name to inject tracing sources.
    let ctx = RunCtx { features: source, profiles: Arc::clone(dynsrc), ..RunCtx::default() };
    audit_image(patchecko, db, image, diff_cfg, &ctx)
}

/// A full evaluation context: trained detector + datasets.
pub struct Evaluation {
    /// The analyzer.
    pub patchecko: Patchecko,
    /// The vulnerability database.
    pub db: VulnDb,
    /// Device builds under test.
    pub devices: Vec<DeviceBuild>,
    /// Figure-8 training curves.
    pub history: TrainHistory,
    /// Held-out detector metrics.
    pub metrics: TestMetrics,
}

/// Scale/effort knobs for building an evaluation.
#[derive(Debug, Clone)]
pub struct EvaluationConfig {
    /// Dataset I settings.
    pub dataset1: Dataset1Config,
    /// Detector training settings.
    pub detector: DetectorConfig,
    /// Pipeline settings.
    pub pipeline: PipelineConfig,
    /// Device library scale (1.0 = paper-derived sizes).
    pub device_scale: f64,
    /// Bulk vulnerability-database entries beyond the featured 25.
    pub bulk_db: usize,
}

impl Default for EvaluationConfig {
    fn default() -> EvaluationConfig {
        EvaluationConfig {
            dataset1: Dataset1Config::default(),
            detector: DetectorConfig::default(),
            pipeline: PipelineConfig::default(),
            device_scale: 1.0,
            bulk_db: 175,
        }
    }
}

/// Build an evaluation: generate Dataset I, train the detector, build the
/// database and both device images.
pub fn build_evaluation(cfg: &EvaluationConfig) -> Evaluation {
    let ds1 = corpus::build_dataset1(&cfg.dataset1);
    let (det, history, metrics) = detector::train(&ds1, &cfg.detector);
    drop(ds1);
    let db = corpus::build_vulndb(cfg.bulk_db, 0xDB);
    let catalog = corpus::full_catalog();
    let devices = vec![
        corpus::build_device(&corpus::android_things_spec(), &catalog, cfg.device_scale),
        corpus::build_device(&corpus::pixel2xl_spec(), &catalog, cfg.device_scale),
    ];
    Evaluation {
        patchecko: Patchecko::new(det, cfg.pipeline.clone()),
        db,
        devices,
        history,
        metrics,
    }
}

impl Evaluation {
    /// Table VI (basis = vulnerable) / Table VII (basis = patched) rows for
    /// one device. The evaluation corpus is well-formed by construction, so
    /// a scan failure here is a harness bug and panics with the typed error.
    pub fn table_rows(&self, device: usize, basis: Basis) -> Vec<CveRow> {
        self.db
            .featured()
            .iter()
            .map(|e| {
                evaluate_cve(&self.patchecko, e, &self.devices[device], basis)
                    .unwrap_or_else(|err| panic!("evaluation corpus scan failed: {err}"))
                    .0
            })
            .collect()
    }

    /// Table VIII rows for one device. Panics on scan failure, as for
    /// [`Evaluation::table_rows`].
    pub fn patch_rows(&self, device: usize) -> Vec<PatchRow> {
        let diff_cfg = DifferentialConfig::default();
        self.db
            .featured()
            .iter()
            .map(|e| {
                evaluate_patch_detection(&self.patchecko, e, &self.devices[device], &diff_cfg)
                    .unwrap_or_else(|err| panic!("evaluation corpus scan failed: {err}"))
                    .0
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::shared_detector;

    fn tiny_eval() -> Evaluation {
        // Shared detector + small device images: end-to-end behaviour with
        // test-profile runtimes.
        let catalog = corpus::full_catalog();
        Evaluation {
            patchecko: Patchecko::new(shared_detector().clone(), PipelineConfig::default()),
            db: corpus::build_vulndb(0, 0xDB),
            devices: vec![
                corpus::build_device(&corpus::android_things_spec(), &catalog, 0.05),
                corpus::build_device(&corpus::pixel2xl_spec(), &catalog, 0.05),
            ],
            history: TrainHistory::default(),
            metrics: TestMetrics { accuracy: 0.0, auc: 0.0, pairs: 0 },
        }
    }

    #[test]
    fn evaluate_cve_produces_consistent_row() {
        let ev = tiny_eval();
        let entry = ev.db.get("CVE-2018-9412").unwrap();
        let (row, analysis) =
            evaluate_cve(&ev.patchecko, entry, &ev.devices[0], Basis::Vulnerable).unwrap();
        assert_eq!(row.tp + row.tn + row.fp + row.fn_, row.total as u32);
        assert_eq!(row.tp + row.fn_, 1, "exactly one ground-truth target");
        assert!(row.execution <= analysis.scan.candidates.len());
        assert!(row.fp_percent >= 0.0 && row.fp_percent <= 100.0);
        // The flagship function is found and ranked top-3 on Android Things
        // (not patched there, searching with the vulnerable basis).
        assert_eq!(row.tp, 1, "deep model finds the vulnerable target");
        let rank = row.ranking.expect("ranked");
        assert!(rank <= 3, "rank {rank}");
    }

    #[test]
    fn patch_detection_rows_score_against_truth() {
        let ev = tiny_eval();
        // Flagship: present vulnerable on Android Things.
        let entry = ev.db.get("CVE-2018-9412").unwrap();
        let (row, verdict) = evaluate_patch_detection(
            &ev.patchecko,
            entry,
            &ev.devices[0],
            &DifferentialConfig::default(),
        )
        .unwrap();
        assert!(!row.truth_patched);
        assert_eq!(row.detected_patched, Some(false), "{verdict:?}");
        assert!(row.correct());
    }

    #[test]
    fn locate_candidates_unions_both_rankings() {
        use crate::pipeline::{DynamicAnalysis, StaticScan};
        use crate::similarity::RankedCandidate;
        let mk = |ranking: Vec<RankedCandidate>| CveAnalysis {
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
                ranking,
                confidence: crate::pipeline::Confidence::Full,
                degradation: None,
                seconds: 0.0,
            },
        };
        let va = mk(vec![RankedCandidate { function_index: 5, distance: 10.0 }]);
        let pa = mk(vec![
            RankedCandidate { function_index: 9, distance: 2.0 },
            RankedCandidate { function_index: 5, distance: 4.0 },
        ]);
        assert_eq!(locate_candidates(&va, &pa), vec![5, 9]);
        let empty = mk(vec![]);
        assert!(locate_candidates(&empty, &empty).is_empty());
    }
}
