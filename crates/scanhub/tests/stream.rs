//! Acceptance gates for the streaming corpus path (`scan_stream` and
//! `scan_stream_with` over the hub's store):
//!
//! * **bounded memory** — a streaming scan over a corpus 10× larger than
//!   the configured working set never holds more than `working_set` units
//!   live at once, proven by the live-entry counter in the streaming path
//!   (not RSS sniffing), through both the bare pipeline and the hub's
//!   cached lanes;
//! * **recall** — on a generated corpus with planted CVE functions and
//!   distractor references wide enough that top-K really prunes, the
//!   indexed streaming scan retains ≥ 99% of the exact scan's detections,
//!   on corpora of 10³ and 10⁴ functions;
//! * **batching is invisible** — one static pass per working set gives
//!   bitwise the matches of one `scan_library` call per unit, at every
//!   working-set size, and a corrupt unit fails the scan with its own
//!   library and function.

use corpus::dataset1::Dataset1Config;
use corpus::{CorpusStream, StreamConfig};
use fwbin::format::Binary;
use neural::net::TrainConfig;
use patchecko_core::detector::{self, Detector, DetectorConfig};
use patchecko_core::error::ScanError;
use patchecko_core::features::StaticFeatures;
use patchecko_core::pipeline::{Basis, DirectExtraction, Patchecko, PipelineConfig};
use patchecko_core::retrieval::{Retrieval, DEFAULT_TOP_K};
use patchecko_scanhub::ScanHub;
use std::collections::HashSet;
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

fn analyzer(retrieval: Retrieval) -> Patchecko {
    let cfg = PipelineConfig { retrieval, ..PipelineConfig::default() };
    Patchecko::new(shared_detector().clone(), cfg)
}

/// The featured entries' vulnerable reference variants, flattened into one
/// pool (25 CVEs × 4 platform variants = 100 rows — wide enough that the
/// default top-16 index really prunes).
fn reference_pool() -> Vec<StaticFeatures> {
    let db = corpus::build_vulndb(0, 1);
    let mut pool = Vec::new();
    for entry in db.featured() {
        pool.extend(Patchecko::reference_feature_set(entry, Basis::Vulnerable).unwrap());
    }
    assert!(pool.len() > DEFAULT_TOP_K, "pool must be wide enough to prune");
    pool
}

/// The streaming scan holds at most `working_set` units live at any
/// moment, even when the corpus is 10× larger — the whole corpus is never
/// materialized. Checked at working sets 4 and 8 (with a planted CVE
/// every 16th and every 4th function), through the bare pipeline and
/// through the hub (whose artifact lanes must not secretly retain the
/// units either).
#[test]
fn streaming_scan_is_bounded_by_the_working_set() {
    let refs = reference_pool();
    for (working_set, seed, plant_every) in [(4, 0xFEED, 16), (8, 0xBE9C, 4)] {
        let mut cfg = StreamConfig::sized(0, seed);
        cfg.functions_per_library = 8;
        cfg.target_functions = working_set * 10 * cfg.functions_per_library;
        cfg.plant_every = plant_every;
        assert_eq!(cfg.units(), working_set * 10, "corpus must be 10× the working set");

        let exact = analyzer(Retrieval::Exact);
        let report = exact
            .scan_stream(CorpusStream::new(cfg.clone()).map(|u| u.binary), &refs, working_set)
            .unwrap();
        assert_eq!(report.units, cfg.units());
        assert_eq!(report.functions, cfg.total_functions());
        assert_eq!(report.working_set, working_set);
        assert!(
            report.peak_live <= working_set,
            "peak live units {} exceeded the configured working set {working_set}",
            report.peak_live
        );
        assert!(report.peak_live >= 1, "the counter must actually move");

        let hub = ScanHub::new(analyzer(Retrieval::TopK { k: DEFAULT_TOP_K }));
        let units = CorpusStream::new(cfg.clone()).map(|u| u.binary);
        let hub_report =
            hub.analyzer.scan_stream_with(units, &refs, working_set, hub.store()).unwrap();
        assert_eq!(hub_report.units, cfg.units());
        assert!(
            hub_report.peak_live <= working_set,
            "hub: peak live units {} exceeded the configured working set {working_set}",
            hub_report.peak_live
        );
    }
}

/// Recall gate: against the 100-row reference pool, the top-K streaming
/// scan must retain ≥ 99% of the exact scan's *true* detections — the
/// planted CVE functions the exact scan flags — on a 10³-function corpus
/// at working set 8 and a 10⁴-function corpus at working set 64. The
/// distractor functions supply pruning pressure (their occasional
/// threshold-borderline flags are exact-scan false positives the index
/// may legitimately drop, so they are excluded from the recall
/// denominator).
#[test]
fn topk_streaming_detection_recall_is_at_least_99_percent() {
    let refs = reference_pool();
    for (functions, seed, plant_every, working_set) in
        [(1_000, 0xC0FFEE, 2, 8), (10_000, 0xBE9C, 4, 64)]
    {
        let mut cfg = StreamConfig::sized(functions, seed);
        cfg.plant_every = plant_every;
        let what = format!("{} functions at working set {working_set}", cfg.total_functions());

        let flagged = |retrieval: Retrieval| -> HashSet<(usize, usize)> {
            analyzer(retrieval)
                .scan_stream(CorpusStream::new(cfg.clone()).map(|u| u.binary), &refs, working_set)
                .unwrap()
                .matches
                .iter()
                .map(|m| (m.unit, m.function))
                .collect()
        };
        let exact = flagged(Retrieval::Exact);
        let topk = flagged(Retrieval::TopK { k: DEFAULT_TOP_K });

        // The ground truth: planted functions the exact scan detects. The
        // exact scan must find nearly all of them, or the gate gates
        // nothing.
        let planted = corpus::manifest(&cfg);
        assert!(!planted.is_empty());
        let exact_true: Vec<(usize, usize)> = planted
            .iter()
            .map(|p| (p.unit, p.function_index))
            .filter(|d| exact.contains(d))
            .collect();
        assert!(
            exact_true.len() * 10 >= planted.len() * 9,
            "{what}: exact scan must find ≥90% of planted CVEs ({}/{})",
            exact_true.len(),
            planted.len()
        );

        let retained = exact_true.iter().filter(|d| topk.contains(*d)).count();
        let recall = retained as f64 / exact_true.len() as f64;
        assert!(
            recall >= 0.99,
            "{what}: streaming detection recall {recall:.4} below the 99% gate \
             ({retained}/{} true exact detections retained at K={DEFAULT_TOP_K})",
            exact_true.len()
        );
    }
}

/// One static pass per working set changes no answer: at working sets 1,
/// 8 and 64, under exact and top-K retrieval, the stream reports bitwise
/// the matches that one-binary `scan_library` calls give unit by unit —
/// the same unit, library, function, reference and probability bits.
#[test]
fn stream_matches_are_identical_at_every_working_set() {
    let mut cfg = StreamConfig::sized(1_100, 0xBA7C4);
    cfg.plant_every = 4;
    assert!(cfg.units() > 64, "the 64-unit working set must split the corpus");
    let units: Vec<Binary> = CorpusStream::new(cfg.clone()).map(|u| u.binary).collect();
    let refs = reference_pool();
    type Row = (usize, String, usize, usize, u32);
    for retrieval in [Retrieval::Exact, Retrieval::TopK { k: DEFAULT_TOP_K }] {
        let analyzer = analyzer(retrieval);
        let mut expected: Vec<Row> = Vec::new();
        for (unit, bin) in units.iter().enumerate() {
            let scan = analyzer.scan_library(bin, &[&refs], &DirectExtraction).unwrap().remove(0);
            expected.extend(scan.candidates.iter().map(|&f| {
                (unit, scan.library.clone(), f, scan.best_ref[f], scan.probs[f].to_bits())
            }));
        }
        // A match past the first unit of an 8-unit batch reads rows that
        // only the batch's target offset can find.
        assert!(
            expected.iter().any(|m| m.0 % 8 != 0),
            "{retrieval}: no match inside a batch, so batching is untested"
        );
        for working_set in [1, 8, 64] {
            let report = analyzer.scan_stream(units.iter().cloned(), &refs, working_set).unwrap();
            assert_eq!(report.functions, cfg.total_functions(), "{retrieval}, ws {working_set}");
            let got: Vec<Row> = report
                .matches
                .iter()
                .map(|m| {
                    (m.unit, m.library.clone(), m.function, m.reference, m.probability.to_bits())
                })
                .collect();
            assert_eq!(got.len(), expected.len(), "{retrieval}, ws {working_set}: match count");
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(g, e, "{retrieval}, ws {working_set}");
            }
        }
    }
}

/// A unit whose code fails to decode fails the whole streaming scan with
/// its own library and function index, whether it is scanned alone or in
/// the middle of a working set (a streaming scan is all-or-nothing).
#[test]
fn corrupt_unit_fails_the_stream_with_its_library_and_function() {
    let mut units: Vec<Binary> =
        CorpusStream::new(StreamConfig::sized(320, 0xC0DE)).map(|u| u.binary).collect();
    let corrupt = units.len() / 2;
    units[corrupt].functions[2].code = vec![0xEE, 0xEE, 0xEE];
    let library = units[corrupt].lib_name.clone();
    let refs = reference_pool();
    let analyzer = analyzer(Retrieval::TopK { k: DEFAULT_TOP_K });
    for working_set in [1, 64] {
        match analyzer.scan_stream(units.iter().cloned(), &refs, working_set) {
            Err(ScanError::Extraction { library: l, function: 2, .. }) if l == library => {}
            other => panic!("ws {working_set}: expected {library} fn 2 to fail, got {other:?}"),
        }
    }
}
