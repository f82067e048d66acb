//! Corpus-scale streaming throughput: functions/sec of the streaming
//! scan path as the generated corpus grows 10³ → 10⁴ → 10⁵ functions
//! (quick mode stops at 10⁴), with the recall and bounded-memory gates
//! asserted **before any timing**:
//!
//! * **recall** — on a generated 10⁴-function corpus with planted CVE
//!   functions and a 100-row reference pool (25 featured CVEs × 4
//!   platform variants — wide enough that the default top-16 index
//!   really prunes), the indexed streaming scan retains ≥ 99% of the
//!   exact scan's true (planted) detections;
//! * **bounded memory** — a streaming scan over a corpus 10× larger than
//!   the configured working set holds at most `working_set` units live
//!   at once, proven by the live-entry counter in the streaming path.
//!
//! The throughput curve, the gate evidence, and the peak-working-set
//! counter per size land in `BENCH_corpus.json`.

use corpus::dataset1::Dataset1Config;
use corpus::{CorpusStream, StreamConfig};
use neural::net::TrainConfig;
use patchecko_core::detector::{self, Detector, DetectorConfig};
use patchecko_core::features::StaticFeatures;
use patchecko_core::pipeline::{Basis, Patchecko, PipelineConfig};
use patchecko_core::retrieval::{Retrieval, DEFAULT_TOP_K};
use patchecko_core::stream::StreamScanReport;
use patchecko_scanhub::ScanHub;
use std::collections::HashSet;

fn small_detector() -> Detector {
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
}

fn analyzer(detector: &Detector, retrieval: Retrieval) -> Patchecko {
    Patchecko::new(detector.clone(), PipelineConfig { retrieval, ..PipelineConfig::default() })
}

/// The featured entries' vulnerable reference variants flattened into one
/// pool: 25 CVEs × 4 platform variants = 100 reference rows.
fn reference_pool() -> Vec<StaticFeatures> {
    let db = corpus::build_vulndb(0, 1);
    let mut pool = Vec::new();
    for entry in db.featured() {
        pool.extend(Patchecko::reference_feature_set(entry, Basis::Vulnerable).unwrap());
    }
    assert!(pool.len() > DEFAULT_TOP_K, "pool must be wide enough to prune");
    pool
}

fn stream_cfg(target_functions: usize) -> StreamConfig {
    let mut cfg = StreamConfig::sized(target_functions, 0xBE9C);
    cfg.plant_every = 4;
    cfg
}

fn scan(analyzer: &Patchecko, cfg: &StreamConfig, refs: &[StaticFeatures], ws: usize) -> StreamScanReport {
    analyzer
        .scan_stream(CorpusStream::new(cfg.clone()).map(|u| u.binary), refs, ws)
        .unwrap()
}

/// Gate 1 — recall ≥ 99% of the exact scan's true detections at the
/// 10⁴-function corpus. Returns the gate evidence for the JSON record.
fn assert_recall_gate(detector: &Detector, refs: &[StaticFeatures]) -> serde_json::Value {
    let cfg = stream_cfg(10_000);
    let exact = analyzer(detector, Retrieval::Exact);
    let topk = analyzer(detector, Retrieval::TopK { k: DEFAULT_TOP_K });

    let flagged = |a: &Patchecko| -> HashSet<(usize, usize)> {
        scan(a, &cfg, refs, 64).matches.iter().map(|m| (m.unit, m.function)).collect()
    };
    let exact_set = flagged(&exact);
    let topk_set = flagged(&topk);

    let planted = corpus::manifest(&cfg);
    let exact_true: Vec<(usize, usize)> = planted
        .iter()
        .map(|p| (p.unit, p.function_index))
        .filter(|d| exact_set.contains(d))
        .collect();
    assert!(
        exact_true.len() * 10 >= planted.len() * 9,
        "exact scan must find ≥90% of planted CVEs ({}/{})",
        exact_true.len(),
        planted.len()
    );
    let retained = exact_true.iter().filter(|d| topk_set.contains(*d)).count();
    let recall = retained as f64 / exact_true.len() as f64;
    assert!(
        recall >= 0.99,
        "recall gate FAILED: {recall:.4} < 0.99 ({retained}/{} true exact detections \
         retained at K={DEFAULT_TOP_K})",
        exact_true.len()
    );
    println!(
        "recall gate: {recall:.4} ({retained}/{} true detections retained, {} planted, K={DEFAULT_TOP_K})",
        exact_true.len(),
        planted.len()
    );
    scope::add("bench.recall_planted", planted.len() as u64);
    serde_json::json!({
        "corpus_functions": cfg.total_functions(),
        "planted": planted.len(),
        "exact_true_detections": exact_true.len(),
        "retained": retained,
        "recall": recall,
        "threshold": 0.99,
        "pass": true,
    })
}

/// Gate 2 — bounded memory: corpus 10× the working set, peak live units
/// never exceed the working set. Returns the gate evidence.
fn assert_memory_gate(detector: &Detector, refs: &[StaticFeatures]) -> serde_json::Value {
    const WORKING_SET: usize = 8;
    let mut cfg = stream_cfg(0);
    cfg.functions_per_library = 8;
    cfg.target_functions = WORKING_SET * 10 * cfg.functions_per_library;
    assert_eq!(cfg.units(), WORKING_SET * 10);
    let topk = analyzer(detector, Retrieval::TopK { k: DEFAULT_TOP_K });
    let report = scan(&topk, &cfg, refs, WORKING_SET);
    assert!(
        report.peak_live <= WORKING_SET,
        "bounded-memory gate FAILED: peak live units {} > working set {WORKING_SET} \
         over a {}-unit corpus",
        report.peak_live,
        report.units
    );
    println!(
        "bounded-memory gate: peak {} of {WORKING_SET} live units over a {}-unit corpus",
        report.peak_live, report.units
    );
    serde_json::json!({
        "working_set": WORKING_SET,
        "units": report.units,
        "peak_live": report.peak_live,
        "pass": true,
    })
}

fn main() {
    let quick = criterion::quick_mode();
    let detector = small_detector();
    let refs = reference_pool();

    // Both gates run (and must pass) before any timing, in every mode.
    let recall_gate = assert_recall_gate(&detector, &refs);
    let memory_gate = assert_memory_gate(&detector, &refs);

    // The throughput curve: the production streaming path (hub-cached
    // top-K scan) at each corpus size, one full pass per size.
    let sizes: &[usize] = if quick { &[1_000, 10_000] } else { &[1_000, 10_000, 100_000] };
    let working_set = 64usize;
    let hub = ScanHub::new(analyzer(&detector, Retrieval::TopK { k: DEFAULT_TOP_K }));
    let mut curve = Vec::new();
    for &size in sizes {
        let cfg = stream_cfg(size);
        let units = CorpusStream::new(cfg.clone()).map(|u| u.binary);
        let report =
            hub.analyzer.scan_stream_with(units, &refs, working_set, hub.store()).unwrap();
        println!(
            "corpus/{size}: {} units / {} functions in {:.2}s — {:.0} functions/s, \
             {} matches, peak working set {} of {working_set}",
            report.units,
            report.functions,
            report.seconds,
            report.functions_per_second(),
            report.matches.len(),
            report.peak_live
        );
        curve.push(serde_json::json!({
            "target_functions": size,
            "units": report.units,
            "functions": report.functions,
            "seconds": report.seconds,
            "functions_per_second": report.functions_per_second(),
            "matches": report.matches.len(),
            "peak_live": report.peak_live,
            "working_set": working_set,
        }));
    }

    let gates = serde_json::json!({
        "recall": recall_gate,
        "bounded_memory": memory_gate,
    });
    let summary = serde_json::json!({
        "bench": "bench_corpus",
        "quick": quick,
        "gates": gates,
        "throughput": curve,
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_corpus.json");
    std::fs::write(path, serde_json::to_string_pretty(&summary).unwrap() + "\n")
        .expect("write BENCH_corpus.json");
    println!("wrote {path}");
    patchecko_bench::print_telemetry("bench_corpus");
}
