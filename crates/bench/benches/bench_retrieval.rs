//! Sub-linear candidate retrieval: all-pairs vs signature-indexed scan
//! throughput as the reference DB grows 1× → 10× → 100×.
//!
//! The exact scan classifies every (target, reference) pair, so its cost
//! grows linearly with the reference DB. The indexed scan ranks
//! references by quantized-signature cosine distance (~48 integer
//! multiply-adds per reference — three orders of magnitude cheaper than
//! one NN pair classification), keeps the top K, unions in every LSH
//! band collision as a rescue tier, and classifies only the survivors —
//! so its cost stays near-flat as the DB grows.
//!
//! Two correctness gates run before any timing (and in `--test` mode,
//! which is what CI's bench smoke executes):
//!
//! * **identity** — top-K retrieval with K ≥ |references| is
//!   bitwise-identical to the exact scan at every DB size;
//! * **recall** — at the default K against the 10× and 100× DBs, the
//!   indexed scan retains ≥ 99% of the exact scan's detections and
//!   agrees with ≥ 99% of its threshold decisions, across the seed
//!   fixture's vulnerable and patched builds on all 4 ISAs × all 6
//!   optimization levels.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use corpus::catalog;
use corpus::dataset1::Dataset1Config;
use corpus::vulndb::VulnDb;
use fwbin::isa::{Arch, OptLevel};
use fwlang::gen::Generator;
use neural::net::TrainConfig;
use patchecko_core::detector::{self, Detector, DetectorConfig};
use patchecko_core::features::StaticFeatures;
use patchecko_core::pipeline::{Basis, DirectExtraction, Patchecko, PipelineConfig};
use patchecko_core::retrieval::{Retrieval, DEFAULT_TOP_K};

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

fn small_db() -> VulnDb {
    let mut db = corpus::build_vulndb(0, 1);
    db.entries.truncate(10);
    db
}

fn analyzer(detector: &Detector, retrieval: Retrieval) -> Patchecko {
    Patchecko::new(detector.clone(), PipelineConfig { retrieval, ..PipelineConfig::default() })
}

/// Distractor reference features: `n` generated functions, compiled and
/// feature-extracted once — stand-ins for the unrelated entries of a
/// grown vulnerability DB.
fn distractor_features(n: usize) -> Vec<StaticFeatures> {
    let lib = Generator::new(99).library_sized("libdistract", n);
    let bin = fwbin::compile_library(&lib, Arch::Arm64, OptLevel::O2).unwrap();
    patchecko_core::features::extract_all(&bin).unwrap()
}

/// The recall gate from the integration suite, at bench scale: detection
/// recall (exact-scan detections the indexed scan retains) and
/// threshold-decision agreement must both be ≥ 99% over the seed
/// fixture's vulnerable + patched builds on every (ISA, opt) pair.
fn assert_recall_gate(db: &VulnDb, exact: &Patchecko, topk: &Patchecko, pool_extra: &[StaticFeatures]) {
    let (mut flagged, mut retained, mut total, mut agree) = (0u64, 0u64, 0u64, 0u64);
    for entry in &db.entries {
        let mut pool = Patchecko::reference_feature_set(entry, Basis::Vulnerable).unwrap();
        pool.extend(pool_extra.iter().cloned());
        for patched in [false, true] {
            let lib = catalog::reference_library(&entry.entry, patched);
            for arch in Arch::ALL {
                for opt in OptLevel::ALL {
                    let bin = fwbin::compile_library(&lib, arch, opt).unwrap();
                    let e = exact.scan_library(&bin, &[&pool], &DirectExtraction).unwrap().remove(0);
                    let t = topk.scan_library(&bin, &[&pool], &DirectExtraction).unwrap().remove(0);
                    for f in 0..e.total {
                        total += 1;
                        let (ef, tf) = (e.candidates.contains(&f), t.candidates.contains(&f));
                        flagged += u64::from(ef);
                        retained += u64::from(ef && tf);
                        agree += u64::from(ef == tf);
                    }
                }
            }
        }
    }
    assert!(flagged > 0, "the seed fixture must produce detections");
    let recall = retained as f64 / flagged as f64;
    let agreement = agree as f64 / total as f64;
    assert!(
        recall >= 0.99,
        "detection recall {recall:.4} below the 99% gate at {} distractors \
         ({retained}/{flagged} retained at K={DEFAULT_TOP_K})",
        pool_extra.len()
    );
    assert!(
        agreement >= 0.99,
        "threshold agreement {agreement:.4} below the 99% gate at {} distractors ({agree}/{total})",
        pool_extra.len()
    );
    scope::add("bench.recall_targets", total);
}

fn bench_retrieval(c: &mut Criterion) {
    let detector = small_detector();
    let db = small_db();
    let exact = analyzer(&detector, Retrieval::Exact);
    let topk = analyzer(&detector, Retrieval::TopK { k: DEFAULT_TOP_K });

    // The scan target: the largest library of a built firmware image —
    // the paper's unit of scanning, with planted catalog functions among
    // ordinary ones.
    let device =
        corpus::build_device(&corpus::android_things_spec(), &corpus::full_catalog(), 0.05);
    let target = device
        .image
        .binaries
        .iter()
        .max_by_key(|b| b.function_count())
        .expect("device image has libraries")
        .clone();
    let entry = &db.entries[0];

    // Reference DBs at 1×, 10×, 100×: the entry's 4 true platform
    // variants, padded with generated distractor references.
    let base = Patchecko::reference_feature_set(entry, Basis::Vulnerable).unwrap();
    let distractors = distractor_features(4 * 100 - base.len());
    let pools: Vec<(usize, Vec<StaticFeatures>)> = [1usize, 10, 100]
        .iter()
        .map(|&scale| {
            let mut pool = base.clone();
            pool.extend(distractors.iter().take(4 * scale - base.len()).cloned());
            (scale, pool)
        })
        .collect();

    // Gate 1 — identity: K ≥ |references| must be bitwise-exact at every
    // DB size.
    for (scale, pool) in &pools {
        let full = analyzer(&detector, Retrieval::TopK { k: pool.len() });
        let e = exact.scan_library(&target, &[pool], &DirectExtraction).unwrap().remove(0);
        let f = full.scan_library(&target, &[pool], &DirectExtraction).unwrap().remove(0);
        let bits = |p: &[f32]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&e.probs), bits(&f.probs), "identity gate failed at {scale}× DB");
        assert_eq!(e.candidates, f.candidates, "identity gate failed at {scale}× DB");
        assert_eq!(e.best_ref, f.best_ref, "identity gate failed at {scale}× DB");
    }

    // Gate 2 — recall: ≥ 99% detection recall at the default K, at the
    // 10× and 100× DB sizes, across the full ISA × opt sweep.
    for (_, pool) in pools.iter().filter(|(scale, _)| *scale > 1) {
        assert_recall_gate(&db, &exact, &topk, &pool[base.len()..]);
    }

    // Timing: all-pairs vs indexed throughput at each DB size. The exact
    // series grows linearly with the pool; the indexed series stays
    // near-flat (ranking is ~48 madds per reference, classification runs
    // only on the ~K survivors).
    for (scale, pool) in &pools {
        c.bench_function(&format!("retrieval/exact/db{}", 4 * scale), |b| {
            b.iter(|| black_box(exact.scan_library(&target, &[pool], &DirectExtraction).unwrap()))
        });
        c.bench_function(&format!("retrieval/indexed/db{}", 4 * scale), |b| {
            b.iter(|| black_box(topk.scan_library(&target, &[pool], &DirectExtraction).unwrap()))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_retrieval
}

fn main() {
    benches();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_retrieval.json");
    criterion::write_json_summary(path).expect("write BENCH_retrieval.json");
    println!("wrote {path}");
    // The indexed scans recorded `index.candidates` / `index.pairs_pruned`
    // into the global scope registry; show the combined view.
    patchecko_bench::print_telemetry("bench_retrieval");
}
