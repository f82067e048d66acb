//! Acceptance gates for indexed candidate retrieval (the signature/LSH
//! pre-filter in front of the NN scan):
//!
//! * **identity** — `--retrieval topk:K` with K ≥ the reference count is
//!   bitwise-identical to the exact all-pairs scan (probs, candidates,
//!   best_ref), both with direct extraction and through the persistent
//!   artifact cache (property-tested over generated libraries on all
//!   four ISAs, and on a built image's largest library, against
//!   reference pools of 4, 40 and 400 rows);
//! * **recall** — at the default K, indexed retrieval retains ≥ 99% of
//!   the exact scan's detections on the seed fixture, across all 4 ISAs
//!   × all 6 optimization levels against reference pools of 40, 64 and
//!   400 rows, wide enough that real pruning happens;
//! * **persistence** — a hub scan in top-K mode is bitwise-stable cold,
//!   warm and after a save/load cycle, and the persisted cache holds the
//!   four lane files and no signature index (signatures are recomputed
//!   from the cached features).

use corpus::catalog;
use corpus::dataset1::Dataset1Config;
use corpus::vulndb::{DbEntry, VulnDb};
use fwbin::format::Binary;
use fwbin::isa::{Arch, OptLevel};
use fwlang::gen::Generator;
use neural::net::TrainConfig;
use patchecko_core::detector::{self, Detector, DetectorConfig};
use patchecko_core::features::StaticFeatures;
use patchecko_core::pipeline::{Basis, DirectExtraction, Patchecko, PipelineConfig};
use patchecko_core::retrieval::{Retrieval, DEFAULT_TOP_K};
use patchecko_scanhub::{ArtifactStore, ScanHub, LANE_FILES};
use proptest::prelude::*;
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

fn small_db() -> &'static VulnDb {
    static DB: OnceLock<VulnDb> = OnceLock::new();
    DB.get_or_init(|| {
        let mut db = corpus::build_vulndb(0, 1);
        db.entries.truncate(10);
        db
    })
}

fn analyzer(retrieval: Retrieval) -> Patchecko {
    let cfg = PipelineConfig { retrieval, ..PipelineConfig::default() };
    Patchecko::new(shared_detector().clone(), cfg)
}

fn bits(probs: &[f32]) -> Vec<u32> {
    probs.iter().map(|p| p.to_bits()).collect()
}

/// Distractor reference rows: the functions of a generated library,
/// compiled and feature-extracted once, standing in for the unrelated
/// entries of a grown vulnerability DB.
fn distractors(n: usize) -> Vec<StaticFeatures> {
    let lib = Generator::new(99).library_sized("libdistract", n);
    let bin = fwbin::compile_library(&lib, Arch::Arm64, OptLevel::O2).unwrap();
    patchecko_core::features::extract_all(&bin).unwrap()
}

/// The first 396 distractors: a prefix of it pads an entry's 4 reference
/// variants to a pool of 40 or 400 rows.
fn wide_distractors() -> &'static [StaticFeatures] {
    static ROWS: OnceLock<Vec<StaticFeatures>> = OnceLock::new();
    ROWS.get_or_init(|| distractors(396))
}

/// `entry`'s vulnerable reference variants followed by `extra` rows.
fn pool(entry: &DbEntry, extra: &[StaticFeatures]) -> Vec<StaticFeatures> {
    let mut pool = Patchecko::reference_feature_set(entry, Basis::Vulnerable).unwrap();
    pool.extend_from_slice(extra);
    pool
}

/// Top-K retrieval with K = |pool| visits every pair the exact scan
/// visits, so its scan of `bin` through `store` must be bitwise the
/// exact scan's, cold and warm (the warm pass computes its signatures
/// from cached features).
fn assert_full_k_identity(bin: &Binary, pool: &[StaticFeatures], store: &ArtifactStore) {
    let what = format!("{} against {} references", bin.lib_name, pool.len());
    let e = analyzer(Retrieval::Exact).scan_library(bin, &[pool], store).unwrap().remove(0);
    let topk = analyzer(Retrieval::TopK { k: pool.len() });
    for pass in ["cold", "warm"] {
        let t = topk.scan_library(bin, &[pool], store).unwrap().remove(0);
        assert_eq!(bits(&e.probs), bits(&t.probs), "{what}, {pass}");
        assert_eq!(e.candidates, t.candidates, "{what}, {pass}");
        assert_eq!(e.best_ref, t.best_ref, "{what}, {pass}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Full-K identity on every ISA, through the artifact cache, against
    /// the first entry's 4 variants alone and padded to 40 and 400 rows.
    #[test]
    fn topk_at_full_k_is_bitwise_identical_through_the_cache(seed in 0u64..10_000, n in 3usize..7) {
        let entry = &small_db().entries[0];
        let pools = [0, 36, 396].map(|extra| pool(entry, &wide_distractors()[..extra]));
        let store = ArtifactStore::new();
        for arch in Arch::ALL {
            let lib = Generator::new(seed).library_sized("libprop", n);
            let bin = fwbin::compile_library(&lib, arch, OptLevel::O1).unwrap();
            for pool in &pools {
                assert_full_k_identity(&bin, pool, &store);
            }
        }
    }
}

/// Recall gate: at the default K against a reference DB of each entry's
/// 4 true platform variants plus distractor reference functions (wide
/// enough that top-16 really prunes), the indexed scan must retain
/// ≥ 99% of the exact scan's detections (detection recall: a function
/// the exact scan flags is still flagged), and must not disagree on any
/// threshold decision for more than 1% of targets. The pools hold 64
/// rows (60 distractors of their own library) and 40 and 400 rows (a
/// prefix of the 396 wide distractors). Targets are the seed fixture:
/// the catalog entries' own vulnerable and patched libraries compiled at
/// every (ISA, optimization level) pair — the paper's use-case, where
/// the true match is a cross-compiled variant of a pooled reference.
/// Full-K identity is checked on the largest library of a built firmware
/// image, whose planted catalog functions sit among ordinary ones,
/// against the first entry's pools of 4, 40 and 400 rows.
#[test]
fn default_k_detection_recall_is_at_least_99_percent_across_isas_and_opts() {
    let db = small_db();
    let narrow = distractors(60);
    let extras: [&[StaticFeatures]; 3] =
        [&narrow, &wide_distractors()[..36], wide_distractors()];
    let exact = analyzer(Retrieval::Exact);
    let topk = analyzer(Retrieval::TopK { k: DEFAULT_TOP_K });

    let device =
        corpus::build_device(&corpus::android_things_spec(), &corpus::full_catalog(), 0.05);
    let largest = device.image.binaries.iter().max_by_key(|b| b.function_count()).unwrap();
    for extra in [0, 36, 396] {
        let pool = pool(&db.entries[0], &wide_distractors()[..extra]);
        assert_full_k_identity(largest, &pool, &ArtifactStore::new());
    }

    // (flagged, retained, total, agree) per pool.
    let mut counts = [(0u32, 0u32, 0u32, 0u32); 3];
    for entry in &db.entries {
        let pools = extras.map(|extra| pool(entry, extra));
        for pool in &pools {
            assert!(pool.len() > DEFAULT_TOP_K, "pool must be wide enough to prune");
        }
        for patched in [false, true] {
            let lib = catalog::reference_library(&entry.entry, patched);
            for arch in Arch::ALL {
                for opt in OptLevel::ALL {
                    let bin = fwbin::compile_library(&lib, arch, opt).unwrap();
                    for (pool, (flagged, retained, total, agree)) in pools.iter().zip(&mut counts) {
                        let scan = |a: &Patchecko| {
                            a.scan_library(&bin, &[pool], &DirectExtraction).unwrap().remove(0)
                        };
                        let (e, t) = (scan(&exact), scan(&topk));
                        for f in 0..e.total {
                            *total += 1;
                            let ef = e.candidates.contains(&f);
                            let tf = t.candidates.contains(&f);
                            if ef {
                                *flagged += 1;
                                if tf {
                                    *retained += 1;
                                }
                            }
                            if ef == tf {
                                *agree += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    for (extra, (flagged, retained, total, agree)) in extras.iter().zip(counts) {
        let what = format!("{} distractors", extra.len());
        assert!(flagged > 0, "the seed fixture must produce detections");
        let recall = f64::from(retained) / f64::from(flagged);
        let agreement = f64::from(agree) / f64::from(total);
        assert!(
            recall >= 0.99,
            "detection recall {recall:.4} below the 99% gate at {what} \
             ({retained}/{flagged} exact detections retained at K={DEFAULT_TOP_K})"
        );
        assert!(
            agreement >= 0.99,
            "threshold-decision agreement {agreement:.4} below the 99% gate at {what} \
             ({agree}/{total})"
        );
    }
}

/// A top-K hub scan is bitwise-stable cold, warm and after a
/// persist/reload cycle, with the pruning counters moving. The reloaded
/// hub extracts nothing, and the persisted directory holds exactly the
/// lane files: signatures are recomputed from cached features, never
/// written to disk.
#[test]
fn hub_topk_scan_populates_and_serves_the_persistent_index() {
    let dir = std::env::temp_dir().join(format!("scanhub-retrieval-hub-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let entry = &small_db().entries[0];
    // K below the reference count (4 variants), so the index really
    // selects and the pruning counters move.
    let hub = ScanHub::with_cache_dir(analyzer(Retrieval::TopK { k: 2 }), &dir).unwrap();
    let bin = Generator::new(11).library_sized("libhub", 6);
    let bin = fwbin::compile_library(&bin, Arch::Arm64, OptLevel::O2).unwrap();
    let n = bin.function_count() as u64;

    let pruned_before = scope::snapshot().counter("index.pairs_pruned");
    let cold = hub.scan_library(&bin, entry, Basis::Vulnerable).unwrap();
    assert!(
        scope::snapshot().counter("index.pairs_pruned") >= pruned_before + n,
        "k=2 of 4 references prunes pairs (band-collision rescue may add a few back)"
    );

    let warm = hub.scan_library(&bin, entry, Basis::Vulnerable).unwrap();
    assert_eq!(bits(&cold.probs), bits(&warm.probs));

    assert!(hub.persist().unwrap());
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort_unstable();
    let mut lanes = LANE_FILES.map(String::from).to_vec();
    lanes.sort_unstable();
    assert_eq!(files, lanes, "the cache holds the lane files and no signature index");

    let hub2 = ScanHub::with_cache_dir(analyzer(Retrieval::TopK { k: 2 }), &dir).unwrap();
    assert_eq!(hub2.stats().quarantined, 0);
    let reloaded = hub2.scan_library(&bin, entry, Basis::Vulnerable).unwrap();
    assert_eq!(bits(&cold.probs), bits(&reloaded.probs));
    assert_eq!(cold.best_ref, reloaded.best_ref);
    assert_eq!(hub2.stats().extractions, 0, "the reloaded hub serves every feature from disk");
    std::fs::remove_dir_all(&dir).unwrap();
}
