//! The scan lane's gates: a warm re-audit scores nothing, the key covers
//! every input of a scan, and an update that replaces one library
//! re-scores that library alone.
//!
//! `classify.pairs` and `vm.executions` are process-global counters, so
//! the tests in this file serialize on a local mutex; as an
//! integration-test binary the file owns its process.

use corpus::dataset1::Dataset1Config;
use corpus::vulndb::VulnDb;
use fwbin::format::Binary;
use neural::net::{Mlp, TrainConfig};
use patchecko_core::detector::{self, Detector, DetectorConfig};
use patchecko_core::differential::DifferentialConfig;
use patchecko_core::features::{Normalizer, StaticFeatures};
use patchecko_core::pipeline::{
    Basis, DirectExtraction, FeatureSource, Patchecko, PipelineConfig, StaticScan,
};
use patchecko_core::retrieval::Retrieval;
use patchecko_scanhub::{ArtifactStore, ScanHub};
use serde_json::Value;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Serializes the tests below: they read process-global counters.
fn counter_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn counter(name: &str) -> u64 {
    scope::snapshot().counter(name)
}

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

/// An Android Things image at scale 0.05 whose filler comes from `seed`.
fn device(seed: u64) -> corpus::DeviceBuild {
    let mut spec = corpus::android_things_spec();
    spec.seed = seed;
    corpus::build_device(&spec, &corpus::full_catalog(), 0.05)
}

fn small_db() -> VulnDb {
    let mut db = corpus::build_vulndb(0, 1);
    db.entries.truncate(3);
    db
}

fn analyzer(retrieval: Retrieval) -> Patchecko {
    Patchecko::new(shared_detector().clone(), PipelineConfig { retrieval, ..PipelineConfig::default() })
}

/// Everything of a scan but its timing, floats as bits.
fn scan_bits(scan: &StaticScan) -> (String, usize, Vec<u32>, Vec<usize>, Vec<usize>) {
    let probs = scan.probs.iter().map(|p| p.to_bits()).collect();
    (scan.library.clone(), scan.total, probs, scan.candidates.clone(), scan.best_ref.clone())
}

#[test]
fn warm_reaudit_scores_nothing_and_reports_the_cold_bytes() {
    let _guard = counter_lock();
    let hub = ScanHub::new(analyzer(Retrieval::Exact));
    let db = small_db();
    let image = device(corpus::android_things_spec().seed).image;
    let diff = DifferentialConfig::default();
    let scans = (2 * db.entries.len() * image.binaries.len()) as u64;

    let classified = counter("classify.pairs");
    let cold = hub.audit(&db, &image, &diff).unwrap();
    assert!(counter("classify.pairs") > classified, "the cold audit scores pairs");
    let stats_cold = hub.stats();
    assert_eq!((stats_cold.scan_hits, stats_cold.scan_misses), (0, scans));
    assert_eq!(stats_cold.scan_entries, scans, "one scan per (library, reference set)");

    let (classified, executed) = (counter("classify.pairs"), counter("vm.executions"));
    let warm = hub.audit(&db, &image, &diff).unwrap();
    assert_eq!(counter("classify.pairs"), classified, "a warm re-audit scores no pair");
    assert_eq!(counter("vm.executions"), executed, "a warm re-audit executes nothing");
    let delta = hub.stats().since(&stats_cold);
    assert_eq!((delta.scan_hits, delta.scan_misses), (scans, 0), "every scan is served");
    assert_eq!(delta.extractions, 0);
    assert_eq!(
        serde_json::to_string(&cold).unwrap(),
        serde_json::to_string(&warm).unwrap(),
        "the scan lane must not change audit results"
    );
}

/// A field of a serialized struct.
fn field<'a>(value: &'a mut Value, name: &str) -> &'a mut Value {
    match value {
        Value::Map(fields) => &mut fields.iter_mut().find(|(k, _)| k == name).expect(name).1,
        other => panic!("{name}: not a map: {other:?}"),
    }
}

/// The first item of a serialized sequence.
fn first(value: &mut Value) -> &mut Value {
    match value {
        Value::Seq(items) => &mut items[0],
        other => panic!("not a sequence: {other:?}"),
    }
}

/// `detector` with the lowest bit of its first weight flipped, through
/// the network's public field and serialized form.
fn one_weight_bit_flipped(mut detector: Detector) -> Detector {
    let mut net = serde_json::to_value(&detector.net);
    let weight = first(field(field(first(field(&mut net, "layers")), "w"), "data"));
    let bits = (weight.as_f64().unwrap() as f32).to_bits() ^ 1;
    *weight = Value::Float(f64::from(f32::from_bits(bits)));
    detector.net = serde::de::from_value_owned::<Mlp>(net).unwrap();
    detector
}

/// `detector` with its first normalizer mean nudged.
fn one_normalizer_statistic_changed(mut detector: Detector) -> Detector {
    let mut norm = serde_json::to_value(&detector.norm);
    let mean = first(field(&mut norm, "mean"));
    *mean = Value::Float(mean.as_f64().unwrap() + 1e-9);
    detector.norm = serde::de::from_value_owned::<Normalizer>(norm).unwrap();
    detector
}

/// `bin` with one byte of one function's code changed, choosing the
/// first change whose code still decodes.
fn one_code_byte_changed(bin: &Binary) -> Binary {
    for f in 0..bin.function_count() {
        for at in 0..bin.functions[f].code.len() {
            let mut changed = bin.clone();
            changed.functions[f].code[at] ^= 1;
            if DirectExtraction.features_all(&changed).is_ok() {
                return changed;
            }
        }
    }
    panic!("no one-byte change of {} decodes", bin.lib_name)
}

/// Everything a static scan reads is in its key. On one store, a scan
/// that changes exactly one input misses the lane (and then scores what
/// a fresh uncached scan scores), while a rename of the library alone
/// hits and is served under the requesting library's name and with the
/// time of the pass that served it.
#[test]
fn scan_key_covers_every_input() {
    let _guard = counter_lock();
    let db = small_db();
    let entry = &db.entries[0];
    let references = Patchecko::reference_feature_set(entry, Basis::Vulnerable).unwrap();
    assert!(references.len() >= 2, "the order case needs two rows");
    let bin = device(corpus::android_things_spec().seed).image.binaries[0].clone();
    assert!(bin.function_count() >= 2, "the order case needs two functions");
    let store = ArtifactStore::new();

    struct Case {
        what: &'static str,
        analyzer: Patchecko,
        store: ArtifactStore,
        bin: Binary,
        references: Vec<StaticFeatures>,
    }
    let base = || Case {
        what: "base",
        analyzer: analyzer(Retrieval::Exact),
        store: store.clone(),
        bin: bin.clone(),
        references: references.clone(),
    };
    let scan = |case: &Case| {
        case.analyzer.scan_library(&case.bin, &[&case.references], &case.store).unwrap().remove(0)
    };

    let cold = scan(&base());
    let before = store.stats();
    let warm = scan(&base());
    let delta = store.stats().since(&before);
    assert_eq!((delta.scan_hits, delta.scan_misses), (1, 0), "an unchanged scan hits");
    assert_eq!(scan_bits(&warm), scan_bits(&cold));

    let mut cases = Vec::new();
    let mut case = base();
    case.analyzer.detector = one_weight_bit_flipped(case.analyzer.detector);
    cases.push(Case { what: "one weight bit", ..case });
    let mut case = base();
    case.analyzer.detector.threshold += 0.01;
    cases.push(Case { what: "the threshold", ..case });
    let mut case = base();
    case.analyzer.detector = one_normalizer_statistic_changed(case.analyzer.detector);
    cases.push(Case { what: "one normalizer statistic", ..case });
    let mut case = base();
    case.references[0].0[0] += 1.0;
    cases.push(Case { what: "one reference row", ..case });
    let mut case = base();
    case.references.reverse();
    cases.push(Case { what: "the reference order", ..case });
    let mut case = base();
    case.bin = one_code_byte_changed(&bin);
    cases.push(Case { what: "one code byte of one function", ..case });
    let mut case = base();
    case.bin.imports.push("abort".to_string());
    cases.push(Case { what: "the no-return imports", ..case });
    let mut case = base();
    case.bin.functions[0].exported ^= true;
    cases.push(Case { what: "one export flag", ..case });
    let mut case = base();
    case.bin.functions[0].n_params += 1;
    cases.push(Case { what: "one parameter count", ..case });
    let mut case = base();
    case.bin.functions[0].frame_slots += 1;
    cases.push(Case { what: "one frame size", ..case });
    let mut case = base();
    case.bin.functions.swap(0, 1);
    cases.push(Case { what: "the function order", ..case });
    let k = references.len();
    cases.push(Case { what: "exact vs top-K", analyzer: analyzer(Retrieval::TopK { k }), ..base() });
    cases.push(Case { what: "the value of k", analyzer: analyzer(Retrieval::TopK { k: k + 1 }), ..base() });
    cases.push(Case { what: "the tenant", store: store.tenant("acme"), ..base() });

    for case in &cases {
        let before = store.stats();
        let served = scan(case);
        let delta = store.stats().since(&before);
        assert_eq!((delta.scan_hits, delta.scan_misses), (0, 1), "{} must miss", case.what);
        let fresh = case
            .analyzer
            .scan_library(&case.bin, &[&case.references], &DirectExtraction)
            .unwrap()
            .remove(0);
        assert_eq!(scan_bits(&served), scan_bits(&fresh), "{}: scored as uncached", case.what);
    }

    let renamed = Case { bin: Binary { lib_name: "librenamed".into(), ..bin.clone() }, ..base() };
    let before = store.stats();
    let served = scan(&renamed);
    let delta = store.stats().since(&before);
    assert_eq!((delta.scan_hits, delta.scan_misses), (1, 0), "a rename alone hits");
    assert_eq!(served.library, "librenamed", "served under the requesting library's name");
    assert!(served.seconds > 0.0, "served with the time of the pass that served it");
    let unnamed = |s: &StaticScan| StaticScan { library: String::new(), seconds: 0.0, ..s.clone() };
    assert_eq!(unnamed(&served), unnamed(&cold));
}

/// A firmware update that replaces one library re-scores that library
/// alone: its one scan per (CVE, basis) misses, every other library's
/// scans hit, and the findings equal a cold audit of the updated image.
#[test]
fn a_replaced_library_is_the_only_one_rescored() {
    let _guard = counter_lock();
    let db = small_db();
    let diff = DifferentialConfig::default();
    let image = device(corpus::android_things_spec().seed).image;
    let hub = ScanHub::new(analyzer(Retrieval::Exact));
    hub.audit(&db, &image, &diff).unwrap();

    let mut updated = image.clone();
    let replacement = device(corpus::android_things_spec().seed + 1).image.binaries.remove(0);
    assert_eq!(replacement.lib_name, updated.binaries[0].lib_name, "the same library, updated");
    assert_ne!(replacement, updated.binaries[0], "the update changes the library's code");
    updated.binaries[0] = replacement;

    let before = hub.stats();
    let rescanned = hub.audit(&db, &updated, &diff).unwrap();
    let delta = hub.stats().since(&before);
    let pairs = (2 * db.entries.len()) as u64;
    let others = (updated.binaries.len() - 1) as u64;
    assert_eq!(delta.scan_misses, pairs, "exactly the replaced library's scans miss");
    assert_eq!(delta.scan_hits, pairs * others, "every other library's scans hit");

    let cold = ScanHub::new(analyzer(Retrieval::Exact)).audit(&db, &updated, &diff).unwrap();
    assert_eq!(
        serde_json::to_string(&rescanned.findings).unwrap(),
        serde_json::to_string(&cold.findings).unwrap(),
        "an incremental re-audit finds what a cold audit of the update finds"
    );
}
