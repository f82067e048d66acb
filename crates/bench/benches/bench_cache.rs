//! Scanhub speedups: cold vs warm cache-backed scans, and per-pair vs
//! batched classifier inference.
//!
//! The warm path is the service's steady state — the store's scan lane
//! serves the finished scan, so neither feature lookup nor the NN forward
//! pass remains (before that lane existed, the warm row timed feature
//! lookups plus the forward pass). The inference pair shows what one
//! GEMM per layer buys over row-at-a-time forward passes.

use criterion::{criterion_group, BatchSize, Criterion};
use std::hint::black_box;
use corpus::dataset1::Dataset1Config;
use neural::net::TrainConfig;
use patchecko_core::detector::{self, Detector, DetectorConfig};
use patchecko_core::features::StaticFeatures;
use patchecko_core::pipeline::{Basis, Patchecko, PipelineConfig};
use patchecko_scanhub::{ArtifactStore, ScanHub};

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

fn bench_cache(c: &mut Criterion) {
    let analyzer = Patchecko::new(small_detector(), PipelineConfig::default());
    let db = corpus::build_vulndb(0, 1);
    let entry = db.get("CVE-2018-9412").unwrap();
    let device = corpus::build_device(&corpus::android_things_spec(), &corpus::full_catalog(), 0.1);
    let truth = device.truth_for("CVE-2018-9412").unwrap();
    let bin = device.image.binary(&truth.library).unwrap().clone();

    // Cold: every iteration starts from an empty store, paying full
    // disassembly + feature extraction for targets and references.
    c.bench_function("cache/scan_library_cold", |b| {
        b.iter_batched(
            || ScanHub::new(Patchecko::new(analyzer.detector.clone(), PipelineConfig::default())),
            |hub| black_box(hub.scan_library(&bin, entry, Basis::Vulnerable).unwrap()),
            BatchSize::SmallInput,
        )
    });

    // Warm: the steady state — the shared store already holds the
    // finished scan, so the scan is the reference lookups, the key
    // derivation and one scan-lane hit. Its merged snapshot, printed at
    // the end, shows the hit/miss ledger for the whole warm sweep.
    let warm_hub =
        ScanHub::new(Patchecko::new(analyzer.detector.clone(), PipelineConfig::default()));
    warm_hub.scan_library(&bin, entry, Basis::Vulnerable).unwrap();
    c.bench_function("cache/scan_library_warm", |b| {
        b.iter(|| black_box(warm_hub.scan_library(&bin, entry, Basis::Vulnerable).unwrap()))
    });

    // Store-only view of the same contrast: features_all through an empty
    // vs a populated store.
    c.bench_function("cache/features_all_cold", |b| {
        b.iter_batched(
            ArtifactStore::new,
            |store| {
                use patchecko_core::pipeline::FeatureSource;
                black_box(store.features_all(&bin).unwrap())
            },
            BatchSize::SmallInput,
        )
    });
    let warm_store = ArtifactStore::new();
    {
        use patchecko_core::pipeline::FeatureSource;
        warm_store.features_all(&bin).unwrap();
    }
    c.bench_function("cache/features_all_warm", |b| {
        use patchecko_core::pipeline::FeatureSource;
        b.iter(|| black_box(warm_store.features_all(&bin).unwrap()))
    });

    // Inference: classify every (reference × target) pair one row at a
    // time vs one matrix through the network.
    let det = &analyzer.detector;
    let references = Patchecko::reference_feature_set(entry, Basis::Vulnerable).unwrap();
    let targets = {
        use patchecko_core::pipeline::FeatureSource;
        patchecko_core::pipeline::DirectExtraction.features_all(&bin).unwrap()
    };
    let pairs: Vec<(&StaticFeatures, &StaticFeatures)> =
        references.iter().flat_map(|r| targets.iter().map(move |t| (r, t))).collect();
    c.bench_function("inference/per_pair_531", |b| {
        b.iter(|| {
            let probs: Vec<f32> = pairs.iter().map(|(r, t)| det.similarity(r, t)).collect();
            black_box(probs)
        })
    });
    c.bench_function("inference/batched_531", |b| {
        b.iter(|| black_box(det.classify_batch(&pairs)))
    });

    // The warm hub's cache counters merged with every scan's pipeline
    // spans from the global registry.
    patchecko_bench::print_snapshot("bench_cache", &warm_hub.telemetry_snapshot());
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_cache
}

fn main() {
    benches();
}
