//! Pipeline stage timings — the "DP" (deep learning) and "DA" (dynamic
//! analysis) columns of Tables VI/VII as micro-benchmarks: static feature
//! extraction + classification per library, execution validation and
//! dynamic profiling per candidate, and Minkowski ranking.

use criterion::{criterion_group, BatchSize, Criterion};
use std::hint::black_box;
use corpus::dataset1::Dataset1Config;
use neural::net::TrainConfig;
use patchecko_core::detector::{self, Detector, DetectorConfig};
use patchecko_core::pipeline::{Basis, DirectExtraction, Patchecko, PipelineConfig, RunCtx};
use patchecko_core::{features, similarity};
use std::sync::Arc;
use vm::loader::LoadedBinary;

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

fn bench_stages(c: &mut Criterion) {
    let patchecko = Patchecko::new(small_detector(), PipelineConfig::default());
    let db = corpus::build_vulndb(0, 1);
    let entry = db.get("CVE-2018-9412").unwrap();
    let catalog = corpus::full_catalog();
    let device = corpus::build_device(&corpus::android_things_spec(), &catalog, 0.1);
    let truth = device.truth_for("CVE-2018-9412").unwrap();
    let bin = device.image.binary(&truth.library).unwrap().clone();
    let references = Patchecko::reference_feature_set(entry, Basis::Vulnerable).unwrap();

    // DP column: whole-library static scan (features + batched NN forward).
    c.bench_function("static_stage/scan_library_56fn", |b| {
        b.iter(|| black_box(patchecko.scan_library(&bin, &[&references], &DirectExtraction).unwrap()))
    });

    // Feature extraction alone (the IDA-plugin analog).
    c.bench_function("static_stage/extract_features_library", |b| {
        b.iter(|| black_box(features::extract_all(&bin).unwrap()))
    });

    // DA column: dynamic stage over the scan's candidate set.
    let scan = patchecko.scan_library(&bin, &[&references], &DirectExtraction).unwrap().remove(0);
    let target_loaded = Arc::new(LoadedBinary::load(bin.clone()).unwrap());
    let dynsrc = RunCtx::default().profiles;
    let stage = || patchecko.dynamic_stage(&target_loaded, &scan, entry, Basis::Vulnerable, &dynsrc);
    c.bench_function("dynamic_stage/validate_and_profile", |b| b.iter(|| black_box(stage())));

    // Single-function execution with tracing (one candidate, one of the
    // stage's environments, which both reference builds survive).
    let dynamic = stage();
    let env = dynamic.envs[0].clone();
    c.bench_function("dynamic_stage/single_run_traced", |b| {
        b.iter(|| {
            black_box(target_loaded.run_any(truth.function_index, &env, &patchecko.config.vm))
        })
    });

    // Ranking: Minkowski over profiled candidates (paper Eq. 1-2). The
    // stage has no internal span, so record it through a registry timer —
    // the bucket lands next to the pipeline's own `span.*` histograms.
    let rank_timer = scope::global().timer("span.similarity_rank");
    c.bench_function("similarity/rank_candidates", |b| {
        b.iter_batched(
            || dynamic.profiles.clone(),
            |profiles| {
                black_box(rank_timer.time(|| similarity::rank(&dynamic.reference_profile, &profiles, 3.0)))
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_stages
}

fn main() {
    benches();
    // Every `scan_library` / `dynamic_stage` iteration above recorded its
    // wall time into the global scope registry via the pipeline's own
    // spans; surface the accumulated histograms alongside Criterion's
    // numbers so both views come from the same instrumented run.
    patchecko_bench::print_telemetry("stage_times");
}
