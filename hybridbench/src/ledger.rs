//! The per-layer ledger: timing wrappers around the pipeline's two layer
//! seams, plus the arithmetic that turns them and the program's own stage
//! spans into per-operation layer figures.
//!
//! The pipeline reaches its feature layer through a `FeatureSource` and
//! its dynamic layer through a `DynProfileSource`. A traced run hands it
//! wrappers that time every call (busy time, summed over threads) and
//! note which program stage span (`static_scan`, `dynamic_stage`,
//! `differential`) the call ran under, so each stage's self time can be
//! separated from the layer calls nested inside it. Whatever an operation's
//! wall time leaves after the stage spans and the top-level layer calls is
//! reported as unattributed, not hidden.

use fwbin::format::Binary;
use patchecko_core::dynsource::{DynProfile, DynProfileSource, EnvSet};
use patchecko_core::error::ScanError;
use patchecko_core::features::StaticFeatures;
use patchecko_core::pipeline::FeatureSource;
use patchecko_core::retrieval::FunctionSignature;
use scope::TelemetrySnapshot;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vm::exec::VmConfig;
use vm::fuzz::FuzzConfig;
use vm::loader::LoadedBinary;

/// The program's stage spans a layer call can be nested in.
const STAGES: [&str; 3] = ["static_scan", "dynamic_stage", "differential"];

/// Every per-layer metric a traced run reports, with its unit, in report
/// order: the one list the layer code may fill. A layer a workload does
/// not exercise reports 0.
pub const METRICS: [(&str, &str); 20] = [
    ("latency_p10_ms", "ms"),
    ("latency_p50_ms", "ms"),
    ("features_ms", "ms"),
    ("features_calls", "count"),
    ("signatures_ms", "ms"),
    ("classify_ms", "ms"),
    ("envgen_ms", "ms"),
    ("envgen_calls", "count"),
    ("profile_ms", "ms"),
    ("profile_calls", "count"),
    ("dynamic_stage_ms", "ms"),
    ("differential_ms", "ms"),
    ("server_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("unattributed_share", "ratio"),
    ("cache_hits", "count"),
    ("cache_misses", "count"),
    ("vm_executions", "count"),
    ("index_candidates", "count"),
    ("pool_dispatches", "count"),
];

/// The figures of `layers` as `(name, value, unit)` rows in `METRICS`
/// order, 0 for a layer not measured.
///
/// # Panics
/// If `layers` holds a name `METRICS` does not list: a figure must not
/// be dropped silently.
pub fn report(layers: &BTreeMap<&'static str, f64>) -> Vec<(&'static str, f64, &'static str)> {
    if let Some(name) = layers
        .keys()
        .find(|n| !METRICS.iter().any(|(m, _)| m == *n))
    {
        panic!("layer metric {name} is missing from ledger::METRICS");
    }
    METRICS
        .iter()
        .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

thread_local! {
    static OP_THREAD: Cell<bool> = const { Cell::new(false) };
}

/// Mark the current thread as the one that issues benchmark operations:
/// layer calls made on it outside any stage span count as top-level work.
pub fn mark_op_thread() {
    OP_THREAD.with(|f| f.set(true));
}

#[derive(Default)]
struct Layer {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Layer {
    fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn ms(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 / 1e6
    }
}

/// Call counts and busy time per layer, plus where the calls were nested.
#[derive(Default)]
pub struct Ledger {
    features: Layer,
    signatures: Layer,
    envgen: Layer,
    profile: Layer,
    /// Busy time of layer calls nested in each stage span, by `STAGES` index.
    nested_ns: [AtomicU64; 3],
    /// Busy time of layer calls on the operation thread outside any stage.
    top_level_ns: AtomicU64,
}

impl Ledger {
    fn time<T>(&self, layer: &Layer, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        let ns = started.elapsed().as_nanos() as u64;
        layer.calls.fetch_add(1, Ordering::Relaxed);
        layer.ns.fetch_add(ns, Ordering::Relaxed);
        let stack = scope::span::current_stack();
        match stack
            .iter()
            .rev()
            .find_map(|n| STAGES.iter().position(|s| s == n))
        {
            Some(stage) => self.nested_ns[stage].fetch_add(ns, Ordering::Relaxed),
            None if OP_THREAD.with(Cell::get) => self.top_level_ns.fetch_add(ns, Ordering::Relaxed),
            None => 0,
        };
        out
    }

    fn nested_ms(&self, stage: usize) -> f64 {
        self.nested_ns[stage].load(Ordering::Relaxed) as f64 / 1e6
    }
}

/// A `FeatureSource` that times every call into the wrapped source.
pub struct TracedFeatures<'a> {
    pub inner: &'a dyn FeatureSource,
    pub ledger: &'a Ledger,
}

impl FeatureSource for TracedFeatures<'_> {
    fn features_all(&self, bin: &Binary) -> Result<Vec<StaticFeatures>, ScanError> {
        self.ledger
            .time(&self.ledger.features, || self.inner.features_all(bin))
    }

    fn features_one(&self, bin: &Binary, idx: usize) -> Result<StaticFeatures, ScanError> {
        self.ledger
            .time(&self.ledger.features, || self.inner.features_one(bin, idx))
    }

    fn signatures_all(&self, bin: &Binary, feats: &[StaticFeatures]) -> Vec<FunctionSignature> {
        self.ledger.time(&self.ledger.signatures, || {
            self.inner.signatures_all(bin, feats)
        })
    }
}

/// A `DynProfileSource` that times every call into the wrapped source.
pub struct TracedDyn {
    pub inner: Arc<dyn DynProfileSource>,
    pub ledger: Arc<Ledger>,
}

impl DynProfileSource for TracedDyn {
    fn environments(
        &self,
        reference: &LoadedBinary,
        fuzz_cfg: &FuzzConfig,
        vm: &VmConfig,
    ) -> Result<EnvSet, ScanError> {
        self.ledger.time(&self.ledger.envgen, || {
            self.inner.environments(reference, fuzz_cfg, vm)
        })
    }

    fn profile(
        &self,
        target: &LoadedBinary,
        func: usize,
        envs: &EnvSet,
        vm: &VmConfig,
    ) -> Result<DynProfile, ScanError> {
        self.ledger.time(&self.ledger.profile, || {
            self.inner.profile(target, func, envs, vm)
        })
    }
}

/// Total milliseconds recorded by the program span `name` in `snap`.
pub fn span_ms(snap: &TelemetrySnapshot, name: &str) -> f64 {
    snap.duration(&format!("span.{name}"))
        .map_or(0.0, |d| d.total_ns as f64 / 1e6)
}

/// Per-operation layer figures of a traced run. `snap` is the movement of
/// the global registry over the measured region, `op_ms` the summed wall
/// time of the `ops` operations.
pub fn layer_metrics(
    ledger: &Ledger,
    snap: &TelemetrySnapshot,
    ops: u64,
    op_ms: f64,
) -> BTreeMap<&'static str, f64> {
    let per_op = |v: f64| v / ops.max(1) as f64;
    let stage_ms: Vec<f64> = STAGES.iter().map(|s| span_ms(snap, s)).collect();
    let classify = stage_ms[0] - ledger.nested_ms(0);
    let differential = stage_ms[2] - ledger.nested_ms(2);
    let top_level = ledger.top_level_ns.load(Ordering::Relaxed) as f64 / 1e6;
    let unattributed = (op_ms - stage_ms.iter().sum::<f64>() - top_level).max(0.0);
    let mut m = BTreeMap::new();
    m.insert("features_ms", per_op(ledger.features.ms()));
    m.insert("features_calls", per_op(ledger.features.calls() as f64));
    m.insert("signatures_ms", per_op(ledger.signatures.ms()));
    m.insert("classify_ms", per_op(classify.max(0.0)));
    m.insert("envgen_ms", per_op(ledger.envgen.ms()));
    m.insert("envgen_calls", per_op(ledger.envgen.calls() as f64));
    m.insert("profile_ms", per_op(ledger.profile.ms()));
    m.insert("profile_calls", per_op(ledger.profile.calls() as f64));
    m.insert("dynamic_stage_ms", per_op(stage_ms[1]));
    m.insert("differential_ms", per_op(differential.max(0.0)));
    m.insert("unattributed_ms", per_op(unattributed));
    m.insert(
        "unattributed_share",
        if op_ms > 0.0 {
            unattributed / op_ms
        } else {
            0.0
        },
    );
    m.insert(
        "vm_executions",
        per_op(snap.counter("vm.executions") as f64),
    );
    m.insert(
        "index_candidates",
        per_op(snap.counter("index.candidates") as f64),
    );
    m.insert(
        "pool_dispatches",
        per_op(snap.counter("pool.dispatches") as f64),
    );
    m
}
