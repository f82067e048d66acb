//! The scan service: a trained analyzer bound to an artifact store.
//!
//! `ScanHub` is the long-lived object a deployment keeps between requests.
//! A run goes through the pipeline's own entry points
//! ([`Patchecko::analyze_image`], [`eval::audit_image`]) with a context
//! from [`ScanHub::tenant_view`] + [`TenantView::ctx`], so every
//! static-stage feature lookup — target functions, reference variants,
//! the differential engine's three-way comparison — routes through the
//! content-addressed store: the first scan of an image pays for
//! disassembly and feature extraction once and every later scan (new
//! CVE, other basis, re-audit after reboot via the on-disk layer) reuses
//! the artifacts. The dynamic stage routes through the store's dynamic
//! lane the same way: environment sets and per-function dynamic profiles
//! are cached by content, so a warm re-audit performs zero VM
//! executions. Entry points return typed [`ScanError`]s rather than
//! panicking; batch scheduling retries transient failures per the hub's
//! [`RetryPolicy`].

use crate::namespace::TenantView;
use crate::schedule::{self, FaultHook, JobRecord, JobSpec, RetryPolicy};
use crate::store::{ArtifactStore, CacheStats};
use corpus::vulndb::{DbEntry, VulnDb};
use fwbin::format::Binary;
use fwbin::FirmwareImage;
use patchecko_core::cancel::CancelToken;
use patchecko_core::differential::DifferentialConfig;
use patchecko_core::dynsource::DynProfileSource;
use patchecko_core::error::ScanError;
use patchecko_core::eval;
use patchecko_core::pipeline::{Basis, ImageAnalysis, Patchecko, StaticScan};
use patchecko_core::report::AuditReport;
use patchecko_core::stream::WorkingSet;
use scope::{MetricsRegistry, TelemetrySnapshot};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The persistent scan service.
pub struct ScanHub {
    /// The trained analyzer (detector + pipeline settings).
    pub analyzer: Patchecko,
    // Behind `Arc` so the store can also serve as the pipeline's shared
    // `Arc<dyn DynProfileSource>` (see [`ScanHub::dyn_source`]).
    store: Arc<ArtifactStore>,
    cache_dir: Option<PathBuf>,
    retry: RetryPolicy,
    fault_hook: Option<Arc<FaultHook>>,
}

impl ScanHub {
    /// A hub with a fresh in-memory store (and a fresh private metrics
    /// registry — see [`ScanHub::with_registry`]).
    pub fn new(analyzer: Patchecko) -> ScanHub {
        ScanHub::with_store(analyzer, Arc::new(ArtifactStore::new()), None)
    }

    /// A hub whose cache and scheduler counters record into `registry`.
    /// The CLI passes `scope::global_shared()` here so the whole
    /// command's telemetry — cache counters, scheduler counters, stage
    /// spans — lands in one registry and prints as one table.
    pub fn with_registry(analyzer: Patchecko, registry: Arc<MetricsRegistry>) -> ScanHub {
        ScanHub::with_store(analyzer, Arc::new(ArtifactStore::with_registry(registry)), None)
    }

    /// A hub whose store persists under `dir`: existing artifacts are
    /// loaded now, and [`ScanHub::persist`] writes back. Corrupt cache
    /// contents are quarantined during the load (see
    /// [`ArtifactStore::load`]), not propagated as errors.
    ///
    /// # Errors
    /// Propagates filesystem errors from reading the cache directory.
    pub fn with_cache_dir(analyzer: Patchecko, dir: impl Into<PathBuf>) -> std::io::Result<ScanHub> {
        ScanHub::with_cache_dir_and_registry(analyzer, dir, Arc::new(MetricsRegistry::new()))
    }

    /// [`ScanHub::with_cache_dir`] recording telemetry into `registry`.
    ///
    /// # Errors
    /// Propagates filesystem errors from reading the cache directory.
    pub fn with_cache_dir_and_registry(
        analyzer: Patchecko,
        dir: impl Into<PathBuf>,
        registry: Arc<MetricsRegistry>,
    ) -> std::io::Result<ScanHub> {
        let dir = dir.into();
        let store = Arc::new(ArtifactStore::load_with_registry(&dir, registry)?);
        Ok(ScanHub::with_store(analyzer, store, Some(dir)))
    }

    /// A hub around an *injected* store. This is the scan daemon's
    /// constructor: the daemon loads/owns the store itself (so it can
    /// also hand out per-tenant views of it) and tells the hub where
    /// [`ScanHub::persist`] should write (`None` disables persistence).
    pub fn with_store(
        analyzer: Patchecko,
        store: Arc<ArtifactStore>,
        cache_dir: Option<PathBuf>,
    ) -> ScanHub {
        ScanHub { analyzer, store, cache_dir, retry: RetryPolicy::default(), fault_hook: None }
    }

    /// The registry the hub's cache and scheduler counters live in.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        self.store.registry()
    }

    /// Replace the batch retry policy.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> ScanHub {
        self.retry = retry;
        self
    }

    /// The batch retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Install a pre-attempt fault hook (chaos testing seam — see
    /// [`schedule::FaultHook`]). Production deployments leave this unset.
    pub fn with_fault_hook(mut self, hook: Arc<FaultHook>) -> ScanHub {
        self.fault_hook = Some(hook);
        self
    }

    /// The artifact store.
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// The store viewed as the base namespace's dynamic-profile source.
    pub fn dyn_source(&self) -> Arc<dyn DynProfileSource> {
        // Kept: `hybridbench` wraps this in a tracing source.
        Arc::clone(&self.store) as Arc<dyn DynProfileSource>
    }

    /// Current cache counters.
    pub fn stats(&self) -> CacheStats {
        self.store.stats()
    }

    /// Write the store to the configured cache directory (no-op without
    /// one). Returns whether anything was written.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn persist(&self) -> std::io::Result<bool> {
        match &self.cache_dir {
            Some(dir) => {
                self.store.save(dir)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Static-stage scan of one library through the cache.
    ///
    /// # Errors
    /// Returns extraction failures from the target or reference builds.
    pub fn scan_library(
        &self,
        bin: &Binary,
        entry: &DbEntry,
        basis: Basis,
    ) -> Result<StaticScan, ScanError> {
        let references = Patchecko::reference_feature_set_with(entry, basis, &*self.store)?;
        self.analyzer.scan_library(bin, &references, &*self.store)
    }

    /// Ingest a stream of compiled units into the cache lanes (features
    /// plus retrieval signatures), holding at most `working_set` units in
    /// memory at any point. Later scans of the same content are served
    /// from the cache. Returns `(units, functions, peak_live)` — the peak
    /// comes from the same [`WorkingSet::drive`] loop as
    /// [`Patchecko::scan_stream`], so boundedness is provable, not
    /// inferred from RSS.
    ///
    /// # Errors
    /// Returns the first extraction failure; units already ingested stay
    /// cached.
    pub fn ingest_stream<I>(
        &self,
        units: I,
        working_set: usize,
    ) -> Result<(usize, usize, usize), ScanError>
    where
        I: IntoIterator<Item = Binary>,
    {
        use patchecko_core::pipeline::FeatureSource;
        let _span = scope::SpanGuard::enter("stream_ingest");
        let mut functions = 0usize;
        let (units, peak) = WorkingSet::drive(units, working_set, |_, bin| {
            let feats = self.store.features_all(&bin)?;
            let _sigs = self.store.signatures_all(&bin, &feats);
            functions += feats.len();
            Ok::<_, ScanError>(())
        })?;
        Ok((units, functions, peak))
    }

    /// `tenant`'s view of this hub's store: the full feature/dyn-profile
    /// surface with every cache key relocated into the tenant's
    /// namespace. The empty tenant is the identity view — the base
    /// namespace every un-namespaced caller shares.
    pub fn tenant_view(&self, tenant: &str) -> TenantView {
        TenantView::new(Arc::clone(&self.store), tenant)
    }

    /// [`Patchecko::analyze_image`] in `tenant`'s cache namespace with no
    /// deadline.
    ///
    /// # Errors
    /// Returns static-stage failures for any library in the image.
    pub fn scan_image_tenant(
        &self,
        image: &FirmwareImage,
        entry: &DbEntry,
        basis: Basis,
        tenant: &str,
    ) -> Result<ImageAnalysis, ScanError> {
        // Kept: `hybridbench` calls this name.
        let view = self.tenant_view(tenant);
        self.analyzer.analyze_image(image, entry, basis, &view.ctx(CancelToken::unbounded()))
    }

    /// [`eval::audit_image`] in the base namespace with no deadline:
    /// every static feature and dynamic profile served by the store.
    ///
    /// # Errors
    /// Returns transient failures (the caller may retry); permanent
    /// per-CVE failures are recorded inside the report instead.
    pub fn audit(
        &self,
        db: &VulnDb,
        image: &FirmwareImage,
        diff: &DifferentialConfig,
    ) -> Result<AuditReport, ScanError> {
        // Kept: `hybridbench` calls this name.
        let view = self.tenant_view("");
        eval::audit_image(&self.analyzer, db, image, diff, &view.ctx(CancelToken::unbounded()))
    }

    /// [`ScanHub::audit`], with the report's `telemetry` field filled by
    /// the movement of this hub's registry over the audit (merged with
    /// the global registry's movement — stage spans — when the hub uses a
    /// private registry). Plain [`ScanHub::audit`] leaves telemetry
    /// `None`, keeping warm/cold report bytes identical for callers that
    /// diff them.
    ///
    /// # Errors
    /// As for [`ScanHub::audit`].
    pub fn audit_with_telemetry(
        &self,
        db: &VulnDb,
        image: &FirmwareImage,
        diff: &DifferentialConfig,
    ) -> Result<AuditReport, ScanError> {
        let before = self.telemetry_snapshot();
        let mut report = self.audit(db, image, diff)?;
        report.telemetry = Some(self.telemetry_snapshot().since(&before));
        Ok(report)
    }

    /// One snapshot covering this hub's registry and — when the hub's
    /// registry is *not* already the global one — the global registry,
    /// where stage spans and library counters record. The `Arc::ptr_eq`
    /// guard prevents double-counting when the CLI wires the hub to
    /// `scope::global_shared()`.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let own = self.registry().snapshot();
        if Arc::ptr_eq(self.registry(), &scope::global_shared()) {
            own
        } else {
            own.merged(&scope::snapshot())
        }
    }

    /// Run a batch of scan jobs across the shared persistent worker pool
    /// (the same pool the GEMM kernels use — no per-batch thread
    /// spawning). The worker count honours `PipelineConfig::threads`
    /// ([`patchecko_core::pipeline::PipelineConfig::effective_threads`]).
    /// The hub, images, and database are taken behind `Arc` because pool
    /// tasks are `'static`. Transient job failures are retried per the
    /// hub's [`RetryPolicy`]; no job failure or panic propagates out of
    /// the batch.
    pub fn batch_audit(
        self: &Arc<Self>,
        images: &Arc<Vec<FirmwareImage>>,
        db: &Arc<VulnDb>,
        jobs: &[JobSpec],
    ) -> BatchReport {
        let _span = scope::SpanGuard::enter("batch_audit")
            .with_detail(format!("{} jobs / {} images", jobs.len(), images.len()));
        let started = Instant::now();
        let before = self.stats();
        let telemetry_before = self.telemetry_snapshot();
        let threads = self.analyzer.config.effective_threads();
        let records = schedule::run_jobs_with(
            self,
            images,
            db,
            jobs,
            threads,
            self.retry,
            self.fault_hook.clone(),
        );
        let seconds = started.elapsed().as_secs_f64();
        let functions: usize = images.iter().map(|i| i.total_functions()).sum();
        BatchReport {
            records,
            seconds,
            threads,
            images: images.len(),
            functions,
            cache: self.stats(),
            cache_delta: self.stats().since(&before),
            telemetry: Some(self.telemetry_snapshot().since(&telemetry_before)),
        }
    }
}

/// The outcome of one [`ScanHub::batch_audit`] run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchReport {
    /// Per-job records, in schedule order.
    pub records: Vec<JobRecord>,
    /// Batch wall-clock seconds.
    pub seconds: f64,
    /// Worker threads used.
    pub threads: usize,
    /// Images in the batch.
    pub images: usize,
    /// Total functions across those images.
    pub functions: usize,
    /// Store counters after the batch.
    pub cache: CacheStats,
    /// Counter movement caused by the batch alone.
    pub cache_delta: CacheStats,
    /// Registry movement caused by the batch alone: scheduler counters,
    /// cache counters, and stage-span timings (see
    /// [`ScanHub::telemetry_snapshot`]). `None` only in legacy persisted
    /// reports.
    #[serde(default)]
    pub telemetry: Option<scope::TelemetrySnapshot>,
}

impl BatchReport {
    /// Completed-job count.
    pub fn completed(&self) -> usize {
        self.records.iter().filter(|r| r.is_ok()).count()
    }

    /// Failed-job count. Failures are permanent by construction: the
    /// scheduler already retried every transient error.
    pub fn failed(&self) -> usize {
        self.records.len() - self.completed()
    }

    /// Records of jobs that failed permanently.
    pub fn failures(&self) -> impl Iterator<Item = &JobRecord> {
        self.records.iter().filter(|r| !r.is_ok())
    }

    /// Jobs that completed only after retries.
    pub fn retried(&self) -> impl Iterator<Item = &JobRecord> {
        self.records.iter().filter(|r| r.is_ok() && r.attempts > 1)
    }

    /// One line per failed job: `image/CVE/basis: error (after N attempts)`.
    pub fn failure_summary(&self) -> String {
        let mut out = String::new();
        for r in self.failures() {
            let error = r.error().map(ScanError::to_string).unwrap_or_default();
            out.push_str(&format!(
                "image {} / {} / {:?}: {} (after {} attempt{})\n",
                r.spec.image,
                r.spec.cve,
                r.spec.basis,
                error,
                r.attempts,
                if r.attempts == 1 { "" } else { "s" }
            ));
        }
        out
    }

    /// Jobs finished per wall-clock second.
    pub fn jobs_per_second(&self) -> f64 {
        if self.seconds > 0.0 {
            self.records.len() as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// Sum of per-job seconds (CPU-side throughput view: with N workers
    /// this exceeds wall-clock by up to N×).
    pub fn job_seconds(&self) -> f64 {
        self.records.iter().map(|r| r.seconds).sum()
    }
}
