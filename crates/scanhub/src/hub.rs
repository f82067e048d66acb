//! The scan service: a trained analyzer bound to an artifact store.
//!
//! `ScanHub` is the long-lived object a deployment keeps between requests.
//! A run goes through the pipeline's own entry points
//! ([`Patchecko::analyze_image`], [`eval::audit_image`]) with a context
//! from [`ArtifactStore::ctx`], on the hub's store or on a
//! [`ScanHub::tenant_view`], so every static-stage feature lookup —
//! target functions, reference variants, the differential engine's
//! three-way comparison — routes through the content-addressed store:
//! the first scan of an image pays for disassembly and feature
//! extraction once and every later scan (new CVE, other basis, re-audit
//! after reboot via the on-disk layer) reuses the artifacts. The dynamic
//! stage routes through the store's dynamic lanes the same way:
//! environment sets and per-function dynamic profiles are cached by
//! content, so a warm re-audit performs zero VM executions. The static
//! pass keeps its finished scans in the store's scan lane, one per
//! (library, reference set), so a warm re-audit scores no pair either,
//! and an updated image re-scores only the libraries that changed.
//! Entry points return typed [`ScanError`]s rather than panicking; batch
//! scheduling retries transient failures per the hub's [`RetryPolicy`].

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
use scope::{MetricsRegistry, TelemetrySnapshot};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The persistent scan service.
pub struct ScanHub {
    /// The trained analyzer (detector + pipeline settings).
    pub analyzer: Patchecko,
    store: ArtifactStore,
    cache_dir: Option<PathBuf>,
    retry: RetryPolicy,
    fault_hook: Option<Arc<FaultHook>>,
}

impl ScanHub {
    /// A hub with a fresh in-memory store.
    pub fn new(analyzer: Patchecko) -> ScanHub {
        ScanHub::over(analyzer, ArtifactStore::new(), None)
    }

    /// A hub whose store persists under `dir`: existing artifacts are
    /// loaded now, and [`ScanHub::persist`] writes back. Corrupt cache
    /// contents are quarantined during the load (see
    /// [`ArtifactStore::load`]), not propagated as errors.
    ///
    /// # Errors
    /// Propagates filesystem errors from reading the cache directory.
    pub fn with_cache_dir(analyzer: Patchecko, dir: impl Into<PathBuf>) -> std::io::Result<ScanHub> {
        let dir = dir.into();
        Ok(ScanHub::over(analyzer, ArtifactStore::load(&dir)?, Some(dir)))
    }

    /// A hub over `store`, persisting to `cache_dir` when one is given.
    fn over(analyzer: Patchecko, store: ArtifactStore, cache_dir: Option<PathBuf>) -> ScanHub {
        ScanHub { analyzer, store, cache_dir, retry: RetryPolicy::default(), fault_hook: None }
    }

    /// The registry the hub's cache and scheduler counters live in: the
    /// store's own.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        self.store.registry()
    }

    /// Replace the batch retry policy.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> ScanHub {
        self.retry = retry;
        self
    }

    /// Install a pre-attempt fault hook (chaos testing seam — see
    /// [`schedule::FaultHook`]). Production deployments leave this unset.
    pub fn with_fault_hook(mut self, hook: Arc<FaultHook>) -> ScanHub {
        self.fault_hook = Some(hook);
        self
    }

    /// The artifact store, in the base namespace.
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// The store as the base namespace's dynamic-profile source.
    pub fn dyn_source(&self) -> Arc<dyn DynProfileSource> {
        // Kept: `hybridbench` wraps this in a tracing source.
        Arc::new(self.store.clone())
    }

    /// Current cache counters.
    pub fn stats(&self) -> CacheStats {
        self.store.stats()
    }

    /// Write the store to the configured cache directory (no-op without
    /// one). Returns whether any lane file was written: `false` without a
    /// directory, and when every lane file there already holds exactly
    /// its lane ([`ArtifactStore::save`]), as after a warm run.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn persist(&self) -> std::io::Result<bool> {
        match &self.cache_dir {
            Some(dir) => self.store.save(dir),
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
        let references = Patchecko::reference_feature_set_with(entry, basis, &self.store)?;
        let mut scans = self.analyzer.scan_library(bin, &[&references], &self.store)?;
        Ok(scans.pop().expect("one scan per reference set"))
    }

    /// This hub's store in `tenant`'s namespace ([`ArtifactStore::tenant`]):
    /// the same lanes, counters and registry, with every cache key
    /// relocated by the tenant's salt. The empty tenant is the base
    /// namespace.
    pub fn tenant_view(&self, tenant: &str) -> ArtifactStore {
        self.store.tenant(tenant)
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
        let ctx = view.ctx(CancelToken::unbounded());
        let mut analyses = self.analyzer.analyze_image(image, &[(entry, basis)], &ctx)?;
        Ok(analyses.pop().expect("one analysis per pair"))
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
        let ctx = self.store.ctx(CancelToken::unbounded());
        eval::audit_image(&self.analyzer, db, image, diff, &ctx)
    }

    /// [`ScanHub::audit`], with the report's `telemetry` field filled by
    /// the movement of [`ScanHub::telemetry_snapshot`] over the audit.
    /// Plain [`ScanHub::audit`] leaves telemetry `None`, keeping warm/cold
    /// report bytes identical for callers that diff them.
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

    /// One snapshot covering this hub's registry (cache, scheduler and
    /// daemon counters) merged with the process-global registry (stage
    /// spans and library counters such as `vm.executions`). No hub
    /// records into the global registry, so nothing is counted twice.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        self.registry().snapshot().merged(&scope::snapshot())
    }

    /// Run a batch of scan jobs across the shared persistent worker pool
    /// (the same pool classify chunks and candidate profiling use — no
    /// per-batch thread spawning). The worker count honours
    /// `PipelineConfig::threads`
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
        let records =
            schedule::run_jobs(self, images, db, jobs, self.retry, self.fault_hook.clone());
        let seconds = started.elapsed().as_secs_f64();
        let functions: usize = images.iter().map(|i| i.total_functions()).sum();
        BatchReport {
            records,
            seconds,
            threads: self.analyzer.config.effective_threads(),
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
