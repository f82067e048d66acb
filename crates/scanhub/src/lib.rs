//! # patchecko-scanhub — the persistent scan service
//!
//! The one-shot pipeline in `patchecko-core` re-disassembles every
//! function, re-extracts all 48 Table-I features, and classifies pairs on
//! every invocation. At fleet scale — many CVEs against many firmware
//! images, most functions byte-identical between image revisions — that
//! repeated work dominates. This crate turns the pipeline into a reusable
//! service:
//!
//! * [`key`] — content-addressed [`ArtifactKey`]s: a stable 128-bit hash
//!   of a function's code bytes, architecture, extractor-relevant record
//!   metadata, and the feature-schema version;
//! * `lane` — one generic cache lane: a sharded map of checksummed
//!   values with hit/miss/quarantine counters, single-flight computation
//!   on a miss, and an on-disk document that is quarantined, never
//!   served, when damaged;
//! * [`store`] — the [`ArtifactStore`], four lanes behind the pipeline's
//!   seams: static feature vectors
//!   ([`StaticFeatures`](patchecko_core::features::StaticFeatures)),
//!   execution-environment sets, dynamic profiles (so a warm re-audit
//!   performs zero VM executions — the store implements
//!   [`DynProfileSource`](patchecko_core::dynsource::DynProfileSource))
//!   and finished static scans, one per (library, reference set), keyed
//!   by the model, the reference set and the library's content (so a
//!   warm re-audit scores nothing, and a firmware update that changes
//!   one library re-scores only that library — the store is the
//!   pipeline's [`ScanStore`](patchecko_core::pipeline::ScanStore)),
//!   each persisted to its own file ([`LANE_FILES`]). Retrieval
//!   signatures for `--retrieval topk` are recomputed from the cached
//!   features, not cached. The store is a cheap-to-clone handle: the
//!   shared lanes plus a namespace salt. [`ArtifactStore::tenant`]
//!   returns the same lanes under a tenant's salt, so co-resident tenants
//!   (the scan daemon's clients) never observe each other's artifacts,
//!   and [`ArtifactStore::ctx`] builds the pipeline's
//!   [`RunCtx`](patchecko_core::pipeline::RunCtx) in the handle's
//!   namespace (tenant `""` is the base namespace). Every store records
//!   its counters into a private `scope` registry of its own;
//! * [`schedule`] — the (image × CVE × basis) job scheduler over the
//!   shared persistent worker pool ([`neural::pool`]), with per-job
//!   wall-clock budgets, timing, and graceful failure records;
//! * [`hub`] — [`ScanHub`], binding a trained
//!   [`Patchecko`](patchecko_core::pipeline::Patchecko) analyzer to a
//!   store so scans, audits, and batches all reuse cached artifacts;
//!   [`ScanHub::telemetry_snapshot`] reports the store's registry merged
//!   with the process-global one, where stage spans record.
//!
//! ## Example
//!
//! ```no_run
//! use patchecko_core::pipeline::{Basis, Patchecko, PipelineConfig};
//! use patchecko_scanhub::{schedule, ScanHub};
//!
//! # fn main() -> std::io::Result<()> {
//! # let detector: patchecko_core::detector::Detector = unimplemented!();
//! use std::sync::Arc;
//! let hub = Arc::new(ScanHub::with_cache_dir(
//!     Patchecko::new(detector, PipelineConfig::default()),
//!     "/var/cache/patchecko",
//! )?);
//! let db = Arc::new(corpus::build_vulndb(0, 1));
//! let images = Arc::new(vec![/* loaded FirmwareImages */]);
//! let jobs = schedule::full_schedule(images.len(), &db, &[Basis::Vulnerable]);
//! let report = hub.batch_audit(&images, &db, &jobs);
//! println!("{} jobs, cache {}", report.records.len(), report.cache);
//! hub.persist()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hub;
pub mod key;
mod lane;
pub mod schedule;
pub mod store;
#[cfg(test)]
pub(crate) mod testfix;

pub use hub::{BatchReport, ScanHub};
pub use key::{tenant_salt, ArtifactKey, SCHEMA_VERSION};
pub use schedule::{
    full_schedule, run_jobs, FaultHook, JobOutcome, JobRecord, JobSpec, RetryPolicy,
};
pub use store::{
    ArtifactStore, CacheStats, ARTIFACTS_FILE, DYN_ENVSETS_FILE, DYN_PROFILES_FILE,
    LANE_FILES, SCANS_FILE,
};
