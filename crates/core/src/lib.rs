//! # patchecko-core — the PATCHECKO analysis framework
//!
//! Reproduction of the hybrid vulnerability and patch-presence detection
//! pipeline of *"Hybrid Firmware Analysis for Known Mobile and IoT Security
//! Vulnerabilities"* (DSN 2020):
//!
//! * [`features`] — the 48 static function features of Table I and the
//!   pair-input normalizer;
//! * [`detector`] — the 6-layer deep-learning pair classifier trained on
//!   Dataset I (Figure 4 / Figure 8);
//! * [`pipeline`] — the Figure 1 workflow: static scan → execution
//!   validation → dynamic profiling → Minkowski ranking;
//! * [`dynsource`] — where the dynamic stage gets execution environments
//!   and dynamic profiles from (live execution, or scanhub's cached
//!   dynamic lane for zero-VM warm re-audits);
//! * [`similarity`] — Equations 1–2 (Minkowski p = 3 over the 21 Table II
//!   dynamic features, averaged over execution environments);
//! * [`differential`] — the §III-D patch-presence engine;
//! * [`baseline`] — BinDiff-style bipartite matching and the Gemini-style
//!   structure2vec static baseline;
//! * [`eval`] — the §V harness producing the rows of Tables VI–VIII and
//!   the series of Figures 7–8.
//!
//! ## Quick start
//!
//! ```no_run
//! use patchecko_core::eval::{build_evaluation, EvaluationConfig};
//! use patchecko_core::pipeline::Basis;
//!
//! // Build datasets, train the detector, construct both device images.
//! let ev = build_evaluation(&EvaluationConfig::default());
//! println!("detector accuracy: {:.1}%", ev.metrics.accuracy * 100.0);
//!
//! // Table VI: hybrid accuracy per CVE on Android Things, vulnerable basis.
//! for row in ev.table_rows(0, Basis::Vulnerable) {
//!     println!("{}: FP {:.2}% rank {:?}", row.cve, row.fp_percent, row.ranking);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod cancel;
pub mod detector;
pub mod differential;
pub mod dynsource;
pub mod error;
pub mod eval;
pub mod features;
pub mod pipeline;
pub mod report;
pub mod retrieval;
pub mod similarity;
pub mod stream;
#[cfg(test)]
mod testutil;

pub use cancel::CancelToken;
pub use detector::{Detector, DetectorConfig, TestMetrics};
pub use differential::{detect_patch, DifferentialConfig, PatchVerdict};
pub use dynsource::{DynProfile, DynProfileSource, EnvSet, LiveProfiling};
pub use error::{ErrorClass, ScanError};
pub use eval::{build_evaluation, Evaluation, EvaluationConfig};
pub use features::{Normalizer, StaticFeatures, NUM_STATIC_FEATURES, STATIC_FEATURE_NAMES};
pub use pipeline::{
    Basis, Confidence, CveAnalysis, DirectExtraction, FeatureSource, ImageAnalysis, ImageMatch,
    Patchecko, PipelineConfig, RunCtx,
};
pub use report::{AuditFinding, AuditReport, AuditStatus};
pub use retrieval::{FunctionSignature, Retrieval, SignatureSet, DEFAULT_TOP_K};
pub use stream::{StreamMatch, StreamScanReport, WorkingSet, WorkingSetPermit};
pub use similarity::{minkowski, rank, rank_of, sim_over_envs, RankedCandidate, PAPER_P};
