//! The typed scan-error taxonomy.
//!
//! §III-B of the paper defines the dynamic stage by its failure modes —
//! candidates that "terminate, trigger a system exception, or go into an
//! infinite loop" — and a long-running scan service inherits the same
//! concern everywhere else: corrupt cached artifacts, malformed firmware
//! images, worker deaths. [`ScanError`] names every failure the pipeline
//! can produce and classifies each as *transient* (retrying can succeed:
//! a worker died, an injected fault fired, a cached artifact was
//! quarantined and will be re-extracted) or *permanent* (retrying cannot
//! help: the input itself is malformed or the request names something
//! that does not exist). The scanhub scheduler retries transient
//! failures with bounded backoff and records permanent ones without
//! taking down the batch.

use serde::{Deserialize, Serialize};

/// Retry classification of a [`ScanError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorClass {
    /// A retry may succeed (worker death, injected fault, quarantined
    /// cache entry, filesystem hiccup).
    Transient,
    /// A retry cannot succeed (malformed input, unknown identifier).
    Permanent,
}

impl std::fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ErrorClass::Transient => "transient",
            ErrorClass::Permanent => "permanent",
        })
    }
}

/// Every failure the scan/audit path can surface. All payloads are plain
/// strings so the error serializes into job records and CLI `--json`
/// output.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScanError {
    /// A binary failed to load: malformed FWB container or undecodable
    /// function code (the loader's [`vm::LoadError`] with its
    /// section/offset context, plus which library it came from).
    Load {
        /// Library name of the failing binary.
        library: String,
        /// Loader detail (function index, section, byte offset).
        detail: String,
    },
    /// Static feature extraction failed on one function (corrupt code
    /// bytes reached the disassembler).
    Extraction {
        /// Library name of the binary under extraction.
        library: String,
        /// Function-table index that failed.
        function: usize,
        /// Decoder detail (opcode/offset).
        detail: String,
    },
    /// A cached artifact failed checksum/schema validation and was
    /// quarantined. Transient by construction: the quarantined entry is
    /// evicted, so a retry re-extracts from the binary.
    CorruptArtifact {
        /// Hex artifact key, when one was recoverable.
        key: String,
        /// What failed to validate.
        detail: String,
    },
    /// A worker panicked mid-job (the scheduler's `catch_unwind` caught
    /// it). Transient: the job re-runs on a healthy worker.
    WorkerPanic {
        /// Stringified panic payload.
        detail: String,
    },
    /// A fault injected by the `faultline` chaos layer. Always transient
    /// — injected faults fire once per schedule point and must be retried
    /// away without a trace in the final results.
    Injected {
        /// Injection site (e.g. `features_all`).
        site: String,
        /// Schedule detail (seed, call index).
        detail: String,
    },
    /// The job names a CVE absent from the vulnerability database.
    UnknownCve(String),
    /// The job names an image index outside the batch.
    ImageOutOfRange {
        /// Requested image index.
        index: usize,
        /// Number of images in the batch.
        images: usize,
    },
    /// Filesystem failure in the artifact store's disk layer.
    Io {
        /// Path involved.
        path: String,
        /// OS error detail.
        detail: String,
    },
    /// The scan service's admission queue is full. Transient by
    /// definition — the caller should back off for `retry_after_ms` and
    /// resubmit; the daemon sheds load instead of queueing unboundedly.
    Overloaded {
        /// Requests queued when admission was refused.
        queue_depth: usize,
        /// The admission limit that was hit.
        queue_limit: usize,
        /// Suggested client backoff before resubmitting, milliseconds.
        retry_after_ms: u64,
    },
    /// The request's end-to-end deadline passed before a result could be
    /// produced: either the job was discarded at the queue head without
    /// burning an executor slot, an executor (or a scheduler attempt past
    /// its per-attempt budget) observed expiry between pipeline stages,
    /// or a deduped follower timed out while the leader was still
    /// executing. Transient: a retry with a fresh (or larger) budget may
    /// succeed.
    DeadlineExceeded {
        /// The end-to-end budget the request carried, milliseconds.
        budget_ms: u64,
    },
    /// A per-tenant quota (token-bucket rate or max-in-flight cap) was
    /// exceeded. Transient by definition — the tenant should back off for
    /// `retry_after_ms`; other tenants are unaffected.
    QuotaExceeded {
        /// The tenant whose quota was hit.
        tenant: String,
        /// Suggested backoff before resubmitting, milliseconds.
        retry_after_ms: u64,
    },
    /// The scan service is draining: in-flight work finishes, new work is
    /// refused. Transient from the fleet's perspective (another instance,
    /// or this one after restart, can serve the request).
    Draining,
    /// A malformed wire-protocol frame or request (bad length prefix,
    /// truncated payload, unparseable JSON). Permanent: resending the
    /// same bytes cannot help.
    Protocol {
        /// What failed to parse or frame.
        detail: String,
    },
}

impl ScanError {
    /// Retry classification.
    pub fn class(&self) -> ErrorClass {
        match self {
            ScanError::Load { .. }
            | ScanError::Extraction { .. }
            | ScanError::UnknownCve(_)
            | ScanError::ImageOutOfRange { .. }
            | ScanError::Protocol { .. } => ErrorClass::Permanent,
            ScanError::CorruptArtifact { .. }
            | ScanError::WorkerPanic { .. }
            | ScanError::Injected { .. }
            | ScanError::Io { .. }
            | ScanError::Overloaded { .. }
            | ScanError::DeadlineExceeded { .. }
            | ScanError::QuotaExceeded { .. }
            | ScanError::Draining => ErrorClass::Transient,
        }
    }

    /// Whether a bounded retry may clear this failure.
    pub fn is_transient(&self) -> bool {
        self.class() == ErrorClass::Transient
    }

    /// Build a [`ScanError::Load`] from a loader failure, attaching the
    /// library name.
    pub fn load(library: &str, e: &vm::LoadError) -> ScanError {
        ScanError::Load { library: library.to_string(), detail: e.to_string() }
    }

    /// Build a [`ScanError::Extraction`] from a decode failure, attaching
    /// library and function context.
    pub fn extraction(library: &str, function: usize, e: &fwbin::encode::DecodeError) -> ScanError {
        ScanError::Extraction {
            library: library.to_string(),
            function,
            detail: e.to_string(),
        }
    }

    /// Build a [`ScanError::WorkerPanic`] from a `catch_unwind` payload.
    pub fn from_panic(payload: &(dyn std::any::Any + Send)) -> ScanError {
        let detail = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "worker panicked".to_string());
        ScanError::WorkerPanic { detail }
    }
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanError::Load { library, detail } => write!(f, "load `{library}`: {detail}"),
            ScanError::Extraction { library, function, detail } => {
                write!(f, "extract `{library}` function {function}: {detail}")
            }
            ScanError::CorruptArtifact { key, detail } => {
                write!(f, "corrupt cached artifact {key}: {detail} (quarantined)")
            }
            ScanError::WorkerPanic { detail } => write!(f, "worker panicked: {detail}"),
            ScanError::Injected { site, detail } => {
                write!(f, "injected fault at {site}: {detail}")
            }
            ScanError::UnknownCve(cve) => write!(f, "unknown CVE {cve}"),
            ScanError::ImageOutOfRange { index, images } => {
                write!(f, "image index {index} out of range (batch holds {images})")
            }
            ScanError::Io { path, detail } => write!(f, "io `{path}`: {detail}"),
            ScanError::Overloaded { queue_depth, queue_limit, retry_after_ms } => write!(
                f,
                "overloaded: {queue_depth} queued (limit {queue_limit}), retry after {retry_after_ms}ms"
            ),
            ScanError::DeadlineExceeded { budget_ms } => {
                write!(f, "deadline exceeded: {budget_ms}ms end-to-end budget elapsed")
            }
            ScanError::QuotaExceeded { tenant, retry_after_ms } => write!(
                f,
                "tenant `{tenant}` quota exceeded, retry after {retry_after_ms}ms"
            ),
            ScanError::Draining => f.write_str("service is draining; no new work accepted"),
            ScanError::Protocol { detail } => write!(f, "protocol error: {detail}"),
        }
    }
}

impl std::error::Error for ScanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_splits_transient_from_permanent() {
        let transient = [
            ScanError::CorruptArtifact { key: "ab".into(), detail: "checksum".into() },
            ScanError::WorkerPanic { detail: "boom".into() },
            ScanError::Injected { site: "features_all".into(), detail: "seed 1".into() },
            ScanError::Io { path: "/tmp/x".into(), detail: "interrupted".into() },
            ScanError::Overloaded { queue_depth: 65, queue_limit: 64, retry_after_ms: 100 },
            ScanError::DeadlineExceeded { budget_ms: 40 },
            ScanError::QuotaExceeded { tenant: "acme".into(), retry_after_ms: 15 },
            ScanError::Draining,
        ];
        let permanent = [
            ScanError::Load { library: "libx".into(), detail: "bad magic".into() },
            ScanError::Extraction { library: "libx".into(), function: 3, detail: "opcode".into() },
            ScanError::UnknownCve("CVE-0000-0000".into()),
            ScanError::ImageOutOfRange { index: 9, images: 2 },
            ScanError::Protocol { detail: "frame length 0xffffffff".into() },
        ];
        for e in &transient {
            assert!(e.is_transient(), "{e}");
            assert_eq!(e.class(), ErrorClass::Transient);
        }
        for e in &permanent {
            assert!(!e.is_transient(), "{e}");
            assert_eq!(e.class(), ErrorClass::Permanent);
        }
    }

    #[test]
    fn errors_serialize_for_job_records() {
        let e = ScanError::Extraction { library: "libfoo".into(), function: 7, detail: "bad opcode 0xEE at offset 3".into() };
        let json = serde_json::to_string(&e).unwrap();
        let back: ScanError = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
        assert!(e.to_string().contains("libfoo"));
        assert!(e.to_string().contains("function 7"));
    }

    #[test]
    fn service_errors_serialize_and_describe_themselves() {
        let e = ScanError::Overloaded { queue_depth: 70, queue_limit: 64, retry_after_ms: 250 };
        let back: ScanError = serde_json::from_str(&serde_json::to_string(&e).unwrap()).unwrap();
        assert_eq!(e, back);
        assert!(e.to_string().contains("retry after 250ms"), "{e}");
        assert!(ScanError::DeadlineExceeded { budget_ms: 40 }.to_string().contains("40ms"));
        let q = ScanError::QuotaExceeded { tenant: "acme".into(), retry_after_ms: 15 };
        let back: ScanError = serde_json::from_str(&serde_json::to_string(&q).unwrap()).unwrap();
        assert_eq!(q, back);
        assert!(q.to_string().contains("acme") && q.to_string().contains("15ms"), "{q}");
        assert!(ScanError::Draining.to_string().contains("draining"));
        assert!(ScanError::Protocol { detail: "short frame".into() }
            .to_string()
            .contains("short frame"));
    }

    #[test]
    fn panic_payloads_convert() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static str panic");
        assert_eq!(
            ScanError::from_panic(s.as_ref()),
            ScanError::WorkerPanic { detail: "static str panic".into() }
        );
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("owned panic"));
        assert!(matches!(ScanError::from_panic(s.as_ref()), ScanError::WorkerPanic { detail } if detail == "owned panic"));
    }
}
