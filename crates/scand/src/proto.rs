//! The scand wire protocol: length-prefixed JSON frames.
//!
//! A frame is a 4-byte little-endian body length followed by exactly that
//! many bytes of JSON. The framing layer is deliberately dumb — no
//! compression, no multiplexing — because every failure mode then has one
//! obvious typed answer: a length prefix claiming more than [`MAX_FRAME`]
//! bytes is rejected *before* any allocation, a stream that ends inside a
//! frame is a truncation, and a body that does not parse is garbage. All
//! three map to [`ScanError::Protocol`], which is permanent by
//! classification: resending the same bytes cannot help.
//!
//! Requests and responses are externally-tagged serde enums (the vendored
//! serde's native representation). Every request carries the caller's
//! `tenant` (empty = the anonymous namespace) and a client-chosen `tag`
//! the server must echo on the response; the client verifies the echo, so
//! a misrouted response is detected at the protocol layer rather than
//! surfacing as silently-wrong scan results.

use patchecko_core::error::ScanError;
use patchecko_core::pipeline::{Basis, ImageAnalysis, ImageMatch};
use patchecko_core::report::AuditReport;
use patchecko_scanhub::CacheStats;
use scope::{DurationStats, TelemetrySnapshot};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};

/// Largest accepted frame body, bytes. Large enough for a whole-corpus
/// batch-audit response, small enough that a corrupt length prefix
/// (typically claiming ≥ 1 GiB) is rejected without buffering anything.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

fn protocol(detail: impl Into<String>) -> ScanError {
    ScanError::Protocol { detail: detail.into() }
}

/// Write one frame (length prefix + body).
///
/// # Errors
/// [`ScanError::Protocol`] when the body exceeds [`MAX_FRAME`] or the
/// peer hangs up mid-write.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<(), ScanError> {
    if body.len() > MAX_FRAME as usize {
        return Err(protocol(format!("frame body {} exceeds MAX_FRAME {MAX_FRAME}", body.len())));
    }
    let write = |e: std::io::Error| protocol(format!("frame write: {e}"));
    w.write_all(&(body.len() as u32).to_le_bytes()).map_err(write)?;
    w.write_all(body).map_err(write)?;
    w.flush().map_err(write)
}

/// Read one frame body. `Ok(None)` is a clean end-of-stream *between*
/// frames (the peer finished and hung up); everything else that prevents
/// a whole frame from arriving is a typed error.
///
/// # Errors
/// [`ScanError::Protocol`] for an oversize length prefix (rejected before
/// allocation), a stream truncated inside a frame, or any I/O failure.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ScanError> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(protocol(format!("stream ended inside length prefix ({got}/4 bytes)"))),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(io_protocol("frame read", &e)),
        }
    }
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME {
        return Err(protocol(format!("length prefix claims {len} bytes (max {MAX_FRAME})")));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body).map_err(|e| match e.kind() {
        ErrorKind::UnexpectedEof => protocol(format!("frame truncated: length prefix promised {len} bytes")),
        _ => io_protocol("frame read", &e),
    })?;
    Ok(Some(body))
}

/// Marker embedded in the [`ScanError::Protocol`] detail when a frame
/// read/write died on a socket timeout rather than malformed bytes — the
/// server's idle-connection reaper keys on it via [`is_timeout`].
pub const TIMEOUT_MARKER: &str = "socket timed out";

fn io_protocol(what: &str, e: &std::io::Error) -> ScanError {
    // A read/write timeout surfaces as WouldBlock or TimedOut depending
    // on the platform; both mean "the peer stalled", not "the peer sent
    // garbage", so tag them for the reaper.
    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
        protocol(format!("{what}: {TIMEOUT_MARKER} (stalled or idle peer)"))
    } else {
        protocol(format!("{what}: {e}"))
    }
}

/// Whether `e` is a protocol error caused by a socket read/write timeout
/// (a stalled or idle peer), as opposed to malformed bytes.
pub fn is_timeout(e: &ScanError) -> bool {
    matches!(e, ScanError::Protocol { detail } if detail.contains(TIMEOUT_MARKER))
}

/// Serialize `msg` and write it as one frame.
///
/// # Errors
/// As for [`write_frame`].
pub fn send<T: Serialize>(w: &mut impl Write, msg: &T) -> Result<(), ScanError> {
    let body = serde_json::to_string(msg).map_err(|e| protocol(format!("encode: {e}")))?;
    write_frame(w, body.as_bytes())
}

/// Read one frame and parse it as `T`. `Ok(None)` on clean end-of-stream.
///
/// # Errors
/// As for [`read_frame`], plus [`ScanError::Protocol`] for a body that is
/// not valid JSON for `T`.
pub fn recv<T: for<'de> Deserialize<'de>>(r: &mut impl Read) -> Result<Option<T>, ScanError> {
    match read_frame(r)? {
        None => Ok(None),
        Some(body) => {
            let text = std::str::from_utf8(&body)
                .map_err(|e| protocol(format!("frame body is not UTF-8: {e}")))?;
            serde_json::from_str(text)
                .map(Some)
                .map_err(|e| protocol(format!("unparseable frame body: {e}")))
        }
    }
}

/// One client request: an operation on behalf of a tenant, tagged for
/// response-routing verification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Cache namespace the request runs in. Empty = anonymous namespace.
    #[serde(default)]
    pub tenant: String,
    /// Client-chosen token the server echoes on the response.
    #[serde(default)]
    pub tag: u64,
    /// Optional end-to-end deadline, milliseconds from server receipt.
    /// Queueing time counts against it: a request still queued (or a
    /// deduped follower still waiting) when the budget elapses is
    /// answered with a typed `DeadlineExceeded` instead of its result,
    /// and executors abandon expired work at the next pipeline-stage
    /// boundary. Absent = wait indefinitely.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// The operation.
    pub op: Op,
}

/// The operations the daemon serves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// Hybrid scan of one hosted image for one CVE.
    Scan {
        /// Index into the daemon's hosted image list.
        image: usize,
        /// CVE identifier from the daemon's vulnerability database.
        cve: String,
        /// Reference basis to search against.
        basis: Basis,
    },
    /// Whole-image audit against the daemon's vulnerability database.
    Audit {
        /// Index into the daemon's hosted image list.
        image: usize,
    },
    /// Audit several hosted images in one request.
    BatchAudit {
        /// Indices into the daemon's hosted image list.
        images: Vec<usize>,
    },
    /// Live service statistics (served immediately, never queued).
    Stats,
    /// Graceful shutdown: finish in-flight work, persist the caches,
    /// refuse new work, then stop.
    Drain,
}

/// One server response, tagged with the request's token.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Response {
    /// Echo of [`Request::tag`] — the client verifies this.
    pub tag: u64,
    /// The result.
    pub outcome: Outcome,
}

/// The result of one operation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Outcome {
    /// A completed scan.
    Scan(ScanSummary),
    /// A completed audit.
    Audit(Box<AuditReport>),
    /// Per-image reports, in request order.
    BatchAudit(Vec<AuditReport>),
    /// Service statistics.
    Stats(Box<ServiceStats>),
    /// Drain finished: the daemon persisted and is shutting down.
    Drained(DrainSummary),
    /// The operation failed. Transient errors ([`ScanError::Overloaded`],
    /// [`ScanError::Draining`]) invite a retry; permanent ones do not.
    Error(ScanError),
}

/// Wire-sized summary of an image scan (the full `ImageAnalysis` carries
/// per-function probability vectors; clients asking for a scan want the
/// verdict).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScanSummary {
    /// CVE scanned for.
    pub cve: String,
    /// Reference basis searched against.
    pub basis: Basis,
    /// Candidate functions that survived the static stage, image-wide.
    pub candidates: usize,
    /// Candidates that survived dynamic validation, image-wide.
    pub validated: usize,
    /// Per-library analyses that degraded to static-only evidence (the
    /// dynamic stage failed or was circuit-broken). Zero on a fully
    /// dynamic scan.
    #[serde(default)]
    pub degraded: usize,
    /// The image-wide best match, if any.
    pub best: Option<ImageMatch>,
}

impl ScanSummary {
    /// Summarize a full image analysis for the wire.
    pub fn from_analysis(analysis: &ImageAnalysis) -> ScanSummary {
        ScanSummary {
            cve: analysis.cve.clone(),
            basis: analysis.basis,
            candidates: analysis.analyses.iter().map(|a| a.scan.candidates.len()).sum(),
            validated: analysis.analyses.iter().map(|a| a.dynamic.validated.len()).sum(),
            degraded: analysis.analyses.iter().filter(|a| a.is_degraded()).count(),
            best: analysis.best.clone(),
        }
    }
}

/// What drain accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DrainSummary {
    /// Whether drain wrote any cache lane file (false when the daemon has
    /// no cache directory, when every lane file there already held its
    /// lane, or for the losers of a drain race).
    pub persisted: bool,
}

/// Live service statistics, assembled from the daemon's scope registry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceStats {
    /// `running` or `draining`.
    pub state: String,
    /// Requests currently queued (admitted, not yet executing).
    pub queue_depth: usize,
    /// The admission limit.
    pub queue_limit: usize,
    /// Requests currently executing.
    pub in_flight: usize,
    /// Hosted images.
    pub images: usize,
    /// Connections currently open (accepted, not yet closed).
    #[serde(default)]
    pub open_connections: u64,
    /// Connections closed by the reaper after a socket timeout (stalled
    /// or idle peers).
    #[serde(default)]
    pub reaped_connections: u64,
    /// Jobs an executor observed as already expired at start — the
    /// soak's "no executor ever runs an expired job" oracle; pop-time
    /// discard keeps this at zero short of a sub-millisecond race.
    #[serde(default)]
    pub expired_at_executor: u64,
    /// Per-tenant counters and latency, keyed by tenant name.
    pub tenants: BTreeMap<String, TenantStats>,
    /// Shared artifact-store counters (all four cache lanes).
    pub cache: CacheStats,
    /// Process-wide VM executions so far — the warm-request oracle: a
    /// warm re-audit must not move this counter.
    pub vm_executions: u64,
    /// The full merged telemetry snapshot (cache/scheduler/pool counters,
    /// stage-span and per-tenant latency histograms).
    pub telemetry: TelemetrySnapshot,
}

/// One tenant's slice of the service counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantStats {
    /// Requests admitted to the queue.
    pub accepted: u64,
    /// Requests that joined an identical in-flight request instead of
    /// queueing (in-flight dedup).
    pub deduped: u64,
    /// Requests refused by admission control.
    pub rejected: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests that finished with an error.
    pub failed: u64,
    /// Requests whose end-to-end deadline passed before a result could
    /// be delivered (discarded at the queue head, abandoned between
    /// pipeline stages, or a deduped follower that timed out).
    #[serde(default)]
    pub expired: u64,
    /// Requests refused by the tenant's token-bucket rate or in-flight
    /// cap (a subset of `rejected`).
    #[serde(default)]
    pub quota_rejected: u64,
    /// Jobs whose dynamic stage degraded to static-only evidence —
    /// including jobs shed by an open circuit breaker.
    #[serde(default)]
    pub degraded_jobs: u64,
    /// Dynamic-stage circuit breaker state, when the breaker is enabled.
    #[serde(default)]
    pub breaker: Option<BreakerStats>,
    /// Queue + execution latency histogram.
    pub latency: Option<DurationStats>,
}

/// One tenant's circuit-breaker state for the stats endpoint.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BreakerStats {
    /// `closed`, `open`, or `half-open`.
    pub state: String,
    /// How many times the breaker has tripped open.
    pub trips: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"a\":1}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"{\"a\":1}");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF between frames");
    }

    #[test]
    fn oversize_length_prefix_is_rejected_before_allocation() {
        // A corrupt prefix claiming ~1 GiB must fail fast and typed.
        let mut frame = ((1u32 << 30) | 17).to_le_bytes().to_vec();
        frame.extend_from_slice(b"tiny actual body");
        match read_frame(&mut Cursor::new(frame)) {
            Err(ScanError::Protocol { detail }) => {
                assert!(detail.contains("length prefix"), "{detail}")
            }
            other => panic!("expected Protocol error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frames_are_typed_errors() {
        let mut whole = Vec::new();
        write_frame(&mut whole, br#"{"kind":"stats"}"#).unwrap();
        // Every strict prefix of a frame is either a truncated length
        // prefix or a truncated body — never a hang, never a panic.
        for cut in 1..whole.len() {
            match read_frame(&mut Cursor::new(&whole[..cut])) {
                Err(ScanError::Protocol { .. }) => {}
                other => panic!("cut at {cut}: expected Protocol error, got {other:?}"),
            }
        }
    }

    #[test]
    fn unparseable_bodies_are_typed_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"not json at all").unwrap();
        match recv::<Request>(&mut Cursor::new(buf)) {
            Err(ScanError::Protocol { detail }) => assert!(detail.contains("unparseable"), "{detail}"),
            other => panic!("expected Protocol error, got {other:?}"),
        }
        // High-bit garbage (what the faultline injector produces) fails
        // the UTF-8 layer instead — still typed, never a panic.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"\x80\xffnot json").unwrap();
        match recv::<Request>(&mut Cursor::new(buf)) {
            Err(ScanError::Protocol { detail }) => assert!(detail.contains("UTF-8"), "{detail}"),
            other => panic!("expected Protocol error, got {other:?}"),
        }
    }

    #[test]
    fn requests_and_responses_round_trip() {
        let req = Request {
            tenant: "acme".into(),
            tag: 0xfeed,
            deadline_ms: Some(250),
            op: Op::Scan { image: 2, cve: "CVE-2018-9412".into(), basis: Basis::Vulnerable },
        };
        let mut buf = Vec::new();
        send(&mut buf, &req).unwrap();
        let back: Request = recv(&mut Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(back, req);

        let resp = Response {
            tag: 0xfeed,
            outcome: Outcome::Error(ScanError::Overloaded {
                queue_depth: 8,
                queue_limit: 8,
                retry_after_ms: 25,
            }),
        };
        let mut buf = Vec::new();
        send(&mut buf, &resp).unwrap();
        let back: Response = recv(&mut Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(back.tag, 0xfeed);
        match back.outcome {
            Outcome::Error(e) => {
                assert!(e.is_transient(), "Overloaded survives the wire as transient")
            }
            other => panic!("expected error outcome, got {other:?}"),
        }
    }

    #[test]
    fn deadline_free_requests_from_older_clients_still_parse() {
        // PR 6 clients never send `deadline_ms`; the field must default
        // to "wait indefinitely" rather than break the wire.
        let legacy = br#"{"tenant":"acme","tag":9,"op":{"Audit":{"image":0}}}"#;
        let mut buf = Vec::new();
        write_frame(&mut buf, legacy).unwrap();
        let req: Request = recv(&mut Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(req.deadline_ms, None);
        assert_eq!(req.op, Op::Audit { image: 0 });
    }

    #[test]
    fn timeout_errors_are_distinguishable_from_garbage() {
        struct Stalled;
        impl std::io::Read for Stalled {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(ErrorKind::WouldBlock, "resource unavailable"))
            }
        }
        let err = read_frame(&mut Stalled).unwrap_err();
        assert!(is_timeout(&err), "{err}");
        let garbage = read_frame(&mut Cursor::new(vec![1, 2])).unwrap_err();
        assert!(!is_timeout(&garbage), "{garbage}");
    }

    #[test]
    fn oversize_bodies_are_refused_on_write() {
        struct NullSink;
        impl Write for NullSink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let body = vec![b'x'; MAX_FRAME as usize + 1];
        assert!(matches!(
            write_frame(&mut NullSink, &body),
            Err(ScanError::Protocol { .. })
        ));
    }
}
