//! # patchecko-scand — the long-running multi-tenant scan service
//!
//! The deployment story of the paper's pipeline: instead of paying model
//! load + cache warm-up per CLI invocation, one daemon keeps a warm
//! [`ScanHub`](patchecko_scanhub::ScanHub) (trained detector + the four
//! artifact-cache lanes) resident and serves scan/audit requests from
//! many clients over a Unix socket.
//!
//! * [`proto`] — the wire protocol: 4-byte little-endian length-prefixed
//!   JSON frames; typed requests (`scan`, `audit`, `batch-audit`,
//!   `stats`, `drain`), each carrying a tenant id and an echo-verified
//!   response tag.
//! * [`queue`] — admission control (bounded queue, typed
//!   `Overloaded` rejections with a retry-after hint), round-robin
//!   fairness across tenants, in-flight request dedup, and the
//!   `Running → Draining → Stopped` lifecycle.
//! * [`server`] — [`ScanServer`]: accept loop, executor pool, per-tenant
//!   cache namespaces (tenants share warm artifacts *capacity* but never
//!   each other's entries), live telemetry under `tenant.<name>.*`, and
//!   graceful drain (finish in-flight, persist the four cache lanes, refuse
//!   new work).
//! * [`client`] — [`ScanClient`]: blocking request helpers with
//!   misroute detection and overload-aware retry.
//!
//! The `patchecko serve` / `patchecko client` CLI verbs wrap this crate;
//! the soak suite in `tests/` drives ≥8 concurrent clients across
//! multiple tenants through cold and warm phases, overload, wire-fault
//! injection, and drain.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod client;
pub mod proto;
pub mod queue;
pub mod quota;
pub mod server;

pub use breaker::{BreakerConfig, BreakerLedger, DynDecision};
pub use client::ScanClient;
pub use proto::{
    BreakerStats, DrainSummary, Op, Outcome, Request, Response, ScanSummary, ServiceStats,
    TenantStats,
};
pub use queue::{Admitted, FairQueue, State, Waiter};
pub use quota::{QuotaLedger, TenantQuota};
pub use server::{ScanServer, ServerConfig, ANONYMOUS_TENANT};
