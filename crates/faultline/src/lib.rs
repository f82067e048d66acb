//! # patchecko-faultline — deterministic fault injection for the scan pipeline
//!
//! The production pipeline (`patchecko-core` + `patchecko-scanhub`) claims
//! a failure model: typed [`ScanError`](patchecko_core::error::ScanError)s
//! instead of panics, transparent retry of transient faults, quarantine of
//! corrupt cache artifacts, and graceful degradation to static-only
//! evidence when the dynamic stage is unavailable. This crate *attacks*
//! those claims, deterministically.
//!
//! Every fault comes from a seeded [`FaultPlan`]: a pure function of
//! `(seed, site, key)`, so a failing chaos run is replayed exactly by its
//! seed — independent of thread interleaving, wall-clock, or global RNG
//! state. The injectors wrap the pipeline's existing seams:
//!
//! * [`source::FaultyFeatureSource`] — wraps any
//!   [`FeatureSource`](patchecko_core::pipeline::FeatureSource), injecting
//!   extraction errors, panics, and corrupted feature vectors;
//! * [`disk`] — sabotages a persisted artifact cache on disk (garbage,
//!   truncation, stale schema, checksum tampering);
//! * [`image`] — corrupts FWB container bytes to attack the loader;
//! * [`hook`] — builds scheduler fault hooks that kill job attempts
//!   (simulated worker deaths), transiently or fatally;
//! * [`wire`] — sabotages the scan daemon's length-prefixed socket frames
//!   (truncation, corrupt length prefixes, garbage bodies, mid-request
//!   disconnects).
//!
//! The chaos proptest suite in `tests/chaos.rs` asserts the three headline
//! invariants: no panic escapes the scheduler, the cache never serves
//! corrupt features, and a faulty run whose transient faults were retried
//! away ranks bitwise identically to a clean run. `FAULTLINE_SEED`
//! pins the suite to one seed for CI replay.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disk;
pub mod hook;
pub mod image;
pub mod plan;
pub mod source;
pub mod wire;

pub use disk::DiskFault;
pub use plan::FaultPlan;
pub use source::{FaultyFeatureSource, SourceFaults};
pub use wire::{Sabotage, WireFault, WireFaults};
