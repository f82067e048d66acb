//! # scope — always-on observability for the PATCHECKO pipeline
//!
//! The pipeline grew a cache (scanhub), tiled kernels behind a worker
//! pool (neural), and retry/degradation paths (faultline); this crate is
//! the window into all of it, built from three pieces:
//!
//! * [`registry`] — a lock-light [`MetricsRegistry`] of named atomic
//!   counters and log-bucketed duration histograms, with serializable
//!   [`TelemetrySnapshot`]s supporting `since` (saturating deltas) and
//!   `merged` (multi-registry reporting), mirroring the `CacheStats`
//!   conventions;
//! * [`span`](mod@span) — hierarchical RAII tracing spans (`scope::span!("name")`)
//!   over a per-thread span stack, recording wall time into the registry
//!   as `span.<name>` histograms;
//! * [`trace`] — optional Chrome-trace capture: with capture enabled,
//!   every completed span becomes a `ph:"X"` event and
//!   [`trace::write_chrome_trace`] emits a JSON that loads directly in
//!   `chrome://tracing` or Perfetto.
//!
//! ## Registries: global and local
//!
//! Instrumentation embedded in library code (pipeline stages, the worker
//! pool, fault injectors) records into the process-global registry
//! ([`global`]). Components that need *exact, isolated* counts — the
//! artifact store's cache counters, the scheduler's retry counters — own
//! a registry handle instead (an `Arc<MetricsRegistry>`), which defaults
//! to a fresh private instance per store/hub so concurrent tests never
//! observe each other. The CLI passes [`global_shared`] down so a
//! command's whole run lands in one registry, then prints one
//! [`TelemetrySnapshot::to_table`].
//!
//! ## Naming convention
//!
//! Dot-separated lowercase paths, component first:
//! `cache.hits`, `sched.retries`, `pool.dispatches`, `fault.injected`,
//! `similarity.skipped_envs`; span histograms are `span.<stage>` with
//! stage names from the paper's pipeline (`static_scan`,
//! `dynamic_stage`, `differential`, `sched.job`, `audit`). Span names
//! are `&'static str` by design — context goes in the trace detail, not
//! the metric key.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod registry;
pub mod span;
pub mod trace;

pub use registry::{Counter, DurationStats, MetricsRegistry, ScopedRegistry, TelemetrySnapshot, Timer};
pub use span::SpanGuard;

use std::sync::{Arc, OnceLock};

fn global_cell() -> &'static Arc<MetricsRegistry> {
    static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(MetricsRegistry::new()))
}

/// The process-global registry. Spans entered via [`span!`] and
/// library-level counters record here.
pub fn global() -> &'static MetricsRegistry {
    global_cell()
}

/// The process-global registry as a shareable handle, for components
/// that take an `Arc<MetricsRegistry>` (the CLI wires the scan hub to
/// this so one snapshot covers the whole command).
pub fn global_shared() -> Arc<MetricsRegistry> {
    Arc::clone(global_cell())
}

/// Add `n` to the global counter `name` (cold-path convenience).
pub fn add(name: &str, n: u64) {
    global().add(name, n);
}

/// Increment the global counter `name` by 1 (cold-path convenience).
pub fn inc(name: &str) {
    global().add(name, 1);
}

/// Snapshot the global registry.
pub fn snapshot() -> TelemetrySnapshot {
    global().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_is_one_registry() {
        add("lib.test.counter", 2);
        inc("lib.test.counter");
        assert_eq!(snapshot().counter("lib.test.counter"), 3);
        assert!(Arc::ptr_eq(&global_shared(), &global_shared()));
    }

    #[test]
    fn span_macro_records_globally() {
        {
            let _g = span!("lib_test_span");
        }
        assert!(snapshot().duration("span.lib_test_span").unwrap().count >= 1);
    }
}
