//! Streaming scan with a bounded working set.
//!
//! The corpus-scale workload (ROADMAP item 4) feeds 10⁵+ functions
//! through the static scanner. Holding such a corpus in memory is exactly
//! what `corpus::stream` exists to avoid, so the scan side must be
//! streaming too: [`Patchecko::scan_stream`] pulls compiled units from an
//! iterator, scans each against the reference feature set, keeps only
//! match summaries, and drops the binary — at no point are more than
//! `working_set` units alive.
//!
//! Boundedness is **proven, not sniffed**: every unit's residency is
//! tracked by a [`WorkingSet`] live-entry counter (acquire on pull,
//! release on drop), and the report carries the observed peak. A corpus
//! 10× larger than the working set must finish with
//! `peak_live ≤ working_set` — the invariant the bounded-memory gate
//! asserts in `cargo test` and in `bench_corpus` before any timing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use fwbin::format::Binary;

use crate::error::ScanError;
use crate::features::StaticFeatures;
use crate::pipeline::{FeatureSource, Patchecko};

/// Live-entry counter for a streaming working set.
///
/// Tracks how many stream units are resident right now (`live`), the most
/// that were ever resident (`peak`), and the total admitted (`admitted`).
/// The streaming paths acquire one permit per unit pulled and release it
/// when the unit is dropped; the peak is the memory-boundedness evidence.
#[derive(Debug, Default)]
pub struct WorkingSet {
    live: AtomicUsize,
    peak: AtomicUsize,
    admitted: AtomicUsize,
}

/// RAII permit for one resident stream unit.
pub struct WorkingSetPermit<'a> {
    set: &'a WorkingSet,
}

impl WorkingSet {
    /// A fresh counter (nothing resident).
    pub fn new() -> WorkingSet {
        WorkingSet::default()
    }

    /// Admit one unit: bumps the live count (and the peak high-water
    /// mark) until the returned permit is dropped.
    pub fn acquire(&self) -> WorkingSetPermit<'_> {
        self.admitted.fetch_add(1, Ordering::Relaxed);
        let now = self.live.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
        WorkingSetPermit { set: self }
    }

    /// Units resident right now.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// High-water mark of simultaneously resident units.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Total units ever admitted.
    pub fn admitted(&self) -> usize {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Drive `units` through `visit` with at most `working_set` of them
    /// resident: units are pulled in working-set-sized batches, each holds
    /// a permit until `visit` (given its 0-based pull index) is done with
    /// it, and the next batch is pulled only after the current one is
    /// dropped. Returns `(units visited, peak live units)`.
    ///
    /// # Errors
    /// Stops at the first error from `visit` and returns it.
    pub fn drive<T, E>(
        units: impl IntoIterator<Item = T>,
        working_set: usize,
        mut visit: impl FnMut(usize, T) -> Result<(), E>,
    ) -> Result<(usize, usize), E> {
        let tracker = WorkingSet::new();
        let mut iter = units.into_iter();
        let mut visited = 0usize;
        loop {
            let batch: Vec<_> = iter
                .by_ref()
                .take(working_set.max(1))
                .map(|unit| (unit, tracker.acquire()))
                .collect();
            if batch.is_empty() {
                return Ok((visited, tracker.peak()));
            }
            for (unit, _permit) in batch {
                visit(visited, unit)?;
                visited += 1;
            }
        }
    }
}

impl Drop for WorkingSetPermit<'_> {
    fn drop(&mut self) {
        self.set.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One above-threshold match from a streaming scan.
#[derive(Debug, Clone)]
pub struct StreamMatch {
    /// Position of the unit in the stream (0-based pull order).
    pub unit: usize,
    /// Library name of the matched unit.
    pub library: String,
    /// Function index inside the unit.
    pub function: usize,
    /// Index of the best-matching reference feature vector.
    pub reference: usize,
    /// Classifier probability of the match.
    pub probability: f32,
}

/// Result of a streaming scan.
#[derive(Debug, Clone)]
pub struct StreamScanReport {
    /// Units pulled from the stream.
    pub units: usize,
    /// Functions scanned across all units.
    pub functions: usize,
    /// Every above-threshold match, in stream order.
    pub matches: Vec<StreamMatch>,
    /// Configured working-set bound the scan ran under.
    pub working_set: usize,
    /// Observed peak of simultaneously resident units — always
    /// `≤ working_set`, and `< units` whenever the corpus exceeds the
    /// working set (the bounded-memory invariant).
    pub peak_live: usize,
    /// Wall-clock seconds for the whole scan (generation included when
    /// the iterator generates lazily).
    pub seconds: f64,
}

impl StreamScanReport {
    /// Scan throughput in functions per second.
    pub fn functions_per_second(&self) -> f64 {
        if self.seconds > 0.0 {
            self.functions as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// Stream-order unit indices that produced at least one match.
    pub fn matched_units(&self) -> Vec<usize> {
        let mut u: Vec<usize> = self.matches.iter().map(|m| m.unit).collect();
        u.dedup();
        u
    }
}

impl Patchecko {
    /// Scan a stream of compiled units against `references`, holding at
    /// most `working_set` units in memory at any point.
    ///
    /// Units are pulled in working-set-sized batches; each unit is
    /// scanned with [`Patchecko::scan_library`] (so `--retrieval
    /// topk` prunes pairs exactly as in image scans, and the NN forward
    /// passes parallelize on the shared pool), reduced to its
    /// above-threshold [`StreamMatch`]es, and dropped before the next
    /// batch is pulled. Residency is accounted by a [`WorkingSet`]
    /// live-entry counter whose peak is returned in the report.
    ///
    /// # Errors
    /// Propagates the first extraction failure; units already scanned are
    /// discarded with it (a streaming scan is all-or-nothing).
    pub fn scan_stream<I>(
        &self,
        units: I,
        references: &[StaticFeatures],
        working_set: usize,
    ) -> Result<StreamScanReport, ScanError>
    where
        I: IntoIterator<Item = Binary>,
    {
        // Kept: the frozen `hybridbench` calls this name.
        self.scan_stream_with(units, references, working_set, &crate::pipeline::DirectExtraction)
    }

    /// [`Patchecko::scan_stream`] with features served by `source`.
    ///
    /// # Errors
    /// Propagates the first extraction failure from the source.
    pub fn scan_stream_with<I>(
        &self,
        units: I,
        references: &[StaticFeatures],
        working_set: usize,
        source: &dyn FeatureSource,
    ) -> Result<StreamScanReport, ScanError>
    where
        I: IntoIterator<Item = Binary>,
    {
        let _span = scope::SpanGuard::enter("stream_scan");
        let working_set = working_set.max(1);
        let started = Instant::now();
        let mut matches = Vec::new();
        let mut functions = 0usize;
        let (units, peak_live) = WorkingSet::drive(units, working_set, |unit, bin| {
            let scan = self.scan_library(&bin, references, source)?;
            functions += scan.total;
            for &f in &scan.candidates {
                matches.push(StreamMatch {
                    unit,
                    library: scan.library.clone(),
                    function: f,
                    reference: scan.best_ref.get(f).copied().unwrap_or(0),
                    probability: scan.probs[f],
                });
            }
            Ok::<_, ScanError>(())
        })?;
        scope::add("stream.units", units as u64);
        scope::add("stream.functions", functions as u64);
        scope::add("stream.peak_live", peak_live as u64);
        Ok(StreamScanReport {
            units,
            functions,
            matches,
            working_set,
            peak_live,
            seconds: started.elapsed().as_secs_f64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn working_set_counter_tracks_live_peak_and_admitted() {
        let ws = WorkingSet::new();
        assert_eq!((ws.live(), ws.peak(), ws.admitted()), (0, 0, 0));
        let a = ws.acquire();
        let b = ws.acquire();
        assert_eq!((ws.live(), ws.peak()), (2, 2));
        drop(a);
        assert_eq!((ws.live(), ws.peak()), (1, 2));
        let c = ws.acquire();
        assert_eq!((ws.live(), ws.peak()), (2, 2));
        drop(b);
        drop(c);
        assert_eq!((ws.live(), ws.peak(), ws.admitted()), (0, 2, 3));
    }
}
