//! A fault-injecting [`FeatureSource`] wrapper: extraction errors,
//! extraction panics, and corrupted feature vectors, on a seeded plan.

use crate::plan::FaultPlan;
use fwbin::format::Binary;
use patchecko_core::error::ScanError;
use patchecko_core::features::StaticFeatures;
use patchecko_core::pipeline::FeatureSource;
use std::collections::HashSet;
use std::sync::Mutex;

/// Per-site fault rates for a [`FaultyFeatureSource`]. Each is a
/// probability numerator over [`SourceFaults::den`]; zero disables that
/// fault.
#[derive(Debug, Clone, Copy)]
pub struct SourceFaults {
    /// Rate of typed [`ScanError::Injected`] failures.
    pub error: u32,
    /// Rate of extraction *panics* (how third-party disassembler crashes
    /// present before the typed-error rework).
    pub panic: u32,
    /// Rate of silently corrupted feature vectors (bit-level damage that
    /// a checksum, not a type system, must catch).
    pub corrupt: u32,
    /// Common denominator of the rates above.
    pub den: u32,
    /// When true, each faulting `(library, function)` site fires **once**
    /// and then heals — modelling transient trouble a retry clears. When
    /// false, faults are permanent for the life of the wrapper.
    pub transient: bool,
}

impl SourceFaults {
    /// Typed errors only, 1-in-`n`, healing after one failure.
    pub fn transient_errors(n: u32) -> SourceFaults {
        SourceFaults { error: 1, panic: 0, corrupt: 0, den: n, transient: true }
    }

    /// Extraction panics only, 1-in-`n`, healing after one failure.
    pub fn transient_panics(n: u32) -> SourceFaults {
        SourceFaults { error: 0, panic: 1, corrupt: 0, den: n, transient: true }
    }

    /// Corrupted vectors only, 1-in-`n`, permanent.
    pub fn corruption(n: u32) -> SourceFaults {
        SourceFaults { error: 0, panic: 0, corrupt: 1, den: n, transient: false }
    }
}

/// Wraps any [`FeatureSource`], injecting faults per a [`FaultPlan`].
///
/// Fault decisions key on `(library name, function index)`, so which
/// functions fail is a property of the seed, not of call order — the same
/// seed faults the same functions whether the scan runs serial or on the
/// worker pool.
pub struct FaultyFeatureSource<S> {
    inner: S,
    plan: FaultPlan,
    faults: SourceFaults,
    healed: Mutex<HashSet<u64>>,
}

impl<S> FaultyFeatureSource<S> {
    /// Wrap `inner`, injecting per `plan` and `faults`.
    pub fn new(inner: S, plan: FaultPlan, faults: SourceFaults) -> FaultyFeatureSource<S> {
        FaultyFeatureSource { inner, plan, faults, healed: Mutex::new(HashSet::new()) }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Count of fault sites that have fired (and, in transient mode,
    /// healed).
    pub fn fired(&self) -> usize {
        self.healed.lock().unwrap().len()
    }

    fn site_key(bin: &Binary, idx: usize) -> u64 {
        FaultPlan::key_of(&bin.lib_name) ^ (idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    /// Whether the fault lane `site` fires for this call. In transient
    /// mode a site fires exactly once, then heals.
    fn should_fire(&self, site: &str, key: u64, rate: u32) -> bool {
        if !self.plan.fires(site, key, rate, self.faults.den) {
            return false;
        }
        let mut healed = self.healed.lock().unwrap();
        let first = healed.insert(key ^ FaultPlan::key_of(site));
        first || !self.faults.transient
    }

    fn inject(&self, bin: &Binary, idx: usize) -> Result<(), ScanError> {
        let key = Self::site_key(bin, idx);
        if self.should_fire("source.panic", key, self.faults.panic) {
            scope::inc("fault.injected");
            scope::inc("fault.source.panic");
            panic!(
                "faultline: injected extraction panic at {}:{idx} (seed {})",
                bin.lib_name,
                self.plan.seed()
            );
        }
        if self.should_fire("source.error", key, self.faults.error) {
            scope::inc("fault.injected");
            scope::inc("fault.source.error");
            return Err(ScanError::Injected {
                site: "features".into(),
                detail: format!("{}:{idx} (seed {})", bin.lib_name, self.plan.seed()),
            });
        }
        Ok(())
    }

    fn maybe_corrupt(&self, bin: &Binary, idx: usize, features: &mut StaticFeatures) {
        let key = Self::site_key(bin, idx);
        if self.should_fire("source.corrupt", key, self.faults.corrupt) {
            scope::inc("fault.injected");
            scope::inc("fault.source.corrupt");
            let lane = self.plan.pick("source.corrupt.lane", key, features.0.len());
            let bits = features.0[lane].to_bits() ^ (1 << self.plan.pick("source.corrupt.bit", key, 52));
            features.0[lane] = f64::from_bits(bits);
        }
    }
}

impl<S: FeatureSource> FeatureSource for FaultyFeatureSource<S> {
    fn features_one(&self, bin: &Binary, idx: usize) -> Result<StaticFeatures, ScanError> {
        self.inject(bin, idx)?;
        let mut features = self.inner.features_one(bin, idx)?;
        self.maybe_corrupt(bin, idx, &mut features);
        Ok(features)
    }
}
