//! Per-tenant views over one shared artifact store.
//!
//! The scan daemon keeps a single warm [`ArtifactStore`] (one in-memory
//! map, one persisted cache directory) for every client, but tenants must
//! not observe each other's cache state — a hit timing side-channel, or
//! worse a poisoned artifact, must stay confined to the tenant that
//! caused it. A [`TenantView`] is the seam: it implements the pipeline's
//! [`FeatureSource`] and [`DynProfileSource`] traits by delegating to the
//! store's `*_ns` entry points with the tenant's key salt
//! ([`crate::key::tenant_salt`]), so the same content cached by two
//! tenants lives under two disjoint key sets — in memory and in the one
//! persisted document. The anonymous tenant (`""`) salts to zero and
//! shares the base namespace with un-namespaced callers (the one-shot
//! CLI).
//!
//! [`TenantView::ctx`] is the one place a tenant's pipeline
//! [`RunCtx`] is built: every hub, scheduler, daemon and CLI run goes
//! through it, the base namespace included (as tenant `""`).

use crate::key::tenant_salt;
use crate::store::ArtifactStore;
use fwbin::format::Binary;
use patchecko_core::cancel::CancelToken;
use patchecko_core::dynsource::{DynProfile, DynProfileSource, EnvSet};
use patchecko_core::error::ScanError;
use patchecko_core::features::StaticFeatures;
use patchecko_core::pipeline::{FeatureSource, RunCtx};
use std::sync::Arc;
use vm::exec::VmConfig;
use vm::fuzz::FuzzConfig;
use vm::loader::LoadedBinary;

/// One tenant's view of a shared [`ArtifactStore`]: the store's full
/// [`FeatureSource`] + [`DynProfileSource`] surface, with every key
/// relocated into the tenant's cache namespace. Cheap to construct (the
/// salt is a 16-byte hash of the tenant name) and cheap to clone (one
/// `Arc` bump), so the daemon builds one per request.
#[derive(Clone)]
pub struct TenantView {
    store: Arc<ArtifactStore>,
    tenant: String,
    salt: (u64, u64),
}

impl TenantView {
    /// `tenant`'s view of `store`. The empty tenant is the identity view
    /// (base namespace).
    pub fn new(store: Arc<ArtifactStore>, tenant: &str) -> TenantView {
        TenantView { salt: tenant_salt(tenant), store, tenant: tenant.to_string() }
    }

    /// The tenant name this view salts with.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The namespace salt ([`crate::key::tenant_salt`] of the name).
    pub fn salt(&self) -> (u64, u64) {
        self.salt
    }

    /// The shared store behind the view.
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.store
    }

    /// A pipeline context running in this tenant's namespace: static
    /// features and dynamic profiles both come from this view, and the
    /// run stops at the first stage boundary after `cancel` expires.
    pub fn ctx(&self, cancel: CancelToken) -> RunCtx<'_> {
        RunCtx { features: self, profiles: Arc::new(self.clone()), cancel }
    }
}

impl FeatureSource for TenantView {
    fn features_all(&self, bin: &Binary) -> Result<Vec<StaticFeatures>, ScanError> {
        self.store.features_all_ns(bin, self.salt)
    }

    fn features_one(&self, bin: &Binary, idx: usize) -> Result<StaticFeatures, ScanError> {
        self.store.features_one_ns(bin, idx, self.salt)
    }
}

impl DynProfileSource for TenantView {
    fn environments(
        &self,
        reference: &LoadedBinary,
        fuzz_cfg: &FuzzConfig,
        vm: &VmConfig,
    ) -> Result<EnvSet, ScanError> {
        self.store.environments_ns(reference, fuzz_cfg, vm, self.salt)
    }

    fn profile(
        &self,
        target: &LoadedBinary,
        func: usize,
        envs: &EnvSet,
        vm: &VmConfig,
    ) -> Result<DynProfile, ScanError> {
        self.store.profile_ns(target, func, envs, vm, self.salt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testfix;

    #[test]
    fn tenants_partition_one_store_and_the_anonymous_view_is_identity() {
        let store = Arc::new(ArtifactStore::new());
        let bin = testfix::store_binary();
        let n = bin.function_count() as u64;

        let acme = TenantView::new(Arc::clone(&store), "acme");
        let feats = acme.features_all(&bin).unwrap();
        let s1 = store.stats();
        assert_eq!((s1.extractions, s1.entries), (n, n));

        // Same tenant again: pure cache hits, no new entries.
        assert_eq!(acme.features_all(&bin).unwrap(), feats);
        assert_eq!(store.stats().extractions, n);

        // A different tenant re-extracts into its own key set: identical
        // values, disjoint entries in the same store.
        let rival = TenantView::new(Arc::clone(&store), "rival");
        assert_eq!(rival.features_all(&bin).unwrap(), feats);
        let s2 = store.stats();
        assert_eq!((s2.extractions, s2.entries), (2 * n, 2 * n));

        // The anonymous tenant shares the base namespace with the plain
        // (un-namespaced) store surface.
        let anon = TenantView::new(Arc::clone(&store), "");
        assert_eq!(anon.salt(), (0, 0));
        anon.features_all(&bin).unwrap();
        assert_eq!(store.stats().entries, 3 * n);
        store.features_all(&bin).unwrap();
        assert_eq!(store.stats().extractions, 3 * n, "plain surface hits anon's entries");
    }

    #[test]
    fn namespaced_entries_survive_persistence_per_tenant() {
        let dir = std::env::temp_dir().join(format!("scanhub-ns-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ArtifactStore::new());
        let bin = testfix::store_binary();
        let n = bin.function_count() as u64;
        TenantView::new(Arc::clone(&store), "acme").features_all(&bin).unwrap();
        store.save(&dir).unwrap();

        let reloaded = Arc::new(ArtifactStore::load(&dir).unwrap());
        assert_eq!(reloaded.stats().quarantined, 0);
        // acme is warm after reload; rival is still cold.
        TenantView::new(Arc::clone(&reloaded), "acme").features_all(&bin).unwrap();
        assert_eq!(reloaded.stats().extractions, 0);
        TenantView::new(Arc::clone(&reloaded), "rival").features_all(&bin).unwrap();
        assert_eq!(reloaded.stats().extractions, n);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dyn_lane_respects_tenant_namespaces() {
        let store = Arc::new(ArtifactStore::new());
        let (lb, fuzz, vmc) = testfix::dyn_fixture();
        let acme = TenantView::new(Arc::clone(&store), "acme");
        let envs = acme.environments(&lb, &fuzz, &vmc).unwrap();
        let p = acme.profile(&lb, 0, &envs, &vmc).unwrap();
        assert_eq!(store.stats().dyn_profiled, 1);

        // Same tenant: cached. Other tenant: recomputed (bitwise equal).
        assert_eq!(acme.profile(&lb, 0, &envs, &vmc).unwrap(), p);
        assert_eq!(store.stats().dyn_profiled, 1);
        let rival = TenantView::new(Arc::clone(&store), "rival");
        let envs2 = rival.environments(&lb, &fuzz, &vmc).unwrap();
        assert_eq!(envs2.fingerprint, envs.fingerprint, "contents identical across tenants");
        assert_eq!(rival.profile(&lb, 0, &envs2, &vmc).unwrap(), p);
        assert_eq!(store.stats().dyn_profiled, 2, "rival's cold lane profiles live");
    }
}
