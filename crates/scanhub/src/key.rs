//! Content-addressed artifact keys.
//!
//! A key identifies everything the static stage derives from one function:
//! its disassembly, recovered CFG, and Table-I feature vector. Those
//! artifacts are fully determined by the function's code bytes, the
//! architecture they decode under, the function-record metadata that feeds
//! the extractor (export flag, frame size), and the binary's no-return
//! import indices (which steer CFG block typing) — so the key hashes
//! exactly those inputs plus the feature-schema version. Two binaries
//! that share a byte-identical function (the common case across firmware
//! revisions of one component) share the cache entry; re-encoding and
//! decoding a binary through the FWB wire format preserves every hashed
//! input, so keys are stable across serialization round-trips.
//!
//! The dynamic lanes' keys build on the function key
//! ([`ArtifactKey::for_env_set`], [`ArtifactKey::for_dyn_profile`]). A
//! static-scan key ([`ArtifactKey::for_static_scan`]) names a finished
//! scan of a whole library against one reference set: its library half
//! ([`ArtifactKey::for_library`]) digests every function's inputs above,
//! in order, and its query half, derived by the pipeline, digests the
//! detector, the retrieval mode and the reference rows.

use fwbin::format::Binary;
use fwbin::isa::Arch;
use patchecko_core::dynsource::Fnv2;
use patchecko_core::pipeline::ScanKey;
use vm::exec::VmConfig;
use vm::fuzz::FuzzConfig;

/// Version of the cached-artifact schema. Bump whenever
/// `patchecko_core::features::extract`, a lane's value type, or the
/// dynamic-lane shapes (`vm::env::ExecEnv`,
/// `patchecko_core::dynsource::DynProfile`) change so stale on-disk
/// caches miss instead of serving wrong vectors.
///
/// v2: the persisted form carries a per-entry structural checksum
/// (`crate::store`), so v1 caches are discarded on load.
///
/// v3: the store grows a dynamic lane (`dyn_artifacts.json` — cached
/// environment sets and dynamic profiles); v2 static caches are
/// discarded on load rather than mixed with dynamic-lane entries keyed
/// under a different version.
///
/// v4: VM correctness fixes change cached dynamic profiles — `LoadStr`
/// with an out-of-range string id and `FBin` with an integer-only
/// operator now fault (`BadString`/`BadFloatOp`) instead of silently
/// producing offset-0 / `0.0` — and env-set generation became
/// edge-coverage-guided, so cached environment sets shrink. v3 dynamic
/// entries would replay the old semantics; discard them. (The engine
/// choice itself is deliberately NOT keyed: both engines produce
/// bitwise-identical profiles.)
///
/// v5: every lane persists through one generic `crate::lane::Lane` in
/// one envelope, `{schema, entries: {hex key: {checksum, value}}}`, one
/// file per lane; `dyn_artifacts.json` splits into `dyn_envsets.json` and
/// `dyn_profiles.json`. A v4 file parses (its lane-named map is ignored)
/// and is discarded as stale; a leftover `dyn_artifacts.json` is no
/// longer read.
///
/// v6: the static lane stores the bare feature vector; the CFG summary
/// kept beside it was never read. A v5 cache is discarded on every lane,
/// which also drops the profile entries nothing has asked for since an
/// environment set keeps only what both reference builds survive.
pub const SCHEMA_VERSION: u32 = 6;

/// A 128-bit content hash naming one function's cached artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArtifactKey {
    /// High 64 bits.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

fn arch_tag(arch: Arch) -> u8 {
    match arch {
        Arch::X86 => 0,
        Arch::Amd64 => 1,
        Arch::Arm32 => 2,
        Arch::Arm64 => 3,
    }
}

impl ArtifactKey {
    /// Key of function `idx` of `bin`.
    pub fn for_function(bin: &Binary, idx: usize) -> ArtifactKey {
        let rec = &bin.functions[idx];
        let mut h = Fnv2::new();
        h.update_u32(SCHEMA_VERSION);
        h.update(&[arch_tag(bin.arch), rec.exported as u8, rec.n_params]);
        h.update_u32(rec.frame_slots);
        // No-return import indices shape the CFG (ExternNoRet typing).
        let noret = disasm::noreturn_imports(bin);
        h.update_u32(noret.len() as u32);
        for i in noret {
            h.update_u32(i);
        }
        h.update_u32(rec.code.len() as u32);
        h.update(&rec.code);
        ArtifactKey { hi: h.hi, lo: h.lo }
    }

    /// Key of the environment set the dynamic stage derives from
    /// `reference`'s function 0 under `fuzz` and `vm`.
    ///
    /// Hashes the reference-function content key (so a recompiled or
    /// different reference misses), every fuzzer knob (the generated
    /// environments are a pure function of them), and the interpreter
    /// limits (survival filtering executes the reference, so limits shape
    /// which environments survive).
    pub fn for_env_set(reference: &Binary, fuzz: &FuzzConfig, vm: &VmConfig) -> ArtifactKey {
        let base = ArtifactKey::for_function(reference, 0);
        let mut h = Fnv2::new();
        h.update_u32(SCHEMA_VERSION);
        h.update(b"envset");
        h.update_u64(base.hi);
        h.update_u64(base.lo);
        h.update_u64(fuzz.rounds as u64);
        h.update_u64(fuzz.max_len as u64);
        h.update_u64(fuzz.num_envs as u64);
        h.update_u64(fuzz.seed);
        h.update_u64(fuzz.extra_args.len() as u64);
        for &a in &fuzz.extra_args {
            h.update_u64(a as u64);
        }
        h.update_u64(vm.max_instructions);
        h.update_u64(vm.max_depth as u64);
        h.update_u64(vm.heap_limit as u64);
        ArtifactKey { hi: h.hi, lo: h.lo }
    }

    /// Key of the dynamic profile of function `func` of `target` over an
    /// environment set with content fingerprint `env_fingerprint`
    /// (`patchecko_core::dynsource::EnvSet::fingerprint`, which already
    /// digests the interpreter limits and every environment's contents).
    pub fn for_dyn_profile(
        target: &Binary,
        func: usize,
        env_fingerprint: (u64, u64),
    ) -> ArtifactKey {
        let base = ArtifactKey::for_function(target, func);
        let mut h = Fnv2::new();
        h.update_u32(SCHEMA_VERSION);
        h.update(b"dynprof");
        h.update_u64(base.hi);
        h.update_u64(base.lo);
        h.update_u64(env_fingerprint.0);
        h.update_u64(env_fingerprint.1);
        ArtifactKey { hi: h.hi, lo: h.lo }
    }

    /// The library digest of a static-scan key
    /// ([`patchecko_core::pipeline::ScanStore::library_digest`]): every
    /// function's [`ArtifactKey::for_function`] inputs (code bytes,
    /// export flag, parameter count, frame slots), in function order,
    /// under the binary's architecture and no-return import indices, and
    /// nothing else. A renamed library digests the same. The code bytes
    /// are folded eight at a time (the last word zero-padded after the
    /// length): the scale-0.25 image's 230 KB of code digests in about
    /// 70 µs on a 2-vCPU machine, against 360 µs byte by byte.
    pub fn for_library(bin: &Binary) -> ArtifactKey {
        let mut h = Fnv2::new();
        h.update_u32(SCHEMA_VERSION);
        h.update(b"library");
        h.update(&[arch_tag(bin.arch)]);
        let noret = disasm::noreturn_imports(bin);
        h.update_u32(noret.len() as u32);
        for i in noret {
            h.update_u32(i);
        }
        h.update_u64(bin.functions.len() as u64);
        for rec in &bin.functions {
            h.update(&[rec.exported as u8, rec.n_params]);
            h.update_u32(rec.frame_slots);
            h.update_u64(rec.code.len() as u64);
            let words = rec.code.chunks_exact(8);
            let tail = words.remainder();
            let tail = (!tail.is_empty()).then(|| {
                let mut word = [0u8; 8];
                word[..tail.len()].copy_from_slice(tail);
                word
            });
            let words = words.map(|word| word.try_into().expect("an 8-byte chunk"));
            h.update_words(words.chain(tail).map(u64::from_le_bytes));
        }
        ArtifactKey { hi: h.hi, lo: h.lo }
    }

    /// Key of the static scan of a library with digest `key.library`
    /// ([`ArtifactKey::for_library`]) scanned as `key.query` digests (the
    /// detector, the retrieval mode and the reference set).
    pub fn for_static_scan(key: ScanKey) -> ArtifactKey {
        let mut h = Fnv2::new();
        h.update_u32(SCHEMA_VERSION);
        h.update(b"scan");
        h.update_words([key.library.0, key.library.1, key.query.0, key.query.1]);
        ArtifactKey { hi: h.hi, lo: h.lo }
    }

    /// This key translated into a tenant's cache namespace: each half is
    /// XORed with the corresponding half of `salt`. XOR with a fixed salt
    /// is a bijection on the 128-bit key space, so within one namespace
    /// keys collide exactly when the underlying content keys collide, and
    /// distinct salts map the same content to disjoint names. The zero
    /// salt (see [`tenant_salt`]) is the identity — unsalted callers and
    /// the anonymous tenant share the base namespace.
    pub fn namespaced(self, salt: (u64, u64)) -> ArtifactKey {
        ArtifactKey { hi: self.hi ^ salt.0, lo: self.lo ^ salt.1 }
    }

    /// 32-character lowercase hex form (the on-disk map key).
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parse [`ArtifactKey::to_hex`] output.
    pub fn from_hex(s: &str) -> Option<ArtifactKey> {
        if s.len() != 32 {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(ArtifactKey { hi, lo })
    }

    /// Shard selector in `[0, shards)`.
    pub fn shard(self, shards: usize) -> usize {
        (self.lo as usize) % shards.max(1)
    }
}

/// Cache-namespace salt for a tenant id: a domain-separated [`Fnv2`]
/// digest of the tenant name, with the empty tenant mapped to the zero
/// salt so anonymous (CLI, single-tenant) callers address the base
/// namespace unchanged. Applied via [`ArtifactKey::namespaced`].
pub fn tenant_salt(tenant: &str) -> (u64, u64) {
    if tenant.is_empty() {
        return (0, 0);
    }
    let mut h = Fnv2::new();
    h.update(b"tenant-ns");
    h.update(tenant.as_bytes());
    (h.hi, h.lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testfix::keyed_binary as sample_binary;
    use fwbin::isa::OptLevel;
    use fwlang::gen::Generator;

    #[test]
    fn keys_distinguish_functions_and_arches() {
        let bin = sample_binary();
        let mut keys: Vec<ArtifactKey> =
            (0..bin.function_count()).map(|i| ArtifactKey::for_function(&bin, i)).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), bin.function_count(), "all functions hash distinctly");

        let lib = Generator::new(11).library_sized("libk", 8);
        let other = fwbin::compile_library(&lib, Arch::X86, OptLevel::O2).unwrap();
        assert_ne!(
            ArtifactKey::for_function(&bin, 0),
            ArtifactKey::for_function(&other, 0),
            "same source, different arch, different key"
        );
    }

    #[test]
    fn key_is_stable_across_wire_roundtrip() {
        let bin = sample_binary();
        let back = Binary::from_bytes(&bin.to_bytes()).unwrap();
        for i in 0..bin.function_count() {
            assert_eq!(ArtifactKey::for_function(&bin, i), ArtifactKey::for_function(&back, i));
        }
    }

    #[test]
    fn dyn_keys_are_input_sensitive() {
        let bin = sample_binary();
        let fuzz = FuzzConfig::default();
        let vmc = VmConfig::default();
        let k = ArtifactKey::for_env_set(&bin, &fuzz, &vmc);
        assert_eq!(k, ArtifactKey::for_env_set(&bin, &fuzz, &vmc), "deterministic");
        let reseeded = FuzzConfig { seed: fuzz.seed + 1, ..fuzz.clone() };
        assert_ne!(ArtifactKey::for_env_set(&bin, &reseeded, &vmc), k, "fuzz knobs hashed");
        let tighter = VmConfig { max_instructions: 1, ..vmc };
        assert_ne!(ArtifactKey::for_env_set(&bin, &fuzz, &tighter), k, "vm limits hashed");

        let p = ArtifactKey::for_dyn_profile(&bin, 0, (1, 2));
        assert_ne!(ArtifactKey::for_dyn_profile(&bin, 1, (1, 2)), p, "function hashed");
        assert_ne!(ArtifactKey::for_dyn_profile(&bin, 0, (1, 3)), p, "fingerprint hashed");
        assert_ne!(p, k, "lanes are domain-separated");
    }

    #[test]
    fn tenant_salts_partition_the_key_space() {
        let bin = sample_binary();
        let k = ArtifactKey::for_function(&bin, 0);

        // Empty tenant is the identity namespace.
        assert_eq!(tenant_salt(""), (0, 0));
        assert_eq!(k.namespaced(tenant_salt("")), k);

        // Distinct tenants relocate the same content to distinct names,
        // deterministically, and the mapping is invertible.
        let acme = tenant_salt("acme");
        let rival = tenant_salt("rival");
        assert_ne!(acme, rival);
        assert_eq!(tenant_salt("acme"), acme, "salt is deterministic");
        assert_ne!(k.namespaced(acme), k);
        assert_ne!(k.namespaced(acme), k.namespaced(rival));
        assert_eq!(k.namespaced(acme).namespaced(acme), k, "XOR salting inverts");

        // Within one namespace, distinct content stays distinct.
        let k1 = ArtifactKey::for_function(&bin, 1);
        assert_ne!(k.namespaced(acme), k1.namespaced(acme));
    }

    /// Golden values captured at the schema-6 bump. A drift in any of
    /// them silently cold-misses every persisted schema-6 cache, so a hash
    /// change must come with a `SCHEMA_VERSION` bump.
    #[test]
    fn hashes_match_schema_6_golden_values() {
        assert_eq!(SCHEMA_VERSION, 6);
        let key = ArtifactKey::for_function(&crate::testfix::store_binary(), 0);
        assert_eq!(key.to_hex(), "424680130c598c8f106fdc573947ae03");
        assert_eq!(tenant_salt("acme"), (0x057f_017f_5af3_60e9, 0x2355_8ca5_4e83_9da1));
        let envs = patchecko_core::dynsource::EnvSet::new(
            crate::testfix::sample_envs(),
            &VmConfig::default(),
        );
        assert_eq!(envs.fingerprint, (0xb3c6_5814_6078_038e, 0x44a2_7777_ac5b_f185));
        let library = ArtifactKey::for_library(&crate::testfix::store_binary());
        assert_eq!(library.to_hex(), "cd04b5d183b797ffef7cf98610304a67");
        let scan = ArtifactKey::for_static_scan(ScanKey { library: (1, 2), query: (3, 4) });
        assert_eq!(scan.to_hex(), "41215e37342f0096eea216d229c7c0f6");
    }

    #[test]
    fn hex_roundtrip() {
        let k = ArtifactKey { hi: 0x0123_4567_89ab_cdef, lo: 0xfedc_ba98_7654_3210 };
        assert_eq!(ArtifactKey::from_hex(&k.to_hex()), Some(k));
        assert_eq!(ArtifactKey::from_hex("nope"), None);
        assert_eq!(ArtifactKey::from_hex(&"0".repeat(31)), None);
    }
}
