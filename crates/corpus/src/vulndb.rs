//! Dataset II: the vulnerability database.
//!
//! The paper's database holds 2,076 Android Security Bulletin
//! vulnerabilities (1,351 high + 381 critical among them, collected
//! 07/2016–11/2018), of which 25 are evaluated end-to-end. Ours holds the
//! 25 featured catalog entries plus a configurable number of bulk entries
//! generated from the same vulnerable-function builders, each with
//! pre-compiled vulnerable and patched reference binaries (the paper
//! compiles its references with Clang `-O0`).
//!
//! The other reference builds — the static stage's platform variants and
//! the dynamic stage's device-architecture builds — are compiled lazily,
//! at most once per database, and borrowed by every scan after that. So
//! within one process every audit after the first does zero reference
//! compilation, and construction still compiles exactly two binaries per
//! entry.

use crate::catalog::{self, CveEntry};
use crate::cvemeta::{self, CveMeta};
use fwbin::format::Binary;
use fwbin::isa::{Arch, OptLevel};
use fwlang::gen::Generator;
use fwlang::patch::Patch;
use fwlang::Library;
use std::sync::OnceLock;

/// A database entry with compiled references.
pub struct DbEntry {
    /// Catalog metadata and vulnerable/patched source.
    pub entry: CveEntry,
    /// NVD-style metadata envelope (id / CWE / CVSS / affected configs);
    /// always passes [`CveMeta::validate`] by construction.
    pub meta: CveMeta,
    /// Compiled vulnerable reference (one-function library).
    pub vulnerable_bin: Binary,
    /// Compiled patched reference.
    pub patched_bin: Binary,
    /// Lazily built references, indexed by `usize::from(patched)`.
    builds: [Builds; 2],
}

/// One basis's memoized reference builds beyond the precompiled one. Each
/// slot is compiled on first use and never rebuilt, so the memo is bounded
/// by the database: at most six binaries per basis.
#[derive(Default)]
struct Builds {
    /// The [`STATIC_VARIANTS`] after variant 0.
    variants: OnceLock<Vec<Binary>>,
    /// Device builds indexed like [`DEVICE_ARCHS`].
    device: [OnceLock<Binary>; DEVICE_ARCHS.len()],
}

/// The vulnerability database.
pub struct VulnDb {
    /// All entries; the first 25 are the featured catalog.
    pub entries: Vec<DbEntry>,
}

/// Reference compilation architecture. The paper compiles its case-study
/// references at `-O0` "to simplify the case study"; the database default
/// here is `O2`, the common production level, which keeps reference
/// features closest to shipped firmware builds.
pub const REFERENCE_ARCH: Arch = Arch::Arm64;
/// Reference optimization level.
pub const REFERENCE_OPT: OptLevel = OptLevel::O2;

/// The static stage's representative (architecture, optimization) pairs.
/// Variant 0 is the precompiled reference build.
const STATIC_VARIANTS: [(Arch, OptLevel); 4] = [
    (REFERENCE_ARCH, REFERENCE_OPT),
    (Arch::Arm32, OptLevel::Oz),
    (Arch::Amd64, OptLevel::O3),
    (Arch::X86, OptLevel::O0),
];

/// The device architectures built on demand; the precompiled build serves
/// [`REFERENCE_ARCH`].
const DEVICE_ARCHS: [Arch; 3] = [Arch::X86, Arch::Amd64, Arch::Arm32];

fn compile_reference(entry: &CveEntry, patched: bool, arch: Arch, opt: OptLevel) -> Binary {
    let lib = catalog::reference_library(entry, patched);
    fwbin::compile_library(&lib, arch, opt).expect("reference libraries always compile")
}

impl DbEntry {
    /// Wrap `entry` with its metadata envelope and its two precompiled
    /// references (vulnerable and patched, at [`REFERENCE_ARCH`] /
    /// [`REFERENCE_OPT`]). Every other reference build is made lazily.
    pub fn new(entry: CveEntry) -> DbEntry {
        let vulnerable_bin = compile_reference(&entry, false, REFERENCE_ARCH, REFERENCE_OPT);
        let patched_bin = compile_reference(&entry, true, REFERENCE_ARCH, REFERENCE_OPT);
        let meta = cvemeta::annotate(&entry);
        DbEntry { entry, meta, vulnerable_bin, patched_bin, builds: Default::default() }
    }

    fn precompiled(&self, patched: bool) -> &Binary {
        if patched {
            &self.patched_bin
        } else {
            &self.vulnerable_bin
        }
    }

    /// The entry's reference compiled for a specific target architecture,
    /// built on first use.
    ///
    /// The paper's dynamic stage runs the CVE reference function and the
    /// target function "within the corresponding mobile/IoT embedded
    /// system platform" — i.e. both execute on the device, so the dynamic
    /// reference must be the device-architecture build (otherwise raw
    /// Minkowski distances are dominated by cross-ISA instruction-count
    /// inflation). The pre-compiled `vulnerable_bin`/`patched_bin`
    /// (always [`REFERENCE_ARCH`]) serve this for `REFERENCE_ARCH`
    /// targets; they are also variant 0 of
    /// [`DbEntry::reference_variants`] and feed the differential's static
    /// and signature channels.
    pub fn reference_for(&self, arch: Arch, patched: bool) -> &Binary {
        match DEVICE_ARCHS.iter().position(|&a| a == arch) {
            Some(slot) => self.builds[usize::from(patched)].device[slot]
                .get_or_init(|| compile_reference(&self.entry, patched, arch, REFERENCE_OPT)),
            None => self.precompiled(patched),
        }
    }

    /// The multi-platform reference set for the *static* stage, built on
    /// first use. §II-A of the paper: "we can generate one vulnerable
    /// function binary for different hardware architectures (e.g., x86
    /// and ARM) and software platforms" — the database carries one
    /// compiled reference per representative (architecture, optimization)
    /// pair and the scan scores each target against all of them. Variant 0
    /// is the precompiled build.
    pub fn reference_variants(&self, patched: bool) -> impl Iterator<Item = &Binary> {
        let built = self.builds[usize::from(patched)].variants.get_or_init(|| {
            STATIC_VARIANTS[1..]
                .iter()
                .map(|&(arch, opt)| compile_reference(&self.entry, patched, arch, opt))
                .collect()
        });
        std::iter::once(self.precompiled(patched)).chain(built)
    }
}

/// Build the database: the 25 featured CVEs plus `bulk` generated entries.
pub fn build(bulk: usize, seed: u64) -> VulnDb {
    let mut entries: Vec<DbEntry> = catalog::full_catalog().into_iter().map(DbEntry::new).collect();
    // Bulk entries: generated functions patched with a bounds guard, named
    // after synthetic bulletin ids.
    let mut g = Generator::new(seed);
    let mut scratch = Library::new("libbulk");
    let mut made = 0usize;
    let mut attempt = 0usize;
    while made < bulk {
        attempt += 1;
        let name = format!("bulk_fn_{attempt}");
        let f = g.any_function(&mut scratch, name);
        // Only (buf, len)-shaped functions are useful database entries.
        if f.buffer_param() != Some((0, 1)) {
            continue;
        }
        let patch = Patch::BoundsGuard { len_param: 1, min_len: 4, reject: Some(-1) };
        let patched = patch.apply(&f);
        let entry = CveEntry {
            cve: format!("CVE-BULK-{made:04}"),
            library: "libbulk".into(),
            function: f.name.clone(),
            severity: catalog::Severity::High,
            magnitude: catalog::PatchMagnitude::Standard,
            description: "bulk database entry".into(),
            vulnerable: f,
            patched,
            patch,
            library_functions: 0,
            poc: None,
        };
        entries.push(DbEntry::new(entry));
        made += 1;
    }
    VulnDb { entries }
}

impl VulnDb {
    /// Look up an entry by CVE id.
    pub fn get(&self, cve: &str) -> Option<&DbEntry> {
        self.entries.iter().find(|e| e.entry.cve == cve)
    }

    /// The 25 featured entries (Table VI order).
    pub fn featured(&self) -> &[DbEntry] {
        &self.entries[..25.min(self.entries.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn database_contains_featured_and_bulk() {
        let db = build(10, 42);
        assert_eq!(db.entries.len(), 35);
        assert_eq!(db.featured().len(), 25);
        assert!(db.get("CVE-2018-9412").is_some());
        assert!(db.get("CVE-BULK-0003").is_some());
        assert!(db.get("CVE-1999-0001").is_none());
    }

    #[test]
    fn references_are_compiled_at_reference_settings() {
        let db = build(0, 1);
        for e in &db.entries {
            assert_eq!(e.vulnerable_bin.arch, REFERENCE_ARCH);
            assert_eq!(e.vulnerable_bin.opt, REFERENCE_OPT);
            assert_eq!(e.vulnerable_bin.function_count(), 1);
            assert_eq!(e.patched_bin.function_count(), 1);
            assert_ne!(
                e.vulnerable_bin.functions[0].code, e.patched_bin.functions[0].code,
                "{}: compiled references must differ",
                e.entry.cve
            );
        }
    }

    #[test]
    fn reference_builds_are_memoized_fresh_compiles() {
        let db = build(2, 42);
        assert_eq!(db.entries.len(), 27, "featured and bulk entries");
        for e in &db.entries {
            for patched in [false, true] {
                let fresh = |arch, opt| {
                    let lib = catalog::reference_library(&e.entry, patched);
                    fwbin::compile_library(&lib, arch, opt).unwrap()
                };
                let variants: Vec<&Binary> = e.reference_variants(patched).collect();
                let platforms = [
                    (Arch::Arm64, OptLevel::O2),
                    (Arch::Arm32, OptLevel::Oz),
                    (Arch::Amd64, OptLevel::O3),
                    (Arch::X86, OptLevel::O0),
                ];
                assert_eq!(variants.len(), platforms.len());
                for (bin, (arch, opt)) in variants.iter().zip(platforms) {
                    assert_eq!(**bin, fresh(arch, opt), "{} {arch:?} {opt:?}", e.entry.cve);
                }
                let again = e.reference_variants(patched);
                assert!(variants.iter().zip(again).all(|(a, b)| std::ptr::eq(*a, b)));
                for arch in Arch::ALL {
                    let device = e.reference_for(arch, patched);
                    assert_eq!(*device, fresh(arch, REFERENCE_OPT), "{} {arch:?}", e.entry.cve);
                    assert!(std::ptr::eq(device, e.reference_for(arch, patched)));
                }
                let precompiled = if patched { &e.patched_bin } else { &e.vulnerable_bin };
                assert!(std::ptr::eq(variants[0], precompiled));
                assert!(std::ptr::eq(e.reference_for(REFERENCE_ARCH, patched), precompiled));
            }
        }
    }

    #[test]
    fn every_entry_carries_a_valid_metadata_envelope() {
        let db = build(3, 42);
        for e in &db.entries {
            e.meta.validate().unwrap_or_else(|err| panic!("{}: {err}", e.entry.cve));
        }
        // Featured envelopes keep the bulletin id; bulk envelopes get a
        // valid synthetic NVD id while the db key stays CVE-BULK-NNNN.
        for e in db.featured() {
            assert_eq!(e.meta.id, e.entry.cve);
        }
        let bulk = db.get("CVE-BULK-0000").unwrap();
        assert_eq!(bulk.meta.id, "CVE-2019-20000");
    }

    #[test]
    fn bulk_entries_take_buffer_args() {
        let db = build(8, 7);
        for e in &db.entries[25..] {
            assert_eq!(e.entry.vulnerable.buffer_param(), Some((0, 1)));
        }
    }
}
