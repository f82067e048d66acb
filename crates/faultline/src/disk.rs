//! Disk saboteurs for the persisted artifact cache: deterministic,
//! seed-driven corruption of one lane file (any of
//! [`patchecko_scanhub::LANE_FILES`]), modelling the ways a cache file
//! actually goes bad in the field (crash mid-write, bit rot, version
//! skew, tampering).

use crate::plan::FaultPlan;
use std::io;
use std::path::Path;

/// The corruption families the saboteur can apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// Replace the file with seeded garbage bytes (including invalid
    /// UTF-8): total loss.
    Garbage,
    /// Cut the file at a seeded interior offset: a crash mid-write under
    /// a non-atomic writer.
    Truncate,
    /// Rewrite the schema version to a stale one: an old binary's cache
    /// left behind after an upgrade.
    StaleSchema,
    /// Alter one entry's stored checksum digit: targeted tampering the
    /// per-entry validation must catch while the rest of the cache loads.
    ChecksumFlip,
}

impl DiskFault {
    /// All families, for schedule-driven selection.
    pub const ALL: [DiskFault; 4] =
        [DiskFault::Garbage, DiskFault::Truncate, DiskFault::StaleSchema, DiskFault::ChecksumFlip];

    /// The family `plan` selects for `key`.
    pub fn chosen(plan: &FaultPlan, key: u64) -> DiskFault {
        Self::ALL[plan.pick("disk.fault", key, Self::ALL.len())]
    }
}

/// Apply `fault` to the lane file `file` (one of
/// [`patchecko_scanhub::LANE_FILES`]) under `dir`, deterministically per
/// `plan`. Returns a human-readable description of what was done (for
/// failure-schedule logs).
///
/// # Errors
/// Propagates filesystem errors; the lane file must exist.
pub fn sabotage(dir: &Path, file: &str, fault: DiskFault, plan: &FaultPlan) -> io::Result<String> {
    let path = dir.join(file);
    let bytes = std::fs::read(&path)?;
    let key = bytes.len() as u64;
    let (mutated, what) = match fault {
        DiskFault::Garbage => {
            let len = 16 + plan.pick("disk.garbage.len", key, 4096);
            let garbage: Vec<u8> = (0..len)
                .map(|i| (plan.draw("disk.garbage.byte", key ^ i as u64) & 0xff) as u8)
                .collect();
            (garbage, format!("overwrote with {len} garbage bytes"))
        }
        DiskFault::Truncate => {
            let cut = 1 + plan.pick("disk.truncate.at", key, bytes.len().saturating_sub(2).max(1));
            (bytes[..cut].to_vec(), format!("truncated {} -> {cut} bytes", bytes.len()))
        }
        DiskFault::StaleSchema => {
            let json = String::from_utf8_lossy(&bytes);
            let stale = json.replacen(
                &format!("\"schema\":{}", patchecko_scanhub::SCHEMA_VERSION),
                "\"schema\":1",
                1,
            );
            (stale.into_bytes(), "rewrote schema version to v1".to_string())
        }
        DiskFault::ChecksumFlip => {
            let json = String::from_utf8_lossy(&bytes).into_owned();
            let needle = "\"checksum\":";
            let hits: Vec<usize> = json.match_indices(needle).map(|(i, _)| i).collect();
            if hits.is_empty() {
                return Ok("no checksum field to flip".to_string());
            }
            let at = hits[plan.pick("disk.flip.entry", key, hits.len())] + needle.len();
            let mut out = json.into_bytes();
            // Rotate the first digit of the stored checksum; always lands
            // on a different valid number.
            let d = out[at];
            debug_assert!(d.is_ascii_digit());
            out[at] = b'0' + (d - b'0' + 1) % 10;
            (out, format!("flipped checksum digit at byte {at}"))
        }
    };
    std::fs::write(&path, mutated)?;
    scope::inc("fault.injected");
    scope::inc("fault.disk.sabotage");
    Ok(what)
}
