//! One cache lane: a sharded, content-addressed map of checksummed values
//! with single-flight computation and a trust-nothing on-disk document.
//!
//! The artifact store keeps four lanes — static artifacts, environment
//! sets, dynamic profiles and static scans. Each is a [`Lane`] over a
//! value type implementing [`Checksummed`], plus a file name; everything
//! else lives here once:
//!
//! * **Lookup.** 16 independent `parking_lot` shards keyed by
//!   [`ArtifactKey`], so scheduler workers rarely contend. Every lookup
//!   counts a miss when it computes the value and a hit otherwise, under
//!   the lane's counter prefix (`<prefix>.hits`, `<prefix>.misses`), so
//!   the counts do not depend on how concurrent lookups interleave. The
//!   scan lane's values are scored in batches by the static pass, so it
//!   looks up with [`Lane::lookup`] and inserts what it scores.
//! * **Single flight.** Concurrent misses on one key coalesce in
//!   [`Lane::get_or_compute`]: the first caller claims the key and
//!   computes outside every shard lock; later callers sleep on a condvar
//!   until the winner publishes, then serve its value. A winner that fails
//!   or panics releases its claim on unwind, so waiters retry rather than
//!   hang. This matters most for dynamic profiles — one profile is a whole
//!   batch of VM executions.
//! * **Persistence.** [`Lane::save`] writes one JSON document,
//!   `{"schema": N, "entries": {"<hex key>": {"checksum": C, "value": V}}}`,
//!   to a temp file of its own and renames it into place, so a crash
//!   mid-save leaves the previous document intact rather than a truncated
//!   one, and overlapping saves each publish a whole document. It skips a
//!   file that already holds exactly the lane: one this lane last loaded
//!   without dropping anything or last wrote, still byte for byte as it
//!   was then, with nothing inserted since. A warm run rewrites nothing.
//!
//! ## Load outcomes
//!
//! [`Lane::load`] trusts nothing it reads back. Damage is quarantined —
//! counted under `<prefix>.quarantined` and recorded in the lane's log,
//! which keeps the first 64 details and then counts the rest in one
//! `… and N more` line — and is never an error and never served; a
//! quarantined entry is just a future miss.
//!
//! * no file → an empty lane, nothing quarantined;
//! * invalid UTF-8, garbage or truncated JSON → the file is quarantined
//!   whole and renamed `<file>.quarantined`, so the next save starts
//!   clean; the lane starts empty;
//! * a `schema` other than [`SCHEMA_VERSION`] → the file is discarded as
//!   stale; the lane starts empty. This includes older layouts: their
//!   `entries` default to empty, so they parse rather than read as
//!   unparseable;
//! * an entry key that is not 32 hex digits, or an entry value that fails
//!   to decode or to match its checksum → that entry is quarantined and
//!   the rest load.

use crate::key::{ArtifactKey, SCHEMA_VERSION};
use parking_lot::Mutex;
use patchecko_core::dynsource::Fnv2;
use scope::{Counter, MetricsRegistry};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar};

/// Shard count of the in-memory map. Power of two, comfortably above the
/// worker counts the scheduler runs with.
const NUM_SHARDS: usize = 16;

/// Saves started in this process; with the pid, it names each save's temp
/// file.
static SAVES: AtomicU64 = AtomicU64::new(0);

/// A value a [`Lane`] can cache and persist.
pub(crate) trait Checksummed: Serialize + DeserializeOwned {
    /// Structural checksum over the value's exact contents (float bit
    /// patterns via `to_bits`, immune to JSON round-trip concerns, and
    /// length-prefixed sequences), so a persisted entry whose bytes were
    /// tampered with or cut mid-value fails it on load.
    fn checksum(&self) -> u64;
}

/// One persisted entry.
#[derive(Serialize, Deserialize)]
pub(crate) struct Entry {
    /// [`Checksummed::checksum`] of the value at save time.
    pub(crate) checksum: u64,
    /// The serialized value, decoded per entry on load so that one bad
    /// value costs only its own entry.
    pub(crate) value: serde_json::Value,
}

/// A lane's on-disk document.
#[derive(Serialize, Deserialize)]
pub(crate) struct Envelope {
    /// Schema version the entries were produced under.
    pub(crate) schema: u32,
    /// Hex key → checksummed entry. Defaulted so a document of an older
    /// layout parses, and is discarded as stale rather than quarantined
    /// as unparseable.
    #[serde(default)]
    pub(crate) entries: BTreeMap<String, Entry>,
}

/// One content-addressed cache lane (see the module docs).
pub(crate) struct Lane<V> {
    file: &'static str,
    shards: Vec<Mutex<HashMap<ArtifactKey, Arc<V>>>>,
    pub(crate) hits: Counter,
    pub(crate) misses: Counter,
    pub(crate) quarantined: Counter,
    quarantine_log: Mutex<QuarantineLog>,
    /// Keys being computed right now. `std::sync` (not `parking_lot`,
    /// which vendors no condvar): waiters sleep on `landed` until the
    /// winner publishes or fails, instead of polling the shards.
    inflight: std::sync::Mutex<HashSet<ArtifactKey>>,
    landed: Condvar,
    /// Bumped after every insert, so a save can tell whether the lane
    /// changed since it was synced with a file.
    inserts: AtomicU64,
    /// The file this lane last loaded without dropping anything or last
    /// wrote, if any.
    synced: Mutex<Option<Synced>>,
}

/// A lane file that held exactly the lane's entries.
struct Synced {
    dir: PathBuf,
    /// The lane's insert count at the time.
    inserts: u64,
    /// [`file_digest`] of the file's bytes.
    digest: (u64, u64),
}

/// Length and contents of a lane file's bytes, eight bytes per multiply.
fn file_digest(bytes: &[u8]) -> (u64, u64) {
    let mut h = Fnv2::new();
    h.update_u64(bytes.len() as u64);
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    h.update_words(words.map(|w| u64::from_le_bytes(w.try_into().expect("an 8-byte chunk"))));
    h.update(tail);
    (h.hi, h.lo)
}

/// Quarantine details a lane keeps: the first [`QUARANTINE_LOG_CAP`],
/// then only a count, so a file of thousands of damaged entries costs a
/// bounded log. The lane's `<prefix>.quarantined` counter still counts
/// every event.
#[derive(Default)]
struct QuarantineLog {
    kept: Vec<String>,
    more: u64,
}

/// Quarantine details a lane keeps before it only counts.
const QUARANTINE_LOG_CAP: usize = 64;

/// RAII claim on one in-flight key: dropping it — on success *or* unwind
/// — releases the key and wakes every waiter, so a panicking winner can
/// never strand the others on the condvar.
struct Claim<'a, V> {
    lane: &'a Lane<V>,
    key: ArtifactKey,
}

impl<V> Drop for Claim<'_, V> {
    fn drop(&mut self) {
        self.lane.inflight.lock().expect("flight lock").remove(&self.key);
        self.lane.landed.notify_all();
    }
}

impl<V: Checksummed> Lane<V> {
    /// An empty lane persisted as `file`, counting into `registry` under
    /// `<prefix>.hits`, `<prefix>.misses` and `<prefix>.quarantined`.
    /// Lanes given the same prefix share those counters.
    pub(crate) fn new(registry: &MetricsRegistry, prefix: &str, file: &'static str) -> Lane<V> {
        Lane {
            file,
            shards: (0..NUM_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: registry.counter(&format!("{prefix}.hits")),
            misses: registry.counter(&format!("{prefix}.misses")),
            quarantined: registry.counter(&format!("{prefix}.quarantined")),
            quarantine_log: Mutex::new(QuarantineLog::default()),
            inflight: std::sync::Mutex::new(HashSet::new()),
            landed: Condvar::new(),
            inserts: AtomicU64::new(0),
            synced: Mutex::new(None),
        }
    }

    /// Number of resident entries.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Details of the first [`QUARANTINE_LOG_CAP`] quarantines since
    /// construction, then one `… and N more in <file>` line for the rest.
    pub(crate) fn quarantine_records(&self) -> Vec<String> {
        let log = self.quarantine_log.lock();
        let mut records = log.kept.clone();
        if log.more > 0 {
            records.push(format!("… and {} more in {}", log.more, self.file));
        }
        records
    }

    fn shard(&self, key: ArtifactKey) -> &Mutex<HashMap<ArtifactKey, Arc<V>>> {
        &self.shards[key.shard(NUM_SHARDS)]
    }

    pub(crate) fn insert(&self, key: ArtifactKey, value: V) -> Arc<V> {
        let arc = Arc::new(value);
        self.shard(key).lock().insert(key, Arc::clone(&arc));
        // After the shard insert: a save that reads the new count also
        // sees the entry.
        self.inserts.fetch_add(1, Ordering::Release);
        arc
    }

    /// Record a quarantine: the offending value is never inserted, the
    /// counter moves, and the detail is kept for reports and tests while
    /// the log has room.
    fn quarantine(&self, detail: String) {
        self.quarantined.inc();
        let mut log = self.quarantine_log.lock();
        if log.kept.len() < QUARANTINE_LOG_CAP {
            log.kept.push(detail);
        } else {
            log.more += 1;
        }
    }

    /// The value under `key`, if resident, counting a hit or a miss. For
    /// a lane whose values are computed in batches by the caller, which
    /// then [`Lane::insert`]s them: a miss is counted for the caller that
    /// computes.
    pub(crate) fn lookup(&self, key: ArtifactKey) -> Option<Arc<V>> {
        let found = self.get(key);
        match found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        found
    }

    /// The value under `key`, computed by `compute` and cached on a miss.
    /// Every call counts exactly one hit or one miss, and a miss only when
    /// it computes. Concurrent misses on one key single-flight: exactly
    /// one caller computes, the rest wait and serve the published value,
    /// each counting a hit. A failed computation publishes nothing, so
    /// each waiter then retries (and gets its own error back).
    ///
    /// # Errors
    /// Whatever `compute` returns.
    pub(crate) fn get_or_compute<E>(
        &self,
        key: ArtifactKey,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        loop {
            if let Some(found) = self.get(key) {
                self.hits.inc();
                return Ok(found);
            }
            if let Some(_claim) = self.claim(key) {
                // Re-check under the claim: a concurrent winner may have
                // published since the lookup above.
                if let Some(found) = self.get(key) {
                    self.hits.inc();
                    return Ok(found);
                }
                self.misses.inc();
                return Ok(self.insert(key, compute()?));
            }
        }
    }

    fn get(&self, key: ArtifactKey) -> Option<Arc<V>> {
        self.shard(key).lock().get(&key).cloned()
    }

    /// Try to become the computer for `key`. `Some` means this caller holds
    /// the key until the claim drops. `None` means another caller held it;
    /// by the time `None` returns that caller has finished (published or
    /// failed), so try again.
    fn claim(&self, key: ArtifactKey) -> Option<Claim<'_, V>> {
        let mut inflight = self.inflight.lock().expect("flight lock");
        if inflight.insert(key) {
            return Some(Claim { lane: self, key });
        }
        while inflight.contains(&key) {
            inflight = self.landed.wait(inflight).expect("flight lock");
        }
        None
    }

    /// Write the lane to `dir/<file>` (creating `dir` as needed) through a
    /// temp file and a rename, unless that file already holds exactly the
    /// lane. Every call gets its own temp name (pid plus a process-wide
    /// sequence number), so concurrent saves never rename each other's
    /// file away or interleave their writes. Returns whether it wrote.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub(crate) fn save(&self, dir: &Path) -> std::io::Result<bool> {
        let inserts = self.inserts.load(Ordering::Acquire);
        if self.holds(dir, inserts) {
            return Ok(false);
        }
        let mut entries = BTreeMap::new();
        for shard in &self.shards {
            for (k, v) in shard.lock().iter() {
                entries.insert(k.to_hex(), Entry { checksum: v.checksum(), value: v.to_value() });
            }
        }
        let json = serde_json::to_string(&Envelope { schema: SCHEMA_VERSION, entries })
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::create_dir_all(dir)?;
        let seq = SAVES.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!("{}.tmp.{}.{seq}", self.file, std::process::id()));
        let digest = file_digest(json.as_bytes());
        std::fs::write(&tmp, json)?;
        std::fs::rename(&tmp, dir.join(self.file))?;
        *self.synced.lock() = Some(Synced { dir: dir.to_path_buf(), inserts, digest });
        Ok(true)
    }

    /// Whether `dir/<file>` holds exactly the lane: it is the file the lane
    /// was last synced with, nothing was inserted since (`inserts`), and
    /// its bytes are unchanged, so a file damaged or replaced behind the
    /// lane's back is rewritten.
    fn holds(&self, dir: &Path, inserts: u64) -> bool {
        let digest = match &*self.synced.lock() {
            Some(synced) if synced.dir == dir && synced.inserts == inserts => synced.digest,
            _ => return false,
        };
        std::fs::read(dir.join(self.file)).is_ok_and(|bytes| file_digest(&bytes) == digest)
    }

    /// Load `dir/<file>` into this (empty) lane; the module docs list the
    /// outcome for every kind of damage. A file that loads whole is the
    /// one [`Lane::save`] may skip.
    ///
    /// # Errors
    /// Propagates filesystem errors other than `NotFound`.
    pub(crate) fn load(&self, dir: &Path) -> std::io::Result<()> {
        let path = dir.join(self.file);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        let digest = file_digest(&bytes);
        // Non-UTF-8 bytes are just another flavour of unparseable file.
        let parsed = String::from_utf8(bytes)
            .map_err(|_| "invalid UTF-8".to_string())
            .and_then(|json| serde_json::from_str::<Envelope>(&json).map_err(|e| e.to_string()));
        let doc = match parsed {
            Ok(doc) => doc,
            Err(why) => {
                // Move the file aside so the next save starts clean; keep
                // the bytes for post-mortem.
                let _ = std::fs::rename(&path, dir.join(format!("{}.quarantined", self.file)));
                self.quarantine(format!("cache file {}: unparseable ({why})", path.display()));
                return Ok(());
            }
        };
        if doc.schema != SCHEMA_VERSION {
            self.quarantine(format!(
                "cache file {}: stale schema v{} (current v{SCHEMA_VERSION}), {} entries discarded",
                path.display(),
                doc.schema,
                doc.entries.len()
            ));
            return Ok(());
        }
        let listed = doc.entries.len();
        for (hex, entry) in doc.entries {
            let Some(key) = ArtifactKey::from_hex(&hex) else {
                self.quarantine(format!("{} entry {hex}: invalid key", self.file));
                continue;
            };
            match V::from_value(entry.value) {
                Ok(value) if value.checksum() == entry.checksum => {
                    self.insert(key, value);
                }
                Ok(value) => self.quarantine(format!(
                    "{} entry {hex}: checksum mismatch (stored {:#018x}, computed {:#018x})",
                    self.file,
                    entry.checksum,
                    value.checksum()
                )),
                Err(e) => self.quarantine(format!("{} entry {hex}: undecodable ({e})", self.file)),
            }
        }
        // Every listed entry loaded, each under a key of its own.
        if self.len() == listed {
            let inserts = self.inserts.load(Ordering::Acquire);
            *self.synced.lock() = Some(Synced { dir: dir.to_path_buf(), inserts, digest });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{
        ArtifactStore, ARTIFACTS_FILE, DYN_ENVSETS_FILE, DYN_PROFILES_FILE, SCANS_FILE,
    };
    use crate::testfix;
    use patchecko_core::dynsource::DynProfile;
    use patchecko_core::pipeline::StaticScan;
    use std::fmt::Debug;

    /// Which saved entries a damaged file still loads.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Loaded {
        All,
        AllButOne,
        Nothing,
    }

    /// One row of the load-outcome table: damage done to a freshly saved
    /// lane file, and the documented outcome of loading it.
    struct Case {
        name: &'static str,
        damage: fn(&Path),
        loaded: Loaded,
        /// Substring of the one quarantine record expected, if any.
        record: Option<&'static str>,
        /// Whether the file is moved aside to `<file>.quarantined`.
        moved_aside: bool,
    }

    fn rewrite(path: &Path, f: impl FnOnce(String) -> String) {
        let json = std::fs::read_to_string(path).unwrap();
        let changed = f(json.clone());
        assert_ne!(changed, json, "damage must change the file");
        std::fs::write(path, changed).unwrap();
    }

    fn edit(path: &Path, f: impl FnOnce(&mut Envelope)) {
        rewrite(path, |json| {
            let mut doc: Envelope = serde_json::from_str(&json).unwrap();
            f(&mut doc);
            serde_json::to_string(&doc).unwrap()
        });
    }

    fn with_schema(json: &str, schema: u32) -> String {
        json.replacen(&format!("\"schema\":{SCHEMA_VERSION}"), &format!("\"schema\":{schema}"), 1)
    }

    fn cases() -> Vec<Case> {
        use Loaded::{All, AllButOne, Nothing};
        vec![
            Case { name: "clean", damage: |_| {}, loaded: All, record: None, moved_aside: false },
            Case {
                name: "missing file",
                damage: |p| std::fs::remove_file(p).unwrap(),
                loaded: Nothing,
                record: None,
                moved_aside: false,
            },
            Case {
                name: "invalid UTF-8",
                damage: |p| std::fs::write(p, b"{ not json \xff").unwrap(),
                loaded: Nothing,
                record: Some("unparseable (invalid UTF-8)"),
                moved_aside: true,
            },
            Case {
                name: "garbage",
                damage: |p| std::fs::write(p, "{ not json at all").unwrap(),
                loaded: Nothing,
                record: Some("unparseable"),
                moved_aside: true,
            },
            Case {
                name: "truncated",
                damage: |p| {
                    // A crash mid-write under a non-atomic writer.
                    let bytes = std::fs::read(p).unwrap();
                    std::fs::write(p, &bytes[..bytes.len() / 2]).unwrap();
                },
                loaded: Nothing,
                record: Some("unparseable"),
                moved_aside: true,
            },
            Case {
                name: "stale schema",
                damage: |p| rewrite(p, |json| with_schema(&json, 1)),
                loaded: Nothing,
                record: Some("stale schema v1"),
                moved_aside: false,
            },
            Case {
                // The v4 layout named its map after the lane; it must read
                // as stale, not as unparseable.
                name: "parent layout",
                damage: |p| {
                    rewrite(p, |json| {
                        with_schema(&json, 4).replacen("\"entries\"", "\"artifacts\"", 1)
                    })
                },
                loaded: Nothing,
                record: Some("stale schema v4"),
                moved_aside: false,
            },
            Case {
                name: "invalid hex key",
                damage: |p| {
                    edit(p, |doc| {
                        let (hex, entry) = doc.entries.pop_first().unwrap();
                        doc.entries.insert(format!("zz{}", &hex[2..]), entry);
                    })
                },
                loaded: AllButOne,
                record: Some("invalid key"),
                moved_aside: false,
            },
            Case {
                name: "undecodable value",
                damage: |p| {
                    edit(p, |doc| {
                        doc.entries.values_mut().next().unwrap().value = serde_json::Value::Null
                    })
                },
                loaded: AllButOne,
                record: Some("undecodable"),
                moved_aside: false,
            },
            Case {
                name: "checksum flip",
                damage: |p| edit(p, |doc| doc.entries.values_mut().next().unwrap().checksum ^= 1),
                loaded: AllButOne,
                record: Some("checksum mismatch"),
                moved_aside: false,
            },
        ]
    }

    /// Save `values` into a `file` lane, then for every case: damage a
    /// fresh copy of the file, reload it, and check the documented outcome
    /// — including that every surviving entry is served bit-identical.
    fn check_lane<V: Checksummed + PartialEq + Debug>(file: &'static str, values: Vec<V>) {
        assert!(values.len() >= 2, "{file}: need entries to survive a one-entry eviction");
        let lane = Lane::new(&MetricsRegistry::new(), "test", file);
        let keys: Vec<ArtifactKey> =
            (0..values.len() as u64).map(|i| ArtifactKey { hi: i, lo: !i }).collect();
        for (&key, value) in keys.iter().zip(values) {
            lane.insert(key, value);
        }
        for case in cases() {
            let what = format!("{file} / {}", case.name);
            let dir = std::env::temp_dir().join(format!(
                "scanhub-lane-{}-{file}-{}",
                std::process::id(),
                case.name.replace(' ', "-")
            ));
            let _ = std::fs::remove_dir_all(&dir);
            lane.save(&dir).unwrap();
            (case.damage)(&dir.join(file));

            let reloaded: Lane<V> = Lane::new(&MetricsRegistry::new(), "test", file);
            reloaded.load(&dir).unwrap();
            let expect = match case.loaded {
                Loaded::All => keys.len(),
                Loaded::AllButOne => keys.len() - 1,
                Loaded::Nothing => 0,
            };
            assert_eq!(reloaded.len(), expect, "{what}");
            let records = reloaded.quarantine_records();
            assert_eq!(reloaded.quarantined.get(), records.len() as u64, "{what}");
            match case.record {
                Some(reason) => {
                    assert_eq!(records.len(), 1, "{what}: {records:?}");
                    assert!(records[0].contains(reason), "{what}: {records:?}");
                }
                None => assert!(records.is_empty(), "{what}: {records:?}"),
            }
            let aside = dir.join(format!("{file}.quarantined"));
            assert_eq!(aside.exists(), case.moved_aside, "{what}");
            if case.moved_aside {
                assert!(!dir.join(file).exists(), "{what}: the bad file was moved aside");
            }
            for &key in &keys {
                if let Ok(got) = reloaded.get_or_compute(key, || Err(())) {
                    let saved = lane.get_or_compute(key, || Err(())).unwrap();
                    assert_eq!(*got, *saved, "{what}: a surviving entry is served as saved");
                }
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn every_lane_loads_damage_to_its_documented_outcome() {
        let bin = testfix::store_binary();
        let store = ArtifactStore::new();
        let artifacts = (0..bin.function_count())
            .map(|i| (*store.get_or_extract(&bin, i).unwrap()).clone())
            .collect();
        check_lane(ARTIFACTS_FILE, artifacts);

        let envs = testfix::sample_envs();
        check_lane(DYN_ENVSETS_FILE, vec![envs.clone(), envs[..1].to_vec()]);

        let profile = testfix::sample_profile();
        let mut other = profile.clone();
        other.ok[1] = true;
        check_lane(DYN_PROFILES_FILE, vec![profile, other]);

        let scan = StaticScan {
            library: "libscan".into(),
            total: 3,
            probs: vec![0.25, 0.1 + 0.2, 0.75],
            candidates: vec![2],
            best_ref: vec![1, 0, 3],
            seconds: 0.0,
        };
        let empty = StaticScan {
            probs: vec![0.0; 3],
            candidates: vec![],
            best_ref: vec![],
            ..scan.clone()
        };
        check_lane(SCANS_FILE, vec![scan, empty]);
    }

    /// A lane file of 200 damaged entries counts all 200 quarantines but
    /// keeps a bounded log: the first 64 details and one line for the
    /// rest.
    #[test]
    fn quarantine_log_keeps_64_details_and_counts_the_rest() {
        let dir = std::env::temp_dir()
            .join(format!("scanhub-lane-{}-quarantine-bound", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let lane: Lane<DynProfile> = Lane::new(&MetricsRegistry::new(), "test", DYN_PROFILES_FILE);
        for i in 0..200 {
            lane.insert(ArtifactKey { hi: i, lo: !i }, testfix::sample_profile());
        }
        lane.save(&dir).unwrap();
        edit(&dir.join(DYN_PROFILES_FILE), |doc| {
            for entry in doc.entries.values_mut() {
                entry.checksum ^= 1;
            }
        });

        let reloaded: Lane<DynProfile> =
            Lane::new(&MetricsRegistry::new(), "test", DYN_PROFILES_FILE);
        reloaded.load(&dir).unwrap();
        assert_eq!(reloaded.len(), 0, "no damaged entry is served");
        assert_eq!(reloaded.quarantined.get(), 200, "the counter counts every event");
        let records = reloaded.quarantine_records();
        assert!(records.len() <= 65, "{} records kept", records.len());
        assert!(records[..64].iter().all(|r| r.contains("checksum mismatch")), "{records:?}");
        let rest = format!("… and 136 more in {DYN_PROFILES_FILE}");
        assert_eq!(records.last(), Some(&rest));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_misses_on_one_key_compute_once() {
        let lane: Lane<Vec<vm::env::ExecEnv>> =
            Lane::new(&MetricsRegistry::new(), "test", DYN_ENVSETS_FILE);
        let computed = std::sync::atomic::AtomicUsize::new(0);
        let arrived = std::sync::atomic::AtomicUsize::new(0);
        let key = ArtifactKey { hi: 1, lo: 2 };
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    // Publish only once every caller has found the key
                    // empty, so all four race on the claim.
                    assert!(lane.get(key).is_none());
                    arrived.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    let got = lane.get_or_compute(key, || {
                        while arrived.load(std::sync::atomic::Ordering::SeqCst) < 4 {
                            std::thread::yield_now();
                        }
                        computed.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        Ok::<_, ()>(testfix::sample_envs())
                    });
                    assert_eq!(*got.unwrap(), testfix::sample_envs());
                });
            }
        });
        assert_eq!(computed.into_inner(), 1, "racing misses single-flight to one computation");
        assert_eq!(lane.len(), 1);
        assert_eq!(
            (lane.hits.get(), lane.misses.get()),
            (3, 1),
            "one count per call: a miss for the computation, a hit for each caller it served"
        );
    }

    #[test]
    fn overlapping_saves_all_succeed_and_publish_whole_documents() {
        // Two savers race 200 saves each while a third thread keeps
        // inserting, so every save serializes a different snapshot. With a
        // shared temp name, one saver's rename moved the other's file
        // away (`NotFound`) or published a mix of two snapshots.
        let dir = std::env::temp_dir()
            .join(format!("scanhub-lane-{}-overlapping-saves", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let lane: Lane<DynProfile> = Lane::new(&MetricsRegistry::new(), "test", DYN_PROFILES_FILE);
        let savers_done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut i = 0;
                while i < 300 && !savers_done.load(Ordering::Relaxed) {
                    lane.insert(ArtifactKey { hi: i, lo: !i }, testfix::sample_profile());
                    i += 1;
                    std::thread::yield_now();
                }
            });
            let savers: Vec<_> = (0..2)
                .map(|_| s.spawn(|| (0..200).filter(|_| lane.save(&dir).is_err()).count()))
                .collect();
            let failed: usize = savers.into_iter().map(|h| h.join().unwrap()).sum();
            savers_done.store(true, Ordering::Relaxed);
            assert_eq!(failed, 0, "{failed} of 400 saves failed");
        });
        let reloaded: Lane<DynProfile> =
            Lane::new(&MetricsRegistry::new(), "test", DYN_PROFILES_FILE);
        reloaded.load(&dir).unwrap();
        assert_eq!(reloaded.quarantine_records(), Vec::<String>::new());
        assert!(reloaded.len() > 0, "the last save published its entries");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
