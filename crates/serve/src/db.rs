//! Crash-safe cumulative race database with copy-on-write snapshots.
//!
//! The daemon outlives any single analysis, so its findings store must
//! survive SIGKILL at any instruction. The design is the two-root
//! checkpoint scheme of log-structured B-trees (stable root / working
//! root, atomic root swap):
//!
//! * **Stable root** — the file named by `CURRENT`. Immutable: once a
//!   snapshot file is part of the stable history it is never rewritten, so
//!   a reader (`hawkset query`, a crashed daemon restarting) can always
//!   load it without coordinating with the writer.
//! * **Working root** — the in-memory accumulation of merges since the
//!   last checkpoint. It references the stable state by value (records are
//!   copied on first modification of the run) and is lost on a crash by
//!   design: everything in it is reconstructible by resubmitting the
//!   traces whose results had not been checkpointed.
//! * **Checkpoint = atomic root swap** — the working state is serialized
//!   to a *new* generation file (`snapshot-NNNNNN.json`, tmp + fsync +
//!   rename), and only then `CURRENT` is swapped (tmp + fsync + rename) to
//!   name it. A crash before the swap leaves an orphan snapshot that
//!   recovery ignores and deletes; a crash during either rename leaves
//!   either the old or the new file — never a torn one.
//!
//! Every snapshot carries a version and a checksum over its canonical
//! content, so recovery can detect a torn or truncated file (possible if
//! the filesystem reorders the rename past the data blocks, or if an
//! operator copies files around) and fall back: first to the snapshot
//! `CURRENT` names, then to the highest-generation snapshot that
//! validates, then to an empty store. Recovered state is therefore always
//! a **prefix of the checkpoint history** — never a blend of two
//! generations, never a half-applied merge.
//!
//! Records are deduplicated **across runs and tenants** by the race's
//! stable identity — the (store site, load site) frame pair — with an
//! occurrence count and per-tenant provenance, which is what keeps the
//! database bounded by the number of *distinct* races rather than the
//! number of submissions.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use hawkset_core::analysis::{FixKind, FixReport, FixSuggestion, Race};
use hawkset_core::hash::fnv1a;
use hawkset_core::ioplane::{self, IoPlane, RealIo};
use serde::{Deserialize, Serialize};

/// Version of the snapshot file format. Recovery refuses other versions
/// (an unreadable generation is skipped exactly like a torn one).
pub const DB_VERSION: u32 = 1;

/// Stable snapshot generations kept on disk beyond the current one.
/// History is for operators and post-mortems; recovery only ever needs
/// the newest valid file.
const RETAIN_SNAPSHOTS: u64 = 2;

/// Name of the root-pointer file.
const CURRENT: &str = "CURRENT";

/// The cross-trace identity of a race: the store and load *sites*. Stack
/// ids are trace-local and useless across runs; the innermost frames are
/// what Table 2 of the paper names races by, and what two different
/// executions of the same program agree on.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RaceSiteKey {
    /// Store-site function name.
    pub store_function: String,
    /// Store-site source file.
    pub store_file: String,
    /// Store-site line.
    pub store_line: u32,
    /// Load-site function name (second store for store/store pairs).
    pub load_function: String,
    /// Load-site source file.
    pub load_file: String,
    /// Load-site line.
    pub load_line: u32,
    /// `true` for store/store pairs — a different finding kind, so it
    /// never dedupes against a store/load pair at the same sites.
    pub store_store: bool,
}

impl RaceSiteKey {
    /// The key of a reported race. Unresolvable sites (stripped stacks)
    /// collapse to a placeholder, which keeps them mergeable rather than
    /// unique-per-submission.
    pub fn of(race: &Race) -> Self {
        let site = |f: &Option<hawkset_core::trace::Frame>| match f {
            Some(f) => (f.function.clone(), f.file.clone(), f.line),
            None => ("<unknown>".to_string(), String::new(), 0),
        };
        let (store_function, store_file, store_line) = site(&race.store_site);
        let (load_function, load_file, load_line) = site(&race.load_site);
        Self {
            store_function,
            store_file,
            store_line,
            load_function,
            load_file,
            load_line,
            store_store: race.store_store,
        }
    }

    /// `store -> load` rendering for logs and the query listing.
    pub fn render(&self) -> String {
        format!(
            "{}:{} ({}) -> {}:{} ({})",
            self.store_file,
            self.store_line,
            self.store_function,
            self.load_file,
            self.load_line,
            self.load_function
        )
    }
}

/// Per-tenant provenance of one record.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantCount {
    /// Tenant name as presented at submission.
    pub tenant: String,
    /// Reported race entries merged from this tenant's submissions.
    pub submissions: u64,
}

/// One deduplicated repair suggestion attributed to a record's race site.
///
/// The cross-run identity is the patch *shape* plus its verdict: the event
/// sequence numbers inside a [`FixKind`] are trace-local and differ
/// between submissions of different recordings, so two runs agree only on
/// the kind discriminant and on whether the replay proved the patch.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FixRecord {
    /// Patch shape: `"flush_fence"` or `"lock_extension"` (the same
    /// discriminant names the report's `fixes` section uses).
    pub kind: String,
    /// `true` when the submissions carrying this record replayed the
    /// patch and the race disappeared; demoted candidates persist with
    /// `false` and are never presented as fixes.
    pub validated: bool,
    /// First-seen concrete rendering — illustrative only, since its
    /// event sequence numbers are local to that submission's trace.
    pub example: String,
    /// Submissions whose report carried a suggestion of this shape.
    pub occurrences: u64,
    /// Per-tenant provenance, sorted by tenant name.
    pub tenants: Vec<TenantCount>,
}

/// One deduplicated race across every submission that ever reported it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RaceRecord {
    /// Cross-run identity.
    pub key: RaceSiteKey,
    /// Submissions whose report contained this race (the dedupe count).
    pub occurrences: u64,
    /// Concrete racy (window, load) pairs summed over all submissions.
    pub pair_count_total: u64,
    /// OR over submissions: some racy window was never persisted at all.
    pub store_never_persisted: bool,
    /// OR over submissions: some racy window had an empty effective
    /// lockset.
    pub effective_lockset_empty: bool,
    /// OR over submissions: the store was atomic.
    pub store_atomic: bool,
    /// OR over submissions: the load was atomic.
    pub load_atomic: bool,
    /// OR over submissions: the store was non-temporal.
    pub store_non_temporal: bool,
    /// Per-tenant provenance, sorted by tenant name.
    pub tenants: Vec<TenantCount>,
    /// Deduplicated repair suggestions merged from fix-bearing reports,
    /// sorted by (kind, validated). Skipped from serialization while
    /// empty, so snapshots written before any fix arrived — including
    /// every pre-fix-era file on disk — keep their exact bytes and
    /// therefore their checksums.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub fixes: Vec<FixRecord>,
}

impl RaceRecord {
    fn new(key: RaceSiteKey) -> Self {
        Self {
            key,
            occurrences: 0,
            pair_count_total: 0,
            store_never_persisted: false,
            effective_lockset_empty: false,
            store_atomic: false,
            load_atomic: false,
            store_non_temporal: false,
            tenants: Vec::new(),
            fixes: Vec::new(),
        }
    }

    fn merge(&mut self, tenant: &str, race: &Race, fix: Option<&FixSuggestion>) {
        self.occurrences += 1;
        self.pair_count_total += race.pair_count;
        self.store_never_persisted |= race.store_never_persisted;
        self.effective_lockset_empty |= race.effective_lockset_empty;
        self.store_atomic |= race.store_atomic;
        self.load_atomic |= race.load_atomic;
        self.store_non_temporal |= race.store_non_temporal;
        bump_tenant(&mut self.tenants, tenant);
        if let Some(s) = fix {
            self.merge_fix(tenant, s);
        }
    }

    fn merge_fix(&mut self, tenant: &str, s: &FixSuggestion) {
        let kind = fix_kind_name(&s.kind);
        let probe = (kind, s.validated);
        let i = match self
            .fixes
            .binary_search_by(|f| (f.kind.as_str(), f.validated).cmp(&probe))
        {
            Ok(i) => i,
            Err(i) => {
                self.fixes.insert(
                    i,
                    FixRecord {
                        kind: kind.to_string(),
                        validated: s.validated,
                        example: s.kind.summary(),
                        occurrences: 0,
                        tenants: Vec::new(),
                    },
                );
                i
            }
        };
        self.fixes[i].occurrences += 1;
        bump_tenant(&mut self.fixes[i].tenants, tenant);
    }
}

/// The wire name of a fix's shape — matches the serde tag of [`FixKind`],
/// so the database speaks the same vocabulary as the report's `fixes`
/// section.
fn fix_kind_name(kind: &FixKind) -> &'static str {
    match kind {
        FixKind::FlushFence { .. } => "flush_fence",
        FixKind::LockExtension { .. } => "lock_extension",
    }
}

/// Sorted-insert-or-bump for a per-tenant provenance list.
fn bump_tenant(tenants: &mut Vec<TenantCount>, tenant: &str) {
    match tenants.binary_search_by(|t| t.tenant.as_str().cmp(tenant)) {
        Ok(i) => tenants[i].submissions += 1,
        Err(i) => tenants.insert(
            i,
            TenantCount {
                tenant: tenant.to_string(),
                submissions: 1,
            },
        ),
    }
}

/// One serialized root: the whole record set at a checkpoint boundary.
/// Small enough to rewrite wholesale — the record count is bounded by
/// *distinct* races, not submissions — which buys the strongest possible
/// torn-write story: one file, one checksum, valid or not.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DbSnapshot {
    /// [`DB_VERSION`] at write time.
    pub version: u32,
    /// Monotonic checkpoint generation; generation 0 is the empty
    /// bootstrap snapshot.
    pub generation: u64,
    /// Submissions merged into this snapshot over its whole history.
    pub jobs_recorded: u64,
    /// Records sorted by [`RaceSiteKey`] — the canonical order, so equal
    /// states serialize to equal bytes.
    pub records: Vec<RaceRecord>,
    /// FNV-1a 64 over the canonical content (see `content_digest`);
    /// detects torn and truncated files on recovery.
    pub checksum: String,
}

impl DbSnapshot {
    fn empty() -> Self {
        let mut s = Self {
            version: DB_VERSION,
            ..Self::default()
        };
        s.checksum = content_digest(&s);
        s
    }

    /// True when the version matches and the checksum covers the content.
    pub fn validates(&self) -> bool {
        self.version == DB_VERSION && self.checksum == content_digest(self)
    }

    /// Canonical pretty JSON — byte-stable for equal states, which is what
    /// the kill-and-recover tests compare.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization cannot fail")
    }
}

/// FNV-1a 64 of the snapshot's content fields (everything but the checksum
/// itself), over their canonical JSON rendering.
fn content_digest(s: &DbSnapshot) -> String {
    let records = serde_json::to_string(&s.records).expect("record serialization cannot fail");
    let content = format!(
        "v{};g{};j{};{}",
        s.version, s.generation, s.jobs_recorded, records
    );
    format!("{:016x}", fnv1a(content.as_bytes()))
}

/// A database failure. Corruption is *not* one — recovery absorbs it;
/// only real I/O failures (unwritable directory, full disk) surface.
#[derive(Debug)]
pub struct DbError {
    /// What the database was doing.
    pub context: String,
    /// The underlying I/O failure.
    pub source: io::Error,
}

impl core::fmt::Display for DbError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "race database: {}: {}", self.context, self.source)
    }
}

impl std::error::Error for DbError {}

fn db_err(context: impl Into<String>) -> impl FnOnce(io::Error) -> DbError {
    let context = context.into();
    move |source| DbError { context, source }
}

/// What [`RaceDb::open`] had to do to produce a usable stable root —
/// surfaced so the daemon can log honest recovery lines.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Recovery {
    /// `CURRENT` was missing, unreadable, or named an invalid snapshot.
    pub root_pointer_rebuilt: bool,
    /// Snapshot files that failed validation (torn/truncated/foreign).
    pub invalid_snapshots: Vec<String>,
    /// Orphan snapshots from a crashed root swap (generation newer than
    /// the recovered stable root), deleted on open.
    pub orphans_removed: Vec<String>,
}

/// The open database: a stable root on disk plus a working root in memory.
#[derive(Debug)]
pub struct RaceDb {
    dir: PathBuf,
    stable: DbSnapshot,
    working: DbSnapshot,
    recovery: Recovery,
    plane: Arc<dyn IoPlane>,
    /// Generation number the next checkpoint will use. Normally
    /// `stable.generation + 1`, but a failed checkpoint *poisons* its
    /// generation (fsyncgate: after a failed fsync the file's durability
    /// is unknowable — never retry in place), so this only moves forward.
    next_generation: u64,
    /// Checkpoint generations poisoned by a failed write since open.
    poisoned_generations: u64,
}

impl RaceDb {
    /// Opens (or initializes) the database in `dir`, recovering to the
    /// newest valid stable snapshot. Corrupt state never fails the open;
    /// it narrows what is recovered.
    pub fn open(dir: &Path) -> Result<Self, DbError> {
        Self::open_with(dir, Arc::new(RealIo))
    }

    /// [`open`](Self::open) with an explicit I/O plane — the seam the
    /// fault-injection tests and the daemon's `HAWKSET_IO_FAULT_SCRIPT`
    /// chaos mode use.
    pub fn open_with(dir: &Path, plane: Arc<dyn IoPlane>) -> Result<Self, DbError> {
        std::fs::create_dir_all(dir).map_err(db_err(format!("create {}", dir.display())))?;
        let mut recovery = Recovery::default();

        // Crash hygiene first: a tmp file is, by construction, a write
        // that never committed.
        for (path, name) in list_dir(dir)? {
            if name.ends_with(".tmp") {
                let _ = std::fs::remove_file(&path);
            }
        }

        let named = std::fs::read_to_string(dir.join(CURRENT))
            .ok()
            .map(|s| s.trim().to_string());
        let mut stable = match &named {
            Some(name) => match load_snapshot(&dir.join(name)) {
                Ok(s) => Some(s),
                Err(why) => {
                    recovery.invalid_snapshots.push(format!("{name}: {why}"));
                    None
                }
            },
            None => None,
        };
        if stable.is_none() {
            // CURRENT is gone or lies: scan generations newest-first. Every
            // snapshot was fully written *before* any root pointed at it,
            // so the newest valid file is a real point of the history.
            recovery.root_pointer_rebuilt = true;
            let mut candidates = snapshot_files(dir)?;
            candidates.sort_by_key(|c| std::cmp::Reverse(c.0));
            for (_gen, path, name) in candidates {
                if Some(&name) == named.as_ref() {
                    continue; // already failed validation above
                }
                match load_snapshot(&path) {
                    Ok(s) => {
                        stable = Some(s);
                        break;
                    }
                    Err(why) => recovery.invalid_snapshots.push(format!("{name}: {why}")),
                }
            }
        }
        let stable = match stable {
            Some(s) => s,
            None => DbSnapshot::empty(),
        };

        let next_generation = stable.generation + 1;
        let mut db = Self {
            dir: dir.to_path_buf(),
            working: stable.clone(),
            stable,
            recovery,
            plane,
            next_generation,
            poisoned_generations: 0,
        };
        // Re-commit the recovered root: rewrites CURRENT when it was
        // rebuilt and guarantees generation 0 exists on first open.
        db.install_root()?;
        db.prune(true)?;
        Ok(db)
    }

    /// What recovery had to do during [`open`](Self::open).
    pub fn recovery(&self) -> &Recovery {
        &self.recovery
    }

    /// The last durable snapshot.
    pub fn stable(&self) -> &DbSnapshot {
        &self.stable
    }

    /// The working root (stable + uncheckpointed merges).
    pub fn working(&self) -> &DbSnapshot {
        &self.working
    }

    /// Submissions merged since the last checkpoint — the "snapshot age"
    /// the metrics report.
    pub fn jobs_since_checkpoint(&self) -> u64 {
        self.working.jobs_recorded - self.stable.jobs_recorded
    }

    /// Merges one submission's reported races — and, when the report
    /// carried a `fixes` section, each race's repair suggestion — into
    /// the working root. A clean report still counts as a recorded job
    /// (absence across many runs is evidence too).
    pub fn merge_report(&mut self, tenant: &str, races: &[Race], fixes: Option<&FixReport>) {
        self.working.jobs_recorded += 1;
        for race in races {
            let key = RaceSiteKey::of(race);
            let i = match self.working.records.binary_search_by(|r| r.key.cmp(&key)) {
                Ok(i) => i,
                Err(i) => {
                    self.working.records.insert(i, RaceRecord::new(key.clone()));
                    i
                }
            };
            let fix = fixes.and_then(|f| f.suggestions.iter().find(|s| s.race == race.key));
            self.working.records[i].merge(tenant, race, fix);
        }
    }

    /// Checkpoints the working root: new generation file, then atomic root
    /// swap. A no-op when nothing was merged since the last checkpoint.
    ///
    /// On failure the stable root is untouched and the attempted
    /// generation is **poisoned**: a failed fsync means the file's
    /// durability is unknowable (fsyncgate — the kernel may have dropped
    /// the dirty pages and cleared the error), so the generation number is
    /// burned and the next attempt writes a fresh file under a fresh name.
    /// The caller decides whether to also roll back the working root
    /// ([`restore_working`](Self::restore_working)).
    pub fn checkpoint(&mut self) -> Result<(), DbError> {
        if self.working.records == self.stable.records
            && self.working.jobs_recorded == self.stable.jobs_recorded
        {
            return Ok(());
        }
        self.working.generation = self.next_generation;
        self.working.version = DB_VERSION;
        self.working.checksum = content_digest(&self.working);
        let name = snapshot_name(self.working.generation);
        let swap = (|| {
            write_file_atomic(
                self.plane.as_ref(),
                "snapshot",
                &self.dir.join(&name),
                self.working.to_json().as_bytes(),
            )?;
            // Test hook: hold the window between "snapshot durable" and
            // "root swapped" open so the kill-and-recover suite can SIGKILL
            // inside it deterministically.
            if let Some(ms) = std::env::var("HAWKSET_TEST_DB_SWAP_DELAY_MS")
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
            {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            write_file_atomic(
                self.plane.as_ref(),
                "current",
                &self.dir.join(CURRENT),
                format!("{name}\n").as_bytes(),
            )
        })();
        match swap {
            Ok(()) => {
                self.stable = self.working.clone();
                self.next_generation = self.stable.generation + 1;
                self.prune(false)?;
                Ok(())
            }
            Err(e) => {
                // The generation file may be absent, torn, or complete but
                // of unknowable durability — all equally untrustworthy.
                // Remove what's removable and never reuse the number.
                let _ = std::fs::remove_file(self.dir.join(&name));
                self.poisoned_generations += 1;
                self.next_generation += 1;
                Err(e)
            }
        }
    }

    /// Checkpoint generations burned by failed writes since open.
    pub fn poisoned_generations(&self) -> u64 {
        self.poisoned_generations
    }

    /// Rolls the working root back to `prior` (a clone taken before a
    /// merge). Used when the checkpoint that was supposed to make a merge
    /// durable fails: the client is told the job failed and will resubmit,
    /// so keeping the merge in memory would double-count it the moment a
    /// *later* checkpoint succeeds.
    pub fn restore_working(&mut self, prior: DbSnapshot) {
        self.working = prior;
    }

    /// Writes `CURRENT` for the recovered root (and materializes the
    /// generation file if recovery synthesized an empty snapshot).
    fn install_root(&mut self) -> Result<(), DbError> {
        let name = snapshot_name(self.stable.generation);
        // (Re)materialize the generation file unless a valid copy already
        // exists — the existing copy may be the very corruption recovery
        // just routed around (e.g. a torn generation 0).
        if load_snapshot(&self.dir.join(&name)).is_err() {
            write_file_atomic(
                self.plane.as_ref(),
                "snapshot",
                &self.dir.join(&name),
                self.stable.to_json().as_bytes(),
            )?;
        }
        write_file_atomic(
            self.plane.as_ref(),
            "current",
            &self.dir.join(CURRENT),
            format!("{name}\n").as_bytes(),
        )?;
        Ok(())
    }

    /// Deletes orphan snapshots (newer than stable — a crashed swap's
    /// leftovers) and generations older than the retention window.
    fn prune(&mut self, record_orphans: bool) -> Result<(), DbError> {
        for (gen, path, name) in snapshot_files(&self.dir)? {
            if gen > self.stable.generation {
                if record_orphans {
                    self.recovery.orphans_removed.push(name);
                }
                let _ = std::fs::remove_file(&path);
            } else if gen + RETAIN_SNAPSHOTS < self.stable.generation {
                let _ = std::fs::remove_file(&path);
            }
        }
        Ok(())
    }
}

/// Loads the stable root read-only — the `hawkset query` path. Safe
/// against a concurrently checkpointing daemon: snapshot files are
/// immutable and `CURRENT` swaps atomically, so the worst case is reading
/// the previous generation.
pub fn load_stable(dir: &Path) -> Result<DbSnapshot, String> {
    let current = dir.join(CURRENT);
    let named = std::fs::read_to_string(&current)
        .map_err(|e| format!("cannot read {}: {e}", current.display()))?;
    load_snapshot(&dir.join(named.trim()))
}

fn snapshot_name(generation: u64) -> String {
    format!("snapshot-{generation:06}.json")
}

fn load_snapshot(path: &Path) -> Result<DbSnapshot, String> {
    let raw = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let snap: DbSnapshot = serde_json::from_str(&raw)
        .map_err(|e| format!("{}: not a snapshot: {e}", path.display()))?;
    if !snap.validates() {
        return Err(format!(
            "{}: checksum or version mismatch (torn write?)",
            path.display()
        ));
    }
    Ok(snap)
}

fn list_dir(dir: &Path) -> Result<Vec<(PathBuf, String)>, DbError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(db_err(format!("list {}", dir.display())))? {
        let entry = entry.map_err(db_err(format!("list {}", dir.display())))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        out.push((entry.path(), name));
    }
    Ok(out)
}

/// `snapshot-NNNNNN.json` files present, as `(generation, path, name)`.
fn snapshot_files(dir: &Path) -> Result<Vec<(u64, PathBuf, String)>, DbError> {
    let mut out = Vec::new();
    for (path, name) in list_dir(dir)? {
        if let Some(gen) = name
            .strip_prefix("snapshot-")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((gen, path, name));
        }
    }
    Ok(out)
}

/// [`ioplane::write_atomic`] (tmp + fsync + rename + directory fsync)
/// with the failure mapped to a [`DbError`].
fn write_file_atomic(
    plane: &dyn IoPlane,
    site: &str,
    path: &Path,
    bytes: &[u8],
) -> Result<(), DbError> {
    ioplane::write_atomic(plane, site, path, bytes)
        .map_err(db_err(format!("install {}", path.display())))
}

/// Aggregates a batch report's races the same way the daemon would for one
/// submission — the reference implementation `hawkset query --verify`
/// compares the stable root against.
pub fn expected_from_reports<'a>(
    submissions: impl IntoIterator<Item = (&'a str, &'a [Race], Option<&'a FixReport>)>,
) -> Vec<RaceRecord> {
    let mut map: BTreeMap<RaceSiteKey, RaceRecord> = BTreeMap::new();
    for (tenant, races, fixes) in submissions {
        for race in races {
            let key = RaceSiteKey::of(race);
            let fix = fixes.and_then(|f| f.suggestions.iter().find(|s| s.race == race.key));
            map.entry(key.clone())
                .or_insert_with(|| RaceRecord::new(key))
                .merge(tenant, race, fix);
        }
    }
    map.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkset_core::addr::AddrRange;
    use hawkset_core::analysis::RaceKey;
    use hawkset_core::trace::{Frame, ThreadId};

    fn race(store: (&str, u32), load: (&str, u32), pairs: u64) -> Race {
        Race {
            key: RaceKey {
                store_stack: 1,
                load_stack: 2,
            },
            store_site: Some(Frame::new(store.0, "app.c", store.1)),
            load_site: Some(Frame::new(load.0, "app.c", load.1)),
            store_tid: ThreadId(0),
            load_tid: ThreadId(1),
            example_range: AddrRange::new(0x1000, 8),
            pair_count: pairs,
            store_atomic: false,
            load_atomic: false,
            store_non_temporal: false,
            store_never_persisted: true,
            effective_lockset_empty: false,
            store_store: false,
        }
    }

    /// A one-suggestion fix report targeting the `race()` helper's
    /// stack-pair key.
    fn fix_report(kind: FixKind, validated: bool) -> FixReport {
        use hawkset_core::analysis::FixStatus;
        FixReport::new(vec![FixSuggestion {
            race: RaceKey {
                store_stack: 1,
                load_stack: 2,
            },
            kind,
            validated,
            status: if validated {
                FixStatus::Fix
            } else {
                FixStatus::Candidate
            },
        }])
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hwk-db-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn open_bootstraps_an_empty_generation_zero() {
        let dir = tmpdir("boot");
        let db = RaceDb::open(&dir).unwrap();
        assert_eq!(db.stable().generation, 0);
        assert!(db.stable().records.is_empty());
        assert!(dir.join(CURRENT).exists());
        assert!(dir.join(snapshot_name(0)).exists());
        let loaded = load_stable(&dir).unwrap();
        assert_eq!(&loaded, db.stable());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_dedupes_across_submissions_and_tenants() {
        let dir = tmpdir("dedupe");
        let mut db = RaceDb::open(&dir).unwrap();
        let r1 = race(("writer", 10), ("reader", 20), 3);
        let r2 = race(("writer", 10), ("reader", 20), 5);
        let other = race(("other", 1), ("reader", 20), 1);
        db.merge_report("alice", &[r1.clone(), other.clone()], None);
        db.merge_report("bob", std::slice::from_ref(&r2), None);
        db.merge_report("alice", std::slice::from_ref(&r1), None);
        let w = db.working();
        assert_eq!(w.jobs_recorded, 3);
        assert_eq!(w.records.len(), 2, "same sites collapse to one record");
        let rec = w
            .records
            .iter()
            .find(|r| r.key.store_function == "writer")
            .unwrap();
        assert_eq!(rec.occurrences, 3);
        assert_eq!(rec.pair_count_total, 3 + 5 + 3);
        assert_eq!(
            rec.tenants,
            vec![
                TenantCount {
                    tenant: "alice".into(),
                    submissions: 2
                },
                TenantCount {
                    tenant: "bob".into(),
                    submissions: 1
                },
            ]
        );
        assert_eq!(
            w.records.iter().map(|r| &r.key).collect::<Vec<_>>(),
            {
                let mut keys: Vec<&RaceSiteKey> = w.records.iter().map(|r| &r.key).collect();
                keys.sort();
                keys
            },
            "records stay key-sorted"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_swaps_the_root_and_reopen_recovers_it() {
        let dir = tmpdir("ckpt");
        let mut db = RaceDb::open(&dir).unwrap();
        db.merge_report("t", &[race(("w", 1), ("r", 2), 1)], None);
        assert_eq!(db.jobs_since_checkpoint(), 1);
        db.checkpoint().unwrap();
        assert_eq!(db.jobs_since_checkpoint(), 0);
        assert_eq!(db.stable().generation, 1);
        let expected = db.stable().clone();
        drop(db);
        let db = RaceDb::open(&dir).unwrap();
        assert_eq!(db.stable(), &expected);
        assert!(!db.recovery().root_pointer_rebuilt);
        // Idempotent checkpoint: no new generation without new merges.
        let mut db = db;
        db.checkpoint().unwrap();
        assert_eq!(db.stable().generation, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_current_falls_back_to_newest_valid_snapshot() {
        let dir = tmpdir("torn-current");
        let mut db = RaceDb::open(&dir).unwrap();
        db.merge_report("t", &[race(("w", 1), ("r", 2), 1)], None);
        db.checkpoint().unwrap();
        let expected = db.stable().clone();
        drop(db);
        std::fs::write(dir.join(CURRENT), "snapshot-999999.json\n").unwrap();
        let db = RaceDb::open(&dir).unwrap();
        assert!(db.recovery().root_pointer_rebuilt);
        assert_eq!(db.stable(), &expected);
        assert_eq!(load_stable(&dir).unwrap(), expected, "CURRENT rewritten");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_snapshot_recovers_to_the_previous_generation() {
        let dir = tmpdir("truncated");
        let mut db = RaceDb::open(&dir).unwrap();
        db.merge_report("t", &[race(("w", 1), ("r", 2), 1)], None);
        db.checkpoint().unwrap();
        let gen1 = db.stable().clone();
        db.merge_report("t", &[race(("w2", 3), ("r2", 4), 1)], None);
        db.checkpoint().unwrap();
        assert_eq!(db.stable().generation, 2);
        drop(db);
        // Tear generation 2 mid-file: recovery must reject it (checksum)
        // and fall back to generation 1.
        let p2 = dir.join(snapshot_name(2));
        let bytes = std::fs::read(&p2).unwrap();
        std::fs::write(&p2, &bytes[..bytes.len() / 2]).unwrap();
        let db = RaceDb::open(&dir).unwrap();
        assert!(db.recovery().root_pointer_rebuilt);
        assert_eq!(db.recovery().invalid_snapshots.len(), 1);
        assert_eq!(db.stable(), &gen1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphan_snapshot_from_a_crashed_swap_is_ignored_and_removed() {
        let dir = tmpdir("orphan");
        let mut db = RaceDb::open(&dir).unwrap();
        db.merge_report("t", &[race(("w", 1), ("r", 2), 1)], None);
        db.checkpoint().unwrap();
        let gen1 = db.stable().clone();
        drop(db);
        // Simulate a crash after the generation-2 write but before the
        // root swap: a valid newer snapshot that CURRENT never named.
        let mut orphan = gen1.clone();
        orphan.generation = 2;
        orphan.jobs_recorded += 1;
        orphan.checksum = content_digest(&orphan);
        std::fs::write(dir.join(snapshot_name(2)), orphan.to_json()).unwrap();
        let db = RaceDb::open(&dir).unwrap();
        assert_eq!(db.stable(), &gen1, "the swap never happened");
        assert_eq!(db.recovery().orphans_removed, vec![snapshot_name(2)]);
        assert!(!dir.join(snapshot_name(2)).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Snapshot files on disk carry checksums that recovery verifies, so
    /// the digest's values are pinned: FNV-1a 64 of `v1;g0;j0;[]`.
    #[test]
    fn empty_snapshot_checksum_is_pinned() {
        assert_eq!(DbSnapshot::empty().checksum, "0ec902ecef307702");
    }

    #[test]
    fn everything_invalid_recovers_to_empty() {
        let dir = tmpdir("scorched");
        let mut db = RaceDb::open(&dir).unwrap();
        db.merge_report("t", &[race(("w", 1), ("r", 2), 1)], None);
        db.checkpoint().unwrap();
        drop(db);
        for (_gen, path, _name) in snapshot_files(&dir).unwrap() {
            std::fs::write(&path, "{").unwrap();
        }
        let db = RaceDb::open(&dir).unwrap();
        assert_eq!(db.stable().records.len(), 0);
        assert_eq!(db.stable().generation, 0);
        assert!(load_stable(&dir).is_ok(), "root re-materialized");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn expected_from_reports_matches_merge() {
        let dir = tmpdir("verify");
        let mut db = RaceDb::open(&dir).unwrap();
        let a = [race(("w", 1), ("r", 2), 3)];
        let b = [race(("w", 1), ("r", 2), 5), race(("x", 7), ("y", 8), 1)];
        db.merge_report("t1", &a, None);
        db.merge_report("t2", &b, None);
        db.merge_report("t1", &a, None);
        let expected = expected_from_reports([
            ("t1", &a[..], None),
            ("t2", &b[..], None),
            ("t1", &a[..], None),
        ]);
        assert_eq!(db.working().records, expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fix_records_dedupe_by_shape_with_tenant_provenance() {
        let dir = tmpdir("fixes");
        let mut db = RaceDb::open(&dir).unwrap();
        let r = race(("w", 1), ("r", 2), 1);
        // A fix-free merge first: the serialized snapshot must not grow a
        // `fixes` key, keeping pre-fix-era snapshot bytes (and therefore
        // their checksums) reachable by the same code.
        db.merge_report("alice", std::slice::from_ref(&r), None);
        db.checkpoint().unwrap();
        assert!(
            !db.stable().to_json().contains("\"fixes\""),
            "no fixes merged, no fixes key"
        );
        let pre_fix = db.stable().clone();
        drop(db);
        let mut db = RaceDb::open(&dir).unwrap();
        assert_eq!(db.stable(), &pre_fix, "fix-free snapshots round-trip");

        // Two tenants report the same validated flush+fence shape (with
        // different trace-local seqs), one adds a demoted candidate of a
        // different shape.
        let ff1 = fix_report(
            FixKind::FlushFence {
                after_seq: 2,
                line: 0x1000,
            },
            true,
        );
        let ff2 = fix_report(
            FixKind::FlushFence {
                after_seq: 40,
                line: 0x7000,
            },
            true,
        );
        let le = fix_report(
            FixKind::LockExtension {
                lock: 0xa,
                from_seq: 5,
                to_seq: 1,
            },
            false,
        );
        db.merge_report("alice", std::slice::from_ref(&r), Some(&ff1));
        db.merge_report("bob", std::slice::from_ref(&r), Some(&ff2));
        db.merge_report("bob", std::slice::from_ref(&r), Some(&le));
        let rec = &db.working().records[0];
        assert_eq!(rec.fixes.len(), 2, "same shape+verdict collapses");
        assert_eq!(rec.fixes[0].kind, "flush_fence");
        assert!(rec.fixes[0].validated);
        assert_eq!(rec.fixes[0].occurrences, 2);
        assert_eq!(
            rec.fixes[0].example, "flush+fence after seq 2 (line 0x1000)",
            "the first-seen rendering is kept"
        );
        assert_eq!(
            rec.fixes[0].tenants,
            vec![
                TenantCount {
                    tenant: "alice".into(),
                    submissions: 1
                },
                TenantCount {
                    tenant: "bob".into(),
                    submissions: 1
                },
            ]
        );
        assert_eq!(rec.fixes[1].kind, "lock_extension");
        assert!(!rec.fixes[1].validated, "candidates persist demoted");

        // The fix-bearing state survives the checkpoint/recover cycle.
        db.checkpoint().unwrap();
        assert!(db.stable().to_json().contains("\"fixes\""));
        let expected = db.stable().clone();
        drop(db);
        let db = RaceDb::open(&dir).unwrap();
        assert_eq!(db.stable(), &expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn expected_from_reports_accounts_for_fixes() {
        let dir = tmpdir("verify-fixes");
        let mut db = RaceDb::open(&dir).unwrap();
        let a = [race(("w", 1), ("r", 2), 3)];
        let ff = fix_report(
            FixKind::FlushFence {
                after_seq: 2,
                line: 0x1000,
            },
            true,
        );
        db.merge_report("t1", &a, Some(&ff));
        db.merge_report("t2", &a, None);
        let expected = expected_from_reports([("t1", &a[..], Some(&ff)), ("t2", &a[..], None)]);
        assert_eq!(db.working().records, expected);
        assert_eq!(expected[0].fixes.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshots_are_pruned_beyond_retention() {
        let dir = tmpdir("prune");
        let mut db = RaceDb::open(&dir).unwrap();
        for i in 0..6u32 {
            db.merge_report("t", &[race(("w", i), ("r", i + 100), 1)], None);
            db.checkpoint().unwrap();
        }
        assert_eq!(db.stable().generation, 6);
        let gens: Vec<u64> = {
            let mut g: Vec<u64> = snapshot_files(&dir)
                .unwrap()
                .into_iter()
                .map(|(g, _, _)| g)
                .collect();
            g.sort();
            g
        };
        assert_eq!(
            gens,
            vec![4, 5, 6],
            "retention keeps {RETAIN_SNAPSHOTS}+current"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_fsync_poisons_the_generation_and_never_retries_in_place() {
        use hawkset_core::ioplane::{FaultScript, ScriptedIo};
        let dir = tmpdir("fsyncgate");
        // Occurrence 0 of (snapshot, fsync) is the gen-0 bootstrap write;
        // occurrence 1 is the first real checkpoint.
        let plane = Arc::new(ScriptedIo::new(
            FaultScript::parse("snapshot:fsync:1:eio").unwrap(),
        ));
        let mut db = RaceDb::open_with(&dir, plane.clone()).unwrap();
        db.merge_report("t", &[race(("w", 1), ("r", 2), 1)], None);
        let err = db.checkpoint().unwrap_err();
        assert_eq!(err.source.raw_os_error(), Some(5));
        assert_eq!(db.poisoned_generations(), 1);
        assert_eq!(db.stable().generation, 0, "stable root untouched");
        assert!(
            !dir.join(snapshot_name(1)).exists(),
            "the poisoned generation file is gone"
        );
        // The retry must burn generation 1 and write generation 2 fresh.
        db.checkpoint().unwrap();
        assert_eq!(db.stable().generation, 2);
        assert!(!dir.join(snapshot_name(1)).exists());
        assert_eq!(load_stable(&dir).unwrap(), *db.stable());
        assert_eq!(plane.injected(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_snapshot_write_is_caught_by_recovery_not_trusted() {
        use hawkset_core::ioplane::{FaultScript, ScriptedIo};
        let dir = tmpdir("torn-inject");
        let plane = Arc::new(ScriptedIo::new(
            FaultScript::parse("snapshot:write:1:torn").unwrap(),
        ));
        let mut db = RaceDb::open_with(&dir, plane).unwrap();
        db.merge_report("t", &[race(("w", 1), ("r", 2), 1)], None);
        // The torn write lies: checkpoint believes it succeeded.
        db.checkpoint().unwrap();
        drop(db);
        // Recovery's checksum is the authority: the torn generation is
        // rejected and the database falls back to generation 0.
        let db = RaceDb::open(&dir).unwrap();
        assert!(db.recovery().root_pointer_rebuilt);
        assert_eq!(db.stable().generation, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_working_rolls_back_an_unpersisted_merge() {
        use hawkset_core::ioplane::{FaultScript, ScriptedIo};
        let dir = tmpdir("rollback");
        let plane = Arc::new(ScriptedIo::new(
            FaultScript::parse("current:rename:1:enospc").unwrap(),
        ));
        let mut db = RaceDb::open_with(&dir, plane).unwrap();
        let prior = db.working().clone();
        db.merge_report("t", &[race(("w", 1), ("r", 2), 1)], None);
        assert!(db.checkpoint().is_err());
        db.restore_working(prior);
        assert_eq!(db.jobs_since_checkpoint(), 0);
        // The resubmitted job lands exactly once.
        db.merge_report("t", &[race(("w", 1), ("r", 2), 1)], None);
        db.checkpoint().unwrap();
        let rec = &db.stable().records[0];
        assert_eq!(rec.occurrences, 1, "rollback prevented double counting");
        assert_eq!(db.stable().jobs_recorded, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
