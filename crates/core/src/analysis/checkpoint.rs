//! Checkpoint/resume for long analysis runs.
//!
//! A run that dies hours in — OOM-killed, node reboot, Ctrl-C — should not
//! cost hours to redo. The streaming analyzer periodically snapshots its
//! durable progress to a checkpoint file through the one durable write,
//! [`ioplane::write_atomic`](crate::ioplane::write_atomic) (tmp, fsync,
//! rename, directory fsync), and `--resume` picks the run back up.
//!
//! What is checkpointed is chosen by cost, not by completeness:
//!
//! * **Ingest progress** (stream offset, event counts) is recorded for
//!   sanity-checking only. Decode + simulation are linear and fast; on
//!   resume they are *replayed* from the trace file, which is both simpler
//!   and safer than persisting the simulator's interning tables.
//! * **Finished pairing shards** are the expensive part (the stage is
//!   quadratic in the worst case) and are persisted output-by-output. On
//!   resume a finished shard is not re-executed: its recorded output is
//!   merged verbatim, preserving bit-identical reports because only
//!   deterministic outputs (`ShardOutput::cacheable`) are ever stored —
//!   deadline/watchdog/interrupt truncations are schedule-dependent and
//!   never cached.
//!
//! The file is versioned JSON ([`CHECKPOINT_VERSION`]) and stamped with a
//! [fingerprint](config_fingerprint) of every report-affecting knob plus
//! the source identity; resuming under a different configuration or
//! against a different trace is refused with a typed
//! [`CheckpointError`] rather than silently merging incompatible state.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use super::engine::{RaceAcc, ShardOutput, SiteKey};
use super::{AnalysisConfig, BudgetExceeded, Race, Strictness};
use crate::error::HawkSetError;
use crate::ioplane::{write_atomic, IoPlane, RealIo};

/// Version of the checkpoint file format. Bump on any change to the
/// serialized shape; [`AnalysisCheckpoint::load`] refuses other versions
/// (re-running from scratch is always safe, merging mis-parsed state is
/// not).
pub const CHECKPOINT_VERSION: u32 = 1;

/// Default events between ingest-progress flushes when the caller does not
/// set [`AnalysisConfig::checkpoint_every`].
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 1 << 20;

/// Why a checkpoint cannot resume the requested run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file's format version is not [`CHECKPOINT_VERSION`].
    VersionMismatch {
        /// Version found in the file.
        found: u32,
    },
    /// The run's configuration fingerprint differs from the checkpoint's —
    /// cached shard outputs would not match what this run computes.
    ConfigMismatch {
        /// Fingerprint found in the file.
        found: String,
        /// Fingerprint of the resuming run.
        expected: String,
    },
    /// The trace being analyzed is not the one the checkpoint was taken
    /// from (different declared event count).
    SourceMismatch {
        /// Declared events recorded in the checkpoint.
        found: u64,
        /// Declared events of the resuming run's trace.
        expected: u64,
    },
    /// The file parsed as JSON but not as a checkpoint.
    Malformed(String),
}

impl core::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckpointError::VersionMismatch { found } => write!(
                f,
                "checkpoint format version {found} (this build reads {CHECKPOINT_VERSION})"
            ),
            CheckpointError::ConfigMismatch { found, expected } => write!(
                f,
                "checkpoint was taken under configuration `{found}` but this run is `{expected}`"
            ),
            CheckpointError::SourceMismatch { found, expected } => write!(
                f,
                "checkpoint belongs to a trace with {found} events, this trace declares {expected}"
            ),
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Ingest-side progress: how far the stream decode + simulation got.
/// Recorded for resume-time sanity checks and operator visibility; the
/// linear stages are replayed on resume rather than restored.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestProgress {
    /// Absolute byte offset of the next undecoded byte — in mid-salvage
    /// runs this is the end of the well-formed prefix, so a checkpoint
    /// taken mid-salvage still names a real stream position.
    pub stream_offset: u64,
    /// Events decoded from the stream so far.
    pub events_decoded: u64,
    /// Events admitted past quarantine (equals `events_decoded` under
    /// strict mode).
    pub events_kept: u64,
    /// Events fed to the simulator (kept, capped by `max_events`).
    pub events_analyzed: u64,
}

/// One persisted race accumulator: the pairing engine's
/// deduplication-key + witness-rank pair flattened to named scalar fields
/// (the vendored serde derives support neither tuples nor enum payloads in
/// maps), plus the [`Race`] itself, which already serializes for reports.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RaceEntry {
    /// `"functions"` or `"stacks"` — which dedup key variant applies.
    pub site_kind: String,
    /// Store-side function name (`site_kind == "functions"` only).
    #[serde(default)]
    pub store_function: String,
    /// Load-side function name (`site_kind == "functions"` only).
    #[serde(default)]
    pub load_function: String,
    /// Store-side stack id (`site_kind == "stacks"` only).
    #[serde(default)]
    pub store_stack_key: u32,
    /// Load-side stack id (`site_kind == "stacks"` only).
    #[serde(default)]
    pub load_stack_key: u32,
    /// Witness rank: global window-group index of the first witness.
    pub rank_group: u32,
    /// Witness rank: load-group index of the first witness.
    pub rank_load: u32,
    /// The accumulated race.
    pub race: Race,
}

/// One finished pairing shard, mirroring the engine's `ShardOutput`
/// field-for-field.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardEntry {
    /// Shard index within the fixed shard plan.
    pub shard: u32,
    /// Candidate pairs examined.
    pub candidate_pairs: u64,
    /// Pairs pruned by the happens-before filter.
    pub hb_pruned: u64,
    /// Pairs protected by a common lock.
    pub lockset_protected: u64,
    /// Racy pairs before deduplication.
    pub racy_pairs: u64,
    /// HB memo-table hits.
    pub hb_memo_hits: u64,
    /// Lockset memo-table hits.
    pub lockset_memo_hits: u64,
    /// Window groups examined.
    pub groups_examined: u64,
    /// Candidate pairs enumerated in a budget-dropped tail.
    pub pairs_budget_dropped: u64,
    /// Truncation, if any. Only `candidate_pairs` (deterministic) can
    /// appear — non-cacheable truncations are never written.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub truncated: Option<BudgetExceeded>,
    /// Accumulated races, sorted by witness rank (ties by key) so the file
    /// bytes are stable across runs.
    pub races: Vec<RaceEntry>,
}

impl ShardEntry {
    /// Snapshot of a finished shard's output.
    pub(crate) fn from_output(shard: usize, out: &ShardOutput) -> Self {
        debug_assert!(out.cacheable(), "non-deterministic shard output persisted");
        let mut races: Vec<RaceEntry> = out
            .races
            .iter()
            .map(|(key, acc)| {
                let mut e = RaceEntry {
                    site_kind: String::new(),
                    store_function: String::new(),
                    load_function: String::new(),
                    store_stack_key: 0,
                    load_stack_key: 0,
                    rank_group: acc.rank.0,
                    rank_load: acc.rank.1,
                    race: acc.race.clone(),
                };
                match key {
                    SiteKey::Functions(s, l) => {
                        e.site_kind = "functions".into();
                        e.store_function = s.clone();
                        e.load_function = l.clone();
                    }
                    SiteKey::Stacks(s, l) => {
                        e.site_kind = "stacks".into();
                        e.store_stack_key = *s;
                        e.load_stack_key = *l;
                    }
                }
                e
            })
            .collect();
        races.sort_by(|a, b| {
            (
                a.rank_group,
                a.rank_load,
                &a.store_function,
                &a.load_function,
            )
                .cmp(&(
                    b.rank_group,
                    b.rank_load,
                    &b.store_function,
                    &b.load_function,
                ))
                .then_with(|| {
                    (a.store_stack_key, a.load_stack_key)
                        .cmp(&(b.store_stack_key, b.load_stack_key))
                })
        });
        ShardEntry {
            shard: shard as u32,
            candidate_pairs: out.candidate_pairs,
            hb_pruned: out.hb_pruned,
            lockset_protected: out.lockset_protected,
            racy_pairs: out.racy_pairs,
            hb_memo_hits: out.hb_memo_hits,
            lockset_memo_hits: out.lockset_memo_hits,
            groups_examined: out.groups_examined,
            pairs_budget_dropped: out.pairs_budget_dropped,
            truncated: out.truncated,
            races,
        }
    }

    /// Rebuilds the engine-side output this entry was taken from.
    pub(crate) fn to_output(&self) -> ShardOutput {
        let mut races = HashMap::with_capacity(self.races.len());
        for e in &self.races {
            let key = if e.site_kind == "functions" {
                SiteKey::Functions(e.store_function.clone(), e.load_function.clone())
            } else {
                SiteKey::Stacks(e.store_stack_key, e.load_stack_key)
            };
            races.insert(
                key,
                RaceAcc {
                    rank: (e.rank_group, e.rank_load),
                    race: e.race.clone(),
                },
            );
        }
        ShardOutput {
            races,
            candidate_pairs: self.candidate_pairs,
            hb_pruned: self.hb_pruned,
            lockset_protected: self.lockset_protected,
            racy_pairs: self.racy_pairs,
            hb_memo_hits: self.hb_memo_hits,
            lockset_memo_hits: self.lockset_memo_hits,
            groups_examined: self.groups_examined,
            pairs_budget_dropped: self.pairs_budget_dropped,
            truncated: self.truncated,
        }
    }
}

/// The checkpoint file: versioned, fingerprinted, atomic-rename-written.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct AnalysisCheckpoint {
    /// [`CHECKPOINT_VERSION`] at write time.
    pub version: u32,
    /// [`config_fingerprint`] of the run that wrote the file.
    pub fingerprint: String,
    /// Trace source the run was analyzing (path, or `-` for stdin — which
    /// cannot be resumed, the stream is gone).
    pub source: String,
    /// Event count the trace header declared — the source-identity check.
    pub declared_events: u64,
    /// Coarse phase at the last flush: `ingest`, `pairing`, or `done`.
    pub phase: String,
    /// Ingest progress at the last flush.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub ingest: Option<IngestProgress>,
    /// Finished pairing shards, in shard order.
    #[serde(default)]
    pub shards: Vec<ShardEntry>,
}

impl AnalysisCheckpoint {
    /// Parses a checkpoint file, refusing unknown format versions.
    pub fn load(path: &Path) -> Result<Self, HawkSetError> {
        let raw = std::fs::read_to_string(path)?;
        let ck: AnalysisCheckpoint =
            serde_json::from_str(&raw).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        if ck.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::VersionMismatch { found: ck.version }.into());
        }
        Ok(ck)
    }

    /// Checks that this checkpoint can seed a run with the given
    /// fingerprint and trace identity.
    pub fn validate_resume(
        &self,
        fingerprint: &str,
        declared_events: u64,
    ) -> Result<(), CheckpointError> {
        if self.fingerprint != fingerprint {
            return Err(CheckpointError::ConfigMismatch {
                found: self.fingerprint.clone(),
                expected: fingerprint.to_string(),
            });
        }
        if self.declared_events != declared_events {
            return Err(CheckpointError::SourceMismatch {
                found: self.declared_events,
                expected: declared_events,
            });
        }
        Ok(())
    }

    /// The cached shard outputs, keyed by shard index, for
    /// [`PairingControls::resume`](super::engine::PairingControls).
    pub(crate) fn shard_outputs(&self) -> HashMap<usize, ShardOutput> {
        self.shards
            .iter()
            .map(|e| (e.shard as usize, e.to_output()))
            .collect()
    }
}

/// Fingerprint of every configuration knob that affects report *content*.
///
/// Deliberately excluded: `threads` (bit-identical by contract), the
/// wall-clock budgets (`deadline`, `stage_timeout`) and `interrupt`
/// (schedule-dependent truncations are never cached, so they cannot leak
/// into a resumed report), and the checkpoint/stream-ingest knobs
/// themselves (`AnalysisConfig::stream` carries the session this
/// fingerprint is written into).
pub fn config_fingerprint(cfg: &AnalysisConfig) -> String {
    let opt = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_else(|| "none".into());
    format!(
        "v1;irh={};atomics={};eadr={};hb={};ss={};strict={};pairs={};events={};mem={};fixes={}",
        u8::from(cfg.irh),
        u8::from(cfg.include_atomics),
        u8::from(cfg.eadr),
        u8::from(cfg.use_hb),
        u8::from(cfg.check_store_store),
        match cfg.strictness {
            Strictness::Strict => "strict",
            Strictness::Lenient => "lenient",
        },
        opt(cfg.budget.max_candidate_pairs),
        opt(cfg.budget.max_events),
        opt(cfg.budget.memory_budget),
        u8::from(cfg.suggest_fixes),
    )
}

/// Live checkpoint writer attached to one analysis run.
///
/// Shared across the pipeline's threads: ingest progress is recorded from
/// the streaming loop, shard outputs from the pairing workers (via the
/// engine's `PairingControls::on_shard`). Every record flushes
/// atomically — shard completions are rare and ingest records already
/// ride a caller-side cadence, so each flush is worth its rename. Write
/// failures from worker threads are deferred (a checkpoint problem must
/// not kill the analysis) and surfaced by [`take_error`](Self::take_error).
#[derive(Debug)]
pub struct CheckpointSession {
    path: PathBuf,
    every: u64,
    plane: Arc<dyn IoPlane>,
    state: Mutex<SessionState>,
}

#[derive(Debug)]
struct SessionState {
    ck: AnalysisCheckpoint,
    last_error: Option<std::io::Error>,
}

impl CheckpointSession {
    /// A fresh session writing to `path`. `every` is the ingest cadence in
    /// events (the caller's loop consults [`every`](Self::every)).
    pub fn new(path: PathBuf, fingerprint: String, source: String, every: Option<u64>) -> Self {
        Self {
            path,
            every: every.unwrap_or(DEFAULT_CHECKPOINT_EVERY).max(1),
            plane: Arc::new(RealIo),
            state: Mutex::new(SessionState {
                ck: AnalysisCheckpoint {
                    version: CHECKPOINT_VERSION,
                    fingerprint,
                    source,
                    declared_events: 0,
                    phase: "ingest".into(),
                    ingest: None,
                    shards: Vec::new(),
                },
                last_error: None,
            }),
        }
    }

    /// A session resuming from a loaded checkpoint: prior shard entries are
    /// carried forward so later flushes do not lose them.
    pub fn resuming(path: PathBuf, prior: AnalysisCheckpoint, every: Option<u64>) -> Self {
        Self {
            path,
            every: every.unwrap_or(DEFAULT_CHECKPOINT_EVERY).max(1),
            plane: Arc::new(RealIo),
            state: Mutex::new(SessionState {
                ck: prior,
                last_error: None,
            }),
        }
    }

    /// Routes this session's flushes through `plane` (site `checkpoint`) —
    /// how daemon and CLI runs pick up a process-wide fault script.
    pub fn with_plane(mut self, plane: Arc<dyn IoPlane>) -> Self {
        self.plane = plane;
        self
    }

    /// Ingest cadence in events.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Path of the checkpoint file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stamps the trace identity (once the header is decoded).
    pub fn set_declared_events(&self, declared: u64) {
        self.lock_state().ck.declared_events = declared;
    }

    /// Records ingest progress and flushes.
    pub fn record_ingest(&self, progress: IngestProgress) {
        let mut st = self.lock_state();
        st.ck.phase = "ingest".into();
        st.ck.ingest = Some(progress);
        self.flush_locked(&mut st);
    }

    /// Marks the run's coarse phase and flushes.
    pub fn set_phase(&self, phase: &str) {
        let mut st = self.lock_state();
        st.ck.phase = phase.into();
        self.flush_locked(&mut st);
    }

    /// Records one finished (cacheable) shard output and flushes. Called
    /// from pairing worker threads.
    pub(crate) fn record_shard(&self, shard: usize, out: &ShardOutput) {
        let entry = ShardEntry::from_output(shard, out);
        let mut st = self.lock_state();
        st.ck.phase = "pairing".into();
        match st.ck.shards.binary_search_by_key(&entry.shard, |e| e.shard) {
            Ok(i) => st.ck.shards[i] = entry,
            Err(i) => st.ck.shards.insert(i, entry),
        }
        self.flush_locked(&mut st);
    }

    /// Forces a flush of the current state (the final flush on interrupt).
    pub fn flush_now(&self) -> std::io::Result<()> {
        let mut st = self.lock_state();
        self.write(&st.ck)?;
        st.last_error = None;
        Ok(())
    }

    /// The most recent deferred write error, if any.
    pub fn take_error(&self) -> Option<std::io::Error> {
        self.lock_state().last_error.take()
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, SessionState> {
        // A panicking pairing worker must not poison checkpointing for the
        // rest of the run: every record is a full, internally consistent
        // state, so recovering the guard is safe.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn flush_locked(&self, st: &mut SessionState) {
        if let Err(e) = self.write(&st.ck) {
            st.last_error = Some(e);
        }
    }

    /// Serializes `ck` and atomically replaces the checkpoint file (site
    /// `checkpoint`): a reader never observes a half-written checkpoint,
    /// and a failed write leaves the previously committed one intact.
    fn write(&self, ck: &AnalysisCheckpoint) -> std::io::Result<()> {
        let mut json =
            serde_json::to_string_pretty(ck).expect("checkpoint serialization cannot fail");
        json.push('\n');
        write_atomic(
            self.plane.as_ref(),
            "checkpoint",
            &self.path,
            json.as_bytes(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddrRange;
    use crate::analysis::RaceKey;
    use crate::trace::{Frame, ThreadId};

    fn sample_race(n: u64) -> Race {
        Race {
            key: RaceKey {
                store_stack: 1,
                load_stack: 2,
            },
            store_site: Some(Frame::new("insert", "btree.h", 560)),
            load_site: Some(Frame::new("search", "btree.h", 878)),
            store_tid: ThreadId(0),
            load_tid: ThreadId(1),
            example_range: AddrRange::new(0x1000, 8),
            pair_count: n,
            store_atomic: false,
            load_atomic: false,
            store_non_temporal: false,
            store_never_persisted: true,
            effective_lockset_empty: false,
            store_store: false,
        }
    }

    fn sample_output() -> ShardOutput {
        let mut races = HashMap::new();
        races.insert(
            SiteKey::Functions("writer".into(), "reader".into()),
            RaceAcc {
                rank: (3, 1),
                race: sample_race(5),
            },
        );
        races.insert(
            SiteKey::Stacks(7, 9),
            RaceAcc {
                rank: (0, 2),
                race: sample_race(2),
            },
        );
        ShardOutput {
            races,
            candidate_pairs: 42,
            hb_pruned: 10,
            lockset_protected: 5,
            racy_pairs: 7,
            hb_memo_hits: 3,
            lockset_memo_hits: 4,
            groups_examined: 6,
            pairs_budget_dropped: 0,
            truncated: None,
        }
    }

    #[test]
    fn shard_entry_roundtrips_the_engine_output() {
        let out = sample_output();
        let entry = ShardEntry::from_output(11, &out);
        assert_eq!(entry.shard, 11);
        assert_eq!(entry.races.len(), 2);
        // Sorted by rank: the Stacks entry (rank (0,2)) comes first.
        assert_eq!(entry.races[0].site_kind, "stacks");
        let back = entry.to_output();
        assert_eq!(back.candidate_pairs, out.candidate_pairs);
        assert_eq!(back.racy_pairs, out.racy_pairs);
        assert_eq!(back.truncated, out.truncated);
        assert_eq!(back.races.len(), out.races.len());
        for (key, acc) in &out.races {
            let b = back.races.get(key).expect("key survives the roundtrip");
            assert_eq!(b.rank, acc.rank);
            assert_eq!(b.race, acc.race);
        }
    }

    #[test]
    fn checkpoint_file_roundtrips_and_validates() {
        let dir = std::env::temp_dir().join(format!("hwk-ck-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let fp = config_fingerprint(&AnalysisConfig::default());
        let session = CheckpointSession::new(path.clone(), fp.clone(), "trace.hwkt".into(), None);
        session.set_declared_events(100);
        session.record_ingest(IngestProgress {
            stream_offset: 512,
            events_decoded: 100,
            events_kept: 99,
            events_analyzed: 99,
        });
        session.record_shard(11, &sample_output());
        session.record_shard(3, &sample_output());
        assert!(session.take_error().is_none());

        let ck = AnalysisCheckpoint::load(&path).expect("written checkpoint loads");
        assert_eq!(ck.version, CHECKPOINT_VERSION);
        assert_eq!(ck.phase, "pairing");
        assert_eq!(ck.ingest.as_ref().unwrap().stream_offset, 512);
        assert_eq!(
            ck.shards.iter().map(|e| e.shard).collect::<Vec<_>>(),
            vec![3, 11],
            "entries stay sorted by shard"
        );
        ck.validate_resume(&fp, 100).expect("same config + source");
        assert!(matches!(
            ck.validate_resume("v1;other", 100),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
        assert!(matches!(
            ck.validate_resume(&fp, 101),
            Err(CheckpointError::SourceMismatch { .. })
        ));
        let outputs = ck.shard_outputs();
        assert_eq!(outputs.len(), 2);
        assert!(outputs.contains_key(&3) && outputs.contains_key(&11));
        assert!(
            !dir.join("run.ckpt.tmp").exists(),
            "atomic write leaves no tmp file"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_and_shape_mismatches_are_typed_errors() {
        let dir = std::env::temp_dir().join(format!("hwk-ckv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.ckpt");

        let mut ck = AnalysisCheckpoint {
            version: CHECKPOINT_VERSION + 1,
            ..Default::default()
        };
        std::fs::write(&path, serde_json::to_string(&ck).unwrap()).unwrap();
        assert!(matches!(
            AnalysisCheckpoint::load(&path),
            Err(HawkSetError::Checkpoint(CheckpointError::VersionMismatch { found }))
                if found == CHECKPOINT_VERSION + 1
        ));

        std::fs::write(&path, "{ not json").unwrap();
        assert!(matches!(
            AnalysisCheckpoint::load(&path),
            Err(HawkSetError::Checkpoint(CheckpointError::Malformed(_)))
        ));

        ck.version = CHECKPOINT_VERSION;
        std::fs::write(&path, serde_json::to_string(&ck).unwrap()).unwrap();
        AnalysisCheckpoint::load(&path).expect("current version loads");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scripted_flush_failure_is_deferred_and_keeps_the_prior_checkpoint() {
        use crate::ioplane::{FaultScript, ScriptedIo};
        let dir = std::env::temp_dir().join(format!("hwk-ckf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        // First flush commits; the second fails at fsync, the third at
        // write. The committed file must survive both.
        let plane = Arc::new(ScriptedIo::new(
            FaultScript::parse("checkpoint:fsync:1:eio;checkpoint:write:2:enospc").unwrap(),
        ));
        let session = CheckpointSession::new(path.clone(), "fp".into(), "t.hwkt".into(), None)
            .with_plane(plane);
        session.record_ingest(IngestProgress {
            stream_offset: 64,
            ..Default::default()
        });
        assert!(session.take_error().is_none());
        session.record_ingest(IngestProgress {
            stream_offset: 128,
            ..Default::default()
        });
        let err = session.take_error().expect("fsync failure deferred");
        assert_eq!(err.raw_os_error(), Some(5));
        session.record_ingest(IngestProgress {
            stream_offset: 256,
            ..Default::default()
        });
        let err = session.take_error().expect("write failure deferred");
        assert_eq!(err.raw_os_error(), Some(28));
        let ck = AnalysisCheckpoint::load(&path).expect("committed checkpoint intact");
        assert_eq!(ck.ingest.unwrap().stream_offset, 64);
        assert!(!dir.join("run.ckpt.tmp").exists(), "failed tmp removed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_tracks_report_affecting_knobs_only() {
        let base = config_fingerprint(&AnalysisConfig::default());
        let mut cfg = AnalysisConfig {
            threads: 8,
            checkpoint_every: Some(10),
            ..Default::default()
        };
        cfg.budget.deadline = Some(std::time::Duration::from_secs(1));
        cfg.budget.stage_timeout = Some(std::time::Duration::from_secs(1));
        assert_eq!(
            config_fingerprint(&cfg),
            base,
            "schedule/cadence knobs must not invalidate checkpoints"
        );
        cfg.irh = false;
        assert_ne!(config_fingerprint(&cfg), base);
        cfg.irh = true;
        cfg.budget.memory_budget = Some(1 << 20);
        assert_ne!(config_fingerprint(&cfg), base);
    }

    /// Checkpoints on disk carry the fingerprint and `--resume` compares
    /// it byte for byte, so the string is pinned.
    #[test]
    fn config_fingerprint_values_are_pinned() {
        assert_eq!(
            config_fingerprint(&AnalysisConfig::default()),
            "v1;irh=1;atomics=1;eadr=0;hb=1;ss=0;strict=strict;pairs=none;events=none;\
             mem=none;fixes=0"
        );
    }
}
