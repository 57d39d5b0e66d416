//! PM-Aware Lockset Analysis (pipeline stage 3, Algorithm 1).
//!
//! The analysis pairs every store window with every load to an overlapping
//! address from a different thread that may execute concurrently under the
//! inter-thread happens-before relation, and reports a persistency-induced
//! race when the store's *effective lockset* shares no protecting lock with
//! the load's lockset.
//!
//! The implementation follows §4 rather than the didactic pseudocode:
//! accesses are grouped by address word, lockset/vector-clock checks are
//! memoized on interned ids, and reports are deduplicated by the (store
//! backtrace, load backtrace) pair. The pairing loop itself is sharded by
//! address and runs on multiple worker threads (`engine` internals,
//! [`AnalysisConfig::threads`] knob) with bit-identical output for every
//! worker count.
//!
//! The public entry point is the [`Analyzer`] facade.

pub mod checkpoint;
pub(crate) mod engine;
mod facade;
pub mod repair;
pub mod report;

use std::collections::HashMap;

use crate::memsim::SimStats;
use crate::trace::{Event, EventColumns, EventKind, LockId, ThreadId, Trace};

pub use facade::{AnalysisConfigBuilder, Analyzer, StreamConfig};
pub use repair::{FixKind, FixReport, FixStatus, FixSuggestion, RepairValidator};
pub use report::{AnalysisReport, Race, RaceKey, SiteSignature};

/// How [`Analyzer::try_run`] treats an ill-formed trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Strictness {
    /// Reject the trace up front if [`Trace::validate`] fails.
    #[default]
    Strict,
    /// Quarantine ill-formed events (counted per category in
    /// [`QuarantineStats`]) and analyze the rest.
    Lenient,
}

/// Resource budget for one analysis run. Exceeding a budget stops the run
/// early and marks the report as truncated ([`Coverage`]) — it is never an
/// error: a partial race report from a bounded run is the point.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnalysisBudget {
    /// Stop pairing once this many candidate pairs have been examined.
    pub max_candidate_pairs: Option<u64>,
    /// Feed at most this many leading events into the pipeline.
    pub max_events: Option<u64>,
    /// Stop pairing when this much wall-clock time has elapsed.
    pub deadline: Option<std::time::Duration>,
    /// Soft cap (bytes) on live simulation state — store windows, loads,
    /// open pieces and interner arenas. When the estimate exceeds the cap
    /// the simulation evicts its coldest report-inert state first and, if
    /// that is not enough, earliest-closed windows and oldest loads, then
    /// keeps going: the run completes with a partial-but-valid report
    /// marked [`BudgetExceeded::MemoryBudget`] instead of aborting.
    pub memory_budget: Option<u64>,
    /// Watchdog timeout for the parallel pairing stage. When any busy
    /// worker's heartbeat goes silent for this long, the supervisor trips
    /// the shared stop flag; unfinished shards stop at their next check
    /// and the run finalizes a partial report marked
    /// [`BudgetExceeded::StageStalled`].
    pub stage_timeout: Option<std::time::Duration>,
}

/// Which budget stopped a truncated run first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum BudgetExceeded {
    /// [`AnalysisBudget::max_events`].
    Events,
    /// [`AnalysisBudget::max_candidate_pairs`].
    CandidatePairs,
    /// [`AnalysisBudget::deadline`].
    Deadline,
    /// [`AnalysisBudget::memory_budget`] — the simulation evicted live
    /// state to stay under the cap, so some pairs were never formed.
    MemoryBudget,
    /// [`AnalysisBudget::stage_timeout`] — the watchdog cancelled a
    /// stalled pairing stage and the report covers the finished shards.
    StageStalled,
    /// The run was interrupted (SIGINT/SIGTERM in the CLI, or a
    /// programmatic [`AnalysisConfig::interrupt`] flag) and finalized a
    /// partial report at the next safe point.
    Interrupted,
}

impl core::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BudgetExceeded::Events => write!(f, "event budget"),
            BudgetExceeded::CandidatePairs => write!(f, "candidate-pair budget"),
            BudgetExceeded::Deadline => write!(f, "deadline"),
            BudgetExceeded::MemoryBudget => write!(f, "memory budget"),
            BudgetExceeded::StageStalled => write!(f, "stage-stall watchdog"),
            BudgetExceeded::Interrupted => write!(f, "interrupt"),
        }
    }
}

/// How much of the trace a (possibly budget-truncated) run covered.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Coverage {
    /// True when a budget stopped the run before full coverage.
    pub truncated: bool,
    /// The budget that stopped the run, when truncated.
    pub reason: Option<BudgetExceeded>,
    /// Events fed to the pipeline.
    pub events_analyzed: u64,
    /// Events in the input trace.
    pub events_total: u64,
    /// Store-window groups paired before the run stopped.
    pub window_groups_examined: u64,
    /// Store-window groups eligible for pairing.
    pub window_groups_total: u64,
}

/// Per-category counters of events dropped by the lenient-mode quarantine.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct QuarantineStats {
    /// Releases of locks no thread held.
    pub dangling_release: u64,
    /// Events by threads that were never created (or out of range).
    pub orphan_thread: u64,
    /// Joins of threads that were never created.
    pub join_before_create: u64,
    /// Second (and later) creations of an already-created thread.
    pub double_create: u64,
    /// Events referencing stack ids with no table entry.
    pub bad_stack: u64,
    /// Accesses whose byte range is implausibly large or overflows the
    /// address space — a corrupt length, not a real access.
    pub wild_range: u64,
}

impl QuarantineStats {
    /// Total quarantined events across all categories.
    pub fn total(&self) -> u64 {
        self.dangling_release
            + self.orphan_thread
            + self.join_before_create
            + self.double_create
            + self.bad_stack
            + self.wild_range
    }
}

/// Analysis options.
#[derive(Clone, Debug)]
pub struct AnalysisConfig {
    /// Apply the Initialization Removal Heuristic (§3.1.3). On by default;
    /// Table 4 compares both settings.
    pub irh: bool,
    /// Include accesses performed by atomic instructions. The original tool
    /// instruments lock-prefixed instructions and CAS; races on them are
    /// frequently benign (lock-free designs) but must still be reported —
    /// classification is the developer's job (§3.3).
    pub include_atomics: bool,
    /// Assume an eADR platform (§2.1): stores are durable as soon as they
    /// are visible, so no persistency-induced race exists by construction.
    /// Off by default — "applications should not depend on the
    /// availability of eADR".
    pub eadr: bool,
    /// Apply the inter-thread happens-before filter (§3.1.2). Disabling it
    /// is the Figure 3 ablation: accesses ordered by thread creation/join
    /// are then paired anyway, producing the false positives vector clocks
    /// exist to remove.
    pub use_hb: bool,
    /// Also pair stores against stores. HawkSet deliberately does NOT
    /// (§3.1.1): a persistency-induced race needs the causal dependency of
    /// a load's side effect on a losable value, which store/store pairs
    /// lack. The switch exists to demonstrate the report explosion the
    /// design decision avoids.
    pub check_store_store: bool,
    /// How [`Analyzer::try_run`] treats an ill-formed trace.
    /// [`Analyzer::run`] ignores this: it never validates.
    pub strictness: Strictness,
    /// Resource budget; exceeding it truncates the run (see [`Coverage`]).
    pub budget: AnalysisBudget,
    /// Worker threads for the parallel stages (`0` = use
    /// [`std::thread::available_parallelism`]). Reports are bit-identical
    /// for every value — see [`Analyzer::threads`].
    pub threads: usize,
    /// Events between checkpoint flushes when a checkpoint session is
    /// attached to the run (see `Analyzer::checkpoint`); `None` keeps the
    /// default cadence. Checkpointing never changes the report.
    pub checkpoint_every: Option<u64>,
    /// Cooperative interrupt flag. When the flag flips to `true` the
    /// pipeline stops at its next safe point — between ingested events or
    /// at a pairing-shard boundary — and finalizes a partial report marked
    /// [`BudgetExceeded::Interrupted`]. The CLI wires SIGINT/SIGTERM here.
    pub interrupt: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    /// Streaming-ingest options (chunk size, byte ceiling, checkpointing,
    /// resume); only consulted by [`Analyzer::try_run_stream`] and
    /// [`Analyzer::try_run_stream_with_header`]. None of them affect
    /// report content.
    pub stream: StreamConfig,
    /// Test-only fault injection: stall one pairing shard to exercise the
    /// stage watchdog and the kill/resume paths. Not part of the public
    /// API surface.
    #[doc(hidden)]
    pub stall_injection: Option<StallInjection>,
    /// Compute a replay-validated repair suggestion for each reported race
    /// ([`repair`]) and attach it as the optional `fixes` section of the
    /// report. Off by default: suggestion validation replays the trace
    /// once or twice per race, and the flag participates in the checkpoint
    /// configuration fingerprint.
    pub suggest_fixes: bool,
}

/// Test-only pairing-shard stall (see [`AnalysisConfig::stall_injection`]).
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallInjection {
    /// Shard index to delay.
    pub shard: usize,
    /// How long the shard sleeps before doing its work. The sleep is
    /// sliced and re-checks the stop flag, so a tripped watchdog or
    /// interrupt cancels it early.
    pub delay: std::time::Duration,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        Self {
            irh: true,
            include_atomics: true,
            eadr: false,
            use_hb: true,
            check_store_store: false,
            strictness: Strictness::Strict,
            budget: AnalysisBudget::default(),
            threads: 0,
            checkpoint_every: None,
            interrupt: None,
            stream: StreamConfig::default(),
            stall_injection: None,
            suggest_fixes: false,
        }
    }
}

/// Pairing-stage counters, for the §5.3 cost study and the ablation bench.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PairingStats {
    /// Store windows considered (IRH survivors).
    pub live_windows: u64,
    /// Loads considered (IRH survivors).
    pub live_loads: u64,
    /// (window, load) pairs that overlapped in address.
    pub candidate_pairs: u64,
    /// Pairs pruned by the inter-thread happens-before filter.
    pub hb_pruned: u64,
    /// Pairs protected by a common lock.
    pub lockset_protected: u64,
    /// Racy pairs (before backtrace deduplication).
    pub racy_pairs: u64,
    /// Distinct races reported.
    pub distinct_races: u64,
    /// Memoized HB checks that hit the cache.
    pub hb_memo_hits: u64,
    /// Memoized lockset checks that hit the cache.
    pub lockset_memo_hits: u64,
}

/// Combined pipeline statistics.
#[derive(Clone, Debug, Default)]
pub struct PipelineStats {
    /// Stage-1 (simulation + IRH) counters.
    pub sim: SimStats,
    /// Stage-3 (pairing) counters.
    pub pairing: PairingStats,
    /// Events dropped by the lenient-mode quarantine (all zero under
    /// [`Strictness::Strict`]).
    pub quarantine: QuarantineStats,
    /// Wall-clock duration of the whole pipeline.
    pub duration: std::time::Duration,
}

/// Largest access size the quarantine accepts. Real PM accesses are at most
/// a few cache lines; anything bigger in an untrusted trace is a corrupt
/// length that would blow up the per-line simulation.
const MAX_SANE_ACCESS_BYTES: u32 = 1 << 20;

/// Splits a trace into its well-formed majority and per-category counts of
/// the events that had to be dropped.
///
/// The kept trace preserves event order (re-sequenced densely) and shares
/// the original's stacks and regions. Categories mirror
/// [`QuarantineStats`]; the checks are the event-local subset of
/// [`Trace::validate`] — global temporal invariants (join after the child's
/// last event) do not make an event dangerous to analyze and are left in.
pub fn quarantine(trace: &Trace) -> (Trace, QuarantineStats) {
    let mut filter = QuarantineFilter::new(trace.thread_count, trace.stacks.stack_count());
    let mut kept = Trace {
        events: EventColumns::with_capacity(trace.events.len()),
        stacks: trace.stacks.clone(),
        regions: trace.regions.clone(),
        thread_count: trace.thread_count.max(1),
    };
    for ev in trace.events.iter() {
        if filter.admit(&ev) {
            let seq = kept.events.len() as u64;
            kept.events.push(Event { seq, ..ev });
        }
    }
    (kept, filter.into_stats())
}

/// Event-at-a-time form of [`quarantine`], shared by the batch path above
/// and the streaming analyzer so both make byte-identical keep/drop
/// decisions. Memory is O(threads + live locks).
#[derive(Debug)]
pub(crate) struct QuarantineFilter {
    thread_count: usize,
    stack_count: usize,
    created: Vec<bool>,
    held: HashMap<LockId, u64>,
    stats: QuarantineStats,
}

impl QuarantineFilter {
    /// A filter for a trace with the given header dimensions.
    pub fn new(thread_count: u32, stack_count: usize) -> Self {
        let thread_count = thread_count.max(1) as usize;
        let mut created = vec![false; thread_count];
        created[ThreadId::MAIN.index()] = true;
        Self {
            thread_count,
            stack_count,
            created,
            held: HashMap::new(),
            stats: QuarantineStats::default(),
        }
    }

    /// Decides the next event: `true` = keep (caller re-sequences), `false`
    /// = quarantined (the per-category counter has been bumped).
    pub fn admit(&mut self, ev: &Event) -> bool {
        let wild = |r: &crate::addr::AddrRange| {
            r.len > MAX_SANE_ACCESS_BYTES || r.start.checked_add(u64::from(r.len)).is_none()
        };
        if ev.tid.index() >= self.thread_count || !self.created[ev.tid.index()] {
            self.stats.orphan_thread += 1;
            return false;
        }
        if ev.stack as usize >= self.stack_count {
            self.stats.bad_stack += 1;
            return false;
        }
        match ev.kind {
            EventKind::Store { range, .. } | EventKind::Load { range, .. } if wild(&range) => {
                self.stats.wild_range += 1;
                return false;
            }
            EventKind::ThreadCreate { child } => {
                if child.index() >= self.thread_count {
                    self.stats.orphan_thread += 1;
                    return false;
                }
                if self.created[child.index()] {
                    self.stats.double_create += 1;
                    return false;
                }
                self.created[child.index()] = true;
            }
            EventKind::ThreadJoin { child }
                if child.index() >= self.thread_count || !self.created[child.index()] =>
            {
                self.stats.join_before_create += 1;
                return false;
            }
            EventKind::Acquire { lock, .. } => {
                *self.held.entry(lock).or_insert(0) += 1;
            }
            EventKind::Release { lock } => {
                let count = self.held.entry(lock).or_insert(0);
                if *count == 0 {
                    self.stats.dangling_release += 1;
                    return false;
                }
                *count -= 1;
            }
            _ => {}
        }
        true
    }

    /// Consumes the filter, returning the final counters.
    pub fn into_stats(self) -> QuarantineStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddrRange;
    use crate::error::HawkSetError;
    use crate::trace::{EventKind, Frame, LockId, LockMode, ThreadId, TraceBuilder};

    /// Facade shorthands — the tests below exercise pipeline semantics.
    fn analyze(trace: &Trace, cfg: &AnalysisConfig) -> AnalysisReport {
        Analyzer::new(cfg.clone()).run(trace)
    }

    fn try_analyze(trace: &Trace, cfg: &AnalysisConfig) -> Result<AnalysisReport, HawkSetError> {
        Analyzer::new(cfg.clone()).try_run(trace)
    }

    /// The Figure-1c trace used throughout: store under lock A, persist
    /// outside it, concurrent load under lock A.
    fn fig1c() -> crate::Trace {
        let mut b = TraceBuilder::new();
        let x = AddrRange::new(0x1000, 8);
        let a = LockId(0xa);
        let st = b.intern_stack([Frame::new("writer", "f.rs", 1)]);
        let ld = b.intern_stack([Frame::new("reader", "f.rs", 2)]);
        b.push(
            ThreadId(0),
            st,
            EventKind::ThreadCreate { child: ThreadId(1) },
        );
        b.push(
            ThreadId(0),
            st,
            EventKind::Acquire {
                lock: a,
                mode: LockMode::Exclusive,
            },
        );
        b.push(
            ThreadId(0),
            st,
            EventKind::Store {
                range: x,
                non_temporal: false,
                atomic: false,
            },
        );
        b.push(ThreadId(0), st, EventKind::Release { lock: a });
        b.push(
            ThreadId(1),
            ld,
            EventKind::Acquire {
                lock: a,
                mode: LockMode::Exclusive,
            },
        );
        b.push(
            ThreadId(1),
            ld,
            EventKind::Load {
                range: x,
                atomic: false,
            },
        );
        b.push(ThreadId(1), ld, EventKind::Release { lock: a });
        b.push(ThreadId(0), st, EventKind::Flush { addr: 0x1000 });
        b.push(ThreadId(0), st, EventKind::Fence);
        b.push(
            ThreadId(0),
            st,
            EventKind::ThreadJoin { child: ThreadId(1) },
        );
        b.finish()
    }

    #[test]
    fn eadr_mode_silences_persistency_races() {
        let trace = fig1c();
        let normal = analyze(&trace, &AnalysisConfig::default());
        assert_eq!(normal.races.len(), 1);
        let eadr = analyze(
            &trace,
            &AnalysisConfig {
                eadr: true,
                ..Default::default()
            },
        );
        assert!(
            eadr.is_clean(),
            "with the persistent domain extended to the cache, visibility implies \
             durability and the Figure-1c race disappears"
        );
    }

    /// Figure 3: an unlocked init store that happens-before every other
    /// thread must be pruned by the HB filter and reappear without it.
    #[test]
    fn hb_ablation_reintroduces_figure3_false_positive() {
        let mut b = TraceBuilder::new();
        let x = AddrRange::new(0x100, 8);
        let st = b.intern_stack([Frame::new("init", "f.rs", 1)]);
        let ld = b.intern_stack([Frame::new("reader", "f.rs", 2)]);
        // T0: store + persist X (no lock), then create T2 which loads X.
        b.push(
            ThreadId(0),
            st,
            EventKind::Store {
                range: x,
                non_temporal: false,
                atomic: false,
            },
        );
        b.push(ThreadId(0), st, EventKind::Flush { addr: 0x100 });
        b.push(ThreadId(0), st, EventKind::Fence);
        b.push(
            ThreadId(0),
            st,
            EventKind::ThreadCreate { child: ThreadId(1) },
        );
        b.push(
            ThreadId(1),
            ld,
            EventKind::Load {
                range: x,
                atomic: false,
            },
        );
        b.push(
            ThreadId(0),
            st,
            EventKind::ThreadJoin { child: ThreadId(1) },
        );
        let trace = b.finish();

        let with_hb = analyze(
            &trace,
            &AnalysisConfig {
                irh: false,
                ..Default::default()
            },
        );
        assert!(with_hb.is_clean(), "persist happens-before the child load");
        let without_hb = analyze(
            &trace,
            &AnalysisConfig {
                irh: false,
                use_hb: false,
                ..Default::default()
            },
        );
        assert_eq!(
            without_hb.races.len(),
            1,
            "the Figure 3 false positive returns"
        );
    }

    #[test]
    fn store_store_pass_is_off_by_default_and_reports_when_on() {
        let mut b = TraceBuilder::new();
        let x = AddrRange::new(0x100, 8);
        let s1 = b.intern_stack([Frame::new("w1", "f.rs", 1)]);
        let s2 = b.intern_stack([Frame::new("w2", "f.rs", 2)]);
        b.push(
            ThreadId(0),
            s1,
            EventKind::ThreadCreate { child: ThreadId(1) },
        );
        b.push(
            ThreadId(0),
            s1,
            EventKind::Store {
                range: x,
                non_temporal: false,
                atomic: false,
            },
        );
        b.push(
            ThreadId(1),
            s2,
            EventKind::Store {
                range: x,
                non_temporal: false,
                atomic: false,
            },
        );
        b.push(
            ThreadId(0),
            s1,
            EventKind::ThreadJoin { child: ThreadId(1) },
        );
        let trace = b.finish();
        let default = analyze(
            &trace,
            &AnalysisConfig {
                irh: false,
                ..Default::default()
            },
        );
        assert!(
            default.is_clean(),
            "no load, no persistency-induced race (3.1.1)"
        );
        let with_ss = analyze(
            &trace,
            &AnalysisConfig {
                irh: false,
                check_store_store: true,
                ..Default::default()
            },
        );
        assert_eq!(with_ss.races.len(), 1);
        assert!(with_ss.races[0].store_store);
        assert!(with_ss.races[0].summary().contains("store-store"));
    }

    /// Figure-1c trace with a dangling release of a never-acquired lock
    /// spliced into the middle — semantically ill-formed, structurally fine.
    fn fig1c_with_dangling_release() -> crate::Trace {
        let mut trace = fig1c();
        let bad = Event {
            seq: 0,
            tid: ThreadId(0),
            stack: trace.events.get(0).stack,
            kind: EventKind::Release {
                lock: LockId(0xbad),
            },
        };
        trace.events.insert(4, bad);
        trace.events.reseq();
        trace
    }

    #[test]
    fn strict_try_analyze_rejects_ill_formed_trace() {
        let trace = fig1c_with_dangling_release();
        let err = try_analyze(&trace, &AnalysisConfig::default()).unwrap_err();
        assert!(matches!(err, HawkSetError::Validate(_)));
        assert!(err.to_string().contains("validation failed"));
    }

    #[test]
    fn lenient_try_analyze_quarantines_and_still_finds_the_race() {
        let trace = fig1c_with_dangling_release();
        let cfg = AnalysisConfig {
            strictness: Strictness::Lenient,
            ..Default::default()
        };
        let report = try_analyze(&trace, &cfg).unwrap();
        assert_eq!(report.stats.quarantine.dangling_release, 1);
        assert_eq!(report.stats.quarantine.total(), 1);
        assert_eq!(
            report.races.len(),
            1,
            "the Figure-1c race survives quarantine"
        );
        assert!(!report.coverage.truncated);
    }

    #[test]
    fn lenient_matches_clean_run_on_well_formed_trace() {
        let trace = fig1c();
        let strict = try_analyze(&trace, &AnalysisConfig::default()).unwrap();
        let lenient = try_analyze(
            &trace,
            &AnalysisConfig {
                strictness: Strictness::Lenient,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(strict.races.len(), lenient.races.len());
        assert_eq!(lenient.stats.quarantine.total(), 0);
    }

    #[test]
    fn max_events_budget_truncates_with_coverage() {
        let trace = fig1c();
        let cfg = AnalysisConfig {
            budget: AnalysisBudget {
                max_events: Some(3),
                ..Default::default()
            },
            ..Default::default()
        };
        let report = analyze(&trace, &cfg);
        assert!(report.coverage.truncated);
        assert_eq!(report.coverage.reason, Some(BudgetExceeded::Events));
        assert_eq!(report.coverage.events_analyzed, 3);
        assert_eq!(report.coverage.events_total, trace.events.len() as u64);
        assert!(report
            .render(&trace)
            .contains("analysis truncated by event budget"));
    }

    #[test]
    fn max_candidate_pairs_budget_stops_pairing_but_keeps_found_races() {
        // Two independent racy pairs on disjoint words; a budget of one
        // candidate pair lets the first window group through and stops
        // before the second.
        let mut b = TraceBuilder::new();
        let x = AddrRange::new(0x1000, 8);
        let y = AddrRange::new(0x2000, 8);
        let st = b.intern_stack([Frame::new("writer", "f.rs", 1)]);
        let ld = b.intern_stack([Frame::new("reader", "f.rs", 2)]);
        let st2 = b.intern_stack([Frame::new("writer2", "f.rs", 3)]);
        let ld2 = b.intern_stack([Frame::new("reader2", "f.rs", 4)]);
        b.push(
            ThreadId(0),
            st,
            EventKind::ThreadCreate { child: ThreadId(1) },
        );
        b.push(
            ThreadId(0),
            st,
            EventKind::Store {
                range: x,
                non_temporal: false,
                atomic: false,
            },
        );
        b.push(
            ThreadId(0),
            st2,
            EventKind::Store {
                range: y,
                non_temporal: false,
                atomic: false,
            },
        );
        b.push(
            ThreadId(1),
            ld,
            EventKind::Load {
                range: x,
                atomic: false,
            },
        );
        b.push(
            ThreadId(1),
            ld2,
            EventKind::Load {
                range: y,
                atomic: false,
            },
        );
        b.push(
            ThreadId(0),
            st,
            EventKind::ThreadJoin { child: ThreadId(1) },
        );
        let trace = b.finish();

        let full = analyze(
            &trace,
            &AnalysisConfig {
                irh: false,
                ..Default::default()
            },
        );
        assert_eq!(full.races.len(), 2);
        assert!(!full.coverage.truncated);
        assert_eq!(
            full.coverage.window_groups_examined,
            full.coverage.window_groups_total
        );

        let budgeted = analyze(
            &trace,
            &AnalysisConfig {
                irh: false,
                budget: AnalysisBudget {
                    max_candidate_pairs: Some(1),
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        assert!(budgeted.coverage.truncated);
        assert_eq!(
            budgeted.coverage.reason,
            Some(BudgetExceeded::CandidatePairs)
        );
        assert_eq!(
            budgeted.races.len(),
            1,
            "the in-budget race is still reported"
        );
        assert!(budgeted.coverage.window_groups_examined < budgeted.coverage.window_groups_total);
    }

    #[test]
    fn zero_deadline_truncates_immediately() {
        let trace = fig1c();
        let cfg = AnalysisConfig {
            budget: AnalysisBudget {
                deadline: Some(std::time::Duration::ZERO),
                ..Default::default()
            },
            ..Default::default()
        };
        let report = analyze(&trace, &cfg);
        assert!(report.coverage.truncated);
        assert_eq!(report.coverage.reason, Some(BudgetExceeded::Deadline));
        assert!(
            report.is_clean(),
            "nothing was examined before the deadline"
        );
    }

    #[test]
    fn quarantine_drops_wild_ranges_and_orphans() {
        let mut trace = fig1c();
        let stack = trace.events.get(0).stack;
        // A load with a corrupt (4 GiB) length and an access by a thread id
        // far beyond the thread table.
        trace.events.push(Event {
            seq: trace.events.len() as u64,
            tid: ThreadId(0),
            stack,
            kind: EventKind::Load {
                range: AddrRange::new(u64::MAX - 4, u32::MAX),
                atomic: false,
            },
        });
        trace.events.push(Event {
            seq: trace.events.len() as u64,
            tid: ThreadId(7000),
            stack,
            kind: EventKind::Fence,
        });
        let (kept, stats) = quarantine(&trace);
        assert_eq!(stats.wild_range, 1);
        assert_eq!(stats.orphan_thread, 1);
        assert_eq!(kept.events.len(), trace.events.len() - 2);
        kept.validate()
            .expect("quarantined trace must be well-formed");
    }
}
