//! Worst-case persistence simulation (pipeline stage 1, §3.2 Ⓐ–Ⓒ).
//!
//! The simulator replays the trace in observation order, maintaining:
//!
//! * **Memory Simulation** Ⓐ — a worst-case cache that considers a store
//!   persisted *only* after an explicit flush of its cache line followed by
//!   a fence from the flushing thread (arbitrary cache evictions give no
//!   guarantee, so they are ignored);
//! * **Lock Tracking** Ⓑ — each thread's current lockset, with per-entry
//!   acquisition timestamps from a thread-local logical clock;
//! * **Thread Tracking** Ⓒ — per-thread vector clocks with the batching
//!   optimization of §4 (only the first PM operation after a thread
//!   create/join boundary bumps the local counter);
//! * the Initialization Removal Heuristic, applied online alongside the
//!   instrumentation exactly as in the original implementation (§4).
//!
//! The output is an [`AccessSet`]: closed [`StoreWindow`]s, [`LoadAccess`]es
//! and the interning tables shared by both — the input of the lockset
//! analysis stage.

pub mod patch;
pub mod window;

use crate::addr::{line_of, AddrRange, LineId};
use crate::hash::FxHashMap;
use crate::intern::Interner;
use crate::irh::PublicationTracker;
use crate::lockset::{LockEntry, Lockset};
use crate::trace::{EventKind, StackId, ThreadId, Trace, TraceView};
use crate::vclock::{ClockOrder, Epoch, VectorClock};

pub use window::{CloseReason, LoadAccess, LsId, StoreWindow, VcId};

/// Counters describing one simulation run, reported alongside the analysis
/// (§5.3 cost study and the sharing ratios of §4).
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SimStats {
    /// Total events replayed.
    pub events: u64,
    /// PM stores seen.
    pub stores: u64,
    /// PM loads seen.
    pub loads: u64,
    /// Flush instructions seen.
    pub flushes: u64,
    /// Fence instructions seen.
    pub fences: u64,
    /// Store windows created (≥ stores: cross-line stores split).
    pub windows_created: u64,
    /// Windows closed by explicit persistence.
    pub windows_persisted: u64,
    /// Windows closed by overwrite.
    pub windows_overwritten: u64,
    /// Windows still unpersisted at the end of the execution.
    pub windows_unpersisted: u64,
    /// Windows discarded by the Initialization Removal Heuristic.
    pub irh_discarded_windows: u64,
    /// Loads dropped by the Initialization Removal Heuristic.
    pub irh_dropped_loads: u64,
    /// Distinct locksets interned.
    pub distinct_locksets: u64,
    /// Distinct vector clocks interned.
    pub distinct_vclocks: u64,
    /// Lockset/vector-clock intern requests (sharing-ratio numerator).
    pub intern_requests: u64,
    /// Words tracked by the publication tracker.
    pub tracked_words: u64,
    /// Accesses ignored because they fell outside every registered PM
    /// region (only possible when the trace registers regions).
    pub non_pm_accesses: u64,
    /// Closed windows evicted to stay under the memory budget. The window
    /// partition law becomes `windows_persisted + windows_overwritten +
    /// windows_unpersisted == |windows| + windows_evicted`.
    #[serde(default)]
    pub windows_evicted: u64,
    /// Loads evicted to stay under the memory budget.
    #[serde(default)]
    pub loads_evicted: u64,
    /// True when the live-state memory budget was exceeded at least once;
    /// the report's coverage must then carry `reason = memory_budget`.
    #[serde(default)]
    pub memory_budget_hit: bool,
}

impl SimStats {
    /// The stage-1 section of a [`MetricsSnapshot`]: the cache-simulation
    /// counters without the IRH ones, which get their own section.
    ///
    /// [`MetricsSnapshot`]: crate::obs::MetricsSnapshot
    pub fn memsim_metrics(&self) -> crate::obs::MemsimMetrics {
        crate::obs::MemsimMetrics {
            events: self.events,
            stores: self.stores,
            loads: self.loads,
            flushes: self.flushes,
            fences: self.fences,
            windows_created: self.windows_created,
            windows_persisted: self.windows_persisted,
            windows_overwritten: self.windows_overwritten,
            windows_unpersisted: self.windows_unpersisted,
            non_pm_accesses: self.non_pm_accesses,
            distinct_locksets: self.distinct_locksets,
            distinct_vclocks: self.distinct_vclocks,
            intern_requests: self.intern_requests,
            windows_evicted: self.windows_evicted,
            loads_evicted: self.loads_evicted,
        }
    }

    /// The IRH section of a [`MetricsSnapshot`].
    ///
    /// [`MetricsSnapshot`]: crate::obs::MetricsSnapshot
    pub fn irh_metrics(&self) -> crate::obs::IrhMetrics {
        crate::obs::IrhMetrics {
            windows_discarded: self.irh_discarded_windows,
            loads_dropped: self.irh_dropped_loads,
            tracked_words: self.tracked_words,
        }
    }
}

/// Everything stage 1 + 2 hand to the lockset analysis.
#[derive(Clone, Debug)]
pub struct AccessSet {
    /// All store windows (including IRH-discarded ones, flagged).
    pub windows: Vec<StoreWindow>,
    /// All loads (including IRH-dropped ones, flagged).
    pub loads: Vec<LoadAccess>,
    /// Interned locksets referenced by windows and loads.
    pub locksets: Interner<Lockset>,
    /// Interned vector clocks referenced by windows and loads.
    pub vclocks: Interner<VectorClock>,
    /// FastTrack-style epochs, indexed by interned clock id. `Some(tid@c)`
    /// records that the clock with that id is thread `tid`'s *first* value
    /// at own-time `c` (a post-tick snapshot), which licenses the O(1)
    /// happens-before test `clock ⊑ W ⟺ c ≤ W[tid]` (see
    /// [`Epoch`]). `None` marks ids first interned at non-snapshot points
    /// (e.g. post-join merges) — queries on those fall back to the full
    /// comparison.
    pub epochs: Vec<Option<Epoch>>,
    /// `false` when the replay observed an event sequence that breaks the
    /// epoch soundness invariants — a `ThreadCreate` re-seating a child
    /// whose clock was not dominated, which makes a thread's clock history
    /// non-monotone. Only reachable through unvalidated input (strict
    /// validation rejects double creates and quarantine drops them); when
    /// unset, every epoch query must use full clocks.
    pub epoch_sound: bool,
    /// Simulation counters.
    pub stats: SimStats,
    /// What the repair step reads besides the windows and loads, recorded
    /// only by simulations that feed it ([`StreamSimulator::log_for_repair`]).
    pub(crate) repair_log: Option<Box<RepairLog>>,
}

/// The event that closed a window: its thread and sequence number, or
/// [`Close::NEVER`] for a window still open at the end of the execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Close {
    pub(crate) tid: ThreadId,
    pub(crate) seq: u64,
}

impl Close {
    /// The close point of a never-persisted window.
    pub(crate) const NEVER: Close = Close {
        tid: ThreadId(0),
        seq: u64::MAX,
    };
}

/// A thread's lockset, clock and pending batched tick after one of its
/// events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Mark {
    pub(crate) seq: u64,
    pub(crate) ls: LsId,
    pub(crate) vc: VcId,
    pub(crate) needs_tick: bool,
}

/// A repair simulation's record of where windows closed and how each
/// thread's state moved (DESIGN.md §4k). The repair step reads a patch's
/// footprint from it instead of replaying the patch. It is filled only
/// without a memory budget, since eviction would drop windows it indexes.
#[derive(Clone, Debug, Default)]
pub(crate) struct RepairLog {
    /// Per window, in window order: the event that closed it.
    pub(crate) closes: Vec<Close>,
    /// Per thread, in event order: its state after each of its events that
    /// changed it. Before its first mark a thread holds no lock, has the
    /// zero clock and needs a tick.
    pub(crate) marks: Vec<Vec<Mark>>,
    /// Per thread: its fences.
    pub(crate) fences: Vec<Vec<u64>>,
    /// Per thread: its flushes of a line with open pieces, as `(seq, line)`.
    pub(crate) flushes: Vec<Vec<(u64, LineId)>>,
    /// Per thread: the events that joined it.
    pub(crate) joins: Vec<Vec<u64>>,
}

impl RepairLog {
    /// Thread `tid`'s state right after the event with sequence number
    /// `seq` (of any thread): its last mark at or before `seq`, if any.
    pub(crate) fn state_after(&self, tid: ThreadId, seq: u64) -> Option<Mark> {
        let marks = self.marks.get(tid.index())?;
        let n = marks.partition_point(|m| m.seq <= seq);
        n.checked_sub(1).map(|i| marks[i])
    }

    fn grow(&mut self, tid: ThreadId) {
        let n = tid.index() + 1;
        if self.marks.len() < n {
            self.marks.resize_with(n, Vec::new);
            self.fences.resize_with(n, Vec::new);
            self.flushes.resize_with(n, Vec::new);
            self.joins.resize_with(n, Vec::new);
        }
    }
}

impl AccessSet {
    /// The epoch stand-in for interned clock `vc`, or `None` when the id
    /// has no recorded snapshot epoch or the whole run was demoted.
    #[inline]
    pub fn epoch_of(&self, vc: VcId) -> Option<Epoch> {
        if !self.epoch_sound {
            return None;
        }
        self.epochs.get(vc.id() as usize).copied().flatten()
    }
}

/// Per-thread simulation state.
#[derive(Clone)]
struct ThreadState {
    /// The held lockset, interned: the interner holds the one copy.
    ls_id: LsId,
    /// Thread-local logical clock stamping [`LockEntry::acq_ts`], bumped
    /// on every acquisition.
    lock_clock: u64,
    vc: VectorClock,
    vc_id: VcId,
    /// Set after create/join boundaries; the next PM operation ticks the
    /// vector clock (the §4 batching optimization).
    needs_tick: bool,
    /// Lines that may hold pieces pending on this thread's next fence, in
    /// push order. The fence sorts and deduplicates them, so it closes
    /// windows in ascending line order whatever order the flushes came in.
    fence_watch: Vec<LineId>,
}

impl ThreadState {
    fn new(ls_id: LsId, vc_id: VcId) -> Self {
        Self {
            ls_id,
            lock_clock: 0,
            vc: VectorClock::new(),
            vc_id,
            needs_tick: true,
            fence_watch: Vec::new(),
        }
    }

    /// Adds `line` to the fence watch. A repeat of the last line is
    /// skipped, and a full list is compacted before it grows, so a thread
    /// that keeps flushing without fencing holds about one entry per line.
    /// A compaction leaves room for as many pushes as it kept lines, so the
    /// sorting costs O(log n) per push however the flushes repeat.
    fn watch(&mut self, line: LineId) {
        let lines = &mut self.fence_watch;
        if lines.last() == Some(&line) {
            return;
        }
        if lines.len() == lines.capacity() {
            lines.sort_unstable();
            lines.dedup();
            lines.reserve(lines.len());
        }
        lines.push(line);
    }
}

/// A set of thread ids: a bitmask for ids below 64, a list above (empty,
/// so never allocated, in ordinary traces). The list is a boxed slice, not
/// a `Vec`, to keep an [`OpenPiece`] at 72 bytes: the memory budget
/// charges that size per open piece, so a larger piece would move where a
/// budgeted run starts evicting.
#[derive(Clone, Default)]
struct ThreadSet {
    low: u64,
    high: Box<[ThreadId]>,
}

impl ThreadSet {
    fn insert(&mut self, tid: ThreadId) {
        if tid.0 < 64 {
            self.low |= 1 << tid.0;
        } else if !self.high.contains(&tid) {
            let mut high = std::mem::take(&mut self.high).into_vec();
            high.push(tid);
            self.high = high.into_boxed_slice();
        }
    }

    fn contains(&self, tid: ThreadId) -> bool {
        if tid.0 < 64 {
            self.low & (1 << tid.0) != 0
        } else {
            self.high.contains(&tid)
        }
    }
}

/// An open (still unpersisted, not overwritten) piece of a store, confined
/// to a single cache line.
#[derive(Clone)]
struct OpenPiece {
    tid: ThreadId,
    store_seq: u64,
    stack: StackId,
    range: AddrRange,
    store_ls: LsId,
    store_vc: VcId,
    atomic: bool,
    non_temporal: bool,
    /// Threads whose next fence persists this piece (they flushed the line
    /// after the store, or issued the store non-temporally).
    pending_fence: ThreadSet,
}

impl OpenPiece {
    /// The window for the `range` part of this piece, closed as `close`.
    fn window(
        &self,
        range: AddrRange,
        effective_ls: LsId,
        close_vc: Option<VcId>,
        close: CloseReason,
        irh_discarded: bool,
    ) -> StoreWindow {
        StoreWindow {
            tid: self.tid,
            store_seq: self.store_seq,
            stack: self.stack,
            range,
            store_ls: self.store_ls,
            store_vc: self.store_vc,
            effective_ls,
            close_vc,
            close,
            atomic: self.atomic,
            non_temporal: self.non_temporal,
            irh_discarded,
        }
    }
}

/// The effective lockset of a piece stored under `store` and closed by a
/// thread holding `closer` (§3.1.2): timestamp-sensitive within one
/// thread, lock ids only across threads. An empty side gives the empty
/// set without intersecting; it is still interned, so the sharing counters
/// see the same requests.
pub(crate) fn effective_lockset(
    locksets: &mut Interner<Lockset>,
    store: LsId,
    closer: LsId,
    same_thread: bool,
) -> LsId {
    let (s, c) = (locksets.get(store), locksets.get(closer));
    let effective = if s.is_empty() || c.is_empty() {
        Lockset::empty()
    } else if same_thread {
        s.intersect_same_thread(c)
    } else {
        s.intersect_cross_thread(c)
    };
    locksets.intern(effective)
}

/// The pieces a store to `range` splits into, one per cache line it
/// touches, with that line: each piece is the part of `range` on its line.
pub(crate) fn line_pieces(range: AddrRange) -> impl Iterator<Item = (LineId, AddrRange)> {
    range.lines().map(move |line| {
        let base = crate::addr::line_base(line);
        let start = base.max(range.start);
        // Bytes to the end of the line or of the store, from offsets: the
        // line's end address overflows on the last line of the address
        // space.
        let len = (crate::addr::CACHE_LINE - (start - base))
            .min(u64::from(range.len) - (start - range.start));
        (line, AddrRange::new(start, len as u32))
    })
}

/// Options controlling the simulation.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Apply the Initialization Removal Heuristic (§3.1.3). Table 4 runs
    /// the pipeline both ways. Publication is tracked either way (its
    /// `tracked_words` is reported); this switch only turns off the
    /// discard decisions.
    pub irh: bool,
    /// Simulate an eADR platform (§2.1): the persistent domain extends to
    /// the cache, so every store is durable the moment it becomes visible.
    /// Store windows close instantly (`Persisted` at the store's own
    /// clock/lockset) and no persistency-induced race can exist — the
    /// paper's argument for why software must not *assume* eADR is that
    /// this convenient world is not the one most deployments run in.
    pub eadr: bool,
    /// Approximate ceiling (bytes) on live simulation state: closed
    /// windows, recorded loads, open pieces and the interning tables. When
    /// exceeded the simulator degrades instead of aborting: it evicts
    /// report-inert entries first (IRH casualties), then the coldest
    /// (earliest-closed) windows and oldest loads, counting every eviction
    /// into [`SimStats`] and setting `memory_budget_hit` so the final
    /// report carries `coverage.reason = memory_budget`. Checks run on a
    /// fixed event cadence, so enforcement is deterministic and identical
    /// between the batch and streaming paths. `None` disables the budget.
    pub memory_budget: Option<u64>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            irh: true,
            eadr: false,
            memory_budget: None,
        }
    }
}

/// Runs the worst-case persistence simulation over a trace.
pub fn simulate(trace: &Trace, cfg: &SimConfig) -> AccessSet {
    simulate_view(TraceView::full(trace), cfg)
}

/// Runs the simulation over a borrowed [`TraceView`] — the zero-copy entry
/// point used when [`AnalysisBudget::max_events`] caps the trace.
///
/// [`AnalysisBudget::max_events`]: crate::analysis::AnalysisBudget::max_events
pub fn simulate_view(view: TraceView<'_>, cfg: &SimConfig) -> AccessSet {
    let mut core = SimCore::new(view.thread_count, view.regions.to_vec(), cfg.clone());
    for ev in view.events.iter() {
        core.step(&ev);
    }
    core.finalize()
}

/// Event-at-a-time simulator for the streaming path.
///
/// Produces output bit-identical to [`simulate_view`] over the same event
/// sequence: both drive the one per-event engine (`SimCore`), which
/// replays locks inline with per-thread logical clocks.
///
/// Cloning forks the simulation: the clone continues from the same state
/// as if it had been fed the same event prefix.
#[derive(Clone)]
pub struct StreamSimulator {
    core: SimCore,
}

impl StreamSimulator {
    /// Creates a simulator for a trace with the given header.
    pub fn new(thread_count: u32, regions: Vec<crate::trace::PmRegion>, cfg: &SimConfig) -> Self {
        Self {
            core: SimCore::new(thread_count, regions, cfg.clone()),
        }
    }

    /// Feeds the next event, in trace order.
    pub fn step(&mut self, ev: &crate::trace::Event) {
        self.core.step(ev);
    }

    /// Running counters (final totals only after [`finish`](Self::finish)).
    pub fn stats(&self) -> &SimStats {
        &self.core.access.stats
    }

    /// Records a [`RepairLog`] into the access set, unless the run has a
    /// memory budget. Call it before the first event.
    pub(crate) fn log_for_repair(&mut self) {
        if self.core.cfg.memory_budget.is_none() {
            self.core.log = Some(Box::default());
        }
    }

    /// Closes still-open windows and returns the access set.
    pub fn finish(self) -> AccessSet {
        self.core.finalize()
    }
}

/// Budget checks run every this many events — a fixed cadence so that
/// enforcement (and therefore the output) is deterministic and identical
/// between the batch and streaming paths.
const MEMORY_CHECK_INTERVAL: u64 = 256;

#[derive(Clone)]
struct SimCore {
    cfg: SimConfig,
    regions: Vec<crate::trace::PmRegion>,
    filter_pm: bool,
    threads: Vec<ThreadState>,
    /// Open store pieces, indexed by cache line. Probe-only hash use
    /// (drains are explicitly sorted), so the fast deterministic hasher
    /// is safe.
    lines: FxHashMap<LineId, Vec<OpenPiece>>,
    publication: PublicationTracker,
    /// The output so far: closed windows, recorded loads, the interners
    /// and the running counters, which [`finalize`](Self::finalize)
    /// completes.
    access: AccessSet,
    /// The repair log, when one is recorded.
    log: Option<Box<RepairLog>>,
}

impl SimCore {
    fn new(thread_count: u32, regions: Vec<crate::trace::PmRegion>, cfg: SimConfig) -> Self {
        let mut locksets = Interner::new();
        let mut vclocks = Interner::new();
        let empty_ls = locksets.intern(Lockset::empty());
        let zero_vc = vclocks.intern(VectorClock::new());
        let threads = (0..thread_count.max(1))
            .map(|_| ThreadState::new(empty_ls, zero_vc))
            .collect();
        let filter_pm = !regions.is_empty();
        let mut core = Self {
            cfg,
            regions,
            filter_pm,
            threads,
            lines: FxHashMap::default(),
            publication: PublicationTracker::new(),
            access: AccessSet {
                windows: Vec::new(),
                loads: Vec::new(),
                locksets,
                vclocks,
                epochs: Vec::new(),
                epoch_sound: true,
                stats: SimStats::default(),
                repair_log: None,
            },
            log: None,
        };
        // The zero clock is trivially its own snapshot: zero ⊑ anything and
        // `0 ≤ W[t]` always, so any owner works.
        core.note_snapshot(zero_vc, ThreadId::MAIN);
        core
    }

    /// Records that the clock interned as `id` is thread `tid`'s first value
    /// at its current own-time (a post-tick snapshot) — the condition under
    /// which the [`Epoch`] fast path is sound for that id. First recording
    /// wins; the replay is sequential, so this is deterministic.
    fn note_snapshot(&mut self, id: VcId, tid: ThreadId) {
        let i = id.id() as usize;
        if self.access.epochs.len() <= i {
            self.access.epochs.resize(i + 1, None);
        }
        if self.access.epochs[i].is_none() {
            self.access.epochs[i] = Some(Epoch::of(tid, self.access.vclocks.get(id)));
        }
    }

    /// Registers an id interned at a non-snapshot point (post-join merge):
    /// the table slot exists but stays `None` unless some later snapshot
    /// interning re-derives the same clock value.
    fn note_opaque(&mut self, id: VcId) {
        let i = id.id() as usize;
        if self.access.epochs.len() <= i {
            self.access.epochs.resize(i + 1, None);
        }
    }

    fn is_pm(&self, range: &AddrRange) -> bool {
        self.regions.iter().any(|r| r.contains(range))
    }

    fn step(&mut self, ev: &crate::trace::Event) {
        self.access.stats.events += 1;
        // A trace that bypassed the builder (or was salvaged from a
        // corrupt file) can name threads beyond the header count; grow
        // the table instead of indexing out of bounds.
        self.ensure_thread(ev.tid);
        if let EventKind::ThreadJoin { child } = &ev.kind {
            self.ensure_thread(*child);
        }
        match &ev.kind {
            EventKind::Store {
                range,
                non_temporal,
                atomic,
            } => {
                if self.filter_pm && !self.is_pm(range) {
                    self.access.stats.non_pm_accesses += 1;
                } else {
                    self.access.stats.stores += 1;
                    self.tick_if_needed(ev.tid);
                    self.on_store(ev.tid, ev.seq, ev.stack, *range, *non_temporal, *atomic);
                }
            }
            EventKind::Load { range, atomic } => {
                if self.filter_pm && !self.is_pm(range) {
                    self.access.stats.non_pm_accesses += 1;
                } else {
                    self.access.stats.loads += 1;
                    self.tick_if_needed(ev.tid);
                    self.on_load(ev.tid, ev.seq, ev.stack, *range, *atomic);
                }
            }
            EventKind::Flush { addr } => {
                self.access.stats.flushes += 1;
                self.tick_if_needed(ev.tid);
                self.on_flush(ev.tid, ev.seq, *addr);
            }
            EventKind::Fence => {
                self.access.stats.fences += 1;
                self.tick_if_needed(ev.tid);
                self.on_fence(ev.tid, ev.seq);
            }
            EventKind::Acquire { lock, mode } => {
                let t = &mut self.threads[ev.tid.index()];
                t.lock_clock += 1;
                let ls = self.access.locksets.get(t.ls_id).with(LockEntry {
                    lock: *lock,
                    mode: *mode,
                    acq_ts: t.lock_clock,
                });
                t.ls_id = self.access.locksets.intern(ls);
            }
            EventKind::Release { lock } => {
                let t = &mut self.threads[ev.tid.index()];
                let ls = self.access.locksets.get(t.ls_id).without(*lock);
                t.ls_id = self.access.locksets.intern(ls);
            }
            EventKind::ThreadCreate { child } => {
                self.ensure_thread(*child);
                let parent = ev.tid.index();
                self.threads[parent].vc.tick(ev.tid);
                let mut child_vc = self.threads[parent].vc.clone();
                child_vc.tick(*child);
                let parent_vc = self.threads[parent].vc.clone();
                let parent_id = self.access.vclocks.intern(parent_vc);
                self.threads[parent].vc_id = parent_id;
                self.threads[parent].needs_tick = true;
                // Parent just ticked: snapshot.
                self.note_snapshot(parent_id, ev.tid);
                // Re-seating the child clock is only epoch-sound when the
                // child is fresh (or at least dominated, with its own-time
                // strictly advancing): otherwise the child's clock history
                // stops being monotone and every previously recorded epoch
                // for it becomes a lie. Only unvalidated traces can get
                // here (strict validation rejects double creates and the
                // quarantine drops them); demote the whole run to full
                // clock comparisons when it happens.
                let c = &mut self.threads[child.index()];
                let old_ok = matches!(
                    c.vc.compare(&child_vc),
                    ClockOrder::Before | ClockOrder::Equal
                ) && c.vc.get(*child) < child_vc.get(*child);
                if !old_ok {
                    self.access.epoch_sound = false;
                }
                c.vc = child_vc;
                let cvc = c.vc.clone();
                let child_id = self.access.vclocks.intern(cvc);
                self.threads[child.index()].vc_id = child_id;
                self.threads[child.index()].needs_tick = true;
                // Child ticked onto a fresh own-time: snapshot.
                self.note_snapshot(child_id, *child);
            }
            EventKind::ThreadJoin { child } => {
                let child_vc = self.threads[child.index()].vc.clone();
                let w = &mut self.threads[ev.tid.index()];
                w.vc.merge(&child_vc);
                let wvc = w.vc.clone();
                let wid = self.access.vclocks.intern(wvc);
                self.threads[ev.tid.index()].vc_id = wid;
                self.threads[ev.tid.index()].needs_tick = true;
                // The merge grew the clock *without* ticking: the joiner
                // already had a value at this own-time, so this one is not
                // a snapshot — no epoch unless the value independently is
                // one.
                self.note_opaque(wid);
            }
        }
        if self.log.is_some() {
            self.mark(ev.tid, ev.seq);
            match ev.kind {
                EventKind::ThreadCreate { child } => self.mark(child, ev.seq),
                EventKind::ThreadJoin { child } => {
                    if let Some(log) = self.log.as_mut() {
                        log.grow(child);
                        log.joins[child.index()].push(ev.seq);
                    }
                }
                _ => {}
            }
        }
        if self
            .access
            .stats
            .events
            .is_multiple_of(MEMORY_CHECK_INTERVAL)
        {
            self.enforce_budget();
        }
    }

    /// Logs `tid`'s state after event `seq` if the event changed it.
    fn mark(&mut self, tid: ThreadId, seq: u64) {
        let Some(log) = self.log.as_mut() else {
            return;
        };
        log.grow(tid);
        let t = &self.threads[tid.index()];
        let mark = Mark {
            seq,
            ls: t.ls_id,
            vc: t.vc_id,
            needs_tick: t.needs_tick,
        };
        let marks = &mut log.marks[tid.index()];
        let (empty_ls, zero_vc) = (LsId::from_raw(0), VcId::from_raw(0));
        let last = marks
            .last()
            .map_or((empty_ls, zero_vc, true), |m| (m.ls, m.vc, m.needs_tick));
        if last != (mark.ls, mark.vc, mark.needs_tick) {
            marks.push(mark);
        }
    }

    /// Approximate bytes of live simulation state, mirroring the dominant
    /// allocations: recorded windows/loads, open pieces and the interning
    /// tables (locksets at a flat estimate, vector clocks by thread count).
    fn approx_live_bytes(&self) -> u64 {
        use std::mem::size_of;
        let open: usize = self.lines.values().map(Vec::len).sum();
        (self.access.windows.len() * size_of::<StoreWindow>()) as u64
            + (self.access.loads.len() * size_of::<LoadAccess>()) as u64
            + (open * size_of::<OpenPiece>()) as u64
            + self.access.locksets.len() as u64 * 64
            + self.access.vclocks.len() as u64 * (8 * self.threads.len() as u64 + 32)
    }

    /// Degrades instead of aborting when the memory budget is exceeded:
    /// evicts report-inert entries first (IRH casualties change nothing),
    /// then the coldest (earliest-closed) windows, then the oldest loads,
    /// until live state fits in 75% of the budget. Everything here is a
    /// deterministic function of the event prefix, so batch and streaming
    /// degrade identically.
    fn enforce_budget(&mut self) {
        let Some(limit) = self.cfg.memory_budget else {
            return;
        };
        let live = self.approx_live_bytes();
        if live <= limit {
            return;
        }
        self.access.stats.memory_budget_hit = true;
        debug_assert!(self.log.is_none(), "a repair log indexes every window");
        let target = limit - limit / 4;
        let need = live.saturating_sub(target);
        let wsz = std::mem::size_of::<StoreWindow>() as u64;
        let lsz = std::mem::size_of::<LoadAccess>() as u64;
        let w0 = self.access.windows.len();
        let l0 = self.access.loads.len();
        let mut freed = 0u64;
        self.access.windows.retain(|w| {
            if freed >= need || !w.irh_discarded {
                true
            } else {
                freed += wsz;
                false
            }
        });
        self.access.loads.retain(|l| {
            if freed >= need || !l.irh_dropped {
                true
            } else {
                freed += lsz;
                false
            }
        });
        self.access.windows.retain(|_| {
            if freed >= need {
                true
            } else {
                freed += wsz;
                false
            }
        });
        self.access.loads.retain(|_| {
            if freed >= need {
                true
            } else {
                freed += lsz;
                false
            }
        });
        self.access.stats.windows_evicted += (w0 - self.access.windows.len()) as u64;
        self.access.stats.loads_evicted += (l0 - self.access.loads.len()) as u64;
        // retain() keeps capacity; give the memory back so the budget
        // holds for the process, not just the model.
        self.access.windows.shrink_to_fit();
        self.access.loads.shrink_to_fit();
    }

    fn finalize(mut self) -> AccessSet {
        self.close_remaining();
        self.access.repair_log = self.log.take();
        let out = &mut self.access;
        out.stats.distinct_locksets = out.locksets.len() as u64;
        out.stats.distinct_vclocks = out.vclocks.len() as u64;
        out.stats.intern_requests = out.locksets.requests() + out.vclocks.requests();
        out.stats.tracked_words = self.publication.tracked_words() as u64;
        out.epochs.resize(out.vclocks.len(), None);
        self.access
    }

    fn ensure_thread(&mut self, tid: ThreadId) {
        if self.threads.len() <= tid.index() {
            let empty_ls = self.access.locksets.intern(Lockset::empty());
            let zero_vc = self.access.vclocks.intern(VectorClock::new());
            self.threads
                .resize_with(tid.index() + 1, || ThreadState::new(empty_ls, zero_vc));
        }
    }

    /// §4 batching: bump the vector clock only on the first PM operation
    /// after a create/join boundary.
    fn tick_if_needed(&mut self, tid: ThreadId) {
        let t = &mut self.threads[tid.index()];
        if t.needs_tick {
            t.vc.tick(tid);
            t.needs_tick = false;
            let vc = t.vc.clone();
            let id = self.access.vclocks.intern(vc);
            self.threads[tid.index()].vc_id = id;
            // The tick just moved `tid` to a fresh own-time: this is the
            // first (minimal) value the thread has there, i.e. a snapshot.
            self.note_snapshot(id, tid);
        }
    }

    fn on_store(
        &mut self,
        tid: ThreadId,
        seq: u64,
        stack: StackId,
        range: AddrRange,
        non_temporal: bool,
        atomic: bool,
    ) {
        self.publication.record_access(tid, &range);
        let t = &self.threads[tid.index()];
        let (ls, vc) = (t.ls_id, t.vc_id);
        for (line, piece_range) in line_pieces(range) {
            let mut piece = OpenPiece {
                tid,
                store_seq: seq,
                stack,
                range: piece_range,
                store_ls: ls,
                store_vc: vc,
                atomic,
                non_temporal,
                pending_fence: ThreadSet::default(),
            };
            self.access.stats.windows_created += 1;
            if self.cfg.eadr {
                // eADR: visibility implies durability — the window is
                // zero-length and fully protected by the store's lockset.
                // No piece ever stays open, so there is nothing to close.
                let discarded = self.cfg.irh && self.publication.all_private_to(tid, &piece.range);
                self.access.stats.windows_persisted += 1;
                self.access.stats.irh_discarded_windows += u64::from(discarded);
                let w = piece.window(piece.range, ls, Some(vc), CloseReason::Persisted, discarded);
                self.access.windows.push(w);
                if let Some(log) = self.log.as_mut() {
                    log.closes.push(Close { tid, seq });
                }
                continue;
            }
            // Close / shrink the open pieces this store overlaps, in place:
            // the overwritten bytes' visibility window ends here, and the
            // rest of each piece stays open where it was.
            let pieces = self.lines.entry(line).or_default();
            let mut i = 0;
            while i < pieces.len() {
                let Some(hit) = pieces[i].range.intersection(&range) else {
                    i += 1;
                    continue;
                };
                let old = &pieces[i];
                let effective_ls =
                    effective_lockset(&mut self.access.locksets, old.store_ls, ls, old.tid == tid);
                self.access.stats.windows_overwritten += 1;
                // Overwritten stores are never IRH-discarded (§3.1.3).
                let w = old.window(hit, effective_ls, Some(vc), CloseReason::Overwritten, false);
                self.access.windows.push(w);
                if let Some(log) = self.log.as_mut() {
                    log.closes.push(Close { tid, seq });
                }
                match old.range.subtract(&range) {
                    (None, None) => {
                        pieces.remove(i);
                    }
                    (Some(rest), None) | (None, Some(rest)) => {
                        pieces[i].range = rest;
                        i += 1;
                    }
                    (Some(head), Some(tail)) => {
                        let tail = OpenPiece {
                            range: tail,
                            ..pieces[i].clone()
                        };
                        pieces[i].range = head;
                        pieces.insert(i + 1, tail);
                        i += 2;
                    }
                }
            }
            if non_temporal {
                piece.pending_fence.insert(tid);
                self.threads[tid.index()].watch(line);
            }
            pieces.push(piece);
        }
    }

    fn on_load(&mut self, tid: ThreadId, seq: u64, stack: StackId, range: AddrRange, atomic: bool) {
        let private = self.publication.record_private_access(tid, &range);
        let dropped = self.cfg.irh && private;
        if dropped {
            self.access.stats.irh_dropped_loads += 1;
        }
        let t = &self.threads[tid.index()];
        self.access.loads.push(LoadAccess {
            tid,
            seq,
            stack,
            range,
            ls: t.ls_id,
            vc: t.vc_id,
            atomic,
            irh_dropped: dropped,
        });
    }

    fn on_flush(&mut self, tid: ThreadId, seq: u64, addr: u64) {
        let line = line_of(addr);
        let Some(pieces) = self.lines.get_mut(&line) else {
            return;
        };
        if pieces.is_empty() {
            return;
        }
        for piece in pieces.iter_mut() {
            piece.pending_fence.insert(tid);
        }
        self.threads[tid.index()].watch(line);
        if let Some(log) = self.log.as_mut() {
            log.grow(tid);
            log.flushes[tid.index()].push((seq, line));
        }
    }

    fn on_fence(&mut self, tid: ThreadId, seq: u64) {
        if let Some(log) = self.log.as_mut() {
            log.grow(tid);
            log.fences[tid.index()].push(seq);
        }
        let t = &mut self.threads[tid.index()];
        let (fencer_ls, fencer_vc) = (t.ls_id, t.vc_id);
        let mut lines = std::mem::take(&mut t.fence_watch);
        lines.sort_unstable();
        lines.dedup();
        for &line in &lines {
            let Some(pieces) = self.lines.get_mut(&line) else {
                continue;
            };
            pieces.retain(|piece| {
                if !piece.pending_fence.contains(tid) {
                    return true;
                }
                let effective_ls = effective_lockset(
                    &mut self.access.locksets,
                    piece.store_ls,
                    fencer_ls,
                    piece.tid == tid,
                );
                let discarded =
                    self.cfg.irh && self.publication.all_private_to(piece.tid, &piece.range);
                self.access.stats.windows_persisted += 1;
                self.access.stats.irh_discarded_windows += u64::from(discarded);
                let close = CloseReason::Persisted;
                let w = piece.window(piece.range, effective_ls, Some(fencer_vc), close, discarded);
                self.access.windows.push(w);
                if let Some(log) = self.log.as_mut() {
                    log.closes.push(Close { tid, seq });
                }
                false
            });
            if pieces.is_empty() {
                self.lines.remove(&line);
            }
        }
        // Hand the emptied list back: its allocation serves the next
        // window of flushes.
        lines.clear();
        self.threads[tid.index()].fence_watch = lines;
    }

    /// Closes every still-open piece as never-persisted: the value's
    /// vulnerability window extends to the end of the execution, no lock
    /// protected a persist that never happened, so the effective lockset is
    /// empty and the close clock unbounded.
    fn close_remaining(&mut self) {
        let empty_ls = self.access.locksets.intern(Lockset::empty());
        let mut lines: Vec<_> = std::mem::take(&mut self.lines).into_iter().collect();
        lines.sort_by_key(|(l, _)| *l);
        for piece in lines.iter().flat_map(|(_, pieces)| pieces) {
            self.access.stats.windows_unpersisted += 1;
            let close = CloseReason::NeverPersisted;
            self.access
                .windows
                .push(piece.window(piece.range, empty_ls, None, close, false));
            if let Some(log) = self.log.as_mut() {
                log.closes.push(Close::NEVER);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Frame, LockId, LockMode, TraceBuilder};

    fn builder() -> TraceBuilder {
        TraceBuilder::new()
    }

    fn store(range: AddrRange) -> EventKind {
        EventKind::Store {
            range,
            non_temporal: false,
            atomic: false,
        }
    }

    fn ntstore(range: AddrRange) -> EventKind {
        EventKind::Store {
            range,
            non_temporal: true,
            atomic: false,
        }
    }

    fn load(range: AddrRange) -> EventKind {
        EventKind::Load {
            range,
            atomic: false,
        }
    }

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    fn sim(trace: &Trace) -> AccessSet {
        simulate(
            trace,
            &SimConfig {
                irh: false,
                eadr: false,
                memory_budget: None,
            },
        )
    }

    #[test]
    fn store_flush_fence_persists() {
        let mut b = builder();
        let s = b.intern_stack([Frame::new("w", "t.rs", 1)]);
        b.push(T0, s, store(AddrRange::new(0x100, 8)));
        b.push(T0, s, EventKind::Flush { addr: 0x100 });
        b.push(T0, s, EventKind::Fence);
        let out = sim(&b.finish());
        assert_eq!(out.windows.len(), 1);
        assert_eq!(out.windows[0].close, CloseReason::Persisted);
        assert!(out.windows[0].close_vc.is_some());
    }

    #[test]
    fn flush_without_fence_does_not_persist() {
        let mut b = builder();
        let s = b.intern_stack([]);
        b.push(T0, s, store(AddrRange::new(0x100, 8)));
        b.push(T0, s, EventKind::Flush { addr: 0x100 });
        let out = sim(&b.finish());
        assert_eq!(out.windows.len(), 1);
        assert_eq!(out.windows[0].close, CloseReason::NeverPersisted);
        assert!(out.windows[0].close_vc.is_none());
    }

    #[test]
    fn fence_without_flush_does_not_persist() {
        let mut b = builder();
        let s = b.intern_stack([]);
        b.push(T0, s, store(AddrRange::new(0x100, 8)));
        b.push(T0, s, EventKind::Fence);
        let out = sim(&b.finish());
        assert_eq!(out.windows[0].close, CloseReason::NeverPersisted);
    }

    #[test]
    fn flush_before_store_gives_no_guarantee() {
        let mut b = builder();
        let s = b.intern_stack([]);
        b.push(T0, s, EventKind::Flush { addr: 0x100 });
        b.push(T0, s, store(AddrRange::new(0x100, 8)));
        b.push(T0, s, EventKind::Fence);
        let out = sim(&b.finish());
        assert_eq!(out.windows[0].close, CloseReason::NeverPersisted);
    }

    #[test]
    fn store_after_flush_not_covered_by_that_flush() {
        // store A; flush; store B (different bytes, same line); fence.
        // A persists; B does not (worst case: the flush captured pre-B
        // content).
        let mut b = builder();
        let s = b.intern_stack([]);
        b.push(T0, s, store(AddrRange::new(0x100, 8)));
        b.push(T0, s, EventKind::Flush { addr: 0x100 });
        b.push(T0, s, store(AddrRange::new(0x108, 8)));
        b.push(T0, s, EventKind::Fence);
        let out = sim(&b.finish());
        let a = out.windows.iter().find(|w| w.range.start == 0x100).unwrap();
        let bb = out.windows.iter().find(|w| w.range.start == 0x108).unwrap();
        assert_eq!(a.close, CloseReason::Persisted);
        assert_eq!(bb.close, CloseReason::NeverPersisted);
    }

    #[test]
    fn non_temporal_store_persists_at_fence_without_flush() {
        let mut b = builder();
        let s = b.intern_stack([]);
        b.push(T0, s, ntstore(AddrRange::new(0x100, 8)));
        b.push(T0, s, EventKind::Fence);
        let out = sim(&b.finish());
        assert_eq!(out.windows[0].close, CloseReason::Persisted);
        assert!(out.windows[0].non_temporal);
    }

    #[test]
    fn non_temporal_store_without_fence_is_unpersisted() {
        let mut b = builder();
        let s = b.intern_stack([]);
        b.push(T0, s, ntstore(AddrRange::new(0x100, 8)));
        let out = sim(&b.finish());
        assert_eq!(out.windows[0].close, CloseReason::NeverPersisted);
    }

    #[test]
    fn fence_only_acts_for_the_flushing_thread() {
        // T0 stores and flushes; T1 fences. No persistence guarantee: the
        // fence must come from the thread that issued the flush.
        let mut b = builder();
        let s = b.intern_stack([]);
        b.push(T0, s, EventKind::ThreadCreate { child: T1 });
        b.push(T0, s, store(AddrRange::new(0x100, 8)));
        b.push(T0, s, EventKind::Flush { addr: 0x100 });
        b.push(T1, s, EventKind::Fence);
        b.push(T0, s, EventKind::ThreadJoin { child: T1 });
        let out = sim(&b.finish());
        assert_eq!(out.windows[0].close, CloseReason::NeverPersisted);
    }

    #[test]
    fn cross_thread_flush_and_fence_persist() {
        // T0 stores; T1 flushes and fences: persisted (helper-thread
        // persistence is a real PM pattern).
        let mut b = builder();
        let s = b.intern_stack([]);
        b.push(T0, s, EventKind::ThreadCreate { child: T1 });
        b.push(T0, s, store(AddrRange::new(0x100, 8)));
        b.push(T1, s, EventKind::Flush { addr: 0x100 });
        b.push(T1, s, EventKind::Fence);
        b.push(T0, s, EventKind::ThreadJoin { child: T1 });
        let out = sim(&b.finish());
        assert_eq!(out.windows[0].close, CloseReason::Persisted);
    }

    #[test]
    fn cross_line_store_splits_and_persists_per_line() {
        // The TurboHash #3 pattern: a 16-byte entry straddles two lines but
        // only the first line is flushed.
        let mut b = builder();
        let s = b.intern_stack([]);
        b.push(T0, s, store(AddrRange::new(0x138, 16))); // lines 4 and 5
        b.push(T0, s, EventKind::Flush { addr: 0x100 }); // line 4 only
        b.push(T0, s, EventKind::Fence);
        let out = sim(&b.finish());
        assert_eq!(out.windows.len(), 2);
        let first = out.windows.iter().find(|w| w.range.start == 0x138).unwrap();
        let second = out.windows.iter().find(|w| w.range.start == 0x140).unwrap();
        assert_eq!(first.range.len, 8);
        assert_eq!(first.close, CloseReason::Persisted);
        assert_eq!(second.range.len, 8);
        assert_eq!(second.close, CloseReason::NeverPersisted);
    }

    #[test]
    fn store_on_the_last_line_of_the_address_space() {
        let mut b = builder();
        let s = b.intern_stack([]);
        b.push(T0, s, store(AddrRange::new(u64::MAX - 7, 8)));
        let out = sim(&b.finish());
        assert_eq!(out.windows.len(), 1);
        assert_eq!(out.windows[0].range, AddrRange::new(u64::MAX - 7, 8));
    }

    #[test]
    fn overwrite_closes_window() {
        let mut b = builder();
        let s = b.intern_stack([]);
        b.push(T0, s, store(AddrRange::new(0x100, 8)));
        b.push(T0, s, store(AddrRange::new(0x100, 8)));
        b.push(T0, s, EventKind::Flush { addr: 0x100 });
        b.push(T0, s, EventKind::Fence);
        let out = sim(&b.finish());
        assert_eq!(out.windows.len(), 2);
        let first = out.windows.iter().find(|w| w.store_seq == 0).unwrap();
        let second = out.windows.iter().find(|w| w.store_seq == 1).unwrap();
        assert_eq!(first.close, CloseReason::Overwritten);
        assert_eq!(second.close, CloseReason::Persisted);
    }

    #[test]
    fn partial_overwrite_keeps_remainder_open() {
        let mut b = builder();
        let s = b.intern_stack([]);
        b.push(T0, s, store(AddrRange::new(0x100, 24)));
        b.push(T0, s, store(AddrRange::new(0x108, 8))); // punches the middle
        let out = sim(&b.finish());
        // First store: overwritten middle (closed) + head + tail (open, then
        // never persisted). Second store: never persisted.
        let overwritten: Vec<_> = out
            .windows
            .iter()
            .filter(|w| w.close == CloseReason::Overwritten)
            .collect();
        assert_eq!(overwritten.len(), 1);
        assert_eq!(overwritten[0].range, AddrRange::new(0x108, 8));
        let unpersisted: Vec<_> = out
            .windows
            .iter()
            .filter(|w| w.close == CloseReason::NeverPersisted)
            .collect();
        let head = unpersisted
            .iter()
            .find(|w| w.range == AddrRange::new(0x100, 8));
        let tail = unpersisted
            .iter()
            .find(|w| w.range == AddrRange::new(0x110, 8));
        assert!(head.is_some() && tail.is_some());
    }

    #[test]
    fn effective_lockset_empty_when_persist_outside_lock() {
        // Figure 2a/2c.
        let mut b = builder();
        let s = b.intern_stack([]);
        let a = LockId(0xa);
        b.push(
            T0,
            s,
            EventKind::Acquire {
                lock: a,
                mode: LockMode::Exclusive,
            },
        );
        b.push(T0, s, store(AddrRange::new(0x100, 8)));
        b.push(T0, s, EventKind::Release { lock: a });
        b.push(T0, s, EventKind::Flush { addr: 0x100 });
        b.push(T0, s, EventKind::Fence);
        let out = sim(&b.finish());
        assert_eq!(out.windows[0].close, CloseReason::Persisted);
        assert!(out.locksets.get(out.windows[0].effective_ls).is_empty());
    }

    #[test]
    fn effective_lockset_kept_within_one_critical_section() {
        // Figure 2b-with-2d-fix: same critical section keeps the lock.
        let mut b = builder();
        let s = b.intern_stack([]);
        let a = LockId(0xa);
        b.push(
            T0,
            s,
            EventKind::Acquire {
                lock: a,
                mode: LockMode::Exclusive,
            },
        );
        b.push(T0, s, store(AddrRange::new(0x100, 8)));
        b.push(T0, s, EventKind::Flush { addr: 0x100 });
        b.push(T0, s, EventKind::Fence);
        b.push(T0, s, EventKind::Release { lock: a });
        let out = sim(&b.finish());
        assert_eq!(out.locksets.get(out.windows[0].effective_ls).len(), 1);
    }

    #[test]
    fn effective_lockset_empty_on_release_reacquire() {
        // Figure 2d: lock released and re-acquired between store and
        // persist — the logical timestamp differs, the intersection is
        // empty even though the lock id matches.
        let mut b = builder();
        let s = b.intern_stack([]);
        let a = LockId(0xa);
        b.push(
            T0,
            s,
            EventKind::Acquire {
                lock: a,
                mode: LockMode::Exclusive,
            },
        );
        b.push(T0, s, store(AddrRange::new(0x100, 8)));
        b.push(T0, s, EventKind::Release { lock: a });
        b.push(
            T0,
            s,
            EventKind::Acquire {
                lock: a,
                mode: LockMode::Exclusive,
            },
        );
        b.push(T0, s, EventKind::Flush { addr: 0x100 });
        b.push(T0, s, EventKind::Fence);
        b.push(T0, s, EventKind::Release { lock: a });
        let out = sim(&b.finish());
        assert_eq!(out.windows[0].close, CloseReason::Persisted);
        assert!(out.locksets.get(out.windows[0].effective_ls).is_empty());
    }

    #[test]
    fn vector_clocks_follow_figure3() {
        // T0 creates T1, then T2; accesses in between (Figure 3, threads
        // renumbered from 1-based to 0-based).
        let mut b = builder();
        let s = b.intern_stack([]);
        b.push(T0, s, store(AddrRange::new(0x100, 8))); // Store1
        b.push(T0, s, EventKind::Flush { addr: 0x100 });
        b.push(T0, s, EventKind::Fence); // Persist1
        b.push(T0, s, EventKind::ThreadCreate { child: T1 });
        b.push(T1, s, load(AddrRange::new(0x100, 8))); // Load1 in T1
        b.push(T0, s, store(AddrRange::new(0x140, 8))); // Store3 (Y)
        b.push(T0, s, EventKind::ThreadCreate { child: ThreadId(2) });
        b.push(ThreadId(2), s, load(AddrRange::new(0x140, 8))); // Load in T2
        b.push(T0, s, EventKind::Flush { addr: 0x140 });
        b.push(T0, s, EventKind::Fence); // Persist3
        b.push(T0, s, EventKind::ThreadJoin { child: T1 });
        b.push(T0, s, EventKind::ThreadJoin { child: ThreadId(2) });
        let out = sim(&b.finish());

        // Store1's persist clock happens-before both loads.
        let w1 = out.windows.iter().find(|w| w.range.start == 0x100).unwrap();
        let persist1 = out.vclocks.get(w1.close_vc.unwrap());
        let l1 = out.loads.iter().find(|l| l.tid == T1).unwrap();
        let l2 = out.loads.iter().find(|l| l.tid == ThreadId(2)).unwrap();
        assert!(persist1.happens_before(out.vclocks.get(l1.vc)));

        // Store3's *store* clock precedes T2's load, but its *persist*
        // clock is concurrent with it — the §3.1.2 example.
        let w3 = out.windows.iter().find(|w| w.range.start == 0x140).unwrap();
        let store3 = out.vclocks.get(w3.store_vc);
        let persist3 = out.vclocks.get(w3.close_vc.unwrap());
        assert!(store3.happens_before(out.vclocks.get(l2.vc)));
        assert!(persist3.concurrent_with(out.vclocks.get(l2.vc)));
    }

    #[test]
    fn irh_discards_persisted_private_stores_only() {
        let mut b = builder();
        let s = b.intern_stack([]);
        // Private init, persisted: discarded.
        b.push(T0, s, store(AddrRange::new(0x100, 8)));
        b.push(T0, s, EventKind::Flush { addr: 0x100 });
        b.push(T0, s, EventKind::Fence);
        // Private init, NOT persisted: kept (the §3.1.3 publish-without-
        // persist race must remain detectable).
        b.push(T0, s, store(AddrRange::new(0x200, 8)));
        b.push(T0, s, EventKind::ThreadCreate { child: T1 });
        b.push(T1, s, load(AddrRange::new(0x100, 8)));
        b.push(T1, s, load(AddrRange::new(0x200, 8)));
        b.push(T0, s, EventKind::ThreadJoin { child: T1 });
        let out = simulate(
            &b.finish(),
            &SimConfig {
                irh: true,
                eadr: false,
                memory_budget: None,
            },
        );
        let w_persisted = out.windows.iter().find(|w| w.range.start == 0x100).unwrap();
        let w_unpersisted = out.windows.iter().find(|w| w.range.start == 0x200).unwrap();
        assert!(w_persisted.irh_discarded);
        assert!(!w_unpersisted.irh_discarded);
        assert_eq!(out.stats.irh_discarded_windows, 1);
    }

    #[test]
    fn irh_keeps_post_publication_stores() {
        let mut b = builder();
        let s = b.intern_stack([]);
        b.push(T0, s, EventKind::ThreadCreate { child: T1 });
        b.push(T1, s, load(AddrRange::new(0x100, 8))); // T1 touches first
        b.push(T0, s, store(AddrRange::new(0x100, 8))); // publishes
        b.push(T0, s, EventKind::Flush { addr: 0x100 });
        b.push(T0, s, EventKind::Fence);
        b.push(T0, s, EventKind::ThreadJoin { child: T1 });
        let out = simulate(
            &b.finish(),
            &SimConfig {
                irh: true,
                eadr: false,
                memory_budget: None,
            },
        );
        assert!(!out.windows[0].irh_discarded);
    }

    #[test]
    fn irh_drops_private_loads() {
        let mut b = builder();
        let s = b.intern_stack([]);
        b.push(T0, s, store(AddrRange::new(0x100, 8)));
        b.push(T0, s, load(AddrRange::new(0x100, 8))); // private load: dropped
        b.push(T0, s, EventKind::ThreadCreate { child: T1 });
        b.push(T1, s, load(AddrRange::new(0x100, 8))); // publishes: kept
        b.push(T0, s, load(AddrRange::new(0x100, 8))); // public now: kept
        b.push(T0, s, EventKind::ThreadJoin { child: T1 });
        let out = simulate(
            &b.finish(),
            &SimConfig {
                irh: true,
                eadr: false,
                memory_budget: None,
            },
        );
        assert_eq!(out.loads.len(), 3);
        assert!(out.loads[0].irh_dropped);
        assert!(!out.loads[1].irh_dropped);
        assert!(!out.loads[2].irh_dropped);
        assert_eq!(out.stats.irh_dropped_loads, 1);
    }

    #[test]
    fn pm_region_filter_skips_volatile_accesses() {
        let mut b = builder();
        b.add_region(crate::trace::PmRegion {
            base: 0x1000,
            len: 0x1000,
            path: "pm".into(),
        });
        let s = b.intern_stack([]);
        b.push(T0, s, store(AddrRange::new(0x100, 8))); // volatile
        b.push(T0, s, store(AddrRange::new(0x1000, 8))); // PM
        let out = sim(&b.finish());
        assert_eq!(out.stats.non_pm_accesses, 1);
        assert_eq!(out.stats.stores, 1);
        assert_eq!(out.windows.len(), 1);
        assert_eq!(out.windows[0].range.start, 0x1000);
    }

    #[test]
    fn eadr_mode_closes_windows_at_the_store() {
        let mut b = builder();
        let s = b.intern_stack([]);
        b.push(T0, s, store(AddrRange::new(0x100, 8))); // no flush, no fence
        let out = simulate(
            &b.finish(),
            &SimConfig {
                irh: false,
                eadr: true,
                memory_budget: None,
            },
        );
        assert_eq!(out.windows.len(), 1);
        assert_eq!(out.windows[0].close, CloseReason::Persisted);
        assert_eq!(out.windows[0].close_vc, Some(out.windows[0].store_vc));
        assert_eq!(out.windows[0].effective_ls, out.windows[0].store_ls);
        assert_eq!(out.stats.windows_unpersisted, 0);
    }

    /// Asserts [`StreamSimulator`] and [`simulate`] produce bit-identical
    /// output on `trace`: same windows/loads (including interned ids) and
    /// the same *values* behind every id in both interners.
    fn assert_stream_matches_batch(trace: &Trace, cfg: &SimConfig) {
        let batch = simulate(trace, cfg);
        let mut s = StreamSimulator::new(trace.thread_count, trace.regions.clone(), cfg);
        for ev in trace.events.iter() {
            s.step(&ev);
        }
        let stream = s.finish();
        assert_eq!(batch.windows, stream.windows);
        assert_eq!(batch.loads, stream.loads);
        assert_eq!(batch.stats, stream.stats);
        for w in &batch.windows {
            assert_eq!(
                batch.locksets.get(w.store_ls),
                stream.locksets.get(w.store_ls)
            );
            assert_eq!(
                batch.locksets.get(w.effective_ls),
                stream.locksets.get(w.effective_ls)
            );
            assert_eq!(
                batch.vclocks.get(w.store_vc),
                stream.vclocks.get(w.store_vc)
            );
            if let Some(c) = w.close_vc {
                assert_eq!(batch.vclocks.get(c), stream.vclocks.get(c));
            }
        }
        for l in &batch.loads {
            assert_eq!(batch.locksets.get(l.ls), stream.locksets.get(l.ls));
            assert_eq!(batch.vclocks.get(l.vc), stream.vclocks.get(l.vc));
        }
    }

    /// A busy trace exercising every replay path: multiple threads, nested
    /// and re-acquired locks, overwrites, cross-thread persists, NT stores,
    /// private (IRH-droppable) accesses.
    fn busy_trace() -> Trace {
        let mut b = builder();
        let s = b.intern_stack([Frame::new("w", "t.rs", 1)]);
        let (a, bb) = (LockId(0xa), LockId(0xb));
        let acq = |lock| EventKind::Acquire {
            lock,
            mode: LockMode::Exclusive,
        };
        b.push(T0, s, store(AddrRange::new(0x100, 8)));
        b.push(T0, s, EventKind::Flush { addr: 0x100 });
        b.push(T0, s, EventKind::Fence);
        b.push(T0, s, EventKind::ThreadCreate { child: T1 });
        for round in 0..4u64 {
            let x = AddrRange::new(0x1000 + round * 0x40, 8);
            b.push(T0, s, acq(a));
            b.push(T0, s, acq(bb));
            b.push(T0, s, store(x));
            b.push(T0, s, EventKind::Release { lock: bb });
            b.push(T0, s, EventKind::Flush { addr: x.start });
            b.push(T0, s, EventKind::Fence);
            b.push(T0, s, EventKind::Release { lock: a });
            b.push(T1, s, acq(a));
            b.push(T1, s, load(x));
            b.push(T1, s, EventKind::Release { lock: a });
            b.push(T1, s, ntstore(AddrRange::new(0x2000 + round * 0x40, 16)));
            b.push(T1, s, EventKind::Fence);
            b.push(T0, s, store(x)); // overwrite
        }
        b.push(T1, s, EventKind::Flush { addr: 0x1000 });
        b.push(T1, s, EventKind::Fence); // cross-thread persist
        b.push(T0, s, EventKind::ThreadJoin { child: T1 });
        b.finish()
    }

    #[test]
    fn stream_simulator_matches_batch() {
        let trace = busy_trace();
        for irh in [false, true] {
            let cfg = SimConfig {
                irh,
                eadr: false,
                memory_budget: None,
            };
            assert_stream_matches_batch(&trace, &cfg);
        }
    }

    #[test]
    fn a_repair_log_changes_no_output_and_keeps_windows_small() {
        // The log lives beside the windows, so analyses without repair pay
        // nothing per window; the memory budget charges these sizes.
        assert_eq!(std::mem::size_of::<StoreWindow>(), 56);
        assert_eq!(std::mem::size_of::<OpenPiece>(), 72);
        let trace = busy_trace();
        let cfg = SimConfig::default();
        let plain = simulate(&trace, &cfg);
        let mut s = StreamSimulator::new(trace.thread_count, trace.regions.clone(), &cfg);
        s.log_for_repair();
        for ev in trace.events.iter() {
            s.step(&ev);
        }
        let logged = s.finish();
        assert_eq!(plain.windows, logged.windows);
        assert_eq!(plain.loads, logged.loads);
        assert_eq!(plain.stats, logged.stats);
        assert!(plain.repair_log.is_none());
        let log = logged.repair_log.expect("a repair simulation logs");
        assert_eq!(log.closes.len(), logged.windows.len());
        for (w, close) in logged.windows.iter().zip(&log.closes) {
            let never = w.close == CloseReason::NeverPersisted;
            assert_eq!(never, *close == Close::NEVER, "{w:?} closed at {close:?}");
            if !never {
                // The closer's clock after its closing event is the window's.
                let after = log.state_after(close.tid, close.seq).expect("a mark");
                assert_eq!(Some(after.vc), w.close_vc, "{w:?}");
            }
        }
    }

    /// A long trace whose persisted windows pile up until a small budget
    /// forces evictions.
    fn window_heavy_trace() -> Trace {
        let mut b = builder();
        let s = b.intern_stack([]);
        b.push(T0, s, EventKind::ThreadCreate { child: T1 });
        for i in 0..400u64 {
            let x = AddrRange::new(0x1_0000 + i * 0x40, 8);
            b.push(T0, s, store(x));
            b.push(T0, s, EventKind::Flush { addr: x.start });
            b.push(T0, s, EventKind::Fence);
            b.push(T1, s, load(x));
        }
        b.push(T0, s, EventKind::ThreadJoin { child: T1 });
        b.finish()
    }

    #[test]
    fn memory_budget_evicts_deterministically() {
        let trace = window_heavy_trace();
        let cfg = SimConfig {
            irh: false,
            eadr: false,
            memory_budget: Some(8 * 1024),
        };
        let out = simulate(&trace, &cfg);
        assert!(out.stats.memory_budget_hit);
        assert!(out.stats.windows_evicted > 0);
        // Extended partition law: closes account for kept + evicted.
        assert_eq!(
            out.stats.windows_persisted
                + out.stats.windows_overwritten
                + out.stats.windows_unpersisted,
            out.windows.len() as u64 + out.stats.windows_evicted
        );
        // The budget path stays bit-identical between batch and streaming.
        assert_stream_matches_batch(&trace, &cfg);
        // And an unbudgeted run evicts nothing.
        let free = simulate(
            &trace,
            &SimConfig {
                memory_budget: None,
                ..cfg
            },
        );
        assert!(!free.stats.memory_budget_hit);
        assert_eq!(free.stats.windows_evicted, 0);
        assert!(free.windows.len() > out.windows.len());
    }

    #[test]
    fn stats_are_consistent() {
        let mut b = builder();
        let s = b.intern_stack([]);
        b.push(T0, s, store(AddrRange::new(0x100, 8)));
        b.push(T0, s, store(AddrRange::new(0x100, 8)));
        b.push(T0, s, EventKind::Flush { addr: 0x100 });
        b.push(T0, s, EventKind::Fence);
        b.push(T0, s, load(AddrRange::new(0x100, 8)));
        let out = sim(&b.finish());
        assert_eq!(out.stats.stores, 2);
        assert_eq!(out.stats.loads, 1);
        assert_eq!(out.stats.flushes, 1);
        assert_eq!(out.stats.fences, 1);
        assert_eq!(out.stats.windows_created, 2);
        assert_eq!(
            out.stats.windows_persisted
                + out.stats.windows_overwritten
                + out.stats.windows_unpersisted,
            out.windows.len() as u64
        );
    }

    #[test]
    fn fences_above_thread_64_close_their_own_pieces() {
        // Threads 3 and 70 each store into the same line, flush it and
        // fence; thread 6 (70 mod 64) fences in between. Thread 3's piece
        // is pending on both flushers, thread 70's on 70 alone, so each
        // closes at its own thread's fence and clock.
        let (t3, t6, t70) = (ThreadId(3), ThreadId(6), ThreadId(70));
        let mut b = builder();
        let s = b.intern_stack([]);
        for t in [t3, t6, t70] {
            b.push(T0, s, EventKind::ThreadCreate { child: t });
        }
        b.push(t3, s, store(AddrRange::new(0x100, 8)));
        b.push(t3, s, EventKind::Flush { addr: 0x100 });
        b.push(t70, s, store(AddrRange::new(0x108, 8)));
        b.push(t70, s, EventKind::Flush { addr: 0x100 });
        b.push(t3, s, EventKind::Fence);
        b.push(t6, s, EventKind::Fence);
        b.push(t70, s, EventKind::Fence);
        let out = sim(&b.finish());
        assert_eq!(out.windows.len(), 2);
        for (w, t) in out.windows.iter().zip([t3, t70]) {
            assert_eq!(w.tid, t);
            assert_eq!(w.close, CloseReason::Persisted);
            // No create or join between store and fence: the fencer's
            // clock is still the one the store was stamped with.
            assert_eq!(w.close_vc, Some(w.store_vc), "{t:?} closes its own piece");
        }
    }

    #[test]
    fn a_fence_closes_watched_lines_once_each_in_ascending_order() {
        let mut b = builder();
        let s = b.intern_stack([]);
        for line in [5u64, 6, 7] {
            b.push(T0, s, store(AddrRange::new(line * 64, 8)));
        }
        for line in [7u64, 6, 7, 5] {
            b.push(T0, s, EventKind::Flush { addr: line * 64 });
        }
        b.push(T0, s, EventKind::Fence);
        let out = sim(&b.finish());
        let starts: Vec<u64> = out.windows.iter().map(|w| w.range.start).collect();
        assert_eq!(starts, [5 * 64, 6 * 64, 7 * 64]);
        assert!(out
            .windows
            .iter()
            .all(|w| w.close == CloseReason::Persisted));
    }
}
