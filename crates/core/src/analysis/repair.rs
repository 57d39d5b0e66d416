//! Replay-validated repair suggestions (DESIGN.md §4k).
//!
//! HawkSet reports unprotected-store races but leaves the repair to the
//! developer. This module computes, for each reported [`Race`], the minimal
//! instrumentation-level patch that would close it — a
//! [`FixKind::FlushFence`] insertion that persists the store before the
//! conflicting access can observe the open window, or a
//! [`FixKind::LockExtension`] that moves a lock boundary so the store's
//! effective lockset becomes non-empty — and **proves** the patch by
//! replaying the trace with it applied ([`crate::memsim::patch`]) and
//! re-running the pairing analysis.
//!
//! Validity is defined operationally, not syntactically: a suggestion is
//! `validated` only when the patched replay (a) no longer reports the
//! targeted race and (b) reports no race key absent from the baseline
//! report. Suggestions that fail replay validation are **demoted** to
//! [`FixStatus::Candidate`] and carry `validated: false` — they are never
//! silently emitted as fixes. Store-store pairs get no suggestion at all
//! (there is no store→persist window to close on the "load" side, and
//! HawkSet's default analysis deliberately skips them).
//!
//! A patch changes only the few windows and loads it touches: its
//! *footprint*. So without a budget or the store-store pass, no patch is
//! replayed. Each footprint is read off the baseline access set, with the
//! close points and thread states its simulation logged, and only the site
//! pairs the footprint touches are paired again (DESIGN.md §4k). The full
//! replay stays for budgeted runs and as the reference every verdict must
//! equal ([`RepairValidator::validates`]).
//!
//! The replay validates the *recorded schedule* with patched events; it
//! does not explore alternative interleavings the patch might force (a
//! hoisted lock acquisition can serialize threads that ran concurrently in
//! the recording). That caveat is inherent to trace-level validation and
//! is documented with the demotion rules in DESIGN.md §4k.

use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::addr::{line_base, line_of, AddrRange, LineId};
use crate::hash::{FxHashMap, FxHashSet};
use crate::lockset::LockEntry;
use crate::memsim::patch::{simulate_patched, simulate_patches, EventPatch, SyntheticEvent};
use crate::memsim::{
    effective_lockset, line_pieces, AccessSet, Close, CloseReason, LoadAccess, LsId, RepairLog,
    StoreWindow, StreamSimulator, VcId,
};
use crate::obs::MetricsRegistry;
use crate::trace::{Event, EventKind, LockId, StackId, StackTable, ThreadId, TraceView};

use super::engine::{self, AddrIndex};
use super::report::{AnalysisReport, Race, RaceKey};
use super::AnalysisConfig;

/// Version of the `fixes` section's own schema (the section is an optional
/// addition to report schema v1, exactly like `metrics`).
pub const FIX_SCHEMA_VERSION: u64 = 1;

/// The instrumentation-level repair shapes.
///
/// Sequence numbers refer to the analyzed event stream (after lenient-mode
/// quarantine and event-budget truncation) — the same numbering the
/// simulator replayed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FixKind {
    /// Insert a flush of `line` followed by a fence immediately after the
    /// store event at `after_seq`, closing the store→persist window at the
    /// store point itself.
    ///
    /// When `after_seq` names a store event, the patch is applied at
    /// *every* dynamic store sharing that event's backtrace (the
    /// instrumentation-level stand-in for inserting the flush at the store's
    /// source line); `after_seq`/`line` record the first racy occurrence.
    /// When it names any other event the flush/fence lands literally after
    /// that event — which is how the validator proves wrong insertion
    /// points fail.
    FlushFence {
        /// Sequence number of the witnessed racy store.
        after_seq: u64,
        /// Base address of the cache line to flush.
        line: u64,
    },
    /// Move the `Acquire` of `lock` found at `from_seq` to immediately
    /// before the event at `to_seq` (the racy store), extending the
    /// critical section backwards so the store→persist window runs inside
    /// it and the effective lockset becomes non-empty. (If `from_seq`
    /// names the lock's `Release`, it is moved to immediately *after*
    /// `to_seq` instead — the forward extension.)
    LockExtension {
        /// The lock whose critical section is extended.
        lock: u64,
        /// Sequence number of the moved `Acquire`/`Release` event.
        from_seq: u64,
        /// Sequence number the critical section is extended to cover.
        to_seq: u64,
    },
}

impl FixKind {
    /// One-line human rendering, used by the CLI and crashtest output.
    pub fn summary(&self) -> String {
        match self {
            FixKind::FlushFence { after_seq, line } => {
                format!("flush+fence after seq {after_seq} (line {line:#x})")
            }
            FixKind::LockExtension {
                lock,
                from_seq,
                to_seq,
            } => {
                format!(
                    "extend lock {lock:#x}: move boundary at seq {from_seq} to cover seq {to_seq}"
                )
            }
        }
    }
}

/// Whether a suggestion survived replay validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FixStatus {
    /// Proven by replay: race gone, no new races.
    Fix,
    /// Best attempt that failed replay validation — demoted, never to be
    /// applied blindly.
    Candidate,
}

/// One repair suggestion for one reported race.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FixSuggestion {
    /// The targeted race (stack-pair identity, resolvable via the trace).
    pub race: RaceKey,
    /// The proposed patch.
    pub kind: FixKind,
    /// `true` only when the patched replay kills the race and introduces
    /// no new findings.
    pub validated: bool,
    /// [`FixStatus::Fix`] iff `validated` (the demotion rule).
    pub status: FixStatus,
}

impl FixSuggestion {
    fn new(race: RaceKey, kind: FixKind, validated: bool) -> Self {
        Self {
            race,
            kind,
            validated,
            status: if validated {
                FixStatus::Fix
            } else {
                FixStatus::Candidate
            },
        }
    }

    /// One-line human rendering.
    pub fn summary(&self) -> String {
        format!(
            "{} [{}]",
            self.kind.summary(),
            if self.validated {
                "validated"
            } else {
                "candidate"
            }
        )
    }
}

/// The optional `fixes` section of the schema-v1 JSON envelope:
/// self-versioned, present only when at least one suggestion exists.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FixReport {
    /// [`FIX_SCHEMA_VERSION`].
    pub version: u64,
    /// One entry per non-store-store race, in report order.
    pub suggestions: Vec<FixSuggestion>,
}

impl FixReport {
    /// Wraps suggestions in the versioned envelope.
    pub fn new(suggestions: Vec<FixSuggestion>) -> Self {
        Self {
            version: FIX_SCHEMA_VERSION,
            suggestions,
        }
    }
}

/// Replay-validation of proposed patches: replays the analyzed event
/// stream with a patch applied as synthetic events and re-runs the pairing
/// analysis under a determinism-preserving copy of `cfg`. That replay
/// ([`replay`](Self::replay), [`validates`](Self::validates)) is the
/// reference; [`suggest`] reaches the same verdicts from each patch's
/// footprint on the baseline access set where it can
/// ([`verdicts`](Self::verdicts), DESIGN.md §4k).
pub struct RepairValidator<'a> {
    view: &'a TraceView<'a>,
    cfg: AnalysisConfig,
    baseline: BTreeSet<RaceKey>,
}

impl<'a> RepairValidator<'a> {
    /// A validator over the analyzed view and the baseline report's race
    /// set (`races` must be the report the suggestions target).
    pub fn new(view: &'a TraceView<'a>, races: &[Race], cfg: &AnalysisConfig) -> Self {
        Self {
            view,
            cfg: replay_config(cfg),
            baseline: races.iter().map(|r| r.key).collect(),
        }
    }

    /// Replays the view with `kind` applied and returns the re-analysis
    /// report, or `None` when the patch is inapplicable (its anchor event
    /// does not exist or has the wrong kind).
    pub fn replay(&self, kind: &FixKind) -> Option<AnalysisReport> {
        let patch = build_patch(self.view, kind)?;
        Some(self.pair(&simulate_patched(self.view, &patch, &self.cfg.sim_config())))
    }

    /// The full verdict: `true` iff the patched replay no longer reports
    /// `target` and reports no race key outside the baseline set.
    pub fn validates(&self, kind: &FixKind, target: RaceKey) -> bool {
        self.replay(kind)
            .is_some_and(|patched| self.verdict(&keys(&patched), target))
    }

    /// Whether the Refute step fails `kind` for `target`: `kind` is a
    /// store-anchored flush, and a window it closes at one of its own
    /// stores races with a baseline load at `target`'s site pair. A `true`
    /// here implies that [`validates`](Self::validates) is `false`; a
    /// `false` decides nothing.
    pub fn refutes(&self, kind: &FixKind, target: RaceKey) -> bool {
        if !logs_for_repair(&self.cfg) {
            return false;
        }
        let Some(PatchShape::FlushStores(stack)) = PatchShape::of(self.view, kind) else {
            return false;
        };
        let mut base = self.baseline();
        let stores = anchored_stores(self.view, &[stack]);
        let Some(anchors) = base.anchors(&stores[&stack]) else {
            return false;
        };
        let mut own = base.own_pieces(self.view, &anchors);
        if let Some(publication) = base.publication(self.view, anchors.iter()) {
            publication.decide(own.iter_mut());
        }
        base.refuted(&own, target)
    }

    /// The replay's access set as `kind`'s footprint on the baseline
    /// implies it: the baseline's windows and loads with the footprint
    /// swapped in, in replay order, over the baseline's interners. `None`
    /// when verdicts do not come from footprints, or `kind` has none: it is
    /// inapplicable, or it is replayed. Its windows and loads equal
    /// [`simulate_patched`]'s in order and in every field but their
    /// sequence numbers and the acquisition timestamps in their locksets,
    /// which only equality tests read.
    pub fn footprint_access(&self, kind: &FixKind) -> Option<AccessSet> {
        if !logs_for_repair(&self.cfg) {
            return None;
        }
        let mut base = self.baseline();
        let fp = match PatchShape::of(self.view, kind)? {
            PatchShape::FlushStores(stack) => {
                let stores = anchored_stores(self.view, &[stack]);
                let anchors = base.anchors(&stores[&stack])?;
                let mut fp = base.flush_footprint(&anchors);
                if let Some(publication) = base.publication(self.view, anchors.iter()) {
                    publication.decide(fp.added.iter_mut());
                }
                fp
            }
            PatchShape::Literal(FixKind::LockExtension {
                lock,
                from_seq,
                to_seq,
            }) => match base.extension(self.view, lock, from_seq, to_seq) {
                Derived::Footprint(fp) => fp,
                Derived::Inapplicable | Derived::Undecided => return None,
            },
            PatchShape::Literal(FixKind::FlushFence { .. }) => return None,
        };
        let (windows, loads) = (base.windows.len() as u32, base.loads.len() as u32);
        base.swap_in(&fp, (0..windows).collect(), (0..loads).collect(), None);
        Some(base.judge)
    }

    /// Every candidate [`suggest`] plans for `races`, which must be the
    /// races the validator was made with, in its order: each race's
    /// flush, then its lock extensions.
    pub fn candidates(&self, races: &[Race]) -> Vec<(FixKind, RaceKey)> {
        let base = self.baseline();
        let plans = plan(self.view, &base, races);
        let shapes = plans
            .into_iter()
            .flat_map(|(race, shapes)| shapes.into_iter().map(move |kind| (kind, race)));
        shapes.collect()
    }

    /// The verdict of every `(kind, target)` pair, decided as [`suggest`]
    /// decides them: from each patch's footprint on the baseline when the
    /// run has no budget and no store-store pass, else by replay. Each
    /// equals [`validates`](Self::validates).
    pub fn verdicts(&self, candidates: &[(FixKind, RaceKey)]) -> Vec<bool> {
        let base = self.baseline();
        self.decide(base, candidates)
    }

    /// The view's simulation, as the repair steps read it.
    fn baseline(&self) -> Baseline<'_> {
        let access = simulate_for_repair(self.view, &self.cfg);
        Baseline::new(access, self.view.stacks, &self.cfg)
    }

    /// Every candidate's verdict, from `base`'s footprints or, when its
    /// simulation logged nothing for repair ([`logs_for_repair`]), by
    /// replay. Debug builds replay every patch anyway and assert that each
    /// footprint verdict equals the replay's.
    fn decide(&self, base: Baseline<'_>, candidates: &[(FixKind, RaceKey)]) -> Vec<bool> {
        if base.log.is_none() {
            drop(base);
            return self.validates_all(candidates);
        }
        let verdicts = base.decide(self, candidates);
        if cfg!(debug_assertions) {
            let replayed = self.validates_all(candidates);
            for ((kind, target), (ok, replay)) in
                candidates.iter().zip(verdicts.iter().zip(replayed))
            {
                assert_eq!(
                    *ok,
                    replay,
                    "{} for {target:?}: the footprint verdict disagrees with the replay",
                    kind.summary()
                );
            }
        }
        verdicts
    }

    /// [`validates`](Self::validates) for every `(kind, target)` pair, from
    /// one shared simulation: each distinct patch is built once, replayed
    /// from its first edit on ([`simulate_patches`]) and paired in full.
    /// Candidates whose patches are equal share one build and one replay: a
    /// store-anchored flush patches every store at the anchor's stack.
    fn validates_all(&self, candidates: &[(FixKind, RaceKey)]) -> Vec<bool> {
        let mut slot_of: FxHashMap<PatchShape, Option<usize>> = FxHashMap::default();
        let mut patches = Vec::new();
        let mut slots = Vec::with_capacity(candidates.len());
        for (kind, _) in candidates {
            let slot = PatchShape::of(self.view, kind).and_then(|shape| {
                // An inapplicable shape is remembered as `None`.
                *slot_of.entry(shape).or_insert_with(|| {
                    patches.push(shape.build(self.view)?);
                    Some(patches.len() - 1)
                })
            });
            slots.push(slot);
        }
        let mut patched = vec![Vec::new(); patches.len()];
        simulate_patches(self.view, &patches, &self.cfg.sim_config(), |i, access| {
            patched[i] = keys(&self.pair(&access));
        });
        candidates
            .iter()
            .zip(slots)
            .map(|((_, target), slot)| slot.is_some_and(|i| self.verdict(&patched[i], *target)))
            .collect()
    }

    fn pair(&self, access: &AccessSet) -> AnalysisReport {
        let reg = MetricsRegistry::new();
        engine::run_pairing(self.view.stacks, access, &self.cfg, &reg)
    }

    /// The validity rule over a patched replay's race keys.
    fn verdict(&self, patched: &[RaceKey], target: RaceKey) -> bool {
        patched
            .iter()
            .all(|k| *k != target && self.baseline.contains(k))
    }
}

fn keys(report: &AnalysisReport) -> Vec<RaceKey> {
    report.races.iter().map(|r| r.key).collect()
}

/// Computes one suggestion per non-store-store race in `races`, each
/// validated. `access` must be the access set the report was derived from
/// (the witnesses are matched against it), and `view` the event stream
/// that produced it.
///
/// Three steps (DESIGN.md §4k): *Plan* finds each race's witness and lists
/// its candidate patches; *Decide* gives every candidate its verdict, from
/// the patch's footprint on `access` or, under a budget or the store-store
/// pass, by replay ([`RepairValidator::verdicts`]); *Assembly* picks each
/// race's suggestion.
pub fn suggest(
    view: &TraceView<'_>,
    access: AccessSet,
    races: &[Race],
    cfg: &AnalysisConfig,
) -> Vec<FixSuggestion> {
    if races.is_empty() || cfg.eadr {
        return Vec::new();
    }
    let validator = RepairValidator::new(view, races, cfg);
    // A caller that simulated without the repair log gets one simulated.
    let access = if logs_for_repair(&validator.cfg) && access.repair_log.is_none() {
        simulate_for_repair(view, cfg)
    } else {
        access
    };
    let base = Baseline::new(access, view.stacks, &validator.cfg);
    let plans = plan(view, &base, races);
    let candidates: Vec<(FixKind, RaceKey)> = plans
        .iter()
        .flat_map(|(race, shapes)| shapes.iter().map(|kind| (*kind, *race)))
        .collect();
    // Decide: every shape gets its verdict — extensions too where the
    // flush validates.
    let verdicts = validator.decide(base, &candidates);
    // Assembly: the first shape that validates wins. When none does, the
    // flush is emitted as a demoted candidate so the race is still
    // actionable, never as a fix.
    let mut rest = &verdicts[..];
    plans
        .into_iter()
        .map(|(race, shapes)| {
            let (oks, next) = rest.split_at(shapes.len());
            rest = next;
            match shapes.iter().zip(oks).find(|(_, ok)| **ok) {
                Some((kind, _)) => FixSuggestion::new(race, *kind, true),
                None => FixSuggestion::new(race, shapes[0], false),
            }
        })
        .collect()
}

/// The Plan step: each race's candidate shapes in synthesis order — the
/// flush+fence at the witness store's line, then, since the flush alone
/// does not protect a window without a shared lock or happens-before, one
/// lock extension per critical section the loader holds that the store's
/// thread enters *after* the store (hoisting that acquisition over the
/// store gives the window a non-empty effective lockset).
fn plan(view: &TraceView<'_>, base: &Baseline<'_>, races: &[Race]) -> Vec<(RaceKey, Vec<FixKind>)> {
    races
        .iter()
        .filter(|race| !race.store_store)
        .filter_map(|race| {
            let (win, load) = base.find_witness(race)?;
            let flush = FixKind::FlushFence {
                after_seq: win.store_seq,
                line: line_base(line_of(win.range.start)),
            };
            let extensions = base.judge.locksets.get(load.ls).iter().filter_map(|entry| {
                let acq_seq = first_acquire_after(view, win, entry.lock)?;
                Some(FixKind::LockExtension {
                    lock: entry.lock.0,
                    from_seq: acq_seq,
                    to_seq: win.store_seq,
                })
            });
            Some((race.key, std::iter::once(flush).chain(extensions).collect()))
        })
        .collect()
}

/// Whether repair on `cfg` reads its verdicts off footprints, so the
/// simulation that feeds it should record the repair log: with no
/// candidate-pair budget, which can stop the pairing before a site pair;
/// no memory budget, which evicts windows and loads; no store-store pass,
/// whose keys can equal a load race's; and no eADR, which has no races.
pub(crate) fn logs_for_repair(cfg: &AnalysisConfig) -> bool {
    cfg.budget.max_candidate_pairs.is_none()
        && cfg.budget.memory_budget.is_none()
        && !cfg.check_store_store
        && !cfg.eadr
}

/// The simulation of `view` that feeds repair: its access set, with the
/// repair log when verdicts come from footprints ([`logs_for_repair`]).
pub(crate) fn simulate_for_repair(view: &TraceView<'_>, cfg: &AnalysisConfig) -> AccessSet {
    let mut sim = StreamSimulator::new(view.thread_count, view.regions.to_vec(), &cfg.sim_config());
    if logs_for_repair(cfg) {
        sim.log_for_repair();
    }
    for ev in view.events.iter() {
        sim.step(&ev);
    }
    sim.finish()
}

/// A determinism-preserving copy of `cfg` for the validation replays:
/// the stage watchdog, the interrupt and fault injection are stripped (a
/// replay must be a pure function of the patched event stream), the event
/// budget is dropped (the view is already the analyzed prefix, and the
/// patch adds events), and `suggest_fixes` is cleared so a replayed
/// analysis never recurses.
fn replay_config(cfg: &AnalysisConfig) -> AnalysisConfig {
    let mut out = cfg.clone();
    out.budget.max_events = None;
    out.budget.stage_timeout = None;
    out.interrupt = None;
    out.stall_injection = None;
    out.stream = Default::default();
    out.suggest_fixes = false;
    out
}

/// The baseline access set as the repair steps read it, filed once instead
/// of once per race or patch: the windows and loads the pairing sees (live
/// and past the atomics filter) by stack and the loads by address, and,
/// once a footprint needs them, every access by thread and by line and the
/// windows by address. Its interners and epochs live in `judge`, whose
/// windows and loads are rebuilt for each restricted pairing.
struct Baseline<'a> {
    stacks: &'a StackTable,
    cfg: &'a AnalysisConfig,
    /// [`Baseline::cfg`] on one worker, for the restricted pairings.
    judge_cfg: AnalysisConfig,
    windows: Vec<StoreWindow>,
    loads: Vec<LoadAccess>,
    log: Option<Box<RepairLog>>,
    judge: AccessSet,
    /// By stack: its seen windows, in store order.
    windows_by_stack: FxHashMap<StackId, Vec<u32>>,
    /// By stack: its seen loads, in load order.
    loads_by_stack: FxHashMap<StackId, Vec<u32>>,
    /// Every seen load, in load order, and indexed by address.
    seen_loads: Vec<u32>,
    loads_by_addr: AddrIndex,
    /// Every seen window, and indexed by address, once a lock extension's
    /// loads need their partners.
    windows_by_addr: OnceCell<(Vec<u32>, AddrIndex)>,
    /// By thread: what it stored, closed and loaded, once a footprint
    /// needs it.
    threads: OnceCell<Vec<ThreadAccesses>>,
    /// Every window by line, once a flush needs a footprint ([`LineIndex`]).
    lines: OnceCell<LineIndex>,
    sites: Sites,
}

/// Every window, by line and then store order, and each line's run of it.
struct LineIndex {
    windows: Vec<u32>,
    runs: FxHashMap<LineId, (u32, u32)>,
}

impl LineIndex {
    fn new(windows: &[StoreWindow]) -> Self {
        let mut keyed: Vec<(LineId, u64, u32)> = windows
            .iter()
            .enumerate()
            .map(|(i, w)| (line_of(w.range.start), w.store_seq, i as u32))
            .collect();
        keyed.sort_unstable();
        let mut runs: FxHashMap<LineId, (u32, u32)> = FxHashMap::default();
        for (k, &(line, ..)) in keyed.iter().enumerate() {
            runs.entry(line).or_insert((k as u32, k as u32)).1 = k as u32 + 1;
        }
        let windows = keyed.into_iter().map(|(.., i)| i).collect();
        Self { windows, runs }
    }

    /// The windows on `line`, in store order.
    fn on(&self, line: LineId) -> &[u32] {
        self.runs
            .get(&line)
            .map_or(&[], |&(from, to)| &self.windows[from as usize..to as usize])
    }
}

/// One thread's accesses, as a footprint looks them up.
#[derive(Default)]
struct ThreadAccesses {
    /// Its windows, in store order.
    stored: Vec<u32>,
    /// The windows it closed, in close order.
    closed: Vec<u32>,
    /// Its loads, in load order.
    loads: Vec<u32>,
    /// Its non-temporal stores, as `(seq, line)` per window, in store order.
    non_temporal: Vec<(u64, LineId)>,
}

impl ThreadAccesses {
    /// Every thread's accesses, from the baseline's windows, loads and log.
    fn index(windows: &[StoreWindow], loads: &[LoadAccess], log: &RepairLog) -> Vec<Self> {
        let mut threads: Vec<ThreadAccesses> = Vec::new();
        fn of(threads: &mut Vec<ThreadAccesses>, tid: ThreadId) -> &mut ThreadAccesses {
            if threads.len() <= tid.index() {
                threads.resize_with(tid.index() + 1, Default::default);
            }
            &mut threads[tid.index()]
        }
        for (i, w) in windows.iter().enumerate() {
            let (i, th) = (i as u32, of(&mut threads, w.tid));
            th.stored.push(i);
            if w.non_temporal {
                th.non_temporal.push((w.store_seq, line_of(w.range.start)));
            }
            let close = log.closes[i as usize];
            if close != Close::NEVER {
                of(&mut threads, close.tid).closed.push(i);
            }
        }
        for (i, ld) in loads.iter().enumerate() {
            of(&mut threads, ld.tid).loads.push(i as u32);
        }
        for t in &mut threads {
            t.stored.sort_by_key(|&i| windows[i as usize].store_seq);
            t.non_temporal.sort_unstable();
        }
        threads
    }
}

/// The entries of `list`, sorted by `key`, whose key lies in `span`.
fn in_span<T>(list: &[T], span: std::ops::Range<u64>, key: impl Fn(&T) -> u64) -> &[T] {
    let from = list.partition_point(|e| key(e) < span.start);
    let to = list.partition_point(|e| key(e) < span.end);
    &list[from..to]
}

impl<'a> Baseline<'a> {
    fn new(access: AccessSet, stacks: &'a StackTable, cfg: &'a AnalysisConfig) -> Self {
        let AccessSet {
            windows,
            loads,
            locksets,
            vclocks,
            epochs,
            epoch_sound,
            stats,
            repair_log,
        } = access;
        // The simulation grew these by doubling. The footprints keep them
        // for the whole repair step, so give the slack back first.
        let (mut windows, mut loads) = (windows, loads);
        windows.shrink_to_fit();
        loads.shrink_to_fit();
        let seen = |live: bool, atomic: bool| live && (cfg.include_atomics || !atomic);
        let mut windows_by_stack: FxHashMap<StackId, Vec<u32>> = FxHashMap::default();
        for (i, w) in windows.iter().enumerate() {
            if seen(w.live(), w.atomic) {
                windows_by_stack.entry(w.stack).or_default().push(i as u32);
            }
        }
        for list in windows_by_stack.values_mut() {
            list.sort_by_key(|&i| windows[i as usize].store_seq);
        }
        let mut loads_by_stack: FxHashMap<StackId, Vec<u32>> = FxHashMap::default();
        let mut seen_loads = Vec::new();
        for (i, ld) in loads.iter().enumerate() {
            if seen(ld.live(), ld.atomic) {
                loads_by_stack.entry(ld.stack).or_default().push(i as u32);
                seen_loads.push(i as u32);
            }
        }
        Self {
            stacks,
            cfg,
            judge_cfg: AnalysisConfig {
                threads: 1,
                ..cfg.clone()
            },
            judge: AccessSet {
                windows: Vec::new(),
                loads: Vec::new(),
                locksets,
                vclocks,
                epochs,
                epoch_sound,
                stats,
                repair_log: None,
            },
            windows_by_stack,
            loads_by_stack,
            loads_by_addr: AddrIndex::build(seen_loads.iter().map(|&i| loads[i as usize].range)),
            seen_loads,
            windows_by_addr: OnceCell::new(),
            threads: OnceCell::new(),
            lines: OnceCell::new(),
            sites: Sites::new(stacks),
            windows,
            loads,
            log: repair_log,
        }
    }

    fn seen(&self, w: &StoreWindow) -> bool {
        w.live() && (self.cfg.include_atomics || !w.atomic)
    }

    /// First racy (window, load) pair backing `race`, in deterministic
    /// (store_seq, load seq) order — the concrete witness the patch anchors
    /// to. Mirrors the engine's Algorithm 1 pair predicate on the raw access
    /// set (`protects_against` ignores acquisition timestamps, so locksets
    /// need no normalization here).
    fn find_witness(&self, race: &Race) -> Option<(&StoreWindow, &LoadAccess)> {
        let windows = self.windows_by_stack.get(&race.key.store_stack)?;
        let loads = self.loads_by_stack.get(&race.key.load_stack)?;
        for &wi in windows {
            let win = &self.windows[wi as usize];
            for &li in loads {
                let ld = &self.loads[li as usize];
                if ld.tid != win.tid && win.range.overlaps(&ld.range) && self.racy(win, ld) {
                    return Some((win, ld));
                }
            }
        }
        None
    }

    /// The engine's pair predicate past the thread and overlap tests: not
    /// ordered by happens-before (when the filter is on), and not protected
    /// by a lock both sides hold.
    fn racy(&self, win: &StoreWindow, ld: &LoadAccess) -> bool {
        self.racy_with(win, win.effective_ls, ld, ld.ls)
    }

    /// [`racy`](Self::racy) with the window's effective lockset `eff` and
    /// the load's lockset `ls` in place of theirs.
    fn racy_with(&self, win: &StoreWindow, eff: LsId, ld: &LoadAccess, ls: LsId) -> bool {
        let locksets = &self.judge.locksets;
        let ordered = self.cfg.use_hb && engine::hb_ordered(&self.judge, win, ld.vc);
        !ordered && !locksets.get(eff).protects_against(locksets.get(ls))
    }

    /// The seen loads on another thread than `w`'s that overlap it, with
    /// their indices.
    fn load_partners<'s>(
        &'s self,
        w: &'s StoreWindow,
        scratch: &'s mut Vec<u32>,
    ) -> impl Iterator<Item = (u32, &'s LoadAccess)> + 's {
        let near = self.loads_by_addr.query(&w.range, scratch);
        near.iter()
            .map(|&k| self.seen_loads[k as usize])
            .map(|i| (i, &self.loads[i as usize]))
            .filter(|(_, ld)| ld.tid != w.tid && ld.range.overlaps(&w.range))
    }

    /// `tid`'s lockset right after the event with sequence number `seq`,
    /// or before every event when `seq` is `None`.
    fn lockset_after(&self, tid: ThreadId, seq: Option<u64>) -> LsId {
        let log = self.log.as_deref().expect("footprints read the repair log");
        seq.and_then(|s| log.state_after(tid, s))
            .map_or(LsId::from_raw(0), |m| m.ls)
    }

    /// Every candidate's verdict from its patch's footprint (DESIGN.md
    /// §4k). A candidate whose footprint cannot be read off the baseline —
    /// a flush whose early clock tick a thread create or join reads (see
    /// [`anchors`](Self::anchors)), or a patch `suggest` never plans — is
    /// replayed.
    fn decide(mut self, v: &RepairValidator<'_>, candidates: &[(FixKind, RaceKey)]) -> Vec<bool> {
        let shapes: Vec<Option<PatchShape>> = candidates
            .iter()
            .map(|(kind, _)| PatchShape::of(v.view, kind))
            .collect();
        let mut anchored: Vec<StackId> = shapes
            .iter()
            .filter_map(|shape| match shape {
                Some(PatchShape::FlushStores(stack)) => Some(*stack),
                _ => None,
            })
            .collect();
        anchored.sort_unstable();
        anchored.dedup();
        // Flushes: the Refute step first, on the windows each closes at its
        // own stores; then a footprint for each flush with a target left.
        // One pass records the publication state both read.
        let stores = anchored_stores(v.view, &anchored);
        let anchors: FxHashMap<StackId, Option<Vec<Anchor>>> = anchored
            .iter()
            .map(|&stack| (stack, self.anchors(&stores[&stack])))
            .collect();
        let publication = self.publication(v.view, anchors.values().flatten().flatten());
        let mut own: FxHashMap<StackId, Vec<(u64, StoreWindow)>> = FxHashMap::default();
        for (&stack, anchors) in &anchors {
            if let Some(anchors) = anchors {
                let mut pieces = self.own_pieces(v.view, anchors);
                if let Some(publication) = &publication {
                    publication.decide(pieces.iter_mut());
                }
                own.insert(stack, pieces);
            }
        }
        let refuted: Vec<bool> = candidates
            .iter()
            .zip(&shapes)
            .map(|((_, target), shape)| match shape {
                Some(PatchShape::FlushStores(stack)) => {
                    own.get(stack).is_some_and(|own| self.refuted(own, *target))
                }
                _ => false,
            })
            .collect();
        let mut flushes: FxHashMap<StackId, Footprint> = FxHashMap::default();
        for (shape, refuted) in shapes.iter().zip(&refuted) {
            if let (Some(PatchShape::FlushStores(stack)), false) = (shape, refuted) {
                if let (false, Some(Some(anchors))) =
                    (flushes.contains_key(stack), anchors.get(stack))
                {
                    let mut fp = self.flush_footprint(anchors);
                    if let Some(publication) = &publication {
                        publication.decide(fp.added.iter_mut());
                    }
                    flushes.insert(*stack, fp);
                }
            }
        }
        let mut extensions: FxHashMap<FixKind, Derived> = FxHashMap::default();
        let mut scratch = Vec::new();
        candidates
            .iter()
            .zip(shapes)
            .zip(refuted)
            .map(|(((kind, target), shape), refuted)| {
                let footprint = match shape {
                    None => return false,
                    _ if refuted => return false,
                    Some(PatchShape::FlushStores(stack)) => flushes.get(&stack),
                    Some(PatchShape::Literal(FixKind::LockExtension {
                        lock,
                        from_seq,
                        to_seq,
                    })) => {
                        if !extensions.contains_key(kind) {
                            let derived = self.extension(v.view, lock, from_seq, to_seq);
                            extensions.insert(*kind, derived);
                        }
                        match &extensions[kind] {
                            Derived::Inapplicable => return false,
                            Derived::Footprint(fp) => Some(fp),
                            Derived::Undecided => None,
                        }
                    }
                    Some(PatchShape::Literal(FixKind::FlushFence { .. })) => None,
                };
                let Some(fp) = footprint else {
                    return v.validates(kind, *target);
                };
                let site = self.sites.of(target.store_stack, target.load_stack);
                if self.races_at(fp, &site, &mut scratch) {
                    return false;
                }
                let keys = fp.keys.get_or_init(|| self.judge(fp));
                keys.iter().all(|k| *k != *target && v.baseline.contains(k))
            })
            .collect()
    }
}

/// What a patch changes in the baseline's windows and loads: its
/// footprint (DESIGN.md §4k). Every other window and load of the patched
/// replay equals the baseline's, in the same order.
#[derive(Default)]
struct Footprint {
    /// Baseline windows the replay does not have: their pieces close
    /// earlier, as one of `added`.
    gone: FxHashSet<u32>,
    /// Baseline windows whose effective lockset changes, with the new one.
    windows: FxHashMap<u32, LsId>,
    /// Baseline loads whose lockset changes, with the new one.
    loads: FxHashMap<u32, LsId>,
    /// Windows the replay adds, each with the event after which it closes,
    /// in replay order.
    added: Vec<(u64, StoreWindow)>,
    /// The race keys the replay reports at the site pairs the entries above
    /// touch, once some target needs them ([`Baseline::judge`]).
    keys: OnceCell<Vec<RaceKey>>,
}

/// A lock extension's footprint, or why there is none.
enum Derived {
    Footprint(Footprint),
    /// The patch does not apply: it cannot validate.
    Inapplicable,
    /// A shape `suggest` never plans; its verdict is replayed.
    Undecided,
}

/// Where a store-anchored flush closes pieces of one line: right after the
/// anchored store `at`, by the fence of `tid`, holding `ls` at clock `vc`.
/// `pending` is `None` when the flush is of this line, so the fence closes
/// every open piece; else the line is on the thread's fence watch since
/// its last fence `.0`, and the fence closes the pieces stored before its
/// last flush of the line `.1` and its own non-temporal pieces since `.0`.
struct LineClose {
    at: u64,
    tid: ThreadId,
    ls: LsId,
    vc: VcId,
    pending: Option<Pending>,
}

/// A store of a store-anchored flush: the fence inserted after it closes
/// pieces as persisted, by the store's thread holding `ls` at clock `vc`:
/// every open piece on the store's lines, and the pieces waiting on that
/// thread's fence on its `watched` lines ([`LineClose::pending`]).
struct Anchor {
    store: Event,
    ls: LsId,
    vc: VcId,
    watched: Vec<(LineId, Pending)>,
}

/// How a line waits on a thread's fence: the thread's last fence before
/// the anchored store, and its last flush of the line since.
type Pending = (Option<u64>, Option<u64>);

/// The publication state of the words of some lines over time (§3.1.3):
/// per word, its first accessor, the event of that first access, and the
/// first event of another thread, which publishes it. One pass over the
/// view's PM accesses records it, and it then answers the IRH's discard
/// question as the simulation's `PublicationTracker` would have answered
/// it at any event of the pass.
struct Publication {
    words: FxHashMap<u64, (ThreadId, u64, u64)>,
}

impl Publication {
    /// The words on `lines`, from the view's PM accesses up to the event
    /// `end`.
    fn record(view: &TraceView<'_>, lines: &FxHashSet<LineId>, end: u64) -> Self {
        let mut words: FxHashMap<u64, (ThreadId, u64, u64)> = FxHashMap::default();
        for ev in view.events.iter().take_while(|ev| ev.seq <= end) {
            let (EventKind::Store { range, .. } | EventKind::Load { range, .. }) = ev.kind else {
                continue;
            };
            if !view.regions.is_empty() && !view.is_pm(&range) {
                continue;
            }
            for (line, piece) in line_pieces(range) {
                if !lines.contains(&line) {
                    continue;
                }
                for word in piece.words() {
                    let state = words.entry(word).or_insert((ev.tid, ev.seq, u64::MAX));
                    if state.0 != ev.tid && state.2 == u64::MAX {
                        state.2 = ev.seq;
                    }
                }
            }
        }
        Self { words }
    }

    /// Makes the IRH's decision for each window `(at, window)` an inserted
    /// fence right after the event `at` closes: discarded when every word
    /// of it is still private to its thread there.
    fn decide<'w>(&self, added: impl Iterator<Item = &'w mut (u64, StoreWindow)>) {
        for (at, w) in added {
            w.irh_discarded = w.range.words().all(|word| {
                self.words
                    .get(&word)
                    .is_some_and(|&(owner, first, published)| {
                        owner == w.tid && first <= *at && *at < published
                    })
            });
        }
    }
}

/// The stores at each of `stacks`, in order: one pass over the view's
/// stack column, materializing only the events at those stacks.
fn anchored_stores(view: &TraceView<'_>, stacks: &[StackId]) -> FxHashMap<StackId, Vec<Event>> {
    let mut stores: FxHashMap<StackId, Vec<Event>> =
        stacks.iter().map(|&s| (s, Vec::new())).collect();
    if stacks.is_empty() {
        return stores;
    }
    for (i, stack) in view.events.stacks().iter().enumerate() {
        if let Some(list) = stores.get_mut(stack) {
            let ev = view.events.get(i);
            if matches!(ev.kind, EventKind::Store { .. }) {
                list.push(ev);
            }
        }
    }
    stores
}

impl Baseline<'_> {
    /// The anchors of a store-anchored flush at `stores`, or `None` when an
    /// inserted flush takes a thread's batched clock tick early and a
    /// thread create or join reads the clock before the baseline takes it:
    /// every later clock of the threads involved could change.
    fn anchors(&mut self, stores: &[Event]) -> Option<Vec<Anchor>> {
        let log = self.log.as_deref().expect("footprints read the repair log");
        let threads = self
            .threads
            .get_or_init(|| ThreadAccesses::index(&self.windows, &self.loads, log));
        // Per thread whose batched tick an inserted flush took: its clock
        // from then on, until the event where the baseline takes that tick.
        let mut ticked: FxHashMap<ThreadId, (VcId, u64)> = FxHashMap::default();
        // Per thread: its last inserted fence.
        let mut fenced: FxHashMap<ThreadId, u64> = FxHashMap::default();
        let mut anchors = Vec::with_capacity(stores.len());
        for &store in stores {
            let (t, at) = (store.tid, store.seq);
            let state = log.state_after(t, at);
            let (ls, mut vc) =
                state.map_or((LsId::from_raw(0), VcId::from_raw(0)), |m| (m.ls, m.vc));
            match ticked.get(&t) {
                Some(&(early, until)) if at < until => vc = early,
                // Only a non-PM store leaves its thread owing a tick. The
                // flush after it takes the tick, so the thread reaches the
                // clock of its next PM operation early. Nothing it does in
                // between reads that clock unless it creates or joins a
                // thread, or is joined.
                _ if state.is_none_or(|m| m.needs_tick) => {
                    let mut next = self.judge.vclocks.get(vc).clone();
                    next.tick(t);
                    let early = self.judge.vclocks.intern(next);
                    let marks = log.marks.get(t.index()).map_or(&[][..], Vec::as_slice);
                    let after = &marks[marks.partition_point(|m| m.seq <= at)..];
                    let until = match after.iter().find(|m| m.vc != vc) {
                        Some(m) if !m.needs_tick && m.vc == early => m.seq,
                        Some(_) => return None,
                        None => u64::MAX,
                    };
                    let joins = log.joins.get(t.index()).map_or(&[][..], Vec::as_slice);
                    if joins.iter().any(|&j| at < j && j < until) {
                        return None;
                    }
                    ticked.insert(t, (early, until));
                    vc = early;
                }
                _ => {}
            }
            // The thread's last fence before the store, a recorded one or
            // an inserted one, and the lines it watches since.
            let fences = log.fences.get(t.index()).map_or(&[][..], Vec::as_slice);
            let recorded = fences
                .partition_point(|&f| f < at)
                .checked_sub(1)
                .map(|k| fences[k]);
            let since = recorded.max(fenced.insert(t, at));
            let after = since.map_or(0, |s| s + 1);
            let mut watched: BTreeMap<LineId, Pending> = BTreeMap::new();
            let flushes = log.flushes.get(t.index()).map_or(&[][..], Vec::as_slice);
            for &(f, line) in in_span(flushes, after..at, |e| e.0) {
                watched.insert(line, (since, Some(f)));
            }
            let own = threads
                .get(t.index())
                .map_or(&[][..], |th| &th.non_temporal[..]);
            for &(_, line) in in_span(own, after..at, |e| e.0) {
                watched.entry(line).or_insert((since, None));
            }
            if let EventKind::Store { range, .. } = store.kind {
                for line in range.lines() {
                    watched.remove(&line);
                }
            }
            let watched = watched.into_iter().collect();
            anchors.push(Anchor {
                store,
                ls,
                vc,
                watched,
            });
        }
        Some(anchors)
    }

    /// The windows a store-anchored flush closes at its own PM stores,
    /// each with the store it follows: each store's line pieces, persisted
    /// in place at the store's own clock and lockset. Their IRH decisions
    /// are still to be made ([`Publication::decide`]).
    fn own_pieces(&self, view: &TraceView<'_>, anchors: &[Anchor]) -> Vec<(u64, StoreWindow)> {
        let mut pieces = Vec::new();
        for a in anchors {
            let EventKind::Store {
                range,
                non_temporal,
                atomic,
            } = a.store.kind
            else {
                continue;
            };
            if !view.regions.is_empty() && !view.is_pm(&range) {
                continue;
            }
            for (_, range) in line_pieces(range) {
                let window = StoreWindow {
                    tid: a.store.tid,
                    store_seq: a.store.seq,
                    stack: a.store.stack,
                    range,
                    store_ls: a.ls,
                    store_vc: a.vc,
                    // The same-thread intersection of a lockset with itself.
                    effective_ls: a.ls,
                    close_vc: Some(a.vc),
                    close: CloseReason::Persisted,
                    atomic,
                    non_temporal,
                    irh_discarded: false,
                };
                pieces.push((a.store.seq, window));
            }
        }
        pieces
    }

    /// The publication state a store-anchored flush's IRH decisions read,
    /// for every flush with `anchors`: the words of each anchored store's
    /// lines and of the lines its fence watches, up to the last anchored
    /// store; `None` with the IRH off.
    fn publication<'x>(
        &self,
        view: &TraceView<'_>,
        anchors: impl Iterator<Item = &'x Anchor>,
    ) -> Option<Publication> {
        if !self.cfg.irh {
            return None;
        }
        let (mut lines, mut end) = (FxHashSet::default(), 0);
        for a in anchors {
            if let EventKind::Store { range, .. } = a.store.kind {
                lines.extend(range.lines());
            }
            lines.extend(a.watched.iter().map(|&(line, _)| line));
            end = end.max(a.store.seq);
        }
        Some(Publication::record(view, &lines, end))
    }

    /// The footprint of a store-anchored flush with `anchors`, its IRH
    /// decisions still to be made ([`Publication::decide`]).
    ///
    /// The fence after an anchored store X of thread T closes, as
    /// persisted, at T's clock and lockset right after X: every open piece
    /// on X's lines (the flush marks them all), and every piece on T's
    /// other watched lines that waits on T's fence. An open piece is read
    /// off the baseline as the windows of one store on one line that close
    /// after X, merged where they touch: a later overwrite or split only
    /// cuts it further.
    fn flush_footprint(&mut self, anchors: &[Anchor]) -> Footprint {
        let log = self.log.as_deref().expect("footprints read the repair log");
        let mut lines: BTreeMap<LineId, Vec<LineClose>> = BTreeMap::new();
        for a in anchors {
            let EventKind::Store { range, .. } = a.store.kind else {
                continue;
            };
            let close = |pending| LineClose {
                at: a.store.seq,
                tid: a.store.tid,
                ls: a.ls,
                vc: a.vc,
                pending,
            };
            for line in range.lines() {
                lines.entry(line).or_default().push(close(None));
            }
            for &(line, pending) in &a.watched {
                lines.entry(line).or_default().push(close(Some(pending)));
            }
        }
        let mut fp = Footprint::default();
        // Per added window: (the anchored store, its line, its place).
        let mut order: Vec<(u64, LineId, usize)> = Vec::new();
        for (line, closes) in lines {
            let on_line = self
                .lines
                .get_or_init(|| LineIndex::new(&self.windows))
                .on(line);
            let (mut next, mut open): (usize, Vec<u32>) = (0, Vec::new());
            for c in closes {
                while let Some(&i) = on_line.get(next) {
                    if self.windows[i as usize].store_seq > c.at {
                        break;
                    }
                    open.push(i);
                    next += 1;
                }
                let closes_log = &log.closes;
                open.retain(|&i| closes_log[i as usize].seq > c.at);
                let (mut shut, keep): (Vec<u32>, Vec<u32>) = open.iter().partition(|&&i| {
                    let w = &self.windows[i as usize];
                    c.pending.is_none_or(|(since, flushed)| {
                        flushed.is_some_and(|f| w.store_seq < f)
                            || (w.non_temporal && w.tid == c.tid && Some(w.store_seq) > since)
                    })
                });
                open = keep;
                // A piece is one store's windows, contiguous on the line.
                shut.sort_by_key(|&i| {
                    let w = &self.windows[i as usize];
                    (w.store_seq, w.range.start)
                });
                let mut pieces: Vec<(u32, AddrRange)> = Vec::new();
                for &i in &shut {
                    let w = &self.windows[i as usize];
                    match pieces.last_mut() {
                        Some((j, r))
                            if self.windows[*j as usize].store_seq == w.store_seq
                                && r.end() == w.range.start =>
                        {
                            r.len += w.range.len;
                        }
                        _ => pieces.push((i, w.range)),
                    }
                }
                fp.gone.extend(shut);
                for (i, range) in pieces {
                    let w = &self.windows[i as usize];
                    let same_thread = w.tid == c.tid;
                    let locksets = &mut self.judge.locksets;
                    let effective_ls = effective_lockset(locksets, w.store_ls, c.ls, same_thread);
                    let added = StoreWindow {
                        range,
                        effective_ls,
                        close_vc: Some(c.vc),
                        close: CloseReason::Persisted,
                        irh_discarded: false,
                        ..w.clone()
                    };
                    order.push((c.at, line, fp.added.len()));
                    fp.added.push((c.at, added));
                }
            }
        }
        // The fence closes its lines in ascending order, each line's pieces
        // in store order.
        order.sort_unstable();
        let mut added: Vec<Option<(u64, StoreWindow)>> = fp.added.drain(..).map(Some).collect();
        fp.added = order
            .into_iter()
            .map(|(_, _, k)| added[k].take().expect("each added window once"))
            .collect();
        fp
    }

    /// The footprint of hoisting thread T's acquisition of `lock` at
    /// `from_seq` to just before `to_seq`.
    ///
    /// No clock changes: the simulator ticks none at a lock event. T's
    /// lockset changes from `to_seq` on, until it equals the baseline's
    /// again after `from_seq`. The hoisted acquisition takes the moved
    /// one's timestamp, and every other keeps its own: timestamps only
    /// meet in equality tests, and this numbering keeps every equality the
    /// replay has. So the footprint is T's loads in that span, with their
    /// new locksets, and the windows whose store or close falls in it,
    /// with new effective locksets. Their order does not change.
    fn extension(
        &mut self,
        view: &TraceView<'_>,
        lock: u64,
        from_seq: u64,
        to_seq: u64,
    ) -> Derived {
        let (Some(moved), Some(_)) = (find_event(view, from_seq), find_event(view, to_seq)) else {
            return Derived::Inapplicable;
        };
        let (lock, mode) = match moved.kind {
            EventKind::Acquire { lock: l, mode } if l.0 == lock => (l, mode),
            EventKind::Release { lock: l } if l.0 == lock => return Derived::Undecided,
            _ => return Derived::Inapplicable,
        };
        if from_seq <= to_seq {
            return Derived::Undecided;
        }
        let t = moved.tid;
        let acq_ts = self
            .judge
            .locksets
            .get(self.lockset_after(t, Some(from_seq)))
            .get(lock)
            .expect("a lock is held right after its acquisition")
            .acq_ts;
        let mut held = self
            .judge
            .locksets
            .get(self.lockset_after(t, to_seq.checked_sub(1)))
            .with(LockEntry { lock, mode, acq_ts });
        // Each of T's lockset changes in the span, as (seq, lockset from
        // there on).
        let mut steps = vec![(to_seq, self.judge.locksets.intern(held.clone()))];
        let mut end = u64::MAX;
        let start = view.events.seqs().partition_point(|&s| s < to_seq);
        let tids = view.events.tids().iter().enumerate().skip(start);
        for (i, _) in tids.filter(|&(_, &tid)| tid == t.0) {
            let ev = view.events.get(i);
            held = match ev.kind {
                _ if ev.seq == from_seq => held,
                EventKind::Acquire { lock, .. } => {
                    let after = self.lockset_after(t, Some(ev.seq));
                    let entry = self.judge.locksets.get(after).get(lock).copied();
                    held.with(entry.expect("a lock is held right after its acquisition"))
                }
                EventKind::Release { lock } => held.without(lock),
                _ => continue,
            };
            let id = self.judge.locksets.intern(held.clone());
            if ev.seq >= from_seq && id == self.lockset_after(t, Some(ev.seq)) {
                end = ev.seq;
                break;
            }
            steps.push((ev.seq, id));
        }
        let patched = |seq: u64| steps[steps.partition_point(|s| s.0 <= seq) - 1].1;
        let span = to_seq..end;
        let mut fp = Footprint::default();
        let log = self.log.as_deref().expect("footprints read the repair log");
        let threads = self
            .threads
            .get_or_init(|| ThreadAccesses::index(&self.windows, &self.loads, log));
        let Some(th) = threads.get(t.index()) else {
            return Derived::Footprint(fp);
        };
        let (windows, loads) = (&self.windows, &self.loads);
        for &i in in_span(&th.loads, span.clone(), |&i| loads[i as usize].seq) {
            let ls = patched(loads[i as usize].seq);
            if ls != loads[i as usize].ls {
                fp.loads.insert(i, ls);
            }
        }
        let stored = in_span(&th.stored, span.clone(), |&i| windows[i as usize].store_seq);
        let closed = in_span(&th.closed, span.clone(), |&i| log.closes[i as usize].seq);
        let mut touched: Vec<u32> = stored.iter().chain(closed).copied().collect();
        touched.sort_unstable();
        touched.dedup();
        for i in touched {
            let (w, close) = (&self.windows[i as usize], log.closes[i as usize]);
            if close == Close::NEVER {
                continue;
            }
            let store_ls = if w.tid == t && span.contains(&w.store_seq) {
                patched(w.store_seq)
            } else {
                w.store_ls
            };
            let closer_ls = if close.tid == t && span.contains(&close.seq) {
                patched(close.seq)
            } else {
                self.lockset_after(close.tid, Some(close.seq))
            };
            let same_thread = w.tid == close.tid;
            let eff = effective_lockset(&mut self.judge.locksets, store_ls, closer_ls, same_thread);
            if eff != w.effective_ls {
                fp.windows.insert(i, eff);
            }
        }
        Derived::Footprint(fp)
    }

    /// The site pairs where some entry of `fp`, before or after the patch,
    /// has a partner: a load or window on another thread that overlaps it.
    fn touched(&self, fp: &Footprint, scratch: &mut Vec<u32>) -> BTreeSet<Site> {
        let mut pairs: FxHashSet<(StackId, StackId)> = FxHashSet::default();
        let changed = fp.gone.iter().chain(fp.windows.keys());
        let windows = changed.map(|&i| &self.windows[i as usize]);
        for w in windows.chain(fp.added.iter().map(|(_, w)| w)) {
            if self.seen(w) {
                for (_, ld) in self.load_partners(w, scratch) {
                    pairs.insert((w.stack, ld.stack));
                }
            }
        }
        for &i in fp.loads.keys() {
            let ld = &self.loads[i as usize];
            let (seen, by_addr) = self.windows_by_addr.get_or_init(|| {
                let seen: Vec<u32> = (0..self.windows.len() as u32)
                    .filter(|&i| self.seen(&self.windows[i as usize]))
                    .collect();
                let index = AddrIndex::build(seen.iter().map(|&i| self.windows[i as usize].range));
                (seen, index)
            });
            for &k in by_addr.query(&ld.range, scratch) {
                let w = &self.windows[seen[k as usize] as usize];
                if w.tid != ld.tid && w.range.overlaps(&ld.range) {
                    pairs.insert((w.stack, ld.stack));
                }
            }
        }
        pairs
            .into_iter()
            .map(|(w, l)| self.sites.of(w, l))
            .collect()
    }

    /// Sets the judge's windows and loads to the replay's, as `fp` implies
    /// them: the baseline's `windows` and `loads` with the footprint swapped
    /// in, and the added windows — with `stacks`, only the seen ones at
    /// those stacks — in replay order: windows by the event that closes
    /// them, the added ones after the baseline's at that event.
    fn swap_in(
        &mut self,
        fp: &Footprint,
        windows: Vec<u32>,
        mut loads: Vec<u32>,
        stacks: Option<&FxHashSet<StackId>>,
    ) {
        let log = self.log.as_deref().expect("footprints read the repair log");
        let mut order: Vec<(u64, bool, u32)> = windows
            .into_iter()
            .filter(|i| !fp.gone.contains(i))
            .map(|i| (log.closes[i as usize].seq, false, i))
            .collect();
        for (k, (at, w)) in fp.added.iter().enumerate() {
            if stacks.is_none_or(|set| self.seen(w) && set.contains(&w.stack)) {
                order.push((*at, true, k as u32));
            }
        }
        order.sort_unstable();
        self.judge.windows.clear();
        for &(_, added, i) in &order {
            let w = if added {
                fp.added[i as usize].1.clone()
            } else {
                let mut w = self.windows[i as usize].clone();
                if let Some(&eff) = fp.windows.get(&i) {
                    w.effective_ls = eff;
                }
                w
            };
            self.judge.windows.push(w);
        }
        loads.sort_unstable();
        self.judge.loads.clear();
        for i in loads {
            let mut ld = self.loads[i as usize].clone();
            if let Some(&ls) = fp.loads.get(&i) {
                ld.ls = ls;
            }
            self.judge.loads.push(ld);
        }
    }

    /// The Refute step, a flush's first check: one of the windows `own` it
    /// closes at its own stores races with a baseline load at `target`'s
    /// site pair, so the replay races there too.
    fn refuted(&self, own: &[(u64, StoreWindow)], target: RaceKey) -> bool {
        let site = self.sites.of(target.store_stack, target.load_stack);
        let mut scratch = Vec::new();
        own.iter()
            .filter(|(_, w)| self.seen(w) && self.sites.has_store(&site, w.stack))
            .any(|(_, w)| {
                let mut partners = self.load_partners(w, &mut scratch);
                partners.any(|(_, ld)| self.sites.has_load(&site, ld.stack) && self.racy(w, ld))
            })
    }

    /// Whether the replay of a patch with footprint `fp` has a racy pair at
    /// `site`: a window there, the baseline's or an added one, and a load
    /// there, each with the locksets the patch gives it.
    fn races_at(&self, fp: &Footprint, site: &Site, scratch: &mut Vec<u32>) -> bool {
        let kept = self.sites.stores(site).iter().flat_map(|s| {
            let list = self.windows_by_stack.get(s).into_iter().flatten();
            list.filter(|i| !fp.gone.contains(i)).map(|&i| {
                let w = &self.windows[i as usize];
                (w, fp.windows.get(&i).copied().unwrap_or(w.effective_ls))
            })
        });
        let added = fp.added.iter().map(|(_, w)| w);
        let added = added.filter(|w| self.seen(w) && self.sites.has_store(site, w.stack));
        let mut windows = kept.chain(added.map(|w| (w, w.effective_ls)));
        windows.any(|(w, eff)| {
            self.load_partners(w, scratch).any(|(i, ld)| {
                let ls = fp.loads.get(&i).copied().unwrap_or(ld.ls);
                self.sites.has_load(site, ld.stack) && self.racy_with(w, eff, ld, ls)
            })
        })
    }

    /// The race keys the replay of a patch with footprint `fp` reports at
    /// the site pairs the footprint touches. Only those are paired again,
    /// restricted to those site pairs, over the baseline's windows and
    /// loads there with the footprint swapped in, in replay order, so each
    /// site pair's witness, and with it its key, is the one a full pairing
    /// of the replay picks. Every other site pair keeps its baseline race.
    fn judge(&mut self, fp: &Footprint) -> Vec<RaceKey> {
        let mut scratch = Vec::new();
        let sites = self.touched(fp, &mut scratch);
        let mut stores: FxHashSet<StackId> = FxHashSet::default();
        let mut loads: FxHashSet<StackId> = FxHashSet::default();
        for site in &sites {
            stores.extend(self.sites.stores(site));
            loads.extend(self.sites.loads(site));
        }
        let windows: Vec<u32> = stores
            .iter()
            .flat_map(|s| self.windows_by_stack.get(s).into_iter().flatten().copied())
            .filter(|i| !fp.gone.contains(i))
            .collect();
        // Only the loads that partner some window can pair: leaving out the
        // others keeps the order of every load class that can.
        let added = fp.added.iter().map(|(_, w)| w);
        let added = added.filter(|w| self.seen(w) && stores.contains(&w.stack));
        let mut picked = Vec::new();
        for w in windows
            .iter()
            .map(|&i| &self.windows[i as usize])
            .chain(added)
        {
            let partners = self.load_partners(w, &mut scratch);
            picked.extend(
                partners
                    .filter(|(_, ld)| loads.contains(&ld.stack))
                    .map(|(i, _)| i),
            );
        }
        picked.sort_unstable();
        picked.dedup();
        self.swap_in(fp, windows, picked, Some(&stores));
        let reg = MetricsRegistry::new();
        let report = engine::run_pairing(self.stacks, &self.judge, &self.judge_cfg, &reg);
        let keys = report.races.iter().map(|r| r.key);
        keys.filter(|k| sites.contains(&self.sites.of(k.store_stack, k.load_stack)))
            .collect()
    }
}

/// A site pair by ids: the class [`engine::SiteKey`] reports races under.
/// It pairs the two sites' functions, or the two stacks when either has no
/// site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Site {
    Functions(u32, u32),
    Stacks(StackId, StackId),
}

/// Which stacks each site pair holds.
struct Sites {
    /// Per stack: the id of its site's function, if it has a site.
    function: Vec<Option<u32>>,
    /// Per function id: the stacks whose site is that function.
    stacks: Vec<Vec<StackId>>,
}

impl Sites {
    fn new(table: &StackTable) -> Self {
        let mut ids: FxHashMap<&str, u32> = FxHashMap::default();
        let mut stacks: Vec<Vec<StackId>> = Vec::new();
        let function = (0..table.stack_count() as StackId)
            .map(|s| {
                let name = table.site(s)?.function.as_str();
                let next = ids.len() as u32;
                let id = *ids.entry(name).or_insert(next);
                if id == next {
                    stacks.push(Vec::new());
                }
                stacks[id as usize].push(s);
                Some(id)
            })
            .collect();
        Self { function, stacks }
    }

    /// The site pair a race of a `store` window with a `load` is keyed at.
    fn of(&self, store: StackId, load: StackId) -> Site {
        match (self.function[store as usize], self.function[load as usize]) {
            (Some(s), Some(l)) => Site::Functions(s, l),
            _ => Site::Stacks(store, load),
        }
    }

    /// The store stacks of `site`.
    fn stores<'s>(&'s self, site: &'s Site) -> &'s [StackId] {
        match site {
            Site::Functions(f, _) => &self.stacks[*f as usize],
            Site::Stacks(s, _) => std::slice::from_ref(s),
        }
    }

    /// The load stacks of `site`.
    fn loads<'s>(&'s self, site: &'s Site) -> &'s [StackId] {
        match site {
            Site::Functions(_, f) => &self.stacks[*f as usize],
            Site::Stacks(_, l) => std::slice::from_ref(l),
        }
    }

    fn has_store(&self, site: &Site, stack: StackId) -> bool {
        match site {
            Site::Functions(f, _) => self.function[stack as usize] == Some(*f),
            Site::Stacks(s, _) => *s == stack,
        }
    }

    fn has_load(&self, site: &Site, stack: StackId) -> bool {
        match site {
            Site::Functions(_, f) => self.function[stack as usize] == Some(*f),
            Site::Stacks(_, l) => *l == stack,
        }
    }
}

/// Sequence number of the first `Acquire` of `lock` by the window's thread
/// after its store — the candidate acquisition a [`FixKind::LockExtension`]
/// hoists.
fn first_acquire_after(view: &TraceView<'_>, win: &StoreWindow, lock: LockId) -> Option<u64> {
    let from = view.events.seqs().partition_point(|&s| s <= win.store_seq);
    (from..view.events.len()).find_map(|i| {
        let ev = view.events.get(i);
        (ev.tid == win.tid && matches!(ev.kind, EventKind::Acquire { lock: l, .. } if l == lock))
            .then_some(ev.seq)
    })
}

/// The event with sequence number `seq` in `view`, if present.
fn find_event(view: &TraceView<'_>, seq: u64) -> Option<Event> {
    let i = view.events.seqs().binary_search(&seq).ok()?;
    view.events.try_get(i)
}

/// Lowers a [`FixKind`] to the event-level edit script the simulator
/// replays, or `None` when the anchor events do not exist or have an
/// incompatible kind (an inapplicable patch can never validate).
pub fn build_patch(view: &TraceView<'_>, kind: &FixKind) -> Option<EventPatch> {
    PatchShape::of(view, kind)?.build(view)
}

/// What a fix's edit script is made from. Fixes of one shape have equal
/// scripts, so a sweep builds and replays each shape once, and each
/// shape's footprint is read once.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum PatchShape {
    /// A flush+fence anchored at a store: it lands after every store with
    /// this stack, whichever of them the fix names.
    FlushStores(StackId),
    /// Any other fix, placed literally where it says.
    Literal(FixKind),
}

impl PatchShape {
    /// The shape of `kind`, or `None` when its anchor event does not exist.
    fn of(view: &TraceView<'_>, kind: &FixKind) -> Option<Self> {
        match *kind {
            FixKind::FlushFence { after_seq, .. } => {
                let anchor = find_event(view, after_seq)?;
                Some(match anchor.kind {
                    EventKind::Store { .. } => PatchShape::FlushStores(anchor.stack),
                    _ => PatchShape::Literal(*kind),
                })
            }
            FixKind::LockExtension { .. } => Some(PatchShape::Literal(*kind)),
        }
    }

    /// The edit script, or `None` when the shape's events do not exist or
    /// have an incompatible kind.
    fn build(self, view: &TraceView<'_>) -> Option<EventPatch> {
        let mut patch = EventPatch::new();
        match self {
            PatchShape::FlushStores(stack) => {
                // Source-level interpretation: the fix lands after every
                // dynamic store at the anchor's backtrace, flushing exactly
                // the lines that occurrence wrote. Only the events with
                // that stack are materialized.
                let stacks = view.events.stacks().iter().enumerate();
                for (i, _) in stacks.filter(|&(_, &s)| s == stack) {
                    let ev = view.events.get(i);
                    let EventKind::Store { range, .. } = ev.kind else {
                        continue;
                    };
                    for l in range.lines() {
                        patch.insert_after(
                            ev.seq,
                            SyntheticEvent {
                                tid: ev.tid,
                                stack: ev.stack,
                                kind: EventKind::Flush { addr: line_base(l) },
                            },
                        );
                    }
                    patch.insert_after(
                        ev.seq,
                        SyntheticEvent {
                            tid: ev.tid,
                            stack: ev.stack,
                            kind: EventKind::Fence,
                        },
                    );
                }
            }
            PatchShape::Literal(FixKind::FlushFence { after_seq, line }) => {
                // Literal placement at a non-store anchor: flush the named
                // line right there. This is what makes wrong insertion
                // points falsifiable instead of silently ignored.
                let anchor = find_event(view, after_seq)?;
                for kind in [EventKind::Flush { addr: line }, EventKind::Fence] {
                    patch.insert_after(
                        after_seq,
                        SyntheticEvent {
                            tid: anchor.tid,
                            stack: anchor.stack,
                            kind,
                        },
                    );
                }
            }
            PatchShape::Literal(FixKind::LockExtension {
                lock,
                from_seq,
                to_seq,
            }) => {
                let moved = find_event(view, from_seq)?;
                find_event(view, to_seq)?;
                let synthetic = |kind| SyntheticEvent {
                    tid: moved.tid,
                    stack: moved.stack,
                    kind,
                };
                match moved.kind {
                    EventKind::Acquire { lock: l, mode } if l.0 == lock => {
                        patch.remove(from_seq);
                        patch
                            .insert_before(to_seq, synthetic(EventKind::Acquire { lock: l, mode }));
                    }
                    EventKind::Release { lock: l } if l.0 == lock => {
                        patch.remove(from_seq);
                        patch.insert_after(to_seq, synthetic(EventKind::Release { lock: l }));
                    }
                    _ => return None,
                }
            }
        }
        Some(patch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{AnalysisBudget, Analyzer};
    use crate::memsim::{simulate_view, SimConfig};

    /// The Figure 1c trace from the analysis tests: store under lock A,
    /// persisted after the critical section, load under the same lock.
    fn fig1c() -> crate::trace::Trace {
        use crate::addr::AddrRange;
        use crate::trace::{EventKind, Frame, LockId, LockMode, PmRegion, ThreadId, TraceBuilder};
        let mut b = TraceBuilder::new();
        b.add_region(PmRegion {
            base: 0x1000,
            len: 0x1000,
            path: "/mnt/pmem/repair".into(),
        });
        let st = b.intern_stack([Frame::new("writer", "f.rs", 1)]);
        let ld = b.intern_stack([Frame::new("reader", "f.rs", 2)]);
        let t0 = ThreadId(0);
        let t1 = ThreadId(1);
        let a = LockId(0xa);
        b.push(t0, st, EventKind::ThreadCreate { child: t1 });
        b.push(
            t0,
            st,
            EventKind::Acquire {
                lock: a,
                mode: LockMode::Exclusive,
            },
        );
        b.push(
            t0,
            st,
            EventKind::Store {
                range: AddrRange::new(0x1000, 8),
                non_temporal: false,
                atomic: false,
            },
        );
        b.push(t0, st, EventKind::Release { lock: a });
        b.push(
            t1,
            ld,
            EventKind::Acquire {
                lock: a,
                mode: LockMode::Exclusive,
            },
        );
        b.push(
            t1,
            ld,
            EventKind::Load {
                range: AddrRange::new(0x1000, 8),
                atomic: false,
            },
        );
        b.push(t1, ld, EventKind::Release { lock: a });
        b.push(t0, st, EventKind::Flush { addr: 0x1000 });
        b.push(t0, st, EventKind::Fence);
        b.push(t0, st, EventKind::ThreadJoin { child: t1 });
        b.finish()
    }

    #[test]
    fn fig1c_gets_a_validated_flush_fence() {
        let trace = fig1c();
        let cfg = AnalysisConfig::default();
        let report = Analyzer::new(cfg.clone()).run(&trace);
        assert_eq!(report.races.len(), 1);
        let view = TraceView::full(&trace);
        let access = simulate_view(view, &cfg.sim_config());
        let fixes = suggest(&view, access, &report.races, &cfg);
        assert_eq!(fixes.len(), 1);
        let fix = &fixes[0];
        assert!(fix.validated, "fig1c is fixable by an in-section flush");
        assert_eq!(fix.status, FixStatus::Fix);
        assert_eq!(fix.race, report.races[0].key);
        assert!(
            matches!(
                fix.kind,
                FixKind::FlushFence {
                    after_seq: 2,
                    line: 0x1000
                }
            ),
            "witness is the seq-2 store: {:?}",
            fix.kind
        );
    }

    #[test]
    fn wrong_insertion_point_is_rejected() {
        let trace = fig1c();
        let cfg = AnalysisConfig::default();
        let report = Analyzer::new(cfg.clone()).run(&trace);
        let view = TraceView::full(&trace);
        let validator = RepairValidator::new(&view, &report.races, &cfg);
        let target = report.races[0].key;
        // Flushing *before* the store exists (anchored at the seq-0
        // ThreadCreate) persists nothing: the line is still clean, the
        // window opens afterwards and closes as late as ever, and the race
        // must survive the replay.
        let early = FixKind::FlushFence {
            after_seq: 0,
            line: 0x1000,
        };
        assert!(!validator.validates(&early, target));
        // A patch anchored to a nonexistent event can never validate.
        let missing = FixKind::FlushFence {
            after_seq: 999,
            line: 0x1000,
        };
        assert!(!validator.validates(&missing, target));
    }

    #[test]
    fn unlocked_concurrent_race_demotes_to_candidate() {
        use crate::addr::AddrRange;
        use crate::trace::{EventKind, Frame, PmRegion, ThreadId, TraceBuilder};
        // No locks, no happens-before: no instrumentation-level patch can
        // close the window before a truly concurrent load. IRH is disabled:
        // with it on, a flush right after the store persists the line before
        // any other thread touches it and the window is (correctly)
        // discarded as initialization — the demotion path needs the window
        // to stay live.
        let mut b = TraceBuilder::new();
        b.add_region(PmRegion {
            base: 0x1000,
            len: 0x1000,
            path: "/mnt/pmem/repair".into(),
        });
        let st = b.intern_stack([Frame::new("writer", "f.rs", 1)]);
        let ld = b.intern_stack([Frame::new("reader", "f.rs", 2)]);
        let t0 = ThreadId(0);
        let t1 = ThreadId(1);
        b.push(t0, st, EventKind::ThreadCreate { child: t1 });
        b.push(
            t0,
            st,
            EventKind::Store {
                range: AddrRange::new(0x1000, 8),
                non_temporal: false,
                atomic: false,
            },
        );
        b.push(
            t1,
            ld,
            EventKind::Load {
                range: AddrRange::new(0x1000, 8),
                atomic: false,
            },
        );
        b.push(t0, st, EventKind::ThreadJoin { child: t1 });
        let trace = b.finish();

        let cfg = AnalysisConfig {
            irh: false,
            ..Default::default()
        };
        let report = Analyzer::new(cfg.clone()).run(&trace);
        assert_eq!(report.races.len(), 1);
        let view = TraceView::full(&trace);
        let access = simulate_view(
            view,
            &SimConfig {
                irh: false,
                ..SimConfig::default()
            },
        );
        let fixes = suggest(&view, access, &report.races, &cfg);
        assert_eq!(fixes.len(), 1);
        assert!(!fixes[0].validated);
        assert_eq!(fixes[0].status, FixStatus::Candidate);
    }

    #[test]
    fn lock_extension_hoists_a_late_acquire() {
        use crate::addr::AddrRange;
        use crate::trace::{EventKind, Frame, LockId, LockMode, PmRegion, ThreadId, TraceBuilder};
        // Store outside any critical section; the loader's critical
        // section of lock A runs *before* the writer later persists the
        // line inside its own section of A. The pair is concurrent (the
        // writer acquires A only after the loader released it, so no
        // release→acquire edge reaches the load) and the window's
        // effective lockset is empty: a race. A flush right after the
        // store closes the window with the store's empty lockset and no
        // happens-before edge to the load, so FlushFence fails validation.
        // Hoisting the writer's later acquire of A over the store makes
        // the whole window run under A, which the loader holds: validated.
        // (IRH off: an immediate flush would otherwise discard the window
        // as initialization and mask the lock-extension path.)
        let mut b = TraceBuilder::new();
        b.add_region(PmRegion {
            base: 0x1000,
            len: 0x1000,
            path: "/mnt/pmem/repair".into(),
        });
        let st = b.intern_stack([Frame::new("writer", "f.rs", 1)]);
        let ld = b.intern_stack([Frame::new("reader", "f.rs", 2)]);
        let t0 = ThreadId(0);
        let t1 = ThreadId(1);
        let a = LockId(0xa);
        b.push(t0, st, EventKind::ThreadCreate { child: t1 });
        b.push(
            t0,
            st,
            EventKind::Store {
                range: AddrRange::new(0x1000, 8),
                non_temporal: false,
                atomic: false,
            },
        );
        b.push(
            t1,
            ld,
            EventKind::Acquire {
                lock: a,
                mode: LockMode::Exclusive,
            },
        );
        b.push(
            t1,
            ld,
            EventKind::Load {
                range: AddrRange::new(0x1000, 8),
                atomic: false,
            },
        );
        b.push(t1, ld, EventKind::Release { lock: a });
        b.push(
            t0,
            st,
            EventKind::Acquire {
                lock: a,
                mode: LockMode::Exclusive,
            },
        );
        b.push(t0, st, EventKind::Flush { addr: 0x1000 });
        b.push(t0, st, EventKind::Fence);
        b.push(t0, st, EventKind::Release { lock: a });
        b.push(t0, st, EventKind::ThreadJoin { child: t1 });
        let trace = b.finish();

        let cfg = AnalysisConfig {
            irh: false,
            ..Default::default()
        };
        let report = Analyzer::new(cfg.clone()).run(&trace);
        assert_eq!(report.races.len(), 1, "the unprotected window races");
        let view = TraceView::full(&trace);
        let access = simulate_view(
            view,
            &SimConfig {
                irh: false,
                ..SimConfig::default()
            },
        );
        let fixes = suggest(&view, access, &report.races, &cfg);
        assert_eq!(fixes.len(), 1);
        let fix = &fixes[0];
        assert!(fix.validated, "hoisting the acquire must validate");
        assert!(
            matches!(
                fix.kind,
                FixKind::LockExtension {
                    lock: 0xa,
                    from_seq: 5,
                    to_seq: 1
                }
            ),
            "{:?}",
            fix.kind
        );
    }

    #[test]
    fn a_sibling_stack_pair_still_racing_fails_the_verdict() {
        use crate::addr::AddrRange;
        use crate::trace::{EventKind, Frame, LockId, LockMode, PmRegion, ThreadId, TraceBuilder};
        // Two Figure-1c shapes whose stores share the innermost frame
        // `writer` under different callers: two stack pairs of one site
        // pair, which the report keys once. Flushing inside the critical
        // section at the reported store's stack kills that stack pair's
        // race; the sibling's still races under the same site pair, with
        // a key the baseline lacks, so the verdict must be false.
        let mut b = TraceBuilder::new();
        b.add_region(PmRegion {
            base: 0x1000,
            len: 0x1000,
            path: "/mnt/pmem/repair".into(),
        });
        let writer = Frame::new("writer", "f.rs", 1);
        let stores = [
            b.intern_stack([writer.clone(), Frame::new("insert", "f.rs", 10)]),
            b.intern_stack([writer, Frame::new("update", "f.rs", 20)]),
        ];
        let ld = b.intern_stack([Frame::new("reader", "f.rs", 2)]);
        let (t0, t1, a) = (ThreadId(0), ThreadId(1), LockId(0xa));
        let acquire = EventKind::Acquire {
            lock: a,
            mode: LockMode::Exclusive,
        };
        b.push(t0, stores[0], EventKind::ThreadCreate { child: t1 });
        for (st, addr) in stores.into_iter().zip([0x1000, 0x1040]) {
            let range = AddrRange::new(addr, 8);
            b.push(t0, st, acquire);
            let kind = EventKind::Store {
                range,
                non_temporal: false,
                atomic: false,
            };
            b.push(t0, st, kind);
            b.push(t0, st, EventKind::Release { lock: a });
            b.push(t1, ld, acquire);
            let kind = EventKind::Load {
                range,
                atomic: false,
            };
            b.push(t1, ld, kind);
            b.push(t1, ld, EventKind::Release { lock: a });
            b.push(t0, st, EventKind::Flush { addr });
            b.push(t0, st, EventKind::Fence);
        }
        b.push(t0, stores[0], EventKind::ThreadJoin { child: t1 });
        let trace = b.finish();

        let cfg = AnalysisConfig::default();
        let report = Analyzer::new(cfg.clone()).run(&trace);
        assert_eq!(report.races.len(), 1, "one site pair, one race");
        let target = report.races[0].key;
        let sibling = RaceKey {
            store_stack: stores[usize::from(target.store_stack == stores[0])],
            load_stack: ld,
        };
        let view = TraceView::full(&trace);
        let store_seq = view
            .events
            .iter()
            .find(|ev| ev.stack == target.store_stack && matches!(ev.kind, EventKind::Store { .. }))
            .expect("the target's store")
            .seq;
        let flush = FixKind::FlushFence {
            after_seq: store_seq,
            line: 0x1000,
        };
        let validator = RepairValidator::new(&view, &report.races, &cfg);
        let patched = keys(&validator.replay(&flush).expect("applicable"));
        assert_eq!(patched, vec![sibling], "the target dies, the sibling races");
        assert!(!validator.validates(&flush, target));
        assert_eq!(validator.verdicts(&[(flush, target)]), vec![false]);
    }

    /// A lock-free writer and reader: the reader loads the word first, so
    /// the writer's store publishes it, then loads it again, concurrently
    /// with the store. Stores at `stray` also land at the writer's stack,
    /// outside the PM region; with `spawn`, right after the writer creates
    /// a third thread, so the writer owes its batched clock tick there.
    fn lock_free(stray: &[u64], spawn: bool) -> crate::trace::Trace {
        use crate::addr::AddrRange;
        use crate::trace::{EventKind, Frame, PmRegion, ThreadId, TraceBuilder};
        let mut b = TraceBuilder::new();
        b.add_region(PmRegion {
            base: 0x1000,
            len: 0x1000,
            path: "/mnt/pmem/repair".into(),
        });
        let st = b.intern_stack([Frame::new("writer", "f.rs", 1)]);
        let ld = b.intern_stack([Frame::new("reader", "f.rs", 2)]);
        let (t0, t1) = (ThreadId(0), ThreadId(1));
        let store = |start| EventKind::Store {
            range: AddrRange::new(start, 8),
            non_temporal: false,
            atomic: false,
        };
        let load = EventKind::Load {
            range: AddrRange::new(0x1000, 8),
            atomic: false,
        };
        b.push(t0, st, EventKind::ThreadCreate { child: t1 });
        b.push(t1, ld, load);
        b.push(t0, st, store(0x1000));
        b.push(t1, ld, load);
        let t2 = ThreadId(2);
        if spawn {
            b.push(t0, st, EventKind::ThreadCreate { child: t2 });
        }
        for &addr in stray {
            b.push(t0, st, store(addr));
        }
        b.push(t0, st, EventKind::ThreadJoin { child: t1 });
        if spawn {
            b.push(t0, st, EventKind::ThreadJoin { child: t2 });
        }
        b.finish()
    }

    /// `trace`'s one race, the flush anchored at its first store, and the
    /// baseline simulation under `cfg`.
    fn flush_case(
        trace: &crate::trace::Trace,
        cfg: &AnalysisConfig,
    ) -> (Vec<Race>, FixKind, AccessSet) {
        let report = Analyzer::new(cfg.clone()).run(trace);
        assert_eq!(report.races.len(), 1, "one race to fix");
        let store = trace
            .iter()
            .find(|ev| matches!(ev.kind, EventKind::Store { .. }))
            .expect("the writer's store");
        let flush = FixKind::FlushFence {
            after_seq: store.seq,
            line: 0x1000,
        };
        let access = simulate_view(TraceView::full(trace), &cfg.sim_config());
        (report.races, flush, access)
    }

    #[test]
    fn a_lock_free_flush_is_refuted_and_never_replayed() {
        let trace = lock_free(&[], false);
        let cfg = AnalysisConfig::default();
        let (races, flush, access) = flush_case(&trace, &cfg);
        let target = races[0].key;
        let view = TraceView::full(&trace);
        let validator = RepairValidator::new(&view, &races, &cfg);
        assert!(validator.refutes(&flush, target));
        assert!(!validator.validates(&flush, target));
        assert_eq!(validator.verdicts(&[(flush, target)]), vec![false]);
        let fixes = suggest(&view, access, &races, &cfg);
        assert_eq!(fixes, vec![FixSuggestion::new(target, flush, false)]);
    }

    #[test]
    fn a_refutation_needs_its_preconditions() {
        let budgets = [
            AnalysisBudget {
                max_candidate_pairs: Some(1 << 20),
                ..AnalysisBudget::default()
            },
            AnalysisBudget {
                memory_budget: Some(1 << 30),
                ..AnalysisBudget::default()
            },
        ];
        let mut cfgs: Vec<AnalysisConfig> = budgets
            .into_iter()
            .map(|budget| AnalysisConfig {
                budget,
                ..AnalysisConfig::default()
            })
            .collect();
        cfgs.push(AnalysisConfig {
            check_store_store: true,
            ..AnalysisConfig::default()
        });
        let trace = lock_free(&[], false);
        for cfg in &cfgs {
            assert_eq!(
                refuted_and_validated(&trace, cfg),
                (false, false),
                "{cfg:?}"
            );
        }
        // A store with the anchor's stack outside the PM region, while its
        // thread owes its batched clock tick: the flush after it takes the
        // tick early, the writer's join then reads its clock, so the
        // footprint is not read off the baseline and nothing at that stack
        // is refuted. Without the owed tick the flush after it changes
        // nothing, and the refutation stands.
        let cfg = AnalysisConfig::default();
        let owing = lock_free(&[0x9000], true);
        assert_eq!(refuted_and_validated(&owing, &cfg), (false, false));
        let ticked = lock_free(&[0x9000], false);
        assert_eq!(refuted_and_validated(&ticked, &cfg), (true, false));
    }

    #[test]
    fn a_flush_under_the_readers_lock_is_not_refuted() {
        // Figure 1c: the store holds the lock the reader holds, so the
        // window the flush closes in place is protected, with the IRH on
        // and off, and the flush validates.
        let trace = fig1c();
        for irh in [true, false] {
            let cfg = AnalysisConfig {
                irh,
                ..AnalysisConfig::default()
            };
            assert_eq!(
                refuted_and_validated(&trace, &cfg),
                (false, true),
                "irh {irh}"
            );
        }
    }

    /// The writer stores a word, then the reader loads it. The reader's
    /// thread is created before the store (`concurrent`) or right after
    /// it, which orders the store before the load.
    fn store_then_load(concurrent: bool) -> crate::trace::Trace {
        use crate::addr::AddrRange;
        use crate::trace::{EventKind, Frame, PmRegion, ThreadId, TraceBuilder};
        let mut b = TraceBuilder::new();
        b.add_region(PmRegion {
            base: 0x1000,
            len: 0x1000,
            path: "/mnt/pmem/repair".into(),
        });
        let st = b.intern_stack([Frame::new("writer", "f.rs", 1)]);
        let ld = b.intern_stack([Frame::new("reader", "f.rs", 2)]);
        let (t0, t1) = (ThreadId(0), ThreadId(1));
        let range = AddrRange::new(0x1000, 8);
        let store = EventKind::Store {
            range,
            non_temporal: false,
            atomic: false,
        };
        if concurrent {
            b.push(t0, st, EventKind::ThreadCreate { child: t1 });
            b.push(t0, st, store);
        } else {
            b.push(t0, st, store);
            b.push(t0, st, EventKind::ThreadCreate { child: t1 });
        }
        let load = EventKind::Load {
            range,
            atomic: false,
        };
        b.push(t1, ld, load);
        b.push(t0, st, EventKind::ThreadJoin { child: t1 });
        b.finish()
    }

    /// Whether the Refute step fails the flush of `trace`'s one race, and
    /// whether the flush validates, under `cfg`.
    fn refuted_and_validated(trace: &crate::trace::Trace, cfg: &AnalysisConfig) -> (bool, bool) {
        let (races, flush, _) = flush_case(trace, cfg);
        let view = TraceView::full(trace);
        let validator = RepairValidator::new(&view, &races, cfg);
        let target = races[0].key;
        let verdict = validator.validates(&flush, target);
        assert_eq!(validator.verdicts(&[(flush, target)]), vec![verdict]);
        (validator.refutes(&flush, target), verdict)
    }

    #[test]
    fn a_store_still_private_at_its_flush_is_not_refuted() {
        // Right after the store the word is the writer's alone, so the IRH
        // discards the window a flush there closes, and the flush
        // validates. With the IRH off the same flush is refuted.
        let trace = store_then_load(true);
        for irh in [true, false] {
            let cfg = AnalysisConfig {
                irh,
                ..AnalysisConfig::default()
            };
            assert_eq!(
                refuted_and_validated(&trace, &cfg),
                (!irh, irh),
                "irh {irh}"
            );
        }
    }

    #[test]
    fn a_store_ordered_before_the_load_is_not_refuted() {
        // The window a flush closes at the store happens-before the load,
        // so the flush validates, with the IRH on and off.
        let trace = store_then_load(false);
        for irh in [true, false] {
            let cfg = AnalysisConfig {
                irh,
                ..AnalysisConfig::default()
            };
            assert_eq!(
                refuted_and_validated(&trace, &cfg),
                (false, true),
                "irh {irh}"
            );
        }
    }

    #[test]
    fn fix_status_follows_validation_verdict() {
        let key = RaceKey {
            store_stack: 1,
            load_stack: 2,
        };
        let kind = FixKind::FlushFence {
            after_seq: 0,
            line: 0,
        };
        assert_eq!(FixSuggestion::new(key, kind, true).status, FixStatus::Fix);
        assert_eq!(
            FixSuggestion::new(key, kind, false).status,
            FixStatus::Candidate
        );
    }
}
