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
//! The replay validates the *recorded schedule* with patched events; it
//! does not explore alternative interleavings the patch might force (a
//! hoisted lock acquisition can serialize threads that ran concurrently in
//! the recording). That caveat is inherent to trace-level validation and
//! is documented with the demotion rules in DESIGN.md §4k.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::addr::{line_base, line_of};
use crate::memsim::patch::{simulate_patched, simulate_patches, EventPatch, SyntheticEvent};
use crate::memsim::{AccessSet, LoadAccess, SimConfig, StoreWindow};
use crate::obs::MetricsRegistry;
use crate::trace::{Event, EventKind, LockId, TraceView};
use crate::vclock::ClockOrder;

use super::report::{AnalysisReport, Race, RaceKey};
use super::{engine, AnalysisConfig};

/// Version of the `fixes` section's own schema (the section is an optional
/// addition to report schema v1, exactly like `metrics`).
pub const FIX_SCHEMA_VERSION: u64 = 1;

/// The instrumentation-level repair shapes.
///
/// Sequence numbers refer to the analyzed event stream (after lenient-mode
/// quarantine and event-budget truncation) — the same numbering the
/// simulator replayed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
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
/// analysis under a determinism-preserving copy of `cfg`.
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
        Some(self.pair(&simulate_patched(self.view, &patch, &self.sim_config())))
    }

    /// The full verdict: `true` iff the patched replay no longer reports
    /// `target` and reports no race key outside the baseline set.
    pub fn validates(&self, kind: &FixKind, target: RaceKey) -> bool {
        self.replay(kind)
            .is_some_and(|patched| self.verdict(&keys(&patched), target))
    }

    /// [`validates`](Self::validates) for every `(kind, target)` pair, from
    /// one shared simulation: each distinct patch is replayed once, forked
    /// from the recorded prefix at its first edit ([`simulate_patches`]).
    /// A verdict is a pure function of the patched event stream, so the
    /// results equal the one-by-one verdicts.
    fn validates_all(&self, candidates: &[(FixKind, RaceKey)]) -> Vec<bool> {
        // Candidates sharing a patch (a store-anchored flush patches every
        // store at the anchor's stack) share its replay.
        let mut patches: Vec<EventPatch> = Vec::new();
        let slots: Vec<Option<usize>> = candidates
            .iter()
            .map(|(kind, _)| {
                let patch = build_patch(self.view, kind)?;
                Some(match patches.iter().position(|p| *p == patch) {
                    Some(i) => i,
                    None => {
                        patches.push(patch);
                        patches.len() - 1
                    }
                })
            })
            .collect();
        let mut reported = vec![Vec::new(); patches.len()];
        simulate_patches(self.view, &patches, &self.sim_config(), |i, access| {
            reported[i] = keys(&self.pair(&access));
        });
        candidates
            .iter()
            .zip(slots)
            .map(|((_, target), slot)| slot.is_some_and(|i| self.verdict(&reported[i], *target)))
            .collect()
    }

    fn sim_config(&self) -> SimConfig {
        SimConfig {
            irh: self.cfg.irh,
            eadr: self.cfg.eadr,
            threads: self.cfg.threads,
            memory_budget: self.cfg.budget.memory_budget,
        }
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
/// validated by replay. `access` must be the access set the report was
/// derived from (the witnesses are matched against it), and `view` the
/// event stream that produced it. `access` is dropped once the witnesses
/// are found, before the replays build access sets of their own.
pub fn suggest(
    view: &TraceView<'_>,
    access: AccessSet,
    races: &[Race],
    cfg: &AnalysisConfig,
) -> Vec<FixSuggestion> {
    if races.is_empty() || cfg.eadr {
        return Vec::new();
    }
    // Plan: each race's candidate shapes in synthesis order — the
    // flush+fence at the witness store's line, then, since the flush alone
    // does not protect a window without a shared lock or happens-before,
    // one lock extension per critical section the loader holds that the
    // store's thread enters *after* the store (hoisting that acquisition
    // over the store gives the window a non-empty effective lockset).
    let plans: Vec<(RaceKey, Vec<FixKind>)> = races
        .iter()
        .filter(|race| !race.store_store)
        .filter_map(|race| {
            let (win, load) = find_witness(&access, cfg, race)?;
            let flush = FixKind::FlushFence {
                after_seq: win.store_seq,
                line: line_base(line_of(win.range.start)),
            };
            let extensions = access.locksets.get(load.ls).iter().filter_map(|entry| {
                let acq_seq = first_acquire_after(view, win, entry.lock)?;
                Some(FixKind::LockExtension {
                    lock: entry.lock.0,
                    from_seq: acq_seq,
                    to_seq: win.store_seq,
                })
            });
            Some((race.key, std::iter::once(flush).chain(extensions).collect()))
        })
        .collect();
    drop(access);
    // Sweep: every shape is replayed — extensions too where the flush
    // validates — so that all of them share one simulation.
    let candidates: Vec<(FixKind, RaceKey)> = plans
        .iter()
        .flat_map(|(race, shapes)| shapes.iter().map(|kind| (*kind, *race)))
        .collect();
    let verdicts = RepairValidator::new(view, races, cfg).validates_all(&candidates);
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

/// A determinism-preserving copy of `cfg` for the validation replays:
/// wall-clock budgets, interrupts and fault injection are stripped (a
/// replay must be a pure function of the patched event stream), the event
/// budget is dropped (the view is already the analyzed prefix, and the
/// patch adds events), and `suggest_fixes` is cleared so a replayed
/// analysis never recurses.
fn replay_config(cfg: &AnalysisConfig) -> AnalysisConfig {
    let mut out = cfg.clone();
    out.budget.max_events = None;
    out.budget.deadline = None;
    out.budget.stage_timeout = None;
    out.interrupt = None;
    out.stall_injection = None;
    out.checkpoint_every = None;
    out.stream = Default::default();
    out.suggest_fixes = false;
    out
}

/// First racy (window, load) pair backing `race`, in deterministic
/// (store_seq, load seq) order — the concrete witness the patch anchors
/// to. Mirrors the engine's Algorithm 1 pair predicate on the raw access
/// set (`protects_against` ignores acquisition timestamps, so locksets
/// need no normalization here).
fn find_witness<'a>(
    access: &'a AccessSet,
    cfg: &AnalysisConfig,
    race: &Race,
) -> Option<(&'a StoreWindow, &'a LoadAccess)> {
    let mut loads: Vec<&LoadAccess> = access
        .loads
        .iter()
        .filter(|ld| {
            ld.stack == race.key.load_stack && ld.live() && (cfg.include_atomics || !ld.atomic)
        })
        .collect();
    loads.sort_by_key(|ld| ld.seq);
    let mut windows: Vec<&StoreWindow> = access
        .windows
        .iter()
        .filter(|w| {
            w.stack == race.key.store_stack && w.live() && (cfg.include_atomics || !w.atomic)
        })
        .collect();
    windows.sort_by_key(|w| w.store_seq);
    for win in windows {
        for ld in &loads {
            if ld.tid == win.tid || !win.range.overlaps(&ld.range) {
                continue;
            }
            if cfg.use_hb && hb_ordered(access, win, ld) {
                continue;
            }
            let eff = access.locksets.get(win.effective_ls);
            if eff.protects_against(access.locksets.get(ld.ls)) {
                continue;
            }
            return Some((win, ld));
        }
    }
    None
}

/// Full-clock happens-before filter (Algorithm 1 line 17): ordered iff the
/// load happened-before the store became visible, or the window was closed
/// before the load could run. Never-persisted windows are unbounded.
fn hb_ordered(access: &AccessSet, win: &StoreWindow, ld: &LoadAccess) -> bool {
    let load_vc = access.vclocks.get(ld.vc);
    if matches!(
        load_vc.compare(access.vclocks.get(win.store_vc)),
        ClockOrder::Before | ClockOrder::Equal
    ) {
        return true;
    }
    match win.close_vc {
        Some(cvc) => matches!(
            access.vclocks.get(cvc).compare(load_vc),
            ClockOrder::Before | ClockOrder::Equal
        ),
        None => false,
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
    let mut patch = EventPatch::new();
    match *kind {
        FixKind::FlushFence { after_seq, line } => {
            let anchor = find_event(view, after_seq)?;
            if matches!(anchor.kind, EventKind::Store { .. }) {
                // Source-level interpretation: the fix lands after every
                // dynamic store at the anchor's backtrace, flushing exactly
                // the lines that occurrence wrote.
                for ev in view.events.iter() {
                    if ev.stack != anchor.stack {
                        continue;
                    }
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
            } else {
                // Literal placement at a non-store anchor: flush the named
                // line right there. This is what makes wrong insertion
                // points falsifiable instead of silently ignored.
                patch.insert_after(
                    after_seq,
                    SyntheticEvent {
                        tid: anchor.tid,
                        stack: anchor.stack,
                        kind: EventKind::Flush { addr: line },
                    },
                );
                patch.insert_after(
                    after_seq,
                    SyntheticEvent {
                        tid: anchor.tid,
                        stack: anchor.stack,
                        kind: EventKind::Fence,
                    },
                );
            }
            Some(patch)
        }
        FixKind::LockExtension {
            lock,
            from_seq,
            to_seq,
        } => {
            let moved = find_event(view, from_seq)?;
            find_event(view, to_seq)?;
            match moved.kind {
                EventKind::Acquire { lock: l, mode } if l.0 == lock => {
                    patch.remove(from_seq);
                    patch.insert_before(
                        to_seq,
                        SyntheticEvent {
                            tid: moved.tid,
                            stack: moved.stack,
                            kind: EventKind::Acquire { lock: l, mode },
                        },
                    );
                    Some(patch)
                }
                EventKind::Release { lock: l } if l.0 == lock => {
                    patch.remove(from_seq);
                    patch.insert_after(
                        to_seq,
                        SyntheticEvent {
                            tid: moved.tid,
                            stack: moved.stack,
                            kind: EventKind::Release { lock: l },
                        },
                    );
                    Some(patch)
                }
                _ => None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analyzer;
    use crate::memsim::simulate_view;

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
        let access = simulate_view(
            view,
            &SimConfig {
                irh: cfg.irh,
                eadr: cfg.eadr,
                threads: cfg.threads,
                memory_budget: None,
            },
        );
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
