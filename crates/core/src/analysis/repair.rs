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
//! Most patches fail, and most fail the same way: the replay still races
//! at the target's site pair. So each target is first paired on its site
//! pair alone, and a replay is paired in full only when that leaves one of
//! its targets undecided ([`RepairValidator`]'s sweep, DESIGN.md §4k).
//!
//! The replay validates the *recorded schedule* with patched events; it
//! does not explore alternative interleavings the patch might force (a
//! hoisted lock acquisition can serialize threads that ran concurrently in
//! the recording). That caveat is inherent to trace-level validation and
//! is documented with the demotion rules in DESIGN.md §4k.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::addr::{line_base, line_of, AddrRange};
use crate::hash::{FxHashMap, FxHashSet};
use crate::irh::PublicationTracker;
use crate::memsim::patch::{simulate_patched, simulate_patches, EventPatch, Fork, SyntheticEvent};
use crate::memsim::{line_pieces, AccessSet, LoadAccess, LsId, StoreWindow, VcId};
use crate::obs::MetricsRegistry;
use crate::trace::{Event, EventKind, LockId, StackId, ThreadId, TraceView};

use super::engine::{self, AddrIndex, PairingControls, SitePair};
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
        Some(self.pair(&simulate_patched(self.view, &patch, &self.cfg.sim_config())))
    }

    /// The full verdict: `true` iff the patched replay no longer reports
    /// `target` and reports no race key outside the baseline set.
    pub fn validates(&self, kind: &FixKind, target: RaceKey) -> bool {
        self.replay(kind)
            .is_some_and(|patched| self.verdict(&keys(&patched), target))
    }

    /// Whether the Refute step fails `kind` for `target` without a replay:
    /// `kind` is a store-anchored flush, and one of the windows it closes
    /// in place races with a load at `target`'s site pair. `baseline` must
    /// be the simulation of the view the validator replays. A `true` here
    /// implies that [`validates`](Self::validates) is `false`; a `false`
    /// decides nothing.
    pub fn refutes(&self, baseline: &AccessSet, kind: &FixKind, target: RaceKey) -> bool {
        let base = Baseline::new(baseline, &self.cfg);
        self.refute_all(&base, &[(*kind, target)])[0]
    }

    /// Whether the site-pair rule holds: the full pairing reaches every
    /// site pair (no candidate-pair budget) and reports no store-store
    /// races, whose keys can equal a load race's.
    fn site_rule(&self) -> bool {
        self.cfg.budget.max_candidate_pairs.is_none() && !self.cfg.check_store_store
    }

    /// The Refute step: for each `(kind, target)`, whether `kind` fails
    /// `target` on the baseline alone (DESIGN.md §4k).
    ///
    /// A store-anchored flush puts a flush and a fence right after every
    /// store with the anchor's stack. In the replay each PM piece of such
    /// a store closes at its own fence, persisted: its close clock is the
    /// store's clock, and its effective lockset the store's own lockset.
    /// No load, lockset or clock changes. So if that window races with a
    /// baseline load at `target`'s site pair, the replay races there, and
    /// the site-pair rule fails `target`. The IRH decides the window's fate
    /// right after the store, on the publication state the baseline had
    /// there, which one pass over the view's PM accesses reproduces.
    ///
    /// Without its preconditions nothing is refuted: the site-pair rule's
    /// own two, no memory budget (eviction can drop the window or the load
    /// from the replay), and no eADR. A stack with a store outside every
    /// PM region is never refuted either: `SimCore::step` ticks a clock
    /// for the flush after it, but never for such a store, so the patch
    /// can change every later clock of that thread.
    fn refute_all(&self, base: &Baseline<'_>, candidates: &[(FixKind, RaceKey)]) -> Vec<bool> {
        let cfg = &self.cfg;
        if !self.site_rule() || cfg.budget.memory_budget.is_some() || cfg.eadr {
            return vec![false; candidates.len()];
        }
        let anchors: Vec<Option<StackId>> = candidates
            .iter()
            .map(|(kind, _)| match PatchShape::of(self.view, kind)? {
                PatchShape::FlushStores(stack) => Some(stack),
                PatchShape::Literal(_) => None,
            })
            .collect();
        let stacks: FxHashSet<StackId> = anchors.iter().flatten().copied().collect();
        if stacks.is_empty() {
            return vec![false; candidates.len()];
        }
        let pieces = anchored_pieces(self.view, base, &stacks);
        let loads_by_addr = AddrIndex::build(
            base.live_loads
                .iter()
                .map(|&i| base.access.loads[i as usize].range),
        );
        let mut sites: BTreeMap<RaceKey, SitePair> = BTreeMap::new();
        candidates
            .iter()
            .zip(anchors)
            .map(|((_, target), anchor)| {
                let Some(stack) = anchor else {
                    return false;
                };
                let Some(Some(pieces)) = pieces.get(&stack) else {
                    return false;
                };
                let site = sites
                    .entry(*target)
                    .or_insert_with(|| SitePair::of(self.view.stacks, *target));
                site.stores[stack as usize] && base.races_in_place(&loads_by_addr, pieces, site)
            })
            .collect()
    }

    /// [`validates`](Self::validates) for every `(kind, target)` pair, from
    /// one shared simulation: each distinct patch is built and replayed
    /// once, forked from the recorded prefix at its first edit
    /// ([`simulate_patches`]). A pair the Refute step decided
    /// (`refuted[k]`, see [`refutes`](Self::refutes)) fails without a
    /// replay, and a patch whose targets are all refuted is never built.
    ///
    /// A patched replay that still races at a target's site pair fails that
    /// target, so each target is first paired on its site pair alone
    /// ([`SitePair`]). The baseline report holds one race per site pair and
    /// the target is that race, so a race the replay reports there is the
    /// target or a key outside the baseline: either fails the verdict. A
    /// replay is paired in full only when that leaves a target of it
    /// undecided. The rule needs the full pairing to reach every site pair
    /// (no candidate-pair budget) and no store-store races, whose keys can
    /// equal a load race's; otherwise every replay is paired in full.
    ///
    /// The rule also stops a replay early. At each of its fork's pauses
    /// the site pairs are checked on what the replay holds so far, and
    /// once every target of the patch races there, the fork stops with all
    /// of them failed. What a pause holds is part of the finished replay
    /// (`simulate_patches` pauses only without a memory budget), so a pair
    /// that races there races at the end too. A verdict is a pure function
    /// of the patched event stream, so the results equal the one-by-one
    /// verdicts.
    ///
    /// Debug builds re-prove both shortcuts. They replay the refuted
    /// patches too and assert that every refuted target races at its site
    /// pair in the finished replay and fails the full verdict. They finish
    /// stopped forks anyway and assert that every target still races at
    /// its site pair and fails the full verdict.
    fn validates_all(&self, candidates: &[(FixKind, RaceKey)], refuted: &[bool]) -> Vec<bool> {
        let SweepPlan {
            patches,
            targets,
            proofs,
            slots,
        } = self.plan_sweep(candidates, refuted);
        // Without the rule's preconditions no target has a site pair to
        // try, and every replay is paired in full.
        let site_rule = self.site_rule();
        let sites: BTreeMap<RaceKey, SitePair> = targets
            .iter()
            .chain(&proofs)
            .flatten()
            .filter(|_| site_rule)
            .map(|t| (*t, SitePair::of(self.view.stacks, *t)))
            .collect();
        let raced = |access: &AccessSet, t: &RaceKey| {
            sites.get(t).is_some_and(|site| self.races_at(access, site))
        };
        let mut verdicts: BTreeMap<(usize, RaceKey), bool> = BTreeMap::new();
        simulate_patches(
            self.view,
            &patches,
            &self.cfg.sim_config(),
            |i, so_far| targets[i].iter().all(|t| raced(so_far, t)),
            |i, fork| {
                let (access, stopped) = match fork {
                    Fork::Finished(access) => (Some(access), false),
                    Fork::Stopped(access) => (access, true),
                };
                // A fork stops only once every target raced at a pause.
                let failed: Vec<bool> = match &access {
                    Some(access) => targets[i].iter().map(|t| raced(access, t)).collect(),
                    None => vec![true; targets[i].len()],
                };
                debug_assert!(
                    !stopped || !failed.contains(&false),
                    "patch {i} stopped at a pause, yet a target stopped racing at its site pair"
                );
                // Debug builds pair decided replays in full too, to re-prove
                // the rule on every test that suggests fixes.
                let full = access
                    .as_ref()
                    .filter(|_| failed.contains(&false) || cfg!(debug_assertions))
                    .map(|access| keys(&self.pair(access)));
                for (t, failed) in targets[i].iter().zip(failed) {
                    let verdict = full.as_ref().map(|keys| self.verdict(keys, *t));
                    debug_assert!(
                        !failed || verdict == Some(false),
                        "{t:?} raced at its site pair yet validated"
                    );
                    let ok = !failed && verdict.expect("undecided targets are paired in full");
                    verdicts.insert((i, *t), ok);
                }
                for t in &proofs[i] {
                    let access = access.as_ref().expect("debug builds finish every fork");
                    assert!(
                        raced(access, t),
                        "{t:?} was refuted, yet patch {i} does not race at its site pair"
                    );
                    let verdict = full.as_ref().map(|keys| self.verdict(keys, *t));
                    assert_eq!(verdict, Some(false), "{t:?} was refuted, yet validated");
                }
            },
        );
        candidates
            .iter()
            .zip(slots)
            .zip(refuted)
            .map(|(((_, target), slot), &refuted)| {
                !refuted && slot.is_some_and(|i| verdicts[&(i, *target)])
            })
            .collect()
    }

    /// The patches a sweep replays: each distinct applicable shape once,
    /// with the targets its replay decides. Candidates whose patches are
    /// equal share one build and one replay: a store-anchored flush patches
    /// every store at the anchor's stack. A refuted target is decided
    /// already; release builds replay no patch for it, debug builds list it
    /// among the patch's proofs.
    fn plan_sweep(&self, candidates: &[(FixKind, RaceKey)], refuted: &[bool]) -> SweepPlan {
        let mut slot_of: FxHashMap<PatchShape, Option<usize>> = FxHashMap::default();
        let mut plan = SweepPlan::default();
        plan.slots = candidates
            .iter()
            .zip(refuted)
            .map(|((kind, target), &refuted)| {
                if refuted && !cfg!(debug_assertions) {
                    return None;
                }
                let shape = PatchShape::of(self.view, kind)?;
                // An inapplicable shape is remembered as `None`.
                let slot = *slot_of.entry(shape).or_insert_with(|| {
                    plan.patches.push(shape.build(self.view)?);
                    plan.targets.push(Vec::new());
                    plan.proofs.push(Vec::new());
                    Some(plan.patches.len() - 1)
                });
                let i = slot?;
                let list = if refuted {
                    &mut plan.proofs[i]
                } else {
                    &mut plan.targets[i]
                };
                if !list.contains(target) {
                    list.push(*target);
                }
                Some(i)
            })
            .collect();
        plan
    }

    fn pair(&self, access: &AccessSet) -> AnalysisReport {
        let reg = MetricsRegistry::new();
        engine::run_pairing(self.view.stacks, access, &self.cfg, &reg)
    }

    /// Whether any window/load pair of `site` races in `access`.
    fn races_at(&self, access: &AccessSet, site: &SitePair) -> bool {
        let controls = PairingControls {
            site: Some(site),
            ..PairingControls::default()
        };
        let reg = MetricsRegistry::new();
        let report =
            engine::run_pairing_controlled(self.view.stacks, access, &self.cfg, &reg, controls);
        !report.races.is_empty()
    }

    /// The validity rule over a patched replay's race keys.
    fn verdict(&self, patched: &[RaceKey], target: RaceKey) -> bool {
        patched
            .iter()
            .all(|k| *k != target && self.baseline.contains(k))
    }
}

/// What [`RepairValidator::plan_sweep`] hands the sweep.
#[derive(Default)]
struct SweepPlan {
    /// One edit script per distinct applicable shape.
    patches: Vec<EventPatch>,
    /// Per patch: the targets its replay decides.
    targets: Vec<Vec<RaceKey>>,
    /// Per patch: the refuted targets its replay re-proves (debug builds).
    proofs: Vec<Vec<RaceKey>>,
    /// Per candidate: its patch, or `None` when it has none to replay.
    slots: Vec<Option<usize>>,
}

fn keys(report: &AnalysisReport) -> Vec<RaceKey> {
    report.races.iter().map(|r| r.key).collect()
}

/// Computes one suggestion per non-store-store race in `races`, each
/// validated by replay. `access` must be the access set the report was
/// derived from (the witnesses are matched against it), and `view` the
/// event stream that produced it.
///
/// Four steps (DESIGN.md §4k): *Plan* finds each race's witness and lists
/// its candidate patches; *Refute* fails the flushes that the baseline
/// already proves wrong; *Sweep* replays the remaining patches over one
/// shared simulation ([`RepairValidator`]); *Assembly* picks each race's
/// suggestion. `access` is dropped before the Sweep builds access sets of
/// its own.
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
    let base = Baseline::new(&access, &validator.cfg);
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
            let (win, load) = base.find_witness(race)?;
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
    let candidates: Vec<(FixKind, RaceKey)> = plans
        .iter()
        .flat_map(|(race, shapes)| shapes.iter().map(|kind| (*kind, *race)))
        .collect();
    // Refute: the flushes the baseline already fails, decided before the
    // baseline is dropped.
    let refuted = validator.refute_all(&base, &candidates);
    drop(base);
    drop(access);
    // Sweep: every other shape is replayed — extensions too where the
    // flush validates — so that all of them share one simulation.
    let verdicts = validator.validates_all(&candidates, &refuted);
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

/// The baseline access set as the Plan and Refute steps read it: each
/// window and load the pairing sees (live and past the atomics filter) is
/// filed once, instead of once per race.
struct Baseline<'a> {
    access: &'a AccessSet,
    cfg: &'a AnalysisConfig,
    /// By stack: its windows, in store order.
    windows: FxHashMap<StackId, Vec<u32>>,
    /// By stack: its loads, in load order.
    loads: FxHashMap<StackId, Vec<u32>>,
    /// Every load the pairing sees, in load order.
    live_loads: Vec<u32>,
}

impl<'a> Baseline<'a> {
    fn new(access: &'a AccessSet, cfg: &'a AnalysisConfig) -> Self {
        let seen = |live: bool, atomic: bool| live && (cfg.include_atomics || !atomic);
        let mut windows: FxHashMap<StackId, Vec<u32>> = FxHashMap::default();
        for (i, w) in access.windows.iter().enumerate() {
            if seen(w.live(), w.atomic) {
                windows.entry(w.stack).or_default().push(i as u32);
            }
        }
        for list in windows.values_mut() {
            list.sort_by_key(|&i| access.windows[i as usize].store_seq);
        }
        let mut loads: FxHashMap<StackId, Vec<u32>> = FxHashMap::default();
        let mut live_loads = Vec::new();
        for (i, ld) in access.loads.iter().enumerate() {
            if seen(ld.live(), ld.atomic) {
                loads.entry(ld.stack).or_default().push(i as u32);
                live_loads.push(i as u32);
            }
        }
        for list in loads.values_mut() {
            list.sort_by_key(|&i| access.loads[i as usize].seq);
        }
        Self {
            access,
            cfg,
            windows,
            loads,
            live_loads,
        }
    }

    /// First racy (window, load) pair backing `race`, in deterministic
    /// (store_seq, load seq) order — the concrete witness the patch anchors
    /// to. Mirrors the engine's Algorithm 1 pair predicate on the raw access
    /// set (`protects_against` ignores acquisition timestamps, so locksets
    /// need no normalization here).
    fn find_witness(&self, race: &Race) -> Option<(&'a StoreWindow, &'a LoadAccess)> {
        let access = self.access;
        let windows = self.windows.get(&race.key.store_stack)?;
        let loads = self.loads.get(&race.key.load_stack)?;
        for &wi in windows {
            let win = &access.windows[wi as usize];
            for &li in loads {
                let ld = &access.loads[li as usize];
                if ld.tid == win.tid || !win.range.overlaps(&ld.range) {
                    continue;
                }
                if self.cfg.use_hb && engine::hb_ordered(access, win, ld.vc) {
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

    /// Whether a window closed in place at one of `pieces`, whose stack
    /// `site` holds, races with a load of `site` (its loads indexed by
    /// `loads_by_addr`, over `live_loads`): the engine's pair predicate,
    /// with the close clock equal to the store clock and the effective
    /// lockset equal to the store's lockset.
    fn races_in_place(&self, loads_by_addr: &AddrIndex, pieces: &[Piece], site: &SitePair) -> bool {
        let access = self.access;
        let mut scratch = Vec::new();
        pieces.iter().any(|p| {
            let held = access.locksets.get(p.ls);
            let near = loads_by_addr.query(&p.range, &mut scratch);
            near.iter().any(|&k| {
                let ld = &access.loads[self.live_loads[k as usize] as usize];
                site.loads[ld.stack as usize]
                    && ld.tid != p.tid
                    && ld.range.overlaps(&p.range)
                    && !(self.cfg.use_hb
                        && (engine::clock_le(access, ld.vc, p.vc)
                            || engine::clock_le(access, p.vc, ld.vc)))
                    && !held.protects_against(access.locksets.get(ld.ls))
            })
        })
    }
}

/// A line piece of an anchored store, as the flush+fence right after the
/// store closes it: persisted in place, at the store's own clock and
/// lockset.
struct Piece {
    tid: ThreadId,
    range: AddrRange,
    ls: LsId,
    vc: VcId,
}

/// The Refute step's one pass over the view's PM accesses, in order: for
/// each stack in `anchors`, the pieces of its stores that a flush+fence
/// right after the store persists in place and that the pairing would
/// still see, or `None` when the stack has a store outside every PM region.
/// A piece is seen when its store passes the atomics filter and, with the
/// IRH on, when some word of it is no longer private to the storing thread
/// right after the store (otherwise the IRH discards the window).
fn anchored_pieces(
    view: &TraceView<'_>,
    base: &Baseline<'_>,
    anchors: &FxHashSet<StackId>,
) -> FxHashMap<StackId, Option<Vec<Piece>>> {
    let (access, cfg) = (base.access, base.cfg);
    // Each anchored store's lockset and clock, from any of its windows.
    let mut held: FxHashMap<u64, (LsId, VcId)> = FxHashMap::default();
    for w in access.windows.iter().filter(|w| anchors.contains(&w.stack)) {
        held.entry(w.store_seq).or_insert((w.store_ls, w.store_vc));
    }
    let mut out: FxHashMap<StackId, Option<Vec<Piece>>> =
        anchors.iter().map(|&s| (s, Some(Vec::new()))).collect();
    // The pass ends at the last anchored store. With the IRH off it reads
    // only the anchored events, since no publication state is needed.
    let stacks = view.events.stacks();
    let end = stacks
        .iter()
        .rposition(|s| anchors.contains(s))
        .map_or(0, |i| i + 1);
    let mut publication = PublicationTracker::new();
    for (i, stack) in stacks[..end].iter().enumerate() {
        if !cfg.irh && !anchors.contains(stack) {
            continue;
        }
        let ev = view.events.get(i);
        let (range, store) = match ev.kind {
            EventKind::Store { range, atomic, .. } => (range, Some(atomic)),
            EventKind::Load { range, .. } => (range, None),
            _ => continue,
        };
        let pm = view.regions.is_empty() || view.is_pm(&range);
        if pm && cfg.irh {
            publication.record_access(ev.tid, &range);
        }
        let Some(atomic) = store else {
            continue;
        };
        let Some(slot) = out.get_mut(&ev.stack) else {
            continue;
        };
        let (Some(pieces), true) = (slot.as_mut(), pm) else {
            *slot = None;
            continue;
        };
        if atomic && !cfg.include_atomics {
            continue;
        }
        let Some(&(ls, vc)) = held.get(&ev.seq) else {
            // Every PM store leaves a window in an unbudgeted simulation;
            // without one, the stack is left to its replay.
            *slot = None;
            continue;
        };
        for (_, range) in line_pieces(range) {
            if !cfg.irh || !publication.all_private_to(ev.tid, &range) {
                pieces.push(Piece {
                    tid: ev.tid,
                    range,
                    ls,
                    vc,
                });
            }
        }
    }
    out
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
/// scripts, so a sweep builds and replays each shape once.
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
        assert_eq!(
            validator.validates_all(&[(flush, target)], &[false]),
            vec![false]
        );
    }

    /// A lock-free writer and reader: the reader loads the word first, so
    /// the writer's store publishes it, then loads it again, concurrently
    /// with the store. Stores at `stray` also land at the writer's stack,
    /// outside the PM region.
    fn lock_free(stray: &[u64]) -> crate::trace::Trace {
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
        for &addr in stray {
            b.push(t0, st, store(addr));
        }
        b.push(t0, st, EventKind::ThreadJoin { child: t1 });
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
        let trace = lock_free(&[]);
        let cfg = AnalysisConfig::default();
        let (races, flush, access) = flush_case(&trace, &cfg);
        let target = races[0].key;
        let view = TraceView::full(&trace);
        let validator = RepairValidator::new(&view, &races, &cfg);
        assert!(validator.refutes(&access, &flush, target));
        assert!(!validator.validates(&flush, target));
        // Release builds replay nothing for it; debug builds replay its
        // patch only to re-prove the refutation.
        let plan = validator.plan_sweep(&[(flush, target)], &[true]);
        assert_eq!(plan.patches.len(), usize::from(cfg!(debug_assertions)));
        assert!(plan.targets.iter().all(Vec::is_empty));
        let proofs: Vec<RaceKey> = cfg!(debug_assertions)
            .then_some(target)
            .into_iter()
            .collect();
        assert_eq!(plan.proofs.concat(), proofs);
        assert_eq!(
            validator.validates_all(&[(flush, target)], &[true]),
            vec![false]
        );
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
        let trace = lock_free(&[]);
        for cfg in &cfgs {
            assert_eq!(
                refuted_and_validated(&trace, cfg),
                (false, false),
                "{cfg:?}"
            );
        }
        // A store with the anchor's stack outside the PM region: the flush
        // after it could tick a clock, so nothing at that stack is refuted.
        let trace = lock_free(&[0x9000]);
        let cfg = AnalysisConfig::default();
        assert_eq!(refuted_and_validated(&trace, &cfg), (false, false));
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
        let (races, flush, access) = flush_case(trace, cfg);
        let view = TraceView::full(trace);
        let validator = RepairValidator::new(&view, &races, cfg);
        let target = races[0].key;
        (
            validator.refutes(&access, &flush, target),
            validator.validates(&flush, target),
        )
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
