//! Property-based validation of the repair engine (`analysis::repair`).
//!
//! Two families of properties over arbitrary synthetic traces:
//!
//! 1. **Verdict honesty** — every suggestion the engine marks
//!    `validated: true` is independently re-proven here by replaying the
//!    patch through [`RepairValidator::replay`]: the targeted race is
//!    gone and no race key outside the baseline report appears. Status
//!    demotion is total: `validated` ⟺ `Fix`, otherwise `Candidate`.
//!    The engine decides every candidate from its patch's footprint on
//!    the baseline access set, or replays it under a budget or the
//!    store-store pass; every verdict, `false` ones included, must equal
//!    the one-by-one full replay of [`RepairValidator::validates`], and
//!    every footprint must rebuild the replay's access set exactly. Each
//!    function runs under two call stacks, so one site pair spans several
//!    stack pairs. A flush the engine refutes at its own stores
//!    ([`RepairValidator::refutes`]) must race at its target's site pair
//!    in the full replay and fail the full verdict, with the IRH, the
//!    happens-before filter and the atomics filter each on and off.
//! 2. **Rejection of wrong insertion points** — fuzzed patch placements
//!    that provably cannot repair anything (anchors past the end of the
//!    trace, flush+fence before any store dirtied the line, lock
//!    extensions whose `from_seq` names no boundary of that lock) must
//!    never validate.

use hawkset::core::addr::AddrRange;
use hawkset::core::analysis::repair::build_patch;
use hawkset::core::analysis::{
    AnalysisBudget, AnalysisConfig, Analyzer, BudgetExceeded, FixKind, FixStatus, RaceKey,
    RepairValidator,
};
use hawkset::core::lockset::Lockset;
use hawkset::core::memsim::patch::simulate_patched;
use hawkset::core::memsim::{AccessSet, SimConfig};
use hawkset::core::trace::{
    EventKind, Frame, LockId, LockMode, PmRegion, ThreadId, Trace, TraceBuilder, TraceView,
};
use proptest::prelude::*;

/// Valid multi-threaded traces biased toward racy schedules: a small
/// address pool so threads collide, a mix of locked and unlocked stores,
/// and only occasional flushes so store→persist windows stay open across
/// conflicting accesses. Each of the four functions is reached from two
/// callers: two stacks with one innermost frame, hence one site. The pool
/// lies in a registered PM region, and some stores land outside it; some
/// accesses are atomic, and some stores non-temporal, so a piece can wait
/// on its own thread's fence; and a worker can create a child mid-trace,
/// which then runs some of that worker's operations until the worker joins
/// it. A *span* stores, then loads, stores under another lock, flushes and
/// fences before it acquires a lock: the shape a lock extension hoists an
/// acquisition over, with every kind of access in between.
fn arb_racy_trace() -> impl Strategy<Value = Trace> {
    racy_traces(4..90)
}

/// [`arb_racy_trace`]'s traces with `ops` operations.
fn racy_traces(ops: std::ops::Range<usize>) -> impl Strategy<Value = Trace> {
    let ops = proptest::collection::vec(
        (
            0u8..12,
            0u64..24u64,
            1u32..17,
            0u64..3,
            any::<bool>(),
            (any::<bool>(), any::<bool>()),
        ),
        ops,
    );
    (ops, 2u32..4).prop_map(|(ops, workers)| {
        let mut b = TraceBuilder::new();
        b.add_region(PmRegion {
            base: 0x1000,
            len: 0x1000,
            path: "/mnt/pmem/prop".into(),
        });
        let stacks: Vec<[_; 2]> = (0u32..4)
            .map(|i| {
                let site = Frame::new(format!("fn{i}"), "prop.rs", i + 1);
                [0, 1].map(|c| {
                    b.intern_stack([
                        site.clone(),
                        Frame::new(format!("caller{c}"), "prop.rs", 90),
                    ])
                })
            })
            .collect();
        let main = stacks[0][0];
        for w in 1..=workers {
            b.push(
                ThreadId(0),
                main,
                EventKind::ThreadCreate { child: ThreadId(w) },
            );
        }
        // Children get the thread ids after the workers'.
        let mut next_child = workers + 1;
        let mut child: Vec<Option<ThreadId>> = vec![None; workers as usize + 1];
        let mut held: Vec<Vec<u64>> = Vec::new();
        for (i, (kind, addr, len, lock, flag, (caller, by_child))) in ops.into_iter().enumerate() {
            let worker = ThreadId(1 + (i as u32 % workers));
            let tid = match child[worker.index()] {
                Some(c) if by_child && kind < 10 => c,
                _ => worker,
            };
            if held.len() <= tid.index() {
                held.resize(tid.index() + 1, Vec::new());
            }
            let s = stacks[i % stacks.len()][usize::from(caller)];
            let range = AddrRange::new(0x1000 + addr * 8, len);
            let store = |range, atomic| EventKind::Store {
                range,
                non_temporal: false,
                atomic,
            };
            let acquire = |lock, shared| EventKind::Acquire {
                lock: LockId(lock),
                mode: if shared {
                    LockMode::Shared
                } else {
                    LockMode::Exclusive
                },
            };
            match kind {
                // Stores twice as likely as anything else: windows are
                // the race ingredient.
                1 if flag => b.push(
                    tid,
                    s,
                    EventKind::Store {
                        range,
                        non_temporal: true,
                        atomic: false,
                    },
                ),
                0 | 1 => b.push(tid, s, store(range, false)),
                2 | 3 => b.push(
                    tid,
                    s,
                    EventKind::Load {
                        range,
                        atomic: false,
                    },
                ),
                4 => b.push(tid, s, EventKind::Flush { addr: range.start }),
                5 => b.push(tid, s, EventKind::Fence),
                6 => {
                    if !held[tid.index()].contains(&lock) {
                        held[tid.index()].push(lock);
                        b.push(tid, s, acquire(lock, flag));
                    }
                }
                7 => {
                    if let Some(pos) = held[tid.index()].iter().position(|&l| l == lock) {
                        held[tid.index()].remove(pos);
                        b.push(tid, s, EventKind::Release { lock: LockId(lock) });
                    }
                }
                // Outside the PM region: the simulator ignores it.
                8 => b.push(tid, s, store(AddrRange::new(0x8000 + addr * 8, len), false)),
                9 if flag => b.push(tid, s, store(range, true)),
                9 => b.push(
                    tid,
                    s,
                    EventKind::Load {
                        range,
                        atomic: true,
                    },
                ),
                10 => match child[worker.index()].take() {
                    Some(c) => b.push(worker, s, EventKind::ThreadJoin { child: c }),
                    None => {
                        let c = ThreadId(next_child);
                        next_child += 1;
                        b.push(worker, s, EventKind::ThreadCreate { child: c });
                        child[worker.index()] = Some(c);
                    }
                },
                // A span, by the worker: the store, a load, a store under
                // another lock, a flush and a fence of that line, then the
                // acquisition an extension of `lock` would hoist.
                _ => {
                    let inner = stacks[(i + 1) % stacks.len()][usize::from(caller)];
                    let near = AddrRange::new(0x1000 + (addr + 1) % 24 * 8, len);
                    b.push(worker, s, store(range, false));
                    b.push(
                        worker,
                        inner,
                        EventKind::Load {
                            range: near,
                            atomic: false,
                        },
                    );
                    let other = (lock + 1) % 3;
                    let mine = &mut held[worker.index()];
                    let take_other = !mine.contains(&other);
                    if take_other {
                        b.push(worker, inner, acquire(other, false));
                    }
                    b.push(worker, inner, store(near, false));
                    if take_other {
                        b.push(
                            worker,
                            inner,
                            EventKind::Release {
                                lock: LockId(other),
                            },
                        );
                    }
                    b.push(worker, inner, EventKind::Flush { addr: near.start });
                    b.push(worker, inner, EventKind::Fence);
                    if !mine.contains(&lock) {
                        mine.push(lock);
                        b.push(worker, s, acquire(lock, flag));
                    }
                }
            }
        }
        for w in 1..=workers {
            if let Some(c) = child[w as usize].take() {
                b.push(ThreadId(w), main, EventKind::ThreadJoin { child: c });
            }
        }
        for w in 1..=workers {
            b.push(
                ThreadId(0),
                main,
                EventKind::ThreadJoin { child: ThreadId(w) },
            );
        }
        b.finish()
    })
}

/// A flush+fence at the first store of each stack of `trace`.
fn first_store_flushes(trace: &Trace) -> Vec<FixKind> {
    let mut stacks = Vec::new();
    let mut flushes = Vec::new();
    for ev in trace.iter() {
        if let EventKind::Store { range, .. } = ev.kind {
            if !stacks.contains(&ev.stack) {
                stacks.push(ev.stack);
                let line = range.start / 64 * 64;
                flushes.push(FixKind::FlushFence {
                    after_seq: ev.seq,
                    line,
                });
            }
        }
    }
    flushes
}

/// A lockset without its acquisition timestamps, which only equality
/// tests within one run read.
fn untimed(ls: &Lockset) -> Vec<(LockId, LockMode)> {
    ls.iter().map(|e| (e.lock, e.mode)).collect()
}

/// `access`'s windows and loads by value, in order, without sequence
/// numbers, lock timestamps or the windows' store locksets, which the
/// pairing never reads.
fn accesses(access: &AccessSet) -> (Vec<String>, Vec<String>) {
    let clock = |vc| format!("{:?}", access.vclocks.get(vc));
    let windows = access.windows.iter().map(|w| {
        let eff = untimed(access.locksets.get(w.effective_ls));
        let close = w.close_vc.map(clock);
        let flags = (w.close, w.atomic, w.non_temporal, w.irh_discarded);
        format!(
            "{:?} {} {:?} {} {eff:?} {close:?} {flags:?}",
            w.tid,
            w.stack,
            w.range,
            clock(w.store_vc)
        )
    });
    let loads = access.loads.iter().map(|l| {
        let ls = untimed(access.locksets.get(l.ls));
        let flags = (l.atomic, l.irh_dropped);
        format!(
            "{:?} {} {:?} {} {ls:?} {flags:?}",
            l.tid,
            l.stack,
            l.range,
            clock(l.vc)
        )
    });
    (windows.collect(), loads.collect())
}

/// The site pair a race on `key` is reported under: its two innermost
/// functions, or its two stacks when either has no site.
fn site_pair(trace: &Trace, key: RaceKey) -> Result<(String, String), (u32, u32)> {
    match (
        trace.stacks.site(key.store_stack),
        trace.stacks.site(key.load_stack),
    ) {
        (Some(s), Some(l)) => Ok((s.function.clone(), l.function.clone())),
        _ => Err((key.store_stack, key.load_stack)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every `validated: true` suggestion survives independent replay:
    /// the targeted race disappears and no new race key appears. Every
    /// suggestion targets a reported race, and status follows the
    /// demotion rule exactly.
    #[test]
    fn validated_fixes_kill_their_race_and_add_nothing(trace in arb_racy_trace()) {
        let cfg = AnalysisConfig::default();
        let report = Analyzer::new(cfg.clone()).suggest_fixes(true).run(&trace);
        let baseline: Vec<_> = report.races.iter().map(|r| r.key).collect();
        let view = TraceView::full(&trace);
        let validator = RepairValidator::new(&view, &report.races, &cfg);
        // A clean (or store-store-only) run has no fixes section and the
        // loop below is vacuous.
        let suggestions = report.fixes.as_ref().map_or(&[][..], |f| &f.suggestions);
        for s in suggestions {
            prop_assert!(
                baseline.contains(&s.race),
                "suggestion targets an unreported race {:?}", s.race
            );
            prop_assert_eq!(
                s.status == FixStatus::Fix,
                s.validated,
                "demotion rule violated: {}", s.summary()
            );
            if !s.validated {
                continue;
            }
            let patched = validator.replay(&s.kind);
            let patched = patched.expect("a validated patch must be applicable");
            prop_assert!(
                patched.races.iter().all(|r| r.key != s.race),
                "validated fix {} left its race alive", s.summary()
            );
            for r in &patched.races {
                prop_assert!(
                    baseline.contains(&r.key),
                    "validated fix {} introduced new race {:?}",
                    s.summary(), r.key
                );
            }
        }
    }

    /// Every verdict equals an independent full replay of its patch: a
    /// fix is never falsely demoted, and a candidate never falsely
    /// validated. Checked for every candidate the engine plans, not only
    /// the emitted one, and for every emitted suggestion: under the default
    /// config, where verdicts come from each patch's footprint on the
    /// baseline, with the IRH, the happens-before filter and the atomics
    /// filter each off, and under a small candidate-pair budget, with the
    /// store-store pass on, and under a memory budget that evicts, where
    /// every patch is replayed. The simulator checks that budget every 256
    /// events, so it runs on a longer trace.
    #[test]
    fn every_verdict_matches_an_independent_replay(
        trace in arb_racy_trace(),
        long in racy_traces(400..480),
        max_pairs in 1u64..32,
    ) {
        let default = AnalysisConfig::default;
        let budgeted = AnalysisConfig {
            budget: AnalysisBudget {
                max_candidate_pairs: Some(max_pairs),
                ..AnalysisBudget::default()
            },
            ..default()
        };
        let evicting = AnalysisConfig {
            budget: AnalysisBudget {
                memory_budget: Some(2048),
                ..AnalysisBudget::default()
            },
            ..default()
        };
        let runs = [
            (&trace, default()),
            (&trace, AnalysisConfig { irh: false, ..default() }),
            (&trace, AnalysisConfig { use_hb: false, ..default() }),
            (&trace, AnalysisConfig { include_atomics: false, ..default() }),
            (&trace, budgeted),
            (&trace, AnalysisConfig { check_store_store: true, ..default() }),
            (&long, evicting),
        ];
        for (trace, cfg) in runs {
            let report = Analyzer::new(cfg.clone()).suggest_fixes(true).run(trace);
            if cfg.budget.memory_budget.is_some() {
                prop_assert_eq!(report.coverage.reason, Some(BudgetExceeded::MemoryBudget));
            }
            let view = TraceView::full(trace);
            let validator = RepairValidator::new(&view, &report.races, &cfg);
            let candidates = validator.candidates(&report.races);
            let verdicts = validator.verdicts(&candidates);
            for ((kind, target), verdict) in candidates.iter().zip(verdicts) {
                prop_assert_eq!(
                    verdict,
                    validator.validates(kind, *target),
                    "verdict of {} for {:?} under {:?} disagrees with a full replay",
                    kind.summary(), target, cfg
                );
            }
            let suggestions = report.fixes.as_ref().map_or(&[][..], |f| &f.suggestions);
            for s in suggestions {
                prop_assert!(candidates.contains(&(s.kind, s.race)));
                prop_assert_eq!(
                    s.validated,
                    validator.validates(&s.kind, s.race),
                    "verdict of {} disagrees with a full replay", s.summary()
                );
            }
        }
    }

    /// Every footprint is exact: the access set a patch's footprint on the
    /// baseline implies (`RepairValidator::footprint_access`) equals the
    /// independent replay's, window by window and load by load, in order,
    /// up to sequence numbers and lock timestamps. Checked for every
    /// candidate the engine plans and for a flush at the first store of
    /// each stack, with the IRH on and off: a lock extension changes the
    /// locksets of the extended thread's loads in the span and the
    /// effective locksets of the windows it stores or closes there, and a
    /// flush closes, at each inserted fence, the pieces on the flushed
    /// lines and those that wait on the flusher's fence elsewhere, each
    /// decided again by the IRH.
    #[test]
    fn every_footprint_equals_its_replay(trace in arb_racy_trace()) {
        let view = TraceView::full(&trace);
        let flushes = first_store_flushes(&trace);
        let mut derived = 0;
        for irh in [true, false] {
            let cfg = AnalysisConfig { irh, ..AnalysisConfig::default() };
            let report = Analyzer::new(cfg.clone()).run(&trace);
            let validator = RepairValidator::new(&view, &report.races, &cfg);
            let planned = validator.candidates(&report.races).into_iter().map(|(k, _)| k);
            for kind in planned.chain(flushes.iter().copied()) {
                let Some(footprint) = validator.footprint_access(&kind) else {
                    continue;
                };
                let patch = build_patch(&view, &kind).expect("a patch with a footprint applies");
                let sim = SimConfig { irh, ..SimConfig::default() };
                let replay = simulate_patched(&view, &patch, &sim);
                let (windows, loads) = accesses(&footprint);
                let (replay_windows, replay_loads) = accesses(&replay);
                prop_assert_eq!(windows, replay_windows, "windows of {}", kind.summary());
                prop_assert_eq!(loads, replay_loads, "loads of {}", kind.summary());
                derived += 1;
            }
        }
        prop_assert!(derived > 0 || trace.events.len() < 20, "no footprint to check");
    }

    /// Every refutation is exact: a flush the Refute step fails without a
    /// replay races at its target's site pair in `simulate_patched`'s
    /// replay, and fails the full verdict. Checked for a flush at the first
    /// store of each stack against every reported race, with the IRH, the
    /// happens-before filter and the atomics filter each on and off.
    #[test]
    fn every_refuted_flush_races_at_its_site_pair(trace in arb_racy_trace()) {
        let view = TraceView::full(&trace);
        let anchors = first_store_flushes(&trace);
        for bits in 0u8..8 {
            let cfg = AnalysisConfig {
                irh: bits & 1 != 0,
                use_hb: bits & 2 != 0,
                include_atomics: bits & 4 != 0,
                ..AnalysisConfig::default()
            };
            let report = Analyzer::new(cfg.clone()).run(&trace);
            let validator = RepairValidator::new(&view, &report.races, &cfg);
            for race in &report.races {
                for flush in &anchors {
                    if !validator.refutes(flush, race.key) {
                        continue;
                    }
                    let patched = validator.replay(flush).expect("a refuted flush applies");
                    let site = site_pair(&trace, race.key);
                    prop_assert!(
                        patched.races.iter().any(|r| site_pair(&trace, r.key) == site),
                        "{} was refuted for {:?} under {:?}, yet its replay does not race there",
                        flush.summary(), race.key, cfg
                    );
                    prop_assert!(!validator.validates(flush, race.key));
                }
            }
        }
    }

    /// Wrong insertion points never validate:
    /// * an anchor past the end of the trace is inapplicable;
    /// * a flush+fence at the very first event persists nothing (no line
    ///   is dirty yet), so the race survives the replay;
    /// * a lock extension whose `from_seq` is not an `Acquire`/`Release`
    ///   of that lock has no boundary to move.
    #[test]
    fn wrong_insertion_points_are_rejected(
        trace in arb_racy_trace(),
        line_salt in 0u64..24,
        lock in 0u64..3,
        seq_salt in 0usize..96,
    ) {
        let cfg = AnalysisConfig::default();
        let report = Analyzer::new(cfg.clone()).run(&trace);
        if report.races.is_empty() {
            // Race-free sample: nothing for a bogus patch to miss.
            return;
        }
        let target = report.races[0].key;
        let view = TraceView::full(&trace);
        let validator = RepairValidator::new(&view, &report.races, &cfg);
        let n = trace.events.len() as u64;

        // Anchor beyond the trace: no event to attach the patch to.
        let missing = FixKind::FlushFence {
            after_seq: n + seq_salt as u64,
            line: 0x1000 + line_salt * 8,
        };
        prop_assert!(!validator.validates(&missing, target));

        // Flush+fence after event 0 — the main thread's first
        // ThreadCreate, before any store dirtied any line: flushing a
        // clean line is a no-op and the fence has nothing pending, so
        // every baseline race (including the target) must survive.
        let too_early = FixKind::FlushFence {
            after_seq: 0,
            line: 0x1000 + (line_salt * 8 / 64) * 64,
        };
        prop_assert!(!validator.validates(&too_early, target));

        // A lock extension whose from_seq names an event that is not an
        // Acquire/Release of that lock is inapplicable by construction.
        let from_seq = (seq_salt as u64) % n;
        let boundary = matches!(
            trace.events.get(from_seq as usize).kind,
            EventKind::Acquire { lock: l, .. } | EventKind::Release { lock: l }
                if l == LockId(lock)
        );
        if !boundary {
            let bogus = FixKind::LockExtension {
                lock,
                from_seq,
                to_seq: 0,
            };
            prop_assert!(
                !validator.validates(&bogus, target),
                "lock extension from a non-boundary event {from_seq} validated"
            );
        }
    }
}
