//! Property-based validation of the repair engine (`analysis::repair`).
//!
//! Two families of properties over arbitrary synthetic traces:
//!
//! 1. **Verdict honesty** — every suggestion the engine marks
//!    `validated: true` is independently re-proven here by replaying the
//!    patch through [`RepairValidator::replay`]: the targeted race is
//!    gone and no race key outside the baseline report appears. Status
//!    demotion is total: `validated` ⟺ `Fix`, otherwise `Candidate`.
//!    The engine validates all candidates over one shared simulation;
//!    every verdict, `false` ones included, must equal the one-by-one
//!    full replay of [`RepairValidator::validates`].
//! 2. **Rejection of wrong insertion points** — fuzzed patch placements
//!    that provably cannot repair anything (anchors past the end of the
//!    trace, flush+fence before any store dirtied the line, lock
//!    extensions whose `from_seq` names no boundary of that lock) must
//!    never validate.

use hawkset::core::addr::AddrRange;
use hawkset::core::analysis::{AnalysisConfig, Analyzer, FixKind, FixStatus, RepairValidator};
use hawkset::core::trace::{
    EventKind, Frame, LockId, LockMode, ThreadId, Trace, TraceBuilder, TraceView,
};
use proptest::prelude::*;

/// Valid multi-threaded traces biased toward racy schedules: a small
/// address pool so threads collide, a mix of locked and unlocked stores,
/// and only occasional flushes so store→persist windows stay open across
/// conflicting accesses.
fn arb_racy_trace() -> impl Strategy<Value = Trace> {
    let ops = proptest::collection::vec(
        (0u8..8, 0u64..24u64, 1u32..17, 0u64..3, any::<bool>()),
        4..90,
    );
    (ops, 2u32..4).prop_map(|(ops, workers)| {
        let mut b = TraceBuilder::new();
        let stacks: Vec<_> = (0u32..4)
            .map(|i| b.intern_stack([Frame::new(format!("fn{i}"), "prop.rs", i + 1)]))
            .collect();
        for w in 1..=workers {
            b.push(
                ThreadId(0),
                stacks[0],
                EventKind::ThreadCreate { child: ThreadId(w) },
            );
        }
        let mut held: Vec<Vec<u64>> = vec![Vec::new(); workers as usize + 1];
        for (i, (kind, addr, len, lock, flag)) in ops.into_iter().enumerate() {
            let tid = ThreadId(1 + (i as u32 % workers));
            let s = stacks[i % stacks.len()];
            let range = AddrRange::new(0x1000 + addr * 8, len);
            match kind {
                // Stores twice as likely as anything else: windows are
                // the race ingredient.
                0 | 1 => b.push(
                    tid,
                    s,
                    EventKind::Store {
                        range,
                        non_temporal: false,
                        atomic: false,
                    },
                ),
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
                        b.push(
                            tid,
                            s,
                            EventKind::Acquire {
                                lock: LockId(lock),
                                mode: if flag {
                                    LockMode::Shared
                                } else {
                                    LockMode::Exclusive
                                },
                            },
                        );
                    }
                }
                _ => {
                    if let Some(pos) = held[tid.index()].iter().position(|&l| l == lock) {
                        held[tid.index()].remove(pos);
                        b.push(tid, s, EventKind::Release { lock: LockId(lock) });
                    }
                }
            }
        }
        for w in 1..=workers {
            b.push(
                ThreadId(0),
                stacks[0],
                EventKind::ThreadJoin { child: ThreadId(w) },
            );
        }
        b.finish()
    })
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
    /// validated.
    #[test]
    fn every_verdict_matches_an_independent_replay(trace in arb_racy_trace()) {
        let cfg = AnalysisConfig::default();
        let report = Analyzer::new(cfg.clone()).suggest_fixes(true).run(&trace);
        let view = TraceView::full(&trace);
        let validator = RepairValidator::new(&view, &report.races, &cfg);
        let suggestions = report.fixes.as_ref().map_or(&[][..], |f| &f.suggestions);
        for s in suggestions {
            prop_assert_eq!(
                s.validated,
                validator.validates(&s.kind, s.race),
                "verdict of {} disagrees with a full replay", s.summary()
            );
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
