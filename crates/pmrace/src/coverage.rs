//! Campaign coverage signatures.
//!
//! A steered campaign needs a deterministic answer to "did this round show
//! us anything new?". The unit of novelty is the [`CoveragePoint`]: a
//! discrete, trace-independent fact extracted from a round's analysis
//! report and crash audit. Three families exist:
//!
//! * **race sites** — distinct `(store site, load site)` pairs, rendered
//!   to `file:line (function)` strings so they compare across rounds
//!   ([`CoveragePoint::Site`]), plus their lockset state (never-persisted /
//!   empty-effective-lockset flags);
//! * **audit outcomes** — what the crash-state audit concluded, keyed by
//!   the *invariant name* rather than the crash op index (op indices vary
//!   with interleaving; invariant identities do not);
//! * **pressure outcomes** — analysis-budget truncation reasons and
//!   storage-fault probe results, which tell the corpus that a pressure
//!   axis actually bit.
//!
//! Points are totally ordered and serialize into checkpoints, so coverage
//! sets are replayable byte-for-byte on `--resume`.

use std::collections::BTreeSet;

use hawkset_core::analysis::AnalysisReport;
use serde::{Deserialize, Serialize};

use crate::crashtest::RoundOutcome;

/// One discrete coverage fact. The variant order is part of the total
/// order (sites sort before audit and pressure points), which fixes the
/// rendering order of coverage reports.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum CoveragePoint {
    /// A distinct race site: rendered store/load sites.
    Site {
        /// `file:line (function)` of the store.
        store: String,
        /// `file:line (function)` of the load.
        load: String,
    },
    /// The lockset state observed at a race site.
    Lockset {
        /// `file:line (function)` of the store.
        store: String,
        /// `file:line (function)` of the load.
        load: String,
        /// The store was never explicitly persisted.
        never_persisted: bool,
        /// No lock spanned the store→persist window.
        lockset_empty: bool,
    },
    /// What the crash audit concluded for this round.
    Audit {
        /// `recovery_failed`, `invariant_violated`, `panicked`, `timed_out`.
        outcome: String,
        /// The violated invariant's name (the part before the first `:`),
        /// or empty when the outcome carries no invariant.
        detail: String,
    },
    /// An analysis resource budget truncated the round's analysis.
    Analysis {
        /// The budget that stopped the run (`Coverage::reason` rendering).
        reason: String,
    },
    /// A storage-fault probe outcome (the io axis): the injected fault
    /// kind and whether the atomic write sequence survived it.
    Io {
        /// The scripted fault schedule that was active.
        script: String,
        /// `true` when `write_atomic` still succeeded under the schedule.
        survived: bool,
    },
}

impl CoveragePoint {
    /// Compact one-line rendering, used by coverage reports and CI greps.
    pub fn render(&self) -> String {
        match self {
            CoveragePoint::Site { store, load } => format!("site {store} -> {load}"),
            CoveragePoint::Lockset {
                store,
                load,
                never_persisted,
                lockset_empty,
            } => format!(
                "lockset {store} -> {load} [never_persisted={never_persisted} empty={lockset_empty}]"
            ),
            CoveragePoint::Audit { outcome, detail } if detail.is_empty() => {
                format!("audit {outcome}")
            }
            CoveragePoint::Audit { outcome, detail } => format!("audit {outcome}: {detail}"),
            CoveragePoint::Analysis { reason } => format!("analysis truncated: {reason}"),
            CoveragePoint::Io { script, survived } => {
                format!("io {script} survived={survived}")
            }
        }
    }
}

/// Extracts the deterministic coverage signature of one round from its
/// analysis report and settled outcome. Sorted and deduplicated, so the
/// result is a canonical set representation.
pub fn extract_coverage(report: &AnalysisReport, outcome: &RoundOutcome) -> Vec<CoveragePoint> {
    let mut points: BTreeSet<CoveragePoint> = BTreeSet::new();
    for sig in report.site_signatures() {
        points.insert(CoveragePoint::Site {
            store: sig.store_site.clone(),
            load: sig.load_site.clone(),
        });
        points.insert(CoveragePoint::Lockset {
            store: sig.store_site,
            load: sig.load_site,
            never_persisted: sig.store_never_persisted,
            lockset_empty: sig.effective_lockset_empty,
        });
    }
    if report.coverage.truncated {
        let reason = report
            .coverage
            .reason
            .map(|r| r.to_string())
            .unwrap_or_else(|| "budget".into());
        points.insert(CoveragePoint::Analysis { reason });
    }
    match outcome {
        RoundOutcome::Ok => {}
        RoundOutcome::Panicked { .. } => {
            points.insert(CoveragePoint::Audit {
                outcome: "panicked".into(),
                detail: String::new(),
            });
        }
        RoundOutcome::TimedOut => {
            points.insert(CoveragePoint::Audit {
                outcome: "timed_out".into(),
                detail: String::new(),
            });
        }
        RoundOutcome::RecoveryFailed { .. } => {
            points.insert(CoveragePoint::Audit {
                outcome: "recovery_failed".into(),
                detail: String::new(),
            });
        }
        RoundOutcome::InvariantViolated { violations, .. } => {
            for v in violations {
                // "fence-key: leaf holds key 9" → "fence-key": the
                // invariant's identity, stable across interleavings.
                let name = v.split(':').next().unwrap_or("").trim().to_string();
                points.insert(CoveragePoint::Audit {
                    outcome: "invariant_violated".into(),
                    detail: name,
                });
            }
        }
    }
    points.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkset_core::addr::AddrRange;
    use hawkset_core::analysis::Race;
    use hawkset_core::trace::{Frame, ThreadId};

    fn race(store: &str, load: &str, never_persisted: bool) -> Race {
        Race {
            key: hawkset_core::analysis::RaceKey {
                store_stack: 0,
                load_stack: 1,
            },
            store_site: Some(Frame::new(store, "app.rs", 10)),
            load_site: Some(Frame::new(load, "app.rs", 20)),
            store_tid: ThreadId(0),
            load_tid: ThreadId(1),
            example_range: AddrRange::new(0x1000, 8),
            pair_count: 1,
            store_atomic: false,
            load_atomic: false,
            store_non_temporal: false,
            store_never_persisted: never_persisted,
            effective_lockset_empty: true,
            store_store: false,
        }
    }

    #[test]
    fn extraction_is_sorted_deduped_and_outcome_aware() {
        let report = AnalysisReport {
            races: vec![
                race("a::store", "a::load", true),
                race("a::store", "a::load", true), // duplicate site
            ],
            ..Default::default()
        };
        let outcome = RoundOutcome::InvariantViolated {
            violations: vec![
                "fence-key: leaf holds key 9".into(),
                "fence-key: leaf holds key 11".into(), // same invariant
                "order: siblings inverted".into(),
            ],
            crash_op: 1234,
        };
        let points = extract_coverage(&report, &outcome);
        assert!(points.windows(2).all(|w| w[0] < w[1]), "canonical set");
        let audits: Vec<_> = points
            .iter()
            .filter(|p| matches!(p, CoveragePoint::Audit { .. }))
            .collect();
        assert_eq!(audits.len(), 2, "two invariant identities: {audits:?}");
        assert_eq!(
            points
                .iter()
                .filter(|p| matches!(p, CoveragePoint::Site { .. }))
                .count(),
            1
        );
        // Crash op indices never leak into coverage: same invariant at a
        // different op is the same point.
        let other = RoundOutcome::InvariantViolated {
            violations: vec!["fence-key: leaf holds key 77".into()],
            crash_op: 9,
        };
        let a = extract_coverage(&report, &other);
        let b = extract_coverage(
            &report,
            &RoundOutcome::InvariantViolated {
                violations: vec!["fence-key: anything".into()],
                crash_op: 1,
            },
        );
        assert_eq!(a, b);
    }

    #[test]
    fn points_roundtrip_through_serde() {
        let points = vec![
            CoveragePoint::Site {
                store: "s".into(),
                load: "l".into(),
            },
            CoveragePoint::Audit {
                outcome: "recovery_failed".into(),
                detail: String::new(),
            },
            CoveragePoint::Io {
                script: "artifact:write:0:torn".into(),
                survived: false,
            },
        ];
        let json = serde_json::to_string(&points).unwrap();
        let back: Vec<CoveragePoint> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, points);
        assert!(points[0].render().contains("site s -> l"));
    }
}
