//! Repair verdicts on real application traces. Each of the eight apps the
//! `analyze-fixes` benchmark analyzes is recorded once, at a small
//! operation count, and every candidate patch the repair step plans —
//! not only the one it emits — must get the same verdict from its
//! footprint on the baseline as from a full replay of the patch
//! (`RepairValidator::validates`). Both verdicts analyze the same
//! recording, so the real-thread schedule cannot make the comparison
//! flaky.

use hawkset::apps::{all_apps, Application};
use hawkset::core::analysis::{AnalysisConfig, Analyzer, FixKind, RepairValidator};
use hawkset::core::trace::TraceView;

/// The apps of the `analyze-fixes` benchmark.
const APPS: [&str; 8] = [
    "Fast-Fair",
    "TurboHash",
    "P-CLHT",
    "P-Masstree",
    "MadFS",
    "Memcached-pmem",
    "WIPE",
    "APEX",
];

/// Records `app` at 200 operations and checks every candidate's verdict;
/// returns how many flushes and lock extensions it checked, and how many
/// validated.
fn check(app: &dyn Application) -> (usize, usize, usize) {
    let cfg = AnalysisConfig::default();
    let trace = app.execute(&app.default_workload(200, 7));
    let report = Analyzer::new(cfg.clone()).run(&trace);
    let view = TraceView::full(&trace);
    let validator = RepairValidator::new(&view, &report.races, &cfg);
    let candidates = validator.candidates(&report.races);
    let verdicts = validator.verdicts(&candidates);
    let mut counts = (0, 0, 0);
    for ((kind, target), verdict) in candidates.iter().zip(verdicts) {
        assert_eq!(
            verdict,
            validator.validates(kind, *target),
            "{}: {} for {target:?}",
            app.name(),
            kind.summary()
        );
        match kind {
            FixKind::FlushFence { .. } => counts.0 += 1,
            FixKind::LockExtension { .. } => counts.1 += 1,
        }
        counts.2 += usize::from(verdict);
    }
    counts
}

#[test]
fn every_candidate_verdict_on_app_traces_matches_a_replay() {
    let apps: Vec<_> = all_apps()
        .into_iter()
        .filter(|a| APPS.contains(&a.name()))
        .collect();
    assert_eq!(apps.len(), APPS.len());
    // One thread per app: the replays dominate, and the apps are
    // independent.
    let counts: Vec<(usize, usize, usize)> = std::thread::scope(|s| {
        let runs: Vec<_> = apps
            .iter()
            .map(|app| s.spawn(|| check(app.as_ref())))
            .collect();
        runs.into_iter()
            .map(|run| run.join().expect("an app's check panicked"))
            .collect()
    });
    let (flushes, extensions, validated) = counts
        .iter()
        .fold((0, 0, 0), |a, c| (a.0 + c.0, a.1 + c.1, a.2 + c.2));
    eprintln!("{flushes} flushes, {extensions} lock extensions, {validated} validated");
    assert!(
        flushes > 0 && extensions > 0,
        "both patch kinds are checked"
    );
    assert!(validated > 0, "some candidate validates");
}
