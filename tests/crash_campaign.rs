//! End-to-end crash-injection acceptance tests.
//!
//! 1. A registered application is crashed at injected crash points, each
//!    persisted-only image is restarted in a fresh environment and run
//!    through the application's own recovery + invariant audit:
//!    a race-free configuration passes at *every* injected point, while
//!    the known-racy configuration fails at points inside the bug window —
//!    and the failure is attributable to a race HawkSet reports on the
//!    same run's trace.
//! 2. A supervised campaign with an injected hung round and an injected
//!    panicking round completes the remaining rounds, records
//!    `TimedOut`/`Panicked`, and `--resume` re-runs only unfinished
//!    rounds.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use hawkset::apps::fastfair::{run_fastfair, FastFairApp, FastFairBugs};
use hawkset::apps::pclht::PclhtApp;
use hawkset::apps::turbohash::TurboHashApp;
use hawkset::apps::{Application, ExecOptions};
use hawkset::baseline::{
    attribute_races, load_checkpoint, run_crash_campaign, CrashCampaignConfig, FaultKind,
    InjectedFault, RoundOutcome,
};
use hawkset::core::analysis::Analyzer;
use hawkset::runtime::{CrashImage, CrashInjector, CrashMode, PmEnv};
use hawkset::workloads::WorkloadSpec;

/// Restarts `app` from a captured persisted-only image — every pool
/// remapped in its original mapping order, so recovered addresses match —
/// and runs recovery plus the invariant audit.
fn audit(app: &dyn Application, image: &CrashImage) -> Result<(), String> {
    let env = PmEnv::new();
    let pools: Vec<_> = image
        .pools
        .iter()
        .map(|p| env.map_pool_from_image(p.path.clone(), p.bytes.clone()))
        .collect();
    let pool = pools.first().expect("crash image holds at least one pool");
    let t = env.main_thread();
    app.recover(pool, &t)
        .map_err(|e| format!("crash at op {}: {e}", image.op_index))?;
    match app.check_invariants(pool, &t).first() {
        None => Ok(()),
        Some(v) => Err(format!("crash at op {}: {v}", image.op_index)),
    }
}

/// Runs Fast-Fair under dense continue-mode crash points, auditing every
/// captured image as it streams out (a sink, so images are never held in
/// memory together). Returns (audit failures, images captured, trace).
fn crash_sweep(
    bugs: FastFairBugs,
    workload_seed: u64,
    points: impl IntoIterator<Item = u64>,
) -> (Vec<String>, u64, hawkset::core::Trace) {
    let w = WorkloadSpec::paper(2000, workload_seed).generate();
    let injector = CrashInjector::at_points(points, CrashMode::Continue);
    let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_failures = Arc::clone(&failures);
    injector.set_sink(move |image| {
        if let Err(e) = audit(&FastFairApp, &image) {
            sink_failures.lock().expect("sink lock").push(e);
        }
    });
    let opts = ExecOptions {
        crash: Some(Arc::clone(&injector)),
        ..Default::default()
    };
    let result = run_fastfair(&w, &opts, bugs);
    let failures = failures.lock().expect("sink lock").clone();
    (failures, injector.images_captured(), result.trace)
}

/// Crash points across the single-threaded load phase and into the
/// concurrent main phase. The load phase alone issues thousands of PM
/// operations (1000 ascending inserts), so this covers root splits, leaf
/// splits, and backlog-drain boundaries.
fn dense_points() -> impl Iterator<Item = u64> {
    (0..40_000u64).step_by(97)
}

#[test]
fn race_free_configuration_recovers_at_every_injected_crash_point() {
    let (failures, captured, _trace) = crash_sweep(
        FastFairBugs {
            late_parent_persist: false,
        },
        11,
        dense_points(),
    );
    assert!(
        captured > 50,
        "the sweep must actually capture images, got {captured}"
    );
    assert!(
        failures.is_empty(),
        "with persists inside the critical sections every crash point must \
         recover cleanly; {} of {captured} failed, first: {}",
        failures.len(),
        failures[0]
    );
}

#[test]
fn racy_configuration_fails_recovery_audit_and_is_attributable() {
    let (failures, captured, trace) = crash_sweep(FastFairBugs::default(), 7, dense_points());
    assert!(
        captured > 50,
        "the sweep must actually capture images, got {captured}"
    );
    // (b) the known-racy configuration leaves crash windows: a split's
    // sibling/shrink persists are deferred past the lock release, so
    // points inside the window see a torn tree.
    assert!(
        !failures.is_empty(),
        "the buggy tree must fail its audit at some of {captured} crash points"
    );
    // ...and the failure is attributable: HawkSet reports the responsible
    // malign race on the very same run's trace.
    let report = Analyzer::default().run(&trace);
    let attributed = attribute_races(&report.races, &FastFairApp.known_races(), None);
    assert!(
        attributed.iter().any(|a| a.bug_id == 1 || a.bug_id == 2),
        "the audit failure must be attributable to Table 2 bug #1/#2, got {attributed:?}"
    );
}

#[test]
fn campaign_survives_hung_and_panicking_rounds_and_resumes() {
    let dir = std::env::temp_dir().join(format!("hawkset-crashtest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ckpt = dir.join("campaign.json");
    let _ = std::fs::remove_file(&ckpt);

    let app: Arc<dyn Application> = Arc::new(FastFairApp);
    let cfg = CrashCampaignConfig {
        rounds: 4,
        crash_points: 2,
        main_ops: 24,
        seed: 9,
        round_timeout: Duration::from_secs(30),
        max_retries: 0,
        checkpoint: Some(ckpt.clone()),
        resume: false,
        analysis_threads: 1,
        suggest_fixes: false,
        faults: vec![
            InjectedFault {
                round: 1,
                kind: FaultKind::Hang,
                first_attempts: u32::MAX,
            },
            InjectedFault {
                round: 2,
                kind: FaultKind::Panic,
                first_attempts: u32::MAX,
            },
        ],
        ..Default::default()
    };
    // The hung round must actually hit the watchdog, so give IT a short
    // deadline while healthy rounds get a comfortable one — the fault
    // hangs for 4x the timeout, so a short timeout keeps the test fast.
    let cfg = CrashCampaignConfig {
        round_timeout: Duration::from_secs(5),
        ..cfg
    };

    let first = run_crash_campaign(&app, &cfg).expect("campaign runs");
    assert_eq!(first.records.len(), 4, "all four rounds must be recorded");
    assert_eq!(
        first.records[1].outcome,
        RoundOutcome::TimedOut,
        "hung round times out"
    );
    assert!(
        matches!(&first.records[2].outcome, RoundOutcome::Panicked { message } if message.contains("injected fault")),
        "panicking round records its payload: {:?}",
        first.records[2].outcome
    );
    for healthy in [0usize, 3] {
        assert!(
            !first.records[healthy].outcome.is_transient(),
            "round {healthy} must complete despite its misbehaving neighbours: {:?}",
            first.records[healthy].outcome
        );
        assert!(first.records[healthy].images_captured > 0);
    }

    // The checkpoint on disk reflects every finished round.
    let ck = load_checkpoint(&ckpt).expect("checkpoint parses");
    assert_eq!(ck.app, app.name());
    assert_eq!(ck.completed.len(), 4);

    // Resume with two more rounds: the four recorded rounds are loaded,
    // not re-run — only rounds 4 and 5 execute.
    let resumed_cfg = CrashCampaignConfig {
        rounds: 6,
        resume: true,
        faults: Vec::new(),
        ..cfg
    };
    let resumed = run_crash_campaign(&app, &resumed_cfg).expect("resume runs");
    assert!(resumed.resumed_from_checkpoint);
    assert_eq!(
        resumed.executed_this_run, 2,
        "only the two unfinished rounds run"
    );
    assert_eq!(resumed.records.len(), 6);
    for (a, b) in first.records.iter().zip(&resumed.records) {
        assert_eq!(
            a.outcome, b.outcome,
            "round {} must be loaded, not re-run",
            a.round
        );
        assert_eq!(
            a.duration_ms, b.duration_ms,
            "round {}'s record must be byte-identical to the checkpointed one",
            a.round
        );
    }
    // A seed mismatch is rejected rather than silently mixing campaigns.
    let wrong_seed = CrashCampaignConfig {
        seed: 10,
        ..resumed_cfg
    };
    let err = run_crash_campaign(&app, &wrong_seed).expect_err("seed mismatch must fail");
    assert!(err.contains("seed"), "error names the mismatch: {err}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Baseline campaign parameters for the steering acceptance tests.
fn campaign_cfg(seed: u64, rounds: u64) -> CrashCampaignConfig {
    CrashCampaignConfig {
        rounds,
        crash_points: 3,
        main_ops: 24,
        seed,
        round_timeout: Duration::from_secs(120),
        max_retries: 1,
        analysis_threads: 1,
        ..Default::default()
    }
}

/// Acceptance: at an equal round budget and the same seed, the
/// coverage-guided campaign must discover strictly more distinct race
/// sites than the uniform baseline. PCLHT is the vehicle: its uniform
/// runs are byte-reproducible at this size (4 sites), while steered runs
/// land on 7–8 — comfortably above the strict bound even when an
/// interleaving-dependent site flickers.
#[test]
fn steered_campaign_discovers_strictly_more_sites_than_uniform() {
    let app: Arc<dyn Application> = Arc::new(PclhtApp);
    let uniform = run_crash_campaign(&app, &campaign_cfg(5, 12)).expect("uniform campaign runs");
    let steered_cfg = CrashCampaignConfig {
        steer: true,
        ..campaign_cfg(5, 12)
    };
    let steered = run_crash_campaign(&app, &steered_cfg).expect("steered campaign runs");

    let u = uniform.coverage_report();
    let s = steered.coverage_report();
    assert!(
        u.race_sites >= 1,
        "the uniform baseline must find something to compare against"
    );
    assert!(
        s.race_sites > u.race_sites,
        "steering must discover strictly more race sites than uniform at \
         the same budget: steered {} vs uniform {} ({:?} vs {:?})",
        s.race_sites,
        u.race_sites,
        s.sites,
        u.sites
    );
    // Steering explores *around* the uniform baseline (derived plans graft
    // perturbations onto the same per-round workloads), so it should keep
    // a corpus and a discovery timeline worth reporting.
    assert!(
        s.corpus_size >= 1,
        "coverage-adding rounds enter the corpus"
    );
    assert_eq!(
        s.timeline.len(),
        12,
        "one discovery tick per round, got {:?}",
        s.timeline
    );
    let replayed: u64 = s.timeline.iter().map(|t| t.new_points).sum();
    assert_eq!(
        replayed, s.points_total,
        "ticks must partition the coverage set"
    );
    for w in s.timeline.windows(2) {
        assert!(
            w[1].total_points >= w[0].total_points,
            "cumulative coverage is monotone: {:?}",
            s.timeline
        );
    }
}

/// Acceptance: a campaign interrupted mid-flight and resumed from its
/// checkpoint converges to the same coverage set, site list, and
/// per-round outcomes as the uninterrupted run — the corpus is rebuilt
/// from the checkpointed plans, so steering continues exactly.
///
/// TurboHash is the vehicle: comparing an interrupted+resumed campaign
/// against an uninterrupted one compares two *independent executions*,
/// so the app's traces must be byte-reproducible even under steered
/// (delayed, mutated) rounds. TurboHash's are; PCLHT's occasionally
/// flicker one interleaving-dependent site, which would flake the exact
/// equality this test exists to assert.
#[test]
fn interrupted_steered_campaign_resumes_to_identical_coverage() {
    let dir = std::env::temp_dir().join(format!("hawkset-steer-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let app: Arc<dyn Application> = Arc::new(TurboHashApp);

    // The reference: 12 steered rounds, never interrupted.
    let full_cfg = CrashCampaignConfig {
        steer: true,
        ..campaign_cfg(5, 12)
    };
    let full = run_crash_campaign(&app, &full_cfg).expect("uninterrupted campaign runs");

    // The interrupted run: the same campaign stops after round 4 (as if
    // SIGKILLed; the checkpoint is written after every round, so stopping
    // at a round boundary is exactly the on-disk state a kill leaves),
    // then resumes to the full 12.
    let ckpt = dir.join("steer.json");
    let _ = std::fs::remove_file(&ckpt);
    let partial_cfg = CrashCampaignConfig {
        checkpoint: Some(ckpt.clone()),
        ..CrashCampaignConfig {
            steer: true,
            ..campaign_cfg(5, 5)
        }
    };
    run_crash_campaign(&app, &partial_cfg).expect("partial campaign runs");
    let resumed_cfg = CrashCampaignConfig {
        rounds: 12,
        resume: true,
        ..partial_cfg.clone()
    };
    let resumed = run_crash_campaign(&app, &resumed_cfg).expect("resumed campaign runs");
    assert!(resumed.resumed_from_checkpoint);
    assert_eq!(
        resumed.executed_this_run, 7,
        "only the seven unfinished rounds run after resume"
    );

    let a = full.coverage_report();
    let b = resumed.coverage_report();
    assert_eq!(
        a.sites, b.sites,
        "kill + resume must converge to the uninterrupted run's race sites"
    );
    assert_eq!(a, b, "the full coverage reports (timeline included) match");
    let outcomes = |r: &hawkset::baseline::CrashCampaignResult| {
        r.records
            .iter()
            .map(|x| x.outcome.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        outcomes(&full),
        outcomes(&resumed),
        "per-round outcomes match round for round"
    );

    // A steered resume whose config changed what rounds do is refused —
    // the corpus rebuilt from the records would diverge from the rounds
    // that produced them.
    let drifted = CrashCampaignConfig {
        main_ops: 32,
        ..resumed_cfg.clone()
    };
    let err = run_crash_campaign(&app, &drifted).expect_err("fingerprint drift must fail");
    assert!(
        err.contains("fingerprint"),
        "error names the fingerprint mismatch: {err}"
    );

    // A checkpoint written before steering existed carries no plans to
    // rebuild the corpus from; a steered resume refuses it.
    let mut old = load_checkpoint(&ckpt).expect("checkpoint parses");
    old.fingerprint = None;
    std::fs::write(
        &ckpt,
        serde_json::to_string_pretty(&old).expect("checkpoint serializes"),
    )
    .expect("checkpoint rewrites");
    let err = run_crash_campaign(&app, &resumed_cfg).expect_err("pre-steering checkpoint refused");
    assert!(
        err.contains("steer"),
        "error explains the checkpoint predates steering: {err}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
