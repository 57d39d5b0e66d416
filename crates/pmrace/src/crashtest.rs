//! Supervised crash-injection campaigns.
//!
//! HawkSet *infers* which races can corrupt persistent state; PMRace's
//! post-failure stage and Durinn's crash-state testing *confirm* bugs by
//! actually producing the crash state and re-running recovery on it. This
//! module is that confirming loop for the reproduction:
//!
//! 1. each **round** runs an application workload under a
//!    [`CrashInjector`] in continue mode, capturing the persisted-only
//!    pool image at deterministic `(seed, op-index)` crash points;
//! 2. every captured image is **audited**: the pools are remapped into a
//!    fresh environment ([`PmEnv::map_pool_from_image`]), the
//!    application's [`recover`](Application::recover) runs, and
//!    [`check_invariants`](Application::check_invariants) looks for
//!    corruption recovery cannot repair;
//! 3. the round's trace goes through the HawkSet analysis, and any malign
//!    known race it reports is attached to the round — joining "the crash
//!    state is broken" with "this race explains why";
//! 4. the whole round runs under the shared supervisor
//!    ([`run_isolated`]): a panic-isolated worker with a watchdog
//!    deadline. Transient failures (`Panicked`, `TimedOut`) are retried in
//!    place after [`Backoff::DEFAULT`], while findings (`RecoveryFailed`,
//!    `InvariantViolated`) are terminal;
//! 5. campaign state is **checkpointed** after every round through the one
//!    durable write ([`write_atomic`], site `checkpoint`: tmp, fsync,
//!    rename, directory fsync, on the process's fault plane), so a killed
//!    campaign resumes exactly where it stopped, re-running only
//!    unfinished rounds.

use std::collections::{BTreeSet, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hawkset_core::analysis::{AnalysisConfig, Analyzer, FixReport, FixSuggestion, Race};
use hawkset_core::ioplane::{plane_from_env, write_atomic, FaultScript, ScriptedIo};
use hawkset_core::supervise::{run_isolated, Backoff, Failure};
use pm_apps::registry::{KnownRace, RaceClass};
use pm_apps::{Application, ExecOptions};
use pm_runtime::{CrashImage, CrashInjector, CrashMode, PmEnv};
use serde::{Deserialize, Serialize};

use crate::coverage::{extract_coverage, CoveragePoint};
use crate::delay::{DelayInjector, DelaySpec};
use crate::steer::{materialize_workload, round_seed, AxisSet, RoundPlan, Steer};

/// How one campaign round ended. `Ok`, `RecoveryFailed` and
/// `InvariantViolated` are terminal (the latter two are the findings the
/// campaign exists to produce); `Panicked` and `TimedOut` are transient
/// and retried up to [`CrashCampaignConfig::max_retries`] times.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "kind")]
pub enum RoundOutcome {
    /// Every captured crash state recovered and passed its audit.
    Ok,
    /// The workload (or audit) panicked.
    Panicked {
        /// The panic payload, if it carried a message.
        message: String,
    },
    /// The round missed its watchdog deadline.
    TimedOut,
    /// A captured crash state could not be reopened at all.
    RecoveryFailed {
        /// What recovery reported.
        error: String,
        /// The op index of the crash point whose image failed.
        crash_op: u64,
    },
    /// Recovery succeeded but the audit found corruption.
    InvariantViolated {
        /// Rendered violations, worst image only.
        violations: Vec<String>,
        /// The op index of the crash point whose image failed.
        crash_op: u64,
    },
}

impl RoundOutcome {
    /// Transient outcomes are retried; terminal ones (including findings)
    /// are not.
    pub fn is_transient(&self) -> bool {
        matches!(self, RoundOutcome::Panicked { .. } | RoundOutcome::TimedOut)
    }

    /// `true` for the two finding outcomes.
    pub fn is_finding(&self) -> bool {
        matches!(
            self,
            RoundOutcome::RecoveryFailed { .. } | RoundOutcome::InvariantViolated { .. }
        )
    }
}

/// A malign known race that the round's HawkSet analysis reported — the
/// join between a confirmed crash-state failure and its likely cause.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttributedRace {
    /// Table 2 bug id.
    pub bug_id: u32,
    /// Store site frame name.
    pub store_fn: String,
    /// Load site frame name.
    pub load_fn: String,
    /// Ground-truth description.
    pub description: String,
    /// Replay-validated repair suggestion for the matched race (present
    /// only when the campaign ran with
    /// [`CrashCampaignConfig::suggest_fixes`] and the race got one);
    /// skipped when absent so pre-existing campaign records round-trip
    /// byte-identically.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub fix: Option<String>,
}

/// Everything recorded about one campaign round.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round index within the campaign.
    pub round: u64,
    /// Final outcome (after retries).
    pub outcome: RoundOutcome,
    /// Retries spent on transient failures before settling.
    pub retries: u32,
    /// The crash points injected (empty if the round never completed).
    pub crash_points: Vec<u64>,
    /// The measured PM-operation horizon crash points were placed in.
    /// Placement is a pure function of `(seed, round, horizon)`; the
    /// horizon itself varies with thread interleaving, so it is recorded
    /// to keep rounds auditable and re-derivable.
    pub op_horizon: u64,
    /// Crash images captured and audited.
    pub images_captured: u64,
    /// Malign known races the round's trace analysis reported.
    pub attributed: Vec<AttributedRace>,
    /// Wall-clock time including retries.
    pub duration_ms: u64,
    /// The round's deterministic coverage signature (see
    /// [`extract_coverage`]); skipped when empty so pre-existing campaign
    /// records round-trip byte-identically.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub coverage: Vec<CoveragePoint>,
    /// The steered plan the round executed (`None` for uniform rounds).
    /// Carried in the checkpoint so `--resume` rebuilds the corpus from
    /// the records alone.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub plan: Option<RoundPlan>,
}

/// Campaign state persisted after every round — the `--resume` format.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CampaignCheckpoint {
    /// Application name; a resume against a different app is rejected.
    pub app: String,
    /// Campaign seed; a resume with a different seed is rejected.
    pub seed: u64,
    /// Total rounds the campaign was asked for.
    pub rounds: u64,
    /// Records of the rounds finished so far.
    pub completed: Vec<RoundRecord>,
    /// [`CrashCampaignConfig::fingerprint`] of the recording campaign.
    /// `None` on checkpoints written before steering existed; a steered
    /// resume refuses those, since the records carry no plans to rebuild
    /// the corpus from.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub fingerprint: Option<String>,
}

/// Which transient failure a test harness wants simulated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker sleeps past the watchdog deadline, then exits without
    /// running the round.
    Hang,
    /// The worker panics immediately.
    Panic,
}

/// A supervision-test fault: round `round` misbehaves on every attempt
/// numbered below `first_attempts` (so `u32::MAX` means "always").
#[derive(Clone, Copy, Debug)]
pub struct InjectedFault {
    /// The round the fault applies to.
    pub round: u64,
    /// What goes wrong.
    pub kind: FaultKind,
    /// Attempts 0..first_attempts misbehave; later retries run normally.
    pub first_attempts: u32,
}

/// Crash-campaign parameters.
#[derive(Clone, Debug)]
pub struct CrashCampaignConfig {
    /// Rounds to run.
    pub rounds: u64,
    /// Crash points injected per round.
    pub crash_points: usize,
    /// Main-phase operations per round's workload.
    pub main_ops: u64,
    /// Campaign seed: drives per-round workload generation and crash-point
    /// placement.
    pub seed: u64,
    /// Watchdog deadline per attempt.
    pub round_timeout: Duration,
    /// Retries allowed per round for transient failures, each after
    /// [`Backoff::DEFAULT`].
    pub max_retries: u32,
    /// Where to checkpoint after every round (`None` = no checkpointing).
    pub checkpoint: Option<PathBuf>,
    /// Load `checkpoint` first and re-run only unfinished rounds.
    pub resume: bool,
    /// Supervision-test faults (empty in production use).
    pub faults: Vec<InjectedFault>,
    /// Worker threads for each round's race analysis (`0` = available
    /// parallelism); see [`Analyzer::threads`].
    pub analysis_threads: usize,
    /// Compute replay-validated repair suggestions in each round's
    /// analysis and attach them to the attributed ground-truth races.
    pub suggest_fixes: bool,
    /// Coverage-guided steering: derive round plans from a corpus of
    /// coverage-adding rounds instead of uniform per-round seeds.
    pub steer: bool,
    /// Which axes steering may mutate (ignored when `steer` is off).
    pub axes: AxisSet,
    /// Base delay-injection probability applied to every round, in
    /// `[0.0, 1.0]`; validated (not clamped) by [`Self::validate`].
    pub delay_probability: f64,
    /// Base delay upper bound, microseconds.
    pub max_delay_us: u64,
}

impl Default for CrashCampaignConfig {
    fn default() -> Self {
        Self {
            rounds: 4,
            crash_points: 8,
            main_ops: 200,
            seed: 1,
            round_timeout: Duration::from_secs(30),
            max_retries: 2,
            checkpoint: None,
            resume: false,
            faults: Vec::new(),
            analysis_threads: 0,
            suggest_fixes: false,
            steer: false,
            axes: AxisSet::default(),
            delay_probability: 0.0,
            max_delay_us: 0,
        }
    }
}

impl CrashCampaignConfig {
    /// Rejects configurations that would previously have been silently
    /// clamped or would corrupt a campaign: zero rounds, and NaN or
    /// out-of-range delay probabilities.
    pub fn validate(&self) -> Result<(), String> {
        if self.rounds == 0 {
            return Err("rounds must be at least 1".into());
        }
        if !self.delay_probability.is_finite() || !(0.0..=1.0).contains(&self.delay_probability) {
            return Err(format!(
                "delay probability must be a finite value in [0, 1], got {}",
                self.delay_probability
            ));
        }
        Ok(())
    }

    /// The base delay schedule every round starts from.
    pub fn base_delay(&self) -> DelaySpec {
        DelaySpec::uniform(self.delay_probability, self.max_delay_us)
    }

    /// Fingerprint of every config knob that changes what rounds *do*, as
    /// readable `key=value` pairs (the analysis checkpoint's style) — a
    /// resumed campaign must match the checkpoint's fingerprint exactly,
    /// otherwise steering state rebuilt from the records would diverge
    /// from the rounds that produced them.
    pub fn fingerprint(&self) -> String {
        let base = self.base_delay();
        format!(
            "v1;steer={};axes={};crash_points={};main_ops={};delay={}:{}",
            u8::from(self.steer),
            self.axes.render(),
            self.crash_points,
            self.main_ops,
            base.prob_1024,
            base.max_delay_us,
        )
    }
}

/// One round's slot in the coverage discovery timeline.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageTick {
    /// Round index.
    pub round: u64,
    /// Coverage points this round saw first.
    pub new_points: u64,
    /// Cumulative distinct points after this round.
    pub total_points: u64,
}

/// Version of the coverage report shape.
pub const COVERAGE_REPORT_VERSION: u64 = 1;

/// The `coverage` section of the crashtest JSON report: what the campaign
/// discovered, and when. Deterministic for a deterministic campaign.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageReport {
    /// [`COVERAGE_REPORT_VERSION`].
    pub version: u64,
    /// Distinct coverage points across all rounds.
    pub points_total: u64,
    /// Distinct race sites (`Site` points) across all rounds.
    pub race_sites: u64,
    /// Rounds that discovered at least one new point (the corpus size a
    /// steered campaign would rebuild from these records).
    pub corpus_size: u64,
    /// Rendered distinct race sites, sorted (`store -> load`).
    pub sites: Vec<String>,
    /// Per-round discovery timeline, in round order.
    pub timeline: Vec<CoverageTick>,
}

/// The outcome of a whole campaign.
#[derive(Debug)]
pub struct CrashCampaignResult {
    /// One record per round, in round order (resumed rounds included).
    pub records: Vec<RoundRecord>,
    /// Rounds executed by *this* invocation (excludes resumed ones).
    pub executed_this_run: u64,
    /// `true` if prior rounds were loaded from a checkpoint.
    pub resumed_from_checkpoint: bool,
    /// Wall-clock time of this invocation.
    pub duration: Duration,
}

impl CrashCampaignResult {
    /// `true` when every round ended [`RoundOutcome::Ok`].
    pub fn all_ok(&self) -> bool {
        self.records.iter().all(|r| r.outcome == RoundOutcome::Ok)
    }

    /// Rounds whose outcome is a finding.
    pub fn findings(&self) -> impl Iterator<Item = &RoundRecord> {
        self.records.iter().filter(|r| r.outcome.is_finding())
    }

    /// Builds the campaign's coverage report by replaying the records'
    /// coverage signatures in round order (`records` is already sorted).
    pub fn coverage_report(&self) -> CoverageReport {
        let mut seen: BTreeSet<CoveragePoint> = BTreeSet::new();
        let mut timeline = Vec::with_capacity(self.records.len());
        let mut corpus_size = 0u64;
        for rec in &self.records {
            let before = seen.len();
            seen.extend(rec.coverage.iter().cloned());
            let new_points = (seen.len() - before) as u64;
            if new_points > 0 {
                corpus_size += 1;
            }
            timeline.push(CoverageTick {
                round: rec.round,
                new_points,
                total_points: seen.len() as u64,
            });
        }
        let sites: Vec<String> = seen
            .iter()
            .filter_map(|p| match p {
                CoveragePoint::Site { store, load } => Some(format!("{store} -> {load}")),
                _ => None,
            })
            .collect();
        CoverageReport {
            version: COVERAGE_REPORT_VERSION,
            points_total: seen.len() as u64,
            race_sites: sites.len() as u64,
            corpus_size,
            sites,
            timeline,
        }
    }

    /// Aggregates the campaign into a [`CampaignMetrics`] object — the
    /// crashtest counterpart of the analyzer's metrics snapshot, written
    /// by `hawkset crashtest --metrics`.
    ///
    /// Outcome, retry, image and crash-point counters are deterministic
    /// for a deterministic campaign; wall-clock data lives in the `timing`
    /// subobject. `timing.backoff_ms_total` is *reconstructed* from the
    /// retry counts and [`Backoff::DEFAULT`] — the schedule the supervisor
    /// sleeps, so the two cannot drift — which makes it deterministic too,
    /// but it sits in `timing` because it measures waiting, not work.
    ///
    /// `_cfg` is unused — the backoff schedule is not configurable — but
    /// stays in the signature so existing callers, the end-to-end
    /// benchmark among them, compile unchanged.
    pub fn metrics(&self, _cfg: &CrashCampaignConfig) -> CampaignMetrics {
        let mut m = CampaignMetrics {
            version: CAMPAIGN_METRICS_VERSION,
            rounds_total: self.records.len() as u64,
            ..CampaignMetrics::default()
        };
        for rec in &self.records {
            match rec.outcome {
                RoundOutcome::Ok => m.rounds_ok += 1,
                RoundOutcome::Panicked { .. } => m.rounds_panicked += 1,
                RoundOutcome::TimedOut => m.rounds_timed_out += 1,
                RoundOutcome::RecoveryFailed { .. } => m.rounds_recovery_failed += 1,
                RoundOutcome::InvariantViolated { .. } => m.rounds_invariant_violated += 1,
            }
            m.retries_total += u64::from(rec.retries);
            m.images_captured_total += rec.images_captured;
            m.crash_points_total += rec.crash_points.len() as u64;
            m.races_attributed_total += rec.attributed.len() as u64;
            for attempt in 0..rec.retries {
                m.timing.backoff_ms_total += Backoff::DEFAULT.delay(attempt).as_millis() as u64;
            }
            m.timing.round_ms_total += rec.duration_ms;
        }
        m.timing.total_ms = self.duration.as_secs_f64() * 1e3;
        m
    }
}

/// Version of the campaign metrics shape.
pub const CAMPAIGN_METRICS_VERSION: u64 = 1;

/// Wall-clock section of [`CampaignMetrics`] — everything here is
/// machine- or schedule-dependent (except the reconstructed backoff sum,
/// which still measures waiting rather than work).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignTiming {
    /// Wall-clock time of this invocation.
    pub total_ms: f64,
    /// Sum of per-round durations (including retries).
    pub round_ms_total: u64,
    /// Total supervisor backoff sleep, reconstructed from retry counts and
    /// [`Backoff::DEFAULT`], the schedule the supervisor sleeps.
    pub backoff_ms_total: u64,
}

/// Aggregated campaign counters: per-outcome round counts, retry/backoff
/// totals, capture totals. The per-outcome counts partition
/// `rounds_total` (the sum of `rounds_ok`, `rounds_panicked`,
/// `rounds_timed_out`, `rounds_recovery_failed` and
/// `rounds_invariant_violated`) by construction, and the law is checked
/// by [`CampaignMetrics::conservation_violations`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignMetrics {
    /// [`CAMPAIGN_METRICS_VERSION`].
    pub version: u64,
    /// Rounds recorded (resumed rounds included).
    pub rounds_total: u64,
    /// Rounds that ended [`RoundOutcome::Ok`].
    pub rounds_ok: u64,
    /// Rounds that settled as [`RoundOutcome::Panicked`] after retries.
    pub rounds_panicked: u64,
    /// Rounds that settled as [`RoundOutcome::TimedOut`] after retries.
    pub rounds_timed_out: u64,
    /// Rounds ending in [`RoundOutcome::RecoveryFailed`].
    pub rounds_recovery_failed: u64,
    /// Rounds ending in [`RoundOutcome::InvariantViolated`].
    pub rounds_invariant_violated: u64,
    /// Transient-failure retries across all rounds.
    pub retries_total: u64,
    /// Crash images captured and audited across all rounds.
    pub images_captured_total: u64,
    /// Crash points injected across all rounds.
    pub crash_points_total: u64,
    /// Malign known races attributed across all rounds.
    pub races_attributed_total: u64,
    /// Wall-clock section.
    pub timing: CampaignTiming,
}

impl CampaignMetrics {
    /// Pretty-printed standalone JSON (the `--metrics` file format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("campaign metrics serialization cannot fail")
    }

    /// Checks the per-outcome round accounting; one line per violation.
    pub fn conservation_violations(&self) -> Vec<String> {
        let rhs = self.rounds_ok
            + self.rounds_panicked
            + self.rounds_timed_out
            + self.rounds_recovery_failed
            + self.rounds_invariant_violated;
        if self.rounds_total != rhs {
            vec![format!(
                "campaign law violated: rounds_total ({}) != sum of per-outcome counts ({})",
                self.rounds_total, rhs,
            )]
        } else {
            Vec::new()
        }
    }
}

/// Matches a report against the malign ground truth, returning every
/// Table 2 bug the analysis confirmed (deduplicated by bug id). When the
/// report carries repair suggestions, each attributed bug is joined with
/// the suggestion targeting its matched race.
pub fn attribute_races(
    races: &[Race],
    known: &[KnownRace],
    fixes: Option<&FixReport>,
) -> Vec<AttributedRace> {
    known
        .iter()
        .filter(|k| k.class == RaceClass::Malign)
        .filter_map(|k| {
            let race = races.iter().find(|r| k.matches(r))?;
            let fix = fixes.and_then(|f| {
                f.suggestions
                    .iter()
                    .find(|s| s.race == race.key)
                    .map(FixSuggestion::summary)
            });
            Some(AttributedRace {
                bug_id: k.id,
                store_fn: k.store_fn.to_string(),
                load_fn: k.load_fn.to_string(),
                description: k.description.to_string(),
                fix,
            })
        })
        .collect()
}

/// Loads a checkpoint file.
pub fn load_checkpoint(path: &Path) -> Result<CampaignCheckpoint, String> {
    let raw = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
    serde_json::from_str(&raw)
        .map_err(|e| format!("checkpoint {} is not valid: {e}", path.display()))
}

/// What a worker sends back when it finishes (as opposed to panicking or
/// hanging).
struct WorkerReport {
    outcome: RoundOutcome,
    crash_points: Vec<u64>,
    op_horizon: u64,
    images_captured: u64,
    attributed: Vec<AttributedRace>,
    coverage: Vec<CoveragePoint>,
}

/// Audits one captured crash image: remap every pool (in mapping order, so
/// addresses match), run recovery, then the invariant audit. Returns the
/// failure outcome, or `None` if the image is sound.
fn audit_image(app: &dyn Application, image: &CrashImage) -> Option<RoundOutcome> {
    let renv = PmEnv::new();
    let pools: Vec<_> = image
        .pools
        .iter()
        .map(|p| renv.map_pool_from_image(p.path.clone(), p.bytes.clone()))
        .collect();
    let first = pools.first()?;
    let t = renv.main_thread();
    match app.recover(first, &t) {
        Err(e) => Some(RoundOutcome::RecoveryFailed {
            error: e.0,
            crash_op: image.op_index,
        }),
        Ok(()) => {
            let violations = app.check_invariants(first, &t);
            if violations.is_empty() {
                None
            } else {
                Some(RoundOutcome::InvariantViolated {
                    violations: violations.iter().map(ToString::to_string).collect(),
                    crash_op: image.op_index,
                })
            }
        }
    }
}

/// Runs the plan's storage-fault probe: a scripted-fault atomic write in
/// a fresh temp directory. The probe exercises the checkpoint/artifact
/// write path (`write_atomic`) under the scheduled fault and reports
/// whether it survived — an io-axis coverage point.
fn io_probe(script: &str) -> Option<CoveragePoint> {
    let faults = FaultScript::parse(script).ok()?;
    let plane = ScriptedIo::new(faults);
    let dir = std::env::temp_dir().join(format!(
        "hawkset-io-probe-{}-{:x}",
        std::process::id(),
        // Unique per probe within the process without consulting a clock.
        {
            use std::sync::atomic::{AtomicU64, Ordering};
            static N: AtomicU64 = AtomicU64::new(0);
            N.fetch_add(1, Ordering::Relaxed)
        }
    ));
    std::fs::create_dir_all(&dir).ok()?;
    let survived = write_atomic(&plane, "campaign", &dir.join("probe.json"), b"{}\n").is_ok();
    let _ = std::fs::remove_dir_all(&dir);
    Some(CoveragePoint::Io {
        script: script.to_string(),
        survived,
    })
}

/// One round, run to completion on the calling thread: materialize the
/// plan's workload, measure the op horizon, re-run with the plan's delay
/// schedule and seeded crash points, audit every captured image, analyze
/// the trace for attributable races, and extract the round's coverage
/// signature.
fn round_body(
    app: &Arc<dyn Application>,
    main_ops: u64,
    plan: &RoundPlan,
    analysis_threads: usize,
    suggest_fixes: bool,
) -> WorkerReport {
    // Pass 1 — measure the run's PM-operation horizon so crash points land
    // inside it. An injector with no points is a pure op counter; the
    // probe pass never installs the delay hook (delays change timing, not
    // the op count, so the horizon is cheaper to measure undelayed).
    let probe = CrashInjector::at_points([], CrashMode::Continue);
    let workload = materialize_workload(app.as_ref(), plan, main_ops);
    let opts = ExecOptions {
        crash: Some(Arc::clone(&probe)),
        ..Default::default()
    };
    app.execute_with(&workload, &opts);
    let horizon = probe.op_count();

    // Pass 2 — same workload under the plan's delay schedule and seeded
    // crash points, continue mode: one run yields every candidate crash
    // state plus a full analysis trace.
    let injector = CrashInjector::seeded(
        plan.crash_salt,
        plan.crash_points,
        horizon,
        CrashMode::Continue,
    );
    let delay = (!plan.delay.is_noop()).then(|| {
        DelayInjector::with_spec(
            plan.workload_seed ^ 0x5851_f42d_4c95_7f2d,
            plan.delay.clone(),
        )
    });
    let opts = ExecOptions {
        hook: delay.as_ref().map(DelayInjector::hook),
        crash: Some(Arc::clone(&injector)),
        ..Default::default()
    };
    let result = app.execute_with(&workload, &opts);

    let mut outcome = RoundOutcome::Ok;
    if app.supports_recovery() {
        for image in injector.take_images() {
            if let Some(failure) = audit_image(app.as_ref(), &image) {
                outcome = failure;
                break; // first failing crash point, in op order
            }
        }
    }
    let mut acfg = AnalysisConfig::default();
    if let Some(budget) = plan.memory_budget {
        acfg.budget.memory_budget = Some(budget);
    }
    let report = Analyzer::new(acfg)
        .threads(analysis_threads)
        .suggest_fixes(suggest_fixes)
        .run(&result.trace);
    let mut coverage = extract_coverage(&report, &outcome);
    if let Some(script) = &plan.io_script {
        if let Some(point) = io_probe(script) {
            coverage.push(point);
            coverage.sort();
            coverage.dedup();
        }
    }
    WorkerReport {
        outcome,
        crash_points: injector.points().to_vec(),
        op_horizon: horizon,
        images_captured: injector.images_captured(),
        attributed: attribute_races(&report.races, &app.known_races(), report.fixes.as_ref()),
        coverage,
    }
}

/// Runs one round under supervision: panic-isolated worker, watchdog
/// deadline, and in-place retries of transient failures after
/// [`Backoff::DEFAULT`].
fn run_supervised_round(
    app: &Arc<dyn Application>,
    cfg: &CrashCampaignConfig,
    round: u64,
    plan: &RoundPlan,
    fault: Option<InjectedFault>,
) -> RoundRecord {
    let started = Instant::now();
    let mut attempt: u32 = 0;
    loop {
        let worker_app = Arc::clone(app);
        let worker_plan = plan.clone();
        let (main_ops, timeout) = (cfg.main_ops, cfg.round_timeout);
        let (analysis_threads, suggest_fixes) = (cfg.analysis_threads, cfg.suggest_fixes);
        let injected = fault.filter(|f| attempt < f.first_attempts).map(|f| f.kind);
        let work = move || match injected {
            Some(FaultKind::Hang) => {
                // Out-sleep the watchdog, then exit without running the
                // round; the supervisor stopped listening long ago.
                std::thread::sleep(timeout.saturating_mul(4));
                None
            }
            Some(FaultKind::Panic) => panic!("injected fault: panic in round {round}"),
            None => Some(round_body(
                &worker_app,
                main_ops,
                &worker_plan,
                analysis_threads,
                suggest_fixes,
            )),
        };
        let name = format!("crashtest-r{round}-a{attempt}");
        let transient = match run_isolated(&name, cfg.round_timeout, work) {
            Ok(Some(report)) => {
                return RoundRecord {
                    round,
                    outcome: report.outcome,
                    retries: attempt,
                    crash_points: report.crash_points,
                    op_horizon: report.op_horizon,
                    images_captured: report.images_captured,
                    attributed: report.attributed,
                    duration_ms: started.elapsed().as_millis() as u64,
                    coverage: report.coverage,
                    plan: cfg.steer.then(|| plan.clone()),
                };
            }
            Ok(None) | Err(Failure::TimedOut) => RoundOutcome::TimedOut,
            Err(Failure::Panicked(message)) => RoundOutcome::Panicked { message },
        };
        if attempt < cfg.max_retries {
            std::thread::sleep(Backoff::DEFAULT.delay(attempt));
            attempt += 1;
            continue;
        }
        return RoundRecord {
            round,
            outcome: transient,
            retries: attempt,
            crash_points: Vec::new(),
            op_horizon: 0,
            images_captured: 0,
            attributed: Vec::new(),
            duration_ms: started.elapsed().as_millis() as u64,
            coverage: Vec::new(),
            plan: cfg.steer.then(|| plan.clone()),
        };
    }
}

/// Runs (or resumes) a supervised crash campaign against `app`.
///
/// With [`CrashCampaignConfig::resume`] set and an existing checkpoint at
/// [`CrashCampaignConfig::checkpoint`], previously completed rounds are
/// loaded and only unfinished rounds execute; the checkpoint must belong
/// to the same application and seed. The checkpoint (when configured) is
/// rewritten atomically after every round, through the process's I/O
/// plane ([`plane_from_env`]): a malformed `HAWKSET_IO_FAULT_SCRIPT` is an
/// error, and a failed checkpoint write stops the campaign with the last
/// committed checkpoint intact for `--resume`.
pub fn run_crash_campaign(
    app: &Arc<dyn Application>,
    cfg: &CrashCampaignConfig,
) -> Result<CrashCampaignResult, String> {
    cfg.validate()?;
    let plane = plane_from_env()?;
    let started = Instant::now();
    let mut completed: Vec<RoundRecord> = Vec::new();
    let mut resumed = false;
    if cfg.resume {
        if let Some(path) = &cfg.checkpoint {
            if path.exists() {
                let ck = load_checkpoint(path)?;
                if ck.app != app.name() {
                    return Err(format!(
                        "checkpoint belongs to `{}`, campaign targets `{}`",
                        ck.app,
                        app.name()
                    ));
                }
                if ck.seed != cfg.seed {
                    return Err(format!(
                        "checkpoint was recorded with seed {}, campaign uses {}",
                        ck.seed, cfg.seed
                    ));
                }
                match ck.fingerprint {
                    Some(f) if f != cfg.fingerprint() => {
                        return Err(format!(
                            "checkpoint was recorded under a different campaign configuration \
                             (fingerprint `{f}`, this run `{}`); steering state rebuilt from \
                             its records would diverge from the rounds that produced them",
                            cfg.fingerprint()
                        ));
                    }
                    None if cfg.steer => {
                        return Err("checkpoint predates steering (no config fingerprint); \
                             a steered campaign cannot resume from it"
                            .into());
                    }
                    _ => {}
                }
                completed = ck.completed;
                resumed = true;
            }
        }
    }
    // The steering state is rebuilt purely from the checkpointed records:
    // plan derivation for round r only observes rounds before r, so
    // replaying the records in round order puts the planner exactly where
    // the interrupted campaign left it.
    let mut steer = cfg.steer.then(|| {
        Steer::new(
            cfg.seed,
            cfg.axes.clone(),
            cfg.crash_points,
            cfg.base_delay(),
        )
    });
    if let Some(s) = steer.as_mut() {
        let mut replay = completed.clone();
        replay.sort_by_key(|r| r.round);
        for rec in &replay {
            s.absorb(rec.round, rec.plan.as_ref(), &rec.coverage);
        }
    }
    let done: HashSet<u64> = completed.iter().map(|r| r.round).collect();
    let mut executed = 0;
    for round in 0..cfg.rounds {
        if done.contains(&round) {
            continue;
        }
        let plan = match &steer {
            Some(s) => s.plan(round),
            None => {
                let mut plan = RoundPlan::baseline(round_seed(cfg.seed, round), cfg.crash_points);
                plan.delay = cfg.base_delay();
                plan
            }
        };
        let fault = cfg.faults.iter().find(|f| f.round == round).copied();
        let record = run_supervised_round(app, cfg, round, &plan, fault);
        if let Some(s) = steer.as_mut() {
            s.absorb(round, record.plan.as_ref(), &record.coverage);
        }
        completed.push(record);
        executed += 1;
        if let Some(path) = &cfg.checkpoint {
            let ck = CampaignCheckpoint {
                app: app.name().to_string(),
                seed: cfg.seed,
                rounds: cfg.rounds,
                completed: completed.clone(),
                fingerprint: Some(cfg.fingerprint()),
            };
            let json = serde_json::to_string_pretty(&ck)
                .map_err(|e| format!("cannot serialize checkpoint: {e}"))?;
            write_atomic(plane.as_ref(), "checkpoint", path, json.as_bytes())
                .map_err(|e| format!("cannot write checkpoint {}: {e}", path.display()))?;
        }
    }
    completed.sort_by_key(|r| r.round);
    Ok(CrashCampaignResult {
        records: completed,
        executed_this_run: executed,
        resumed_from_checkpoint: resumed,
        duration: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_apps::fastfair::FastFairApp;

    fn tiny_cfg() -> CrashCampaignConfig {
        CrashCampaignConfig {
            rounds: 2,
            crash_points: 3,
            main_ops: 60,
            seed: 5,
            round_timeout: Duration::from_secs(60),
            max_retries: 1,
            checkpoint: None,
            resume: false,
            faults: Vec::new(),
            analysis_threads: 0,
            suggest_fixes: false,
            ..Default::default()
        }
    }

    #[test]
    fn campaign_runs_all_rounds_and_captures_images() {
        let app: Arc<dyn Application> = Arc::new(FastFairApp);
        let result = run_crash_campaign(&app, &tiny_cfg()).expect("campaign runs");
        assert_eq!(result.records.len(), 2);
        assert_eq!(result.executed_this_run, 2);
        assert!(!result.resumed_from_checkpoint);
        for rec in &result.records {
            assert!(
                !rec.crash_points.is_empty(),
                "round {} placed no crash points",
                rec.round
            );
            assert!(
                rec.images_captured > 0,
                "round {} captured no images",
                rec.round
            );
            assert!(
                !rec.outcome.is_transient(),
                "round {} ended transient: {:?}",
                rec.round,
                rec.outcome
            );
        }
    }

    /// Campaign metrics: per-outcome counts partition the rounds, capture
    /// totals add up, and the reconstructed backoff sum follows the
    /// supervisor's capped-doubling schedule.
    #[test]
    fn campaign_metrics_account_for_every_round() {
        let cfg = tiny_cfg();
        let result = CrashCampaignResult {
            records: vec![
                RoundRecord {
                    round: 0,
                    outcome: RoundOutcome::Ok,
                    retries: 0,
                    crash_points: vec![3, 9],
                    op_horizon: 40,
                    images_captured: 2,
                    attributed: Vec::new(),
                    duration_ms: 10,
                    coverage: Vec::new(),
                    plan: None,
                },
                RoundRecord {
                    round: 1,
                    outcome: RoundOutcome::TimedOut,
                    retries: 3,
                    crash_points: vec![5],
                    op_horizon: 40,
                    images_captured: 1,
                    attributed: Vec::new(),
                    duration_ms: 30,
                    coverage: Vec::new(),
                    plan: None,
                },
            ],
            executed_this_run: 2,
            resumed_from_checkpoint: false,
            duration: Duration::from_millis(55),
        };
        let m = result.metrics(&cfg);
        assert!(m.conservation_violations().is_empty());
        assert_eq!(m.version, CAMPAIGN_METRICS_VERSION);
        assert_eq!(m.rounds_total, 2);
        assert_eq!(m.rounds_ok, 1);
        assert_eq!(m.rounds_timed_out, 1);
        assert_eq!(m.retries_total, 3);
        assert_eq!(m.crash_points_total, 3);
        assert_eq!(m.images_captured_total, 3);
        // Backoff::DEFAULT: 50ms, 100ms, 200ms (the 2s cap never reached).
        assert_eq!(m.timing.backoff_ms_total, 350);
        assert_eq!(m.timing.round_ms_total, 40);
        let back: CampaignMetrics = serde_json::from_str(&m.to_json()).unwrap();
        assert_eq!(back, m);

        let mut broken = m.clone();
        broken.rounds_ok = 0;
        assert_eq!(broken.conservation_violations().len(), 1);
    }

    /// Crash placement is a pure function of `(campaign seed, round,
    /// measured horizon)`. The horizon itself varies with concurrent
    /// interleaving, so the record keeps it; re-deriving the seeded
    /// injector from the recorded horizon must reproduce the placement
    /// exactly, and a different campaign seed must place differently.
    #[test]
    fn crash_points_are_rederivable_from_recorded_seed_and_horizon() {
        let app: Arc<dyn Application> = Arc::new(FastFairApp);
        let cfg = tiny_cfg();
        let result = run_crash_campaign(&app, &cfg).expect("campaign runs");
        for rec in &result.records {
            let round_seed = cfg.seed ^ rec.round.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let rederived = CrashInjector::seeded(
                round_seed,
                cfg.crash_points,
                rec.op_horizon,
                CrashMode::Continue,
            );
            assert_eq!(
                rec.crash_points,
                rederived.points().to_vec(),
                "round {}: placement must be reproducible from (seed, horizon)",
                rec.round
            );
            let other = CrashInjector::seeded(
                round_seed ^ 99,
                cfg.crash_points,
                rec.op_horizon,
                CrashMode::Continue,
            );
            assert_ne!(
                rec.crash_points,
                other.points().to_vec(),
                "round {}: a different seed must place crash points differently",
                rec.round
            );
        }
    }

    /// Checkpoints on disk carry fingerprints and `--resume` compares
    /// them, so their values are pinned.
    #[test]
    fn config_fingerprint_values_are_pinned() {
        let cfg = CrashCampaignConfig {
            crash_points: 1,
            main_ops: 10,
            ..Default::default()
        };
        assert_eq!(
            cfg.fingerprint(),
            "v1;steer=0;axes=workload,delay,crash,threads,memory;crash_points=1;\
             main_ops=10;delay=0:0"
        );
    }

    #[test]
    fn checkpoint_roundtrips_through_json() {
        let ck = CampaignCheckpoint {
            app: "Fast-Fair".into(),
            seed: 7,
            rounds: 3,
            completed: vec![RoundRecord {
                round: 0,
                outcome: RoundOutcome::InvariantViolated {
                    violations: vec!["fence-key: leaf holds key 9".into()],
                    crash_op: 1234,
                },
                retries: 1,
                crash_points: vec![10, 1234],
                op_horizon: 4000,
                images_captured: 2,
                attributed: vec![AttributedRace {
                    bug_id: 1,
                    store_fn: "fastfair::insert_into_parent".into(),
                    load_fn: "fastfair::find_leaf".into(),
                    description: "load unpersisted pointer".into(),
                    fix: None,
                }],
                duration_ms: 42,
                coverage: vec![CoveragePoint::Audit {
                    outcome: "invariant_violated".into(),
                    detail: "fence-key".into(),
                }],
                plan: None,
            }],
            fingerprint: Some("v1;steer=1".into()),
        };
        let json = serde_json::to_string_pretty(&ck).expect("serializes");
        let back: CampaignCheckpoint = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.app, ck.app);
        assert_eq!(back.completed.len(), 1);
        assert_eq!(back.completed[0].outcome, ck.completed[0].outcome);
        assert_eq!(back.completed[0].attributed, ck.completed[0].attributed);
    }

    #[test]
    fn transient_fault_is_retried_and_recovers() {
        let app: Arc<dyn Application> = Arc::new(FastFairApp);
        let cfg = CrashCampaignConfig {
            rounds: 1,
            max_retries: 2,
            faults: vec![InjectedFault {
                round: 0,
                kind: FaultKind::Panic,
                first_attempts: 1,
            }],
            ..tiny_cfg()
        };
        let result = run_crash_campaign(&app, &cfg).expect("campaign runs");
        let rec = &result.records[0];
        assert_eq!(rec.retries, 1, "one retry consumed by the injected panic");
        assert!(
            !rec.outcome.is_transient(),
            "the retry must have succeeded: {:?}",
            rec.outcome
        );
    }
}
