//! # pmrace
//!
//! An observation-based concurrent PM bug detection baseline, modelled on
//! PMRace (ASPLOS'22) as described in §5.2 and §6.3 of the HawkSet paper.
//!
//! PMRace's first stage — the one HawkSet is compared against — detects a
//! *PM inter-thread inconsistency* only when a concrete execution actually
//! performs a load of data that another thread wrote and has not yet
//! persisted. To make such interleavings more likely it runs fuzzing
//! campaigns: each seed workload is executed repeatedly, mutated between
//! rounds, with random delays injected at PM operations.
//!
//! This crate reproduces exactly that shape on top of the same
//! instrumented runtime the HawkSet pipeline uses:
//!
//! * the runtime's worst-case persistence state flags every *observed* read of
//!   unpersisted foreign data ([`pm_runtime::Observation`]);
//! * [`DelayInjector`] perturbs schedules at PM-operation granularity;
//! * [`fuzz_app`] drives mutation rounds and aggregates observations;
//! * [`expected_time_to_race`] implements the paper's Table 3 metric;
//! * [`run_crash_campaign`] goes one step past observation: it crashes the
//!   application at injected points, restarts it from the persisted-only
//!   image, and audits recovery — the PMRace post-failure stage, supervised
//!   (panic isolation, watchdog, retries, checkpoint/resume);
//! * [`Steer`] makes crash campaigns coverage-guided: rounds become points
//!   in a multi-axis configuration space, rounds that add new
//!   [`CoveragePoint`]s enter an AFL-style corpus, and later rounds are
//!   derived by weighted mutation of corpus entries — deterministically in
//!   the campaign seed, resumable from the checkpoint alone.

pub mod campaign;
pub mod coverage;
pub mod crashtest;
pub mod delay;
pub mod metric;
pub mod steer;

pub use campaign::{fuzz_app, CampaignConfig, CampaignResult, ObservedRace};
pub use coverage::{extract_coverage, CoveragePoint};
pub use crashtest::{
    attribute_races, load_checkpoint, run_crash_campaign, AttributedRace, CampaignCheckpoint,
    CampaignMetrics, CampaignTiming, CoverageReport, CoverageTick, CrashCampaignConfig,
    CrashCampaignResult, FaultKind, InjectedFault, RoundOutcome, RoundRecord,
};
pub use delay::{DelayInjector, DelayRule, DelaySpec, PointClass};
pub use metric::expected_time_to_race;
pub use steer::{materialize_workload, round_seed, Axis, AxisSet, CorpusEntry, RoundPlan, Steer};
