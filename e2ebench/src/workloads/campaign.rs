//! `campaign`: steered crash campaigns on the three apps with recovery
//! audits. Each round records a run, captures crash images at seeded
//! points, recovers and audits each, and analyzes the trace; the delay
//! axis, the only source of injected sleeps, is left out.

use std::sync::Arc;

use pm_apps::Application;
use pmrace::{run_crash_campaign, AxisSet, CrashCampaignConfig};

use super::{apps, derive_seed, set_up, timed, Ctx, Outcome, Run};
use crate::spans::Job;
use crate::ALLOC;

const CAMPAIGN_APPS: [&str; 3] = ["P-CLHT", "Fast-Fair", "TurboHash"];

/// Rounds of each app's warm-up campaign. A campaign's time varies by up to
/// a fifth between runs of one seed, steered or not, so the warm-up (and
/// `setup_s`) rests on short campaigns of every app rather than on one
/// long campaign of one app.
const WARM_UP_ROUNDS: u64 = 2;

/// One pass, a campaign of each app, on the 2-core sizing host (seconds).
const PASS_S: f64 = 4.6;

pub(super) fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let apps: Vec<Arc<dyn Application>> = apps(&CAMPAIGN_APPS).into_iter().map(Arc::from).collect();
    let n = apps.len() as u64;
    let mut run = Run::default();
    set_up(ctx, &mut run, || {
        for (app, i) in apps.iter().zip(0..) {
            let seed = derive_seed(ctx.seed, i);
            campaign(ctx, &mut Run::default(), app, WARM_UP_ROUNDS, seed);
        }
        Ok(())
    })?;
    timed(ctx, &mut run, apps.len(), PASS_S, |run, i| {
        let seed = derive_seed(ctx.seed, n + i as u64);
        campaign(ctx, run, &apps[i], ctx.scale.campaign_rounds, seed);
    });
    Ok(run.finish(ctx))
}

/// One campaign; each round is a job, timed by the campaign itself.
fn campaign(ctx: &Ctx, run: &mut Run, app: &Arc<dyn Application>, rounds: u64, seed: u64) {
    let cfg = CrashCampaignConfig {
        rounds,
        crash_points: 3,
        main_ops: ctx.scale.campaign_ops,
        seed,
        steer: true,
        axes: AxisSet::parse("workload,crash,threads,memory").expect("valid axis list"),
        ..CrashCampaignConfig::default()
    };
    let live = ALLOC.live_bytes();
    let job = Job::start(ctx.tracer());
    let result = job.layer("pmrace", || run_crash_campaign(app, &cfg));
    job.finish();
    let Ok(result) = result else {
        run.check(false);
        return;
    };
    for rec in &result.records {
        // Findings (recovery failures, audit violations) are the
        // campaign's output, not failures; panics and timeouts are.
        let ms = rec.duration_ms as f64;
        run.latency(app.name(), ms);
        run.check(!rec.outcome.is_transient());
        run.sample("pmrace.round_ms", ms);
        run.add("pmrace.images_captured", rec.images_captured as f64);
        run.add("pmrace.crash_points", rec.crash_points.len() as f64);
    }
    let coverage = result.coverage_report();
    run.add("pmrace.rounds", result.records.len() as f64);
    run.add("pmrace.coverage_points", coverage.points_total as f64);
    run.add("pmrace.corpus_rounds", coverage.corpus_size as f64);
    run.check(result.metrics(&cfg).conservation_violations().is_empty());
    drop(result);
    // Heap the campaign left allocated after returning everything it made.
    let retained = ALLOC.live_bytes().saturating_sub(live);
    run.sample("pmrace.retained_mib", retained as f64 / (1024.0 * 1024.0));
}
