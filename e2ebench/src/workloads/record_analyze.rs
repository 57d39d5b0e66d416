//! `record-analyze`: Figure 6's testing time. Each job is an instrumented
//! app run followed by the trace's whole trip to a report:
//! `execute → io::encode → io::decode → Analyzer::run → to_json`.

use hawkset_core::analysis::Analyzer;
use hawkset_core::trace::io;
use pm_apps::{AppWorkload, Application};

use super::{
    apps, derive_seed, detects_expected, set_up, timed, Analysis, Ctx, Outcome, Run, APPS,
};
use crate::spans::Job;

/// One pass, a job of each app, on the 2-core sizing host (seconds).
const PASS_S: f64 = 1.2;

pub(super) fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let apps = apps(&APPS);
    let analysis = Analysis::new(ctx, Analyzer::default());
    let ops = ctx.scale.app_ops;
    let mut run = Run::default();
    let workloads = set_up(ctx, &mut run, || {
        let workloads: Vec<AppWorkload> = apps
            .iter()
            .zip(0..)
            .map(|(app, i)| app.default_workload(ops, derive_seed(ctx.seed, i)))
            .collect();
        let mut warm_up = Run::default();
        for (app, wl) in apps.iter().zip(&workloads) {
            job(ctx, &mut warm_up, &analysis, app.as_ref(), wl);
        }
        Ok(workloads)
    })?;
    timed(ctx, &mut run, apps.len(), PASS_S, |run, i| {
        job(ctx, run, &analysis, apps[i].as_ref(), &workloads[i]);
    });
    Ok(run.finish(ctx))
}

fn job(ctx: &Ctx, run: &mut Run, analysis: &Analysis, app: &dyn Application, wl: &AppWorkload) {
    let job = Job::start(ctx.tracer());
    let trace = job.layer("runtime", || app.execute(wl));
    let bytes = job.layer("io", || io::encode(&trace));
    let Ok(decoded) = job.layer("io", || io::decode(&bytes)) else {
        run.job(app.name(), job.finish(), false);
        return;
    };
    let report = analysis.run(&job, |a| a.run(&decoded));
    let json = job.layer("report", || report.to_json());
    let wall = job.finish();
    run.add("runtime.events", trace.events.len() as f64);
    run.add("io.bytes", 2.0 * bytes.len() as f64);
    run.add("report.json_bytes", json.len() as f64);
    let ok = run.absorb(&report) & detects_expected(app, ctx.scale.app_ops, &report);
    run.job(app.name(), wall, ok);
}
