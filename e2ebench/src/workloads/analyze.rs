//! `analyze-large` and `analyze-fixes`: what `hawkset analyze --json FILE`
//! does to a recorded trace file, without and with `--suggest-fixes`.

use std::fs::File;
use std::path::{Path, PathBuf};

use hawkset_core::analysis::{Analyzer, FixStatus};
use hawkset_core::trace::io;
use hawkset_core::HawkSetError;
use pm_apps::Application;

use super::{
    apps, derive_seed, detects_expected, set_up, timed, Analysis, Ctx, Outcome, Run, APPS,
};
use crate::spans::Job;

/// The apps analyze-large records at 10k operations: MadFS alone is most
/// of a pass (~10⁸ candidate pairs), the others span the trace sizes.
const LARGE_APPS: [&str; 5] = ["MadFS", "Memcached-pmem", "WIPE", "Fast-Fair", "P-Masstree"];

pub(super) fn large(ctx: &Ctx) -> Result<Outcome, String> {
    // Warm up on WIPE, the smallest of the five traces. A pass takes about
    // 3 s on the 2-core sizing host.
    analyze_files(ctx, &LARGE_APPS, ctx.scale.large_ops, false, "WIPE", 3.0)
}

pub(super) fn fixes(ctx: &Ctx) -> Result<Outcome, String> {
    // A pass takes about 9 s on the 2-core sizing host.
    analyze_files(ctx, &APPS, ctx.scale.app_ops, true, "TurboHash", 9.0)
}

fn analyze_files(
    ctx: &Ctx,
    names: &[&str],
    ops: u64,
    suggest_fixes: bool,
    warm_up_app: &str,
    pass_s: f64,
) -> Result<Outcome, String> {
    let apps = apps(names);
    let analysis = Analysis::new(ctx, Analyzer::default().suggest_fixes(suggest_fixes));
    let warm = names
        .iter()
        .position(|n| *n == warm_up_app)
        .expect("the warm-up app is one of the workload's apps");
    let mut run = Run::default();
    let files = set_up(ctx, &mut run, || {
        let files = record_files(ctx, &apps, ops)?;
        job(
            ctx,
            &mut Run::default(),
            &analysis,
            apps[warm].as_ref(),
            &files[warm],
            ops,
        );
        Ok(files)
    })?;
    let mut job_files = Vec::new();
    timed(ctx, &mut run, apps.len(), pass_s, |run, i| {
        let job_id = job(ctx, run, &analysis, apps[i].as_ref(), &files[i], ops);
        job_files.push((job_id, i));
    });
    if let (Some(t), false) = (ctx.tracer(), suggest_fixes) {
        // The streamed analysis decodes inside its simulate stage. As each
        // job's io figure, time a decode of the same file after the timed
        // work, outside the job.
        for (job_id, i) in job_files {
            let _ = t.span(job_id, None, "io", |_| io::load_file(&files[i], None));
            run.add("io.bytes", file_len(&files[i]));
        }
    }
    Ok(run.finish(ctx))
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0, |m| m.len()) as f64
}

/// Records each app at `ops` operations and writes its `.hwkt` file.
fn record_files(
    ctx: &Ctx,
    apps: &[Box<dyn Application>],
    ops: u64,
) -> Result<Vec<PathBuf>, String> {
    apps.iter()
        .zip(0..)
        .map(|(app, i)| {
            let trace = app.execute(&app.default_workload(ops, derive_seed(ctx.seed, i)));
            let path = ctx.work_dir.join(format!("{}.hwkt", app.name()));
            std::fs::write(&path, io::encode(&trace))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Ok(path)
        })
        .collect()
}

/// One `hawkset analyze --json [--suggest-fixes] FILE`: a streamed
/// analysis, then (with fixes, on a racy report) a re-read of the file and
/// the repair pass, then the JSON report. Returns the job's span id.
fn job(
    ctx: &Ctx,
    run: &mut Run,
    analysis: &Analysis,
    app: &dyn Application,
    path: &Path,
    ops: u64,
) -> u64 {
    let job = Job::start(ctx.tracer());
    let job_id = job.id();
    let streamed = job
        .layer("io", || File::open(path))
        .map_err(HawkSetError::from)
        .and_then(|file| analysis.run(&job, |a| a.try_run_stream_with_header(file)));
    let Ok((mut report, _header)) = streamed else {
        run.job(app.name(), job.finish(), false);
        return job_id;
    };
    let mut reread_ok = true;
    let mut reread_bytes = 0.0;
    if analysis.analyzer.config().suggest_fixes && !report.is_clean() {
        match job.layer("io", || io::load_file(path, None)) {
            Ok(trace) => {
                reread_bytes = file_len(path);
                job.layer("repair", || {
                    analysis.analyzer.attach_fixes(&trace, &mut report)
                });
            }
            Err(_) => reread_ok = false,
        }
    }
    let json = job.layer("report", || report.to_json());
    let wall = job.finish();

    run.add("io.bytes", reread_bytes);
    run.add("report.json_bytes", json.len() as f64);
    let mut fixes_ok = true;
    if let Some(f) = &report.fixes {
        // A suggestion is a fix exactly when replay validated it.
        fixes_ok = f
            .suggestions
            .iter()
            .all(|s| (s.status == FixStatus::Fix) == s.validated);
        run.add("repair.fixes", f.suggestions.len() as f64);
        run.add(
            "repair.validated",
            f.suggestions.iter().filter(|s| s.validated).count() as f64,
        );
    }
    let ok = run.absorb(&report) & detects_expected(app, ops, &report) & fixes_ok & reread_ok;
    run.job(app.name(), wall, ok);
    job_id
}
