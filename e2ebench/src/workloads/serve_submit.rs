//! `serve-submit`: the deployment path. An in-process `hawkset serve`
//! daemon with its default configuration takes closed-loop submissions
//! from two clients, one unix-socket connection each; every job is timed
//! from SUBMIT to RESULT.

use std::io::Cursor;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hawkset_core::analysis::Analyzer;
use hawkset_core::trace::io;
use hawkset_serve::server::request_drain;
use hawkset_serve::{submit, ServeConfig, ServeMetricsSnapshot, SubmitOutcome};
use serde_json::Value;

use super::{apps, derive_seed, set_up, timed, Ctx, Outcome, Run};
use crate::spans::Job;

/// Client tenants; their count is the load's concurrency.
const TENANTS: [&str; 2] = ["bench-a", "bench-b"];

/// Distinct traces the clients cycle through.
const TRACES: u64 = 8;

/// One pass, every trace from each client, on the 2-core sizing host
/// (seconds).
const PASS_S: f64 = 0.6;

/// One submittable trace and the races an in-process streamed analysis of
/// the same bytes reports.
struct Submission {
    bytes: Vec<u8>,
    races: Value,
}

pub(super) fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let dir = ctx.work_dir.join("serve");
    let db_dir = dir.join("db");
    let socket = dir.join("s.sock");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let daemon = Daemon::start(ServeConfig {
        unix_socket: Some(socket.clone()),
        db_dir: db_dir.clone(),
        ..ServeConfig::default()
    });
    let mut conns = TENANTS
        .iter()
        .map(|_| daemon.connect(&socket))
        .collect::<Result<Vec<_>, _>>()?;
    // Memcached-pmem is the server-shaped app; its ~70 races per trace give
    // the race database real merge and dedupe work.
    let app = apps(&["Memcached-pmem"]).remove(0);
    let mut run = Run::default();
    let mut analyze_ms = Vec::new();
    let traces = set_up(ctx, &mut run, || {
        analyze_ms.clear();
        let traces: Vec<Submission> = (0..TRACES)
            .map(|i| {
                let wl = app.default_workload(ctx.scale.app_ops, derive_seed(ctx.seed, i));
                let bytes = io::encode(&app.execute(&wl)).to_vec();
                let started = Instant::now();
                let report = Analyzer::default().try_run_stream(Cursor::new(&bytes));
                analyze_ms.push(started.elapsed().as_secs_f64() * 1e3);
                let races = report
                    .ok()
                    .and_then(|r| races_of(&r.to_json()))
                    .unwrap_or(Value::Null);
                Submission { bytes, races }
            })
            .collect();
        let warm_up = ctx.scale.serve_warmup;
        clients(
            ctx,
            &mut conns,
            &socket,
            &traces,
            warm_up,
            &mut Run::default(),
        );
        Ok(traces)
    })?;
    // A pass submits every trace once from each client.
    timed(ctx, &mut run, 1, PASS_S, |run, _| {
        clients(ctx, &mut conns, &socket, &traces, traces.len(), run);
    });
    drop(conns);
    let exit = daemon.stop()?;
    for ms in analyze_ms {
        run.sample("serve.analyze_ms", ms);
    }
    let metrics = std::fs::read_to_string(db_dir.join("serve-metrics.json"))
        .ok()
        .and_then(|s| serde_json::from_str::<ServeMetricsSnapshot>(&s).ok());
    run.check(
        exit == 0
            && metrics
                .as_ref()
                .is_some_and(|m| m.conservation_violations().is_empty()),
    );
    if let Some(m) = metrics {
        run.add("serve.checkpoints", m.database.checkpoints as f64);
        run.add("serve.shed", m.shed.total as f64);
        run.add("serve.retries", m.outcomes.retries as f64);
    }
    run.add("serve.db_bytes", dir_bytes(&db_dir) as f64);
    Ok(run.finish(ctx))
}

/// Runs every client on its own thread, each submitting `count` times.
fn clients(
    ctx: &Ctx,
    conns: &mut [UnixStream],
    socket: &Path,
    traces: &[Submission],
    count: usize,
    run: &mut Run,
) {
    let runs: Vec<Run> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(TENANTS)
            .enumerate()
            .map(|(c, (conn, tenant))| {
                s.spawn(move || {
                    let mut mine = Run::default();
                    // Clients start half a cycle apart, then go round-robin.
                    let first = c * traces.len() / TENANTS.len();
                    for k in 0..count {
                        let sub = &traces[(first + k) % traces.len()];
                        if !submit_one(ctx, conn, socket, tenant, sub, &mut mine) {
                            break;
                        }
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serve client thread"))
            .collect()
    });
    for r in runs {
        run.merge(r);
    }
}

/// One closed-loop round trip; `false` when the connection is lost and
/// cannot be re-dialled.
fn submit_one(
    ctx: &Ctx,
    conn: &mut UnixStream,
    socket: &Path,
    tenant: &str,
    sub: &Submission,
    run: &mut Run,
) -> bool {
    let job = Job::start(ctx.tracer());
    let outcome = job.layer("serve", || submit(conn, tenant, &sub.bytes));
    let wall = job.finish();
    run.sample("serve.latency_ms", wall.as_secs_f64() * 1e3);
    // A SHED, an ERROR, or races that differ from the in-process analysis
    // of the same bytes all count as failures.
    let ok = matches!(&outcome, Ok(SubmitOutcome::Done { report_json, .. })
        if races_of(report_json).is_some_and(|r| r == sub.races));
    run.job("Memcached-pmem", wall, ok);
    match outcome {
        Ok(_) => true,
        Err(_) => match UnixStream::connect(socket) {
            Ok(fresh) => {
                *conn = fresh;
                true
            }
            Err(_) => false,
        },
    }
}

fn races_of(report_json: &str) -> Option<Value> {
    serde_json::from_str::<Value>(report_json)
        .ok()?
        .get("races")
        .cloned()
}

/// Total size of the files in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The daemon on its own thread. Its drain flag is process-global, so a
/// process runs it once; dropping the handle drains it.
struct Daemon {
    handle: Option<JoinHandle<Result<i32, String>>>,
}

impl Daemon {
    fn start(cfg: ServeConfig) -> Daemon {
        Daemon {
            handle: Some(std::thread::spawn(move || hawkset_serve::run(&cfg))),
        }
    }

    /// Dials `socket` until the daemon listens (or gives up).
    fn connect(&self, socket: &Path) -> Result<UnixStream, String> {
        let started = Instant::now();
        loop {
            match UnixStream::connect(socket) {
                Ok(s) => return Ok(s),
                Err(e) => {
                    let exited = self.handle.as_ref().is_none_or(JoinHandle::is_finished);
                    if exited || started.elapsed() > Duration::from_secs(30) {
                        return Err(format!(
                            "serve daemon is not listening on {}: {e}",
                            socket.display()
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }

    /// Drains the daemon and returns its exit code.
    fn stop(mut self) -> Result<i32, String> {
        request_drain();
        self.handle
            .take()
            .expect("the daemon is stopped once")
            .join()
            .map_err(|_| "serve daemon panicked".to_string())?
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            request_drain();
            let _ = h.join();
        }
    }
}
