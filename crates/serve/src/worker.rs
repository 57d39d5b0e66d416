//! Panic-isolated, watchdogged worker pool.
//!
//! Each job's analysis runs under the shared supervisor,
//! [`hawkset_core::supervise::run_isolated`] — a detached, panic-isolated
//! thread waited on with a deadline — the same one that runs `pmrace`'s
//! crash-test rounds. The two failures it reports, a caught panic and a
//! hung stage, are both **transient**: the job goes back into the
//! scheduler after [`Backoff::DEFAULT`] instead of taking the daemon (or
//! the client's connection) down with it. Deterministic failures — a trace
//! that does not decode, a violated resource limit — are **terminal** on
//! first sight: retrying a parse error buys latency, not success.
//!
//! The durability contract lives here too: a worker sends the job's
//! `RESULT` only after the merged findings hit the stable root (with the
//! default checkpoint cadence of one job). A client that saw `RESULT` can
//! crash the daemon immediately and the finding survives; a client that
//! did not must assume nothing and resubmit — which is exactly what makes
//! resubmission after a SIGKILL converge instead of duplicating.

use std::io::Cursor;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use hawkset_core::analysis::{AnalysisBudget, AnalysisConfig, Analyzer};
use hawkset_core::supervise::{run_isolated, Backoff, Failure};
use hawkset_core::{AnalysisReport, HawkSetError};

use crate::db::RaceDb;
use crate::health::StorageHealth;
use crate::metrics::ServeMetrics;
use crate::sched::{Job, JobReply, Pop, Scheduler};

/// Poison-safe database lock. A worker that panicked mid-`persist` held
/// this mutex, but the database's own invariant is stronger than the
/// poison bit: `working`/`stable` are plain values that are only replaced
/// whole (merge mutates in place, but a failed checkpoint rolls the merge
/// back before the panic can propagate through `persist`'s caller — and
/// the supervised-run architecture means analysis panics never happen
/// under this lock at all). Recovering the guard keeps one crashed job
/// from wedging every later submission and the final drain checkpoint.
pub(crate) fn lock_db(db: &Mutex<RaceDb>) -> MutexGuard<'_, RaceDb> {
    db.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tuning for the pool and each job's analysis run.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Worker threads (each runs one single-threaded analysis at a time,
    /// so this is also the analysis parallelism bound).
    pub workers: usize,
    /// Retries after transient failures before declaring a job failed,
    /// each requeued after [`Backoff::DEFAULT`].
    pub max_retries: u32,
    /// Whole-job watchdog: a run exceeding this is a transient failure.
    pub job_timeout: Duration,
    /// Per-job analysis memory budget (bytes).
    pub memory_budget: Option<u64>,
    /// Per-stage analysis watchdog.
    pub stage_timeout: Option<Duration>,
    /// Checkpoint the database once this many jobs are merged. `1` (the
    /// default) makes RESULT imply durability; larger trades that for
    /// throughput.
    pub checkpoint_every_jobs: u64,
    /// Compute replay-validated repair suggestions for each racy job and
    /// persist them alongside the findings (the report's optional `fixes`
    /// section and the database records' fix provenance).
    pub suggest_fixes: bool,
    /// Test hook (`HAWKSET_TEST_JOB_DELAY_MS` on the daemon): sleep this
    /// long at the start of every analysis, so tests can saturate a small
    /// pool deterministically.
    pub job_delay: Option<Duration>,
    /// Test hook (`HAWKSET_TEST_PANIC_FIRST_ATTEMPT`): panic every job's
    /// first attempt, driving the retry/backoff path end to end.
    pub panic_first_attempt: bool,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_retries: 2,
            job_timeout: Duration::from_secs(120),
            memory_budget: None,
            stage_timeout: None,
            checkpoint_every_jobs: 1,
            suggest_fixes: false,
            job_delay: None,
            panic_first_attempt: false,
        }
    }
}

impl WorkerConfig {
    /// Reads the test hooks from the daemon's environment. Called once at
    /// startup — hooks are process-scoped, like the streaming pipeline's
    /// `HAWKSET_TEST_SHARD_DELAY_MS`.
    pub fn with_env_hooks(mut self) -> Self {
        self.job_delay = std::env::var("HAWKSET_TEST_JOB_DELAY_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .map(Duration::from_millis);
        self.panic_first_attempt = std::env::var_os("HAWKSET_TEST_PANIC_FIRST_ATTEMPT").is_some();
        self
    }
}

/// The running pool; [`join`](WorkerPool::join) after the scheduler
/// drains.
pub struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Starts `cfg.workers` supervising threads.
    pub fn spawn(
        cfg: WorkerConfig,
        sched: Arc<Scheduler>,
        db: Arc<Mutex<RaceDb>>,
        metrics: Arc<ServeMetrics>,
        health: Arc<StorageHealth>,
    ) -> Self {
        let handles = (0..cfg.workers.max(1))
            .map(|i| {
                let (cfg, sched, db, metrics, health) = (
                    cfg.clone(),
                    sched.clone(),
                    db.clone(),
                    metrics.clone(),
                    health.clone(),
                );
                std::thread::Builder::new()
                    .name(format!("hawkset-worker-{i}"))
                    .spawn(move || worker_loop(&cfg, &sched, &db, &metrics, &health))
                    .expect("spawn worker thread")
            })
            .collect();
        Self { handles }
    }

    /// Waits for every worker to observe pool closure and exit.
    pub fn join(self) {
        for h in self.handles {
            let _ = h.join();
        }
    }
}

fn worker_loop(
    cfg: &WorkerConfig,
    sched: &Scheduler,
    db: &Mutex<RaceDb>,
    metrics: &ServeMetrics,
    health: &StorageHealth,
) {
    loop {
        match sched.pop(Duration::from_millis(100)) {
            Pop::Closed => break,
            Pop::Idle => {}
            Pop::Job(job) => handle_job(cfg, sched, db, metrics, health, job),
        }
        metrics.queue_depth.set(sched.depth() as u64);
    }
}

fn handle_job(
    cfg: &WorkerConfig,
    sched: &Scheduler,
    db: &Mutex<RaceDb>,
    metrics: &ServeMetrics,
    health: &StorageHealth,
    mut job: Job,
) {
    let (run_cfg, bytes, attempts) = (cfg.clone(), Arc::clone(&job.trace), job.attempts);
    let run = run_isolated(
        &format!("hawkset-job-{}", job.id),
        cfg.job_timeout,
        move || run_analysis(&run_cfg, &bytes, attempts),
    );
    let why = match run {
        Ok(Ok(report)) => {
            match persist(cfg, db, metrics, health, &job, &report) {
                Ok(()) => {
                    if report.is_clean() {
                        metrics.completed_clean.add(1);
                    } else {
                        metrics.completed_races.add(1);
                    }
                    let _ = job.reply.send(JobReply::Done {
                        clean: report.is_clean(),
                        report_json: report.to_json(),
                    });
                }
                Err(message) => {
                    // The analysis succeeded but durability did not — the
                    // one case where RESULT would lie. Fail the job; the
                    // client resubmits and the dedupe absorbs the overlap.
                    metrics.failed.add(1);
                    let _ = job.reply.send(JobReply::Failed { message });
                }
            }
            sched.resolve();
            return;
        }
        Ok(Err(e)) => {
            metrics.failed.add(1);
            let _ = job.reply.send(JobReply::Failed {
                message: format!("analysis failed: {e}"),
            });
            sched.resolve();
            return;
        }
        Err(Failure::Panicked(msg)) => {
            metrics.worker_panics.add(1);
            format!("worker panicked: {msg}")
        }
        Err(Failure::TimedOut) => {
            metrics.watchdog_fires.add(1);
            format!("watchdog expired after {:?}", cfg.job_timeout)
        }
    };
    if job.attempts >= cfg.max_retries {
        metrics.failed.add(1);
        let _ = job.reply.send(JobReply::Failed {
            message: format!("{why} (gave up after {} attempts)", job.attempts + 1),
        });
        sched.resolve();
    } else {
        std::thread::sleep(Backoff::DEFAULT.delay(job.attempts));
        job.attempts += 1;
        metrics.retries.add(1);
        sched.requeue(job);
    }
}

fn run_analysis(
    cfg: &WorkerConfig,
    bytes: &[u8],
    attempts: u32,
) -> Result<AnalysisReport, HawkSetError> {
    if attempts == 0 && cfg.panic_first_attempt {
        panic!("injected first-attempt panic (HAWKSET_TEST_PANIC_FIRST_ATTEMPT)");
    }
    if let Some(delay) = cfg.job_delay {
        std::thread::sleep(delay);
    }
    let analyzer = Analyzer::new(AnalysisConfig {
        threads: 1,
        suggest_fixes: cfg.suggest_fixes,
        budget: AnalysisBudget {
            memory_budget: cfg.memory_budget,
            stage_timeout: cfg.stage_timeout,
            ..Default::default()
        },
        ..Default::default()
    });
    let mut report = analyzer.try_run_stream(Cursor::new(bytes))?;
    if cfg.suggest_fixes && !report.is_clean() {
        // The streaming run consumed its reader, but the submission's
        // bytes are still in hand — decode them once more and validate a
        // repair per race by patched replay. A decode failure here cannot
        // happen for bytes the stream just analyzed, but if it did the
        // report simply ships without a `fixes` section.
        if let Ok(trace) = hawkset_core::trace::io::decode(bytes) {
            analyzer.attach_fixes(&trace, &mut report);
        }
    }
    Ok(report)
}

/// Merges the report into the database and checkpoints per the cadence.
/// On success the findings are durable (cadence 1) or scheduled (cadence
/// > 1); on error the caller fails the job.
///
/// A failed checkpoint is the storage fault plane's main event, and two
/// things must happen before the client hears about it. First, the merge
/// is **rolled back**: the client is told to resubmit, so leaving the
/// findings in the working set would double-count them when a later
/// checkpoint finally lands. Second, the daemon **degrades to
/// read-only**: a disk that just ate a checkpoint will eat the next one
/// too, so admission stops promising durability until a probe (or a real
/// checkpoint, below) proves the storage healthy again.
fn persist(
    cfg: &WorkerConfig,
    db: &Mutex<RaceDb>,
    metrics: &ServeMetrics,
    health: &StorageHealth,
    job: &Job,
    report: &AnalysisReport,
) -> Result<(), String> {
    let mut db = lock_db(db);
    let prior = db.working().clone();
    db.merge_report(&job.tenant, &report.races, report.fixes.as_ref());
    if db.jobs_since_checkpoint() >= cfg.checkpoint_every_jobs.max(1) {
        if let Err(e) = db.checkpoint() {
            db.restore_working(prior);
            metrics.poisoned_generations.set(db.poisoned_generations());
            health.mark_degraded(&format!("checkpoint failed: {e}"));
            return Err(format!(
                "storage failure: findings are not durable ({e}); resubmit when storage recovers"
            ));
        }
        metrics.checkpoints.add(1);
        metrics.poisoned_generations.set(db.poisoned_generations());
        // A checkpoint that landed is better evidence than any probe.
        health.mark_healthy("checkpoint landed");
    }
    metrics.snapshot_generation.set(db.stable().generation);
    metrics.snapshot_age_jobs.set(db.jobs_since_checkpoint());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Scheduler;
    use hawkset_core::addr::AddrRange;
    use hawkset_core::trace::{io, EventKind, Frame, LockId, LockMode, ThreadId, TraceBuilder};
    use std::sync::mpsc::{channel, Receiver};

    /// The Figure-1c racy trace, encoded to wire bytes.
    fn racy_trace_bytes() -> Vec<u8> {
        let mut b = TraceBuilder::new();
        let x = AddrRange::new(0x1000, 8);
        let a = LockId(0xa);
        let st = b.intern_stack([Frame::new("writer", "f.rs", 1)]);
        let ld = b.intern_stack([Frame::new("reader", "f.rs", 2)]);
        b.push(
            ThreadId(0),
            st,
            EventKind::ThreadCreate { child: ThreadId(1) },
        );
        b.push(
            ThreadId(0),
            st,
            EventKind::Acquire {
                lock: a,
                mode: LockMode::Exclusive,
            },
        );
        b.push(
            ThreadId(0),
            st,
            EventKind::Store {
                range: x,
                non_temporal: false,
                atomic: false,
            },
        );
        b.push(ThreadId(0), st, EventKind::Release { lock: a });
        b.push(
            ThreadId(1),
            ld,
            EventKind::Acquire {
                lock: a,
                mode: LockMode::Exclusive,
            },
        );
        b.push(
            ThreadId(1),
            ld,
            EventKind::Load {
                range: x,
                atomic: false,
            },
        );
        b.push(ThreadId(1), ld, EventKind::Release { lock: a });
        b.push(ThreadId(0), st, EventKind::Flush { addr: x.start });
        b.push(ThreadId(0), st, EventKind::Fence);
        b.push(
            ThreadId(0),
            st,
            EventKind::ThreadJoin { child: ThreadId(1) },
        );
        io::encode(&b.finish()).to_vec()
    }

    fn pool_fixture(
        tag: &str,
        cfg: WorkerConfig,
    ) -> (
        Arc<Scheduler>,
        Arc<Mutex<RaceDb>>,
        Arc<ServeMetrics>,
        WorkerPool,
        std::path::PathBuf,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "hwk-worker-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let sched = Arc::new(Scheduler::new(16, 16));
        let db = Arc::new(Mutex::new(RaceDb::open(&dir).unwrap()));
        let metrics = Arc::new(ServeMetrics::new());
        let health = Arc::new(StorageHealth::new(
            &dir,
            Arc::new(hawkset_core::RealIo),
            0,
            Duration::from_millis(10),
        ));
        let pool = WorkerPool::spawn(cfg, sched.clone(), db.clone(), metrics.clone(), health);
        (sched, db, metrics, pool, dir)
    }

    fn submit(sched: &Scheduler, tenant: &str, bytes: Vec<u8>) -> Receiver<JobReply> {
        let res = sched.reserve(tenant).unwrap();
        let (tx, rx) = channel();
        sched.commit(res, bytes, tx);
        rx
    }

    #[test]
    fn racy_job_completes_durably_and_replies() {
        let (sched, db, metrics, pool, dir) = pool_fixture("ok", WorkerConfig::default());
        let rx = submit(&sched, "t1", racy_trace_bytes());
        let reply = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let JobReply::Done { clean, report_json } = reply else {
            panic!("expected Done, got {reply:?}");
        };
        assert!(!clean);
        assert!(report_json.contains("\"races\""));
        // RESULT implies durability: the stable root already has the race.
        {
            let db = db.lock().unwrap();
            assert_eq!(db.stable().records.len(), 1);
            assert_eq!(db.stable().records[0].occurrences, 1);
            assert_eq!(db.jobs_since_checkpoint(), 0);
        }
        sched.begin_drain();
        pool.join();
        assert_eq!(metrics.completed_races.get(), 1);
        assert_eq!(metrics.failed.get(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn suggest_fixes_persists_validated_fix_records_with_provenance() {
        let cfg = WorkerConfig {
            suggest_fixes: true,
            ..WorkerConfig::default()
        };
        let (sched, db, _metrics, pool, dir) = pool_fixture("fixes", cfg);
        let rx = submit(&sched, "t1", racy_trace_bytes());
        let reply = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let JobReply::Done { clean, report_json } = reply else {
            panic!("expected Done, got {reply:?}");
        };
        assert!(!clean);
        assert!(
            report_json.contains("\"fixes\""),
            "the returned report carries the fixes section: {report_json}"
        );
        {
            // The fix record rode the same checkpoint as the finding: it
            // is already durable in the stable root when RESULT arrives.
            let db = db.lock().unwrap();
            let rec = &db.stable().records[0];
            assert_eq!(rec.fixes.len(), 1);
            assert_eq!(rec.fixes[0].kind, "flush_fence");
            assert!(rec.fixes[0].validated, "fig1c's repair replays clean");
            assert_eq!(rec.fixes[0].occurrences, 1);
            assert_eq!(rec.fixes[0].tenants.len(), 1);
            assert_eq!(rec.fixes[0].tenants[0].tenant, "t1");
        }
        // The same submission with fixes disabled must not grow records.
        let rx = submit(&sched, "t2", racy_trace_bytes());
        let _ = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        {
            let db = db.lock().unwrap();
            let rec = &db.stable().records[0];
            assert_eq!(rec.occurrences, 2);
            assert_eq!(
                rec.fixes[0].occurrences, 2,
                "the pool config applies to every job"
            );
        }
        sched.begin_drain();
        pool.join();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_trace_fails_terminally_without_retry() {
        let (sched, _db, metrics, pool, dir) = pool_fixture("garbage", WorkerConfig::default());
        let rx = submit(&sched, "t1", b"not a trace at all".to_vec());
        let reply = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let JobReply::Failed { message } = reply else {
            panic!("expected Failed, got {reply:?}");
        };
        assert!(message.contains("analysis failed"), "{message}");
        sched.begin_drain();
        pool.join();
        assert_eq!(metrics.failed.get(), 1);
        assert_eq!(metrics.retries.get(), 0, "decode errors are terminal");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watchdog_times_out_and_exhausts_retries() {
        let cfg = WorkerConfig {
            workers: 1,
            max_retries: 1,
            job_timeout: Duration::from_millis(200),
            // A job that cannot finish inside the 200ms watchdog.
            job_delay: Some(Duration::from_secs(10)),
            ..WorkerConfig::default()
        };
        let (sched, _db, metrics, pool, dir) = pool_fixture("watchdog", cfg);
        let rx = submit(&sched, "t1", racy_trace_bytes());
        let reply = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let JobReply::Failed { message } = reply else {
            panic!("expected Failed, got {reply:?}");
        };
        assert!(message.contains("watchdog"), "{message}");
        assert!(message.contains("gave up"), "{message}");
        sched.begin_drain();
        pool.join();
        assert_eq!(metrics.watchdog_fires.get(), 2, "initial + 1 retry");
        assert_eq!(metrics.retries.get(), 1);
        assert_eq!(metrics.failed.get(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn panic_is_transient_and_the_retry_succeeds() {
        let cfg = WorkerConfig {
            workers: 1,
            max_retries: 2,
            panic_first_attempt: true,
            ..WorkerConfig::default()
        };
        let (sched, db, metrics, pool, dir) = pool_fixture("panic-retry", cfg);
        let rx = submit(&sched, "t1", racy_trace_bytes());
        let reply = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(
            matches!(reply, JobReply::Done { clean: false, .. }),
            "retry after the injected panic must succeed: {reply:?}"
        );
        assert_eq!(db.lock().unwrap().stable().records.len(), 1);
        sched.begin_drain();
        pool.join();
        assert_eq!(metrics.worker_panics.get(), 1);
        assert_eq!(metrics.retries.get(), 1);
        assert_eq!(metrics.completed_races.get(), 1);
        assert_eq!(metrics.failed.get(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn storage_failure_fails_the_job_degrades_and_resubmission_converges() {
        let dir = std::env::temp_dir().join(format!(
            "hwk-worker-storage-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Occurrence 0 of every site/op pair is consumed by the gen-0
        // bootstrap inside open_with; occurrence 1 is the first real
        // checkpoint's CURRENT swap — the moment durability is claimed.
        let script = hawkset_core::FaultScript::parse("current:rename:1:enospc").unwrap();
        let plane: Arc<dyn hawkset_core::IoPlane> = Arc::new(hawkset_core::ScriptedIo::new(script));
        let db = Arc::new(Mutex::new(RaceDb::open_with(&dir, plane.clone()).unwrap()));
        let sched = Arc::new(Scheduler::new(16, 16));
        let metrics = Arc::new(ServeMetrics::new());
        let health = Arc::new(StorageHealth::new(&dir, plane, 0, Duration::from_millis(1)));
        let pool = WorkerPool::spawn(
            WorkerConfig::default(),
            sched.clone(),
            db.clone(),
            metrics.clone(),
            health.clone(),
        );

        let rx = submit(&sched, "t1", racy_trace_bytes());
        let reply = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let JobReply::Failed { message } = reply else {
            panic!("expected Failed on the eaten checkpoint, got {reply:?}");
        };
        assert!(message.contains("storage failure"), "{message}");
        assert!(message.contains("resubmit"), "{message}");
        assert!(health.is_degraded(), "a lost checkpoint must degrade");
        {
            let db = lock_db(&db);
            assert_eq!(db.working().records.len(), 0, "merge rolled back");
            assert_eq!(db.jobs_since_checkpoint(), 0);
            assert_eq!(db.poisoned_generations(), 1);
        }

        // Blind resubmission (what the retrying client does) converges:
        // the fault was one-shot, so the next checkpoint lands and heals.
        let rx = submit(&sched, "t1", racy_trace_bytes());
        let reply = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(
            matches!(reply, JobReply::Done { clean: false, .. }),
            "resubmission must succeed once storage recovers: {reply:?}"
        );
        assert!(!health.is_degraded(), "a landed checkpoint heals");
        {
            let db = lock_db(&db);
            assert_eq!(db.stable().records.len(), 1);
            assert_eq!(
                db.stable().records[0].occurrences,
                1,
                "rollback must prevent the double count"
            );
        }
        sched.begin_drain();
        pool.join();
        assert_eq!(metrics.failed.get(), 1);
        assert_eq!(metrics.completed_races.get(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
