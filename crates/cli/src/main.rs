//! `hawkset` — command-line front end for the analysis pipeline.
//!
//! Traces recorded by the instrumented runtime (binary `.hwkt` files, see
//! [`hawkset_core::trace::io`]) are analyzed offline, so a single recorded
//! execution can be re-analyzed with different settings — IRH on/off,
//! atomics included or not — without re-running the application.
//!
//! ```text
//! hawkset analyze   <trace.hwkt> [OPTIONS]   race report (exit 1: races)
//! hawkset info      <trace.hwkt>             trace statistics
//! hawkset demo      <out.hwkt>               record the Figure-1c trace
//! hawkset crashtest <app> [OPTIONS]          crash-injection campaign
//! hawkset serve     [OPTIONS]                always-on analysis daemon
//! hawkset submit    <trace.hwkt> (--socket PATH | --tcp ADDR) [OPTIONS]
//! hawkset query     [--db DIR] [--json] [--verify TENANT=REPORT.json]...
//! ```
//!
//! `hawkset help` prints every option ([`USAGE`]). Each command declares
//! its options as one flag table — a flag name and a typed setter per row
//! ([`Kind`]) — and reads its arguments with [`parse`], so `--flag V` and
//! `--flag=V`, unknown flags, missing or malformed values and stray
//! positionals are handled once: one line on stderr, exit 2
//! ([`usage_err`]).

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use hawkset_core::analysis::checkpoint::{
    config_fingerprint, AnalysisCheckpoint, CheckpointSession,
};
use hawkset_core::analysis::{AnalysisConfig, Analyzer, StallInjection, Strictness};
use hawkset_core::ioplane::{plane_from_env, write_atomic, IoPlane};
use hawkset_core::trace::io;
use hawkset_core::{HawkSetError, Trace};
use hawkset_serve::ServeConfig;
use pmrace::CrashCampaignConfig;
use Kind::{AtLeast1, Float, Int, Millis, Parsed, Switch, Text, U32};

/// SIGINT/SIGTERM land here: a single shared flag the analysis pipeline
/// polls at its safe points (between ingested events, between pairing
/// shards). First signal requests a graceful stop — the run finalizes a
/// partial report and flushes the checkpoint; a second impatient signal is
/// not intercepted beyond re-setting the same flag, so the default
/// disposition (kill) stays available via SIGKILL only.
mod interrupt {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};

    static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

    extern "C" fn on_signal(_sig: i32) {
        // Async-signal-safe: one relaxed atomic store, no allocation.
        if let Some(f) = FLAG.get() {
            f.store(true, Ordering::Relaxed);
        }
    }

    #[cfg(unix)]
    pub fn install() -> Arc<AtomicBool> {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        let flag = FLAG
            .get_or_init(|| Arc::new(AtomicBool::new(false)))
            .clone();
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
            signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        }
        flag
    }

    #[cfg(not(unix))]
    pub fn install() -> Arc<AtomicBool> {
        let _ = on_signal as extern "C" fn(i32);
        FLAG.get_or_init(|| Arc::new(AtomicBool::new(false)))
            .clone()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("demo") => cmd_demo(&args[1..]),
        Some("crashtest") => cmd_crashtest(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => usage_err(other, "unknown command"),
    }
}

const USAGE: &str = "\
hawkset — automatic, application-agnostic concurrent PM bug detection

USAGE:
    hawkset analyze   <trace.hwkt> [OPTIONS]
    hawkset info      <trace.hwkt>
    hawkset demo      <out.hwkt>
    hawkset crashtest <app> [OPTIONS]
    hawkset serve     [OPTIONS]
    hawkset submit    <trace.hwkt> (--socket PATH | --tcp ADDR) [OPTIONS]
    hawkset query     [--db DIR] [--json] [--verify TENANT=REPORT.json]...

COMMANDS:
    analyze    run the PM-aware lockset analysis on a recorded trace
               (pass `-` as the trace path to stream from stdin)
    info       print trace statistics (events, threads, PM regions)
    demo       record the paper's Figure-1c example as a trace file
    crashtest  run a supervised crash-injection campaign against one of
               the built-in applications: crash at injected points,
               restart from the persisted-only image, audit recovery,
               and join failures with the HawkSet race report
    serve      run the always-on analysis daemon: framed submissions over
               a unix socket and/or TCP, tenant-fair bounded queuing with
               explicit shed responses, supervised workers, and a
               crash-safe cumulative race database
    submit     send one trace to a running daemon and wait for the
               verdict (the findings are durable before the reply)
    query      read the race database's stable snapshot (safe while the
               daemon runs); --verify recomputes the expected database
               from batch `analyze --json` reports and compares
               byte-for-byte

ANALYZE OPTIONS:
    --no-irh        disable the Initialization Removal Heuristic (§3.1.3)
    --no-atomics    exclude atomic-instruction accesses from pairing
    --no-hb         disable the inter-thread happens-before filter (§3.1.2)
    --store-store   also pair stores against stores (off by design, §3.1.1)
    --eadr          assume an eADR platform (§2.1): no race can exist
    --suggest-fixes compute replay-validated repair suggestions — a
                    flush+fence insertion or lock extension per race,
                    each proven by re-analyzing the trace with the patch
                    applied; emitted as the optional `fixes` section of
                    --json output and a `repair` line per race otherwise
                    (unproven suggestions are demoted to candidates)
    --json          emit machine-readable race reports
    --strict        reject ill-formed traces up front (default)
    --lenient       quarantine ill-formed events and analyze the rest
    --salvage       recover the longest valid event prefix of a corrupted
                    trace file instead of rejecting it
    --max-pairs N   stop pairing after N candidate pairs (report marked
                    truncated; races found in budget are still reported)
    --max-events N  analyze only the first N events of the trace
    --threads N     worker threads for the parallel pairing stage
                    (default: all cores; reports are identical for any N)
    --metrics PATH  write the run's metrics snapshot (pipeline counters
                    plus stage timings, JSON) to PATH, atomically
    --metrics-stderr
                    print the metrics snapshot JSON to stderr (stdout
                    stays reserved for the report)
    --stream        decode and simulate incrementally from a bounded
                    buffer instead of loading the whole file (identical
                    report; required implicitly for stdin, --checkpoint
                    and --resume)
    --memory-budget N
                    cap live simulation state at ~N bytes; on pressure
                    the coldest persisted windows are evicted and the
                    report is marked `coverage.reason = memory_budget`
    --stage-timeout-ms N
                    watchdog deadline per pairing shard; stalled shards
                    are cancelled and the partial report is marked
                    `coverage.reason = stage_stalled`
    --checkpoint PATH
                    write an atomic resume checkpoint to PATH as the run
                    progresses (ingest progress + finished shards)
    --checkpoint-every N
                    checkpoint cadence in ingested events (default 2^20)
    --resume PATH   continue an interrupted run from its checkpoint:
                    ingest is replayed from the trace file, finished
                    pairing shards are restored from PATH (the trace must
                    be a seekable file, not stdin); keeps checkpointing
                    to PATH

SIGNALS (analyze):
    SIGINT/SIGTERM request a graceful stop: the run finalizes a partial
    report marked `coverage.reason = interrupt`, flushes the checkpoint
    (if any), and exits with the usual 0/1 status.

CRASHTEST OPTIONS:
    --rounds N            campaign rounds (default 4)
    --ops N               main-phase operations per round (default 200)
    --seed N              campaign seed: drives workloads and crash-point
                          placement (default 1)
    --crash-points N      crash images captured per round (default 8)
    --round-timeout-ms N  watchdog deadline per round attempt (default 30000)
    --max-retries N       retries for panicked/timed-out rounds (default 2)
    --checkpoint PATH     write campaign state to PATH after every round
    --resume PATH         load PATH and re-run only unfinished rounds
                          (implies --checkpoint PATH)
    --threads N           worker threads for each round's race analysis
                          (default: all cores)
    --suggest-fixes       compute replay-validated repair suggestions in
                          each round's analysis and attach them to the
                          attributed ground-truth races
    --steer               coverage-guided steering: rounds that discover
                          new coverage (race sites, lockset states, audit
                          outcomes) enter a corpus, and later rounds are
                          derived by mutating corpus entries along the
                          enabled axes — deterministic in --seed, and
                          --resume continues steering exactly
    --axes LIST           comma-separated steering axes (default
                          workload,delay,crash,threads,memory; add `io`
                          to opt into storage-fault probes)
    --delay-probability F base per-PM-op delay probability in [0, 1]
                          applied to every round (default 0)
    --max-delay-us N      base injected-delay upper bound, microseconds
    --json                emit the machine-readable campaign record,
                          including a `coverage` section with the distinct
                          race sites and the per-round discovery timeline
    --metrics PATH        write the campaign metrics snapshot (per-outcome
                          round counters, retry/backoff totals, JSON) to
                          PATH atomically; never changes the exit status
    --metrics-stderr      print the campaign metrics JSON to stderr

SERVE OPTIONS:
    --db DIR              race database directory (default hawkset-db)
    --socket PATH         listen on a unix socket at PATH
    --tcp ADDR            listen on a TCP address (port 0 = ephemeral;
                          the bound address is echoed in the readiness
                          line); at least one listener is required
    --metrics PATH        metrics snapshot path written on drain
                          (default DIR/serve-metrics.json)
    --workers N           analysis worker threads (default 2)
    --suggest-fixes       compute replay-validated repair suggestions for
                          every racy submission; they ride the returned
                          report's `fixes` section and persist — deduped
                          by patch shape, with per-tenant provenance —
                          alongside the race records in the database
    --queue-cap N         global admission queue capacity (default 32)
    --tenant-cap N        per-tenant pending-submission cap (default 8)
    --checkpoint-every-jobs N
                          database root-swap cadence in jobs (default 1:
                          every RESULT is durable before it is sent)
    --memory-budget N     per-job live simulation cap in bytes
    --stage-timeout-ms N  per-job pairing-shard watchdog deadline
    --job-timeout-ms N    supervisor deadline per analysis attempt
                          (default 120000)
    --max-retries N       retries for panicked/timed-out jobs (default 2)
    --max-trace-bytes N   reject submissions larger than N bytes
    --drain-timeout-ms N  how long a drain waits for in-flight jobs
                          before giving up (default 60000)
    --max-connections N   concurrent-connection cap; over-cap peers get
                          an explicit `SHED connections:` (default 64)
    --io-timeout-ms N     per-frame read budget and per-write timeout —
                          the slowloris bound (default 30000)
    --idle-timeout-ms N   budget for an idle connection to start its
                          next request (default 300000)
    --min-free-bytes N    shed submissions (`storage:`) when the database
                          filesystem has less than N bytes free; 0
                          disables the watermark (default 1048576)
    --probe-interval-ms N while degraded to read-only, re-probe storage
                          at most once per interval (default 2000)

SUBMIT OPTIONS:
    --socket PATH | --tcp ADDR  daemon endpoint (exactly one)
    --tenant NAME         fair-queuing identity (default `default`)
    --json                print the returned race report JSON
    --retries N           retry retryable sheds (`queue-full:`,
                          `tenant-cap:`, `storage:`, `draining:`,
                          `connections:`) and failed dials up to N times
                          on fresh connections with capped exponential
                          backoff (default 0)
    --retry-max-ms N      backoff ceiling between retries (default 5000)

QUERY OPTIONS:
    --db DIR              race database directory (default hawkset-db)
    --json                print the stable snapshot's canonical JSON
    --verify TENANT=REPORT.json
                          (repeatable) recompute the expected database
                          from batch analyze reports — including any
                          `fixes` sections — and require the stable
                          snapshot to match byte-for-byte

SIGNALS (serve):
    The first SIGTERM/SIGINT drains: stop admitting (new submissions are
    shed with `draining:`), finish in-flight jobs, flush a final stable
    snapshot and the metrics file, exit 0. A second signal exits 130
    immediately.

EXIT STATUS:
    0  no persistency-induced race found; all crashtest rounds Ok;
       clean serve drain; query verification passed
    1  races were reported (analyze/submit); trace failed validation
       (info); some crashtest round failed; serve drain timed out;
       query verification mismatch
    2  usage, I/O, decode or strict-mode validation error
    3  submission shed by the daemon (queue full, tenant cap, draining,
       degraded storage, connection cap) after any requested retries
  130  serve: immediate exit on a second signal
";

/// How a flag reads its value. The kind converts the raw text and owns the
/// error message; [`parse`] does everything else once.
enum Kind<O> {
    /// `--flag`: no value.
    Switch(fn(&mut O)),
    /// Any text (paths, addresses, names).
    Text(fn(&mut O, String)),
    /// An unsigned integer.
    Int(fn(&mut O, u64)),
    /// An unsigned integer; 0 is refused (a cap or cadence of 0 would
    /// mean "never make progress").
    AtLeast1(fn(&mut O, u64)),
    /// A count stored as `u32`: a larger value is refused, never wrapped.
    U32(fn(&mut O, u32)),
    /// Milliseconds.
    Millis(fn(&mut O, Duration)),
    /// A float. Range checks stay with config validation, but NaN never
    /// parses: a value that compares false to everything is a typo.
    Float(fn(&mut O, f64)),
    /// A value with its own syntax; the setter's error is the message.
    Parsed(fn(&mut O, &str) -> Result<(), String>),
}

/// One row of a command's flag table.
type Flag<O> = (&'static str, Kind<O>);

impl<O> Kind<O> {
    fn apply(&self, o: &mut O, flag: &str, raw: &str) -> Result<(), String> {
        let int = || {
            raw.parse::<u64>()
                .map_err(|_| format!("{flag} needs an integer, got `{raw}`"))
        };
        match self {
            Switch(set) => set(o),
            Text(set) => set(o, raw.to_string()),
            Int(set) => set(o, int()?),
            AtLeast1(set) => match int()? {
                0 => return Err(format!("{flag} needs at least 1")),
                n => set(o, n),
            },
            U32(set) => {
                let n = int()?;
                let n = u32::try_from(n)
                    .map_err(|_| format!("{flag} must be at most {}, got {n}", u32::MAX))?;
                set(o, n)
            }
            Millis(set) => set(o, Duration::from_millis(int()?)),
            Float(set) => {
                let v = raw
                    .parse::<f64>()
                    .map_err(|_| format!("{flag} needs a number, got `{raw}`"))?;
                if v.is_nan() {
                    return Err(format!("{flag} cannot be NaN"));
                }
                set(o, v)
            }
            Parsed(set) => set(o, raw)?,
        }
        Ok(())
    }
}

/// Reads `args` into `o` through the command's flag table and returns the
/// positionals (at most `positionals` of them). An argument that does not
/// start with `--` is a positional, so `-` names stdin. Any problem is a
/// [`usage_err`].
fn parse<O>(
    cmd: &str,
    flags: &[Flag<O>],
    args: &[String],
    o: &mut O,
    positionals: usize,
) -> Vec<String> {
    let mut found = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            if found.len() == positionals {
                usage_err(cmd, &format!("unexpected argument `{arg}`"));
            }
            found.push(arg.clone());
            continue;
        }
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (arg.as_str(), None),
        };
        let Some((_, kind)) = flags.iter().find(|(f, _)| *f == name) else {
            usage_err(cmd, &format!("unknown flag {arg}"));
        };
        let raw = match (kind, inline) {
            (Switch(_), Some(_)) => usage_err(cmd, &format!("{name} takes no value")),
            (Switch(_), None) => "",
            (_, Some(v)) => v,
            (_, None) => match rest.next() {
                Some(v) => v,
                None => usage_err(cmd, &format!("{name} needs a value")),
            },
        };
        if let Err(e) = kind.apply(o, name, raw) {
            usage_err(cmd, &e);
        }
    }
    found
}

/// The one way a command reports a usage error: `hawkset <cmd>: <msg>`, a
/// pointer at the help text, exit 2.
fn usage_err(cmd: &str, msg: &str) -> ! {
    eprintln!("hawkset {cmd}: {msg}\nrun `hawkset help` for the options");
    std::process::exit(2)
}

fn load_trace(path: &str) -> Result<Trace, HawkSetError> {
    io::load_file(std::path::Path::new(path), None)
}

/// A decoded trace plus, when lossy salvage ran, the loss accounting the
/// metrics object reports.
enum LoadedTrace {
    Plain(Trace),
    Salvaged(io::Salvage),
}

impl LoadedTrace {
    fn trace(&self) -> &Trace {
        match self {
            LoadedTrace::Plain(t) => t,
            LoadedTrace::Salvaged(s) => &s.trace,
        }
    }

    fn salvage(&self) -> Option<&io::Salvage> {
        match self {
            LoadedTrace::Salvaged(s) => Some(s),
            LoadedTrace::Plain(_) => None,
        }
    }
}

/// Loads with lossy salvage: a clean file loads fully; a truncated or
/// tail-corrupted file yields its longest valid event prefix, with a note
/// on stderr. Corruption that precedes the event stream (header, tables)
/// is not salvageable and still fails.
fn load_trace_salvage(path: &str) -> Result<io::Salvage, HawkSetError> {
    let raw = std::fs::read(path).map_err(HawkSetError::Io)?;
    let salvage = io::decode_lossy(&raw)?;
    if !salvage.is_complete() {
        eprintln!(
            "hawkset: salvaged {} event(s) from {path}: dropped {} event(s) and {} byte(s){}",
            salvage.trace.events.len(),
            salvage.dropped_events,
            salvage.dropped_bytes,
            match salvage.reason {
                Some(e) => format!(" ({e})"),
                None => String::new(),
            },
        );
    }
    Ok(salvage)
}

/// A command's `--metrics PATH` / `--metrics-stderr` destinations.
#[derive(Default)]
struct MetricsOut {
    path: Option<String>,
    to_stderr: bool,
}

impl MetricsOut {
    fn wanted(&self) -> bool {
        self.to_stderr || self.path.is_some()
    }

    /// Emits a metrics JSON; the file goes through the one durable write
    /// (site `metrics`). Returns `false` on a failed file write when
    /// `lenient` is off (the caller aborts with a usage/I-O exit); under
    /// `lenient` the failure is a warning and the run's exit code is
    /// unchanged.
    fn emit(&self, plane: &dyn IoPlane, json: &str, lenient: bool, cmd: &str) -> bool {
        if self.to_stderr {
            eprintln!("{json}");
        }
        if let Some(p) = &self.path {
            if let Err(e) = write_atomic(plane, "metrics", Path::new(p), json.as_bytes()) {
                if lenient {
                    eprintln!("hawkset {cmd}: warning: cannot write metrics to {p}: {e}");
                } else {
                    eprintln!("hawkset {cmd}: cannot write metrics to {p}: {e}");
                    return false;
                }
            }
        }
        true
    }
}

/// The process's I/O plane ([`plane_from_env`]), resolved once per
/// command; a malformed fault script is a usage error.
fn command_plane(cmd: &str) -> Arc<dyn IoPlane> {
    plane_from_env().unwrap_or_else(|e| usage_err(cmd, &e))
}

/// `hawkset analyze`'s options: the analysis config plus what the command
/// does with the trace and the report.
#[derive(Default)]
struct AnalyzeOpts {
    cfg: AnalysisConfig,
    json: bool,
    salvage: bool,
    stream: bool,
    metrics: MetricsOut,
    checkpoint: Option<String>,
    resume: Option<String>,
}

const ANALYZE_FLAGS: &[Flag<AnalyzeOpts>] = &[
    ("--no-irh", Switch(|o| o.cfg.irh = false)),
    ("--no-atomics", Switch(|o| o.cfg.include_atomics = false)),
    ("--no-hb", Switch(|o| o.cfg.use_hb = false)),
    ("--store-store", Switch(|o| o.cfg.check_store_store = true)),
    ("--eadr", Switch(|o| o.cfg.eadr = true)),
    ("--suggest-fixes", Switch(|o| o.cfg.suggest_fixes = true)),
    ("--json", Switch(|o| o.json = true)),
    (
        "--strict",
        Switch(|o| o.cfg.strictness = Strictness::Strict),
    ),
    (
        "--lenient",
        Switch(|o| o.cfg.strictness = Strictness::Lenient),
    ),
    ("--salvage", Switch(|o| o.salvage = true)),
    ("--stream", Switch(|o| o.stream = true)),
    ("--metrics-stderr", Switch(|o| o.metrics.to_stderr = true)),
    ("--metrics", Text(|o, p| o.metrics.path = Some(p))),
    (
        "--memory-budget",
        Int(|o, n| o.cfg.budget.memory_budget = Some(n)),
    ),
    (
        "--stage-timeout-ms",
        Millis(|o, d| o.cfg.budget.stage_timeout = Some(d)),
    ),
    ("--checkpoint", Text(|o, p| o.checkpoint = Some(p))),
    (
        "--checkpoint-every",
        AtLeast1(|o, n| o.cfg.checkpoint_every = Some(n)),
    ),
    ("--resume", Text(|o, p| o.resume = Some(p))),
    (
        "--max-pairs",
        Int(|o, n| o.cfg.budget.max_candidate_pairs = Some(n)),
    ),
    (
        "--max-events",
        Int(|o, n| o.cfg.budget.max_events = Some(n)),
    ),
    ("--threads", Int(|o, n| o.cfg.threads = n as usize)),
];

fn cmd_analyze(args: &[String]) -> ExitCode {
    let mut o = AnalyzeOpts::default();
    let Some(path) = parse("analyze", ANALYZE_FLAGS, args, &mut o, 1).pop() else {
        usage_err("analyze", "missing trace path");
    };
    let from_stdin = path == "-";
    if from_stdin && o.resume.is_some() {
        usage_err(
            "analyze",
            "--resume needs a seekable trace file: resuming replays ingestion from the \
             trace, and stdin (`-`) cannot be read twice",
        );
    }
    if from_stdin && o.cfg.suggest_fixes {
        usage_err(
            "analyze",
            "--suggest-fixes needs a seekable trace file: validation replays the trace \
             with each patch applied, and stdin (`-`) cannot be read twice",
        );
    }
    let streaming = o.stream || from_stdin || o.checkpoint.is_some() || o.resume.is_some();
    if streaming && o.salvage && o.cfg.strictness != Strictness::Lenient {
        usage_err(
            "analyze",
            "--salvage with --stream requires --lenient (lenient streaming salvages \
             automatically)",
        );
    }
    // Test hook for the watchdog/kill-resume suites: stall one pairing
    // shard so a run is reliably mid-pairing when a signal arrives.
    if let Ok(ms) = std::env::var("HAWKSET_TEST_SHARD_DELAY_MS") {
        let Ok(ms) = ms.parse::<u64>() else {
            usage_err("analyze", "HAWKSET_TEST_SHARD_DELAY_MS needs an integer");
        };
        let shard = std::env::var("HAWKSET_TEST_SHARD")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(0);
        o.cfg.stall_injection = Some(StallInjection {
            shard,
            delay: Duration::from_millis(ms),
        });
    }
    let plane = command_plane("analyze");
    o.cfg.interrupt = Some(interrupt::install());
    if streaming {
        return analyze_stream(&path, o, plane);
    }
    let decode_started = std::time::Instant::now();
    let loaded = if o.salvage {
        load_trace_salvage(&path).map(LoadedTrace::Salvaged)
    } else {
        load_trace(&path).map(LoadedTrace::Plain)
    };
    let decode_time = decode_started.elapsed();
    let loaded = match loaded {
        Ok(l) => l,
        Err(e) => {
            eprintln!("hawkset: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let trace = loaded.trace();
    let lenient = o.cfg.strictness == Strictness::Lenient;
    let mut report = match Analyzer::new(o.cfg).try_run(trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hawkset: {path}: {e} (use --lenient to quarantine and continue)");
            return ExitCode::from(2);
        }
    };
    // The analyzer cannot see I/O: patch decode wall-clock and salvage
    // losses into the snapshot before it is emitted anywhere.
    if let Some(m) = report.metrics.as_mut() {
        m.timing.decode_ms = decode_time.as_secs_f64() * 1e3;
        if let Some(s) = loaded.salvage() {
            s.record_metrics(m);
        }
    }
    report_exit(&report, trace, o.json, lenient, &o.metrics, plane.as_ref())
}

/// Streaming `analyze`: chunked ingestion straight into the simulator from
/// a file or stdin, with optional checkpointing (`--checkpoint`) and resume
/// (`--resume`). Checkpoints and the metrics file go through `plane`.
fn analyze_stream(path: &str, o: AnalyzeOpts, plane: Arc<dyn IoPlane>) -> ExitCode {
    use hawkset_core::analysis::BudgetExceeded;

    let AnalyzeOpts {
        mut cfg,
        json,
        metrics,
        checkpoint,
        resume,
        ..
    } = o;
    let lenient = cfg.strictness == Strictness::Lenient;
    let prior: Option<AnalysisCheckpoint> = match &resume {
        Some(p) => match AnalysisCheckpoint::load(std::path::Path::new(p)) {
            Ok(ck) => Some(ck),
            Err(e) => {
                eprintln!("hawkset: {p}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    // --resume keeps checkpointing to the same file unless --checkpoint
    // redirects it.
    let session_path = checkpoint.or(resume);
    let session = session_path.map(|p| {
        let session = match &prior {
            Some(ck) => CheckpointSession::resuming(p.into(), ck.clone(), cfg.checkpoint_every),
            None => CheckpointSession::new(
                p.into(),
                config_fingerprint(&cfg),
                path.to_string(),
                cfg.checkpoint_every,
            ),
        };
        Arc::new(session.with_plane(plane.clone()))
    });
    cfg.stream.checkpoint = session.clone();
    cfg.stream.resume = prior.map(Arc::new);
    let suggest = cfg.suggest_fixes;
    let analyzer = Analyzer::new(cfg);
    let result = if path == "-" {
        analyzer.try_run_stream_with_header(std::io::stdin().lock())
    } else {
        match std::fs::File::open(path) {
            Ok(f) => analyzer.try_run_stream_with_header(f),
            Err(e) => {
                eprintln!("hawkset: {path}: {e}");
                return ExitCode::from(2);
            }
        }
    };
    let (mut report, header) = match result {
        Ok(x) => x,
        Err(e) => {
            // Lenient mode would have absorbed exactly the decode/validate
            // failures — only those earn the hint.
            let hint = match &e {
                HawkSetError::Decode(_) | HawkSetError::Validate(_) if !lenient => {
                    " (use --lenient to quarantine and continue)"
                }
                _ => "",
            };
            eprintln!("hawkset: {path}: {e}{hint}");
            return ExitCode::from(2);
        }
    };
    if let Some(s) = &session {
        if let Some(e) = s.take_error() {
            eprintln!(
                "hawkset analyze: warning: checkpoint write to {} failed: {e}",
                s.path().display()
            );
        }
    }
    if report.coverage.reason == Some(BudgetExceeded::Interrupted) {
        match &session {
            Some(s) => eprintln!(
                "hawkset analyze: interrupted — partial report; resume with \
                 --resume {}",
                s.path().display()
            ),
            None => eprintln!("hawkset analyze: interrupted — partial report"),
        }
    } else if let Some(s) = &session {
        // The run completed: the checkpoint has nothing left to resume.
        // Leaving it behind invites a stale `--resume` against a future
        // (different) trace, so clean completion removes it.
        if let Err(e) = std::fs::remove_file(s.path()) {
            if e.kind() != std::io::ErrorKind::NotFound {
                eprintln!(
                    "hawkset analyze: warning: cannot remove completed checkpoint {}: {e}",
                    s.path().display()
                );
            }
        }
    }
    // The streamed source is gone, but repair validation needs the events
    // back to replay patches: re-read the trace file (the stdin case was
    // rejected up front). A failed re-read degrades to a fix-less report
    // rather than discarding the finished analysis.
    if suggest && !report.is_clean() {
        match load_trace(path) {
            Ok(t) => analyzer.attach_fixes(&t, &mut report),
            Err(e) => eprintln!(
                "hawkset analyze: warning: cannot re-read {path} for --suggest-fixes \
                 ({e}); report emitted without fixes"
            ),
        }
    }
    report_exit(&report, &header, json, lenient, &metrics, plane.as_ref())
}

/// Prints the report (JSON or rendered), emits metrics per the flags, and
/// maps the result to the exit status. Shared by the batch and streaming
/// paths — the report shape is identical, only `trace` differs (full trace
/// vs. stream header, both carrying the stack table rendering needs).
fn report_exit(
    report: &hawkset_core::analysis::AnalysisReport,
    trace: &Trace,
    json: bool,
    lenient: bool,
    metrics: &MetricsOut,
    plane: &dyn IoPlane,
) -> ExitCode {
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render(trace));
        let s = &report.stats;
        println!(
            "\n{} events ({} stores, {} loads, {} flushes, {} fences), \
             {} windows, {} IRH-discarded, {} candidate pairs, {} races, {}",
            s.sim.events,
            s.sim.stores,
            s.sim.loads,
            s.sim.flushes,
            s.sim.fences,
            s.sim.windows_created,
            s.sim.irh_discarded_windows,
            s.pairing.candidate_pairs,
            s.pairing.distinct_races,
            format_duration(s.duration),
        );
    }
    if metrics.wanted() {
        let metrics_json = report
            .metrics
            .as_ref()
            .map(hawkset_core::MetricsSnapshot::to_json)
            .unwrap_or_else(|| "{}".to_string());
        if !metrics.emit(plane, &metrics_json, lenient, "analyze") {
            return ExitCode::from(2);
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Fixed-format duration rendering (`1.84 ms`), stable across locales and
/// `Duration`'s unit-switching `Debug` output.
fn format_duration(d: std::time::Duration) -> String {
    format!("{:.2} ms", d.as_secs_f64() * 1e3)
}

fn cmd_info(args: &[String]) -> ExitCode {
    let Some(path) = parse("info", &[], args, &mut (), 1).pop() else {
        usage_err("info", "missing trace path");
    };
    let trace = match load_trace(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("hawkset: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    println!("trace:        {path}");
    println!("events:       {}", trace.events.len());
    println!("threads:      {}", trace.thread_count);
    println!("pm accesses:  {}", trace.access_count());
    println!("stacks:       {}", trace.stacks.stack_count());
    for r in &trace.regions {
        println!("region:       {:#x}+{} ({})", r.base, r.len, r.path);
    }
    match trace.validate() {
        Ok(()) => {
            println!("validation:   ok");
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("validation:   FAILED ({e})");
            ExitCode::from(1)
        }
    }
}

/// Records the Figure-1c program — store under lock, persist outside it,
/// concurrent load under the same lock — as a reusable demo trace.
fn cmd_demo(args: &[String]) -> ExitCode {
    use hawkset_core::addr::AddrRange;
    use hawkset_core::trace::{
        EventKind, Frame, LockId, LockMode, PmRegion, ThreadId, TraceBuilder,
    };

    let Some(path) = parse("demo", &[], args, &mut (), 1).pop() else {
        usage_err("demo", "missing output path");
    };
    let mut b = TraceBuilder::new();
    b.add_region(PmRegion {
        base: 0x1000,
        len: 4096,
        path: "/mnt/pmem/fig1c".into(),
    });
    let x = AddrRange::new(0x1000, 8);
    let a = LockId(0xa);
    let st = b.intern_stack([
        Frame::new("writer", "fig1c.c", 12),
        Frame::new("main", "fig1c.c", 40),
    ]);
    let ld = b.intern_stack([
        Frame::new("reader", "fig1c.c", 25),
        Frame::new("main", "fig1c.c", 41),
    ]);
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
    b.push(ThreadId(0), st, EventKind::Flush { addr: 0x1000 });
    b.push(ThreadId(0), st, EventKind::Fence);
    b.push(
        ThreadId(0),
        st,
        EventKind::ThreadJoin { child: ThreadId(1) },
    );
    let trace = b.finish();
    let encoded = io::encode(&trace);
    if let Err(e) = std::fs::write(&path, &encoded) {
        eprintln!("hawkset: cannot write {path}: {e}");
        return ExitCode::from(2);
    }
    println!(
        "wrote {} bytes to {path} — try: hawkset analyze {path}",
        encoded.len()
    );
    ExitCode::SUCCESS
}

/// `hawkset crashtest`'s options: the campaign config plus its outputs.
#[derive(Default)]
struct CrashtestOpts {
    cfg: CrashCampaignConfig,
    json: bool,
    metrics: MetricsOut,
}

const CRASHTEST_FLAGS: &[Flag<CrashtestOpts>] = &[
    ("--json", Switch(|o| o.json = true)),
    ("--metrics-stderr", Switch(|o| o.metrics.to_stderr = true)),
    ("--metrics", Text(|o, p| o.metrics.path = Some(p))),
    ("--suggest-fixes", Switch(|o| o.cfg.suggest_fixes = true)),
    ("--steer", Switch(|o| o.cfg.steer = true)),
    (
        "--axes",
        Parsed(|o, list| pmrace::AxisSet::parse(list).map(|axes| o.cfg.axes = axes)),
    ),
    (
        "--delay-probability",
        Float(|o, p| o.cfg.delay_probability = p),
    ),
    ("--max-delay-us", Int(|o, n| o.cfg.max_delay_us = n)),
    ("--rounds", Int(|o, n| o.cfg.rounds = n)),
    ("--ops", Int(|o, n| o.cfg.main_ops = n)),
    ("--seed", Int(|o, n| o.cfg.seed = n)),
    (
        "--crash-points",
        Int(|o, n| o.cfg.crash_points = n as usize),
    ),
    ("--round-timeout-ms", Millis(|o, d| o.cfg.round_timeout = d)),
    ("--max-retries", U32(|o, n| o.cfg.max_retries = n)),
    ("--threads", Int(|o, n| o.cfg.analysis_threads = n as usize)),
    (
        "--checkpoint",
        Text(|o, p| o.cfg.checkpoint = Some(p.into())),
    ),
    (
        "--resume",
        Text(|o, p| {
            o.cfg.checkpoint = Some(p.into());
            o.cfg.resume = true;
        }),
    ),
];

fn cmd_crashtest(args: &[String]) -> ExitCode {
    use pmrace::{run_crash_campaign, CampaignCheckpoint, RoundOutcome};

    let mut o = CrashtestOpts::default();
    let Some(app_name) = parse("crashtest", CRASHTEST_FLAGS, args, &mut o, 1).pop() else {
        usage_err("crashtest", "missing application name");
    };
    let CrashtestOpts { cfg, json, metrics } = o;
    // Accept `fast-fair`, `fastfair`, `P-CLHT`, `pclht`, … — compare with
    // case and punctuation folded away.
    let fold = |s: &str| {
        s.chars()
            .filter(char::is_ascii_alphanumeric)
            .collect::<String>()
            .to_ascii_lowercase()
    };
    let Some(app) = pm_apps::all_apps()
        .into_iter()
        .find(|a| fold(a.name()) == fold(&app_name))
    else {
        let names: Vec<&str> = pm_apps::all_apps().iter().map(|a| a.name()).collect();
        usage_err(
            "crashtest",
            &format!(
                "unknown application `{app_name}` (one of: {})",
                names.join(", ")
            ),
        );
    };
    let app: Arc<dyn pm_apps::Application> = Arc::from(app);
    if let Err(e) = cfg.validate() {
        usage_err("crashtest", &e);
    }
    let plane = command_plane("crashtest");
    if !app.supports_recovery() {
        eprintln!(
            "hawkset crashtest: note: `{}` has no recovery audit; rounds only exercise \
             crash capture and supervision",
            app.name()
        );
    }
    let result = match run_crash_campaign(&app, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hawkset crashtest: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        let record = CampaignCheckpoint {
            app: app.name().to_string(),
            seed: cfg.seed,
            rounds: cfg.rounds,
            completed: result.records.clone(),
            fingerprint: Some(cfg.fingerprint()),
        };
        // The report is the checkpoint shape plus a `coverage` section:
        // what the campaign discovered, and in which round.
        let report = serde_json::to_value(&record).and_then(|mut v| {
            let cov = serde_json::to_value(&result.coverage_report())?;
            if let serde_json::Value::Object(obj) = &mut v {
                obj.insert("coverage", cov);
            }
            serde_json::to_string_pretty(&v)
        });
        match report {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("hawkset crashtest: cannot serialize result: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        if result.resumed_from_checkpoint {
            println!(
                "resumed: {} round(s) loaded from checkpoint, {} executed now",
                result.records.len() as u64 - result.executed_this_run,
                result.executed_this_run
            );
        }
        for rec in &result.records {
            let outcome = match &rec.outcome {
                RoundOutcome::Ok => "ok".to_string(),
                RoundOutcome::Panicked { message } => format!("PANICKED ({message})"),
                RoundOutcome::TimedOut => "TIMED OUT".to_string(),
                RoundOutcome::RecoveryFailed { error, crash_op } => {
                    format!("RECOVERY FAILED at op {crash_op} ({error})")
                }
                RoundOutcome::InvariantViolated {
                    violations,
                    crash_op,
                } => format!(
                    "INVARIANTS VIOLATED at op {crash_op} ({} violation(s): {})",
                    violations.len(),
                    violations.first().map(String::as_str).unwrap_or("?")
                ),
            };
            println!(
                "round {:>3}: {outcome} — {} crash point(s), {} image(s), {} retrie(s), {} ms",
                rec.round,
                rec.crash_points.len(),
                rec.images_captured,
                rec.retries,
                rec.duration_ms
            );
            for race in &rec.attributed {
                println!(
                    "           race: bug #{} {} -> {} ({})",
                    race.bug_id, race.store_fn, race.load_fn, race.description
                );
                if let Some(fix) = &race.fix {
                    println!("           fix:  {fix}");
                }
            }
        }
        let failed = result
            .records
            .iter()
            .filter(|r| r.outcome != RoundOutcome::Ok)
            .count();
        println!(
            "{} round(s): {} ok, {} failed, in {}",
            result.records.len(),
            result.records.len() - failed,
            failed,
            format_duration(result.duration)
        );
        if cfg.steer {
            let cov = result.coverage_report();
            println!(
                "coverage: {} point(s), {} distinct race site(s), corpus {}",
                cov.points_total, cov.race_sites, cov.corpus_size
            );
        }
    }
    if metrics.wanted() {
        // Always lenient: losing the metrics file must never change a
        // campaign's exit status.
        metrics.emit(
            plane.as_ref(),
            &result.metrics(&cfg).to_json(),
            true,
            "crashtest",
        );
    }
    if result.all_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

// ---------------------------------------------------------------------------
// serve / submit / query — the daemon front door
// ---------------------------------------------------------------------------

const SERVE_FLAGS: &[Flag<ServeConfig>] = &[
    ("--db", Text(|c, p| c.db_dir = p.into())),
    ("--socket", Text(|c, p| c.unix_socket = Some(p.into()))),
    ("--tcp", Text(|c, addr| c.tcp_addr = Some(addr))),
    ("--metrics", Text(|c, p| c.metrics_path = Some(p.into()))),
    ("--workers", AtLeast1(|c, n| c.worker.workers = n as usize)),
    ("--suggest-fixes", Switch(|c| c.worker.suggest_fixes = true)),
    ("--queue-cap", AtLeast1(|c, n| c.queue_cap = n as usize)),
    ("--tenant-cap", AtLeast1(|c, n| c.tenant_cap = n as usize)),
    (
        "--checkpoint-every-jobs",
        AtLeast1(|c, n| c.worker.checkpoint_every_jobs = n),
    ),
    (
        "--memory-budget",
        Int(|c, n| c.worker.memory_budget = Some(n)),
    ),
    (
        "--stage-timeout-ms",
        Millis(|c, d| c.worker.stage_timeout = Some(d)),
    ),
    ("--job-timeout-ms", Millis(|c, d| c.worker.job_timeout = d)),
    ("--max-retries", U32(|c, n| c.worker.max_retries = n)),
    ("--drain-timeout-ms", Millis(|c, d| c.drain_timeout = d)),
    (
        "--max-trace-bytes",
        Int(|c, n| c.worker.max_trace_bytes = Some(n)),
    ),
    (
        "--max-connections",
        AtLeast1(|c, n| c.max_connections = n as usize),
    ),
    (
        "--io-timeout-ms",
        AtLeast1(|c, n| c.io_timeout = Duration::from_millis(n)),
    ),
    (
        "--idle-timeout-ms",
        AtLeast1(|c, n| c.idle_timeout = Duration::from_millis(n)),
    ),
    ("--min-free-bytes", Int(|c, n| c.min_free_bytes = n)),
    ("--probe-interval-ms", Millis(|c, d| c.probe_interval = d)),
];

/// `hawkset serve`: run the always-on analysis daemon until a signal
/// drains it (see the exit-code contract in the USAGE text and
/// `hawkset_serve::server`).
fn cmd_serve(args: &[String]) -> ExitCode {
    let mut cfg = ServeConfig::default();
    parse("serve", SERVE_FLAGS, args, &mut cfg, 0);
    cfg.worker = cfg.worker.clone().with_env_hooks();
    match hawkset_serve::run(&cfg) {
        Ok(code) => ExitCode::from(code.clamp(0, 255) as u8),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

/// `hawkset submit`'s options.
#[derive(Default)]
struct SubmitOpts {
    tenant: String,
    socket: Option<String>,
    tcp: Option<String>,
    json: bool,
    retries: u32,
    retry_max_ms: u64,
}

const SUBMIT_FLAGS: &[Flag<SubmitOpts>] = &[
    ("--json", Switch(|o| o.json = true)),
    ("--retries", U32(|o, n| o.retries = n)),
    ("--retry-max-ms", AtLeast1(|o, n| o.retry_max_ms = n)),
    ("--tenant", Text(|o, t| o.tenant = t)),
    ("--socket", Text(|o, p| o.socket = Some(p))),
    ("--tcp", Text(|o, addr| o.tcp = Some(addr))),
];

/// `hawkset submit`: one submission round trip against a running daemon.
fn cmd_submit(args: &[String]) -> ExitCode {
    let mut o = SubmitOpts {
        tenant: "default".into(),
        retry_max_ms: 5_000,
        ..SubmitOpts::default()
    };
    let Some(path) = parse("submit", SUBMIT_FLAGS, args, &mut o, 1).pop() else {
        usage_err("submit", "missing trace path");
    };
    let trace = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("hawkset submit: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let policy = hawkset_serve::RetryPolicy {
        retries: o.retries,
        backoff: hawkset_core::supervise::Backoff {
            start: Duration::from_millis(100.min(o.retry_max_ms)),
            cap: Duration::from_millis(o.retry_max_ms),
        },
    };
    // Each retry dials a fresh connection: a `draining:` shed means the
    // daemon on the other end is going away, and the retry should land on
    // its replacement.
    let outcome = match (&o.socket, &o.tcp) {
        (Some(p), None) => {
            #[cfg(unix)]
            {
                hawkset_serve::submit_with_retry(
                    || std::os::unix::net::UnixStream::connect(p),
                    &o.tenant,
                    &trace,
                    &policy,
                )
            }
            #[cfg(not(unix))]
            {
                let _ = p;
                Err(std::io::Error::new(
                    std::io::ErrorKind::Unsupported,
                    "unix sockets are not available on this platform",
                ))
            }
        }
        (None, Some(addr)) => hawkset_serve::submit_with_retry(
            || std::net::TcpStream::connect(addr),
            &o.tenant,
            &trace,
            &policy,
        ),
        _ => usage_err("submit", "need exactly one of --socket PATH or --tcp ADDR"),
    };
    match outcome {
        Ok(hawkset_serve::SubmitOutcome::Done {
            job_id,
            clean,
            report_json,
        }) => {
            if o.json {
                println!("{report_json}");
            } else {
                println!(
                    "submit: job {job_id} completed — {}",
                    if clean { "clean" } else { "races reported" }
                );
            }
            ExitCode::from(u8::from(!clean))
        }
        Ok(hawkset_serve::SubmitOutcome::Shed { reason }) => {
            eprintln!("hawkset submit: shed by the daemon: {reason}");
            ExitCode::from(3)
        }
        Ok(hawkset_serve::SubmitOutcome::Error { job_id, message }) => {
            match job_id {
                Some(id) => eprintln!("hawkset submit: job {id} failed: {message}"),
                None => eprintln!("hawkset submit: rejected: {message}"),
            }
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("hawkset submit: {e}");
            ExitCode::from(2)
        }
    }
}

/// `hawkset query`'s options.
#[derive(Default)]
struct QueryOpts {
    db: String,
    json: bool,
    verify: Vec<(String, String)>,
}

const QUERY_FLAGS: &[Flag<QueryOpts>] = &[
    ("--json", Switch(|o| o.json = true)),
    ("--db", Text(|o, p| o.db = p)),
    (
        "--verify",
        Parsed(|o, spec| match spec.split_once('=') {
            Some((tenant, report)) if !tenant.is_empty() && !report.is_empty() => {
                o.verify.push((tenant.into(), report.into()));
                Ok(())
            }
            _ => Err(format!("--verify needs TENANT=REPORT.json, got `{spec}`")),
        }),
    ),
];

/// `hawkset query`: read the race database's stable snapshot (safe against
/// a live daemon — snapshots are immutable and the root swap is atomic).
fn cmd_query(args: &[String]) -> ExitCode {
    let mut o = QueryOpts {
        db: "hawkset-db".into(),
        ..QueryOpts::default()
    };
    parse("query", QUERY_FLAGS, args, &mut o, 0);
    let QueryOpts { db, json, verify } = o;
    let snapshot = match hawkset_serve::load_stable(Path::new(&db)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hawkset query: {e}");
            return ExitCode::from(2);
        }
    };
    if !verify.is_empty() {
        return query_verify(&snapshot, &verify);
    }
    if json {
        println!("{}", snapshot.to_json());
    } else {
        println!(
            "race database {db}: generation {}, {} job(s) recorded, {} distinct race(s)",
            snapshot.generation,
            snapshot.jobs_recorded,
            snapshot.records.len()
        );
        for (i, r) in snapshot.records.iter().enumerate() {
            let tenants: Vec<String> = r
                .tenants
                .iter()
                .map(|t| format!("{} ({})", t.tenant, t.submissions))
                .collect();
            let mut flags = Vec::new();
            if r.store_never_persisted {
                flags.push("never-persisted");
            }
            if r.effective_lockset_empty {
                flags.push("lockset-empty");
            }
            if r.key.store_store {
                flags.push("store-store");
            }
            if r.store_non_temporal {
                flags.push("non-temporal");
            }
            println!(
                "  {:>3}. {} — seen {}x ({} pairs) by {}{}",
                i + 1,
                r.key.render(),
                r.occurrences,
                r.pair_count_total,
                tenants.join(", "),
                if flags.is_empty() {
                    String::new()
                } else {
                    format!(" [{}]", flags.join(", "))
                },
            );
            for f in &r.fixes {
                println!(
                    "       fix: {} [{}] seen {}x — e.g. {}",
                    f.kind,
                    if f.validated {
                        "validated"
                    } else {
                        "candidate"
                    },
                    f.occurrences,
                    f.example,
                );
            }
        }
    }
    ExitCode::SUCCESS
}

/// `query --verify`: recompute the database a batch of `analyze --json`
/// reports should have produced and compare byte-for-byte against the
/// stable root's records.
fn query_verify(snapshot: &hawkset_serve::DbSnapshot, verify: &[(String, String)]) -> ExitCode {
    type Submission = (
        String,
        Vec<hawkset_core::analysis::Race>,
        Option<hawkset_core::analysis::FixReport>,
    );
    let mut submissions: Vec<Submission> = Vec::new();
    for (tenant, report_path) in verify {
        let raw = match std::fs::read_to_string(report_path) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("hawkset query: {report_path}: {e}");
                return ExitCode::from(2);
            }
        };
        let value: serde_json::Value = match serde_json::from_str(&raw) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("hawkset query: {report_path}: not a report: {e}");
                return ExitCode::from(2);
            }
        };
        let races = match value
            .get("races")
            .cloned()
            .map(serde_json::from_value::<Vec<hawkset_core::analysis::Race>>)
        {
            Some(Ok(races)) => races,
            Some(Err(e)) => {
                eprintln!("hawkset query: {report_path}: bad races array: {e}");
                return ExitCode::from(2);
            }
            None => {
                eprintln!("hawkset query: {report_path}: no `races` key (need analyze --json)");
                return ExitCode::from(2);
            }
        };
        // The optional `fixes` section (analyze --suggest-fixes). Absent
        // is normal; present but unparseable means the report and this
        // binary disagree about the fix schema — fail loudly rather than
        // verify against a silently fix-free expectation.
        let fixes = match value
            .get("fixes")
            .cloned()
            .map(serde_json::from_value::<hawkset_core::analysis::FixReport>)
        {
            None => None,
            Some(Ok(f)) => Some(f),
            Some(Err(e)) => {
                eprintln!("hawkset query: {report_path}: bad fixes section: {e}");
                return ExitCode::from(2);
            }
        };
        submissions.push((tenant.clone(), races, fixes));
    }
    let expected = hawkset_serve::db::expected_from_reports(
        submissions
            .iter()
            .map(|(t, r, f)| (t.as_str(), r.as_slice(), f.as_ref())),
    );
    let got_json =
        serde_json::to_string_pretty(&snapshot.records).expect("record serialization cannot fail");
    let expected_json =
        serde_json::to_string_pretty(&expected).expect("record serialization cannot fail");
    if snapshot.jobs_recorded != verify.len() as u64 {
        eprintln!(
            "hawkset query: verification failed: database records {} job(s), expected {}",
            snapshot.jobs_recorded,
            verify.len()
        );
        return ExitCode::from(1);
    }
    if got_json != expected_json {
        eprintln!(
            "hawkset query: verification failed: stable root diverges from the batch reports\n\
             --- database ---\n{got_json}\n--- expected ---\n{expected_json}"
        );
        return ExitCode::from(1);
    }
    println!(
        "query: verified — {} record(s) match {} batch report(s) byte-for-byte",
        expected.len(),
        verify.len()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn names<O>(table: &[Flag<O>]) -> Vec<&'static str> {
        table.iter().map(|(name, _)| *name).collect()
    }

    /// USAGE is written by hand, so it is checked against the tables: every
    /// table flag is documented, every documented flag is accepted by some
    /// command, and no table lists a flag twice (`parse` would never reach
    /// the second row).
    #[test]
    fn flag_tables_and_usage_agree() {
        let tables = [
            names(ANALYZE_FLAGS),
            names(CRASHTEST_FLAGS),
            names(SERVE_FLAGS),
            names(SUBMIT_FLAGS),
            names(QUERY_FLAGS),
        ];
        for table in &tables {
            let distinct: BTreeSet<_> = table.iter().collect();
            assert_eq!(distinct.len(), table.len(), "duplicate row in {table:?}");
        }
        let accepted: BTreeSet<&str> = tables.into_iter().flatten().collect();
        let documented: BTreeSet<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.starts_with("--") && w.len() > 2)
            .collect();
        assert_eq!(accepted, documented);
        assert_eq!(accepted.len(), 50);
    }
}
