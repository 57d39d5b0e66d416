//! Bench smoke: pairing throughput at 1 vs N worker threads on a fixed
//! synthetic trace, for CI logs.
//!
//! Stage timings come from the pipeline's own observability snapshot
//! (`report.metrics.timing.pairing_ms`) rather than re-timing around the
//! call, so CI measures exactly what `--metrics` reports to users. The
//! run fails (exit 1) if the sequential and parallel reports diverge, if
//! any metrics snapshot violates a conservation law, or if `--min-speedup
//! X` is given and the measured speedup falls short.
//!
//! ```text
//! smoke [--threads N] [--ops N] [--min-speedup X] [--emit PATH]
//!       [--bench-json DIR] [--ratchet DIR]
//! ```
//!
//! `--emit PATH` writes the synthetic trace to `PATH` as `.hwkt` and exits
//! without benchmarking — CI uses it to manufacture a large input for the
//! memory-budget and kill/resume checks without shipping fixture files.
//!
//! `--bench-json DIR` measures the per-stage throughput trajectory
//! (record / decode / memsim / irh / pairing / repair / campaign, see
//! [`hawkset_bench::trajectory`]) and writes `BENCH_<stage>.json` files
//! into `DIR`, then exits. The record stage's unit is recorded events/sec
//! of a fixed-seed Fast-Fair run; the campaign stage's is rounds/sec on a
//! fixed-seed steered PCLHT crash campaign.
//!
//! `--ratchet DIR` measures the same trajectory and fails (exit 1) if any
//! stage regressed >20% against the committed `BENCH_<stage>.json`
//! baseline in `DIR`. Enforcement is skipped on single-core hosts, where
//! wall-clock measures scheduler contention rather than the code. With
//! the `UPDATE_BASELINE` environment variable set the baseline files are
//! regenerated instead of checked (`scripts/ci.sh` refuses to run in that
//! state, so CI can never silently re-pin itself).

use std::process::ExitCode;

use hawkset_bench::synthetic::{synthetic_trace, SyntheticSpec};
use hawkset_bench::trajectory;
use hawkset_core::analysis::{AnalysisReport, Analyzer};
use hawkset_core::memsim::{simulate, SimConfig};

/// Pulls the snapshot out of a report, failing loudly if the pipeline
/// stopped attaching one.
fn metrics_of(report: &AnalysisReport) -> &hawkset_core::MetricsSnapshot {
    report
        .metrics
        .as_ref()
        .expect("every Analyzer run attaches a metrics snapshot")
}

/// Exit-worthy conservation audit of one snapshot.
fn check_conservation(label: &str, report: &AnalysisReport) -> bool {
    let violations = metrics_of(report).conservation_violations();
    for v in &violations {
        eprintln!("smoke: FAIL — conservation violation in {label} run: {v}");
    }
    violations.is_empty()
}

fn main() -> ExitCode {
    let mut threads = 4usize;
    let mut ops = 30_000u64;
    let mut min_speedup: Option<f64> = None;
    let mut emit: Option<String> = None;
    let mut bench_json: Option<String> = None;
    let mut ratchet_dir: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                i += 1;
                threads = args[i].parse().expect("--threads N");
            }
            "--ops" => {
                i += 1;
                ops = args[i].parse().expect("--ops N");
            }
            "--min-speedup" => {
                i += 1;
                min_speedup = Some(args[i].parse().expect("--min-speedup X"));
            }
            "--emit" => {
                i += 1;
                emit = Some(args[i].clone());
            }
            "--bench-json" => {
                i += 1;
                bench_json = Some(args[i].clone());
            }
            "--ratchet" => {
                i += 1;
                ratchet_dir = Some(args[i].clone());
            }
            other => {
                eprintln!("smoke: unknown argument {other}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    // Pairing-heavy shape: many threads racing on many cache lines with
    // little locking, so stage 3 dominates and has shards to spread.
    let spec = SyntheticSpec {
        threads: 8,
        ops_per_thread: ops,
        locations: 4096,
        store_pct: 50,
        persist_pct: 50,
        locked_pct: 10,
        seed: 42,
    };
    let trace = synthetic_trace(&spec);

    if let Some(path) = emit {
        let bytes = hawkset_core::trace::io::encode(&trace);
        if let Err(e) = std::fs::write(&path, &bytes) {
            eprintln!("smoke: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!(
            "smoke: wrote {} events ({} bytes) to {path}",
            trace.events.len(),
            bytes.len()
        );
        return ExitCode::SUCCESS;
    }

    let events = trace.events.len() as f64;
    let access = simulate(&trace, &SimConfig::default());

    if bench_json.is_some() || ratchet_dir.is_some() {
        let mut measurements = vec![trajectory::measure_record(trajectory::RECORD_OPS)];
        measurements.extend(trajectory::measure(&trace, &access));
        measurements.push(trajectory::measure_campaign(trajectory::CAMPAIGN_ROUNDS));
        for m in &measurements {
            println!(
                "smoke: {:<8} {:>12.0} events/sec ({:.1} ms, {} events)",
                m.stage, m.events_per_sec, m.elapsed_ms, m.events
            );
        }
        let commit = trajectory::current_commit();
        if let Some(dir) = bench_json {
            let dir = std::path::Path::new(&dir);
            if let Err(e) = trajectory::write_baseline(dir, &measurements, &commit, spec.seed) {
                eprintln!(
                    "smoke: cannot write BENCH_*.json under {}: {e}",
                    dir.display()
                );
                return ExitCode::from(2);
            }
            println!("smoke: wrote BENCH_*.json to {} at {commit}", dir.display());
            return ExitCode::SUCCESS;
        }
        let dir = ratchet_dir.expect("one of the two modes is set");
        let dir = std::path::Path::new(&dir);
        if std::env::var_os("UPDATE_BASELINE").is_some() {
            if let Err(e) = trajectory::write_baseline(dir, &measurements, &commit, spec.seed) {
                eprintln!(
                    "smoke: cannot write BENCH_*.json under {}: {e}",
                    dir.display()
                );
                return ExitCode::from(2);
            }
            println!(
                "smoke: UPDATE_BASELINE set — re-pinned BENCH_*.json in {} at {commit}",
                dir.display()
            );
            return ExitCode::SUCCESS;
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let outcome = trajectory::ratchet(dir, &measurements);
        // A vanished pin fails on any host; timing regressions are only
        // enforceable where wall-clock measures the code.
        if !outcome.missing.is_empty() {
            for v in &outcome.missing {
                eprintln!("smoke: FAIL — bench ratchet: {v}");
            }
            return ExitCode::from(1);
        }
        if cores < 2 {
            println!(
                "smoke: ratchet timing enforcement skipped — single-core host \
                 measures contention, not code ({} regression(s) unenforced)",
                outcome.regressions.len()
            );
            return ExitCode::SUCCESS;
        }
        if !outcome.regressions.is_empty() {
            for v in &outcome.regressions {
                eprintln!("smoke: FAIL — bench ratchet: {v}");
            }
            return ExitCode::from(1);
        }
        println!(
            "smoke: bench ratchet holds (>{:.0}% regression fails)",
            trajectory::RATCHET_TOLERANCE * 100.0
        );
        return ExitCode::SUCCESS;
    }

    // Pairing stage wall-clock as the pipeline itself measured it.
    let time_pairing = |n: usize| {
        let report = Analyzer::default().threads(n).run_pairing(&trace, &access);
        let secs = (metrics_of(&report).timing.pairing_ms / 1e3).max(1e-9);
        (secs, report)
    };
    // Warm-up run so first-touch page faults don't bias the 1-thread leg.
    let _ = time_pairing(1);
    let (seq_secs, seq_report) = time_pairing(1);
    let (par_secs, par_report) = time_pairing(threads);

    let speedup = seq_secs / par_secs;
    println!(
        "smoke: {} events, {} windows, {} candidate pairs",
        trace.events.len(),
        access.windows.len(),
        seq_report.stats.pairing.candidate_pairs,
    );
    println!(
        "smoke: pairing 1 thread : {:>10.0} events/sec ({:.1} ms)",
        events / seq_secs,
        seq_secs * 1e3
    );
    let par_busy: f64 = metrics_of(&par_report).timing.worker_busy_ms.iter().sum();
    println!(
        "smoke: pairing {} threads: {:>10.0} events/sec ({:.1} ms wall, {:.1} ms worker-busy)",
        threads,
        events / par_secs,
        par_secs * 1e3,
        par_busy
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("smoke: speedup {speedup:.2}x at {threads} threads ({cores} core(s) available)");

    if par_report.races != seq_report.races
        || par_report.stats.pairing != seq_report.stats.pairing
        || par_report.coverage != seq_report.coverage
    {
        eprintln!("smoke: FAIL — parallel report diverges from sequential");
        return ExitCode::from(1);
    }
    if metrics_of(&par_report).masked() != metrics_of(&seq_report).masked() {
        eprintln!("smoke: FAIL — parallel metrics (timing masked) diverge from sequential");
        return ExitCode::from(1);
    }

    // One full pipeline run (decode-less: the trace is in memory) to audit
    // the conservation laws end-to-end, stage timers included.
    let full = Analyzer::default().threads(threads).run(&trace);
    let fm = metrics_of(&full);
    println!(
        "smoke: full pipeline {:.1} ms (simulate {:.1} ms, pairing {:.1} ms)",
        fm.timing.total_ms, fm.timing.simulate_ms, fm.timing.pairing_ms
    );
    if !check_conservation("sequential pairing", &seq_report)
        || !check_conservation("parallel pairing", &par_report)
        || !check_conservation("full pipeline", &full)
    {
        return ExitCode::from(1);
    }

    if let Some(min) = min_speedup {
        // A speedup floor is only meaningful when the host can actually
        // run the workers concurrently.
        if cores < threads {
            println!(
                "smoke: skipping the {min:.2}x speedup floor — host has {cores} core(s), \
                 {threads} requested"
            );
        } else if speedup < min {
            eprintln!("smoke: FAIL — speedup {speedup:.2}x below required {min:.2}x");
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
