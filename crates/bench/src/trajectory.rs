//! Per-stage throughput trajectory: the pinned `BENCH_<stage>.json` files.
//!
//! Each file records the events/sec of one pipeline stage — `decode`,
//! `memsim`, `irh`, `pairing`, `repair`, `campaign` — on the fixed-seed
//! synthetic smoke trace (the campaign stage runs a fixed-seed steered
//! crash campaign instead),
//! together with the commit it was measured at. The committed copies at
//! the repo root are the performance *baseline*; `scripts/ci.sh` re-runs
//! the measurement and fails on a >20% regression against them (the
//! ratchet). Regenerate locally with
//! `UPDATE_BASELINE=1 cargo run --release -p hawkset-bench --bin smoke -- --ratchet .`
//! and commit the diff like any other golden.
//!
//! Stage definitions (what the timer actually wraps):
//!
//! | stage      | measured work |
//! |------------|---------------|
//! | `decode`   | zero-copy batch decode of the encoded trace bytes |
//! | `memsim`   | worst-case persistence simulation, IRH disabled |
//! | `irh`      | the same simulation with inline IRH publication tracking — the pipeline's production Simulate stage |
//! | `pairing`  | single-threaded sharded pairing over the precomputed access set (`timing.pairing_ms` from the pipeline's own metrics) |
//! | `repair`   | the `--suggest-fixes` second pass: re-simulation, per-race patch synthesis and every replay validation |
//! | `campaign` | a fixed-seed steered PCLHT crash campaign end to end — plan derivation, two-pass rounds, audits, per-round analysis and corpus absorption; its `events` unit is *rounds*, not trace events |
//!
//! Every stage is best-of-3 (the campaign, the slowest, best-of-2) to
//! shave scheduler noise; the ratchet skips *enforcement* on single-core
//! hosts, where wall-clock measures contention rather than the code, but
//! still prints the numbers. Derived campaign rounds inject wall-clock
//! delays by design, so the campaign figure is dominated by deterministic
//! sleeps — it moves little between healthy hosts and still catches
//! orchestration-layer slowdowns.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use hawkset_core::analysis::Analyzer;
use hawkset_core::memsim::{simulate, AccessSet, SimConfig};
use hawkset_core::trace::{io, Trace};
use pm_apps::pclht::PclhtApp;
use pm_apps::Application;
use pmrace::{run_crash_campaign, CrashCampaignConfig};
use serde_json::{Map, Number, Value};

/// Relative throughput loss that fails the ratchet: >20% below baseline.
pub const RATCHET_TOLERANCE: f64 = 0.20;

/// Pre-change pairing throughput (events/sec) on the fixed-seed synthetic
/// trace, measured immediately before the epoch-clock / SoA / zero-copy
/// change landed. Recorded in `BENCH_pairing.json` so the ≥2× acceptance
/// bar of that change stays auditable against the current number.
pub const PRE_CHANGE_PAIRING_EPS: f64 = 1_684_482.0;

/// One stage's measured throughput.
#[derive(Debug, Clone)]
pub struct StageMeasurement {
    /// Stable stage name
    /// (`decode` | `memsim` | `irh` | `pairing` | `repair` | `campaign`).
    pub stage: &'static str,
    /// Events processed by the timed work.
    pub events: u64,
    /// Best-of-N wall-clock of the timed work, milliseconds.
    pub elapsed_ms: f64,
    /// `events / elapsed`, the ratcheted figure.
    pub events_per_sec: f64,
}

/// Best-of-`reps` wall-clock of `work`, in seconds (floored at 1ns so a
/// degenerate measurement cannot divide by zero).
fn best_of<T>(reps: usize, mut work: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = work();
        best = best.min(t0.elapsed().as_secs_f64());
        drop(out);
    }
    best.max(1e-9)
}

/// Measures all five stages on `trace` (with `access` as the pairing
/// input), best-of-3 each, in pipeline order.
pub fn measure(trace: &Trace, access: &AccessSet) -> Vec<StageMeasurement> {
    let events = trace.events.len() as u64;
    let ev_f = events as f64;
    let mut out = Vec::with_capacity(5);

    let bytes = io::encode(trace);
    let decode_secs = best_of(3, || {
        io::decode(bytes.as_ref()).expect("smoke trace bytes decode")
    });
    out.push(StageMeasurement {
        stage: "decode",
        events,
        elapsed_ms: decode_secs * 1e3,
        events_per_sec: ev_f / decode_secs,
    });

    let memsim_secs = best_of(3, || {
        simulate(
            trace,
            &SimConfig {
                irh: false,
                ..SimConfig::default()
            },
        )
    });
    out.push(StageMeasurement {
        stage: "memsim",
        events,
        elapsed_ms: memsim_secs * 1e3,
        events_per_sec: ev_f / memsim_secs,
    });

    let irh_secs = best_of(3, || simulate(trace, &SimConfig::default()));
    out.push(StageMeasurement {
        stage: "irh",
        events,
        elapsed_ms: irh_secs * 1e3,
        events_per_sec: ev_f / irh_secs,
    });

    // Pairing is timed by the pipeline's own metrics snapshot, the same
    // number `--metrics` reports to users.
    let mut pairing_secs = f64::INFINITY;
    for _ in 0..3 {
        let report = Analyzer::default().threads(1).run_pairing(trace, access);
        let ms = report
            .metrics
            .as_ref()
            .expect("run_pairing attaches metrics")
            .timing
            .pairing_ms;
        pairing_secs = pairing_secs.min((ms / 1e3).max(1e-9));
    }
    out.push(StageMeasurement {
        stage: "pairing",
        events,
        elapsed_ms: pairing_secs * 1e3,
        events_per_sec: ev_f / pairing_secs,
    });

    // Repair is the `--suggest-fixes` second pass over a finished report:
    // re-simulate, synthesize a patch per race and replay-validate each
    // one. Timed as attach_fixes so the figure covers exactly what users
    // pay on top of a plain analysis.
    let repair_analyzer = Analyzer::default().threads(1).suggest_fixes(true);
    let mut repair_secs = f64::INFINITY;
    for _ in 0..3 {
        let mut r = Analyzer::default().threads(1).run_pairing(trace, access);
        let t0 = Instant::now();
        repair_analyzer.attach_fixes(trace, &mut r);
        repair_secs = repair_secs.min(t0.elapsed().as_secs_f64().max(1e-9));
    }
    out.push(StageMeasurement {
        stage: "repair",
        events,
        elapsed_ms: repair_secs * 1e3,
        events_per_sec: ev_f / repair_secs,
    });
    out
}

/// Rounds the pinned `campaign` stage runs. The smoke binary always pins
/// and checks at this count, so the committed baseline stays comparable.
pub const CAMPAIGN_ROUNDS: u64 = 6;

/// Measures the `campaign` stage: a fixed-seed steered PCLHT crash
/// campaign of `rounds` rounds, wall-clocked end to end (plan derivation,
/// the two-pass round body, crash-image audits, per-round analysis,
/// corpus absorption). The throughput unit is rounds/sec — campaigns
/// process traces of varying size, so trace events would not compare
/// across rounds. PCLHT is the vehicle because its small-workload traces
/// are reproducible, keeping the measured plans identical run to run.
pub fn measure_campaign(rounds: u64) -> StageMeasurement {
    let app: Arc<dyn Application> = Arc::new(PclhtApp);
    let cfg = CrashCampaignConfig {
        rounds,
        crash_points: 3,
        main_ops: 24,
        seed: 5,
        analysis_threads: 1,
        steer: true,
        ..Default::default()
    };
    let secs = best_of(2, || {
        run_crash_campaign(&app, &cfg).expect("campaign stage runs")
    });
    StageMeasurement {
        stage: "campaign",
        events: rounds,
        elapsed_ms: secs * 1e3,
        events_per_sec: rounds as f64 / secs,
    }
}

/// The commit the working tree is at, for the trajectory record.
pub fn current_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Path of one stage's baseline file under `dir`.
pub fn baseline_path(dir: &Path, stage: &str) -> std::path::PathBuf {
    dir.join(format!("BENCH_{stage}.json"))
}

/// Serializes one measurement to its `BENCH_<stage>.json` document.
fn to_json(m: &StageMeasurement, commit: &str, seed: u64) -> Value {
    let mut o = Map::new();
    o.insert("stage", Value::String(m.stage.to_string()));
    o.insert("commit", Value::String(commit.to_string()));
    o.insert("seed", Value::Number(Number::PosInt(seed)));
    o.insert("events", Value::Number(Number::PosInt(m.events)));
    o.insert(
        "elapsed_ms",
        Value::Number(Number::Float((m.elapsed_ms * 1e3).round() / 1e3)),
    );
    o.insert(
        "events_per_sec",
        Value::Number(Number::Float(m.events_per_sec.round())),
    );
    if m.stage == "pairing" {
        o.insert(
            "pre_change_events_per_sec",
            Value::Number(Number::Float(PRE_CHANGE_PAIRING_EPS)),
        );
    }
    Value::Object(o)
}

/// Writes every measurement as `BENCH_<stage>.json` under `dir`.
pub fn write_baseline(
    dir: &Path,
    measurements: &[StageMeasurement],
    commit: &str,
    seed: u64,
) -> std::io::Result<()> {
    for m in measurements {
        let json = serde_json::to_string_pretty(&to_json(m, commit, seed))
            .expect("trajectory serialization cannot fail");
        std::fs::write(baseline_path(dir, m.stage), json + "\n")?;
    }
    Ok(())
}

/// Baseline events/sec for `stage`, if its file under `dir` parses.
pub fn load_baseline_eps(dir: &Path, stage: &str) -> Option<f64> {
    let raw = std::fs::read_to_string(baseline_path(dir, stage)).ok()?;
    serde_json::from_str::<Value>(&raw)
        .ok()?
        .get("events_per_sec")?
        .as_f64()
}

/// Outcome of a ratchet comparison. The two violation classes fail
/// differently: a vanished pin is fatal on every host, while a timing
/// regression is only enforceable where wall-clock measures the code
/// (multi-core hosts).
#[derive(Debug, Default)]
pub struct RatchetOutcome {
    /// Baseline files missing or unreadable — the pin itself is gone.
    pub missing: Vec<String>,
    /// Stages measured >20% below their committed baseline.
    pub regressions: Vec<String>,
}

/// Compares `measurements` against the committed baseline under `dir`.
pub fn ratchet(dir: &Path, measurements: &[StageMeasurement]) -> RatchetOutcome {
    let mut out = RatchetOutcome::default();
    for m in measurements {
        match load_baseline_eps(dir, m.stage) {
            None => out.missing.push(format!(
                "{}: baseline {} missing or unreadable — regenerate with UPDATE_BASELINE=1",
                m.stage,
                baseline_path(dir, m.stage).display()
            )),
            Some(base) => {
                let floor = base * (1.0 - RATCHET_TOLERANCE);
                if m.events_per_sec < floor {
                    out.regressions.push(format!(
                        "{}: {:.0} events/sec is >{:.0}% below the baseline {:.0} (floor {:.0})",
                        m.stage,
                        m.events_per_sec,
                        RATCHET_TOLERANCE * 100.0,
                        base,
                        floor
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkset_core::memsim::SimConfig;

    use crate::synthetic::{synthetic_trace, SyntheticSpec};

    fn tiny_inputs() -> (Trace, AccessSet) {
        let spec = SyntheticSpec {
            threads: 2,
            ops_per_thread: 200,
            locations: 64,
            store_pct: 50,
            persist_pct: 50,
            locked_pct: 10,
            seed: 42,
        };
        let trace = synthetic_trace(&spec);
        let access = simulate(&trace, &SimConfig::default());
        (trace, access)
    }

    #[test]
    fn baseline_roundtrips_and_ratchet_holds_against_itself() {
        let (trace, access) = tiny_inputs();
        let mut ms = measure(&trace, &access);
        // Two rounds keep the stage inside the steering warmup (baseline
        // plans, no injected delays), so the unit test stays fast while
        // still running the full campaign path.
        ms.push(measure_campaign(2));
        assert_eq!(
            ms.iter().map(|m| m.stage).collect::<Vec<_>>(),
            ["decode", "memsim", "irh", "pairing", "repair", "campaign"]
        );
        for m in &ms {
            assert!(m.events_per_sec > 0.0, "{}: zero throughput", m.stage);
        }
        let dir = std::env::temp_dir().join(format!("hwk-traj-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        write_baseline(&dir, &ms, "testcommit", 42).unwrap();
        for m in &ms {
            let eps = load_baseline_eps(&dir, m.stage).expect("baseline parses");
            assert!((eps - m.events_per_sec.round()).abs() < 1.0);
        }
        // A fresh measurement against its own baseline cannot regress >20%.
        let outcome = ratchet(&dir, &ms);
        assert!(outcome.missing.is_empty(), "{:?}", outcome.missing);
        assert!(outcome.regressions.is_empty(), "{:?}", outcome.regressions);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ratchet_flags_regressions_and_missing_baselines() {
        let (trace, access) = tiny_inputs();
        let ms = measure(&trace, &access);
        let dir = std::env::temp_dir().join(format!("hwk-traj-miss-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // No files at all: every stage's pin is reported missing.
        assert_eq!(ratchet(&dir, &ms).missing.len(), ms.len());
        // A committed baseline 10x the measurement: every stage regresses.
        let inflated: Vec<StageMeasurement> = ms
            .iter()
            .map(|m| StageMeasurement {
                events_per_sec: m.events_per_sec * 10.0,
                ..m.clone()
            })
            .collect();
        write_baseline(&dir, &inflated, "testcommit", 42).unwrap();
        let outcome = ratchet(&dir, &ms);
        assert!(outcome.missing.is_empty());
        assert_eq!(outcome.regressions.len(), ms.len());
        std::fs::remove_dir_all(&dir).ok();
    }
}
