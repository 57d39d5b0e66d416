//! Sizes the benchmark's bounds from data, the way they are accepted.
//!
//! Runs the sibling `benchmark` binary [`RUNS`] times per workload, each
//! with its own seed and `BENCHMARK.json`'s `run_seconds`, in two
//! independent sets; then, per end-to-end metric, reports each set's median
//! and quartiles, whether the spread (IQR ÷ median) stays within the
//! metric's bound and within a third of it, and whether the second set's
//! median is within the bound of the first. A third, traced set of
//! [`TRACED_RUNS`] gives the tracing overhead (traced ÷ untraced
//! `jobs_per_s`) and `trace.coverage`.
//!
//! ```text
//! cargo build --release --offline --manifest-path e2ebench/Cargo.toml
//! e2ebench/target/release/sizing [--out e2ebench/SIZING.json]
//! ```
//!
//! Run it from the repository root; it reads `BENCHMARK.json` there.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use hawkset_e2ebench::manifest::Manifest;
use hawkset_e2ebench::metric::float;
use hawkset_e2ebench::stats::{iqr_share, median, quartiles, regressed};
use hawkset_e2ebench::{host, WORKLOADS};
use serde_json::{Map, Number, Value};

/// Runs per set, as in the acceptance check.
const RUNS: u64 = 10;
/// Traced runs per workload, on the first set's first seeds.
const TRACED_RUNS: u64 = 3;

fn out_path() -> Result<Option<PathBuf>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.as_slice() {
        [] => Ok(None),
        [flag, path] if flag == "--out" => Ok(Some(PathBuf::from(path))),
        _ => Err("usage: sizing [--out FILE]".into()),
    }
}

/// One benchmark run: its JSON lines (metric lines and the result line).
fn bench(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Vec<Value>, String> {
    let exe = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("benchmark");
    let out = Command::new(&exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed}: exit {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| serde_json::from_str::<Value>(l).ok())
        .collect())
}

/// `metric name → field` (`value`, or `unscaled` for the wall-time
/// reading) from a run's lines.
fn values(lines: &[Value], field: &str) -> BTreeMap<String, f64> {
    lines
        .iter()
        .filter_map(|l| {
            Some((
                l.get("metric")?.as_str()?.to_string(),
                l.get(field)?.as_f64()?,
            ))
        })
        .collect()
}

fn summary(v: &[f64]) -> Value {
    let (q1, med, q3) = quartiles(v);
    let mut o = Map::new();
    o.insert("median", float(med));
    o.insert("q1", float(q1));
    o.insert("q3", float(q3));
    o.insert("iqr_share", float(iqr_share(v)));
    o.insert(
        "values",
        Value::Array(v.iter().map(|&x| float(x)).collect()),
    );
    Value::Object(o)
}

fn main() -> ExitCode {
    match sizing() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sizing: {e}");
            ExitCode::from(1)
        }
    }
}

fn sizing() -> Result<(), String> {
    let out = out_path()?;
    let manifest = Manifest::load()?;
    let seconds = manifest.run_seconds;
    let mut failed_runs = 0u64;
    let mut report = Map::new();
    let mut all_ok = true;
    for w in WORKLOADS {
        // sets[s][metric] = values over the set's runs; walls likewise for
        // the unscaled readings.
        let mut sets: [BTreeMap<String, Vec<f64>>; 2] = Default::default();
        let mut walls: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (s, set) in sets.iter_mut().enumerate() {
            for i in 0..RUNS {
                let seed = 1 + s as u64 * RUNS + i;
                let lines = bench(w, seed, seconds, false)?;
                let result = lines.last().ok_or("no output")?;
                if result["failed"].as_u64() != Some(0) {
                    failed_runs += 1;
                    eprintln!(
                        "sizing: {w} seed {seed}: {} failed",
                        result["failed"].as_u64().unwrap_or(0)
                    );
                }
                for (k, v) in values(&lines, "value") {
                    set.entry(k).or_default().push(v);
                }
                if s == 0 {
                    for (k, v) in values(&lines, "unscaled") {
                        walls.entry(k).or_default().push(v);
                    }
                }
            }
        }
        let mut metrics = Map::new();
        for d in &manifest.end_to_end {
            let (Some(a), Some(c)) = (sets[0].get(&d.name), sets[1].get(&d.name)) else {
                return Err(format!("{w}: metric {} missing", d.name));
            };
            let bound = d.bound.ok_or_else(|| format!("{} has no bound", d.name))?;
            let spread = iqr_share(a).max(iqr_share(c));
            let spread_ok = d.name == "setup_s" || spread <= bound;
            let medians_ok = !regressed(d.better, bound, median(a), median(c));
            all_ok &= spread_ok && medians_ok;
            let mut m = Map::new();
            m.insert("bound", float(bound));
            m.insert("set1", summary(a));
            m.insert("set2", summary(c));
            m.insert("spread_within_bound", Value::Bool(spread_ok));
            m.insert("spread_within_third", Value::Bool(spread <= bound / 3.0));
            m.insert("medians_within_bound", Value::Bool(medians_ok));
            if let Some(w) = walls.get(&d.name) {
                m.insert("set1_unscaled_iqr_share", float(iqr_share(w)));
            }
            metrics.insert(d.name.clone(), Value::Object(m));
        }
        let (mut jobs, mut coverage) = (Vec::new(), Vec::new());
        for i in 0..TRACED_RUNS {
            let v = values(&bench(w, 1 + i, seconds, true)?, "value");
            jobs.extend(v.get("jobs_per_s"));
            coverage.extend(v.get("trace.coverage"));
        }
        let untraced = median(&sets[0]["jobs_per_s"][..TRACED_RUNS as usize]);
        let mut t = Map::new();
        t.insert("jobs_per_s_traced", summary(&jobs));
        t.insert("jobs_per_s_untraced_same_seeds", float(untraced));
        t.insert("overhead", float(1.0 - median(&jobs) / untraced));
        t.insert("coverage", summary(&coverage));
        metrics.insert("tracing", Value::Object(t));
        report.insert(w, Value::Object(metrics));
    }
    let mut doc = Map::new();
    let mut h = Map::new();
    h.insert(
        "nproc",
        host::nproc().map_or(Value::Null, |n| Value::Number(Number::PosInt(n))),
    );
    h.insert(
        "available_parallelism",
        Value::Number(Number::PosInt(host::available_parallelism())),
    );
    h.insert(
        "temp_dir_fs",
        Value::String(host::filesystem(std::path::Path::new("."))),
    );
    doc.insert("host", Value::Object(h));
    doc.insert("runs_per_set", Value::Number(Number::PosInt(RUNS)));
    doc.insert("run_seconds", float(seconds));
    doc.insert("failed_runs", Value::Number(Number::PosInt(failed_runs)));
    doc.insert("accepted", Value::Bool(all_ok && failed_runs == 0));
    doc.insert("workloads", Value::Object(report));
    let text = serde_json::to_string_pretty(&Value::Object(doc)).expect("summary") + "\n";
    print!("{text}");
    if let Some(path) = out {
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}
