//! # hawkset-bench
//!
//! Experiment harnesses regenerating every table and figure of the
//! HawkSet evaluation (§5). One binary per paper artifact, plus three for
//! the design, for CI and for recording inputs:
//!
//! | binary     | paper artifact | what it prints |
//! |------------|----------------|----------------|
//! | `table2`   | Table 2        | per-app detected races with store/load sites |
//! | `table3`   | Table 3        | HawkSet vs the observation baseline on Fast-Fair, avg time to race, speedup |
//! | `table4`   | Table 4        | MR/BR/FP breakdown, IRH on vs off |
//! | `figure6`  | Figure 6       | testing time and peak memory vs workload size |
//! | `ablation` | DESIGN.md §4/§5 | per-app race counts with IRH, HB, store-store pairing or eADR toggled |
//! | `smoke`    | —              | pairing speedup at 1 vs N threads, and the per-stage `BENCH_*.json` ratchet |
//! | `record`   | —              | writes app traces at a given size and seed as `DIR/<App>.hwkt`, for comparing two builds on the same inputs |
//!
//! Absolute numbers differ from the paper's Optane testbed — the substrate
//! is a simulator — but the *shapes* (who wins, what the IRH prunes, how
//! cost scales) are the reproduction targets; see `EXPERIMENTS.md`.

pub mod synthetic;
pub mod trajectory;

use std::time::Instant;

use hawkset_core::analysis::{AnalysisConfig, AnalysisReport, Analyzer};
use pm_apps::{all_apps, score, Application, Breakdown};

/// One application run at one workload size, analyzed.
pub struct AppRun {
    /// Application name (Table 1).
    pub app: String,
    /// Main-phase operations.
    pub ops: u64,
    /// Events in the recorded trace.
    pub events: u64,
    /// Execution wall-clock seconds (instrumented run).
    pub exec_secs: f64,
    /// Analysis wall-clock seconds.
    pub analysis_secs: f64,
    /// The analysis report.
    pub report: AnalysisReport,
    /// Scored against the app's ground truth.
    pub breakdown: Breakdown,
}

/// Runs `app` with its §5 default workload of `ops` operations and
/// analyzes the trace.
pub fn run_app(app: &dyn Application, ops: u64, seed: u64, cfg: &AnalysisConfig) -> AppRun {
    let wl = app.default_workload(ops, seed);
    let started = Instant::now();
    let trace = app.execute(&wl);
    let exec_secs = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let report = Analyzer::new(cfg.clone()).run(&trace);
    let analysis_secs = started.elapsed().as_secs_f64();
    let breakdown = score(&report.races, &app.known_races());
    AppRun {
        app: app.name().to_string(),
        ops,
        events: trace.events.len() as u64,
        exec_secs,
        analysis_secs,
        report,
        breakdown,
    }
}

/// Returns the nine applications, honouring the paper's P-ART workload cap
/// through each app's `default_workload`.
pub fn apps() -> Vec<Box<dyn Application>> {
    all_apps()
}

/// Executes one instrumented run and returns the trace (for experiments
/// that analyze the *same* execution under several settings, like the
/// Table 4 IRH comparison).
pub fn record_app(app: &dyn Application, ops: u64, seed: u64) -> (hawkset_core::Trace, f64) {
    let wl = app.default_workload(ops, seed);
    let started = Instant::now();
    let trace = app.execute(&wl);
    (trace, started.elapsed().as_secs_f64())
}

/// Analyzes a recorded trace and scores it against `app`'s ground truth.
pub fn analyze_for(
    app: &dyn Application,
    trace: &hawkset_core::Trace,
    cfg: &AnalysisConfig,
) -> (AnalysisReport, Breakdown) {
    let report = Analyzer::new(cfg.clone()).run(trace);
    let breakdown = score(&report.races, &app.known_races());
    (report, breakdown)
}

/// Simple fixed-width table rendering for the experiment binaries.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders with padded columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:<w$}", w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = line(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }
}

/// Parses `--key value`-style options from an argument list; returns the
/// value for `key` parsed as `u64` or the default.
pub fn arg_u64(args: &[String], key: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Returns `true` if the flag is present.
pub fn arg_flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_padded_columns() {
        let mut t = TextTable::new(&["App", "Races"]);
        t.row(vec!["Fast-Fair".into(), "2".into()]);
        t.row(vec!["X".into(), "10".into()]);
        let out = t.render();
        assert!(out.contains("Fast-Fair  2"));
        assert!(out.lines().count() == 4);
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--ops", "5000", "--full"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_u64(&args, "--ops", 1), 5000);
        assert_eq!(arg_u64(&args, "--seeds", 7), 7);
        assert!(arg_flag(&args, "--full"));
        assert!(!arg_flag(&args, "--json"));
    }

    #[test]
    fn run_app_smoke() {
        let apps = apps();
        let ff = apps.iter().find(|a| a.name() == "Fast-Fair").unwrap();
        let run = run_app(ff.as_ref(), 200, 1, &AnalysisConfig::default());
        assert_eq!(run.ops, 200);
        assert!(run.events > 0);
        assert!(!run.report.races.is_empty());
    }
}
