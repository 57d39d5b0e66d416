//! Records app traces at benchmark sizes, for comparing reports or timings
//! between two builds on the same inputs.
//!
//! ```text
//! cargo run --release -p hawkset-bench --bin record -- \
//!     --ops N --seed S --out DIR [APP...]
//! ```
//!
//! Runs each named application (all nine when none is named) with its §5
//! default workload of `N` operations at seed `S` through [`record_app`],
//! and writes the encoded trace to `DIR/<App>.hwkt`, e.g.
//! `DIR/Memcached-pmem.hwkt`, printing `App: E events in T ms -> PATH`
//! with the recording time `T` in milliseconds, one decimal: the
//! instrumented run alone, not the encoding or the write. `--ops`
//! defaults to 1000 and `--seed` to 1;
//! `--out` is required and is created if missing. Exits 2 on an unknown
//! flag, a missing `--out` or an unknown app name, 1 when a file cannot be
//! written.

use std::path::PathBuf;
use std::process::ExitCode;

use hawkset_bench::{apps, arg_u64, record_app};
use hawkset_core::trace::io;

const USAGE: &str = "usage: record [--ops N] [--seed S] --out DIR [APP...]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ops = arg_u64(&args, "--ops", 1_000);
    let seed = arg_u64(&args, "--seed", 1);
    let mut out: Option<PathBuf> = None;
    let mut names: Vec<&str> = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--out" => out = rest.next().map(PathBuf::from),
            "--ops" | "--seed" => {
                rest.next();
            }
            flag if flag.starts_with("--") => {
                eprintln!("record: unknown flag {flag}\n{USAGE}");
                return ExitCode::from(2);
            }
            name => names.push(name),
        }
    }
    let Some(out) = out else {
        eprintln!("record: --out DIR is required\n{USAGE}");
        return ExitCode::from(2);
    };

    let all = apps();
    if let Some(unknown) = names.iter().find(|n| !all.iter().any(|a| a.name() == **n)) {
        let known: Vec<&str> = all.iter().map(|a| a.name()).collect();
        eprintln!(
            "record: unknown app {unknown:?}; known: {}",
            known.join(", ")
        );
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("record: cannot create {}: {e}", out.display());
        return ExitCode::from(1);
    }
    for app in &all {
        if !names.is_empty() && !names.contains(&app.name()) {
            continue;
        }
        let (trace, secs) = record_app(app.as_ref(), ops, seed);
        let ms = secs * 1e3;
        let path = out.join(format!("{}.hwkt", app.name()));
        if let Err(e) = std::fs::write(&path, io::encode(&trace)) {
            eprintln!("record: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!(
            "{}: {} events in {ms:.1} ms -> {}",
            app.name(),
            trace.events.len(),
            path.display()
        );
    }
    ExitCode::SUCCESS
}
