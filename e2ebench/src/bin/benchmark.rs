//! Runs the end-to-end benchmark; see the crate docs for workloads and
//! metrics.
//!
//! Prints a header line with the host facts, one JSON line per metric,
//! and last a result line
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`
//! holding the end-to-end metrics, or with `--trace 1` the per-layer ones.
//! Run it from the repository root: it fails, printing no result, when
//! those metrics are not exactly the ones `BENCHMARK.json` declares.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Mutex;

use hawkset_e2ebench::calib::Calibrator;
use hawkset_e2ebench::manifest::Manifest;
use hawkset_e2ebench::metric::{float, Metric};
use hawkset_e2ebench::{host, run, Ctx, WORKLOADS};
use serde_json::{Map, Number, Value};

const USAGE: &str = "usage: benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--trace-out DIR]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        trace_out: None,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--trace-out" => {
                args.trace_out = Some(PathBuf::from(&value));
                args.trace = true;
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be `all` or one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Inputs, the serve database and anything a library puts in the temp
    // directory stay under the working directory.
    let work_root = PathBuf::from(".bench_work").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work_root) {
        eprintln!("benchmark: cannot create {}: {e}", work_root.display());
        return ExitCode::from(1);
    }
    match std::env::current_dir() {
        Ok(cwd) => std::env::set_var("TMPDIR", cwd.join(&work_root)),
        Err(e) => {
            eprintln!("benchmark: no working directory: {e}");
            return ExitCode::from(1);
        }
    }
    let code = bench(&args, &work_root);
    let _ = std::fs::remove_dir_all(&work_root);
    let _ = std::fs::remove_dir(".bench_work");
    code
}

fn bench(args: &Args, work_root: &std::path::Path) -> ExitCode {
    let mut header = Map::new();
    header.insert("commit", Value::String(host::commit()));
    header.insert(
        "nproc",
        host::nproc().map_or(Value::Null, |n| Value::Number(Number::PosInt(n))),
    );
    header.insert(
        "available_parallelism",
        Value::Number(Number::PosInt(host::available_parallelism())),
    );
    header.insert("seed", Value::Number(Number::PosInt(args.seed)));
    header.insert("temp_dir_fs", Value::String(host::filesystem(work_root)));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(header)).expect("header")
    );

    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let manifest = match Manifest::load() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(1);
        }
    };
    let calib = Mutex::new(Calibrator::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut reported = Map::new();
    for name in &names {
        let ctx = Ctx::new(
            args.seed,
            args.seconds,
            work_root.join(name),
            args.trace,
            &calib,
        );
        let out = match run(name, &ctx) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("benchmark: {name}: {e}");
                return ExitCode::from(1);
            }
        };
        let shown = if args.trace {
            &out.per_layer
        } else {
            &out.end_to_end
        };
        if let Err(e) = manifest.check(args.trace, shown) {
            eprintln!("benchmark: {name}: {e}");
            return ExitCode::from(1);
        }
        for m in out.end_to_end.iter().chain(&out.per_layer) {
            println!("{}", m.to_line(name));
        }
        if let Some(dir) = &args.trace_out {
            let path = dir.join(format!("spans-{name}.jsonl"));
            let lines: String = out.spans.iter().map(|s| s.to_line() + "\n").collect();
            let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, lines));
            if let Err(e) = written {
                eprintln!("benchmark: cannot write {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
        attempted += out.attempted;
        failed += out.failed;
        for m in shown {
            let key = if names.len() == 1 {
                m.name.clone()
            } else {
                format!("{name}.{}", m.name)
            };
            reported.insert(key, value_and_unit(m));
        }
    }
    let mut result = Map::new();
    result.insert("correct", Value::Bool(failed == 0));
    result.insert("attempted", Value::Number(Number::PosInt(attempted)));
    result.insert("failed", Value::Number(Number::PosInt(failed)));
    result.insert("metrics", Value::Object(reported));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(result)).expect("result")
    );
    ExitCode::SUCCESS
}

fn value_and_unit(m: &Metric) -> Value {
    let mut o = Map::new();
    o.insert("value", float(m.value));
    o.insert("unit", Value::String(m.unit.into()));
    Value::Object(o)
}
