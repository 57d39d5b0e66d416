//! Integration tests driving the `hawkset` binary end to end.

use std::path::PathBuf;
use std::process::Command;

fn hawkset() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hawkset"))
}

fn demo_trace(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("hawkset-cli-test-{name}.hwkt"));
    let out = hawkset()
        .args(["demo", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "demo failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

#[test]
fn help_prints_usage() {
    let out = hawkset().arg("--help").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("analyze"));
}

#[test]
fn unknown_command_exits_2() {
    let out = hawkset().arg("frobnicate").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn demo_info_analyze_pipeline() {
    let path = demo_trace("pipeline");

    let out = hawkset()
        .args(["info", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("events:       10"), "info output:\n{text}");
    assert!(text.contains("validation:   ok"));

    // The demo trace contains the Figure-1c race: exit code 1.
    let out = hawkset()
        .args(["analyze", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("1 persistency-induced race(s) detected"),
        "analyze output:\n{text}"
    );
    assert!(text.contains("fig1c.c:12"), "store site resolved:\n{text}");
    assert!(text.contains("fig1c.c:25"), "load site resolved:\n{text}");
}

#[test]
fn analyze_json_is_machine_readable() {
    let path = demo_trace("json");
    let out = hawkset()
        .args(["analyze", "--json", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let parsed: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("valid JSON on stdout");
    assert_eq!(parsed["schema_version"], 1u64);
    assert_eq!(parsed["races"].as_array().map(Vec::len), Some(1));
    assert_eq!(parsed["races"][0]["store_site"]["line"], 12);
}

#[test]
fn eadr_flag_silences_the_demo_race() {
    let path = demo_trace("eadr");
    let out = hawkset()
        .args(["analyze", "--eadr", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(0), "no race can exist under eADR");
}

#[test]
fn analyze_rejects_garbage_input() {
    let path = std::env::temp_dir().join("hawkset-cli-test-garbage.hwkt");
    std::fs::write(&path, b"not a trace at all").unwrap();
    let out = hawkset()
        .args(["analyze", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad magic"));
}

#[test]
fn analyze_rejects_unknown_flags() {
    let out = hawkset()
        .args(["analyze", "--frobnicate", "x.hwkt"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn info_and_demo_reject_unknown_flags() {
    let out = hawkset()
        .args(["info", "--frobnicate", "x.hwkt"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
    let out = hawkset()
        .args(["demo", "--frobnicate", "x.hwkt"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

#[test]
fn stats_line_renders_duration_in_fixed_ms() {
    let path = demo_trace("duration");
    let out = hawkset()
        .args(["analyze", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    let text = String::from_utf8_lossy(&out.stdout);
    let stats = text.lines().last().unwrap();
    assert!(
        stats.ends_with(" ms"),
        "stats line must use fixed ms units:\n{stats}"
    );
    assert!(
        !stats.contains("µs") && !stats.contains("ns"),
        "no Debug unit switching:\n{stats}"
    );
}

/// Rewrites the demo trace with semantically ill-formed events spliced in —
/// a release of a lock nobody holds and an access by a thread that is never
/// created — structurally valid, so it decodes, but strict validation must
/// reject it.
fn ill_formed_trace(name: &str) -> PathBuf {
    use hawkset_core::trace::io;
    use hawkset_core::trace::{Event, EventKind, LockId, ThreadId};

    let demo = demo_trace(name);
    let raw = std::fs::read(&demo).unwrap();
    let mut trace = io::decode(&raw).unwrap();
    let stack = trace.events.get(0).stack;
    trace.events.insert(
        0,
        Event {
            seq: 0,
            tid: ThreadId(0),
            stack,
            kind: EventKind::Release {
                lock: LockId(0xbad),
            },
        },
    );
    // Room for a thread id that passes decode's range check but is never
    // ThreadCreate'd: an orphan.
    trace.thread_count += 1;
    let orphan = ThreadId(trace.thread_count - 1);
    trace.events.push(Event {
        seq: 0,
        tid: orphan,
        stack,
        kind: EventKind::Fence,
    });
    trace.events.reseq();
    let path = std::env::temp_dir().join(format!("hawkset-cli-test-{name}-ill.hwkt"));
    std::fs::write(&path, io::encode(&trace)).unwrap();
    path
}

#[test]
fn strict_mode_rejects_ill_formed_trace_with_exit_2() {
    let path = ill_formed_trace("strict");
    let out = hawkset()
        .args(["analyze", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("validation failed"), "stderr:\n{err}");
    assert!(
        err.contains("--lenient"),
        "stderr should hint at lenient mode:\n{err}"
    );
}

#[test]
fn lenient_mode_quarantines_and_still_reports_the_race() {
    let path = ill_formed_trace("lenient");
    let out = hawkset()
        .args(["analyze", "--lenient", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(1),
        "the Figure-1c race must still be found"
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("1 persistency-induced race(s) detected"),
        "stdout:\n{text}"
    );
    assert!(
        text.contains("quarantined 2 ill-formed event(s)"),
        "stdout:\n{text}"
    );
    assert!(text.contains("1 dangling release"), "stdout:\n{text}");
    assert!(text.contains("1 orphan thread"), "stdout:\n{text}");

    // Same races as the clean demo trace, site for site.
    let clean = demo_trace("lenient-clean");
    let clean_out = hawkset()
        .args(["analyze", "--json", clean.to_str().unwrap()])
        .output()
        .expect("spawn");
    let ill_out = hawkset()
        .args(["analyze", "--json", "--lenient", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    let clean_report: serde_json::Value = serde_json::from_slice(&clean_out.stdout).unwrap();
    let ill_report: serde_json::Value = serde_json::from_slice(&ill_out.stdout).unwrap();
    assert_eq!(
        clean_report["races"], ill_report["races"],
        "quarantine must not change the race report"
    );
}

#[test]
fn info_exits_1_on_failed_validation() {
    let path = ill_formed_trace("info");
    let out = hawkset()
        .args(["info", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("validation:   FAILED"), "stdout:\n{text}");
}

#[test]
fn salvage_recovers_truncated_trace() {
    let demo = demo_trace("salvage");
    let raw = std::fs::read(&demo).unwrap();
    let cut = std::env::temp_dir().join("hawkset-cli-test-salvage-cut.hwkt");
    std::fs::write(&cut, &raw[..raw.len() - 3]).unwrap();

    // Without --salvage the truncated file is a hard decode error.
    let out = hawkset()
        .args(["analyze", cut.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));

    // With --salvage the valid event prefix is analyzed. The demo race's
    // flush/fence/join tail is cut off, which makes the store
    // never-persisted — still a race, exit 1.
    let out = hawkset()
        .args(["analyze", "--salvage", cut.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("salvaged"));
}

/// A lenient streamed run of a truncated trace analyzes the valid prefix,
/// as `--salvage` does; its `--suggest-fixes` re-read must salvage that
/// prefix too, or the races ship without their fixes.
#[test]
fn lenient_stream_keeps_fixes_of_a_truncated_trace() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/app_wipe_fixes.hwkt"
    );
    let raw = std::fs::read(golden).unwrap();
    let cut = std::env::temp_dir().join("hawkset-cli-test-lenient-stream-fixes.hwkt");
    std::fs::write(&cut, &raw[..raw.len() - 3]).unwrap();
    let run = |mode: &str| {
        let out = hawkset()
            .args(["analyze", "--json", "--lenient", "--suggest-fixes", mode])
            .arg(&cut)
            .output()
            .expect("spawn");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{mode}: stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        serde_json::from_slice::<serde_json::Value>(&out.stdout).expect("valid report JSON")
    };
    let (stream, salvage) = (run("--stream"), run("--salvage"));
    assert_eq!(stream["races"], salvage["races"]);
    assert_eq!(stream["fixes"], salvage["fixes"]);
    let fixes = salvage["fixes"]["suggestions"]
        .as_array()
        .expect("a fixes section");
    assert!(!fixes.is_empty(), "the salvaged prefix has races to fix");
}

#[test]
fn max_pairs_budget_truncates_the_report() {
    let path = demo_trace("budget");
    let out = hawkset()
        .args(["analyze", "--max-pairs", "0", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(0),
        "nothing in budget, nothing reported"
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("analysis truncated by candidate-pair budget"),
        "stdout:\n{text}"
    );

    // A generous budget behaves exactly like no budget.
    let out = hawkset()
        .args(["analyze", "--max-pairs=1000", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(!String::from_utf8_lossy(&out.stdout).contains("truncated"));
}

#[test]
fn max_pairs_rejects_non_integer_values() {
    let out = hawkset()
        .args(["analyze", "--max-pairs", "lots", "x.hwkt"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("integer"));
}

#[test]
fn metrics_flag_writes_valid_json_with_no_tmp_leftover() {
    let path = demo_trace("metrics-file");
    let mpath = std::env::temp_dir().join("hawkset-cli-test-metrics.json");
    let _ = std::fs::remove_file(&mpath);
    let out = hawkset()
        .args([
            "analyze",
            "--metrics",
            mpath.to_str().unwrap(),
            path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    // The metrics flag does not change the analysis exit code.
    assert_eq!(out.status.code(), Some(1));
    let metrics: serde_json::Value =
        serde_json::from_slice(&std::fs::read(&mpath).expect("metrics file written"))
            .expect("metrics file is valid JSON");
    assert_eq!(metrics["version"], 1u64);
    assert_eq!(metrics["ingest"]["events_decoded"], 10u64);
    // Ingest conservation, visible straight from the emitted file.
    assert_eq!(
        metrics["ingest"]["events_decoded"].as_u64().unwrap(),
        metrics["ingest"]["events_analyzed"].as_u64().unwrap()
            + metrics["ingest"]["events_quarantined"].as_u64().unwrap()
            + metrics["ingest"]["events_truncated"].as_u64().unwrap()
    );
    // Decode wall-clock was patched in by the CLI (a real duration, so
    // the key must at least exist; zero is legal on a fast machine).
    assert!(metrics["timing"]["decode_ms"].as_f64().is_some());
    // Atomic write: the temp file must not survive.
    let tmp = format!("{}.tmp", mpath.to_str().unwrap());
    assert!(
        !std::path::Path::new(&tmp).exists(),
        "atomic write left {tmp} behind"
    );
}

#[test]
fn metrics_stderr_does_not_pollute_the_stdout_report() {
    let path = demo_trace("metrics-stderr");
    let out = hawkset()
        .args([
            "analyze",
            "--json",
            "--metrics-stderr",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    // stdout is still exactly the report JSON.
    let report: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("stdout stays valid report JSON");
    assert_eq!(report["schema_version"], 1u64);
    // stderr carries the metrics JSON.
    let metrics: serde_json::Value =
        serde_json::from_slice(&out.stderr).expect("stderr is the metrics JSON");
    assert_eq!(metrics["version"], 1u64);
    // The report embeds the same snapshot (timing aside, same counters).
    assert_eq!(
        report["metrics"]["pairing"]["candidate_pairs"],
        metrics["pairing"]["candidate_pairs"]
    );
}

#[test]
fn unwritable_metrics_path_warns_under_lenient_but_aborts_under_strict() {
    let path = demo_trace("metrics-unwritable");
    let bad = "/nonexistent-dir-hawkset-test/metrics.json";

    // Lenient: the analysis result stands; the metrics loss is a warning.
    let out = hawkset()
        .args([
            "analyze",
            "--lenient",
            "--metrics",
            bad,
            path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(1),
        "lenient keeps the analysis exit code; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("warning"), "stderr:\n{err}");
    assert!(err.contains("cannot write metrics"), "stderr:\n{err}");

    // Strict (the default): an unwritable metrics path is an I/O error.
    let out = hawkset()
        .args(["analyze", "--metrics", bad, path.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("warning"), "stderr:\n{err}");
}

#[test]
fn retry_counts_above_u32_max_are_refused() {
    let path = demo_trace("retries-wrap");
    let too_many = (u64::from(u32::MAX) + 1).to_string();
    for args in [
        vec!["crashtest", "fast-fair", "--max-retries", &too_many],
        // The trailing bad flag keeps a regression from starting a daemon.
        vec!["serve", "--max-retries", &too_many, "--workers", "x"],
        vec![
            "submit",
            "--tcp",
            "127.0.0.1:9",
            "--retries",
            &too_many,
            path.to_str().unwrap(),
        ],
    ] {
        let out = hawkset().args(&args).output().expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr:\n{err}");
        assert!(err.contains("at most 4294967295"), "{args:?}: {err}");
    }
}

#[test]
fn crashtest_metrics_flag_writes_campaign_metrics() {
    let mpath = std::env::temp_dir().join("hawkset-cli-test-crashtest-metrics.json");
    let _ = std::fs::remove_file(&mpath);
    let out = hawkset()
        .args([
            "crashtest",
            "fast-fair",
            "--rounds",
            "1",
            "--ops",
            "30",
            "--crash-points",
            "2",
            "--metrics",
            mpath.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.code() == Some(0) || out.status.code() == Some(1),
        "campaign completes; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics: serde_json::Value =
        serde_json::from_slice(&std::fs::read(&mpath).expect("metrics file written"))
            .expect("campaign metrics file is valid JSON");
    assert_eq!(metrics["version"], 1u64);
    assert_eq!(metrics["rounds_total"], 1u64);
    // Round-outcome partition, straight from the emitted file.
    assert_eq!(
        metrics["rounds_total"].as_u64().unwrap(),
        metrics["rounds_ok"].as_u64().unwrap()
            + metrics["rounds_panicked"].as_u64().unwrap()
            + metrics["rounds_timed_out"].as_u64().unwrap()
            + metrics["rounds_recovery_failed"].as_u64().unwrap()
            + metrics["rounds_invariant_violated"].as_u64().unwrap()
    );
}

/// A trace big enough that pairing has work in many shards: 64
/// unsynchronized store/load pairs on distinct cache lines. Used by the
/// streaming, interrupt and kill-and-resume tests.
fn sharded_trace(name: &str) -> PathBuf {
    use hawkset_core::addr::AddrRange;
    use hawkset_core::trace::io;
    use hawkset_core::trace::{EventKind, Frame, ThreadId, TraceBuilder};

    let mut b = TraceBuilder::new();
    let st = b.intern_stack([Frame::new("producer", "shard.c", 10)]);
    let ld = b.intern_stack([Frame::new("consumer", "shard.c", 20)]);
    b.push(
        ThreadId(0),
        st,
        EventKind::ThreadCreate { child: ThreadId(1) },
    );
    for i in 0..64u64 {
        let x = AddrRange::new(0x1000 + i * 0x40, 8);
        b.push(
            ThreadId(0),
            st,
            EventKind::Store {
                range: x,
                non_temporal: false,
                atomic: false,
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
    }
    b.push(
        ThreadId(0),
        st,
        EventKind::ThreadJoin { child: ThreadId(1) },
    );
    let path = std::env::temp_dir().join(format!("hawkset-cli-test-{name}.hwkt"));
    std::fs::write(&path, io::encode(&b.finish())).unwrap();
    path
}

/// Asserts two report JSONs are identical except for the wall-clock
/// fields (`stats.duration`, `metrics.timing`), the only ones allowed to
/// differ between equivalent runs.
fn assert_same_report(a: &[u8], b: &[u8], ctx: &str) {
    let a: serde_json::Value = serde_json::from_slice(a).expect("valid report JSON");
    let b: serde_json::Value = serde_json::from_slice(b).expect("valid report JSON");
    for key in ["schema_version", "races", "coverage", "fixes"] {
        assert_eq!(a[key], b[key], "{ctx}: `{key}` diverged");
    }
    for (section, masked) in [("stats", "duration_ms"), ("metrics", "timing")] {
        let ao = a[section]
            .as_object()
            .unwrap_or_else(|| panic!("{ctx}: no {section}"));
        let bo = b[section]
            .as_object()
            .unwrap_or_else(|| panic!("{ctx}: no {section}"));
        assert_eq!(ao.len(), bo.len(), "{ctx}: `{section}` key sets differ");
        for (k, v) in ao.iter() {
            if k == masked {
                continue;
            }
            assert_eq!(Some(v), bo.get(k), "{ctx}: `{section}.{k}` diverged");
        }
    }
}

/// The in-memory and the streamed run share one analysis driver; under
/// each flag set they must print the same report, fixes included.
#[test]
fn stream_flag_matches_batch_report() {
    let path = sharded_trace("stream-vs-batch");
    let path = path.to_str().unwrap();
    for flags in [
        &[][..],
        &["--suggest-fixes"],
        &["--lenient"],
        &["--max-events", "100"],
        &["--memory-budget", "4096"],
        &["--threads", "1"],
    ] {
        let run = |stream: bool| {
            let mut cmd = hawkset();
            cmd.args(["analyze", "--json"]).args(flags);
            if stream {
                cmd.arg("--stream");
            }
            cmd.arg(path).output().expect("spawn")
        };
        let (batch, stream) = (run(false), run(true));
        assert_eq!(batch.status.code(), Some(1), "{flags:?}");
        assert_eq!(stream.status.code(), Some(1), "{flags:?}");
        assert_same_report(
            &stream.stdout,
            &batch.stdout,
            &format!("{flags:?}: streaming must be bit-identical to batch (wall-clock masked)"),
        );
        if flags == ["--suggest-fixes"] {
            let report: serde_json::Value = serde_json::from_slice(&batch.stdout).unwrap();
            assert!(
                report["fixes"].as_object().is_some(),
                "no fixes section to compare"
            );
        }
    }
}

#[test]
fn stdin_dash_streams_the_trace() {
    use std::io::Write;
    use std::process::Stdio;

    let path = sharded_trace("stdin");
    let bytes = std::fs::read(&path).unwrap();
    let mut child = hawkset()
        .args(["analyze", "--json", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    child.stdin.take().unwrap().write_all(&bytes).unwrap();
    let out = child.wait_with_output().expect("wait");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let file = hawkset()
        .args(["analyze", "--json", "--stream", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_same_report(
        &out.stdout,
        &file.stdout,
        "stdin and file streaming must agree",
    );
}

#[test]
fn stdin_cannot_resume() {
    use std::process::Stdio;
    let out = hawkset()
        .args(["analyze", "-", "--resume", "/tmp/whatever.ck"])
        .stdin(Stdio::null())
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("seekable"), "stderr:\n{err}");
}

#[test]
fn resume_with_mismatched_config_is_refused() {
    use std::process::Stdio;
    let path = sharded_trace("resume-mismatch");
    let ck = std::env::temp_dir().join("hawkset-cli-test-resume-mismatch.ck");
    let _ = std::fs::remove_file(&ck);
    // A clean completion now removes its checkpoint file, so interrupt the
    // run mid-stage to leave one behind (the only state resume is for).
    let mut child = hawkset()
        .args([
            "analyze",
            "--json",
            "--stream",
            "--checkpoint",
            ck.to_str().unwrap(),
            "--checkpoint-every",
            "1",
            path.to_str().unwrap(),
        ])
        .env("HAWKSET_TEST_SHARD_DELAY_MS", "20000")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let t0 = std::time::Instant::now();
    while !ck.exists() {
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "no checkpoint appeared within 10s"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    std::thread::sleep(std::time::Duration::from_millis(300));
    child.kill().expect("SIGKILL");
    let _ = child.wait();
    assert!(ck.exists(), "checkpoint file must survive the kill");

    // Same checkpoint, different analysis configuration: refused, and the
    // error names both fingerprints rather than silently mixing results.
    let out = hawkset()
        .args([
            "analyze",
            "--json",
            "--eadr",
            "--resume",
            ck.to_str().unwrap(),
            path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("eadr"),
        "stderr names the fingerprints:\n{err}"
    );
}

#[test]
fn checkpoint_every_zero_is_refused() {
    let path = sharded_trace("ck-every-zero");
    let out = hawkset()
        .args([
            "analyze",
            "--checkpoint",
            "/tmp/hawkset-cli-test-ck-zero.ck",
            "--checkpoint-every",
            "0",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--checkpoint-every"), "stderr:\n{err}");
}

#[test]
fn clean_completion_removes_checkpoint_file() {
    let path = sharded_trace("ck-clean-removed");
    let ck = std::env::temp_dir().join("hawkset-cli-test-ck-clean.ck");
    let _ = std::fs::remove_file(&ck);
    let out = hawkset()
        .args([
            "analyze",
            "--json",
            "--stream",
            "--checkpoint",
            ck.to_str().unwrap(),
            "--checkpoint-every",
            "1",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !ck.exists(),
        "checkpoint file must be removed after a clean completion"
    );
}

#[cfg(unix)]
#[test]
fn sigterm_produces_partial_report_with_resume_hint() {
    use std::process::Stdio;

    let path = sharded_trace("sigterm");
    let ck = std::env::temp_dir().join("hawkset-cli-test-sigterm.ck");
    let _ = std::fs::remove_file(&ck);
    // Stall pairing shard 0 long enough to land the signal mid-stage.
    let child = hawkset()
        .args([
            "analyze",
            "--json",
            "--stream",
            "--checkpoint",
            ck.to_str().unwrap(),
            "--checkpoint-every",
            "1",
            path.to_str().unwrap(),
        ])
        .env("HAWKSET_TEST_SHARD_DELAY_MS", "20000")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    // Wait for the first checkpoint write: proof the run is underway.
    let t0 = std::time::Instant::now();
    while !ck.exists() {
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "no checkpoint appeared within 10s"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    std::thread::sleep(std::time::Duration::from_millis(300));
    let rc = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill spawns");
    assert!(rc.success());
    let out = child.wait_with_output().expect("wait");

    // Graceful: a valid partial report on stdout, a resume hint on stderr,
    // and the racy prefix still decides the exit code.
    assert!(
        out.status.code() == Some(0) || out.status.code() == Some(1),
        "graceful shutdown, not a signal death; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("partial report is valid JSON");
    assert_eq!(report["coverage"]["truncated"], true);
    assert_eq!(report["coverage"]["reason"], "interrupted");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--resume"), "stderr hints at resume:\n{err}");
}

#[cfg(unix)]
#[test]
fn kill_and_resume_reproduces_the_uninterrupted_report() {
    use std::process::Stdio;

    let path = sharded_trace("kill-resume");
    let ck = std::env::temp_dir().join("hawkset-cli-test-kill-resume.ck");
    let _ = std::fs::remove_file(&ck);

    // Golden: the same analysis, never interrupted.
    let golden = hawkset()
        .args(["analyze", "--json", "--stream", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(golden.status.code(), Some(1));

    // Victim: checkpointing every event, with pairing shard 0 stalled so
    // SIGKILL lands mid-run — no signal handler can help, only the
    // checkpoint file survives.
    let mut child = hawkset()
        .args([
            "analyze",
            "--json",
            "--stream",
            "--checkpoint",
            ck.to_str().unwrap(),
            "--checkpoint-every",
            "1",
            path.to_str().unwrap(),
        ])
        .env("HAWKSET_TEST_SHARD_DELAY_MS", "20000")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let t0 = std::time::Instant::now();
    while !ck.exists() {
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "no checkpoint appeared within 10s"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    std::thread::sleep(std::time::Duration::from_millis(300));
    child.kill().expect("SIGKILL");
    let _ = child.wait();

    // Resume from whatever the checkpoint captured (no stall this time).
    let resumed = hawkset()
        .args([
            "analyze",
            "--json",
            "--resume",
            ck.to_str().unwrap(),
            path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert_eq!(
        resumed.status.code(),
        Some(1),
        "stderr:\n{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_same_report(
        &resumed.stdout,
        &golden.stdout,
        "resumed run must reproduce the uninterrupted report (wall-clock masked)",
    );
}

/// Every usage error exits 2 and names its cause on stderr. No case may
/// start a daemon or a campaign: each one fails while its arguments are
/// read (the crashtest extra-positional case also sets `--rounds 0`, which
/// older parsers refused before running anything). An extra positional is
/// an error, not a replacement for the first: `analyze missing extra` must
/// not report on `extra`.
#[test]
fn usage_errors_exit_2_and_name_the_cause() {
    let missing = "/nonexistent-hawkset-dir/a.hwkt";
    let extra = demo_trace("extra-positional");
    let extra = extra.to_str().unwrap();
    let cases: &[(&[&str], &str)] = &[
        // The nine flags that refuse 0; half use the `--flag=0` form.
        (&["analyze", "--checkpoint-every=0", missing], "at least 1"),
        (&["serve", "--workers", "0"], "at least 1"),
        (&["serve", "--queue-cap=0"], "at least 1"),
        (&["serve", "--tenant-cap", "0"], "at least 1"),
        (&["serve", "--checkpoint-every-jobs=0"], "at least 1"),
        (&["serve", "--max-connections", "0"], "at least 1"),
        (&["serve", "--io-timeout-ms=0"], "at least 1"),
        (&["serve", "--idle-timeout-ms", "0"], "at least 1"),
        (&["submit", "--retry-max-ms=0", missing], "at least 1"),
        // A valued flag with nothing after it, once per subcommand.
        (
            &["analyze", missing, "--max-pairs"],
            "--max-pairs needs a value",
        ),
        (
            &["crashtest", "fast-fair", "--rounds"],
            "--rounds needs a value",
        ),
        (&["serve", "--db"], "--db needs a value"),
        (&["submit", missing, "--tenant"], "--tenant needs a value"),
        (&["query", "--db"], "--db needs a value"),
        // Values a kind refuses.
        (
            &["crashtest", "fast-fair", "--rounds", "lots"],
            "--rounds needs an integer, got `lots`",
        ),
        (
            &["serve", "--workers=x"],
            "--workers needs an integer, got `x`",
        ),
        (
            &["crashtest", "fast-fair", "--delay-probability", "NaN"],
            "cannot be NaN",
        ),
        (
            &["crashtest", "fast-fair", "--axes", "bogus"],
            "unknown axis `bogus`",
        ),
        (
            &["query", "--verify", "nope"],
            "--verify needs TENANT=REPORT.json",
        ),
        // One positional too many.
        (&["analyze", missing, extra], "unexpected argument"),
        (&["info", missing, extra], "unexpected argument"),
        (&["demo", missing, extra], "unexpected argument"),
        (
            &["crashtest", "fast-fair", "pclht", "--rounds", "0"],
            "unexpected argument",
        ),
        (&["submit", missing, extra], "unexpected argument"),
        (&["serve", "stray"], "unexpected argument"),
        (&["query", "stray"], "unexpected argument"),
    ];
    for (args, fragment) in cases {
        let out = hawkset().args(*args).output().expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr:\n{err}");
        assert!(
            err.contains(fragment),
            "{args:?}: want `{fragment}` in:\n{err}"
        );
    }
}
