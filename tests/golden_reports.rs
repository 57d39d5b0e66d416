//! Golden-trace regression corpus: a handful of small, fully
//! deterministic traces committed under `tests/golden/` together with the
//! exact JSON report (including the observability metrics) each must
//! produce. Any change to decoding, simulation, pairing, report layout or
//! metric accounting that alters an emitted byte fails here first.
//!
//! Each case commits two files:
//!
//! * `<name>.hwkt` — the encoded trace. The test re-builds the trace from
//!   its in-code builder and asserts the committed bytes match, so the
//!   corpus can never silently drift from its documented construction.
//! * `<name>.expected.json` — the report JSON with wall-clock masked
//!   (`stats.duration` zeroed, `metrics.timing` defaulted). Every case is
//!   analyzed at 1, 2 and 8 worker threads and must match byte-for-byte
//!   at all three — the determinism contract, pinned.
//!
//! The `*_fixes` cases run with `suggest_fixes` on and pin the optional
//! `fixes` section — every emitted `"validated": true` is a replay-proven
//! repair, byte-stable at all three thread counts. Their negative twins
//! are pinned too: with the flag off (every other case) the key is
//! *absent*, so the flag-off envelope stays byte-identical to the
//! pre-repair corpus. The one special case is `app_wipe_fixes.hwkt`: real
//! application executions interleave live threads and are not
//! byte-reproducible, so that trace was captured once and is analyzed
//! from its committed bytes forever — delete the file and run with
//! `UPDATE_GOLDEN=1` to re-capture it.
//!
//! The crashtest case pins `CampaignMetrics` JSON from a hand-built round
//! record instead of a live campaign: crash-point placement depends on the
//! measured op horizon, which varies with concurrent interleaving, so a
//! live campaign's metrics are not byte-stable by design.
//!
//! Regenerating after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_reports
//! git diff tests/golden/   # review every changed byte, then commit
//! ```
//!
//! CI refuses to run with `UPDATE_GOLDEN` set (see `scripts/ci.sh`), so
//! the suite can only ever *check* there.

use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use hawkset::baseline::{
    CampaignMetrics, CrashCampaignConfig, CrashCampaignResult, RoundOutcome, RoundRecord,
};
use hawkset::core::addr::AddrRange;
use hawkset::core::analysis::{
    AnalysisBudget, AnalysisConfig, AnalysisReport, Analyzer, Strictness,
};
use hawkset::core::trace::io;
use hawkset::core::trace::{
    EventKind, Frame, LockId, LockMode, PmRegion, ThreadId, Trace, TraceBuilder,
};

fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"))
}

fn update_golden() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some()
}

/// Reads a committed golden file, or writes it under `UPDATE_GOLDEN=1`.
fn check_or_update(name: &str, actual: &[u8]) {
    let path = golden_dir().join(name);
    if update_golden() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return;
    }
    let committed = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run `UPDATE_GOLDEN=1 cargo test --test golden_reports`",
            path.display()
        )
    });
    if committed != actual {
        // Byte-for-byte is the contract; show a readable diff for JSON.
        let want = String::from_utf8_lossy(&committed);
        let got = String::from_utf8_lossy(actual);
        panic!(
            "golden mismatch for {name}.\n--- committed\n{want}\n--- produced\n{got}\n\
             If the change is intentional, regenerate with \
             `UPDATE_GOLDEN=1 cargo test --test golden_reports` and review the diff."
        );
    }
}

/// Masks the wall-clock-dependent fields and serializes: the only fields
/// allowed to differ between runs or thread counts are `stats.duration`
/// and the `metrics.timing` subobject.
fn masked_json(mut report: AnalysisReport) -> String {
    report.stats.duration = Duration::ZERO;
    report.metrics = report.metrics.map(|m| m.masked());
    report.to_json()
}

/// The paper's Figure-1c race (bug flavor #1): the store is persisted, but
/// only *after* the lock release, so the persist escapes the critical
/// section and a concurrent reader can observe unpersisted data.
fn fig1c_trace() -> Trace {
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
    b.finish()
}

/// The corrected Figure-1c program: persist (flush + fence) *inside* the
/// critical section, before the release. No race exists.
fn race_free_trace() -> Trace {
    let mut b = TraceBuilder::new();
    b.add_region(PmRegion {
        base: 0x1000,
        len: 4096,
        path: "/mnt/pmem/fixed".into(),
    });
    let x = AddrRange::new(0x1000, 8);
    let a = LockId(0xa);
    let st = b.intern_stack([Frame::new("writer", "fixed.c", 12)]);
    let ld = b.intern_stack([Frame::new("reader", "fixed.c", 25)]);
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
    b.push(ThreadId(0), st, EventKind::Flush { addr: 0x1000 });
    b.push(ThreadId(0), st, EventKind::Fence);
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
    b.push(
        ThreadId(0),
        st,
        EventKind::ThreadJoin { child: ThreadId(1) },
    );
    b.finish()
}

/// Bug flavor #2: the store is *never* persisted — no flush anywhere — so
/// the window stays open to the end of the trace and the concurrent
/// locked reader races with it.
fn unpersisted_trace() -> Trace {
    let mut b = TraceBuilder::new();
    b.add_region(PmRegion {
        base: 0x2000,
        len: 4096,
        path: "/mnt/pmem/unpersisted".into(),
    });
    let y = AddrRange::new(0x2040, 16);
    let a = LockId(0xb);
    let st = b.intern_stack([Frame::new("insert", "tree.c", 88)]);
    let ld = b.intern_stack([Frame::new("lookup", "tree.c", 130)]);
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
            range: y,
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
            range: y,
            atomic: false,
        },
    );
    b.push(ThreadId(1), ld, EventKind::Release { lock: a });
    b.push(
        ThreadId(0),
        st,
        EventKind::ThreadJoin { child: ThreadId(1) },
    );
    b.finish()
}

/// Unsynchronized store/load pairs spread over many cache lines (and so
/// many pairing shards). Analyzed with a candidate-pair budget smaller
/// than the pair count, this is the committed example of a truncated
/// report with a non-zero `pairs_budget_dropped`.
fn budget_trace() -> Trace {
    let mut b = TraceBuilder::new();
    b.add_region(PmRegion {
        base: 0x1000,
        len: 1 << 16,
        path: "/mnt/pmem/budget".into(),
    });
    let st = b.intern_stack([Frame::new("producer", "budget.c", 7)]);
    let ld = b.intern_stack([Frame::new("consumer", "budget.c", 19)]);
    b.push(
        ThreadId(0),
        st,
        EventKind::ThreadCreate { child: ThreadId(1) },
    );
    b.push(
        ThreadId(0),
        st,
        EventKind::ThreadCreate { child: ThreadId(2) },
    );
    for i in 0..24u64 {
        b.push(
            ThreadId(1),
            st,
            EventKind::Store {
                range: AddrRange::new(0x1000 + i * 256, 8),
                non_temporal: false,
                atomic: false,
            },
        );
    }
    for i in 0..24u64 {
        b.push(
            ThreadId(2),
            ld,
            EventKind::Load {
                range: AddrRange::new(0x1000 + i * 256, 8),
                atomic: false,
            },
        );
    }
    b.push(
        ThreadId(0),
        st,
        EventKind::ThreadJoin { child: ThreadId(1) },
    );
    b.push(
        ThreadId(0),
        st,
        EventKind::ThreadJoin { child: ThreadId(2) },
    );
    b.finish()
}

/// A long run whose persisted windows pile up: each round stores to a
/// fresh cache line, persists it (flush + fence) and is read by the other
/// thread, so the closed-window list grows linearly. Analyzed under a
/// small [`AnalysisBudget::memory_budget`] this is the committed example
/// of live-state eviction (`coverage.reason = memory_budget`).
fn window_heavy_trace() -> Trace {
    let mut b = TraceBuilder::new();
    b.add_region(PmRegion {
        base: 0x1_0000,
        len: 1 << 20,
        path: "/mnt/pmem/heavy".into(),
    });
    let st = b.intern_stack([Frame::new("append", "log.c", 51)]);
    let ld = b.intern_stack([Frame::new("scan", "log.c", 97)]);
    b.push(
        ThreadId(0),
        st,
        EventKind::ThreadCreate { child: ThreadId(1) },
    );
    for i in 0..200u64 {
        let x = AddrRange::new(0x1_0000 + i * 0x40, 8);
        b.push(
            ThreadId(0),
            st,
            EventKind::Store {
                range: x,
                non_temporal: false,
                atomic: false,
            },
        );
        b.push(ThreadId(0), st, EventKind::Flush { addr: x.start });
        b.push(ThreadId(0), st, EventKind::Fence);
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
    b.finish()
}

/// The committed WIPE capture for the fixes-bearing application case.
///
/// Application traces cannot be rebuilt byte-identically — their worker
/// threads interleave for real — so unlike every other `.hwkt` this one
/// is not re-derived from its builder: the committed bytes *are* the
/// case. Missing file + `UPDATE_GOLDEN=1` captures a fresh execution
/// (20-op seed-42 default workload); any other missing-file state is an
/// error, and `UPDATE_GOLDEN=1` alone never rewrites a present capture.
fn app_capture_bytes() -> Vec<u8> {
    let path = golden_dir().join("app_wipe_fixes.hwkt");
    match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(_) if update_golden() => {
            let app = hawkset::apps::all_apps()
                .into_iter()
                .find(|a| a.name() == "WIPE")
                .expect("WIPE app registered");
            let wl = app.default_workload(20, 42);
            let bytes = io::encode(&app.execute(&wl)).to_vec();
            std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
            std::fs::write(&path, &bytes)
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            bytes
        }
        Err(e) => panic!(
            "missing committed app capture {} ({e}); delete+UPDATE_GOLDEN=1 re-captures",
            path.display()
        ),
    }
}

/// Bytes dropped from the tail of the Figure-1c encoding for the salvage
/// case. The final event (the 5-byte `ThreadJoin`) loses its last bytes,
/// so lossy decoding recovers every event but the join.
const SALVAGE_TRUNCATE: usize = 3;

struct AnalysisCase {
    name: &'static str,
    bytes: Vec<u8>,
    cfg: AnalysisConfig,
    /// Load through `io::decode_lossy` and fold the salvage loss counters
    /// into the metrics, as `hawkset analyze --salvage` does.
    salvage: bool,
}

fn analysis_cases() -> Vec<AnalysisCase> {
    let fig1c = io::encode(&fig1c_trace()).to_vec();
    let mut corrupt = fig1c.clone();
    corrupt.truncate(corrupt.len() - SALVAGE_TRUNCATE);
    vec![
        AnalysisCase {
            name: "race_free",
            bytes: io::encode(&race_free_trace()).to_vec(),
            cfg: AnalysisConfig::default(),
            salvage: false,
        },
        AnalysisCase {
            name: "racy_fig1c",
            bytes: fig1c,
            cfg: AnalysisConfig::default(),
            salvage: false,
        },
        AnalysisCase {
            name: "racy_unpersisted",
            bytes: io::encode(&unpersisted_trace()).to_vec(),
            cfg: AnalysisConfig::default(),
            salvage: false,
        },
        // Repair corpus: the same Figure-1c bytes analyzed with
        // `suggest_fixes` on pin the `fixes` section — the flush+fence
        // repair for the escaped persist, replay-validated — while the
        // flag-off `racy_fig1c` twin above pins the key's absence. The
        // WIPE capture pins fixes against a real application trace.
        AnalysisCase {
            name: "racy_fig1c_fixes",
            bytes: io::encode(&fig1c_trace()).to_vec(),
            cfg: AnalysisConfig {
                suggest_fixes: true,
                ..Default::default()
            },
            salvage: false,
        },
        AnalysisCase {
            name: "app_wipe_fixes",
            bytes: app_capture_bytes(),
            cfg: AnalysisConfig {
                suggest_fixes: true,
                ..Default::default()
            },
            salvage: false,
        },
        AnalysisCase {
            name: "salvage_corrupt",
            bytes: corrupt,
            cfg: AnalysisConfig {
                strictness: Strictness::Lenient,
                ..Default::default()
            },
            salvage: true,
        },
        AnalysisCase {
            name: "budget_truncated",
            bytes: io::encode(&budget_trace()).to_vec(),
            cfg: AnalysisConfig {
                budget: AnalysisBudget {
                    max_candidate_pairs: Some(6),
                    ..Default::default()
                },
                ..Default::default()
            },
            salvage: false,
        },
        // Degraded-mode corpus: one committed example of every coverage
        // reason the analyzer can emit, so a regression in any degraded
        // path changes a pinned byte.
        AnalysisCase {
            // The memory budget is far below the live-state footprint of
            // 200 persisted windows, so the simulation evicts the coldest
            // and the report degrades with `reason = memory_budget`.
            name: "memory_budget_evicted",
            bytes: io::encode(&window_heavy_trace()).to_vec(),
            cfg: AnalysisConfig {
                budget: AnalysisBudget {
                    memory_budget: Some(4 * 1024),
                    ..Default::default()
                },
                ..Default::default()
            },
            salvage: false,
        },
        AnalysisCase {
            // A zero stage timeout pre-trips the watchdog, so every shard
            // stops before its first window group — the deterministic
            // image of a stalled pairing stage.
            name: "stage_stalled",
            bytes: io::encode(&fig1c_trace()).to_vec(),
            cfg: AnalysisConfig {
                budget: AnalysisBudget {
                    stage_timeout: Some(Duration::ZERO),
                    ..Default::default()
                },
                ..Default::default()
            },
            salvage: false,
        },
        AnalysisCase {
            // A pre-set interrupt flag is the deterministic image of
            // SIGINT: pairing stops before its first window group and the
            // partial report carries `reason = interrupted`.
            name: "interrupted",
            bytes: io::encode(&fig1c_trace()).to_vec(),
            cfg: AnalysisConfig {
                interrupt: Some(Arc::new(AtomicBool::new(true))),
                ..Default::default()
            },
            salvage: false,
        },
    ]
}

/// Analyzes a case's committed bytes at the given thread count and
/// returns the masked report JSON.
fn run_case(case: &AnalysisCase, threads: usize) -> String {
    let analyzer = Analyzer::new(case.cfg.clone()).threads(threads);
    if case.salvage {
        let salvage = io::decode_lossy(&case.bytes).expect("salvage case stays decodable");
        assert!(
            salvage.dropped_events > 0,
            "{}: truncation must actually drop at least one event",
            case.name
        );
        let mut report = analyzer
            .try_run(&salvage.trace)
            .expect("lenient analysis never rejects");
        if let Some(m) = report.metrics.as_mut() {
            salvage.record_metrics(m);
        }
        masked_json(report)
    } else {
        let trace = io::decode(&case.bytes).expect("golden trace decodes");
        let report = analyzer.try_run(&trace).expect("golden trace analyzes");
        masked_json(report)
    }
}

#[test]
fn golden_traces_match_their_builders() {
    for case in analysis_cases() {
        check_or_update(&format!("{}.hwkt", case.name), &case.bytes);
    }
}

#[test]
fn golden_reports_are_pinned_at_every_thread_count() {
    for case in analysis_cases() {
        let reference = run_case(&case, 1);
        check_or_update(
            &format!("{}.expected.json", case.name),
            reference.as_bytes(),
        );
        for threads in [2usize, 8] {
            let got = run_case(&case, threads);
            assert_eq!(
                got, reference,
                "{}: masked report diverged at {} threads",
                case.name, threads
            );
        }
    }
}

/// Sanity on top of the byte pin: the budget case really does drop pairs,
/// the racy cases really do race, and every snapshot obeys the
/// conservation laws.
#[test]
fn golden_cases_exercise_what_they_claim() {
    for case in analysis_cases() {
        let json = run_case(&case, 1);
        // Negative coverage for the repair section: with `suggest_fixes`
        // off the `fixes` key must be absent — the flag-off envelope is
        // byte-identical to the pre-repair schema.
        if !case.cfg.suggest_fixes {
            assert!(
                !json.contains("\"fixes\""),
                "{}: fixes key emitted without --suggest-fixes",
                case.name
            );
        }
        match case.name {
            "race_free" => assert!(json.contains("\"races\": []"), "race_free found races"),
            "budget_truncated" => assert!(
                json.contains("\"truncated\": true"),
                "budget case was not truncated"
            ),
            "memory_budget_evicted" => assert!(
                json.contains("\"reason\": \"memory_budget\""),
                "memory-budget case did not degrade with reason = memory_budget"
            ),
            "stage_stalled" => assert!(
                json.contains("\"reason\": \"stage_stalled\""),
                "stalled case did not degrade with reason = stage_stalled"
            ),
            "interrupted" => assert!(
                json.contains("\"reason\": \"interrupted\""),
                "interrupted case did not degrade with reason = interrupted"
            ),
            "racy_fig1c_fixes" | "app_wipe_fixes" => {
                assert!(
                    json.contains("\"fixes\""),
                    "{}: no fixes section emitted",
                    case.name
                );
                assert!(
                    json.contains("\"validated\": true"),
                    "{}: no replay-validated fix in the pinned corpus",
                    case.name
                );
            }
            _ => {}
        }
        // Re-run through the API to inspect the typed snapshot.
        let trace = if case.salvage {
            io::decode_lossy(&case.bytes).expect("decodable").trace
        } else {
            io::decode(&case.bytes).expect("decodable")
        };
        let analyzer = Analyzer::new(case.cfg.clone()).threads(1);
        let report = analyzer.try_run(&trace).expect("analyzes");
        let metrics = report.metrics.expect("metrics attached");
        assert_eq!(
            metrics.conservation_violations(),
            Vec::<String>::new(),
            "{}: conservation law violated",
            case.name
        );
        match case.name {
            "racy_fig1c" | "racy_unpersisted" | "racy_fig1c_fixes" | "app_wipe_fixes" => {
                assert!(!report.races.is_empty(), "{} found no race", case.name)
            }
            // A clean trace never grows a fixes section, even with the
            // flag on: nothing to repair means no key, not an empty list.
            "race_free" => {
                let fixed = Analyzer::new(AnalysisConfig {
                    suggest_fixes: true,
                    ..Default::default()
                })
                .threads(1)
                .try_run(&trace)
                .expect("analyzes");
                assert!(
                    fixed.fixes.is_none(),
                    "race_free emitted a fixes section with the flag on"
                );
            }
            "budget_truncated" => assert!(
                metrics.pairing.pairs_budget_dropped > 0,
                "budget case dropped no pairs"
            ),
            "memory_budget_evicted" => assert!(
                report.stats.sim.memory_budget_hit,
                "memory-budget case never hit the budget"
            ),
            _ => {}
        }
    }
}

/// The streaming tentpole contract on the whole committed corpus: feeding
/// a case's bytes through the chunked [`Analyzer::try_run_stream`] path
/// produces the *same masked JSON* as the in-memory decode-then-analyze
/// path, at every pinned thread count.
///
/// The `interrupted` case is excluded by design: a pre-set interrupt flag
/// stops streaming *ingest* before the first chunk (that is the point of
/// cooperative cancellation), while the batch path has the whole trace in
/// hand before pairing sees the flag — the two paths legitimately cover
/// different prefixes.
#[test]
fn golden_cases_stream_bit_identical_to_batch() {
    for case in analysis_cases() {
        if case.name == "interrupted" {
            continue;
        }
        for threads in [1usize, 2, 8] {
            let batch = run_case(&case, threads);
            let analyzer = Analyzer::new(case.cfg.clone()).threads(threads);
            let mut streamed = analyzer
                .try_run_stream(std::io::Cursor::new(case.bytes.clone()))
                .unwrap_or_else(|e| panic!("{}: streaming failed: {e}", case.name));
            // The streaming path has no trace in hand when pairing ends,
            // so fixes ride a second pass — exactly what `hawkset analyze`
            // and the serve worker do — and must land on the same bytes.
            if case.cfg.suggest_fixes {
                let trace = io::decode(&case.bytes).expect("decodable");
                analyzer.attach_fixes(&trace, &mut streamed);
            }
            assert_eq!(
                masked_json(streamed),
                batch,
                "{}: streamed report diverged from batch at {} threads",
                case.name,
                threads
            );
        }
    }
}

/// The crashtest golden: `CampaignMetrics` derived from a canonical
/// hand-built two-round record (one clean round, one round that timed out
/// twice before being recorded), with wall-clock timing masked.
#[test]
fn golden_campaign_metrics_are_pinned() {
    let cfg = CrashCampaignConfig {
        rounds: 2,
        crash_points: 3,
        main_ops: 60,
        seed: 5,
        max_retries: 2,
        ..Default::default()
    };
    let result = CrashCampaignResult {
        records: vec![
            RoundRecord {
                round: 0,
                outcome: RoundOutcome::Ok,
                retries: 0,
                crash_points: vec![7, 21, 40],
                op_horizon: 60,
                images_captured: 3,
                attributed: Vec::new(),
                duration_ms: 12,
                coverage: Vec::new(),
                plan: None,
            },
            RoundRecord {
                round: 1,
                outcome: RoundOutcome::TimedOut,
                retries: 2,
                crash_points: vec![15],
                op_horizon: 60,
                images_captured: 1,
                attributed: Vec::new(),
                duration_ms: 61,
                coverage: Vec::new(),
                plan: None,
            },
        ],
        executed_this_run: 2,
        resumed_from_checkpoint: false,
        duration: Duration::from_millis(90),
    };
    let mut metrics = result.metrics(&cfg);
    assert!(metrics.conservation_violations().is_empty());
    // Mask wall-clock; keep backoff_ms_total, which is reconstructed from
    // the supervisor's deterministic schedule, `Backoff::DEFAULT`
    // (50 + 100 = 150).
    metrics.timing.total_ms = 0.0;
    metrics.timing.round_ms_total = 0;
    assert_eq!(metrics.timing.backoff_ms_total, 150);
    let json = metrics.to_json();
    check_or_update("crashtest_round.expected.json", json.as_bytes());
    // And the pin is machine-readable: it parses back to the same value.
    let back: CampaignMetrics = serde_json::from_str(&json).expect("golden JSON parses");
    assert_eq!(back, metrics);
}
