//! Streaming-analysis equivalence and fault-injection suite.
//!
//! The contract under test: `Analyzer::try_run_stream` over any `Read`
//! source is *bit-identical* to the in-memory batch pipeline on the same
//! bytes — for every chunk size, read granularity, and thread count — and
//! under injected I/O faults or byte corruption it either produces exactly
//! the report the batch pipeline produces for the salvageable prefix, or
//! fails with a typed error. It never panics and never hangs.

use std::io::Cursor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hawkset::core::addr::AddrRange;
use hawkset::core::analysis::checkpoint::{AnalysisCheckpoint, CheckpointSession};
use hawkset::core::analysis::{
    AnalysisBudget, AnalysisConfig, AnalysisReport, Analyzer, Strictness,
};
use hawkset::core::faults::{apply, FaultRng, IoFaultReader, TrickleReader};
use hawkset::core::trace::io;
use hawkset::core::trace::{
    Event, EventKind, Frame, LockId, LockMode, ThreadId, Trace, TraceBuilder,
};
use proptest::prelude::*;

/// A multi-thread racy trace: three workers storing/loading overlapping
/// ranges with a mix of locked and unlocked accesses, flushes, and fences —
/// enough structure that the pairing stage produces real races to compare.
fn racy_trace() -> Trace {
    let mut b = TraceBuilder::new();
    let stacks: Vec<_> = (0..4u32)
        .map(|t| b.intern_stack([Frame::new(format!("worker{t}"), "app.c", 10 + t)]))
        .collect();
    for t in 1..4u32 {
        b.push(
            ThreadId(0),
            stacks[0],
            EventKind::ThreadCreate { child: ThreadId(t) },
        );
    }
    let lock = LockId(0xa0);
    for round in 0..12u64 {
        let range = AddrRange::new(0x1000 + (round % 4) * 64, 8);
        let writer = ThreadId((round % 3 + 1) as u32);
        let reader = ThreadId(((round + 1) % 3 + 1) as u32);
        let locked = round % 3 == 0;
        if locked {
            b.push(
                writer,
                stacks[writer.0 as usize],
                EventKind::Acquire {
                    lock,
                    mode: LockMode::Exclusive,
                },
            );
        }
        b.push(
            writer,
            stacks[writer.0 as usize],
            EventKind::Store {
                range,
                non_temporal: round % 5 == 0,
                atomic: false,
            },
        );
        if locked {
            b.push(
                writer,
                stacks[writer.0 as usize],
                EventKind::Release { lock },
            );
        }
        b.push(
            reader,
            stacks[reader.0 as usize],
            EventKind::Load {
                range,
                atomic: false,
            },
        );
        if round % 4 == 3 {
            b.push(
                writer,
                stacks[writer.0 as usize],
                EventKind::Flush { addr: range.start },
            );
            b.push(writer, stacks[writer.0 as usize], EventKind::Fence);
        }
    }
    for t in 1..4u32 {
        b.push(
            ThreadId(0),
            stacks[0],
            EventKind::ThreadJoin { child: ThreadId(t) },
        );
    }
    b.finish()
}

/// The racy trace with a semantically ill-formed event spliced in, so the
/// lenient quarantine path is live in every comparison.
fn racy_trace_ill_formed() -> Trace {
    let mut t = racy_trace();
    let bad = Event {
        seq: 0,
        tid: ThreadId(0),
        stack: t.events.get(0).stack,
        kind: EventKind::Release {
            lock: LockId(0xbad),
        },
    };
    t.events.insert(t.events.len() / 2, bad);
    t.events.reseq();
    t
}

fn config(strictness: Strictness, threads: usize) -> AnalysisConfig {
    AnalysisConfig {
        strictness,
        threads,
        budget: AnalysisBudget {
            max_candidate_pairs: Some(100_000),
            max_events: Some(100_000),
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Bit-identity: everything schedule-independent must match, including the
/// masked metrics (timing zeroed).
fn assert_identical(batch: &AnalysisReport, stream: &AnalysisReport, what: &str) {
    assert_eq!(batch.races, stream.races, "{what}: races");
    assert_eq!(batch.coverage, stream.coverage, "{what}: coverage");
    assert_eq!(batch.stats.sim, stream.stats.sim, "{what}: sim stats");
    assert_eq!(
        batch.stats.pairing, stream.stats.pairing,
        "{what}: pairing stats"
    );
    assert_eq!(
        batch.stats.quarantine, stream.stats.quarantine,
        "{what}: quarantine"
    );
    assert_eq!(
        batch.metrics.as_ref().map(|m| m.masked()),
        stream.metrics.as_ref().map(|m| m.masked()),
        "{what}: masked metrics"
    );
}

/// Like [`assert_identical`] but without the metrics comparison — used when
/// the streaming side legitimately carries salvage-loss counters the batch
/// side (fed an already-salvaged trace) cannot know about.
fn assert_same_analysis(batch: &AnalysisReport, stream: &AnalysisReport, what: &str) {
    assert_eq!(batch.races, stream.races, "{what}: races");
    assert_eq!(batch.coverage, stream.coverage, "{what}: coverage");
    assert_eq!(batch.stats.sim, stream.stats.sim, "{what}: sim stats");
    assert_eq!(
        batch.stats.pairing, stream.stats.pairing,
        "{what}: pairing stats"
    );
    assert_eq!(
        batch.stats.quarantine, stream.stats.quarantine,
        "{what}: quarantine"
    );
    assert!(
        stream
            .metrics
            .as_ref()
            .expect("stream metrics")
            .conservation_violations()
            .is_empty(),
        "{what}: stream conservation laws"
    );
}

/// Reads served one to seven bytes at a time still produce a report
/// bit-identical to the batch pipeline, in both strictness modes.
#[test]
fn trickle_reads_are_bit_identical_to_batch() {
    for (strictness, trace) in [
        (Strictness::Strict, racy_trace()),
        (Strictness::Lenient, racy_trace_ill_formed()),
    ] {
        let raw = io::encode(&trace).to_vec();
        let analyzer = Analyzer::new(config(strictness, 2));
        let batch = analyzer.try_run(&trace).expect("batch run");
        for trickle in 1..8usize {
            let reader = TrickleReader::new(Cursor::new(raw.clone()), trickle);
            let stream = analyzer
                .try_run_stream(reader)
                .expect("trickled stream run");
            assert_identical(
                &batch,
                &stream,
                &format!("{strictness:?} trickle {trickle}"),
            );
        }
    }
}

/// A reader that dies mid-stream behaves exactly like a file truncated at
/// the failure point: in lenient mode the streamed report equals the batch
/// report over `decode_lossy` of the served prefix, byte for byte of the
/// analysis; in strict mode both reject. Exhaustive over every cut.
#[test]
fn io_fault_at_every_cut_matches_lossy_prefix() {
    let trace = racy_trace();
    let raw = io::encode(&trace).to_vec();
    let lenient = Analyzer::new(config(Strictness::Lenient, 2));
    let mut salvaged_ok = 0usize;
    for fail_at in 0..=raw.len() {
        let reader = IoFaultReader::new(Cursor::new(raw.clone()), fail_at as u64);
        let streamed = lenient.try_run_stream(reader);
        let batched = io::decode_lossy(&raw[..fail_at])
            .map(|salvage| lenient.try_run(&salvage.trace).expect("batch of salvage"));
        match (streamed, batched) {
            (Ok(s), Ok(b)) => {
                assert_same_analysis(&b, &s, &format!("cut at {fail_at}"));
                salvaged_ok += 1;
            }
            (Err(_), Err(_)) => {} // cut inside the header/tables: both reject
            (s, b) => panic!(
                "cut at {fail_at}: stream {:?} but batch {:?}",
                s.map(|r| r.races.len()),
                b.map(|r| r.races.len())
            ),
        }
    }
    assert!(
        salvaged_ok > 10,
        "mid-event-stream faults must salvage analyzable prefixes (got {salvaged_ok})"
    );
}

/// Strict mode refuses a dying reader with a typed error — never a panic,
/// never a partial report presented as complete.
#[test]
fn io_fault_in_strict_mode_is_a_clean_error() {
    let trace = racy_trace();
    let raw = io::encode(&trace).to_vec();
    let strict = Analyzer::new(config(Strictness::Strict, 1));
    // `fail_at == len` also rejects: the fault fires on the read that
    // would otherwise observe EOF.
    for fail_at in 0..=raw.len() {
        let reader = IoFaultReader::new(Cursor::new(raw.clone()), fail_at as u64);
        let got = strict.try_run_stream(reader);
        assert!(
            got.is_err(),
            "strict stream must reject a reader that died at byte {fail_at}/{}",
            raw.len()
        );
    }
    // A fault armed past the last byte never fires: the decoder's final
    // zero-read observes EOF first.
    let reader = IoFaultReader::new(Cursor::new(raw.clone()), raw.len() as u64 + 1);
    let full = strict
        .try_run_stream(reader)
        .expect("fault after the last byte is unreachable");
    assert_identical(
        &strict.try_run(&trace).expect("batch"),
        &full,
        "fault beyond EOF",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any chunk size and thread count: streaming is bit-identical to batch.
    #[test]
    fn random_chunking_is_bit_identical(
        chunk in 1usize..256,
        threads in 1usize..5,
        strict in any::<bool>(),
    ) {
        let trace = if strict { racy_trace() } else { racy_trace_ill_formed() };
        let strictness = if strict { Strictness::Strict } else { Strictness::Lenient };
        let raw = io::encode(&trace).to_vec();
        let mut cfg = config(strictness, threads);
        cfg.stream.chunk_bytes = chunk;
        let analyzer = Analyzer::new(cfg);
        let batch = analyzer.try_run(&trace).expect("batch run");
        let stream = analyzer
            .try_run_stream(Cursor::new(raw))
            .expect("streamed run");
        assert_identical(&batch, &stream, &format!("chunk {chunk} t{threads}"));
    }

    /// Seeded corruption (bit flips, overwrites, varint bombs, truncation)
    /// fed through the streaming path agrees with `decode_lossy` + batch:
    /// both salvage the same analysis or both reject. Never a panic.
    #[test]
    fn corrupted_streams_match_batch_salvage(seed in any::<u64>()) {
        let raw = io::encode(&racy_trace()).to_vec();
        let mut rng = FaultRng::new(seed);
        let mut bytes = raw;
        for _ in 0..(1 + seed % 2) {
            let fault = rng.fault(bytes.len());
            bytes = apply(&bytes, fault);
        }
        let mut cfg = config(Strictness::Lenient, 2);
        cfg.stream.chunk_bytes = 1 + (seed % 96) as usize;
        let lenient = Analyzer::new(cfg);
        let streamed = lenient.try_run_stream(Cursor::new(bytes.clone()));
        let batched = io::decode_lossy(&bytes)
            .map(|salvage| lenient.try_run(&salvage.trace).expect("batch of salvage"));
        match (streamed, batched) {
            (Ok(s), Ok(b)) => assert_same_analysis(&b, &s, &format!("seed {seed:#x}")),
            (Err(_), Err(_)) => {}
            (s, b) => panic!(
                "seed {seed:#x}: stream {:?} but batch {:?}",
                s.map(|r| r.races.len()),
                b.map(|r| r.races.len())
            ),
        }
    }

    /// Allocation pressure (trickled reads) combined with a mid-stream I/O
    /// fault: the lenient pipeline still terminates with either a salvaged
    /// report whose conservation laws hold, or a typed error.
    #[test]
    fn trickle_plus_io_fault_never_panics(
        fail_at in 0u64..4096,
        trickle in 1usize..16,
    ) {
        let raw = io::encode(&racy_trace()).to_vec();
        let lenient = Analyzer::new(config(Strictness::Lenient, 1));
        let reader = TrickleReader::new(
            IoFaultReader::new(Cursor::new(raw), fail_at),
            trickle,
        );
        if let Ok(report) = lenient.try_run_stream(reader) {
            prop_assert!(report
                .metrics
                .as_ref()
                .expect("metrics")
                .conservation_violations()
                .is_empty());
        }
    }
}

/// Kept events per batch in the analyzer's pipelined ingest. The traces
/// below span at least three batches, and each fault sits past the first,
/// so it lands after a hand-off between the reading and the simulating
/// thread.
const BATCH_EVENTS: usize = 4096;

/// A generated well-formed trace of at least `events` events: `seed`
/// picks the worker count and an interleaving of stores, loads, flushes,
/// fences and balanced lock sections over a few cache lines, so pairing
/// finds real races.
fn big_trace(seed: u64, events: usize) -> Trace {
    let mut rng = FaultRng::new(seed);
    let mut b = TraceBuilder::new();
    let workers = 2 + rng.below(4) as u32;
    let stacks: Vec<_> = (0..=workers)
        .map(|t| b.intern_stack([Frame::new(format!("op{t}"), "big.c", t)]))
        .collect();
    for t in 1..=workers {
        b.push(
            ThreadId(0),
            stacks[0],
            EventKind::ThreadCreate { child: ThreadId(t) },
        );
    }
    let mut held: Vec<Option<LockId>> = vec![None; workers as usize + 1];
    let mut pushed = workers as usize;
    while pushed < events {
        let t = 1 + rng.below(workers as usize) as u32;
        let tid = ThreadId(t);
        let stack = stacks[t as usize];
        let range = AddrRange::new(0x1000 + rng.below(32) as u64 * 8, 8);
        let kind = match (rng.below(8), held[t as usize]) {
            (0, None) => {
                let lock = LockId(0xa0 + rng.below(2) as u64);
                held[t as usize] = Some(lock);
                EventKind::Acquire {
                    lock,
                    mode: LockMode::Exclusive,
                }
            }
            (0, Some(lock)) => {
                held[t as usize] = None;
                EventKind::Release { lock }
            }
            (1 | 2, _) => EventKind::Store {
                range,
                non_temporal: rng.below(9) == 0,
                atomic: false,
            },
            (3..=5, _) => EventKind::Load {
                range,
                atomic: false,
            },
            (6, _) => EventKind::Flush { addr: range.start },
            _ => EventKind::Fence,
        };
        b.push(tid, stack, kind);
        pushed += 1;
    }
    for t in 1..=workers {
        if let Some(lock) = held[t as usize] {
            b.push(ThreadId(t), stacks[t as usize], EventKind::Release { lock });
        }
        b.push(
            ThreadId(0),
            stacks[0],
            EventKind::ThreadJoin { child: ThreadId(t) },
        );
    }
    b.finish()
}

/// Runs `f` on a thread of its own and fails the test if it has not
/// returned within a minute, so a hung pipeline is a failure, not a hang.
fn within_a_minute<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)));
    });
    match rx.recv_timeout(std::time::Duration::from_secs(60)) {
        Ok(Ok(out)) => out,
        Ok(Err(panic)) => std::panic::resume_unwind(panic),
        Err(_) => panic!("{what}: no result within a minute"),
    }
}

/// A streamed run's outcome in comparable form: the error, or the masked
/// report JSON.
fn outcome(result: Result<AnalysisReport, hawkset::core::HawkSetError>) -> Result<String, String> {
    result
        .map(|mut r| {
            r.stats.duration = std::time::Duration::ZERO;
            r.metrics = r.metrics.map(|m| m.masked());
            r.to_json()
        })
        .map_err(|e| format!("{e:?}"))
}

/// Streams `bytes` through `reader` at one and at two threads under
/// `cfg`, and requires the same outcome; returns it.
fn same_at_one_and_two_threads<R: std::io::Read + Send + 'static>(
    what: &str,
    cfg: &AnalysisConfig,
    reader: impl Fn() -> R,
) -> Result<String, String> {
    let runs: Vec<_> = [1usize, 2]
        .into_iter()
        .map(|threads| {
            let analyzer = Analyzer::new(AnalysisConfig {
                threads,
                ..cfg.clone()
            });
            let reader = reader();
            within_a_minute(what, move || outcome(analyzer.try_run_stream(reader)))
        })
        .collect();
    assert_eq!(runs[0], runs[1], "{what}: one thread and two differ");
    runs[0].clone()
}

/// A reader that raises the interrupt flag once it has served `at` bytes:
/// a deterministic image of a signal arriving mid-stream.
struct InterruptAt<R> {
    inner: R,
    at: u64,
    served: u64,
    flag: Arc<AtomicBool>,
}

impl<R: std::io::Read> std::io::Read for InterruptAt<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.served += n as u64;
        if self.served >= self.at {
            self.flag.store(true, Ordering::Relaxed);
        }
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Traces of at least three batches, with a fault past the first:
    /// one thread and two give the same result, error or report, for a
    /// strict validation error, a corrupt byte, an I/O fault, a lenient
    /// salvage of a truncated stream with quarantined events, an
    /// interrupt, and a checkpoint session.
    #[test]
    fn faults_past_the_first_batch_match_at_one_and_two_threads(seed in any::<u64>()) {
        let trace = big_trace(seed, 4 * BATCH_EVENTS);
        let n = trace.events.len();
        prop_assert!(n >= 3 * BATCH_EVENTS);
        let raw = io::encode(&trace).to_vec();
        let len = raw.len();
        let mut rng = FaultRng::new(seed ^ 0x5eed);
        // Past the first batch's events and bytes alike.
        let late_event = BATCH_EVENTS + 1 + rng.below(n - BATCH_EVENTS - 1);
        let late_byte = len / 2 + rng.below(len / 2);
        let strict = config(Strictness::Strict, 1);
        let lenient = config(Strictness::Lenient, 1);

        // The clean trace streams to the batch report at both counts.
        let clean = same_at_one_and_two_threads("clean", &strict, || Cursor::new(raw.clone()));
        let batch = outcome(Analyzer::new(strict.clone()).try_run(&trace));
        prop_assert_eq!(&clean, &batch);

        // A strict validation error: a dangling release past the first
        // batch is rejected at its own index.
        let mut bad = trace.clone();
        let stack = bad.events.get(0).stack;
        let release = Event {
            seq: 0,
            tid: ThreadId(0),
            stack,
            kind: EventKind::Release { lock: LockId(0xbad) },
        };
        bad.events.insert(late_event, release);
        bad.events.reseq();
        let bad_raw = io::encode(&bad).to_vec();
        let rejected = same_at_one_and_two_threads("validation", &strict, || {
            Cursor::new(bad_raw.clone())
        });
        let expected = format!("DanglingRelease {{ index: {late_event},");
        prop_assert!(
            rejected.as_ref().is_err_and(|e| e.contains(&expected)),
            "expected {}, got {:?}", expected, rejected
        );
        // The lenient run quarantines the same event.
        let quarantined =
            same_at_one_and_two_threads("quarantine", &lenient, || Cursor::new(bad_raw.clone()));
        prop_assert!(quarantined.is_ok(), "lenient run failed: {:?}", quarantined);

        // A corrupt byte, strict and lenient: it lies among the events,
        // so a lenient run always salvages.
        let mut corrupt = raw.clone();
        corrupt[late_byte] ^= 0x80 | (seed as u8);
        for cfg in [&strict, &lenient] {
            let what = format!("corrupt byte {late_byte} {:?}", cfg.strictness);
            let got = same_at_one_and_two_threads(&what, cfg, || Cursor::new(corrupt.clone()));
            prop_assert!(got.is_ok() || cfg.strictness == Strictness::Strict, "{}", what);
        }

        // An I/O fault: strict rejects it, lenient salvages the prefix.
        for cfg in [&strict, &lenient] {
            let what = format!("I/O fault at {late_byte} {:?}", cfg.strictness);
            let got = same_at_one_and_two_threads(&what, cfg, || {
                IoFaultReader::new(Cursor::new(raw.clone()), late_byte as u64)
            });
            prop_assert_eq!(got.is_ok(), cfg.strictness == Strictness::Lenient, "{}", what);
        }

        // Lenient salvage: a stream cut short, with quarantined events.
        let cut = bad_raw[..late_byte.min(bad_raw.len() - 1)].to_vec();
        let salvaged = same_at_one_and_two_threads("salvage", &lenient, || Cursor::new(cut.clone()));
        prop_assert!(salvaged.is_ok(), "lenient salvage failed: {:?}", salvaged);

        // An interrupt raised mid-stream stops ingest at the same event.
        let interrupted = {
            let flag = Arc::new(AtomicBool::new(false));
            let mut cfg = strict.clone();
            cfg.interrupt = Some(Arc::clone(&flag));
            cfg.stream.chunk_bytes = 4096;
            let at = late_byte as u64;
            same_at_one_and_two_threads("interrupt", &cfg, || {
                flag.store(false, Ordering::Relaxed);
                InterruptAt { inner: Cursor::new(raw.clone()), at, served: 0, flag: Arc::clone(&flag) }
            })
        };
        let report: serde_json::Value =
            serde_json::from_str(&interrupted.expect("an interrupted run still reports")).unwrap();
        let coverage = &report["coverage"];
        prop_assert_eq!(coverage["reason"].as_str(), Some("interrupted"));
        let analyzed = coverage["events_analyzed"].as_u64().unwrap();
        prop_assert!(analyzed > BATCH_EVENTS as u64 && analyzed < n as u64, "stopped at {}", analyzed);

        // A checkpoint session records the same ingest at both counts.
        let dir = std::env::temp_dir().join(format!("hwk-batches-{}-{seed:x}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut records = Vec::new();
        for threads in [1usize, 2] {
            let path = dir.join(format!("t{threads}.ckpt"));
            let session = Arc::new(CheckpointSession::new(path.clone(), "fp".into(), "test".into(), Some(1000)));
            let mut cfg = lenient.clone();
            cfg.threads = threads;
            cfg.stream.checkpoint = Some(Arc::clone(&session));
            let analyzer = Analyzer::new(cfg);
            let reader = Cursor::new(cut.clone());
            let report = within_a_minute("checkpoint", move || outcome(analyzer.try_run_stream(reader)));
            prop_assert!(session.take_error().is_none());
            let ck = AnalysisCheckpoint::load(&path).expect("checkpoint readable");
            records.push((report, ck.phase, ck.ingest));
        }
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(&records[0], &records[1]);
        prop_assert_eq!(records[0].1.as_str(), "done");
    }
}
