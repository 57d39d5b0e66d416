//! The library's front door: [`Analyzer`] owns an [`AnalysisConfig`] and
//! runs the full pipeline (simulation → IRH → sharded pairing) or its
//! pairing stage alone. Every knob, the streaming-ingest options
//! ([`StreamConfig`]) included, lives on the configuration.
//!
//! One private driver runs every entry point. Its ingest has two sides. A
//! producer reads events from a source, either a decoded trace's columns
//! ([`Analyzer::try_run`]) or a [`StreamDecoder`]
//! ([`Analyzer::try_run_stream`]), checks and counts each one, and fills
//! fixed-size batches with the kept ones. One consumer feeds the batches,
//! in order, to one incremental simulator. With more than one thread the
//! consumer runs on a worker of its own while the producer keeps the
//! calling thread ([`parallel::pipeline`]); otherwise both run inline. A
//! trusted in-memory run ([`Analyzer::run`]) has nothing to check, and the
//! consumer reads its columns in place. Then the driver pairs, sets the
//! coverage reasons and ingest metrics, and seals. So batch and streamed
//! runs differ only in where the events come from. Two things stay with
//! the source: only a stream sees [`AnalysisConfig::interrupt`] between
//! events (an in-memory run sees it at pairing), and only a stream records
//! checkpoint progress.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::error::HawkSetError;
use crate::memsim::{AccessSet, StreamSimulator};
use crate::obs::{MetricsRegistry, MetricsSnapshot, ObsHook, Stage};
use crate::parallel;
use crate::trace::stream::{StreamDecoder, StreamOptions, DEFAULT_CHUNK_BYTES};
use crate::trace::validate::StreamValidator;
use crate::trace::{EventColumns, EventsView, Trace, TraceView};

use super::checkpoint::{self, AnalysisCheckpoint, CheckpointSession, IngestProgress};
use super::engine::{PairingControls, ShardOutput};
use super::{
    engine, quarantine, repair, AnalysisConfig, AnalysisReport, BudgetExceeded, QuarantineFilter,
    QuarantineStats, Strictness,
};

/// Kept events per batch when ingest is pipelined. Each hand-off may wake
/// the other thread, so batches are large.
const BATCH_EVENTS: usize = 4096;

/// Batches in circulation when ingest is pipelined: one filling, one
/// queued, one being simulated. A row takes 29 bytes, so about 348 KiB of
/// events are in flight.
const BATCHES: usize = 3;

/// Kept events in the one batch of inline ingest, about 7 KiB: with no
/// hand-off to amortize, it stays small.
const INLINE_BATCH_EVENTS: usize = 256;

/// Configured analysis pipeline.
///
/// Every entry point runs the same driver over a different event source,
/// so a trace gives the same report whichever way it arrives. Only
/// [`try_run_stream`](Self::try_run_stream) checks
/// [`AnalysisConfig::interrupt`] between events; the in-memory entry
/// points see it at pairing.
///
/// ```
/// use hawkset_core::analysis::{AnalysisConfig, Analyzer};
/// use hawkset_core::trace::TraceBuilder;
///
/// let analyzer = Analyzer::new(AnalysisConfig::default()).threads(2);
/// let report = analyzer.run(&TraceBuilder::new().finish());
/// assert!(report.is_clean());
/// let metrics = analyzer.metrics().expect("run() records a snapshot");
/// assert!(metrics.conservation_violations().is_empty());
/// ```
#[derive(Default)]
pub struct Analyzer {
    cfg: AnalysisConfig,
    hooks: Vec<Arc<dyn ObsHook>>,
    /// Snapshot of the most recent run, shared across clones of the
    /// cheaply-cloneable facade.
    last_metrics: Arc<Mutex<Option<MetricsSnapshot>>>,
}

impl Clone for Analyzer {
    /// Clones share the hook list and the last-metrics slot.
    fn clone(&self) -> Self {
        Self {
            cfg: self.cfg.clone(),
            hooks: self.hooks.clone(),
            last_metrics: Arc::clone(&self.last_metrics),
        }
    }
}

impl std::fmt::Debug for Analyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Analyzer")
            .field("cfg", &self.cfg)
            .field("hooks", &self.hooks.len())
            .finish_non_exhaustive()
    }
}

impl Analyzer {
    /// An analyzer over an explicit configuration.
    pub fn new(cfg: AnalysisConfig) -> Self {
        Self {
            cfg,
            hooks: Vec::new(),
            last_metrics: Arc::new(Mutex::new(None)),
        }
    }

    /// Sets the worker-thread count for the parallel stages (`0` = use
    /// [`std::thread::available_parallelism`]). Reports are bit-identical
    /// for every value; this knob trades wall-clock for cores only.
    pub fn threads(mut self, n: usize) -> Self {
        self.cfg.threads = n;
        self
    }

    /// See [`AnalysisConfig::suggest_fixes`]: compute replay-validated
    /// repair suggestions and attach them as the report's optional
    /// `fixes` section.
    pub fn suggest_fixes(mut self, on: bool) -> Self {
        self.cfg.suggest_fixes = on;
        self
    }

    /// Subscribes a tracing hook to every subsequent run: stage
    /// start/end callbacks (with wall-clock durations) and the final
    /// counter flush. Hooks run inline on the pipeline thread.
    pub fn hook(mut self, hook: Arc<dyn ObsHook>) -> Self {
        self.hooks.push(hook);
        self
    }

    /// The configuration this analyzer runs with.
    pub fn config(&self) -> &AnalysisConfig {
        &self.cfg
    }

    /// The metrics snapshot of the most recent [`run`](Self::run) /
    /// [`try_run`](Self::try_run) / [`run_pairing`](Self::run_pairing) on
    /// this analyzer (or any clone of it); `None` before the first run.
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.last_metrics.lock().unwrap().clone()
    }

    fn registry(&self) -> MetricsRegistry {
        MetricsRegistry::with_hooks(self.hooks.clone())
    }

    /// Flushes `reg` into a frozen snapshot, stores it as the analyzer's
    /// last-run metrics and attaches it to `report`.
    fn seal_metrics(&self, reg: &MetricsRegistry, report: &mut AnalysisReport) {
        let snapshot = reg.flush();
        *self.last_metrics.lock().unwrap() = Some(snapshot.clone());
        report.metrics = Some(snapshot);
    }

    /// Runs the full pipeline on a trace assumed well-formed
    /// (builder-produced or validated). For traces of unknown provenance
    /// use [`Analyzer::try_run`], which honors
    /// [`AnalysisConfig::strictness`].
    pub fn run(&self, trace: &Trace) -> AnalysisReport {
        // Nothing past the event cap is analyzed, and with no check to run
        // nothing past it is read.
        let cap = self
            .cfg
            .budget
            .max_events
            .map_or(usize::MAX, |m| usize::try_from(m).unwrap_or(usize::MAX));
        let mut src = Columns::new(trace, trace.events.prefix(cap));
        self.drive(&mut src, None, PairingControls::default(), Some(trace))
            .expect("an unchecked in-memory run has nothing to fail on")
    }

    /// Runs the pipeline with up-front strictness handling.
    ///
    /// Under [`Strictness::Strict`] an ill-formed trace is rejected with a
    /// typed [`HawkSetError::Validate`]. Under [`Strictness::Lenient`] the
    /// ill-formed events are [quarantined](quarantine) — counted per
    /// category in [`PipelineStats::quarantine`] and in the metrics'
    /// `ingest.events_quarantined` (keeping the ingest conservation law
    /// exact over the *original* event count) — and the remaining
    /// well-formed majority is analyzed normally.
    ///
    /// [`PipelineStats::quarantine`]: super::PipelineStats::quarantine
    pub fn try_run(&self, trace: &Trace) -> Result<AnalysisReport, HawkSetError> {
        let mut src = Columns::new(trace, trace.events.view());
        self.drive(
            &mut src,
            Some(self.cfg.strictness),
            PairingControls::default(),
            Some(trace),
        )
    }

    /// Runs the full pipeline over a **streamed** `.hwkt` trace from any
    /// [`Read`](std::io::Read) source — a file or stdin — without ever
    /// materializing the event vector. Memory held is the interning
    /// tables, one refill chunk, the batches of decoded events in flight
    /// (three of 4,096 events, about 348 KiB, or one of 256 when
    /// [`AnalysisConfig::threads`] is 1) and the live simulation state
    /// (itself bounded by [`AnalysisBudget::memory_budget`]).
    ///
    /// Unless `threads` is 1, ingest takes two threads: the calling thread
    /// reads, decodes and checks, and one simulator thread simulates. The
    /// reader is never moved off the calling thread, so it need not be
    /// `Send` (a locked stdin works).
    ///
    /// The report is **bit-identical** to [`try_run`](Self::try_run) on
    /// the batch-decoded trace: the decoder yields the same events
    /// ([`StreamDecoder`] equivalence), and from there both runs share the
    /// one driver.
    ///
    /// The streaming-ingest knobs — chunk size, checkpointing and resume —
    /// live on [`AnalysisConfig::stream`] ([`StreamConfig`]). A cooperative
    /// [`AnalysisConfig::interrupt`] stops the run between events or shards
    /// and finalizes a partial report marked
    /// [`BudgetExceeded::Interrupted`]. The report carries no `fixes`:
    /// call [`attach_fixes`](Self::attach_fixes) with the decoded trace.
    ///
    /// ```
    /// use std::io::Cursor;
    /// use hawkset_core::analysis::{AnalysisConfig, Analyzer, StreamConfig};
    /// use hawkset_core::trace::{io, TraceBuilder};
    ///
    /// let raw = io::encode(&TraceBuilder::new().finish()).to_vec();
    /// let analyzer = Analyzer::new(AnalysisConfig {
    ///     stream: StreamConfig {
    ///         chunk_bytes: 4096,
    ///         ..Default::default()
    ///     },
    ///     ..Default::default()
    /// });
    /// let report = analyzer.try_run_stream(Cursor::new(raw)).unwrap();
    /// assert!(report.is_clean());
    /// ```
    ///
    /// [`AnalysisBudget::memory_budget`]: super::AnalysisBudget::memory_budget
    pub fn try_run_stream<R: std::io::Read>(
        &self,
        reader: R,
    ) -> Result<AnalysisReport, HawkSetError> {
        self.try_run_stream_with_header(reader)
            .map(|(report, _)| report)
    }

    /// [`try_run_stream`](Self::try_run_stream), additionally returning the
    /// decoded header trace (thread count, PM regions and the full stack
    /// table; empty event vector). Streaming callers that want to *render*
    /// the report need the stack table, and the stream is the only place it
    /// exists — there is no in-memory trace to pass to
    /// [`AnalysisReport::render`].
    pub fn try_run_stream_with_header<R: std::io::Read>(
        &self,
        reader: R,
    ) -> Result<(AnalysisReport, Trace), HawkSetError> {
        let checkpoint = self.cfg.stream.checkpoint.as_deref();
        let resume = self.cfg.stream.resume.as_deref();
        let dec = StreamDecoder::new(
            reader,
            StreamOptions {
                chunk_bytes: self.cfg.stream.effective_chunk(),
                lossy: self.cfg.strictness == Strictness::Lenient,
            },
        )?;
        let declared = dec.declared_events();
        if let Some(prior) = resume {
            prior.validate_resume(&checkpoint::config_fingerprint(&self.cfg), declared)?;
        }
        if let Some(ck) = checkpoint {
            ck.set_declared_events(declared);
        }
        let resume_map = resume.map(AnalysisCheckpoint::shard_outputs);
        let on_shard =
            checkpoint.map(|ck| move |s: usize, out: &ShardOutput| ck.record_shard(s, out));
        let controls = PairingControls {
            resume: resume_map.as_ref(),
            on_shard: on_shard
                .as_ref()
                .map(|f| f as &(dyn Fn(usize, &ShardOutput) + Sync)),
        };
        let mut src = Stream {
            dec,
            checkpoint,
            interrupt: self.cfg.interrupt.as_deref(),
        };
        let report = self.drive(&mut src, Some(self.cfg.strictness), controls, None)?;
        // An interrupted run leaves its phase as it stopped: it has work
        // left to resume.
        if let Some(ck) = checkpoint {
            if report.coverage.reason != Some(BudgetExceeded::Interrupted) {
                ck.set_phase("done");
            }
        }
        Ok((report, src.dec.into_parts().0))
    }

    /// The one driver behind every entry point.
    ///
    /// Ingest reads `src` event by event and checks each one: it is
    /// validated (`Strict`) or quarantined if ill-formed (`Lenient`). A
    /// trusted run (`None`, [`run`](Self::run)) checks nothing, and the
    /// simulator reads the source's columns in place. The first
    /// [`AnalysisBudget::max_events`] kept events go to one simulator.
    /// Then come the pairing, the coverage reasons, the ingest metrics and,
    /// when `fixes` names the analyzed trace, the repair suggestions.
    ///
    /// [`AnalysisBudget::max_events`]: super::AnalysisBudget::max_events
    fn drive<S: Source>(
        &self,
        src: &mut S,
        strictness: Option<Strictness>,
        controls: PairingControls<'_>,
        fixes: Option<&Trace>,
    ) -> Result<AnalysisReport, HawkSetError> {
        let reg = self.registry();
        let started = Instant::now();
        let total_stage = reg.stage(Stage::Total);
        let header = src.header();
        let mut sim = StreamSimulator::new(
            header.thread_count,
            header.regions.clone(),
            &self.cfg.sim_config(),
        );
        if fixes.is_some() && self.cfg.suggest_fixes && repair::logs_for_repair(&self.cfg) {
            sim.log_for_repair();
        }
        let Ingest {
            access,
            quarantine: quarantine_stats,
            interrupted,
            n,
        } = {
            let _stage = reg.stage(Stage::Simulate);
            match strictness {
                None => {
                    let events = src
                        .in_memory()
                        .expect("only `run`, over a trace in memory, trusts its events");
                    simulate(&mut sim, events);
                    let n = events.len() as u64;
                    Ingest {
                        access: sim.finish(),
                        quarantine: QuarantineStats::default(),
                        interrupted: false,
                        n: IngestProgress {
                            events_decoded: n,
                            events_kept: n,
                            events_analyzed: n,
                            ..IngestProgress::default()
                        },
                    }
                }
                Some(strictness) => self.ingest(src, strictness, sim, &reg)?,
            }
        };
        let end = src.end(&n);
        let decoded = n.events_decoded + end.unread;
        let kept = n.events_kept + end.unread;
        let analyzed = n.events_analyzed;
        reg.ingest.events_decoded.set(decoded);
        reg.ingest.events_analyzed.set(analyzed);
        reg.ingest.events_truncated.set(kept - analyzed);
        reg.ingest.events_quarantined.set(quarantine_stats.total());
        reg.ingest.events_salvage_dropped.set(end.dropped_events);
        reg.ingest.bytes_salvage_dropped.set(end.dropped_bytes);
        reg.record_sim(&access.stats);

        let mut report = engine::run_pairing_controlled(
            &src.header().stacks,
            &access,
            &self.cfg,
            &reg,
            controls,
        );
        report.stats.sim = access.stats.clone();
        report.stats.quarantine = quarantine_stats;
        report.coverage.events_analyzed = analyzed;
        // Interrupted ingest never learned the true total; the header's
        // declared count is the best available denominator.
        report.coverage.events_total = if interrupted {
            end.declared.max(kept)
        } else {
            kept
        };
        if analyzed < report.coverage.events_total {
            report.coverage.truncated = true;
            report.coverage.reason = Some(BudgetExceeded::Events);
        }
        // Memory-budget degradation outranks the event cap: evicted
        // simulation state silently removes pairs from *every* later stage,
        // which is the caveat the report must lead with.
        if access.stats.memory_budget_hit {
            report.coverage.truncated = true;
            report.coverage.reason = Some(BudgetExceeded::MemoryBudget);
        }
        if interrupted {
            report.coverage.truncated = true;
            report.coverage.reason = Some(BudgetExceeded::Interrupted);
        }
        if let Some(trace) = fixes {
            let quarantined = strictness == Some(Strictness::Lenient);
            self.suggest_into(trace, quarantined, Some(access), &mut report);
        }
        drop(total_stage);
        report.stats.duration = started.elapsed();
        self.seal_metrics(&reg, &mut report);
        Ok(report)
    }

    /// Ingest with a producer: the calling thread reads and checks `src`
    /// into batches, and [`simulate`] steps `sim` through them, on a
    /// thread of its own unless [`AnalysisConfig::threads`] is 1. A
    /// stream's producer time, without its waits for a free batch, is the
    /// run's decode stage.
    fn ingest<S: Source>(
        &self,
        src: &mut S,
        strictness: Strictness,
        sim: StreamSimulator,
        reg: &MetricsRegistry,
    ) -> Result<Ingest, HawkSetError> {
        let header = src.header();
        let (threads, stacks) = (header.thread_count, header.stacks.stack_count());
        let mut producer = Producer {
            src,
            check: match strictness {
                Strictness::Strict => Check::Strict(StreamValidator::new(threads, stacks)),
                Strictness::Lenient => Check::Lenient(QuarantineFilter::new(threads, stacks)),
            },
            cap: self.cfg.budget.max_events.unwrap_or(u64::MAX),
            n: IngestProgress::default(),
            done: false,
            interrupted: false,
            busy: Duration::ZERO,
        };
        let threaded = parallel::effective_threads(self.cfg.threads) > 1;
        let (count, rows) = if threaded {
            (BATCHES, BATCH_EVENTS)
        } else {
            (1, INLINE_BATCH_EVENTS)
        };
        let batches = (0..count)
            .map(|_| EventColumns::with_capacity(rows))
            .collect();
        let sim = parallel::pipeline(
            threaded,
            batches,
            sim,
            |batch| producer.fill(batch),
            |sim, batch| {
                simulate(sim, batch.view());
                batch.clear();
            },
        )?;
        if S::DECODES {
            reg.record_stage_duration(Stage::Decode, producer.busy);
        }
        let Producer {
            check,
            n,
            interrupted,
            ..
        } = producer;
        let quarantine = match check {
            // An interrupted run never saw the end it would validate.
            Check::Strict(v) if !interrupted => {
                v.finish()?;
                QuarantineStats::default()
            }
            Check::Strict(_) => QuarantineStats::default(),
            Check::Lenient(f) => f.into_stats(),
        };
        Ok(Ingest {
            access: sim.finish(),
            quarantine,
            interrupted,
            n,
        })
    }

    /// Computes repair suggestions for an already-analyzed report and
    /// attaches them as the optional `fixes` section — the entry point for
    /// callers that analyzed a *stream* (which retains no event vector to
    /// replay) and still hold the trace bytes. The in-memory entry points
    /// attach fixes themselves.
    ///
    /// `trace` must be the same input the report was computed from: the
    /// analyzed events are re-derived with the run's own strictness and
    /// the report's `events_analyzed`, so suggestions are bit-identical to
    /// the in-memory path's. The rules of
    /// [`AnalysisConfig::suggest_fixes`] apply as on every path.
    pub fn attach_fixes(&self, trace: &Trace, report: &mut AnalysisReport) {
        let quarantined = self.cfg.strictness == Strictness::Lenient;
        self.suggest_into(trace, quarantined, None, report);
    }

    /// The one place fixes are made. A no-op when
    /// [`AnalysisConfig::suggest_fixes`] is off, the report is clean, or
    /// the run was interrupted: a schedule-dependent partial report has no
    /// stable witnesses to replay. Otherwise the analyzed events are the
    /// first `events_analyzed` of `trace`, after the lenient quarantine
    /// when `quarantined`, and `access` is their simulation if the caller
    /// still holds it.
    fn suggest_into(
        &self,
        trace: &Trace,
        quarantined: bool,
        access: Option<AccessSet>,
        report: &mut AnalysisReport,
    ) {
        if !self.cfg.suggest_fixes
            || report.races.is_empty()
            || report.coverage.reason == Some(BudgetExceeded::Interrupted)
        {
            return;
        }
        let kept;
        let base = if quarantined {
            kept = quarantine(trace).0;
            &kept
        } else {
            trace
        };
        let analyzed = usize::try_from(report.coverage.events_analyzed).unwrap_or(usize::MAX);
        let view = TraceView::prefix(base, analyzed);
        let access = access.unwrap_or_else(|| repair::simulate_for_repair(&view, &self.cfg));
        let fixes = repair::suggest(&view, access, &report.races, &self.cfg);
        if !fixes.is_empty() {
            report.fixes = Some(repair::FixReport::new(fixes));
        }
    }

    /// Runs stage 3 (the sharded pairing) alone over a precomputed
    /// [`AccessSet`] — the benchmarking entry point. The report carries
    /// pairing stats, coverage and a pairing-only metrics snapshot
    /// (simulation counters reflect the provided access set; event
    /// coverage and duration stay at their defaults).
    pub fn run_pairing(&self, trace: &Trace, access: &AccessSet) -> AnalysisReport {
        let reg = self.registry();
        reg.record_sim(&access.stats);
        let mut report = engine::run_pairing(&trace.stacks, access, &self.cfg, &reg);
        self.seal_metrics(&reg, &mut report);
        report
    }
}

/// The one consumer: steps the simulator through `events`, in order.
fn simulate(sim: &mut StreamSimulator, events: EventsView<'_>) {
    for ev in events.iter() {
        sim.step(&ev);
    }
}

/// What ingest hands the rest of the driver.
struct Ingest {
    access: AccessSet,
    quarantine: QuarantineStats,
    interrupted: bool,
    n: IngestProgress,
}

/// How the producer checks each event it reads.
enum Check {
    /// Reject the run at the first ill-formed event.
    Strict(StreamValidator),
    /// Drop the ill-formed events and count them.
    Lenient(QuarantineFilter),
}

/// The reading side of ingest. It reads the source, checks and counts
/// every event, records checkpoint progress, watches the interrupt, and
/// keeps in each batch the events the simulator is to see.
struct Producer<'s, S> {
    src: &'s mut S,
    check: Check,
    /// [`AnalysisBudget::max_events`](super::AnalysisBudget::max_events):
    /// kept events past it are counted, not simulated.
    cap: u64,
    n: IngestProgress,
    /// The source ran dry or the interrupt stopped ingest.
    done: bool,
    interrupted: bool,
    /// Time spent filling batches.
    busy: Duration,
}

impl<S: Source> Producer<'_, S> {
    /// Fills `batch`, up to its capacity, with events for the simulator.
    /// Returns whether more may follow.
    fn fill(&mut self, batch: &mut EventColumns) -> Result<bool, HawkSetError> {
        let started = Instant::now();
        while !self.done && batch.len() < batch.capacity() {
            if !self.src.next_into(batch)? {
                self.done = true;
                break;
            }
            self.n.events_decoded += 1;
            let row = batch.len() - 1;
            let keep = match &mut self.check {
                Check::Strict(v) => {
                    v.push(&batch.get(row))?;
                    true
                }
                Check::Lenient(f) => {
                    // Kept events are re-sequenced densely, as
                    // `quarantine` does.
                    batch.set_seq(row, self.n.events_kept);
                    f.admit(&batch.get(row))
                }
            };
            if keep && self.n.events_kept < self.cap {
                self.n.events_analyzed += 1;
            } else {
                batch.truncate(row);
            }
            self.n.events_kept += u64::from(keep);
            if self.src.after_event(&self.n) {
                (self.done, self.interrupted) = (true, true);
            }
        }
        self.busy += started.elapsed();
        Ok(!self.done)
    }
}

/// What a source reports once ingest has stopped.
#[derive(Default)]
struct SourceEnd {
    /// Events the source holds but never yielded: an unchecked in-memory
    /// run's events past the cap. They count as decoded and truncated.
    unread: u64,
    /// The event count the trace declares.
    declared: u64,
    /// Salvage loss: events declared but not decoded.
    dropped_events: u64,
    /// Salvage loss: bytes not turned into events.
    dropped_bytes: u64,
}

/// Where the driver's events come from.
trait Source {
    /// Whether reading the source decodes bytes: its producer time is then
    /// the run's decode stage.
    const DECODES: bool;
    /// The trace header: thread count, PM regions and stack table.
    fn header(&self) -> &Trace;
    /// The events to analyze, when they are already in memory: a trusted
    /// run simulates them in place.
    fn in_memory(&self) -> Option<EventsView<'_>>;
    /// Appends the next event, in trace order, to `rows`. `Ok(false)`
    /// means the source is exhausted.
    fn next_into(&mut self, rows: &mut EventColumns) -> Result<bool, HawkSetError>;
    /// Runs after each event is checked, with the counts so far. `true`
    /// stops ingest there, at an interrupt.
    fn after_event(&mut self, n: &IngestProgress) -> bool;
    /// Runs once ingest has stopped and the events it read are checked.
    fn end(&mut self, n: &IngestProgress) -> SourceEnd;
}

/// A decoded trace's columns. The whole trace is already in hand, so the
/// interrupt is left to the pairing.
struct Columns<'a> {
    trace: &'a Trace,
    events: EventsView<'a>,
    /// The next row to read.
    next: usize,
}

impl<'a> Columns<'a> {
    fn new(trace: &'a Trace, events: EventsView<'a>) -> Self {
        Self {
            trace,
            events,
            next: 0,
        }
    }
}

impl Source for Columns<'_> {
    const DECODES: bool = false;

    fn header(&self) -> &Trace {
        self.trace
    }

    fn in_memory(&self) -> Option<EventsView<'_>> {
        Some(self.events)
    }

    fn next_into(&mut self, rows: &mut EventColumns) -> Result<bool, HawkSetError> {
        let copied = self.events.copy_row(self.next, rows);
        self.next += usize::from(copied);
        Ok(copied)
    }

    fn after_event(&mut self, _: &IngestProgress) -> bool {
        false
    }

    fn end(&mut self, n: &IngestProgress) -> SourceEnd {
        let total = self.trace.events.len() as u64;
        SourceEnd {
            unread: total - n.events_decoded,
            declared: total,
            ..SourceEnd::default()
        }
    }
}

/// A `.hwkt` byte stream. It checks the interrupt between events and
/// records checkpoint progress at the session's cadence.
struct Stream<'a, R> {
    dec: StreamDecoder<R>,
    checkpoint: Option<&'a CheckpointSession>,
    interrupt: Option<&'a AtomicBool>,
}

impl<R: std::io::Read> Source for Stream<'_, R> {
    const DECODES: bool = true;

    fn header(&self) -> &Trace {
        self.dec.header()
    }

    fn in_memory(&self) -> Option<EventsView<'_>> {
        None
    }

    fn next_into(&mut self, rows: &mut EventColumns) -> Result<bool, HawkSetError> {
        self.dec.next_into(rows)
    }

    fn after_event(&mut self, n: &IngestProgress) -> bool {
        if let Some(ck) = self.checkpoint {
            if n.events_decoded.is_multiple_of(ck.every()) {
                ck.record_ingest(IngestProgress {
                    stream_offset: self.dec.offset(),
                    ..*n
                });
            }
        }
        self.interrupt.is_some_and(|i| i.load(Ordering::Relaxed))
    }

    fn end(&mut self, n: &IngestProgress) -> SourceEnd {
        let loss = self.dec.loss();
        if let Some(ck) = self.checkpoint {
            // The next undecoded byte. Where the stream ended, cleanly or
            // at a salvaged corruption, that is where its valid prefix
            // ends; after an interrupt it is where ingest stopped.
            ck.record_ingest(IngestProgress {
                stream_offset: self.dec.offset(),
                ..*n
            });
            ck.set_phase("pairing");
        }
        SourceEnd {
            unread: 0,
            declared: self.dec.declared_events(),
            dropped_events: loss.dropped_events,
            dropped_bytes: loss.dropped_bytes,
        }
    }
}

/// Streaming-ingest options, carried on [`AnalysisConfig::stream`]. The
/// default streams with the decoder's default chunk size and no
/// checkpointing. None of these knobs affect report *content* — they are
/// excluded from the checkpoint configuration fingerprint
/// ([`checkpoint::config_fingerprint`]).
#[derive(Clone, Debug, Default)]
pub struct StreamConfig {
    /// Refill granularity of the streaming decoder; `0` uses
    /// [`DEFAULT_CHUNK_BYTES`].
    pub chunk_bytes: usize,
    /// Checkpoint writer: ingest progress every
    /// [`CheckpointSession::every`] events, every finished cacheable
    /// pairing shard immediately.
    pub checkpoint: Option<Arc<CheckpointSession>>,
    /// A prior run's checkpoint: validated against this run's
    /// configuration and trace, then its finished shards are merged
    /// instead of re-executed.
    pub resume: Option<Arc<AnalysisCheckpoint>>,
}

impl StreamConfig {
    fn effective_chunk(&self) -> usize {
        if self.chunk_bytes == 0 {
            DEFAULT_CHUNK_BYTES
        } else {
            self.chunk_bytes
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::Cursor;
    use std::time::Duration;

    use super::*;
    use crate::addr::AddrRange;
    use crate::analysis::checkpoint::config_fingerprint;
    use crate::analysis::{AnalysisBudget, StallInjection};
    use crate::trace::io::encode;
    use crate::trace::{Event, EventKind, Frame, LockId, LockMode, ThreadId, TraceBuilder};

    /// A trace busy enough to spread window groups over several shards:
    /// two writer/reader address families, some locked and persisted, some
    /// racy, across four threads.
    fn busy_trace() -> Trace {
        busy_trace_n(24)
    }

    fn busy_trace_n(rounds: u64) -> Trace {
        let mut b = TraceBuilder::new();
        let st = b.intern_stack([Frame::new("writer", "w.rs", 1)]);
        let ld = b.intern_stack([Frame::new("reader", "r.rs", 2)]);
        for t in 1..4u32 {
            b.push(
                ThreadId(0),
                st,
                EventKind::ThreadCreate { child: ThreadId(t) },
            );
        }
        for round in 0..rounds {
            let x = AddrRange::new(0x1000 + round * 64, 8);
            let locked = round % 3 == 0;
            if locked {
                b.push(
                    ThreadId(0),
                    st,
                    EventKind::Acquire {
                        lock: LockId(1),
                        mode: LockMode::Exclusive,
                    },
                );
            }
            b.push(
                ThreadId(0),
                st,
                EventKind::Store {
                    range: x,
                    non_temporal: false,
                    atomic: false,
                },
            );
            if locked {
                b.push(ThreadId(0), st, EventKind::Release { lock: LockId(1) });
            }
            b.push(
                ThreadId(1 + (round % 3) as u32),
                ld,
                EventKind::Load {
                    range: x,
                    atomic: false,
                },
            );
            b.push(ThreadId(0), st, EventKind::Flush { addr: x.start });
            b.push(ThreadId(0), st, EventKind::Fence);
        }
        for t in 1..4u32 {
            b.push(
                ThreadId(0),
                st,
                EventKind::ThreadJoin { child: ThreadId(t) },
            );
        }
        b.finish()
    }

    /// Splices a dangling release in before the first store
    /// (lenient-mode fodder): every kept event after it is re-sequenced,
    /// the fixes' witnesses included.
    fn busy_trace_ill_formed() -> Trace {
        let mut t = busy_trace();
        let bad = Event {
            seq: 0,
            tid: ThreadId(0),
            stack: t.events.get(0).stack,
            kind: EventKind::Release {
                lock: LockId(0xbad),
            },
        };
        t.events.insert(3, bad);
        t.events.reseq();
        t
    }

    fn assert_reports_match(a: &AnalysisReport, b: &AnalysisReport, what: &str) {
        assert_eq!(a.races, b.races, "{what}: races");
        assert_eq!(a.coverage, b.coverage, "{what}: coverage");
        assert_eq!(a.stats.sim, b.stats.sim, "{what}: sim stats");
        assert_eq!(a.stats.pairing, b.stats.pairing, "{what}: pairing stats");
        assert_eq!(a.stats.quarantine, b.stats.quarantine, "{what}: quarantine");
        assert_eq!(a.fixes, b.fixes, "{what}: fixes");
        assert_eq!(
            a.metrics.as_ref().map(|m| m.masked()),
            b.metrics.as_ref().map(|m| m.masked()),
            "{what}: masked metrics"
        );
    }

    /// The one driver over both sources: the same trace, in memory or
    /// streamed, gives the same report under every strictness, thread
    /// count, event cap and chunk size, fixes included. The streamed side
    /// gets its fixes from `attach_fixes`, so the ill-formed lenient trace
    /// also pins the quarantined view the fixes replay.
    #[test]
    fn streaming_report_is_bit_identical_to_batch() {
        let mut with_fixes = 0;
        for (strictness, trace) in [
            (Strictness::Strict, busy_trace()),
            (Strictness::Lenient, busy_trace_ill_formed()),
        ] {
            let raw = encode(&trace).to_vec();
            for threads in [1usize, 2, 8] {
                for max_events in [None, Some(40)] {
                    for suggest_fixes in [false, true] {
                        let cfg = AnalysisConfig {
                            strictness,
                            threads,
                            budget: AnalysisBudget {
                                max_events,
                                ..Default::default()
                            },
                            suggest_fixes,
                            ..Default::default()
                        };
                        let batch = Analyzer::new(cfg.clone()).try_run(&trace).expect("batch");
                        with_fixes += usize::from(batch.fixes.is_some());
                        for chunk_bytes in [0usize, 7, 64] {
                            let analyzer = Analyzer::new(AnalysisConfig {
                                stream: StreamConfig {
                                    chunk_bytes,
                                    ..Default::default()
                                },
                                ..cfg.clone()
                            });
                            let mut stream = analyzer
                                .try_run_stream(Cursor::new(raw.clone()))
                                .expect("streamed run");
                            analyzer.attach_fixes(&trace, &mut stream);
                            assert_reports_match(
                                &batch,
                                &stream,
                                &format!(
                                    "{strictness:?} t{threads} cap {max_events:?} \
                                     fixes {suggest_fixes} c{chunk_bytes}"
                                ),
                            );
                            let m = stream.metrics.as_ref().unwrap();
                            assert!(m.conservation_violations().is_empty());
                        }
                    }
                }
            }
        }
        assert_eq!(with_fixes, 12, "every run with fixes on must suggest some");
    }

    #[test]
    fn streaming_under_memory_budget_degrades_identically_to_batch() {
        let trace = busy_trace_n(400);
        let raw = encode(&trace).to_vec();
        let analyzer = Analyzer::new(AnalysisConfig {
            budget: AnalysisBudget {
                memory_budget: Some(8 * 1024),
                ..Default::default()
            },
            ..Default::default()
        });
        let batch = analyzer.try_run(&trace).expect("batch");
        assert_eq!(batch.coverage.reason, Some(BudgetExceeded::MemoryBudget));
        assert!(batch.stats.sim.memory_budget_hit);
        let stream = analyzer.try_run_stream(Cursor::new(raw)).expect("stream");
        assert_reports_match(&batch, &stream, "memory budget");
        assert!(stream
            .metrics
            .as_ref()
            .unwrap()
            .conservation_violations()
            .is_empty());
    }

    /// A streamed run configured with checkpointing or resume.
    fn streamed(
        threads: usize,
        suggest_fixes: bool,
        checkpoint: Option<&Arc<CheckpointSession>>,
        resume: Option<&Arc<AnalysisCheckpoint>>,
    ) -> Analyzer {
        Analyzer::new(AnalysisConfig {
            threads,
            suggest_fixes,
            stream: StreamConfig {
                checkpoint: checkpoint.cloned(),
                resume: resume.cloned(),
                ..Default::default()
            },
            ..Default::default()
        })
    }

    #[test]
    fn checkpointed_stream_resumes_to_the_same_report() {
        let trace = busy_trace();
        let raw = encode(&trace).to_vec();
        let dir = std::env::temp_dir().join(format!("hwk-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");

        let fp = config_fingerprint(&AnalysisConfig {
            threads: 2,
            ..Default::default()
        });
        let session = Arc::new(CheckpointSession::new(
            path.clone(),
            fp.clone(),
            "test".into(),
            Some(16),
        ));
        let golden = streamed(2, false, Some(&session), None)
            .try_run_stream(Cursor::new(raw.clone()))
            .expect("checkpointed run");
        assert!(session.take_error().is_none());

        let ck = AnalysisCheckpoint::load(&path).expect("checkpoint readable");
        assert_eq!(ck.phase, "done");
        assert!(
            !ck.shards.is_empty(),
            "finished shards must have been persisted"
        );
        assert_eq!(
            ck.ingest.as_ref().unwrap().events_decoded,
            trace.events.len() as u64
        );

        // Resume from the finished checkpoint: every shard is replayed from
        // cache, and the report must be bit-identical — at any thread count.
        let ck = Arc::new(ck);
        for threads in [1usize, 2, 8] {
            let resumed = streamed(threads, false, None, Some(&ck))
                .try_run_stream(Cursor::new(raw.clone()))
                .expect("resumed run");
            assert_reports_match(&golden, &resumed, &format!("resume t{threads}"));
        }

        // A different configuration must be refused.
        let other = Analyzer::new(AnalysisConfig {
            irh: false,
            stream: StreamConfig {
                resume: Some(Arc::clone(&ck)),
                ..Default::default()
            },
            ..Default::default()
        });
        let err = other.try_run_stream(Cursor::new(raw.clone())).unwrap_err();
        assert!(matches!(err, HawkSetError::Checkpoint(_)), "got {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An interrupted stream's checkpoint says where ingest stopped and
    /// that the run is unfinished.
    #[test]
    fn interrupted_stream_checkpoints_its_offset_and_stays_unfinished() {
        let raw = encode(&busy_trace()).to_vec();
        let len = raw.len() as u64;
        let dir = std::env::temp_dir().join(format!("hwk-interrupt-ck-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let session = Arc::new(CheckpointSession::new(
            path.clone(),
            config_fingerprint(&AnalysisConfig::default()),
            "test".into(),
            None,
        ));
        let report = Analyzer::new(AnalysisConfig {
            interrupt: Some(Arc::new(AtomicBool::new(true))),
            stream: StreamConfig {
                checkpoint: Some(Arc::clone(&session)),
                ..Default::default()
            },
            ..Default::default()
        })
        .try_run_stream(Cursor::new(raw))
        .expect("interrupted run");
        assert_eq!(report.coverage.reason, Some(BudgetExceeded::Interrupted));
        assert!(session.take_error().is_none());

        let ck = AnalysisCheckpoint::load(&path).expect("checkpoint readable");
        let ingest = ck.ingest.expect("ingest progress recorded");
        assert_eq!(ingest.events_decoded, 1);
        assert!(
            ingest.stream_offset > 0 && ingest.stream_offset < len,
            "stream_offset {} outside (0, {len})",
            ingest.stream_offset
        );
        assert_ne!(ck.phase, "done");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The latent-gap regression: a checkpoint written while
    /// `suggest_fixes` is enabled must resume to a byte-identical report —
    /// fixes section included — and the fingerprint must treat the flag as
    /// report-affecting, refusing a resume that toggles it.
    #[test]
    fn checkpointed_run_with_fixes_resumes_to_identical_bytes() {
        fn masked(mut r: AnalysisReport) -> String {
            r.stats.duration = std::time::Duration::ZERO;
            r.metrics = r.metrics.map(|m| m.masked());
            r.to_json()
        }
        let trace = busy_trace();
        let raw = encode(&trace).to_vec();
        let dir = std::env::temp_dir().join(format!("hwk-fix-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");

        let base = AnalysisConfig {
            threads: 2,
            suggest_fixes: true,
            ..Default::default()
        };
        let session = Arc::new(CheckpointSession::new(
            path.clone(),
            config_fingerprint(&base),
            "test".into(),
            Some(16),
        ));
        // Streaming has no trace in hand, so fixes ride the second pass —
        // the same shape `hawkset analyze --suggest-fixes` uses.
        let analyzer = streamed(2, true, Some(&session), None);
        let mut golden = analyzer
            .try_run_stream(Cursor::new(raw.clone()))
            .expect("checkpointed run");
        analyzer.attach_fixes(&trace, &mut golden);
        assert!(session.take_error().is_none());
        assert!(
            golden
                .fixes
                .as_ref()
                .is_some_and(|f| !f.suggestions.is_empty()),
            "the racy trace must yield suggestions or this test is vacuous"
        );
        let golden_json = masked(golden);

        let ck = Arc::new(AnalysisCheckpoint::load(&path).expect("checkpoint readable"));
        for threads in [1usize, 2, 8] {
            let resumed_analyzer = streamed(threads, true, None, Some(&ck));
            let mut resumed = resumed_analyzer
                .try_run_stream(Cursor::new(raw.clone()))
                .expect("resumed run");
            resumed_analyzer.attach_fixes(&trace, &mut resumed);
            assert_eq!(
                masked(resumed),
                golden_json,
                "resume t{threads}: fixes-bearing report not byte-identical"
            );
        }

        // Toggling the flag changes the fingerprint: the checkpoint is for
        // a different report and must be refused, not silently reused.
        let err = streamed(2, false, None, Some(&ck))
            .try_run_stream(Cursor::new(raw.clone()))
            .unwrap_err();
        assert!(matches!(err, HawkSetError::Checkpoint(_)), "got {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn preset_interrupt_finalizes_a_partial_report() {
        let trace = busy_trace();
        let raw = encode(&trace).to_vec();
        let analyzer = Analyzer::new(AnalysisConfig {
            interrupt: Some(Arc::new(AtomicBool::new(true))),
            ..Default::default()
        });
        let report = analyzer
            .try_run_stream(Cursor::new(raw))
            .expect("interrupted run still yields a report");
        assert!(report.coverage.truncated);
        assert_eq!(report.coverage.reason, Some(BudgetExceeded::Interrupted));
        assert!(report.coverage.events_analyzed <= 1);
        assert!(report
            .metrics
            .as_ref()
            .unwrap()
            .conservation_violations()
            .is_empty());
    }

    /// An interrupt that lands mid-pairing leaves a partial report, and a
    /// partial report gets no fixes, in memory as in a stream: its races
    /// depend on where the interrupt landed, and replaying them would only
    /// delay the exit the interrupt asked for.
    #[test]
    fn interrupted_in_memory_run_skips_repair() {
        let flag = Arc::new(AtomicBool::new(false));
        let analyzer = Analyzer::new(AnalysisConfig {
            threads: 1,
            suggest_fixes: true,
            interrupt: Some(Arc::clone(&flag)),
            // The last shard stalls until the interrupt cuts it short; the
            // shards before it have found races by then.
            stall_injection: Some(StallInjection {
                shard: 63,
                delay: Duration::from_secs(60),
            }),
            ..Default::default()
        });
        let setter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            flag.store(true, Ordering::Relaxed);
        });
        let report = analyzer
            .try_run(&busy_trace())
            .expect("an interrupted run still yields a report");
        setter.join().unwrap();
        assert_eq!(report.coverage.reason, Some(BudgetExceeded::Interrupted));
        assert!(!report.races.is_empty(), "the shards before 63 found races");
        assert!(report.fixes.is_none(), "an interrupted run was repaired");
    }

    #[test]
    fn zero_stage_timeout_reports_stage_stalled() {
        let trace = busy_trace();
        let analyzer = Analyzer::new(AnalysisConfig {
            budget: AnalysisBudget {
                stage_timeout: Some(Duration::ZERO),
                ..Default::default()
            },
            ..Default::default()
        });
        let report = analyzer.run(&trace);
        assert!(report.coverage.truncated);
        assert_eq!(report.coverage.reason, Some(BudgetExceeded::StageStalled));
        assert!(report
            .metrics
            .as_ref()
            .unwrap()
            .conservation_violations()
            .is_empty());
    }
}
