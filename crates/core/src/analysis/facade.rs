//! The library's front door: [`Analyzer`] owns an [`AnalysisConfig`] and
//! runs the full pipeline (simulation → IRH → sharded pairing) or its
//! pairing stage alone. It is the single entry point — every knob,
//! including the streaming-ingest options ([`StreamConfig`]), lives on the
//! configuration, so batch and streamed runs differ only in the call.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use crate::error::HawkSetError;
use crate::memsim::{simulate_view, AccessSet, SimConfig, StreamSimulator};
use crate::obs::{MetricsRegistry, MetricsSnapshot, ObsHook, Stage};
use crate::trace::stream::{StreamDecoder, StreamOptions, DEFAULT_CHUNK_BYTES};
use crate::trace::validate::StreamValidator;
use crate::trace::{Event, Trace, TraceView};

use super::checkpoint::{self, AnalysisCheckpoint, CheckpointSession, IngestProgress};
use super::engine::{PairingControls, ShardOutput};
use super::{
    engine, quarantine, repair, AnalysisConfig, AnalysisReport, BudgetExceeded, QuarantineFilter,
    Strictness,
};

/// Configured analysis pipeline.
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
    /// An analyzer over an explicit configuration. See also
    /// [`AnalysisConfig::builder`].
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
        let reg = self.registry();
        let mut report = self.run_with(trace, &reg);
        self.seal_metrics(&reg, &mut report);
        report
    }

    /// [`run`](Self::run) against a caller-owned registry; does not seal.
    fn run_with(&self, trace: &Trace, reg: &MetricsRegistry) -> AnalysisReport {
        let started = std::time::Instant::now();
        let total_stage = reg.stage(Stage::Total);
        let events_total = trace.events.len() as u64;
        // max_events caps the trace through a borrowed sub-slice view — no
        // clone of the event vector, which on capped multi-gigabyte traces
        // used to be the single largest allocation of the run.
        let view = match self.cfg.budget.max_events {
            Some(max) if events_total > max => TraceView::prefix(trace, max as usize),
            _ => TraceView::full(trace),
        };
        let events_analyzed = view.events.len() as u64;
        reg.ingest.events_decoded.set(events_total);
        reg.ingest.events_analyzed.set(events_analyzed);
        reg.ingest
            .events_truncated
            .set(events_total - events_analyzed);
        let access = {
            let _stage = reg.stage(Stage::Simulate);
            simulate_view(
                view,
                &SimConfig {
                    irh: self.cfg.irh,
                    eadr: self.cfg.eadr,
                    memory_budget: self.cfg.budget.memory_budget,
                },
            )
        };
        reg.record_sim(&access.stats);
        let mut report = engine::run_pairing(view.stacks, &access, &self.cfg, reg);
        report.stats.sim = access.stats.clone();
        report.coverage.events_analyzed = events_analyzed;
        report.coverage.events_total = events_total;
        if events_analyzed < events_total {
            report.coverage.truncated = true;
            report.coverage.reason = Some(BudgetExceeded::Events);
        }
        // Memory-budget degradation outranks the other reasons: evicted
        // simulation state silently removes pairs from *every* later stage,
        // which is the caveat the report must lead with.
        if access.stats.memory_budget_hit {
            report.coverage.truncated = true;
            report.coverage.reason = Some(BudgetExceeded::MemoryBudget);
        }
        if self.cfg.suggest_fixes && !report.races.is_empty() {
            let fixes = repair::suggest(&view, access, &report.races, &self.cfg);
            if !fixes.is_empty() {
                report.fixes = Some(repair::FixReport::new(fixes));
            }
        }
        drop(total_stage);
        report.stats.duration = started.elapsed();
        report
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
        match self.cfg.strictness {
            Strictness::Strict => {
                trace.validate()?;
                Ok(self.run(trace))
            }
            Strictness::Lenient => {
                let reg = self.registry();
                let (kept, stats) = quarantine(trace);
                let mut report = self.run_with(&kept, &reg);
                // Re-base the ingest accounting on the original trace:
                // decoded = kept (analyzed + truncated) + quarantined.
                reg.ingest.events_decoded.set(trace.events.len() as u64);
                reg.ingest.events_quarantined.set(stats.total());
                report.stats.quarantine = stats;
                self.seal_metrics(&reg, &mut report);
                Ok(report)
            }
        }
    }

    /// Runs the full pipeline over a **streamed** `.hwkt` trace from any
    /// [`Read`](std::io::Read) source — a file or stdin — without ever
    /// materializing the event vector. Memory held is the interning
    /// tables, one refill chunk, and the live simulation state (itself
    /// bounded by [`AnalysisBudget::memory_budget`]).
    ///
    /// The report is **bit-identical** to [`try_run`](Self::try_run) on
    /// the batch-decoded trace: the decoder yields the same events
    /// ([`StreamDecoder`] equivalence), quarantine/validation make the
    /// same per-event decisions (`QuarantineFilter` /
    /// [`StreamValidator`] are the batch paths' own internals), and the
    /// incremental simulator is the batch simulator's own per-event
    /// engine, fed one event at a time.
    ///
    /// The streaming-ingest knobs — chunk size, byte ceiling,
    /// checkpointing and resume — live on [`AnalysisConfig::stream`]
    /// ([`StreamConfig`]), set through the builder like every other
    /// option; a cooperative [`AnalysisConfig::interrupt`] stops the run
    /// between events or shards and finalizes a partial report marked
    /// [`BudgetExceeded::Interrupted`].
    ///
    /// ```
    /// use std::io::Cursor;
    /// use hawkset_core::analysis::AnalysisConfig;
    /// use hawkset_core::trace::{io, TraceBuilder};
    ///
    /// let raw = io::encode(&TraceBuilder::new().finish()).to_vec();
    /// let analyzer = AnalysisConfig::builder()
    ///     .stream_chunk_bytes(4096)
    ///     .stream_max_bytes(1 << 20)
    ///     .build_analyzer();
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
        let reg = self.registry();
        let started = std::time::Instant::now();
        let total_stage = reg.stage(Stage::Total);
        let lenient = self.cfg.strictness == Strictness::Lenient;
        let mut dec = StreamDecoder::new(
            reader,
            StreamOptions {
                chunk_bytes: self.cfg.stream.effective_chunk(),
                lossy: lenient,
                max_bytes: self.cfg.stream.max_bytes,
            },
        )?;
        let declared = dec.declared_events();
        let fingerprint = checkpoint::config_fingerprint(&self.cfg);
        if let Some(prior) = resume {
            prior.validate_resume(&fingerprint, declared)?;
        }
        if let Some(ck) = checkpoint {
            ck.set_declared_events(declared);
        }

        let thread_count = dec.header().thread_count;
        let mut sim = StreamSimulator::new(
            thread_count,
            dec.header().regions.clone(),
            &SimConfig {
                irh: self.cfg.irh,
                eadr: self.cfg.eadr,
                memory_budget: self.cfg.budget.memory_budget,
            },
        );
        let stack_count = dec.header().stacks.stack_count();
        // Lenient mode streams events through the same per-event filter the
        // batch quarantine uses; strict mode through the incremental
        // validator (the whole stream is validated, exactly like the batch
        // path validates the whole trace before analyzing a prefix).
        let mut filter = lenient.then(|| QuarantineFilter::new(thread_count, stack_count));
        let mut validator = (!lenient).then(|| StreamValidator::new(thread_count, stack_count));

        let max_events = self.cfg.budget.max_events;
        let interrupt = self.cfg.interrupt.clone();
        let cadence = checkpoint.map(|ck| {
            self.cfg
                .checkpoint_every
                .unwrap_or_else(|| ck.every())
                .max(1)
        });
        let mut decoded: u64 = 0;
        let mut kept: u64 = 0;
        let mut analyzed: u64 = 0;
        let mut interrupted = false;
        {
            let _stage = reg.stage(Stage::Simulate);
            while let Some(ev) = dec.next_event()? {
                decoded += 1;
                let keep = match filter.as_mut() {
                    Some(f) => f.admit(&ev),
                    None => {
                        validator
                            .as_mut()
                            .expect("strict has a validator")
                            .push(&ev)?;
                        true
                    }
                };
                if keep {
                    if max_events.is_none_or(|m| kept < m) {
                        if lenient {
                            // The batch quarantine re-sequences kept events
                            // densely; replicate for bit-identity.
                            sim.step(&Event { seq: kept, ..ev });
                        } else {
                            sim.step(&ev);
                        }
                        analyzed += 1;
                    }
                    kept += 1;
                }
                if let (Some(ck), Some(every)) = (checkpoint, cadence) {
                    if decoded.is_multiple_of(every) {
                        ck.record_ingest(IngestProgress {
                            stream_offset: dec.offset(),
                            events_decoded: decoded,
                            events_kept: kept,
                            events_analyzed: analyzed,
                        });
                    }
                }
                if interrupt
                    .as_ref()
                    .is_some_and(|i| i.load(Ordering::Relaxed))
                {
                    interrupted = true;
                    break;
                }
            }
            if !interrupted {
                if let Some(v) = validator.take() {
                    v.finish()?;
                }
            }
        }
        let (header, loss) = dec.into_parts();
        reg.ingest.events_decoded.set(decoded);
        reg.ingest.events_analyzed.set(analyzed);
        reg.ingest.events_truncated.set(kept - analyzed);
        reg.ingest.events_salvage_dropped.set(loss.dropped_events);
        reg.ingest.bytes_salvage_dropped.set(loss.dropped_bytes);
        let quarantine_stats = filter.map(QuarantineFilter::into_stats).unwrap_or_default();
        reg.ingest.events_quarantined.set(quarantine_stats.total());

        let access = sim.finish();
        reg.record_sim(&access.stats);

        if let Some(ck) = checkpoint {
            ck.record_ingest(IngestProgress {
                stream_offset: loss.valid_bytes,
                events_decoded: decoded,
                events_kept: kept,
                events_analyzed: analyzed,
            });
            ck.set_phase("pairing");
        }
        let resume_map = resume.map(AnalysisCheckpoint::shard_outputs);
        let on_shard =
            checkpoint.map(|ck| move |s: usize, out: &ShardOutput| ck.record_shard(s, out));
        let controls = PairingControls {
            resume: resume_map.as_ref(),
            on_shard: on_shard
                .as_ref()
                .map(|f| f as &(dyn Fn(usize, &ShardOutput) + Sync)),
            site: None,
        };
        let mut report =
            engine::run_pairing_controlled(&header.stacks, &access, &self.cfg, &reg, controls);
        report.stats.sim = access.stats.clone();
        report.stats.quarantine = quarantine_stats;
        report.coverage.events_analyzed = analyzed;
        // Interrupted ingest never learned the true total; the header's
        // declared count is the best available denominator.
        report.coverage.events_total = if interrupted {
            declared.max(kept)
        } else {
            kept
        };
        if analyzed < report.coverage.events_total {
            report.coverage.truncated = true;
            report.coverage.reason = Some(BudgetExceeded::Events);
        }
        if access.stats.memory_budget_hit {
            report.coverage.truncated = true;
            report.coverage.reason = Some(BudgetExceeded::MemoryBudget);
        }
        if interrupted {
            report.coverage.truncated = true;
            report.coverage.reason = Some(BudgetExceeded::Interrupted);
        }
        drop(total_stage);
        report.stats.duration = started.elapsed();
        self.seal_metrics(&reg, &mut report);
        if let Some(ck) = checkpoint {
            ck.set_phase("done");
        }
        Ok((report, header))
    }

    /// Computes repair suggestions for an already-analyzed report and
    /// attaches them as the optional `fixes` section — the entry point for
    /// callers that analyzed a *stream* (which retains no event vector to
    /// replay) and still hold the trace bytes. The batch paths attach
    /// fixes inline; calling this is a no-op when
    /// [`AnalysisConfig::suggest_fixes`] is off, the report is clean, or
    /// the run was interrupted (a schedule-dependent partial report has no
    /// stable witnesses to replay).
    ///
    /// `trace` must be the same input the report was computed from: the
    /// analyzed event stream is re-derived with the run's own strictness
    /// and event budget, so suggestions are bit-identical to the batch
    /// path's.
    pub fn attach_fixes(&self, trace: &Trace, report: &mut AnalysisReport) {
        if !self.cfg.suggest_fixes
            || report.races.is_empty()
            || report.coverage.reason == Some(BudgetExceeded::Interrupted)
        {
            return;
        }
        let kept;
        let base = match self.cfg.strictness {
            Strictness::Strict => trace,
            Strictness::Lenient => {
                kept = quarantine(trace).0;
                &kept
            }
        };
        let view = match self.cfg.budget.max_events {
            Some(max) if (base.events.len() as u64) > max => TraceView::prefix(base, max as usize),
            _ => TraceView::full(base),
        };
        let access = simulate_view(
            view,
            &SimConfig {
                irh: self.cfg.irh,
                eadr: self.cfg.eadr,
                memory_budget: self.cfg.budget.memory_budget,
            },
        );
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

/// Streaming-ingest options, carried on [`AnalysisConfig::stream`]. The
/// default streams with the decoder's default chunk size, no byte ceiling,
/// no checkpointing. None of these knobs affect report *content* — they
/// are excluded from the checkpoint configuration fingerprint
/// ([`checkpoint::config_fingerprint`]).
#[derive(Clone, Debug, Default)]
pub struct StreamConfig {
    /// Refill granularity of the streaming decoder; `0` uses
    /// [`DEFAULT_CHUNK_BYTES`].
    pub chunk_bytes: usize,
    /// Ceiling on total bytes pulled from the source (see
    /// [`StreamOptions::max_bytes`]).
    pub max_bytes: Option<u64>,
    /// Checkpoint writer: ingest progress every
    /// [`AnalysisConfig::checkpoint_every`] events (or the session's
    /// cadence), every finished cacheable pairing shard immediately.
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

/// Builder for [`AnalysisConfig`]; `AnalysisConfig::builder().build()`
/// equals `AnalysisConfig::default()`.
///
/// ```
/// use hawkset_core::analysis::{AnalysisBudget, AnalysisConfig, Strictness};
///
/// let cfg = AnalysisConfig::builder()
///     .irh(false)
///     .strictness(Strictness::Lenient)
///     .budget(AnalysisBudget {
///         max_candidate_pairs: Some(1_000_000),
///         ..Default::default()
///     })
///     .threads(4)
///     .build();
/// assert!(!cfg.irh);
/// assert_eq!(cfg.threads, 4);
/// ```
#[derive(Clone, Debug, Default)]
pub struct AnalysisConfigBuilder {
    cfg: AnalysisConfig,
}

impl AnalysisConfig {
    /// Starts a builder from the default configuration.
    pub fn builder() -> AnalysisConfigBuilder {
        AnalysisConfigBuilder::default()
    }
}

impl AnalysisConfigBuilder {
    /// See [`AnalysisConfig::irh`].
    pub fn irh(mut self, on: bool) -> Self {
        self.cfg.irh = on;
        self
    }

    /// See [`AnalysisConfig::include_atomics`].
    pub fn include_atomics(mut self, on: bool) -> Self {
        self.cfg.include_atomics = on;
        self
    }

    /// See [`AnalysisConfig::eadr`].
    pub fn eadr(mut self, on: bool) -> Self {
        self.cfg.eadr = on;
        self
    }

    /// See [`AnalysisConfig::use_hb`].
    pub fn use_hb(mut self, on: bool) -> Self {
        self.cfg.use_hb = on;
        self
    }

    /// See [`AnalysisConfig::check_store_store`].
    pub fn check_store_store(mut self, on: bool) -> Self {
        self.cfg.check_store_store = on;
        self
    }

    /// See [`AnalysisConfig::strictness`].
    pub fn strictness(mut self, s: Strictness) -> Self {
        self.cfg.strictness = s;
        self
    }

    /// See [`AnalysisConfig::budget`].
    pub fn budget(mut self, b: super::AnalysisBudget) -> Self {
        self.cfg.budget = b;
        self
    }

    /// See [`AnalysisConfig::threads`].
    pub fn threads(mut self, n: usize) -> Self {
        self.cfg.threads = n;
        self
    }

    /// See [`AnalysisBudget::memory_budget`]: soft cap (bytes) on live
    /// simulation state, degrading to a partial report instead of OOM.
    ///
    /// [`AnalysisBudget::memory_budget`]: super::AnalysisBudget::memory_budget
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.cfg.budget.memory_budget = Some(bytes);
        self
    }

    /// See [`AnalysisBudget::stage_timeout`]: the pairing-stage watchdog.
    ///
    /// [`AnalysisBudget::stage_timeout`]: super::AnalysisBudget::stage_timeout
    pub fn stage_timeout(mut self, timeout: std::time::Duration) -> Self {
        self.cfg.budget.stage_timeout = Some(timeout);
        self
    }

    /// See [`AnalysisConfig::checkpoint_every`]: events between ingest
    /// checkpoint flushes when a session is attached.
    pub fn checkpoint_every(mut self, events: u64) -> Self {
        self.cfg.checkpoint_every = Some(events);
        self
    }

    /// See [`AnalysisConfig::suggest_fixes`]: compute replay-validated
    /// repair suggestions and attach them as the optional `fixes` section.
    pub fn suggest_fixes(mut self, on: bool) -> Self {
        self.cfg.suggest_fixes = on;
        self
    }

    /// See [`AnalysisConfig::interrupt`]: the cooperative interrupt flag.
    pub fn interrupt(mut self, flag: Arc<std::sync::atomic::AtomicBool>) -> Self {
        self.cfg.interrupt = Some(flag);
        self
    }

    /// See [`StreamConfig::chunk_bytes`]: refill granularity of the
    /// streaming decoder (`0` = default).
    pub fn stream_chunk_bytes(mut self, bytes: usize) -> Self {
        self.cfg.stream.chunk_bytes = bytes;
        self
    }

    /// See [`StreamConfig::max_bytes`]: ceiling on total bytes pulled from
    /// a streamed source.
    pub fn stream_max_bytes(mut self, bytes: u64) -> Self {
        self.cfg.stream.max_bytes = Some(bytes);
        self
    }

    /// See [`StreamConfig::checkpoint`]: attaches a checkpoint session to
    /// streamed runs.
    pub fn checkpoint(mut self, session: Arc<CheckpointSession>) -> Self {
        self.cfg.stream.checkpoint = Some(session);
        self
    }

    /// See [`StreamConfig::resume`]: merges a prior run's finished shards
    /// instead of re-executing them.
    pub fn resume(mut self, prior: Arc<AnalysisCheckpoint>) -> Self {
        self.cfg.stream.resume = Some(prior);
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> AnalysisConfig {
        self.cfg
    }

    /// Finalizes straight into an [`Analyzer`].
    pub fn build_analyzer(self) -> Analyzer {
        Analyzer::new(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use std::io::Cursor;
    use std::sync::atomic::AtomicBool;

    use super::*;
    use crate::addr::AddrRange;
    use crate::analysis::checkpoint::config_fingerprint;
    use crate::trace::io::encode;
    use crate::trace::{EventKind, Frame, LockId, LockMode, ThreadId, TraceBuilder};

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

    /// Splices a dangling release into the middle (lenient-mode fodder).
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
        t.events.insert(t.events.len() / 2, bad);
        t.events.reseq();
        t
    }

    fn assert_reports_match(a: &AnalysisReport, b: &AnalysisReport, what: &str) {
        assert_eq!(a.races, b.races, "{what}: races");
        assert_eq!(a.coverage, b.coverage, "{what}: coverage");
        assert_eq!(a.stats.sim, b.stats.sim, "{what}: sim stats");
        assert_eq!(a.stats.pairing, b.stats.pairing, "{what}: pairing stats");
        assert_eq!(a.stats.quarantine, b.stats.quarantine, "{what}: quarantine");
        assert_eq!(
            a.metrics.as_ref().map(|m| m.masked()),
            b.metrics.as_ref().map(|m| m.masked()),
            "{what}: masked metrics"
        );
    }

    #[test]
    fn streaming_report_is_bit_identical_to_batch() {
        for (strictness, trace) in [
            (Strictness::Strict, busy_trace()),
            (Strictness::Lenient, busy_trace_ill_formed()),
        ] {
            let raw = encode(&trace).to_vec();
            for threads in [1usize, 2, 8] {
                let analyzer = AnalysisConfig::builder()
                    .strictness(strictness)
                    .threads(threads)
                    .build_analyzer();
                let batch = analyzer.try_run(&trace).expect("batch run");
                for chunk in [0usize, 7, 64] {
                    let stream = AnalysisConfig::builder()
                        .strictness(strictness)
                        .threads(threads)
                        .stream_chunk_bytes(chunk)
                        .build_analyzer()
                        .try_run_stream(Cursor::new(raw.clone()))
                        .expect("streamed run");
                    assert_reports_match(
                        &batch,
                        &stream,
                        &format!("{strictness:?} t{threads} c{chunk}"),
                    );
                    let m = stream.metrics.as_ref().unwrap();
                    assert!(m.conservation_violations().is_empty());
                }
            }
        }
    }

    #[test]
    fn streaming_under_memory_budget_degrades_identically_to_batch() {
        let trace = busy_trace_n(400);
        let raw = encode(&trace).to_vec();
        let analyzer = AnalysisConfig::builder()
            .memory_budget(8 * 1024)
            .build_analyzer();
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

    #[test]
    fn checkpointed_stream_resumes_to_the_same_report() {
        let trace = busy_trace();
        let raw = encode(&trace).to_vec();
        let dir = std::env::temp_dir().join(format!("hwk-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");

        let base = AnalysisConfig::builder().threads(2).build();
        let fp = config_fingerprint(&base);
        let session = Arc::new(CheckpointSession::new(
            path.clone(),
            fp.clone(),
            "test".into(),
            Some(16),
        ));
        let golden = AnalysisConfig::builder()
            .threads(2)
            .checkpoint(Arc::clone(&session))
            .build_analyzer()
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
            let resumed = AnalysisConfig::builder()
                .threads(threads)
                .resume(Arc::clone(&ck))
                .build_analyzer()
                .try_run_stream(Cursor::new(raw.clone()))
                .expect("resumed run");
            assert_reports_match(&golden, &resumed, &format!("resume t{threads}"));
        }

        // A different configuration must be refused.
        let other = AnalysisConfig::builder()
            .irh(false)
            .resume(Arc::clone(&ck))
            .build_analyzer();
        let err = other.try_run_stream(Cursor::new(raw.clone())).unwrap_err();
        assert!(matches!(err, HawkSetError::Checkpoint(_)), "got {err}");
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

        let base = AnalysisConfig::builder()
            .threads(2)
            .suggest_fixes(true)
            .build();
        let session = Arc::new(CheckpointSession::new(
            path.clone(),
            config_fingerprint(&base),
            "test".into(),
            Some(16),
        ));
        // Streaming has no trace in hand, so fixes ride the second pass —
        // the same shape `hawkset analyze --suggest-fixes` uses.
        let analyzer = AnalysisConfig::builder()
            .threads(2)
            .suggest_fixes(true)
            .checkpoint(Arc::clone(&session))
            .build_analyzer();
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
            let resumed_analyzer = AnalysisConfig::builder()
                .threads(threads)
                .suggest_fixes(true)
                .resume(Arc::clone(&ck))
                .build_analyzer();
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
        let err = AnalysisConfig::builder()
            .threads(2)
            .resume(Arc::clone(&ck))
            .build_analyzer()
            .try_run_stream(Cursor::new(raw.clone()))
            .unwrap_err();
        assert!(matches!(err, HawkSetError::Checkpoint(_)), "got {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn preset_interrupt_finalizes_a_partial_report() {
        let trace = busy_trace();
        let raw = encode(&trace).to_vec();
        let flag = Arc::new(AtomicBool::new(true));
        let analyzer = AnalysisConfig::builder()
            .interrupt(Arc::clone(&flag))
            .build_analyzer();
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

    #[test]
    fn zero_stage_timeout_reports_stage_stalled() {
        let trace = busy_trace();
        let analyzer = AnalysisConfig::builder()
            .stage_timeout(std::time::Duration::ZERO)
            .build_analyzer();
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
