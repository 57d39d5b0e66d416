//! In-memory spans recorded around the calls into each layer.
//!
//! A span is `{job_id, span_id, parent_id, name, start_ns, end_ns}` on one
//! monotonic clock. The benchmark opens a `job` span per timed job and a
//! child span, named after the module it enters, around each public call
//! the job makes. [`StageSpans`] adds the `memsim` and `engine` children
//! from inside the analyzer through its public [`ObsHook`] seam.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hawkset_core::obs::{ObsHook, Stage};
use serde_json::{Map, Number, Value};

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// The job the span belongs to.
    pub job_id: u64,
    /// Unique within the run.
    pub span_id: u64,
    /// The enclosing span; `None` for a job, or for work timed outside any
    /// job.
    pub parent_id: Option<u64>,
    /// The layer (module) entered, or `job`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span as one JSON line.
    pub fn to_line(&self) -> String {
        let mut o = Map::new();
        o.insert("job_id", Value::Number(Number::PosInt(self.job_id)));
        o.insert("span_id", Value::Number(Number::PosInt(self.span_id)));
        o.insert(
            "parent_id",
            self.parent_id
                .map_or(Value::Null, |p| Value::Number(Number::PosInt(p))),
        );
        o.insert("name", Value::String(self.name.into()));
        o.insert("start_ns", Value::Number(Number::PosInt(self.start_ns)));
        o.insert("end_ns", Value::Number(Number::PosInt(self.end_ns)));
        serde_json::to_string(&Value::Object(o)).expect("span serialization cannot fail")
    }
}

/// A span that is still open: what a child needs to name its parent.
#[derive(Clone, Copy, Debug)]
pub struct SpanRef {
    job_id: u64,
    span_id: u64,
}

/// Collects spans from any thread; written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn record(
        &self,
        job_id: u64,
        span_id: u64,
        parent_id: Option<u64>,
        name: &'static str,
        from: Instant,
        to: Instant,
    ) {
        let span = Span {
            job_id,
            span_id,
            parent_id,
            name,
            start_ns: self.ns(from),
            end_ns: self.ns(to),
        };
        self.spans.lock().expect("span buffer lock").push(span);
    }

    /// Times `f` as a span of `job_id` under `parent` (`None`: outside any
    /// job). `f` gets the span's handle for children of its own.
    pub fn span<T>(
        &self,
        job_id: u64,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce(SpanRef) -> T,
    ) -> T {
        let span_id = self.id();
        let from = Instant::now();
        let out = f(SpanRef { job_id, span_id });
        self.record(job_id, span_id, parent, name, from, Instant::now());
        out
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer lock"))
    }
}

/// One timed job. Its wall clock is always measured; spans are recorded
/// only when a tracer is attached.
pub struct Job<'t> {
    tracer: Option<&'t Tracer>,
    id: u64,
    span_id: u64,
    started: Instant,
}

impl<'t> Job<'t> {
    /// Starts the job's clock.
    pub fn start(tracer: Option<&'t Tracer>) -> Self {
        let (id, span_id) = tracer.map_or((0, 0), |t| (t.id(), t.id()));
        Self {
            tracer,
            id,
            span_id,
            started: Instant::now(),
        }
    }

    /// The job's id in the span records.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Runs `f` as the layer `name` of this job.
    pub fn layer<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.layer_with(name, |_| f())
    }

    /// [`layer`](Self::layer), handing `f` the span for children of its
    /// own (`None` when untraced).
    pub fn layer_with<T>(&self, name: &'static str, f: impl FnOnce(Option<SpanRef>) -> T) -> T {
        match self.tracer {
            Some(t) => t.span(self.id, Some(self.span_id), name, |me| f(Some(me))),
            None => f(None),
        }
    }

    /// Stops the clock and returns the job's wall time.
    pub fn finish(self) -> Duration {
        let now = Instant::now();
        if let Some(t) = self.tracer {
            t.record(self.id, self.span_id, None, "job", self.started, now);
        }
        now - self.started
    }
}

/// An [`ObsHook`] that turns the analyzer's `Simulate` and `Pairing` stages
/// into `memsim` and `engine` spans under the span it is armed with.
#[derive(Debug)]
pub struct StageSpans {
    tracer: Arc<Tracer>,
    state: Mutex<HookState>,
}

#[derive(Debug, Default)]
struct HookState {
    parent: Option<SpanRef>,
    open: Vec<(Stage, Instant)>,
}

impl StageSpans {
    /// A disarmed hook recording into `tracer`.
    pub fn new(tracer: Arc<Tracer>) -> Self {
        Self {
            tracer,
            state: Mutex::new(HookState::default()),
        }
    }

    /// Runs `f` (one analyzer call) with stage spans recorded under
    /// `parent`; outside such a call, stages are ignored.
    pub fn armed<T>(&self, parent: Option<SpanRef>, f: impl FnOnce() -> T) -> T {
        self.lock().parent = parent;
        let out = f();
        *self.lock() = HookState::default();
        out
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HookState> {
        self.state.lock().expect("stage hook lock")
    }
}

fn stage_layer(stage: Stage) -> Option<&'static str> {
    match stage {
        Stage::Simulate => Some("memsim"),
        Stage::Pairing => Some("engine"),
        Stage::Decode | Stage::Total => None,
    }
}

impl ObsHook for StageSpans {
    fn on_stage_start(&self, stage: Stage) {
        let mut s = self.lock();
        if s.parent.is_some() && stage_layer(stage).is_some() {
            s.open.push((stage, Instant::now()));
        }
    }

    fn on_stage_end(&self, stage: Stage, _wall: Duration) {
        let now = Instant::now();
        let mut s = self.lock();
        let (Some(parent), Some(name)) = (s.parent, stage_layer(stage)) else {
            return;
        };
        if let Some(i) = s.open.iter().rposition(|(st, _)| *st == stage) {
            let (_, from) = s.open.remove(i);
            let id = self.tracer.id();
            self.tracer
                .record(parent.job_id, id, Some(parent.span_id), name, from, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_layers_nest_under_the_job_span() {
        let tracer = Tracer::default();
        let job = Job::start(Some(&tracer));
        let seven = job.layer("runtime", || 7);
        job.layer_with("analysis", |me| {
            tracer.span(
                me.unwrap().job_id,
                Some(me.unwrap().span_id),
                "memsim",
                |_| (),
            )
        });
        let wall = job.finish();
        assert_eq!(seven, 7);
        let spans = tracer.take();
        assert_eq!(spans.len(), 4);
        let root = spans.iter().find(|s| s.name == "job").unwrap();
        assert!(root.parent_id.is_none());
        assert!(wall.as_nanos() as u64 <= root.end_ns - root.start_ns + 1_000_000);
        for s in spans.iter().filter(|s| s.name != "job") {
            let parent = spans
                .iter()
                .find(|p| Some(p.span_id) == s.parent_id)
                .unwrap();
            assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
            assert_eq!(s.job_id, root.job_id);
        }
        assert!(tracer.take().is_empty());
    }

    #[test]
    fn untraced_jobs_record_nothing() {
        let job = Job::start(None);
        assert!(job.layer_with("io", |me| me.is_none()));
        job.finish();
    }

    #[test]
    fn stage_hook_records_only_while_armed() {
        let tracer = Arc::new(Tracer::default());
        let hook = StageSpans::new(Arc::clone(&tracer));
        hook.on_stage_start(Stage::Simulate);
        hook.on_stage_end(Stage::Simulate, Duration::ZERO);
        assert!(tracer.take().is_empty(), "disarmed hook must not record");
        tracer.span(9, None, "analysis", |me| {
            hook.armed(Some(me), || {
                hook.on_stage_start(Stage::Total);
                hook.on_stage_start(Stage::Simulate);
                hook.on_stage_end(Stage::Simulate, Duration::ZERO);
                hook.on_stage_start(Stage::Pairing);
                hook.on_stage_end(Stage::Pairing, Duration::ZERO);
                hook.on_stage_end(Stage::Total, Duration::ZERO);
            })
        });
        let names: Vec<&str> = tracer.take().iter().map(|s| s.name).collect();
        assert_eq!(names, ["memsim", "engine", "analysis"]);
    }

    #[test]
    fn span_lines_are_json() {
        let s = Span {
            job_id: 1,
            span_id: 2,
            parent_id: None,
            name: "job",
            start_ns: 5,
            end_ns: 9,
        };
        assert_eq!(
            s.to_line(),
            r#"{"job_id":1,"span_id":2,"parent_id":null,"name":"job","start_ns":5,"end_ns":9}"#
        );
    }
}
