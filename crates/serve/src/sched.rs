//! Bounded, tenant-fair admission queue.
//!
//! Admission is decided at `SUBMIT` time — before the trace bytes arrive —
//! so a client learns immediately whether to stream or back off. The
//! decision is a **reservation**: it counts against both the global bound
//! and the submitting tenant's cap from the moment of the `ACCEPTED` reply,
//! which closes the window where a thousand clients could all be told yes
//! against the same last queue slot.
//!
//! Dispatch is per-tenant round-robin: each tenant owns a FIFO, and
//! workers drain the tenants in rotation. A tenant that floods the queue
//! up to its cap delays only itself — the next tenant's first job is at
//! most one rotation away, never behind the flood. That is the fairness
//! property the saturation e2e test pins.
//!
//! Every refusal has an explicit [`ShedReason`]; the server turns it into
//! a `SHED` frame. Nothing is ever silently dropped: a reservation whose
//! upload dies is released via [`Scheduler::abandon`], and the caller
//! accounts it as a failed job so the metrics conservation law keeps
//! closing.

use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Why a submission was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The global admission queue (queued + reserved) is at capacity.
    QueueFull,
    /// The tenant is at its per-tenant pending cap.
    TenantCap,
    /// The daemon is draining and admits nothing new.
    Draining,
    /// Storage is degraded to read-only; findings could not be made
    /// durable. (Raised by the server's health gate, not the scheduler.)
    Storage,
}

impl ShedReason {
    /// The reason string carried in the SHED frame payload. Stable: tests
    /// and clients match on the leading token.
    pub fn message(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue-full: admission queue at capacity, retry later",
            ShedReason::TenantCap => "tenant-cap: too many pending submissions for this tenant",
            ShedReason::Draining => "draining: daemon is shutting down, not admitting work",
            ShedReason::Storage => "storage: database degraded to read-only, retry later",
        }
    }
}

/// One admitted submission, ready for a worker.
#[derive(Debug)]
pub struct Job {
    /// Daemon-unique id (also the ACCEPTED payload).
    pub id: u64,
    /// Submitting tenant.
    pub tenant: String,
    /// The raw `.hwkt` byte stream, reassembled from DATA frames and
    /// shared by every attempt.
    pub trace: Arc<[u8]>,
    /// Completed run attempts (0 on first dispatch).
    pub attempts: u32,
    /// Where the worker reports the terminal outcome; the connection
    /// handler blocks on the other end to send the RESULT/ERROR frame.
    pub reply: Sender<JobReply>,
}

/// Terminal outcome of one job, delivered to its connection handler.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobReply {
    /// Analysis finished and its findings are durable in the stable root.
    Done {
        /// No races reported.
        clean: bool,
        /// Schema-v1 report JSON.
        report_json: String,
    },
    /// The job failed terminally.
    Failed {
        /// Human-readable cause (carried in the ERROR frame).
        message: String,
    },
}

/// An admission ticket: the slot is held from `ACCEPTED` until
/// [`commit`](Scheduler::commit) or [`abandon`](Scheduler::abandon).
#[derive(Debug)]
#[must_use = "a reservation holds a queue slot until committed or abandoned"]
pub struct Reservation {
    /// The job id the client was told.
    pub id: u64,
    tenant: String,
}

/// What a worker's [`pop`](Scheduler::pop) observed.
#[derive(Debug)]
pub enum Pop {
    /// A job to run.
    Job(Job),
    /// Nothing available within the timeout; poll stop conditions and
    /// call again.
    Idle,
    /// Draining and fully quiesced — the worker should exit.
    Closed,
}

#[derive(Default)]
struct State {
    /// Per-tenant FIFOs. Only tenants with queued work appear in `ring`.
    queues: BTreeMap<String, VecDeque<Job>>,
    /// Round-robin rotation over tenants with non-empty queues.
    ring: VecDeque<String>,
    /// Jobs sitting in queues.
    queued: usize,
    /// Accepted submissions still uploading, per tenant.
    reserved: BTreeMap<String, usize>,
    /// Jobs popped but not yet resolved by their worker.
    running: usize,
    /// No new admissions; close once quiesced.
    draining: bool,
    next_id: u64,
}

impl State {
    fn reserved_total(&self) -> usize {
        self.reserved.values().sum()
    }

    fn tenant_pending(&self, tenant: &str) -> usize {
        self.queues.get(tenant).map_or(0, VecDeque::len)
            + self.reserved.get(tenant).copied().unwrap_or(0)
    }

    fn push(&mut self, job: Job) {
        let tenant = job.tenant.clone();
        let q = self.queues.entry(tenant.clone()).or_default();
        let was_empty = q.is_empty();
        q.push_back(job);
        self.queued += 1;
        if was_empty {
            self.ring.push_back(tenant);
        }
    }
}

/// The shared admission queue. All methods are `&self`; one instance is
/// shared between the acceptors and the worker pool.
pub struct Scheduler {
    state: Mutex<State>,
    available: Condvar,
    queue_cap: usize,
    tenant_cap: usize,
}

impl Scheduler {
    /// A scheduler bounding total pending work at `queue_cap` and each
    /// tenant at `tenant_cap` (both counting queued + reserved).
    pub fn new(queue_cap: usize, tenant_cap: usize) -> Self {
        Self {
            state: Mutex::new(State::default()),
            available: Condvar::new(),
            queue_cap: queue_cap.max(1),
            tenant_cap: tenant_cap.max(1),
        }
    }

    /// Poison-safe state access. A connection handler that panics while
    /// holding the lock must not turn into a daemon-wide denial of
    /// service: every mutation below is small and leaves the maps
    /// internally consistent, and the books are conservation-checked at
    /// drain, so recovering the guard is strictly better than propagating
    /// the poison to every tenant.
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Decides admission for one `SUBMIT`. `Ok` holds a queue slot until
    /// the upload completes ([`commit`](Self::commit)) or dies
    /// ([`abandon`](Self::abandon)).
    pub fn reserve(&self, tenant: &str) -> Result<Reservation, ShedReason> {
        let mut s = self.lock_state();
        if s.draining {
            return Err(ShedReason::Draining);
        }
        if s.queued + s.reserved_total() >= self.queue_cap {
            return Err(ShedReason::QueueFull);
        }
        if s.tenant_pending(tenant) >= self.tenant_cap {
            return Err(ShedReason::TenantCap);
        }
        let id = s.next_id;
        s.next_id += 1;
        *s.reserved.entry(tenant.to_string()).or_insert(0) += 1;
        Ok(Reservation {
            id,
            tenant: tenant.to_string(),
        })
    }

    /// Converts a reservation into a queued job once its bytes arrived.
    pub fn commit(&self, res: Reservation, trace: Vec<u8>, reply: Sender<JobReply>) {
        let mut s = self.lock_state();
        release_reservation(&mut s, &res.tenant);
        s.push(Job {
            id: res.id,
            tenant: res.tenant,
            trace: trace.into(),
            attempts: 0,
            reply,
        });
        drop(s);
        self.available.notify_one();
    }

    /// Releases a reservation whose upload never completed.
    pub fn abandon(&self, res: Reservation) {
        let mut s = self.lock_state();
        release_reservation(&mut s, &res.tenant);
        drop(s);
        // Quiescence may depend on this reservation being gone.
        self.available.notify_all();
    }

    /// Re-queues a transiently failed job (admission caps do not apply —
    /// the job is already admitted and counted).
    pub fn requeue(&self, job: Job) {
        let mut s = self.lock_state();
        s.running -= 1;
        s.push(job);
        drop(s);
        self.available.notify_one();
    }

    /// Takes the next job in tenant rotation, waiting up to `timeout`.
    pub fn pop(&self, timeout: Duration) -> Pop {
        let mut s = self.lock_state();
        loop {
            if let Some(tenant) = s.ring.pop_front() {
                let q = s.queues.get_mut(&tenant).expect("ring tenant has a queue");
                let job = q.pop_front().expect("ring tenant queue is non-empty");
                if q.is_empty() {
                    s.queues.remove(&tenant);
                } else {
                    s.ring.push_back(tenant);
                }
                s.queued -= 1;
                s.running += 1;
                return Pop::Job(job);
            }
            if s.draining && s.queued == 0 && s.reserved_total() == 0 && s.running == 0 {
                // Wake the other workers so they observe closure too.
                self.available.notify_all();
                return Pop::Closed;
            }
            let (next, wait) = self
                .available
                .wait_timeout(s, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            s = next;
            if wait.timed_out() {
                return Pop::Idle;
            }
        }
    }

    /// Marks a popped job resolved (reply sent, terminal outcome counted).
    /// Until this is called the job holds quiescence open.
    pub fn resolve(&self) {
        let mut s = self.lock_state();
        s.running -= 1;
        drop(s);
        self.available.notify_all();
    }

    /// Stops admissions; [`pop`](Self::pop) returns [`Pop::Closed`] once
    /// everything queued, uploading, and running has resolved.
    pub fn begin_drain(&self) {
        self.lock_state().draining = true;
        self.available.notify_all();
    }

    /// True once draining was requested.
    pub fn draining(&self) -> bool {
        self.lock_state().draining
    }

    /// Jobs currently queued (the queue-depth gauge).
    pub fn depth(&self) -> usize {
        self.lock_state().queued
    }
}

fn release_reservation(s: &mut State, tenant: &str) {
    let n = s
        .reserved
        .get_mut(tenant)
        .expect("reservation released twice");
    *n -= 1;
    if *n == 0 {
        s.reserved.remove(tenant);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn commit(sched: &Scheduler, tenant: &str) -> u64 {
        let res = sched.reserve(tenant).expect("admitted");
        let id = res.id;
        let (tx, _rx) = channel();
        sched.commit(res, Vec::new(), tx);
        id
    }

    fn pop_tenant(sched: &Scheduler) -> String {
        match sched.pop(Duration::from_millis(10)) {
            Pop::Job(j) => {
                sched.resolve();
                j.tenant
            }
            other => panic!("expected a job, got {other:?}"),
        }
    }

    #[test]
    fn round_robin_interleaves_tenants() {
        let sched = Scheduler::new(64, 32);
        for _ in 0..4 {
            commit(&sched, "flood");
        }
        commit(&sched, "small");
        // The flood is 4 deep, but "small" rides the second rotation slot.
        let order: Vec<String> = (0..5).map(|_| pop_tenant(&sched)).collect();
        assert_eq!(order, ["flood", "small", "flood", "flood", "flood"]);
    }

    #[test]
    fn global_and_tenant_caps_shed_with_distinct_reasons() {
        let sched = Scheduler::new(3, 2);
        let _a = sched.reserve("a").unwrap();
        let _b = sched.reserve("a").unwrap();
        assert_eq!(sched.reserve("a").unwrap_err(), ShedReason::TenantCap);
        let _c = sched.reserve("b").unwrap();
        assert_eq!(sched.reserve("c").unwrap_err(), ShedReason::QueueFull);
    }

    #[test]
    fn abandon_releases_the_slot() {
        let sched = Scheduler::new(1, 1);
        let res = sched.reserve("a").unwrap();
        assert_eq!(sched.reserve("a").unwrap_err(), ShedReason::QueueFull);
        sched.abandon(res);
        assert!(sched.reserve("a").is_ok());
    }

    #[test]
    fn job_ids_are_unique_and_monotonic() {
        let sched = Scheduler::new(8, 8);
        let a = commit(&sched, "t");
        let b = commit(&sched, "t");
        assert!(b > a);
    }

    #[test]
    fn drain_sheds_new_work_and_closes_after_quiescence() {
        let sched = Scheduler::new(8, 8);
        commit(&sched, "t");
        sched.begin_drain();
        assert_eq!(sched.reserve("t").unwrap_err(), ShedReason::Draining);
        // The queued job still comes out, then the pool closes.
        let Pop::Job(job) = sched.pop(Duration::from_millis(10)) else {
            panic!("queued job survives drain");
        };
        assert!(
            matches!(sched.pop(Duration::from_millis(10)), Pop::Idle),
            "job still running"
        );
        drop(job);
        sched.resolve();
        assert!(matches!(sched.pop(Duration::from_millis(10)), Pop::Closed));
    }

    #[test]
    fn requeue_skips_admission_caps() {
        let sched = Scheduler::new(1, 1);
        commit(&sched, "t");
        let Pop::Job(mut job) = sched.pop(Duration::from_millis(10)) else {
            panic!("job");
        };
        job.attempts += 1;
        // Queue is at capacity 1 only for *new* admissions.
        let res = sched.reserve("u").unwrap();
        sched.requeue(job);
        let Pop::Job(back) = sched.pop(Duration::from_millis(10)) else {
            panic!("requeued job");
        };
        assert_eq!(back.attempts, 1);
        sched.resolve();
        sched.abandon(res);
    }

    #[test]
    fn idle_pop_times_out() {
        let sched = Scheduler::new(8, 8);
        assert!(matches!(sched.pop(Duration::from_millis(5)), Pop::Idle));
    }

    #[test]
    fn poisoned_state_lock_does_not_take_down_the_scheduler() {
        let sched = Arc::new(Scheduler::new(8, 8));
        // Poison the state mutex: panic on a thread that holds it.
        let poisoner = sched.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.state.lock().unwrap();
            panic!("injected panic while holding the scheduler lock");
        })
        .join();
        assert!(sched.state.is_poisoned(), "the panic must have poisoned it");
        // Every entry point still works: the daemon keeps serving.
        commit(&sched, "t");
        assert_eq!(sched.depth(), 1);
        assert_eq!(pop_tenant(&sched), "t");
        let res = sched.reserve("u").unwrap();
        sched.abandon(res);
        sched.begin_drain();
        assert!(sched.draining());
        assert!(matches!(sched.pop(Duration::from_millis(10)), Pop::Closed));
    }
}
