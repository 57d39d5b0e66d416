//! The daemon: listeners, the connection protocol, and the drain sequence.
//!
//! One process serves many tenants over a unix socket and/or TCP. Each
//! connection speaks the framed protocol sequentially: `SUBMIT` → an
//! immediate `ACCEPTED`/`SHED` admission decision → `DATA*`+`END` → one
//! `RESULT`/`ERROR` once the job ran *and its findings are durable*.
//! Concurrency comes from concurrent connections, not pipelining within
//! one — that keeps the admission decision honest (a queue slot is held
//! from `ACCEPTED` on) and the client's failure model trivial.
//!
//! ## Hostile-peer posture
//!
//! Every accepted stream is wrapped in a [`TimedStream`]: reads carry a
//! per-frame deadline (generous while idle between requests, tight while
//! a frame is in flight), writes a fixed timeout. A slowloris peer
//! trickling bytes runs out of frame budget and is disconnected without
//! ever blocking another connection — each connection owns a thread, so
//! the only shared resource a slow peer could exhaust is the connection
//! cap, which is why the cap sheds explicitly (`SHED connections:`)
//! instead of queueing. Connection-level accounting (accepted / rejected
//! / timed out) lives outside the submission conservation law: a
//! connection rejected at the door never read a `SUBMIT`.
//!
//! ## Exit-code contract
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | graceful drain: admissions stopped, every in-flight job
//! |      | resolved and replied, final stable snapshot flushed |
//! | 1    | drain timed out — the daemon exited with work unresolved
//! |      | (clients that got no `RESULT` must resubmit) |
//! | 2    | startup/usage error (bad flags, cannot bind, unusable
//! |      | database directory, malformed fault script) |
//! | 130  | second SIGTERM/SIGINT during drain: immediate `_exit` |
//!
//! The first SIGTERM (or SIGINT) starts the drain; the daemon stops
//! admitting (`SHED draining`), finishes what it owes, checkpoints, and
//! leaves. A second signal means "now": `_exit(130)` from the handler,
//! no cleanup — which is safe *because* the database is crash-safe.

use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hawkset_core::ioplane;

use crate::conn::{TimedStream, Transport};
use crate::db::RaceDb;
use crate::frame::{read_frame, write_frame, Frame, FrameKind};
use crate::health::StorageHealth;
use crate::metrics::ServeMetrics;
use crate::sched::{JobReply, Scheduler, ShedReason};
use crate::worker::{lock_db, WorkerConfig, WorkerPool};

/// Daemon configuration (the CLI's `serve` flags).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Unix socket path to listen on (removed and re-created at bind).
    pub unix_socket: Option<PathBuf>,
    /// TCP address to listen on (e.g. `127.0.0.1:0` for an ephemeral
    /// port).
    pub tcp_addr: Option<String>,
    /// Race-database directory.
    pub db_dir: PathBuf,
    /// Where to write the serve-metrics snapshot on drain; defaults to
    /// `serve-metrics.json` inside the database directory.
    pub metrics_path: Option<PathBuf>,
    /// Global admission bound (queued + uploading).
    pub queue_cap: usize,
    /// Per-tenant admission bound.
    pub tenant_cap: usize,
    /// Largest accepted frame payload.
    pub max_frame_bytes: usize,
    /// How long a connection waits for its job's result before giving the
    /// client an ERROR (the job itself keeps running).
    pub reply_timeout: Duration,
    /// How long the drain waits for in-flight work before exiting 1.
    pub drain_timeout: Duration,
    /// Concurrent-connection cap; connection N+1 gets an explicit
    /// `SHED connections:` and a close, never a silent queue.
    pub max_connections: usize,
    /// Budget for one in-flight frame (and each write). A peer that
    /// cannot move one frame in this window is cut off.
    pub io_timeout: Duration,
    /// Budget for an idle connection to start its next request.
    pub idle_timeout: Duration,
    /// Free-space admission watermark for the database filesystem;
    /// 0 disables the check.
    pub min_free_bytes: u64,
    /// While degraded, at most one storage re-probe per this interval.
    pub probe_interval: Duration,
    /// Worker pool and per-job analysis tuning.
    pub worker: WorkerConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            unix_socket: None,
            tcp_addr: None,
            db_dir: PathBuf::from("hawkset-db"),
            metrics_path: None,
            queue_cap: 32,
            tenant_cap: 8,
            max_frame_bytes: 8 << 20,
            reply_timeout: Duration::from_secs(600),
            drain_timeout: Duration::from_secs(60),
            max_connections: 64,
            io_timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(300),
            min_free_bytes: 1 << 20,
            probe_interval: Duration::from_secs(2),
            worker: WorkerConfig::default(),
        }
    }
}

/// First signal: request drain. Second: immediate exit 130. The handler is
/// async-signal-safe — one atomic and (on the second hit) `_exit`.
mod signals {
    use std::sync::atomic::{AtomicU32, Ordering};

    static COUNT: AtomicU32 = AtomicU32::new(0);

    extern "C" fn on_signal(_sig: i32) {
        if COUNT.fetch_add(1, Ordering::SeqCst) >= 1 {
            #[cfg(unix)]
            {
                extern "C" {
                    fn _exit(code: i32) -> !;
                }
                unsafe { _exit(130) }
            }
        }
    }

    /// Installs the SIGINT/SIGTERM handler.
    #[cfg(unix)]
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
            signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        }
    }

    #[cfg(not(unix))]
    pub fn install() {
        let _ = on_signal as extern "C" fn(i32);
    }

    /// True once at least one signal arrived.
    pub fn drain_requested() -> bool {
        COUNT.load(Ordering::SeqCst) > 0
    }

    /// Test seam: simulate the first signal in-process.
    pub fn request_drain() {
        COUNT.fetch_add(1, Ordering::SeqCst);
    }
}

pub use signals::request_drain;

/// Shed line for a connection refused at the door. The `connections:`
/// prefix is machine-stable (the retry client keys on it); the shed is
/// counted in the connection books, not the submission conservation law.
const CONNECTION_SHED: &str = "connections: concurrent connection cap reached, retry later";

/// Shared connection-handler context.
struct Ctx {
    sched: Arc<Scheduler>,
    metrics: Arc<ServeMetrics>,
    health: Arc<StorageHealth>,
    /// Submissions committed whose RESULT/ERROR is not yet on the wire —
    /// the drain waits for this to reach zero before exiting 0.
    pending_replies: AtomicUsize,
    /// Live connection handlers (including one being rejected).
    active_conns: AtomicUsize,
    max_connections: usize,
    max_frame_bytes: usize,
    max_trace_bytes: Option<u64>,
    reply_timeout: Duration,
    io_timeout: Duration,
    idle_timeout: Duration,
}

/// Decrements the live-connection count when a handler exits, however it
/// exits.
struct ConnGuard<'a>(&'a AtomicUsize);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs the daemon until a signal drains it. `Err` is a startup failure
/// (the CLI maps it to exit 2); `Ok` carries the exit code per the
/// contract above.
pub fn run(cfg: &ServeConfig) -> Result<i32, String> {
    if cfg.unix_socket.is_none() && cfg.tcp_addr.is_none() {
        return Err("serve: no listener configured (need --socket and/or --tcp)".into());
    }
    signals::install();

    // Every durability-bearing write in the process goes through one
    // plane; a malformed fault script is a startup error, never a silent
    // fallback to real I/O.
    let plane = ioplane::plane_from_env().map_err(|e| format!("serve: {e}"))?;
    let db = RaceDb::open_with(&cfg.db_dir, plane.clone()).map_err(|e| format!("serve: {e}"))?;
    let rec = db.recovery();
    if rec.root_pointer_rebuilt || !rec.invalid_snapshots.is_empty() {
        eprintln!(
            "serve: recovered database at generation {} (root rebuilt: {}, invalid: {:?}, orphans: {:?})",
            db.stable().generation,
            rec.root_pointer_rebuilt,
            rec.invalid_snapshots,
            rec.orphans_removed,
        );
    }
    let metrics = Arc::new(ServeMetrics::new());
    metrics.snapshot_generation.set(db.stable().generation);
    let db = Arc::new(Mutex::new(db));
    let health = Arc::new(StorageHealth::new(
        &cfg.db_dir,
        plane.clone(),
        cfg.min_free_bytes,
        cfg.probe_interval,
    ));
    let sched = Arc::new(Scheduler::new(cfg.queue_cap, cfg.tenant_cap));
    let pool = WorkerPool::spawn(
        cfg.worker.clone(),
        sched.clone(),
        db.clone(),
        metrics.clone(),
        health.clone(),
    );
    let ctx = Arc::new(Ctx {
        sched: sched.clone(),
        metrics: metrics.clone(),
        health: health.clone(),
        pending_replies: AtomicUsize::new(0),
        active_conns: AtomicUsize::new(0),
        max_connections: cfg.max_connections.max(1),
        max_frame_bytes: cfg.max_frame_bytes,
        max_trace_bytes: cfg.worker.max_trace_bytes,
        reply_timeout: cfg.reply_timeout,
        io_timeout: cfg.io_timeout,
        idle_timeout: cfg.idle_timeout,
    });

    let stop_accepting = Arc::new(AtomicBool::new(false));
    let mut acceptors = Vec::new();
    let mut ready = String::from("serve: ready");

    if let Some(addr) = &cfg.tcp_addr {
        let listener = std::net::TcpListener::bind(addr)
            .map_err(|e| format!("serve: cannot bind tcp {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("serve: tcp local_addr: {e}"))?;
        ready.push_str(&format!(" tcp={local}"));
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("serve: tcp nonblocking: {e}"))?;
        let (ctx, stop) = (ctx.clone(), stop_accepting.clone());
        acceptors.push(
            std::thread::Builder::new()
                .name("hawkset-accept-tcp".into())
                .spawn(move || loop {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = stream.set_nonblocking(false);
                            spawn_conn(stream, ctx.clone());
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(25));
                        }
                        Err(_) => return,
                    }
                })
                .expect("spawn tcp acceptor"),
        );
    }

    #[cfg(unix)]
    if let Some(path) = &cfg.unix_socket {
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path)
            .map_err(|e| format!("serve: cannot bind unix socket {}: {e}", path.display()))?;
        ready.push_str(&format!(" unix={}", path.display()));
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("serve: unix nonblocking: {e}"))?;
        let (ctx, stop) = (ctx.clone(), stop_accepting.clone());
        acceptors.push(
            std::thread::Builder::new()
                .name("hawkset-accept-unix".into())
                .spawn(move || loop {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = stream.set_nonblocking(false);
                            spawn_conn(stream, ctx.clone());
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(25));
                        }
                        Err(_) => return,
                    }
                })
                .expect("spawn unix acceptor"),
        );
    }
    #[cfg(not(unix))]
    if cfg.unix_socket.is_some() {
        return Err("serve: unix sockets are not available on this platform".into());
    }

    ready.push_str(&format!(" db={}", cfg.db_dir.display()));
    // The readiness line is the startup contract: tests and supervisors
    // wait for it (and parse the ephemeral TCP port out of it).
    println!("{ready}");
    let _ = std::io::stdout().flush();

    // Steady state: wait for the first signal, keeping gauges fresh.
    while !signals::drain_requested() {
        metrics.queue_depth.set(sched.depth() as u64);
        refresh_storage_gauges(&metrics, &health);
        std::thread::sleep(Duration::from_millis(50));
    }

    // --- Drain sequence -------------------------------------------------
    eprintln!("serve: drain requested — admissions stopped");
    stop_accepting.store(true, Ordering::SeqCst);
    sched.begin_drain();
    for a in acceptors {
        let _ = a.join();
    }

    // Bounded wait for the pool: a stalled upload or a wedged job must
    // not hold the exit hostage forever.
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        pool.join();
        let _ = tx.send(());
    });
    let drained = match rx.recv_timeout(cfg.drain_timeout) {
        Ok(()) => true,
        Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => false,
    };
    if !drained {
        eprintln!(
            "serve: drain timed out after {:?}; exiting with work unresolved",
            cfg.drain_timeout
        );
    }

    // Wait for replies already earned to reach their sockets.
    let reply_deadline = Instant::now() + Duration::from_secs(5);
    while ctx.pending_replies.load(Ordering::SeqCst) > 0 && Instant::now() < reply_deadline {
        std::thread::sleep(Duration::from_millis(10));
    }

    // Final flush: residual working state (checkpoint cadence > 1)
    // becomes the last stable snapshot. A failure here is survivable —
    // recovery falls back to the last good generation — but it is
    // reported, and the poisoned generation is never reused.
    if drained {
        let mut db = lock_db(&db);
        if let Err(e) = db.checkpoint() {
            eprintln!("serve: final checkpoint failed: {e}");
        } else {
            metrics.snapshot_generation.set(db.stable().generation);
            metrics.snapshot_age_jobs.set(db.jobs_since_checkpoint());
        }
        metrics.poisoned_generations.set(db.poisoned_generations());
    }

    metrics.queue_depth.set(sched.depth() as u64);
    refresh_storage_gauges(&metrics, &health);
    let metrics_path = cfg
        .metrics_path
        .clone()
        .unwrap_or_else(|| cfg.db_dir.join("serve-metrics.json"));
    let snapshot = metrics.snapshot();
    if let Err(e) = ioplane::write_atomic(
        plane.as_ref(),
        "metrics",
        &metrics_path,
        snapshot.to_json().as_bytes(),
    ) {
        eprintln!(
            "serve: cannot write metrics {}: {e}",
            metrics_path.display()
        );
    }
    for v in snapshot.conservation_violations() {
        eprintln!("serve: metrics conservation violated: {v}");
    }

    #[cfg(unix)]
    if let Some(path) = &cfg.unix_socket {
        let _ = std::fs::remove_file(path);
    }
    eprintln!(
        "serve: drained (completed {} clean / {} racy, failed {}, shed {})",
        snapshot.outcomes.completed_clean,
        snapshot.outcomes.completed_races,
        snapshot.outcomes.failed,
        snapshot.shed.total,
    );
    Ok(if drained { 0 } else { 1 })
}

/// Pushes the storage-health counters into the metrics gauges.
fn refresh_storage_gauges(metrics: &ServeMetrics, health: &StorageHealth) {
    metrics
        .storage_degraded
        .set(u64::from(health.is_degraded()));
    metrics.storage_degraded_total.set(health.degraded_total());
    metrics.storage_healed_total.set(health.healed_total());
    metrics.storage_probes.set(health.probes());
}

/// Hands an accepted stream to its own handler thread.
fn spawn_conn<S: Transport + Send + 'static>(stream: S, ctx: Arc<Ctx>) {
    let _ = std::thread::Builder::new()
        .name("hawkset-conn".into())
        .spawn(move || serve_conn(stream, &ctx));
}

/// Connection front door: counts it, enforces the cap, wraps it in
/// deadlines, then runs the protocol loop.
fn serve_conn<S: Transport>(stream: S, ctx: &Ctx) {
    ctx.metrics.conn_accepted.add(1);
    let already = ctx.active_conns.fetch_add(1, Ordering::SeqCst);
    let _guard = ConnGuard(&ctx.active_conns);
    let mut stream = TimedStream::new(stream, ctx.io_timeout);
    if already >= ctx.max_connections {
        ctx.metrics.conn_rejected.add(1);
        let _ = reply(&mut stream, &Frame::new(FrameKind::Shed, CONNECTION_SHED));
        return;
    }
    handle_conn(&mut stream, ctx);
    if stream.timed_out() {
        ctx.metrics.conn_timeouts.add(1);
    }
}

/// Serves one connection until the peer hangs up, breaks protocol, or
/// runs out of frame budget.
fn handle_conn<S: Transport>(stream: &mut TimedStream<S>, ctx: &Ctx) {
    loop {
        // Between requests a connection may sit idle for a while; once
        // the first byte of the next frame is due, the whole frame must
        // land inside this budget.
        stream.start_frame(ctx.idle_timeout);
        let frame = match read_frame(stream, ctx.max_frame_bytes) {
            Ok(Some(f)) => f,
            Ok(None) => return,
            Err(_) => return,
        };
        match frame.kind {
            FrameKind::Ping => {
                if reply(stream, &Frame::empty(FrameKind::Pong)).is_err() {
                    return;
                }
            }
            FrameKind::Submit => {
                if !handle_submission(stream, ctx, frame.text()) {
                    return;
                }
            }
            other => {
                let _ = reply(
                    stream,
                    &Frame::new(
                        FrameKind::Error,
                        format!("protocol error: expected SUBMIT or PING, got {other:?}"),
                    ),
                );
                return;
            }
        }
    }
}

/// One SUBMIT → RESULT/SHED/ERROR round trip. Returns `false` when the
/// connection is no longer usable.
fn handle_submission<S: Transport>(stream: &mut TimedStream<S>, ctx: &Ctx, tenant: String) -> bool {
    if tenant.is_empty() || tenant.len() > 64 {
        // A malformed request, not admission pressure: answered with
        // ERROR and kept out of the submitted/admitted/shed books.
        return reply(
            stream,
            &Frame::new(FrameKind::Error, "tenant name must be 1..=64 bytes"),
        )
        .is_ok();
    }
    ctx.metrics.submitted.add(1);
    // Storage gate first: while the database is degraded to read-only the
    // daemon must not promise durability it cannot deliver, so the
    // submission is shed before it ever holds a queue slot. The check
    // itself re-probes (rate-limited) and heals — the request that finds
    // the disk healthy again is the first one admitted.
    if let Err(detail) = ctx.health.admission_check() {
        ctx.metrics.shed.add(1);
        ctx.metrics.shed_storage.add(1);
        refresh_storage_gauges(&ctx.metrics, &ctx.health);
        let line = format!("{} ({detail})", ShedReason::Storage.message());
        return reply(stream, &Frame::new(FrameKind::Shed, line)).is_ok();
    }
    refresh_storage_gauges(&ctx.metrics, &ctx.health);
    let res = match ctx.sched.reserve(&tenant) {
        Err(reason) => {
            ctx.metrics.shed.add(1);
            match reason {
                ShedReason::QueueFull => ctx.metrics.shed_queue_full.add(1),
                ShedReason::TenantCap => ctx.metrics.shed_tenant_cap.add(1),
                ShedReason::Draining => ctx.metrics.shed_draining.add(1),
                ShedReason::Storage => ctx.metrics.shed_storage.add(1),
            }
            return reply(stream, &Frame::new(FrameKind::Shed, reason.message())).is_ok();
        }
        Ok(res) => res,
    };
    ctx.metrics.admitted.add(1);
    if reply(stream, &Frame::new(FrameKind::Accepted, res.id.to_string())).is_err() {
        ctx.sched.abandon(res);
        ctx.metrics.failed.add(1);
        return false;
    }
    let bytes = match read_trace_body(stream, ctx) {
        Ok(bytes) => bytes,
        Err(msg) => {
            // The upload died or broke protocol: release the slot and
            // resolve the admitted submission as failed so the
            // conservation law still closes.
            ctx.sched.abandon(res);
            ctx.metrics.failed.add(1);
            let _ = reply(stream, &Frame::new(FrameKind::Error, msg));
            return false;
        }
    };
    let (tx, rx) = channel();
    ctx.pending_replies.fetch_add(1, Ordering::SeqCst);
    ctx.sched.commit(res, bytes, tx);
    ctx.metrics.queue_depth.set(ctx.sched.depth() as u64);
    let outcome = rx.recv_timeout(ctx.reply_timeout);
    let ok = match outcome {
        Ok(JobReply::Done { clean, report_json }) => {
            let mut payload = Vec::with_capacity(report_json.len() + 1);
            payload.push(u8::from(!clean));
            payload.extend_from_slice(report_json.as_bytes());
            reply(stream, &Frame::new(FrameKind::Result, payload)).is_ok()
        }
        Ok(JobReply::Failed { message }) => {
            reply(stream, &Frame::new(FrameKind::Error, message)).is_ok()
        }
        Err(_) => reply(
            stream,
            &Frame::new(
                FrameKind::Error,
                "timed out waiting for the job result; the job may still complete",
            ),
        )
        .is_ok(),
    };
    ctx.pending_replies.fetch_sub(1, Ordering::SeqCst);
    ok
}

/// Reads `DATA*` + `END` into the submission's byte stream. An upload is
/// in flight, so every frame runs on the tight `io_timeout` budget — the
/// slot being held is exactly what a slowloris upload would hostage.
fn read_trace_body<S: Transport>(
    stream: &mut TimedStream<S>,
    ctx: &Ctx,
) -> Result<Vec<u8>, String> {
    let mut bytes = Vec::new();
    loop {
        stream.start_frame(ctx.io_timeout);
        match read_frame(stream, ctx.max_frame_bytes) {
            Ok(Some(f)) if f.kind == FrameKind::Data => {
                bytes.extend_from_slice(&f.payload);
                if let Some(limit) = ctx.max_trace_bytes {
                    if bytes.len() as u64 > limit {
                        return Err(format!("trace exceeds the {limit}-byte submission limit"));
                    }
                }
            }
            Ok(Some(f)) if f.kind == FrameKind::End => return Ok(bytes),
            Ok(Some(f)) => {
                return Err(format!(
                    "protocol error: expected DATA or END mid-upload, got {:?}",
                    f.kind
                ))
            }
            Ok(None) => return Err("connection closed mid-upload".into()),
            Err(e) => return Err(format!("upload failed: {e}")),
        }
    }
}

fn reply<S: std::io::Read + Write>(stream: &mut S, frame: &Frame) -> std::io::Result<()> {
    write_frame(stream, frame)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::{self, Read};

    /// A handler context with no worker pool behind it: valid submissions
    /// time out quickly with an ERROR instead of hanging the test.
    fn fuzz_ctx() -> Ctx {
        let plane: Arc<dyn hawkset_core::IoPlane> = Arc::new(hawkset_core::RealIo);
        Ctx {
            sched: Arc::new(Scheduler::new(4, 2)),
            metrics: Arc::new(ServeMetrics::new()),
            health: Arc::new(StorageHealth::new(
                &std::env::temp_dir(),
                plane,
                0,
                Duration::from_millis(10),
            )),
            pending_replies: AtomicUsize::new(0),
            active_conns: AtomicUsize::new(0),
            max_connections: 4,
            max_frame_bytes: 1 << 16,
            max_trace_bytes: Some(1 << 16),
            reply_timeout: Duration::from_millis(50),
            io_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(5),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary bytes on the wire: the handler must return (input is
        /// finite) and must not panic. Whatever it wrote back must parse
        /// as server frames.
        #[test]
        fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _frames = drive_shared(data);
        }

        /// Structured garbage: a syntactically valid frame header with a
        /// random kind and payload. Server-only kinds arriving from a
        /// client must yield ERROR or a clean close, never a panic.
        #[test]
        fn random_valid_frames_yield_error_or_close(
            kind in 0u8..=0x90,
            payload in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut wire = vec![kind];
            wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            wire.extend_from_slice(&payload);
            let frames = drive_shared(wire);
            for f in &frames {
                prop_assert!(
                    matches!(
                        f.kind,
                        FrameKind::Error
                            | FrameKind::Pong
                            | FrameKind::Shed
                            | FrameKind::Accepted
                    ),
                    "unexpected reply kind {:?}",
                    f.kind
                );
            }
        }
    }

    /// Shared-buffer variant of the mock so the test can read replies
    /// after the handler consumed the stream.
    struct SharedMock {
        input: io::Cursor<Vec<u8>>,
        out: std::sync::Arc<Mutex<Vec<u8>>>,
    }

    impl Read for SharedMock {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.input.read(buf)
        }
    }
    impl Write for SharedMock {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.out
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    impl Transport for SharedMock {
        fn set_read_timeout(&self, _d: Option<Duration>) -> io::Result<()> {
            Ok(())
        }
        fn set_write_timeout(&self, _d: Option<Duration>) -> io::Result<()> {
            Ok(())
        }
    }

    fn drive_shared(raw_client_bytes: Vec<u8>) -> Vec<Frame> {
        let ctx = fuzz_ctx();
        let out = std::sync::Arc::new(Mutex::new(Vec::new()));
        let mock = SharedMock {
            input: io::Cursor::new(raw_client_bytes),
            out: out.clone(),
        };
        let mut stream = TimedStream::new(mock, Duration::from_secs(5));
        handle_conn(&mut stream, &ctx);
        let bytes = out
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        let mut cursor = io::Cursor::new(bytes);
        let mut frames = Vec::new();
        while let Ok(Some(f)) = read_frame(&mut cursor, 64 << 20) {
            frames.push(f);
        }
        frames
    }

    #[test]
    fn truncated_header_is_a_clean_close() {
        // One valid type byte, then EOF mid-length-prefix.
        let frames = drive_shared(vec![0x01, 0x00]);
        assert!(frames.is_empty(), "no reply owed for a truncated header");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocation() {
        let mut wire = vec![0x01];
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        let frames = drive_shared(wire);
        // The frame layer refuses the length before reading the payload;
        // the connection closes with no reply or an ERROR, never a panic.
        for f in &frames {
            assert_eq!(f.kind, FrameKind::Error);
        }
    }

    #[test]
    fn data_before_submit_is_a_protocol_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::new(FrameKind::Data, vec![1, 2, 3])).unwrap();
        let frames = drive_shared(wire);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].kind, FrameKind::Error);
        assert!(frames[0].text().contains("protocol error"));
    }

    #[test]
    fn ping_still_answers_then_garbage_closes() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::empty(FrameKind::Ping)).unwrap();
        wire.extend_from_slice(&[0xff, 0xff, 0xff]);
        let frames = drive_shared(wire);
        assert_eq!(frames[0].kind, FrameKind::Pong);
    }

    #[test]
    fn over_cap_connection_is_shed_at_the_door() {
        let ctx = fuzz_ctx();
        // Saturate the counter as if max_connections handlers were live.
        ctx.active_conns
            .store(ctx.max_connections, Ordering::SeqCst);
        let out = std::sync::Arc::new(Mutex::new(Vec::new()));
        let mock = SharedMock {
            input: io::Cursor::new(Vec::new()),
            out: out.clone(),
        };
        serve_conn(mock, &ctx);
        let bytes = out.lock().unwrap().clone();
        let mut cursor = io::Cursor::new(bytes);
        let f = read_frame(&mut cursor, 1 << 20).unwrap().unwrap();
        assert_eq!(f.kind, FrameKind::Shed);
        assert!(f.text().starts_with("connections:"));
        assert_eq!(ctx.metrics.conn_rejected.get(), 1);
        assert_eq!(ctx.metrics.conn_accepted.get(), 1);
        // The guard released its own slot; the pre-loaded ones remain.
        assert_eq!(ctx.active_conns.load(Ordering::SeqCst), ctx.max_connections);
    }
}
