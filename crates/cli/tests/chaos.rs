//! Chaos suite: the real daemon under scripted storage faults and hostile
//! clients.
//!
//! Every test here drives the released binary end to end — real sockets,
//! real database directory — with faults injected through the
//! `HAWKSET_IO_FAULT_SCRIPT` deterministic I/O plane (see
//! `hawkset_core::ioplane`). The properties under test are the hostile-
//! environment contract:
//!
//! * no fault schedule ever panics the daemon; drains still exit 0;
//! * a checkpoint the storage ate is rolled back and reported (`ERROR
//!   storage failure`), never silently half-applied;
//! * while degraded the daemon sheds with the machine-stable `storage:`
//!   prefix, keeps serving PING/query, and self-heals via re-probes;
//! * recovery after a poisoned generation converges **byte-for-byte**
//!   with a never-faulted run;
//! * a slowloris peer is cut off by the per-frame deadline without
//!   delaying a concurrent healthy tenant, and the connection cap sheds
//!   explicitly.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn hawkset() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hawkset"))
}

fn demo_trace(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("hawkset-chaos-{name}.hwkt"));
    let out = hawkset()
        .args(["demo", path.to_str().unwrap()])
        .output()
        .expect("spawn demo");
    assert!(out.status.success());
    path
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hawkset-chaos-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A running daemon with stderr teed to a file so tests can assert the
/// absence of panics after the fact.
struct Daemon {
    child: Child,
    tcp: String,
    stderr_path: PathBuf,
}

impl Daemon {
    fn start(db: &Path, extra_args: &[&str], envs: &[(&str, &str)]) -> Daemon {
        let stderr_path = std::env::temp_dir().join(format!(
            "hawkset-chaos-stderr-{}-{:?}.log",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let stderr_file = std::fs::File::create(&stderr_path).expect("stderr log");
        let mut cmd = hawkset();
        cmd.args([
            "serve",
            "--tcp",
            "127.0.0.1:0",
            "--db",
            db.to_str().unwrap(),
        ])
        .args(extra_args)
        .stdout(Stdio::piped())
        .stderr(Stdio::from(stderr_file));
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("spawn daemon");
        let stdout = child.stdout.take().expect("daemon stdout piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read readiness line");
        assert!(
            line.starts_with("serve: ready"),
            "unexpected readiness line: {line:?}"
        );
        let tcp = line
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("tcp="))
            .expect("readiness line carries the bound tcp address")
            .to_string();
        Daemon {
            child,
            tcp,
            stderr_path,
        }
    }

    fn sigterm(&self) {
        let rc = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("kill spawns");
        assert!(rc.success());
    }

    /// SIGTERM, assert exit 0, assert the daemon never panicked, and
    /// return its stderr for further assertions.
    fn drain(mut self) -> String {
        self.sigterm();
        let status = self.child.wait().expect("wait daemon");
        let stderr = std::fs::read_to_string(&self.stderr_path).unwrap_or_default();
        assert_eq!(
            status.code(),
            Some(0),
            "graceful drain exits 0; stderr:\n{stderr}"
        );
        assert!(
            !stderr.contains("panicked at"),
            "daemon must never panic under injected faults:\n{stderr}"
        );
        stderr
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.stderr_path);
    }
}

fn submit_args(tcp: &str, tenant: &str, trace: &Path, extra: &[&str]) -> (i32, String, String) {
    let out = hawkset()
        .args([
            "submit",
            "--tcp",
            tcp,
            "--tenant",
            tenant,
            trace.to_str().unwrap(),
        ])
        .args(extra)
        .output()
        .expect("spawn submit");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn submit(tcp: &str, tenant: &str, trace: &Path) -> (i32, String, String) {
    submit_args(tcp, tenant, trace, &[])
}

fn query_json(db: &Path) -> Vec<u8> {
    let out = hawkset()
        .args(["query", "--json", "--db", db.to_str().unwrap()])
        .output()
        .expect("spawn query");
    assert!(
        out.status.success(),
        "query failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn metrics_json(db: &Path) -> serde_json::Value {
    let bytes = std::fs::read(db.join("serve-metrics.json")).expect("metrics file written");
    serde_json::from_slice(&bytes).expect("metrics file is valid JSON")
}

/// The three conservation laws, including the `storage` shed cause.
fn assert_conservation(m: &serde_json::Value) {
    let n = |v: &serde_json::Value| v.as_u64().expect("numeric metric");
    assert_eq!(
        n(&m["submitted"]),
        n(&m["admitted"]) + n(&m["shed"]["total"]),
        "submitted = admitted + shed: {m:?}"
    );
    assert_eq!(
        n(&m["admitted"]),
        n(&m["outcomes"]["completed_clean"])
            + n(&m["outcomes"]["completed_races"])
            + n(&m["outcomes"]["failed"])
            + n(&m["in_flight"]),
        "admitted = resolved + in_flight: {m:?}"
    );
    assert_eq!(
        n(&m["shed"]["total"]),
        n(&m["shed"]["queue_full"])
            + n(&m["shed"]["tenant_cap"])
            + n(&m["shed"]["draining"])
            + n(&m["shed"]["storage"]),
        "shed total = causes: {m:?}"
    );
}

/// Stable-snapshot JSON with the fields that legitimately differ after a
/// poisoned generation stripped: generation numbers are *burned*, never
/// reused, so a daemon that survived an eaten checkpoint ends on a higher
/// generation than a never-faulted one — by design. The content (records,
/// occurrences, tenants, jobs) must still match exactly.
fn semantic_snapshot(db: &Path) -> (serde_json::Value, serde_json::Value, serde_json::Value) {
    let v: serde_json::Value = serde_json::from_slice(&query_json(db)).expect("snapshot JSON");
    (
        v["version"].clone(),
        v["jobs_recorded"].clone(),
        v["records"].clone(),
    )
}

// --- framed-protocol helpers for the hostile clients ----------------------

fn write_raw_frame(stream: &mut TcpStream, kind: u8, payload: &[u8]) {
    let mut buf = vec![kind];
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    stream.write_all(&buf).expect("write frame");
    stream.flush().expect("flush");
}

/// Reads one frame; `None` on clean EOF.
fn read_raw_frame(stream: &mut TcpStream) -> Option<(u8, Vec<u8>)> {
    let mut head = [0u8; 5];
    let mut got = 0;
    while got < head.len() {
        match stream.read(&mut head[got..]) {
            Ok(0) => return None,
            Ok(n) => got += n,
            Err(e) => panic!("read frame header: {e}"),
        }
    }
    let len = u32::from_le_bytes(head[1..5].try_into().unwrap()) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).expect("read frame payload");
    Some((head[0], payload))
}

// --- the tests ------------------------------------------------------------

/// An ENOSPC that eats the root swap: the job fails with an explicit
/// storage error, the daemon degrades and sheds `storage:`, a retrying
/// client rides the backoff through the degraded window, and the daemon
/// self-heals — all in one process lifetime, with the books balanced.
#[test]
fn enospc_checkpoint_degrades_sheds_storage_and_self_heals() {
    let trace = demo_trace("enospc");
    let db = fresh_dir("enospc");
    // Occurrence 0 of (current, rename) is the open-time bootstrap;
    // occurrence 1 is the first job's durability swap.
    let daemon = Daemon::start(
        &db,
        &["--probe-interval-ms", "3000"],
        &[("HAWKSET_IO_FAULT_SCRIPT", "current:rename:1:enospc")],
    );

    // Job 1: analysis succeeds, the checkpoint does not. The client must
    // hear a storage error, not a RESULT that lies about durability.
    let (code, out, err) = submit(&daemon.tcp, "tenant-a", &trace);
    assert_eq!(code, 2, "stdout:\n{out}\nstderr:\n{err}");
    assert!(err.contains("storage failure"), "stderr:\n{err}");
    assert!(err.contains("resubmit"), "stderr:\n{err}");

    // Job 2 with retries: the first attempt lands inside the degraded
    // window and is shed `storage:`; backoff carries it past the probe
    // interval, the probe heals the daemon, and the resubmission wins.
    let (code, out, err) = submit_args(
        &daemon.tcp,
        "tenant-a",
        &trace,
        &["--retries", "10", "--retry-max-ms", "500"],
    );
    assert_eq!(
        code, 1,
        "retrying submission must outlive the degraded window\nstdout:\n{out}\nstderr:\n{err}"
    );

    let stderr = daemon.drain();
    assert!(
        stderr.contains("storage degraded to read-only"),
        "daemon logs the transition:\n{stderr}"
    );
    assert!(
        stderr.contains("storage healed"),
        "daemon logs the heal:\n{stderr}"
    );

    let m = metrics_json(&db);
    assert_conservation(&m);
    assert!(
        m["shed"]["storage"].as_u64().unwrap() >= 1,
        "degraded window shed with the storage cause: {m:?}"
    );
    assert_eq!(m["storage"]["degraded"], false);
    assert!(m["storage"]["degraded_total"].as_u64().unwrap() >= 1);
    assert!(m["storage"]["healed_total"].as_u64().unwrap() >= 1);
    assert!(m["storage"]["poisoned_generations"].as_u64().unwrap() >= 1);

    // Rollback correctness: job 1 was rolled back before its resubmission,
    // so the surviving database holds exactly one occurrence — identical
    // in content to a never-faulted single submission.
    let db_ref = fresh_dir("enospc-ref");
    let daemon = Daemon::start(&db_ref, &[], &[]);
    let (code, _, err) = submit(&daemon.tcp, "tenant-a", &trace);
    assert_eq!(code, 1, "stderr:\n{err}");
    daemon.drain();
    assert_eq!(
        semantic_snapshot(&db),
        semantic_snapshot(&db_ref),
        "rollback + retry must converge with a never-faulted run"
    );
}

/// fsyncgate: a generation whose fsync failed is of unknowable durability.
/// It is poisoned — removed, its number burned — and after a restart the
/// database converges **byte-for-byte** (generation included) with a run
/// that never saw the fault.
#[test]
fn failed_fsync_poisons_the_generation_and_restart_converges_byte_for_byte() {
    let trace = demo_trace("fsyncgate");
    let db = fresh_dir("fsyncgate");
    let daemon = Daemon::start(
        &db,
        &[],
        &[("HAWKSET_IO_FAULT_SCRIPT", "snapshot:fsync:1:eio")],
    );

    let (code, _, err) = submit(&daemon.tcp, "tenant-a", &trace);
    assert_eq!(code, 2, "the eaten fsync must fail the job; stderr:\n{err}");
    assert!(err.contains("storage failure"), "stderr:\n{err}");
    daemon.drain();

    let m = metrics_json(&db);
    assert_conservation(&m);
    assert_eq!(m["storage"]["poisoned_generations"], 1u64);
    assert_eq!(m["storage"]["degraded"], true, "no heal happened: {m:?}");

    // The poisoned generation file must not be trusted — or present.
    assert!(
        !db.join("snapshot-000001.json").exists(),
        "a generation that failed fsync is removed, never retried in place"
    );

    // Restart without the fault script: recovery lands on the bootstrap
    // generation, the resubmission goes through, and the result is
    // byte-for-byte what an unfaulted daemon produces.
    let daemon = Daemon::start(&db, &[], &[]);
    let before: serde_json::Value =
        serde_json::from_slice(&query_json(&db)).expect("snapshot JSON");
    assert_eq!(
        before["jobs_recorded"], 0u64,
        "rollback held across restart"
    );
    let (code, _, err) = submit(&daemon.tcp, "tenant-a", &trace);
    assert_eq!(code, 1, "stderr:\n{err}");
    daemon.drain();

    let db_ref = fresh_dir("fsyncgate-ref");
    let daemon = Daemon::start(&db_ref, &[], &[]);
    let (code, _, err) = submit(&daemon.tcp, "tenant-a", &trace);
    assert_eq!(code, 1, "stderr:\n{err}");
    daemon.drain();

    assert_eq!(
        String::from_utf8_lossy(&query_json(&db)),
        String::from_utf8_lossy(&query_json(&db_ref)),
        "post-restart database must converge byte-for-byte"
    );
}

/// The full fault matrix: every kind at every durability site. For each
/// schedule the daemon must (a) never panic, (b) answer the faulted
/// submission with a verdict (RESULT if the fault was survivable, an
/// explicit storage ERROR if not — never a hang or a lie), (c) admit a
/// retrying follow-up once healed, (d) drain to exit 0 with balanced
/// books, and (e) restart into a queryable, writable database.
#[test]
fn fault_schedule_sweep_never_panics_and_recovers() {
    let trace = demo_trace("sweep");
    let schedules = [
        "snapshot:write:1:enospc",
        "snapshot:write:1:short",
        "snapshot:write:1:torn",
        "snapshot:fsync:1:eio",
        "snapshot:dirsync:1:eio",
        "snapshot:rename:1:eio",
        "current:write:1:torn",
        "current:fsync:1:eio",
        "current:rename:1:enospc",
        // The metrics site is only written at drain, so its first-ever
        // occurrence is the one to fault.
        "metrics:write:0:enospc",
    ];
    for (i, schedule) in schedules.iter().enumerate() {
        let db = fresh_dir(&format!("sweep-{i}"));
        let daemon = Daemon::start(
            &db,
            &["--probe-interval-ms", "200"],
            &[("HAWKSET_IO_FAULT_SCRIPT", schedule)],
        );

        // The faulted submission: either the fault was invisible to
        // durability (torn CURRENT is absorbed by recovery; the metrics
        // fault only matters at drain) and the job completes (1), or
        // durability failed and the client is told so (2). Never a shed
        // (the daemon was healthy at admission), never a hang.
        let (code, out, err) = submit(&daemon.tcp, "tenant-a", &trace);
        assert!(
            code == 1 || code == 2,
            "schedule {schedule}: unexpected exit {code}\nstdout:\n{out}\nstderr:\n{err}"
        );
        if code == 2 {
            assert!(
                err.contains("storage failure"),
                "schedule {schedule}: failure must name storage:\n{err}"
            );
        }

        // A retrying client always gets through eventually: the schedule
        // is one-shot, so a probe (at most 200ms away) heals the daemon.
        let (code, out, err) = submit_args(
            &daemon.tcp,
            "tenant-a",
            &trace,
            &["--retries", "10", "--retry-max-ms", "300"],
        );
        assert_eq!(
            code, 1,
            "schedule {schedule}: retry must land\nstdout:\n{out}\nstderr:\n{err}"
        );

        daemon.drain();

        // Restart clean: recovery must produce a queryable database that
        // still accepts work, whatever the schedule left on disk.
        let daemon = Daemon::start(&db, &[], &[]);
        let (code, _, err) = submit(&daemon.tcp, "tenant-b", &trace);
        assert_eq!(code, 1, "schedule {schedule}: post-restart submit\n{err}");
        daemon.drain();

        let m = metrics_json(&db);
        assert_conservation(&m);
        std::fs::remove_dir_all(&db).ok();
    }
}

/// Slowloris: a client that stalls mid-upload is disconnected by the
/// per-frame deadline while a healthy tenant submitted *after* it
/// completes normally — the stall consumes a queue slot for at most one
/// frame budget, nothing else.
#[test]
fn slowloris_upload_is_cut_off_without_delaying_a_healthy_tenant() {
    let trace = demo_trace("slowloris");
    let db = fresh_dir("slowloris");
    let daemon = Daemon::start(&db, &["--io-timeout-ms", "400"], &[]);

    // The hostile half: SUBMIT, get ACCEPTED (slot held), start a DATA
    // frame claiming 4096 bytes, deliver 3, stall.
    let mut loris = TcpStream::connect(&daemon.tcp).expect("connect slowloris");
    write_raw_frame(&mut loris, 0x01, b"loris");
    let (kind, _) = read_raw_frame(&mut loris).expect("admission verdict");
    assert_eq!(kind, 0x81, "slowloris submission is admitted");
    let mut partial = vec![0x02u8];
    partial.extend_from_slice(&4096u32.to_le_bytes());
    partial.extend_from_slice(&[7, 7, 7]);
    loris.write_all(&partial).expect("write partial frame");
    loris.flush().expect("flush");
    let stalled_at = Instant::now();

    // The healthy half, concurrent with the stall: completes normally.
    let (code, out, err) = submit(&daemon.tcp, "tenant-good", &trace);
    assert_eq!(
        code, 1,
        "healthy tenant must not be delayed by the stalled upload\nstdout:\n{out}\nstderr:\n{err}"
    );

    // The daemon cuts the slowloris off within the frame budget: an
    // ERROR frame (upload failed) and/or EOF, well before the idle
    // timeout would ever fire.
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut saw_error = false;
    while let Some((kind, payload)) = read_raw_frame(&mut loris) {
        if kind == 0x84 {
            saw_error = true;
            let msg = String::from_utf8_lossy(&payload).into_owned();
            assert!(
                msg.contains("upload failed"),
                "error names the upload: {msg}"
            );
        }
    }
    assert!(
        saw_error,
        "the cut-off is an explicit ERROR, not a silent drop"
    );
    assert!(
        stalled_at.elapsed() < Duration::from_secs(8),
        "cut-off must come from the 400ms frame budget, not a long timeout"
    );
    drop(loris);

    daemon.drain();
    let m = metrics_json(&db);
    assert_conservation(&m);
    assert!(
        m["connections"]["timed_out"].as_u64().unwrap() >= 1,
        "the slowloris disconnect is accounted: {m:?}"
    );
    // The abandoned upload resolves as failed, so the submission books
    // still close: 2 submitted (loris + healthy), 2 admitted, 1 failed.
    assert_eq!(m["submitted"], 2u64);
    assert_eq!(m["outcomes"]["failed"], 1u64);
    assert_eq!(m["outcomes"]["completed_races"], 1u64);
}

/// The connection cap sheds at the door with the machine-stable
/// `connections:` prefix — outside the submission books, since no SUBMIT
/// was ever read — and a slot freed by a disconnect is reusable at once.
#[test]
fn connection_cap_sheds_explicitly_and_frees_on_disconnect() {
    let trace = demo_trace("conncap");
    let db = fresh_dir("conncap");
    let daemon = Daemon::start(&db, &["--max-connections", "1"], &[]);

    // Connection 1 holds the only slot, idle.
    let holder = TcpStream::connect(&daemon.tcp).expect("connect holder");
    std::thread::sleep(Duration::from_millis(300));

    // Connection 2 is shed at the door with an explicit frame.
    let mut refused = TcpStream::connect(&daemon.tcp).expect("connect refused");
    let (kind, payload) = read_raw_frame(&mut refused).expect("shed frame");
    assert_eq!(kind, 0x82, "over-cap peers get SHED");
    let reason = String::from_utf8_lossy(&payload).into_owned();
    assert!(reason.starts_with("connections:"), "{reason}");
    assert!(
        read_raw_frame(&mut refused).is_none(),
        "the shed connection is closed"
    );

    // Freeing the slot makes the very next submission land.
    drop(holder);
    std::thread::sleep(Duration::from_millis(300));
    let (code, out, err) = submit(&daemon.tcp, "tenant-a", &trace);
    assert_eq!(code, 1, "stdout:\n{out}\nstderr:\n{err}");

    daemon.drain();
    let m = metrics_json(&db);
    assert_conservation(&m);
    assert!(m["connections"]["rejected"].as_u64().unwrap() >= 1);
    // The cap shed never touched the submission law: only the one real
    // submission is on the books.
    assert_eq!(m["submitted"], 1u64);
}

// --- the CLI's own durable files under the fault plane --------------------

/// Asserts `dir` holds no `*.tmp` left behind by a failed atomic write.
fn assert_no_tmp(dir: &Path) {
    let leftovers: Vec<_> = std::fs::read_dir(dir)
        .expect("read test dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );
}

fn crashtest_cmd(ck: &Path, ck_flag: &str) -> Command {
    let mut cmd = hawkset();
    cmd.args([
        "crashtest",
        "fast-fair",
        "--rounds",
        "3",
        "--ops",
        "30",
        "--crash-points",
        "2",
        "--json",
        ck_flag,
        ck.to_str().unwrap(),
    ]);
    cmd
}

/// A campaign checkpoint whose second fsync fails: the campaign stops with
/// exit 2 naming the checkpoint, the committed checkpoint (round 0) still
/// loads, and `--resume` finishes the campaign from it.
#[test]
fn failed_campaign_checkpoint_fsync_stops_the_campaign_and_resume_completes_it() {
    let dir = fresh_dir("campaign-ck");
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("ck.json");
    let out = crashtest_cmd(&ck, "--checkpoint")
        .env("HAWKSET_IO_FAULT_SCRIPT", "checkpoint:fsync:1:eio")
        .output()
        .expect("spawn crashtest");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{err}");
    assert!(
        err.contains(ck.to_str().unwrap()),
        "names the checkpoint:\n{err}"
    );
    assert_no_tmp(&dir);
    let committed: serde_json::Value =
        serde_json::from_slice(&std::fs::read(&ck).expect("committed checkpoint kept"))
            .expect("committed checkpoint loads");
    let rounds: Vec<u64> = committed["completed"]
        .as_array()
        .expect("completed rounds")
        .iter()
        .map(|r| r["round"].as_u64().unwrap())
        .collect();
    assert_eq!(rounds, [0], "only round 0 was committed");

    let out = crashtest_cmd(&ck, "--resume")
        .output()
        .expect("spawn resume");
    assert!(
        matches!(out.status.code(), Some(0 | 1)),
        "resume completes; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("campaign JSON");
    assert_eq!(report["completed"].as_array().unwrap().len(), 3);
    assert_no_tmp(&dir);
    std::fs::remove_dir_all(&dir).ok();
}

/// Every analysis checkpoint fsync fails: the loss is a warning, and the
/// run still reports its race with exit 1.
#[test]
fn failed_analysis_checkpoint_fsync_warns_and_still_reports() {
    let trace = demo_trace("analyze-ck");
    let dir = fresh_dir("analyze-ck");
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("run.ck");
    let out = hawkset()
        .args([
            "analyze",
            "--json",
            "--checkpoint",
            ck.to_str().unwrap(),
            "--checkpoint-every",
            "1",
            trace.to_str().unwrap(),
        ])
        .env("HAWKSET_IO_FAULT_SCRIPT", "checkpoint:fsync:*:eio")
        .output()
        .expect("spawn analyze");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{err}");
    assert!(err.contains("warning: checkpoint write"), "stderr:\n{err}");
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("report JSON");
    assert_eq!(report["races"].as_array().unwrap().len(), 1);
    assert_no_tmp(&dir);
    std::fs::remove_dir_all(&dir).ok();
}

/// A metrics file whose directory fsync fails is not durable: under the
/// default strictness that is an I/O error, exit 2.
#[test]
fn failed_metrics_dirsync_exits_2() {
    let trace = demo_trace("analyze-metrics");
    let dir = fresh_dir("analyze-metrics");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("metrics.json");
    let out = hawkset()
        .args([
            "analyze",
            "--metrics",
            metrics.to_str().unwrap(),
            trace.to_str().unwrap(),
        ])
        .env("HAWKSET_IO_FAULT_SCRIPT", "metrics:dirsync:0:eio")
        .output()
        .expect("spawn analyze");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{err}");
    assert!(err.contains("cannot write metrics"), "stderr:\n{err}");
    assert_no_tmp(&dir);
    std::fs::remove_dir_all(&dir).ok();
}

/// A malformed fault script is a usage error for every command that
/// resolves the plane — a chaos run must never go silently fault-free —
/// and the refused run writes nothing.
#[test]
fn malformed_fault_script_exits_2_from_analyze_and_crashtest() {
    let trace = demo_trace("bad-script");
    let dir = fresh_dir("bad-script");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("metrics.json");
    let ck = dir.join("ck.json");
    for args in [
        vec![
            "analyze",
            "--metrics",
            metrics.to_str().unwrap(),
            trace.to_str().unwrap(),
        ],
        vec![
            "crashtest",
            "fast-fair",
            "--rounds",
            "1",
            "--ops",
            "10",
            "--checkpoint",
            ck.to_str().unwrap(),
        ],
    ] {
        let out = hawkset()
            .args(&args)
            .env("HAWKSET_IO_FAULT_SCRIPT", "checkpoint:fsync:1")
            .output()
            .expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr:\n{err}");
        assert!(err.contains("HAWKSET_IO_FAULT_SCRIPT"), "{args:?}: {err}");
    }
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "no file, final or temporary, is written"
    );
    std::fs::remove_dir_all(&dir).ok();
}
