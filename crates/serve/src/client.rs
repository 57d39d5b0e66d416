//! Minimal submission client: one blocking round trip over any stream.
//!
//! Used by `hawkset submit`, the CI smoke step, and the e2e tests. The
//! protocol is strictly sequential per connection, so the client is a
//! straight-line function — no state machine.

use std::io::{self, Read, Write};
use std::time::Duration;

use hawkset_core::supervise::Backoff;

use crate::frame::{read_frame, write_frame, Frame, FrameKind};

/// Size of one DATA frame's payload when streaming a trace.
pub const DATA_CHUNK: usize = 256 * 1024;

/// Bound on server reply payloads (reports can be large; traces are not
/// echoed back).
const MAX_REPLY: usize = 64 << 20;

/// Outcome of one submission round trip.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The job ran to completion; findings are durable server-side.
    Done {
        /// Job id assigned at admission.
        job_id: String,
        /// No races reported.
        clean: bool,
        /// Schema-v1 report JSON.
        report_json: String,
    },
    /// The daemon refused the submission (backpressure) — retry later.
    Shed {
        /// The daemon's reason line (leading token is machine-stable).
        reason: String,
    },
    /// The daemon accepted but the job failed (or the protocol did).
    Error {
        /// Job id when the failure happened after admission.
        job_id: Option<String>,
        /// The daemon's message.
        message: String,
    },
}

/// Submits one trace as `tenant` over an established stream and blocks for
/// the verdict. The caller owns connection setup (unix vs TCP) and
/// timeouts (socket read timeouts surface as `Err`).
pub fn submit<S: Read + Write>(
    stream: &mut S,
    tenant: &str,
    trace: &[u8],
) -> io::Result<SubmitOutcome> {
    write_frame(
        stream,
        &Frame::new(FrameKind::Submit, tenant.as_bytes().to_vec()),
    )?;
    stream.flush()?;
    let verdict = expect_frame(stream)?;
    let job_id = match verdict.kind {
        FrameKind::Accepted => verdict.text(),
        FrameKind::Shed => {
            return Ok(SubmitOutcome::Shed {
                reason: verdict.text(),
            })
        }
        FrameKind::Error => {
            return Ok(SubmitOutcome::Error {
                job_id: None,
                message: verdict.text(),
            })
        }
        other => {
            return Err(protocol_err(format!(
                "expected ACCEPTED/SHED, got {other:?}"
            )))
        }
    };
    for chunk in trace.chunks(DATA_CHUNK.max(1)) {
        write_frame(stream, &Frame::new(FrameKind::Data, chunk.to_vec()))?;
    }
    write_frame(stream, &Frame::empty(FrameKind::End))?;
    stream.flush()?;
    let result = expect_frame(stream)?;
    match result.kind {
        FrameKind::Result => {
            let (status, json) = result
                .payload
                .split_first()
                .ok_or_else(|| protocol_err("empty RESULT payload".into()))?;
            Ok(SubmitOutcome::Done {
                job_id,
                clean: *status == 0,
                report_json: String::from_utf8_lossy(json).into_owned(),
            })
        }
        FrameKind::Error => Ok(SubmitOutcome::Error {
            job_id: Some(job_id),
            message: result.text(),
        }),
        other => Err(protocol_err(format!(
            "expected RESULT/ERROR, got {other:?}"
        ))),
    }
}

/// How [`submit_with_retry`] behaves between attempts.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 = behave like [`submit`]).
    pub retries: u32,
    /// Sleep before each retry.
    pub backoff: Backoff,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            retries: 5,
            backoff: Backoff {
                start: Duration::from_millis(100),
                cap: Duration::from_secs(5),
            },
        }
    }
}

/// Shed-reason prefixes worth retrying. Backpressure (`queue-full:`,
/// `tenant-cap:`, `connections:`) and degraded storage (`storage:`) clear
/// on their own; `draining:` clears when a replacement daemon takes the
/// socket — and every attempt dials a fresh connection, so the retry lands
/// on whoever is listening then. Anything unrecognized is terminal: a
/// reason this client cannot reason about must surface, not spin.
fn shed_is_retryable(reason: &str) -> bool {
    [
        "queue-full:",
        "tenant-cap:",
        "storage:",
        "draining:",
        "connections:",
    ]
    .iter()
    .any(|p| reason.starts_with(p))
}

/// [`submit`] with capped-exponential retry on `SHED` and on failed
/// dials. `connect` is called once per attempt — the caller owns the
/// transport, and reconnect-per-attempt is what makes retrying a
/// `draining:` shed meaningful. Returns the last outcome once the cap is
/// hit; non-shed outcomes (RESULT, ERROR) and protocol failures return
/// immediately.
pub fn submit_with_retry<S, C>(
    mut connect: C,
    tenant: &str,
    trace: &[u8],
    policy: &RetryPolicy,
) -> io::Result<SubmitOutcome>
where
    S: Read + Write,
    C: FnMut() -> io::Result<S>,
{
    let mut attempt = 0u32;
    loop {
        let last_attempt = attempt >= policy.retries;
        let outcome = match connect() {
            Ok(mut stream) => submit(&mut stream, tenant, trace)?,
            // A refused dial rides the same backoff as a shed: the daemon
            // may be mid-restart after a drain.
            Err(_) if !last_attempt => {
                std::thread::sleep(policy.backoff.delay(attempt));
                attempt += 1;
                continue;
            }
            Err(e) => return Err(e),
        };
        match outcome {
            SubmitOutcome::Shed { reason } if shed_is_retryable(&reason) && !last_attempt => {
                std::thread::sleep(policy.backoff.delay(attempt));
                attempt += 1;
            }
            other => return Ok(other),
        }
    }
}

/// One PING/PONG liveness round trip.
pub fn ping<S: Read + Write>(stream: &mut S) -> io::Result<()> {
    write_frame(stream, &Frame::empty(FrameKind::Ping))?;
    stream.flush()?;
    let f = expect_frame(stream)?;
    if f.kind == FrameKind::Pong {
        Ok(())
    } else {
        Err(protocol_err(format!("expected PONG, got {:?}", f.kind)))
    }
}

fn expect_frame<S: Read>(stream: &mut S) -> io::Result<Frame> {
    read_frame(stream, MAX_REPLY)?
        .ok_or_else(|| protocol_err("daemon closed the connection mid-exchange".into()))
}

fn protocol_err(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// One scripted connection: the client's writes go to the bit bucket,
    /// its reads come from a pre-rendered server byte stream.
    struct MockConn {
        input: io::Cursor<Vec<u8>>,
    }

    impl Read for MockConn {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for MockConn {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn server_bytes(frames: &[Frame]) -> MockConn {
        let mut bytes = Vec::new();
        for f in frames {
            write_frame(&mut bytes, f).unwrap();
        }
        MockConn {
            input: io::Cursor::new(bytes),
        }
    }

    fn shed_conn(reason: &str) -> MockConn {
        server_bytes(&[Frame::new(FrameKind::Shed, reason)])
    }

    fn result_conn() -> MockConn {
        let mut payload = vec![0u8];
        payload.extend_from_slice(b"{\"races\": []}");
        server_bytes(&[
            Frame::new(FrameKind::Accepted, "7"),
            Frame::new(FrameKind::Result, payload),
        ])
    }

    fn fast_policy(retries: u32) -> RetryPolicy {
        RetryPolicy {
            retries,
            backoff: Backoff {
                start: Duration::from_millis(1),
                cap: Duration::from_millis(4),
            },
        }
    }

    fn run_script(
        mut conns: VecDeque<io::Result<MockConn>>,
        policy: &RetryPolicy,
    ) -> (io::Result<SubmitOutcome>, usize) {
        let mut dials = 0;
        let out = submit_with_retry(
            || {
                dials += 1;
                conns.pop_front().expect("script ran out of connections")
            },
            "t",
            b"trace",
            policy,
        );
        (out, dials)
    }

    #[test]
    fn retryable_sheds_back_off_until_a_result() {
        let conns = VecDeque::from([
            Ok(shed_conn(
                "queue-full: admission queue at capacity, retry later",
            )),
            Ok(shed_conn(
                "storage: database degraded to read-only, retry later",
            )),
            Ok(result_conn()),
        ]);
        let (out, dials) = run_script(conns, &fast_policy(5));
        let SubmitOutcome::Done { job_id, clean, .. } = out.unwrap() else {
            panic!("expected Done after retries");
        };
        assert_eq!(job_id, "7");
        assert!(clean);
        assert_eq!(dials, 3, "two sheds then success");
    }

    #[test]
    fn cap_returns_the_final_shed() {
        let conns = VecDeque::from([
            Ok(shed_conn(
                "tenant-cap: too many pending submissions for this tenant",
            )),
            Ok(shed_conn(
                "tenant-cap: too many pending submissions for this tenant",
            )),
            Ok(shed_conn(
                "tenant-cap: too many pending submissions for this tenant",
            )),
        ]);
        let (out, dials) = run_script(conns, &fast_policy(2));
        let SubmitOutcome::Shed { reason } = out.unwrap() else {
            panic!("expected the terminal shed");
        };
        assert!(reason.starts_with("tenant-cap:"));
        assert_eq!(dials, 3, "first attempt + 2 retries");
    }

    #[test]
    fn draining_shed_retries_on_a_fresh_connection() {
        // Drain, then the replacement daemon refuses the dial once, then
        // serves. Three distinct connections — never a reuse.
        let conns = VecDeque::from([
            Ok(shed_conn(
                "draining: daemon is shutting down, not admitting work",
            )),
            Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "restarting",
            )),
            Ok(result_conn()),
        ]);
        let (out, dials) = run_script(conns, &fast_policy(5));
        assert!(matches!(out.unwrap(), SubmitOutcome::Done { .. }));
        assert_eq!(dials, 3);
    }

    #[test]
    fn unknown_shed_reasons_are_terminal() {
        let conns = VecDeque::from([Ok(shed_conn("maintenance-window: go away"))]);
        let (out, dials) = run_script(conns, &fast_policy(5));
        assert!(matches!(out.unwrap(), SubmitOutcome::Shed { .. }));
        assert_eq!(dials, 1, "no retry on a reason this client can't parse");
    }

    #[test]
    fn zero_retries_behaves_like_plain_submit() {
        let conns = VecDeque::from([Ok(shed_conn("queue-full: retry later"))]);
        let (out, dials) = run_script(conns, &fast_policy(0));
        assert!(matches!(out.unwrap(), SubmitOutcome::Shed { .. }));
        assert_eq!(dials, 1);
    }
}
