//! Panic-isolated, watchdogged execution and capped retry backoff — the
//! one supervisor behind crash-test rounds and serve jobs.
//!
//! [`run_isolated`] runs one attempt on a *detached* named thread behind
//! `catch_unwind` and waits for it with a deadline. The two ways an
//! attempt can fail without returning — a caught panic and a missed
//! deadline — come back as a [`Failure`]; what to do about them (retry in
//! place, requeue, give up) stays with the caller, which sleeps
//! [`Backoff::delay`] between attempts. A hung attempt is abandoned, never
//! joined: a stuck stage must not hang its supervisor, so the orphan runs
//! to completion (or panics) into a dropped channel.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::channel;
use std::time::Duration;

/// Why a supervised attempt produced no value.
#[derive(Debug, PartialEq, Eq)]
pub enum Failure {
    /// The attempt panicked (message from the payload), or its thread
    /// could not be spawned.
    Panicked(String),
    /// The deadline expired while the attempt was still running.
    TimedOut,
}

/// Runs `work` on a detached thread named `name` and waits at most
/// `deadline` for its value.
pub fn run_isolated<T, F>(name: &str, deadline: Duration, work: F) -> Result<T, Failure>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = channel();
    let spawned = std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            let out = catch_unwind(AssertUnwindSafe(work)).map_err(|p| panic_message(p.as_ref()));
            // The supervisor may have timed this attempt out already.
            let _ = tx.send(out);
        });
    if let Err(e) = spawned {
        return Err(Failure::Panicked(format!("cannot spawn worker: {e}")));
    }
    // The worker reports even a panic, so the channel only comes up empty
    // when the deadline passes.
    rx.recv_timeout(deadline)
        .map_err(|_| Failure::TimedOut)?
        .map_err(Failure::Panicked)
}

/// Capped exponential backoff: `start * 2^attempt`, never above `cap`.
#[derive(Clone, Copy, Debug)]
pub struct Backoff {
    /// Delay before the first retry.
    pub start: Duration,
    /// Ceiling on any delay.
    pub cap: Duration,
}

impl Backoff {
    /// The supervisors' schedule: 50 ms doubling to 2 s.
    pub const DEFAULT: Backoff = Backoff {
        start: Duration::from_millis(50),
        cap: Duration::from_secs(2),
    };

    /// The delay after failed attempt number `attempt` (0-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        self.start
            .saturating_mul(1 << attempt.min(31))
            .min(self.cap)
    }
}

/// A panic payload's message: the `&str` or `String` it carries.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn a_finished_attempt_returns_its_value() {
        let out = run_isolated("sv-value", Duration::from_secs(30), || 6 * 7);
        assert_eq!(out, Ok(42));
    }

    #[test]
    fn a_panicking_attempt_keeps_its_message() {
        let out: Result<(), _> = run_isolated("sv-panic", Duration::from_secs(30), || {
            panic!("boom in round {}", 3)
        });
        assert_eq!(out, Err(Failure::Panicked("boom in round 3".into())));
    }

    #[test]
    fn a_hung_attempt_is_abandoned_at_the_deadline() {
        let (tx, rx) = channel();
        let started = Instant::now();
        let out = run_isolated("sv-hang", Duration::from_millis(100), move || {
            std::thread::sleep(Duration::from_millis(1500));
            let _ = tx.send(());
        });
        let waited = started.elapsed();
        assert_eq!(out, Err(Failure::TimedOut));
        assert!(
            waited < Duration::from_millis(1000),
            "returned after {waited:?}"
        );
        // The orphan is still sleeping: it has not reported yet, and it
        // does once it wakes — abandoned, not killed.
        assert!(rx.try_recv().is_err(), "the orphan outlived the deadline");
        rx.recv_timeout(Duration::from_secs(30))
            .expect("the orphan finishes on its own");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let b = Backoff {
            start: Duration::from_millis(10),
            cap: Duration::from_millis(35),
        };
        assert_eq!(b.delay(0), Duration::from_millis(10));
        assert_eq!(b.delay(1), Duration::from_millis(20));
        assert_eq!(b.delay(2), Duration::from_millis(35));
        assert_eq!(b.delay(10), Duration::from_millis(35));
        assert_eq!(b.delay(u32::MAX), Duration::from_millis(35));
        let d = Backoff::DEFAULT;
        assert_eq!(d.delay(0) + d.delay(1), Duration::from_millis(150));
        assert_eq!(d.delay(6), Duration::from_secs(2));
    }

    #[test]
    fn panic_message_downcasts() {
        let p: Box<dyn Any + Send> = Box::new("boom");
        assert_eq!(panic_message(p.as_ref()), "boom");
        let p: Box<dyn Any + Send> = Box::new(String::from("kaboom"));
        assert_eq!(panic_message(p.as_ref()), "kaboom");
        let p: Box<dyn Any + Send> = Box::new(17u32);
        assert_eq!(panic_message(p.as_ref()), "opaque panic payload");
    }
}
