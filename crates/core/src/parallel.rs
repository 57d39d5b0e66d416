//! Minimal scoped-thread fan-out used by the parallel pipeline stages.
//!
//! The workspace builds offline from `vendor/` (no rayon), so this module
//! is the whole threading substrate: a worker-count resolver, an
//! index-ordered parallel map over a shared atomic cursor, and a
//! two-stage [`pipeline`] that hands batches from the calling thread to
//! one worker. Determinism is the callers' contract — results come back
//! in job-index order no matter which worker executed which job, and a
//! pipeline's consumer sees its batches in the order they were filled, so
//! any fold over the output is independent of scheduling.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

/// Heartbeat flag bit: the worker holds a job. The bits above it count
/// beats.
const BUSY: u64 = 1;

/// A worker's liveness cell, handed to every job of
/// [`map_indexed_watched`]. The map beats once when a job is claimed;
/// long-running jobs should call [`beat`](Heartbeat::beat) periodically
/// from their inner loop so the watchdog can tell "slow but alive" from
/// "stuck".
pub struct Heartbeat<'a> {
    cell: &'a AtomicU64,
}

impl Heartbeat<'_> {
    /// Records progress. A beat reads no clock: it bumps the worker's beat
    /// count, and the watchdog times how long a count stays unchanged. Only
    /// the owning worker writes its cell, so a load and a store suffice.
    pub fn beat(&self) {
        let v = self.cell.load(Ordering::Relaxed);
        self.cell.store((v + 2) | BUSY, Ordering::Relaxed);
    }

    fn idle(&self) {
        let v = self.cell.load(Ordering::Relaxed);
        self.cell.store(v & !BUSY, Ordering::Relaxed);
    }
}

/// Stage watchdog configuration for [`map_indexed_watched`].
pub struct Watchdog<'a> {
    /// A worker whose heartbeat stays silent this long while holding a job
    /// is considered stalled.
    pub timeout: Duration,
    /// Called exactly once, from the supervisor thread, when a stall is
    /// detected. Typically trips the caller's cooperative stop flag so the
    /// remaining workers finish early with partial output.
    pub on_stall: &'a (dyn Fn() + Sync),
}

/// Resolves a requested worker count: `0` means "use the machine"
/// ([`std::thread::available_parallelism`]), anything else is literal.
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Runs `job(i, heartbeat)` for every `i in 0..jobs` on up to `threads`
/// scoped workers and returns the results in index order, with how long
/// each worker spent executing jobs and whether a stall was detected.
///
/// Jobs are claimed from a shared atomic cursor, so uneven job sizes
/// load-balance across workers. Busy time (one [`Duration`] per worker
/// actually used, in worker order) excludes the idle tail a worker spends
/// waiting for its siblings, so its spread is the load-imbalance picture
/// the observability layer reports as `timing.worker_busy_ms`.
///
/// Every job receives a [`Heartbeat`] it should beat from long inner
/// loops. When a [`Watchdog`] is supplied, a supervisor thread polls the
/// heartbeats (at `timeout / 8`, clamped to 1–50 ms) and calls `on_stall`
/// once if any job-holding worker goes silent for longer than `timeout`:
/// its beat count has not moved since a poll that long ago.
/// The map itself never cancels anything — `on_stall` is expected to trip
/// a cooperative stop flag the jobs already honor — and still returns all
/// results in index order. The third return value reports whether a stall
/// was detected.
///
/// With a watchdog present the map always runs on at least one spawned
/// worker (the supervisor needs the caller's job loop off its own
/// thread). Unwatched, `threads <= 1` (or a single job) degenerates to a
/// plain sequential loop — no threads are spawned — whose single busy
/// entry covers the whole loop.
pub fn map_indexed_watched<T, F>(
    jobs: usize,
    threads: usize,
    watchdog: Option<Watchdog<'_>>,
    job: F,
) -> (Vec<T>, Vec<Duration>, bool)
where
    T: Send,
    F: Fn(usize, &Heartbeat) -> T + Sync,
{
    let workers = threads.min(jobs);
    if jobs == 0 {
        return (Vec::new(), Vec::new(), false);
    }
    if workers <= 1 && watchdog.is_none() {
        let started = Instant::now();
        let cell = AtomicU64::new(0);
        let hb = Heartbeat { cell: &cell };
        let out: Vec<T> = (0..jobs)
            .map(|i| {
                hb.beat();
                let r = job(i, &hb);
                hb.idle();
                r
            })
            .collect();
        return (out, vec![started.elapsed()], false);
    }
    let workers = workers.max(1);
    let cursor = AtomicUsize::new(0);
    let cells: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let workers_done = AtomicBool::new(false);
    let stalled = AtomicBool::new(false);
    let mut slots: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
    let mut busy = vec![Duration::ZERO; workers];
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for cell in &cells {
            handles.push(scope.spawn(|| {
                let started = Instant::now();
                let hb = Heartbeat { cell };
                let mut done = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs {
                        break;
                    }
                    hb.beat();
                    done.push((i, job(i, &hb)));
                    hb.idle();
                }
                (done, started.elapsed())
            }));
        }
        if let Some(wd) = &watchdog {
            let poll = (wd.timeout / 8).clamp(Duration::from_millis(1), Duration::from_millis(50));
            let timeout = wd.timeout;
            let on_stall = wd.on_stall;
            let (workers_done, cells, stalled) = (&workers_done, &cells, &stalled);
            scope.spawn(move || {
                // Per worker: the heartbeat word last polled, and when it
                // was first seen.
                let mut seen: Vec<(u64, Instant)> = vec![(0, Instant::now()); cells.len()];
                loop {
                    if workers_done.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::sleep(poll);
                    let now = Instant::now();
                    let stuck = cells.iter().zip(&mut seen).any(|(c, (last, since))| {
                        let v = c.load(Ordering::Relaxed);
                        if v != *last {
                            (*last, *since) = (v, now);
                        }
                        v & BUSY != 0 && now - *since > timeout
                    });
                    if stuck {
                        stalled.store(true, Ordering::SeqCst);
                        on_stall();
                        return;
                    }
                }
            });
        }
        let mut panicked = None;
        for (w, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok((results, spent)) => {
                    busy[w] = spent;
                    for (i, out) in results {
                        slots[i] = Some(out);
                    }
                }
                Err(payload) => panicked = Some(payload),
            }
        }
        // Let the supervisor exit before the scope joins it (and before
        // re-raising any worker panic).
        workers_done.store(true, Ordering::Release);
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
    });
    let out = slots
        .into_iter()
        .map(|s| s.expect("cursor visits every job index"))
        .collect();
    (out, busy, stalled.load(Ordering::SeqCst))
}

/// Hands batches from a producer to a consumer, in the order they were
/// filled, and returns the consumer's state once the producer is done.
///
/// `produce` fills one batch and says whether more follow; `consume`
/// takes each filled batch, in order, and must leave it empty for reuse.
/// The batches in `batches` are the only ones: they circulate between the
/// two sides, so nothing is allocated once the pipeline runs and no more
/// than they hold is ever in flight.
///
/// Without `threaded` both sides run inline on the calling thread over the
/// first batch. With it the consumer, which owns `state`, runs on one
/// scoped worker while the producer runs on the calling thread, which
/// keeps whatever `produce` borrows, so that need not be `Send`. Filled
/// batches go to the worker over one bounded queue and come back over
/// another, each sized to hold every batch, so only the producer ever
/// waits: for a batch to come back. No early end leaves either side
/// waiting. When `produce` fails, the batches already filled are still
/// consumed and the error is returned; when the consumer panics, the
/// producer's next hand-off fails, it stops, and the panic is raised
/// again on the calling thread.
///
/// # Panics
///
/// Panics if `batches` is empty.
pub fn pipeline<B: Send, S: Send, E>(
    threaded: bool,
    mut batches: Vec<B>,
    mut state: S,
    mut produce: impl FnMut(&mut B) -> Result<bool, E>,
    mut consume: impl FnMut(&mut S, &mut B) + Send,
) -> Result<S, E> {
    assert!(!batches.is_empty(), "a pipeline needs a batch");
    if !threaded {
        let batch = &mut batches[0];
        loop {
            let more = produce(batch)?;
            consume(&mut state, batch);
            if !more {
                return Ok(state);
            }
        }
    }
    let (full_tx, full_rx) = sync_channel::<B>(batches.len());
    let (free_tx, free_rx) = sync_channel::<B>(batches.len());
    for batch in batches {
        free_tx.send(batch).expect("the queue holds every batch");
    }
    std::thread::scope(|scope| {
        let worker = scope.spawn(move || {
            for mut batch in full_rx {
                consume(&mut state, &mut batch);
                // The producer may have stopped already.
                let _ = free_tx.send(batch);
            }
            state
        });
        // Only a disconnected queue ends the worker's loop, so every path
        // out of here drops the sender first.
        let produced = (move || {
            while let Ok(mut batch) = free_rx.recv() {
                let more = produce(&mut batch)?;
                if full_tx.send(batch).is_err() || !more {
                    break;
                }
            }
            Ok(())
        })();
        let state = worker
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        produced.map(|()| state)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unwatched map: results in index order, one busy duration per
    /// worker used.
    fn map<T: Send>(
        jobs: usize,
        threads: usize,
        job: impl Fn(usize) -> T + Sync,
    ) -> (Vec<T>, Vec<Duration>) {
        let (out, busy, stalled) = map_indexed_watched(jobs, threads, None, |i, _| job(i));
        assert!(!stalled, "an unwatched map never reports a stall");
        (out, busy)
    }

    #[test]
    fn map_preserves_index_order() {
        for threads in [1, 2, 8] {
            let (out, _) = map(100, threads, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_handles_zero_and_one_jobs() {
        assert_eq!(map(0, 4, |i| i).0, Vec::<usize>::new());
        assert_eq!(map(1, 4, |i| i + 7).0, vec![7]);
    }

    /// A pipeline summing `0..n` in batches of `size`, failing at `fail`.
    fn sum_pipeline(threaded: bool, n: u64, size: usize, fail: Option<u64>) -> Result<u64, u64> {
        let mut next = 0u64;
        let batches = (0..3).map(|_| Vec::with_capacity(size)).collect();
        pipeline(
            threaded,
            batches,
            0u64,
            |batch: &mut Vec<u64>| {
                while batch.len() < size && next < n {
                    if Some(next) == fail {
                        return Err(next);
                    }
                    batch.push(next);
                    next += 1;
                }
                Ok(next < n)
            },
            |sum, batch| {
                *sum += batch.iter().sum::<u64>();
                batch.clear();
            },
        )
    }

    #[test]
    fn pipeline_consumes_every_batch_inline_or_threaded() {
        for threaded in [false, true] {
            for (n, size) in [(0, 4), (1, 4), (12, 4), (13, 4), (1000, 7)] {
                assert_eq!(
                    sum_pipeline(threaded, n, size, None),
                    Ok(n * n.saturating_sub(1) / 2),
                    "threaded {threaded}, n {n}, size {size}"
                );
            }
        }
    }

    #[test]
    fn pipeline_hands_batches_over_in_order() {
        let mut next = 0u32;
        let seen = pipeline(
            true,
            (0..3).map(|_| Vec::new()).collect(),
            Vec::new(),
            |batch: &mut Vec<u32>| {
                batch.extend(next..next + 5);
                next += 5;
                Ok::<_, ()>(next < 500)
            },
            |seen: &mut Vec<u32>, batch| seen.append(batch),
        );
        assert_eq!(seen, Ok((0..500).collect::<Vec<_>>()));
    }

    #[test]
    fn a_failing_producer_ends_the_pipeline_with_its_error() {
        for threaded in [false, true] {
            assert_eq!(sum_pipeline(threaded, 1000, 7, Some(0)), Err(0));
            assert_eq!(sum_pipeline(threaded, 1000, 7, Some(500)), Err(500));
        }
    }

    #[test]
    fn a_consumer_panic_reaches_the_caller() {
        for threaded in [false, true] {
            let caught = std::panic::catch_unwind(|| {
                pipeline(
                    threaded,
                    vec![0u32; 3],
                    0u32,
                    |_| Ok::<_, ()>(true),
                    |seen, _| {
                        *seen += 1;
                        assert!(*seen < 10, "consumer gives up");
                    },
                )
            });
            let panic = caught.expect_err("the consumer panicked");
            assert_eq!(panic.downcast_ref::<&str>(), Some(&"consumer gives up"));
        }
    }

    #[test]
    fn a_producer_panic_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            let mut calls = 0;
            pipeline(
                true,
                vec![0u32; 3],
                (),
                |_| {
                    calls += 1;
                    assert!(calls < 10, "producer gives up");
                    Ok::<_, ()>(true)
                },
                |_, _| {},
            )
        });
        let panic = caught.expect_err("the producer panicked");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"producer gives up"));
    }

    #[test]
    fn effective_threads_resolves_auto() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }

    #[test]
    fn timed_map_reports_one_busy_duration_per_worker() {
        let (out, busy) = map(16, 3, |i| i + 1);
        assert_eq!(out, (1..=16).collect::<Vec<_>>());
        assert_eq!(busy.len(), 3, "one duration per worker");
        let (out, busy) = map(5, 1, |i| i);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(busy.len(), 1, "sequential fallback reports one entry");
        let (out, busy) = map(0, 4, |i| i);
        assert!(out.is_empty());
        assert!(busy.is_empty(), "no jobs, no busy time");
    }

    #[test]
    fn watched_map_without_stalls_reports_none() {
        let fired = AtomicBool::new(false);
        let (out, busy, stalled) = map_indexed_watched(
            8,
            2,
            Some(Watchdog {
                timeout: Duration::from_secs(10),
                on_stall: &|| fired.store(true, Ordering::SeqCst),
            }),
            |i, hb| {
                hb.beat();
                i * 2
            },
        );
        assert_eq!(out, (0..8).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(busy.len(), 2);
        assert!(!stalled);
        assert!(!fired.load(Ordering::SeqCst));
    }

    #[test]
    fn watchdog_detects_a_silent_worker_and_trips_the_stop_flag() {
        // One job goes silent until the stop flag (tripped by on_stall)
        // releases it; the map must detect the stall and still return
        // every result.
        let stop = AtomicBool::new(false);
        let (out, _busy, stalled) = map_indexed_watched(
            4,
            2,
            Some(Watchdog {
                timeout: Duration::from_millis(40),
                on_stall: &|| stop.store(true, Ordering::SeqCst),
            }),
            |i, _hb| {
                if i == 1 {
                    // Silent busy-wait: no beats, so the watchdog fires.
                    let t0 = Instant::now();
                    while !stop.load(Ordering::SeqCst) && t0.elapsed() < Duration::from_secs(10) {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
                i
            },
        );
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert!(stalled, "the silent worker must be flagged");
        assert!(stop.load(Ordering::SeqCst), "on_stall ran");
    }

    #[test]
    fn heartbeats_keep_a_slow_but_alive_worker_unflagged() {
        let fired = AtomicBool::new(false);
        let (_, _, stalled) = map_indexed_watched(
            2,
            2,
            Some(Watchdog {
                timeout: Duration::from_millis(60),
                on_stall: &|| fired.store(true, Ordering::SeqCst),
            }),
            |i, hb| {
                if i == 0 {
                    // Slow job that keeps beating: never flagged.
                    for _ in 0..20 {
                        std::thread::sleep(Duration::from_millis(10));
                        hb.beat();
                    }
                }
                i
            },
        );
        assert!(!stalled);
        assert!(!fired.load(Ordering::SeqCst));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        map(4, 2, |i| {
            if i == 2 {
                panic!("boom");
            }
            i
        });
    }
}
