//! Host-speed normalisation of timed intervals.
//!
//! The benchmark shares its cores with other tenants, whose load can slow
//! every job of a run alike, by up to half, for minutes at a time. Before
//! a phase (the set-ups, or the timed work) and every half second or so
//! within it, the benchmark therefore times a fixed kernel of its own — an
//! in-place sort, hash inserts and probes over 12 MiB — and scales the
//! phase's times by [`REFERENCE_S`] ÷ the median kernel time. A reported
//! second is a second of the host at its reference speed. The kernel runs
//! on the calling thread: timed on one thread it repeats within ~3%
//! (quartile spread), against ~9% when timed on every core.
//!
//! The kernel runs between jobs, but threads of the measured program may
//! still be running then (a daemon's workers, or threads a change leaves
//! busy), and they would slow the kernel and so hide their own cost. A
//! sample is therefore kept only when the rest of the process used the CPU
//! for less than [`OTHERS_MAX`] of the sample's wall time, so only load
//! from outside the process moves the factor. A phase whose every sample
//! is discarded is scaled by the sample taken when the calibrator was
//! made, before any workload ran. On the sizing host every sample of every
//! workload was kept: the program's threads sleep between jobs.

use std::time::Instant;

use crate::stats::median;

/// The median kernel time on an idle 2-core sizing host (seconds).
pub const REFERENCE_S: f64 = 0.022;

/// The most CPU time the process's other threads may use during a sample,
/// as a share of its wall time, for the sample to be kept.
pub const OTHERS_MAX: f64 = 0.05;

/// Slots of the open-addressing table (8 MiB of `u64`).
const TABLE: usize = 1 << 20;
/// Keys sorted and inserted (4 MiB of `u64`).
const KEYS: usize = 1 << 19;

/// The kernel's buffers, allocated once and reused, and a first sample.
pub struct Calibrator {
    table: Vec<u64>,
    keys: Vec<u64>,
    first: f64,
}

impl Calibrator {
    /// Allocates the buffers and takes the first sample. Make it before
    /// any workload runs, when the process has no other threads.
    pub fn new() -> Self {
        let mut c = Self {
            table: vec![0; TABLE],
            keys: vec![0; KEYS],
            first: 0.0,
        };
        c.first = c.time_kernel().0;
        c
    }

    /// The host's current speed, the median time of three kernel runs (s);
    /// `None` when the process's other threads used the CPU meanwhile.
    pub fn measure(&mut self) -> Option<f64> {
        let (secs, others) = self.time_kernel();
        (others <= OTHERS_MAX).then_some(secs)
    }

    /// The median time of three kernel runs (s), and the CPU time the
    /// process's other threads used meanwhile, as a share of the wall time
    /// the three took.
    fn time_kernel(&mut self) -> (f64, f64) {
        let others_before = cpu::others();
        let started = Instant::now();
        let runs: Vec<f64> = (0..3)
            .map(|_| {
                let started = Instant::now();
                std::hint::black_box(kernel(&mut self.table, &mut self.keys));
                started.elapsed().as_secs_f64()
            })
            .collect();
        let wall = started.elapsed().as_secs_f64();
        (median(&runs), (cpu::others() - others_before) / wall)
    }

    /// The factor that turns a phase's wall intervals into reference
    /// seconds, given the [`Calibrator::measure`]s kept around it.
    pub fn factor(&self, kept: &[f64]) -> f64 {
        if kept.is_empty() {
            REFERENCE_S / self.first
        } else {
            REFERENCE_S / median(kept)
        }
    }
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

/// Fixed work: fill, sort, insert every key, then find every key.
fn kernel(table: &mut [u64], keys: &mut [u64]) -> u64 {
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    for k in keys.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *k = x | 1;
    }
    keys.sort_unstable();
    table.fill(0);
    let slot = |k: u64| (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as usize & (TABLE - 1);
    for &k in keys.iter() {
        let mut i = slot(k);
        while table[i] != 0 {
            i = (i + 1) & (TABLE - 1);
        }
        table[i] = k;
    }
    let mut found = 0u64;
    for &k in keys.iter().rev() {
        let mut i = slot(k);
        while table[i] != k {
            i = (i + 1) & (TABLE - 1);
        }
        found = found.wrapping_add(i as u64);
    }
    found
}

/// CPU time of the process's threads other than the caller.
mod cpu {
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }

    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }

    /// Linux's `CLOCK_PROCESS_CPUTIME_ID`: every thread of the process,
    /// exited ones included.
    const PROCESS: c_int = 2;
    /// Linux's `CLOCK_THREAD_CPUTIME_ID`: the calling thread.
    const THREAD: c_int = 3;

    fn seconds(clock: c_int) -> f64 {
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a valid, writable timespec for the whole call.
        let rc = unsafe { clock_gettime(clock, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime({clock}) failed");
        ts.sec as f64 + ts.nsec as f64 * 1e-9
    }

    /// CPU seconds the process has used in threads other than this one,
    /// counting threads that have exited.
    pub(super) fn others() -> f64 {
        seconds(PROCESS) - seconds(THREAD)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};

    use super::*;

    #[test]
    fn kernel_is_deterministic_and_factor_scales() {
        let mut c = Calibrator::new();
        let sum = kernel(&mut c.table, &mut c.keys);
        assert_eq!(kernel(&mut c.table, &mut c.keys), sum);
        assert!(c.first > 0.0);
        assert!((c.factor(&[REFERENCE_S]) - 1.0).abs() < 1e-12);
        // A host twice as slow halves every interval; outliers are ignored.
        let slow = 2.0 * REFERENCE_S;
        assert!((c.factor(&[slow, slow, 9.0]) - 0.5).abs() < 1e-12);
        assert!((c.factor(&[]) - REFERENCE_S / c.first).abs() < 1e-12);
    }

    #[test]
    fn a_busy_thread_of_the_process_discards_the_sample() {
        let mut c = Calibrator::new();
        let stop = AtomicBool::new(false);
        let kept = std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
            // Let the spinner get scheduled before sampling.
            std::thread::sleep(std::time::Duration::from_millis(20));
            let kept = c.measure();
            stop.store(true, Ordering::Relaxed);
            kept
        });
        assert_eq!(kept, None);
    }
}
