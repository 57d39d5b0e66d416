//! # hawkset-e2ebench
//!
//! The repository's end-to-end benchmark. It drives HawkSet through its
//! public APIs the way users do — `Application::execute`, `trace::io`, the
//! `Analyzer` (batch, and the streaming path `hawkset analyze` uses),
//! `attach_fixes`, `run_crash_campaign`, and an in-process `hawkset serve`
//! daemon with `submit` clients — and times each layer from outside,
//! around those calls.
//!
//! ```text
//! cargo run --release -q --offline --manifest-path e2ebench/Cargo.toml --bin benchmark -- \
//!     --workload <name|all> --seed <u64> --seconds <s> --trace <0|1> [--trace-out DIR]
//! ```
//!
//! The seed generates every input; the programs see only the generated
//! inputs. A run sets up three times (input generation plus an untimed
//! warm-up; `setup_s` is the median), then runs whole passes of its jobs,
//! each pass on the same inputs. The pass count is the number that takes
//! about `--seconds` on the 2-core sizing host; it depends on nothing
//! measured, so a faster or slower program runs the same work. All load
//! comes from this one process and every loop is closed: batch jobs run
//! back to back, and each serve client waits for its RESULT before it
//! submits again. Wrong outputs are counted, not fatal; the exit code is
//! non-zero only when the harness itself cannot run, or when the metrics it
//! would print are not the ones `BENCHMARK.json` declares ([`manifest`]).
//! Times are scaled to the host's reference speed by a calibration kernel
//! timed between jobs, in samples the program's own threads did not
//! disturb ([`calib`]), so that other tenants' load does not read as a
//! regression; each metric line also carries the unscaled reading.
//!
//! ## Workloads
//!
//! | workload | job | why |
//! |---|---|---|
//! | `record-analyze` | 8 apps at 1k ops: `execute → encode → decode → Analyzer::run → to_json` | Figure 6's testing time. Recording is over half the job, so a runtime change shows here. |
//! | `analyze-large` | `hawkset analyze --json FILE` on MadFS, Memcached-pmem, WIPE, Fast-Fair, P-Masstree at 10k ops | Simulation and pairing dominate and the runtime does nothing; MadFS alone is ~10⁸ candidate pairs. |
//! | `analyze-fixes` | `hawkset analyze --json --suggest-fixes FILE` on the 8 apps at 1k ops | Replay validation of repairs is ~95% of the time: memsim runs once per candidate fix instead of once per trace. |
//! | `serve-submit` | SUBMIT→RESULT of Memcached-pmem 1k-op traces, 2 clients, default daemon | Framing, admission, supervised workers, race-DB merge and an fsynced checkpoint per job. |
//! | `campaign` | steered 8-round crash campaigns on P-CLHT, Fast-Fair, TurboHash; a job is a round | Orchestration, crash images and recovery audits, with no injected sleeps. |
//!
//! P-ART is in no workload: its eight app threads spin on a small host, so
//! its run time measures the scheduler.
//!
//! ## Metrics
//!
//! End to end (tracing off), on every workload: `setup_s`, `jobs_per_s`
//! (jobs ÷ timed wall; rounds for `campaign`, RESULTs for `serve-submit`),
//! `job_ms_p50` (the geometric mean over the workload's apps of each app's
//! median job latency), and `peak_mib` (the most the live heap rose, during
//! the timed work, above its level after set-up, from the counting global
//! allocator: each job's own footprint, plus anything the timed jobs keep
//! from one to the next, such as a cache, a leak or the daemon's state).
//!
//! Per layer (`--trace 1`): spans wrap each public call, and an `ObsHook`
//! on the analyzer splits its `Simulate` and `Pairing` stages into `memsim`
//! and `engine` child spans. A layer's self time is its spans minus the
//! time their children cover; its share is that over the summed job wall.
//! Layer times are wall times, unscaled.
//!
//! | layer (module) | metrics beyond `self_ms`, `share` | should move |
//! |---|---|---|
//! | `runtime` (`Application::execute`) | `events`, `events_per_s` | `jobs_per_s` on record-analyze and campaign; nothing on the others, whose traces are recorded in set-up |
//! | `io` (`trace::io`) | `bytes`, `mb_per_s` | a few % on analyze-large; serve latency. The streamed analysis decodes inside `memsim`, so a traced analyze-large run decodes each job's file once more after the timed work, outside the job, as its io figure |
//! | `memsim` (simulation + IRH) | `events_per_s`, `windows_created`, `windows_unpersisted`, `irh_discarded`, `distinct_locksets`, `distinct_vclocks` | analyze-large and analyze-fixes throughput, analyze-large `peak_mib`, serve latency |
//! | `engine` (pairing) | `candidate_pairs`, `pruned_hb`, `pruned_lockset`, `pairs_reported`, `report_ratio`, `races` | analyze-large throughput; little on record-analyze |
//! | `analysis` (`Analyzer` facade, self time) | — | should stay small everywhere |
//! | `report` (`to_json`) | `json_bytes` | under 1% everywhere; listed so a regression shows |
//! | `repair` (`attach_fixes`) | `fixes`, `validated`, `validated_ratio`, `ms_per_fix` | analyze-fixes only |
//! | `pmrace` (crash campaigns, from `RoundRecord`s) | `rounds`, `round_ms_p50`, `round_ms_tail`, `images_captured`, `crash_points`, `coverage_points`, `retained_mib` (heap a campaign leaves allocated after it returns; measured at 16–41 MiB per campaign), `coverage_rounds_ratio` | campaign only |
//! | `serve` | `analyze_ms_p50` (same bytes, in-process), `overhead_ms_p50`, `latency_ms_tail`, `checkpoints`, `shed`, `retries`, `db_bytes` | serve-submit only |
//! | `trace` | `coverage` (Σ layer self time in jobs ÷ Σ job wall), `spans` | — |
//!
//! Tails are the highest percentile with at least ten samples beyond it.
//! They are layer metrics, not end-to-end ones: a 12-second analyze-fixes
//! run is one pass of 8 jobs, which has no tail.
//!
//! ## Bounds
//!
//! `SIZING.json`, beside the manifest, holds the runs the bounds in
//! `BENCHMARK.json` rest on: the host, and per workload and end-to-end
//! metric each of two sets of ten seeded runs with its median and spread,
//! plus the tracing overhead. The `sizing` binary produces it.
//! `SIZING-30s.json` is the same at 30 s of timed work per run (made with
//! `run_seconds` set to 30). At 12 s the timing spreads were 0.045–0.159;
//! at 30 s they were 0.027–0.121, and the sizing took 62 minutes instead
//! of 33. Longer runs barely narrow the spreads, which come from the
//! host's speed drifting between runs. A bound must be about three times
//! the widest spread to hold, so the timing bounds are 25%: the 10% a
//! quiet host would allow fails here at any run length.
//!
//! ## Tests
//!
//! The package is a workspace of its own, so a `cargo test` at the
//! repository root does not run its tests. Run them with
//!
//! ```text
//! cargo test --release --offline --manifest-path e2ebench/Cargo.toml
//! ```
//!
//! They include a smoke test that runs every workload at a tiny size,
//! traced, and checks its metric names against `BENCHMARK.json`. The same
//! name check runs in every benchmark run, so drift between the two fails
//! the benchmark itself.

pub mod calib;
pub mod host;
mod layers;
pub mod manifest;
pub mod metric;
pub mod spans;
pub mod stats;
mod workloads;

pub use workloads::{run, Ctx, Outcome, WORKLOADS};

use hawkset_core::stats::CountingAllocator;

/// Every allocation of the benchmark process, counted for `peak_mib`.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();
