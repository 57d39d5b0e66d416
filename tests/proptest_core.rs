//! Property-based tests over the core analysis data structures.

use hawkset::core::addr::{AddrRange, CACHE_LINE};
use hawkset::core::analysis::{AnalysisConfig, Analyzer};
use hawkset::core::lockset::{LockEntry, Lockset};
use hawkset::core::memsim::{simulate, CloseReason, SimConfig};
use hawkset::core::trace::io;
use hawkset::core::trace::{EventKind, Frame, LockId, LockMode, ThreadId, Trace, TraceBuilder};
use hawkset::core::vclock::{ClockOrder, Epoch, VectorClock};
use proptest::prelude::*;

fn arb_range() -> impl Strategy<Value = AddrRange> {
    (0u64..4096, 1u32..96).prop_map(|(start, len)| AddrRange::new(start, len))
}

proptest! {
    /// Overlap is symmetric, and overlapping ranges share a non-empty
    /// intersection contained in both.
    #[test]
    fn addr_overlap_symmetry(a in arb_range(), b in arb_range()) {
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        match a.intersection(&b) {
            Some(i) => {
                prop_assert!(a.overlaps(&b));
                prop_assert!(a.contains(&i) && b.contains(&i));
                prop_assert!(i.len > 0);
            }
            None => prop_assert!(!a.overlaps(&b)),
        }
    }

    /// Subtracting a range never leaves bytes that overlap the subtrahend,
    /// and preserves exactly the bytes outside it.
    #[test]
    fn addr_subtract_partition(a in arb_range(), b in arb_range()) {
        let (head, tail) = a.subtract(&b);
        let mut kept = 0u64;
        for piece in [head, tail].into_iter().flatten() {
            prop_assert!(!piece.overlaps(&b));
            prop_assert!(a.contains(&piece));
            kept += piece.len as u64;
        }
        let cut = a.intersection(&b).map_or(0, |i| i.len as u64);
        prop_assert_eq!(kept + cut, a.len as u64);
    }

    /// Every byte of a range lies in exactly one of its line pieces.
    #[test]
    fn addr_lines_cover(a in arb_range()) {
        let lines: Vec<u64> = a.lines().collect();
        prop_assert!(!lines.is_empty());
        for w in lines.windows(2) {
            prop_assert_eq!(w[1], w[0] + 1);
        }
        let covered: u64 = lines
            .iter()
            .map(|&l| {
                let start = (l * CACHE_LINE).max(a.start);
                let end = ((l + 1) * CACHE_LINE).min(a.end());
                end - start
            })
            .sum();
        prop_assert_eq!(covered, a.len as u64);
    }
}

fn arb_clock() -> impl Strategy<Value = VectorClock> {
    proptest::collection::vec(0u32..8, 0..6).prop_map(VectorClock::from_counters)
}

proptest! {
    /// Happens-before comparison is antisymmetric and merge is an upper
    /// bound.
    #[test]
    fn vclock_order_properties(a in arb_clock(), b in arb_clock()) {
        let ab = a.compare(&b);
        let ba = b.compare(&a);
        let flipped = match ab {
            ClockOrder::Equal => ClockOrder::Equal,
            ClockOrder::Before => ClockOrder::After,
            ClockOrder::After => ClockOrder::Before,
            ClockOrder::Concurrent => ClockOrder::Concurrent,
        };
        prop_assert_eq!(ba, flipped);

        let mut m = a.clone();
        m.merge(&b);
        prop_assert!(!m.happens_before(&a) || a == m);
        prop_assert!(matches!(a.compare(&m), ClockOrder::Before | ClockOrder::Equal));
        prop_assert!(matches!(b.compare(&m), ClockOrder::Before | ClockOrder::Equal));
    }

    /// Ticking makes strictly-later clocks.
    #[test]
    fn vclock_tick_advances(a in arb_clock(), tid in 0u32..6) {
        let mut t = a.clone();
        t.tick(ThreadId(tid));
        prop_assert!(a.happens_before(&t));
    }

    /// The epoch fast path agrees with the full `VectorClock::compare` on
    /// arbitrary protocol-respecting interleavings.
    ///
    /// This replays the simulator's clock discipline in miniature: four
    /// threads tick, exchange clocks by merge-then-tick (the vector-clock
    /// message receive), and take a **post-tick snapshot** after every
    /// step — exactly the snapshots for which the analysis records
    /// [`Epoch`]s. For every recorded snapshot `V_t` and every clock `W`
    /// the run ever produced, the O(1) verdict `Epoch::le_clock` must
    /// equal the O(threads) verdict `V_t ⊑ W` from `compare` — both
    /// directions, so the fast path neither invents nor misses ordering.
    #[test]
    fn epoch_fast_path_matches_full_clock_compare(
        ops in proptest::collection::vec((0usize..4, 0usize..4, any::<bool>()), 1..96)
    ) {
        let mut clocks: Vec<VectorClock> = (0..4u32)
            .map(|t| {
                let mut c = VectorClock::new();
                c.tick(ThreadId(t));
                c
            })
            .collect();
        let mut snapshots: Vec<(Epoch, VectorClock)> = Vec::new();
        let mut observed: Vec<VectorClock> = clocks.clone();
        for &(dst, src, exchange) in &ops {
            if exchange && dst != src {
                let from = clocks[src].clone();
                clocks[dst].merge(&from);
            }
            let tid = ThreadId(dst as u32);
            clocks[dst].tick(tid);
            snapshots.push((Epoch::of(tid, &clocks[dst]), clocks[dst].clone()));
            observed.push(clocks[dst].clone());
        }
        for (ep, snap) in &snapshots {
            for w in &observed {
                let full = matches!(snap.compare(w), ClockOrder::Equal | ClockOrder::Before);
                prop_assert_eq!(
                    ep.le_clock(w),
                    full,
                    "epoch {:?} disagrees with compare: snapshot {:?} vs {:?}",
                    ep, snap, w
                );
            }
        }
    }
}

fn arb_lockset() -> impl Strategy<Value = Lockset> {
    proptest::collection::vec((0u64..6, any::<bool>(), 0u64..4), 0..5).prop_map(|entries| {
        Lockset::from_entries(
            entries
                .into_iter()
                .map(|(l, sh, ts)| LockEntry {
                    lock: LockId(l),
                    mode: if sh {
                        LockMode::Shared
                    } else {
                        LockMode::Exclusive
                    },
                    acq_ts: ts,
                })
                .collect(),
        )
    })
}

proptest! {
    /// Same-thread intersection only keeps locks present in both sets with
    /// equal timestamps; it is a subset of both.
    #[test]
    fn lockset_intersection_is_subset(a in arb_lockset(), b in arb_lockset()) {
        let i = a.intersect_same_thread(&b);
        for e in i.iter() {
            let ea = a.get(e.lock).expect("in a");
            let eb = b.get(e.lock).expect("in b");
            prop_assert_eq!(ea.acq_ts, eb.acq_ts);
            prop_assert_eq!(e.acq_ts, ea.acq_ts);
        }
        prop_assert!(i.len() <= a.len().min(b.len()));
    }

    /// `protects_against` is symmetric and implied by a common exclusive
    /// lock.
    #[test]
    fn lockset_protection_symmetry(a in arb_lockset(), b in arb_lockset()) {
        prop_assert_eq!(a.protects_against(&b), b.protects_against(&a));
        if a.protects_against(&b) {
            prop_assert!(a.iter().any(|e| b.get(e.lock).is_some()));
        }
        prop_assert!(!a.protects_against(&Lockset::empty()));
    }
}

/// Random but *valid* event streams for codec and pipeline properties.
fn arb_trace() -> impl Strategy<Value = Trace> {
    let ops = proptest::collection::vec(
        (0u8..6, 0u64..512u64, 1u32..17, 0u64..4, any::<bool>()),
        1..120,
    );
    (ops, 1u32..4).prop_map(|(ops, workers)| {
        let mut b = TraceBuilder::new();
        let s = b.intern_stack([Frame::new("prop", "prop.rs", 1)]);
        for w in 1..=workers {
            b.push(
                ThreadId(0),
                s,
                EventKind::ThreadCreate { child: ThreadId(w) },
            );
        }
        let mut held: Vec<Vec<u64>> = vec![Vec::new(); workers as usize + 1];
        for (i, (kind, addr, len, lock, flag)) in ops.into_iter().enumerate() {
            let tid = ThreadId(1 + (i as u32 % workers));
            let range = AddrRange::new(0x1000 + addr * 8, len);
            match kind {
                0 => b.push(
                    tid,
                    s,
                    EventKind::Store {
                        range,
                        non_temporal: flag,
                        atomic: false,
                    },
                ),
                1 => b.push(
                    tid,
                    s,
                    EventKind::Load {
                        range,
                        atomic: flag,
                    },
                ),
                2 => b.push(tid, s, EventKind::Flush { addr: range.start }),
                3 => b.push(tid, s, EventKind::Fence),
                4 => {
                    if !held[tid.index()].contains(&lock) {
                        held[tid.index()].push(lock);
                        b.push(
                            tid,
                            s,
                            EventKind::Acquire {
                                lock: LockId(lock),
                                mode: if flag {
                                    LockMode::Shared
                                } else {
                                    LockMode::Exclusive
                                },
                            },
                        );
                    }
                }
                _ => {
                    if let Some(pos) = held[tid.index()].iter().position(|&l| l == lock) {
                        held[tid.index()].remove(pos);
                        b.push(tid, s, EventKind::Release { lock: LockId(lock) });
                    }
                }
            }
        }
        for w in 1..=workers {
            b.push(ThreadId(0), s, EventKind::ThreadJoin { child: ThreadId(w) });
        }
        b.finish()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode is the identity on traces.
    #[test]
    fn trace_codec_roundtrip(trace in arb_trace()) {
        let decoded = io::decode(io::encode(&trace).as_ref()).expect("decode");
        prop_assert_eq!(&decoded.events, &trace.events);
        prop_assert_eq!(decoded.thread_count, trace.thread_count);
        prop_assert_eq!(&decoded.regions, &trace.regions);
    }

    /// Decoding never panics on corrupted input.
    #[test]
    fn trace_decode_handles_corruption(trace in arb_trace(), cut in 0usize..64, flip in 0usize..64) {
        let mut raw = io::encode(&trace).to_vec();
        if !raw.is_empty() {
            let cut = cut % raw.len();
            raw.truncate(raw.len() - cut);
        }
        if !raw.is_empty() {
            let i = flip % raw.len();
            raw[i] ^= 0x55;
        }
        let _ = io::decode(&raw); // must not panic
    }

    /// Memory-simulation invariants hold on arbitrary traces: every window
    /// has a consistent close reason, windows partition by counters, and
    /// line confinement holds.
    #[test]
    fn memsim_invariants(trace in arb_trace()) {
        let out = simulate(&trace, &SimConfig::default());
        let mut persisted = 0u64;
        let mut overwritten = 0u64;
        let mut unpersisted = 0u64;
        for w in &out.windows {
            // Each window piece stays within one cache line.
            prop_assert_eq!(w.range.lines().count(), 1);
            match w.close {
                CloseReason::Persisted => {
                    persisted += 1;
                    prop_assert!(w.close_vc.is_some());
                }
                CloseReason::Overwritten => {
                    overwritten += 1;
                    prop_assert!(w.close_vc.is_some());
                }
                CloseReason::NeverPersisted => {
                    unpersisted += 1;
                    prop_assert!(w.close_vc.is_none());
                    prop_assert!(out.locksets.get(w.effective_ls).is_empty());
                }
            }
        }
        prop_assert_eq!(out.stats.windows_persisted, persisted);
        prop_assert_eq!(out.stats.windows_overwritten, overwritten);
        prop_assert_eq!(out.stats.windows_unpersisted, unpersisted);
        prop_assert_eq!(out.stats.loads, out.loads.len() as u64);
    }

    /// The IRH only ever removes reports, and never with more distinct
    /// race sites than the raw analysis.
    #[test]
    fn irh_is_a_pure_filter(trace in arb_trace()) {
        let with_irh = Analyzer::new(AnalysisConfig { irh: true, ..Default::default() }).run(&trace);
        let without = Analyzer::new(AnalysisConfig { irh: false, ..Default::default() }).run(&trace);
        prop_assert!(with_irh.races.len() <= without.races.len());
        // Every race reported with IRH also exists without it.
        for r in &with_irh.races {
            prop_assert!(
                without.races.iter().any(|q| q.store_site_str() == r.store_site_str()
                    && q.load_site_str() == r.load_site_str()),
                "IRH invented a report: {}", r.summary()
            );
        }
    }

    /// Excluding atomics never increases the report count.
    #[test]
    fn atomics_filter_is_monotone(trace in arb_trace()) {
        let all = Analyzer::default().run(&trace);
        let no_atomics =
            Analyzer::new(AnalysisConfig { include_atomics: false, ..Default::default() }).run(&trace);
        prop_assert!(no_atomics.races.len() <= all.races.len());
    }
}

/// A trace for the candidate-set oracle: loads of 1–4096 bytes and stores
/// of 1–256 bytes at unaligned addresses in one 4 KiB area, so loads span
/// several lines and stores split into several line windows. 2–4 worker
/// threads interleave them with flushes, fences, atomics and, unless
/// `lock_free`, lock sections, under three call stacks.
fn arb_pairing_trace(lock_free: bool) -> impl Strategy<Value = Trace> {
    let ops = proptest::collection::vec(
        (0u8..6, 0u64..4096, 1u32..4097, 0u64..3, any::<bool>()),
        1..100,
    );
    (ops, 2u32..5).prop_map(move |(ops, workers)| {
        let mut b = TraceBuilder::new();
        let stacks = [
            b.intern_stack([Frame::new("put", "oracle.rs", 1)]),
            b.intern_stack([Frame::new("get", "oracle.rs", 2)]),
            b.intern_stack([Frame::new("scan", "oracle.rs", 3)]),
        ];
        for w in 1..=workers {
            let kind = EventKind::ThreadCreate { child: ThreadId(w) };
            b.push(ThreadId(0), stacks[0], kind);
        }
        let mut held: Vec<Vec<u64>> = vec![Vec::new(); workers as usize + 1];
        for (i, (kind, offset, len, lock, flag)) in ops.into_iter().enumerate() {
            let tid = ThreadId(1 + (i as u32 % workers));
            let s = stacks[i % stacks.len()];
            let start = 0x10_0000 + offset;
            let kind = match kind {
                0 => EventKind::Store {
                    range: AddrRange::new(start, len % 256 + 1),
                    non_temporal: false,
                    atomic: flag,
                },
                1 => EventKind::Load {
                    range: AddrRange::new(start, len),
                    atomic: flag,
                },
                2 => EventKind::Flush { addr: start },
                3 => EventKind::Fence,
                4 if !lock_free && !held[tid.index()].contains(&lock) => {
                    held[tid.index()].push(lock);
                    EventKind::Acquire {
                        lock: LockId(lock),
                        mode: LockMode::Exclusive,
                    }
                }
                5 if !lock_free && held[tid.index()].contains(&lock) => {
                    held[tid.index()].retain(|&l| l != lock);
                    EventKind::Release { lock: LockId(lock) }
                }
                _ => continue,
            };
            b.push(tid, s, kind);
        }
        for w in 1..=workers {
            let kind = EventKind::ThreadJoin { child: ThreadId(w) };
            b.push(ThreadId(0), stacks[0], kind);
        }
        b.finish()
    })
}

/// Brute force over `simulate`'s live windows and loads (atomics only
/// with `include_atomics`): the cross-thread, byte-overlapping
/// (window, load) pairs, and the unordered cross-thread, overlapping
/// window pairs.
fn brute_force_pairs(trace: &Trace, irh: bool, include_atomics: bool) -> (u64, u64) {
    let sim = simulate(
        trace,
        &SimConfig {
            irh,
            ..Default::default()
        },
    );
    let windows: Vec<_> = sim
        .windows
        .iter()
        .filter(|w| w.live() && (include_atomics || !w.atomic))
        .collect();
    let loads: Vec<_> = sim
        .loads
        .iter()
        .filter(|l| l.live() && (include_atomics || !l.atomic))
        .collect();
    let mut load_pairs = 0;
    let mut store_pairs = 0;
    for (i, w) in windows.iter().enumerate() {
        for l in &loads {
            load_pairs += u64::from(w.tid != l.tid && w.range.overlaps(&l.range));
        }
        for v in &windows[i + 1..] {
            store_pairs += u64::from(w.tid != v.tid && w.range.overlaps(&v.range));
        }
    }
    (load_pairs, store_pairs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The engine examines exactly the cross-thread, byte-overlapping
    /// pairs of live windows and loads: its address index neither misses
    /// a candidate nor counts one twice, with and without the IRH and
    /// atomics.
    #[test]
    fn candidate_pairs_match_a_brute_force_count(trace in arb_pairing_trace(false)) {
        for irh in [false, true] {
            for include_atomics in [false, true] {
                let cfg = AnalysisConfig { irh, include_atomics, ..Default::default() };
                let report = Analyzer::new(cfg).run(&trace);
                let (pairs, _) = brute_force_pairs(&trace, irh, include_atomics);
                prop_assert_eq!(
                    report.stats.pairing.candidate_pairs, pairs,
                    "irh {} include_atomics {}", irh, include_atomics
                );
            }
        }
    }

    /// Without locks or the happens-before filter every candidate pair is
    /// racy, and the store/store pass pairs every cross-thread overlapping
    /// pair of windows exactly once.
    #[test]
    fn lock_free_pairs_all_race_without_hb(trace in arb_pairing_trace(true)) {
        for irh in [false, true] {
            for include_atomics in [false, true] {
                let cfg = AnalysisConfig {
                    irh,
                    include_atomics,
                    use_hb: false,
                    check_store_store: true,
                    ..Default::default()
                };
                let report = Analyzer::new(cfg).run(&trace);
                let (pairs, store_pairs) = brute_force_pairs(&trace, irh, include_atomics);
                let ctx = format!("irh {irh} include_atomics {include_atomics}");
                prop_assert_eq!(report.stats.pairing.candidate_pairs, pairs, "{}", ctx);
                prop_assert_eq!(report.stats.pairing.racy_pairs, pairs, "{}", ctx);
                let store_store: u64 = report
                    .races
                    .iter()
                    .filter(|r| r.store_store)
                    .map(|r| r.pair_count)
                    .sum();
                prop_assert_eq!(store_store, store_pairs, "{}", ctx);
            }
        }
    }
}
