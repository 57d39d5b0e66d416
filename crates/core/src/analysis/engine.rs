//! Sharded parallel pairing engine (stage 3, Algorithm 1).
//!
//! The pairing loop is partitioned by *address*: every store-window group
//! is assigned to one of [`PAIR_SHARDS`] shards keyed by a hash of the
//! window's starting cache line, and the per-shard loops run concurrently
//! on [`std::thread::scope`] workers (claimed from an atomic cursor, see
//! [`crate::parallel`]). Loads are not partitioned — every shard reads the
//! same immutable [`AddrIndex`] of load groups — so a window group is
//! paired against exactly the candidates the sequential loop would have
//! seen, in the same order.
//!
//! The index is flat: a line → slot map and two arrays, however many
//! words, lines or groups it holds. A slot keeps one ascending run of
//! groups per word of its line, for the groups that cover only part of
//! it, and one run for the groups that cover the whole line. A window is
//! line-confined, so its query is one probe, and it reads only the runs of
//! the words it touches.
//!
//! Determinism contract: the report is **bit-identical for every worker
//! count**, including truncation. Three mechanisms carry that contract:
//!
//! 1. the shard count is fixed ([`PAIR_SHARDS`]), independent of the
//!    worker count — threads only decide *who* executes a shard, never
//!    *what* a shard contains;
//! 2. [`AnalysisBudget::max_candidate_pairs`] is pre-split into per-shard
//!    slices proportional to each shard's window-group count (remainder to
//!    the lowest-index non-empty shards), so a budget trips at the same
//!    point in the same shard no matter the schedule;
//! 3. the merge is order-independent: per-`SiteKey` accumulators combine
//!    by witness *rank* (the global group order the sequential loop used),
//!    pair counts add, flags OR, and the final sort re-establishes the
//!    report order.
//!
//! The wall-clock stops — the stage watchdog and the interrupt — are
//! schedule-dependent by nature; their truncated shard outputs are never
//! cached ([`ShardOutput::cacheable`]).
//!
//! [`AnalysisBudget::max_candidate_pairs`]: super::AnalysisBudget::max_candidate_pairs

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use crate::addr::{line_of, AddrRange, CACHE_LINE};
use crate::hash::FxHashMap;
use crate::lockset::{LockEntry, Lockset};
use crate::memsim::{AccessSet, CloseReason, LsId, SimStats, StoreWindow, VcId};
use crate::obs::{MetricsRegistry, Stage};
use crate::parallel::{Heartbeat, Watchdog};
use crate::trace::StackTable;
use crate::vclock::ClockOrder;

use super::{
    AnalysisConfig, AnalysisReport, BudgetExceeded, Coverage, PairingStats, PipelineStats,
    QuarantineStats, Race, RaceKey,
};

/// Fixed shard count. Not tunable: the shard a window lands in is part of
/// the (deterministic) budget-splitting semantics, so it must not vary
/// with the machine.
pub(crate) const PAIR_SHARDS: usize = 64;

/// Below this many window groups the fan-out overhead dominates; the
/// automatic thread default then runs the shards on one worker. The
/// output is identical either way.
const PARALLEL_GROUPS: usize = 128;

/// Shard assignment: Fibonacci-hash the window's starting cache line.
fn shard_of(line: u64) -> usize {
    ((line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % PAIR_SHARDS
}

/// Equivalence-class key of a store window for §4-style grouping:
/// `(start, len, tid, reserved, store-clock, effective-lockset, close-clock,
/// stack, close/atomic/nt bits)`.
type WinKey = (u64, u32, u32, u32, u32, u32, u32, u32, u8);

/// Equivalence-class key of a load: `(start, len, tid, lockset, clock,
/// stack, atomic)`.
type LoadKey = (u64, u32, u32, u32, u32, u32, bool);

/// Report-deduplication key: the pair of *sites* (functions containing the
/// store and the load), falling back to exact-backtrace identity when site
/// information is missing.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) enum SiteKey {
    Functions(String, String),
    Stacks(u32, u32),
}

impl SiteKey {
    /// The key a racy pair of a `store_stack` window and a `load_stack`
    /// load is reported under.
    pub(crate) fn of(stacks: &StackTable, store_stack: u32, load_stack: u32) -> Self {
        match (stacks.site(store_stack), stacks.site(load_stack)) {
            (Some(s), Some(l)) => SiteKey::Functions(s.function.clone(), l.function.clone()),
            _ => SiteKey::Stacks(store_stack, load_stack),
        }
    }
}

/// A race plus the rank of its first witness: `(window-group index,
/// load-group index)` in the global order the sequential loop examines
/// pairs. The merge keeps the minimum — i.e. exactly the witness the
/// sequential loop's `or_insert_with` would have kept.
#[derive(Clone)]
pub(crate) struct RaceAcc {
    pub(crate) rank: (u32, u32),
    pub(crate) race: Race,
}

impl RaceAcc {
    /// Combines two shards' accumulators for the same site pair: witness
    /// fields from the lower rank, pair counts added, sticky flags ORed.
    fn absorb(&mut self, other: RaceAcc) {
        let (keep, add) = if other.rank < self.rank {
            let prev = std::mem::replace(self, other);
            (self, prev)
        } else {
            (&mut *self, other)
        };
        keep.race.pair_count += add.race.pair_count;
        keep.race.store_never_persisted |= add.race.store_never_persisted;
        keep.race.effective_lockset_empty |= add.race.effective_lockset_empty;
    }
}

/// Everything a shard's pairing loop produces. `Clone` + `pub(crate)`
/// fields so the checkpoint layer can persist finished shards and feed
/// them back through [`PairingControls::resume`].
#[derive(Clone, Default)]
pub(crate) struct ShardOutput {
    pub(crate) races: HashMap<SiteKey, RaceAcc>,
    pub(crate) candidate_pairs: u64,
    pub(crate) hb_pruned: u64,
    pub(crate) lockset_protected: u64,
    pub(crate) racy_pairs: u64,
    pub(crate) hb_memo_hits: u64,
    pub(crate) lockset_memo_hits: u64,
    pub(crate) groups_examined: u64,
    /// Candidate pairs in the groups a tripped pair budget left
    /// unexamined — enumerated (cheap: no HB/lockset classification) so
    /// the metrics' candidate-pair conservation law stays exact under
    /// truncation. Zero unless `truncated == Some(CandidatePairs)`.
    pub(crate) pairs_budget_dropped: u64,
    pub(crate) truncated: Option<BudgetExceeded>,
}

impl ShardOutput {
    /// True when this output is a pure function of the input (no wall-clock
    /// or cancellation dependence) and may be cached across runs. Watchdog
    /// and interrupt stops are schedule-dependent and never cached.
    pub(crate) fn cacheable(&self) -> bool {
        matches!(self.truncated, None | Some(BudgetExceeded::CandidatePairs))
    }
}

/// The checkpoint layer's per-shard write hook (worker-thread context).
pub(crate) type ShardHook<'a> = &'a (dyn Fn(usize, &ShardOutput) + Sync);

/// Optional hooks into [`run_pairing_controlled`]: checkpoint/resume.
#[derive(Default)]
pub(crate) struct PairingControls<'a> {
    /// Finished shard outputs from a previous (killed) run, keyed by shard
    /// index. A present shard is not re-executed: its cached output is
    /// merged as-is (its per-shard metrics contribution included), which
    /// preserves bit-identical reports because only
    /// [`ShardOutput::cacheable`] outputs are ever stored.
    pub resume: Option<&'a HashMap<usize, ShardOutput>>,
    /// Called (from worker threads) with every freshly computed cacheable
    /// shard output — the checkpoint layer's write hook.
    pub on_shard: Option<ShardHook<'a>>,
}

/// Words per cache line.
const LINE_WORDS: u64 = CACHE_LINE / 8;

/// Index of the whole-line run among an [`AddrIndex`] slot's runs; runs
/// `0..WHOLE` are the line's words.
const WHOLE: usize = LINE_WORDS as usize;

/// Runs per indexed line in an [`AddrIndex`].
const LINE_RUNS: usize = WHOLE + 1;

/// Each cache line `range` touches, with the first and last of that line's
/// words (`0..LINE_WORDS`) the range touches.
fn line_words(range: &AddrRange) -> impl Iterator<Item = (u64, usize, usize)> {
    let (first, last) = range.word_span();
    (first / LINE_WORDS..=last / LINE_WORDS).map(move |line| {
        let lo = first.max(line * LINE_WORDS) % LINE_WORDS;
        let hi = last.min(line * LINE_WORDS + LINE_WORDS - 1) % LINE_WORDS;
        (line, lo as usize, hi as usize)
    })
}

/// Flat address index: which groups touch which 8-byte words. It serves
/// the candidate lookup of Algorithm 1 line 15, for loads and for the
/// store/store pass.
///
/// Each cache line some group touches gets a slot, and a slot owns
/// [`LINE_RUNS`] consecutive runs of `entries`. Run `w` < [`WHOLE`] holds
/// the groups that touch word `w` of the line without covering the whole
/// line; a group touching several of its words is in each of their runs.
/// Run [`WHOLE`] holds the groups covering the whole line, once each.
/// Groups are filed in index order, so every run is ascending.
///
/// The index is three allocations, however many words, lines or groups it
/// holds. A query costs one probe per cache line and reads only the runs
/// of the words it touches, plus each line's whole-line run.
pub(crate) struct AddrIndex {
    /// Cache line → slot. Probe-only, never iterated: safe for the fast
    /// deterministic hasher.
    slots: FxHashMap<u64, u32>,
    /// Run `k` (of slot `k / LINE_RUNS`) is
    /// `entries[bounds[k]..bounds[k + 1]]`.
    bounds: Vec<u32>,
    /// Group ids, run after run.
    entries: Vec<u32>,
}

impl AddrIndex {
    /// Indexes groups `0..n` by the ranges `ranges` yields, in group order.
    /// It is iterated twice.
    pub(crate) fn build<I>(ranges: I) -> Self
    where
        I: Iterator<Item = AddrRange> + Clone,
    {
        // The runs a group touching words `lo..=hi` of a slot's line is
        // filed in.
        fn runs_of(slot: u32, lo: usize, hi: usize) -> Range<usize> {
            let base = slot as usize * LINE_RUNS;
            if lo == 0 && hi == WHOLE - 1 {
                base + WHOLE..base + WHOLE + 1
            } else {
                base + lo..base + hi + 1
            }
        }

        // Pass 1: give each line a slot and count run `k`'s entries into
        // `bounds[k + 1]`.
        let mut slots: FxHashMap<u64, u32> = FxHashMap::default();
        let mut bounds: Vec<u32> = vec![0];
        let mut total = 0usize;
        for range in ranges.clone() {
            for (line, lo, hi) in line_words(&range) {
                let fresh = slots.len() as u32;
                let slot = *slots.entry(line).or_insert(fresh);
                if slot == fresh {
                    bounds.extend_from_slice(&[0; LINE_RUNS]);
                }
                for k in runs_of(slot, lo, hi) {
                    bounds[k + 1] += 1;
                    total += 1;
                }
            }
        }
        assert!(
            u32::try_from(total).is_ok(),
            "address index exceeds 2^32 entries"
        );
        // Exclusive prefix sums: `bounds[k + 1]` becomes run `k`'s start,
        // the cursor pass 2 advances to the run's end, which is run
        // `k + 1`'s start. `bounds[0]` stays run 0's start.
        let mut start = 0;
        for b in &mut bounds[1..] {
            let count = *b;
            *b = start;
            start += count;
        }
        // Pass 2: file each group, in group order.
        let mut entries = vec![0u32; total];
        for (group, range) in ranges.enumerate() {
            for (line, lo, hi) in line_words(&range) {
                for k in runs_of(slots[&line], lo, hi) {
                    entries[bounds[k + 1] as usize] = group as u32;
                    bounds[k + 1] += 1;
                }
            }
        }
        Self {
            slots,
            bounds,
            entries,
        }
    }

    /// The groups whose ranges share a word with `range`, ascending and
    /// unique. A lone non-empty run is returned in place; several (words
    /// with different groups, or several lines) are merged in `scratch`.
    pub(crate) fn query<'a>(&'a self, range: &AddrRange, scratch: &'a mut Vec<u32>) -> &'a [u32] {
        let mut first: Option<&[u32]> = None;
        let mut merged = false;
        scratch.clear();
        for (line, lo, hi) in line_words(range) {
            let Some(&slot) = self.slots.get(&line) else {
                continue;
            };
            let base = slot as usize * LINE_RUNS;
            for k in (base + lo..=base + hi).chain([base + WHOLE]) {
                let run = &self.entries[self.bounds[k] as usize..self.bounds[k + 1] as usize];
                if run.is_empty() {
                    continue;
                }
                match first {
                    None => first = Some(run),
                    Some(prev) => {
                        if !merged {
                            scratch.extend_from_slice(prev);
                            merged = true;
                        }
                        scratch.extend_from_slice(run);
                    }
                }
            }
        }
        if !merged {
            return first.unwrap_or(&[]);
        }
        scratch.sort_unstable();
        scratch.dedup();
        scratch
    }
}

/// One load group's pairing-relevant fields, flattened into a contiguous
/// array indexed by group id. The inner loop visits load groups by the
/// (sorted) candidate list; reading a 40-byte row here instead of chasing
/// `load_groups[gi] → loads[li]` through two scattered vecs keeps the
/// per-candidate work inside one or two cache lines.
#[derive(Clone, Copy)]
struct LoadPre {
    range: AddrRange,
    tid: u32,
    /// Interned clock id (raw).
    vc: u32,
    /// Normalized lockset id.
    norm_ls: u32,
    stack: u32,
    count: u64,
}

/// Per-shard race accumulator keyed by `(store_stack, load_stack)`: the
/// hot loop only bumps integers here; resolving stacks to sites and
/// building [`Race`] witnesses happens once per distinct stack pair when
/// the shard folds into [`ShardOutput::races`].
struct StackPairAcc {
    /// `(window-group, load-group)` of the first witness, in loop order.
    rank: (u32, u32),
    /// Window/load indices of that first witness.
    win_i: u32,
    load_i: u32,
    pair_count: u64,
    never_persisted: bool,
    ls_empty: bool,
}

/// Read-only context shared by every shard worker.
struct PairingCtx<'a> {
    stacks: &'a StackTable,
    access: &'a AccessSet,
    cfg: &'a AnalysisConfig,
    /// Raw lockset id → normalized (timestamp-stripped) id.
    norm_of_raw: &'a [u32],
    /// Normalized id → lockset value.
    norm_sets: &'a [Lockset],
    /// (representative load index, population) per load group.
    load_groups: &'a [(u32, u64)],
    /// Flattened hot fields per load group (same indexing as
    /// `load_groups`).
    load_pre: &'a [LoadPre],
    /// (representative window index, population) per window group.
    window_groups: &'a [(u32, u64)],
    /// The load groups by the words they touch.
    loads_by_addr: &'a AddrIndex,
    /// Tripped by the stage watchdog (or pre-set when `stage_timeout` is
    /// zero): unfinished shards stop with [`BudgetExceeded::StageStalled`].
    stalled: &'a AtomicBool,
    /// Cooperative interrupt (SIGINT/SIGTERM): unfinished shards stop with
    /// [`BudgetExceeded::Interrupted`].
    interrupt: Option<&'a AtomicBool>,
    obs: &'a MetricsRegistry,
}

impl PairingCtx<'_> {
    fn norm(&self, raw: LsId) -> u32 {
        self.norm_of_raw[raw.id() as usize]
    }

    /// Counts the candidate pairs of one window group without classifying
    /// them — the cross-thread, byte-overlapping pairs the main loop
    /// *would* have examined. Used to account for the tail a tripped pair
    /// budget skipped.
    fn group_pair_count(&self, win_gi: u32, scratch: &mut Vec<u32>) -> u64 {
        let (wi, wcount) = self.window_groups[win_gi as usize];
        let win = &self.access.windows[wi as usize];
        let candidates = self.loads_by_addr.query(&win.range, scratch);
        let (win_start, win_end) = (win.range.start, win.range.end());
        let mut pairs = 0;
        for &gi in candidates {
            let lp = &self.load_pre[gi as usize];
            if lp.tid == win.tid.0 || lp.range.start >= win_end || win_start >= lp.range.end() {
                continue;
            }
            pairs += wcount * lp.count;
        }
        pairs
    }

    /// The sequential inner loop of Algorithm 1 over one shard's window
    /// groups (`plan`, in global group order), with a per-shard candidate-
    /// pair budget `slice`.
    /// Sliced sleep standing in for a stuck shard in tests: silent (no
    /// heartbeats, so the watchdog can fire) but cooperative — a tripped
    /// stall or interrupt flag cuts it short.
    fn injected_stall(&self, shard: usize) {
        let Some(inj) = self.cfg.stall_injection else {
            return;
        };
        if inj.shard != shard {
            return;
        }
        let t0 = std::time::Instant::now();
        while t0.elapsed() < inj.delay {
            if self.stalled.load(Ordering::Relaxed)
                || self.interrupt.is_some_and(|i| i.load(Ordering::Relaxed))
            {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn run_shard(
        &self,
        shard: usize,
        plan: &[u32],
        slice: Option<u64>,
        hb: &Heartbeat<'_>,
    ) -> ShardOutput {
        let mut out = ShardOutput::default();
        self.injected_stall(shard);
        // Memo tables are per-shard: shards share no mutable state, and a
        // shard's windows cluster on the same lines (hence the same clock
        // and lockset ids), which is where memoization pays.
        let mut hb_memo: FxHashMap<(u32, u32, u32), bool> = FxHashMap::default();
        let mut protected_memo: FxHashMap<(u32, u32), bool> = FxHashMap::default();
        let mut race_accs: FxHashMap<u64, StackPairAcc> = FxHashMap::default();
        let mut scratch: Vec<u32> = Vec::new();
        // First plan index NOT examined (where a stop landed).
        let mut stopped_at = plan.len();

        for (idx, &win_gi) in plan.iter().enumerate() {
            hb.beat();
            if let Some(max) = slice {
                if out.candidate_pairs >= max {
                    out.truncated = Some(BudgetExceeded::CandidatePairs);
                    stopped_at = idx;
                    break;
                }
            }
            if self.stalled.load(Ordering::Relaxed) {
                out.truncated = Some(BudgetExceeded::StageStalled);
                stopped_at = idx;
                break;
            }
            if self.interrupt.is_some_and(|i| i.load(Ordering::Relaxed)) {
                out.truncated = Some(BudgetExceeded::Interrupted);
                stopped_at = idx;
                break;
            }
            out.groups_examined += 1;
            let (wi, wcount) = self.window_groups[win_gi as usize];
            let win = &self.access.windows[wi as usize];

            // The load groups sharing a word with the window, ascending:
            // the order witness ranks follow.
            let candidates = self.loads_by_addr.query(&win.range, &mut scratch);
            if candidates.is_empty() {
                continue;
            }

            // Everything the inner loop needs from the window, hoisted out
            // of the per-candidate path.
            let win_tid = win.tid.0;
            let (win_start, win_end) = (win.range.start, win.range.end());
            let close_raw = win.close_vc.map(|c| c.id()).unwrap_or(u32::MAX);
            let store_raw = win.store_vc.id();
            let win_norm = self.norm(win.effective_ls);
            let win_never_persisted = win.close == CloseReason::NeverPersisted;
            let win_ls_empty = self.access.locksets.get(win.effective_ls).is_empty();

            for &gi in candidates {
                let lp = &self.load_pre[gi as usize];
                // Algorithm 1 line 16: same-thread pairs cannot race.
                if lp.tid == win_tid {
                    continue;
                }
                // Line 15 (refined): byte-level overlap, not just word
                // sharing.
                if lp.range.start >= win_end || win_start >= lp.range.end() {
                    continue;
                }
                let pairs = wcount * lp.count;
                out.candidate_pairs += pairs;

                // Line 17: inter-thread happens-before filter over the
                // window [store_vc, close_vc]. The pair is impossible if
                // the load happened-before the store became visible, or
                // the value was guaranteed persisted (or gone) before the
                // load could run. (Disabled by the Figure 3 ablation.)
                let key = (store_raw, close_raw, lp.vc);
                let ordered = self.cfg.use_hb
                    && match hb_memo.get(&key) {
                        Some(&v) => {
                            out.hb_memo_hits += 1;
                            v
                        }
                        None => {
                            let v = hb_ordered(self.access, win, VcId::from_raw(lp.vc));
                            hb_memo.insert(key, v);
                            v
                        }
                    };
                if ordered {
                    out.hb_pruned += pairs;
                    continue;
                }

                // Line 18: effective lockset ∩ load lockset (normalized
                // ids).
                let lkey = (win_norm, lp.norm_ls);
                let protected = match protected_memo.get(&lkey) {
                    Some(&v) => {
                        out.lockset_memo_hits += 1;
                        v
                    }
                    None => {
                        let v = self.norm_sets[lkey.0 as usize]
                            .protects_against(&self.norm_sets[lkey.1 as usize]);
                        protected_memo.insert(lkey, v);
                        v
                    }
                };
                if protected {
                    out.lockset_protected += pairs;
                    continue;
                }

                // Line 19: racy — bump the stack-pair accumulator; the
                // site-level dedup and witness construction run once per
                // distinct stack pair in the shard fold below.
                out.racy_pairs += pairs;
                let skey = (u64::from(win.stack) << 32) | u64::from(lp.stack);
                let acc = race_accs.entry(skey).or_insert_with(|| StackPairAcc {
                    rank: (win_gi, gi),
                    win_i: wi,
                    load_i: self.load_groups[gi as usize].0,
                    pair_count: 0,
                    never_persisted: false,
                    ls_empty: false,
                });
                acc.pair_count += pairs;
                acc.never_persisted |= win_never_persisted;
                acc.ls_empty |= win_ls_empty;
            }
        }

        // Fold stack-pair accumulators into the site-keyed race map, in
        // ascending first-witness rank — the same order the old per-pair
        // `or_insert_with` encountered them, so witness selection (lowest
        // rank wins via `absorb`) is bit-identical.
        let mut accs: Vec<(u64, StackPairAcc)> = race_accs.into_iter().collect();
        accs.sort_unstable_by_key(|(_, a)| a.rank);
        for (skey, a) in accs {
            let win = &self.access.windows[a.win_i as usize];
            let ld = &self.access.loads[a.load_i as usize];
            let (store_stack, load_stack) = ((skey >> 32) as u32, skey as u32);
            let key = SiteKey::of(self.stacks, store_stack, load_stack);
            let acc = RaceAcc {
                rank: a.rank,
                race: Race {
                    key: RaceKey {
                        store_stack,
                        load_stack,
                    },
                    store_site: self.stacks.site(store_stack).cloned(),
                    load_site: self.stacks.site(load_stack).cloned(),
                    store_tid: win.tid,
                    load_tid: ld.tid,
                    example_range: win.range.intersection(&ld.range).unwrap_or(win.range),
                    pair_count: a.pair_count,
                    store_atomic: win.atomic,
                    load_atomic: ld.atomic,
                    store_non_temporal: win.non_temporal,
                    store_never_persisted: a.never_persisted,
                    effective_lockset_empty: a.ls_empty,
                    store_store: false,
                },
            };
            match out.races.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().absorb(acc),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(acc);
                }
            }
        }
        // Pair-budget stops leave a deterministic tail of unexamined
        // groups; enumerate (but don't classify) their pairs so the
        // candidate-pair conservation law stays exact. Watchdog and
        // interrupt stops skip this: enumerating a tail after either would
        // defeat the stop.
        if out.truncated == Some(BudgetExceeded::CandidatePairs) {
            for &win_gi in &plan[stopped_at..] {
                out.pairs_budget_dropped += self.group_pair_count(win_gi, &mut scratch);
            }
        }
        self.obs.pairing.shard_candidate_pairs[shard]
            .add(out.candidate_pairs + out.pairs_budget_dropped);
        out
    }
}

/// Whether interned clock `a` happens-before or equals `b` (`a ⊑ b`).
///
/// Both happens-before queries of the pairing have this shape with `a` a
/// thread snapshot clock, which the FastTrack-style
/// [`Epoch`](crate::vclock::Epoch) compression answers in O(1)
/// (`a ⊑ b ⟺ a.time ≤ b[a.tid]`). The full vector comparison remains as
/// the fallback for ids without a recorded snapshot epoch (post-join
/// merges) and for epoch-demoted runs (ill-formed unvalidated traces,
/// [`AccessSet::epoch_sound`]).
pub(crate) fn clock_le(access: &AccessSet, a: VcId, b: VcId) -> bool {
    let (ca, cb) = (access.vclocks.get(a), access.vclocks.get(b));
    let full = || matches!(ca.compare(cb), ClockOrder::Before | ClockOrder::Equal);
    match access.epoch_of(a) {
        Some(e) => {
            let fast = e.le_clock(cb);
            debug_assert_eq!(fast, full(), "epoch fast path diverged from full clocks");
            fast
        }
        None => full(),
    }
}

/// The happens-before filter of Algorithm 1 line 17: a window and a load
/// with clock `ld_vc` are ordered (cannot race) if the load happened-before
/// the store became visible, or the value was guaranteed persisted (or
/// gone) before the load could run. A never-persisted window is unbounded.
pub(crate) fn hb_ordered(access: &AccessSet, win: &StoreWindow, ld_vc: VcId) -> bool {
    clock_le(access, ld_vc, win.store_vc)
        || win.close_vc.is_some_and(|c| clock_le(access, c, ld_vc))
}

/// Splits `max_candidate_pairs` into per-shard slices proportional to each
/// shard's window-group count, remainder to the lowest-index non-empty
/// shards. `None` (no budget) stays `None` everywhere.
fn budget_slices(max: Option<u64>, plan: &[Vec<u32>]) -> Vec<Option<u64>> {
    let Some(max) = max else {
        return vec![None; plan.len()];
    };
    let total: u64 = plan.iter().map(|p| p.len() as u64).sum();
    if total == 0 {
        return vec![Some(max); plan.len()];
    }
    let mut slices: Vec<u64> = plan
        .iter()
        .map(|p| ((max as u128 * p.len() as u128) / total as u128) as u64)
        .collect();
    let mut remainder = max - slices.iter().sum::<u64>();
    for (i, p) in plan.iter().enumerate() {
        if remainder == 0 {
            break;
        }
        if !p.is_empty() {
            slices[i] += 1;
            remainder -= 1;
        }
    }
    slices.into_iter().map(Some).collect()
}

/// Stage 3 entry point: the sharded, deterministic pairing of store
/// windows with loads, merged back into a single [`AnalysisReport`].
pub(crate) fn run_pairing(
    stacks: &StackTable,
    access: &AccessSet,
    cfg: &AnalysisConfig,
    obs: &MetricsRegistry,
) -> AnalysisReport {
    run_pairing_controlled(stacks, access, cfg, obs, PairingControls::default())
}

/// [`run_pairing`] with checkpoint/resume hooks (see [`PairingControls`]).
pub(crate) fn run_pairing_controlled(
    stacks: &StackTable,
    access: &AccessSet,
    cfg: &AnalysisConfig,
    obs: &MetricsRegistry,
    controls: PairingControls<'_>,
) -> AnalysisReport {
    let _stage = obs.stage(Stage::Pairing);
    let mut stats = PairingStats::default();
    let mut coverage = Coverage::default();

    // The inter-thread lockset intersection ignores acquisition timestamps
    // (§3.1.2: they are "only meaningful in the thread-local context"), so
    // locksets are first *normalized* — timestamps stripped and the result
    // re-interned. Without this, every critical section carries a distinct
    // lockset id and the grouping below cannot collapse locked accesses.
    // Only the ids the grouped accesses reference are normalized, on first
    // use; normalized ids enter nothing but equality tests and memo keys.
    let mut norm_of_raw: Vec<u32> = vec![u32::MAX; access.locksets.len()];
    let mut norm_sets: Vec<Lockset> = Vec::new();
    let mut norm_index: FxHashMap<Lockset, u32> = FxHashMap::default();
    let mut norm = |raw: LsId| -> u32 {
        let slot = &mut norm_of_raw[raw.id() as usize];
        if *slot == u32::MAX {
            let stripped = Lockset::from_entries(
                access
                    .locksets
                    .get(raw)
                    .iter()
                    .map(|e| LockEntry {
                        lock: e.lock,
                        mode: e.mode,
                        acq_ts: 0,
                    })
                    .collect(),
            );
            *slot = *norm_index.entry(stripped.clone()).or_insert_with(|| {
                norm_sets.push(stripped);
                (norm_sets.len() - 1) as u32
            });
        }
        *slot
    };

    // §4: "we group PM accesses by thread id and address" — accesses with
    // identical (range, thread, lockset, vector clock, backtrace) are
    // interchangeable for Algorithm 1 (every check reads only those
    // fields), so each equivalence class is paired once and its population
    // multiplies the pair counts. On zipfian workloads this collapses the
    // hot keys' millions of accesses into a handful of groups.
    let mut load_groups: Vec<(u32, u64)> = Vec::new(); // (repr index, count)
    {
        let mut index: FxHashMap<LoadKey, u32> = FxHashMap::default();
        for (i, ld) in access.loads.iter().enumerate() {
            if !ld.live() || (!cfg.include_atomics && ld.atomic) {
                continue;
            }
            stats.live_loads += 1;
            let key = (
                ld.range.start,
                ld.range.len,
                ld.tid.0,
                norm(ld.ls),
                ld.vc.id(),
                ld.stack,
                ld.atomic,
            );
            match index.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    load_groups[*e.get() as usize].1 += 1;
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(load_groups.len() as u32);
                    load_groups.push((i as u32, 1));
                }
            }
        }
    }
    let mut window_groups: Vec<(u32, u64)> = Vec::new();
    {
        let mut index: FxHashMap<WinKey, u32> = FxHashMap::default();
        for (i, w) in access.windows.iter().enumerate() {
            if !w.live() || (!cfg.include_atomics && w.atomic) {
                continue;
            }
            stats.live_windows += 1;
            let close_bits = match w.close {
                CloseReason::Persisted => 0u8,
                CloseReason::Overwritten => 1,
                CloseReason::NeverPersisted => 2,
            } | (u8::from(w.atomic) << 2)
                | (u8::from(w.non_temporal) << 3);
            // The raw store lockset is irrelevant to pairing (only the
            // effective lockset is consulted), so it is not in the key.
            let key = (
                w.range.start,
                w.range.len,
                w.tid.0,
                0,
                w.store_vc.id(),
                norm(w.effective_ls),
                w.close_vc.map(|c| c.id()).unwrap_or(u32::MAX),
                w.stack,
                close_bits,
            );
            match index.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    window_groups[*e.get() as usize].1 += 1;
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(window_groups.len() as u32);
                    window_groups.push((i as u32, 1));
                }
            }
        }
    }

    // Flatten each load group's hot fields (see [`LoadPre`]).
    let load_pre: Vec<LoadPre> = load_groups
        .iter()
        .map(|&(li, count)| {
            let ld = &access.loads[li as usize];
            LoadPre {
                range: ld.range,
                tid: ld.tid.0,
                vc: ld.vc.id(),
                norm_ls: norm_of_raw[ld.ls.id() as usize],
                stack: ld.stack,
                count,
            }
        })
        .collect();

    // Index load groups by address. Shared read-only by every shard:
    // loads are replicated logically, not physically.
    let loads_by_addr = AddrIndex::build(load_pre.iter().map(|lp| lp.range));

    // Under eADR (§2.1) every store is durable the instant it is visible:
    // the visible-but-not-durable window Definition 1 requires has zero
    // length, so no persistency-induced race can exist and pairing is
    // skipped wholesale.
    let window_groups_live: &[(u32, u64)] = if cfg.eadr { &[] } else { &window_groups };
    coverage.window_groups_total = window_groups_live.len() as u64;

    // Shard plan: each window group has exactly one home shard, chosen by
    // its starting cache line, listed in global group order.
    let mut plan: Vec<Vec<u32>> = Vec::new();
    plan.resize_with(PAIR_SHARDS, Vec::new);
    for (gi, &(wi, _)) in window_groups_live.iter().enumerate() {
        let line = line_of(access.windows[wi as usize].range.start);
        plan[shard_of(line)].push(gi as u32);
    }
    // Shard occupancy (window groups per shard) — the load-imbalance
    // picture. Observed for every shard, empty ones included.
    for p in &plan {
        obs.pairing.shard_occupancy.observe(p.len() as u64);
    }
    let slices = budget_slices(cfg.budget.max_candidate_pairs, &plan);
    // A zero stage timeout is the deterministic degenerate case (pinned by
    // the golden corpus): every shard observes the stall flag immediately,
    // no supervisor scheduling involved.
    let stalled = AtomicBool::new(cfg.budget.stage_timeout == Some(Duration::ZERO));
    let ctx = PairingCtx {
        stacks,
        access,
        cfg,
        norm_of_raw: &norm_of_raw,
        norm_sets: &norm_sets,
        load_groups: &load_groups,
        load_pre: &load_pre,
        window_groups: &window_groups,
        loads_by_addr: &loads_by_addr,
        stalled: &stalled,
        interrupt: cfg.interrupt.as_deref(),
        obs,
    };
    // An explicit thread request is honored as-is; under the automatic
    // default, small inputs stay on one worker because the fan-out
    // overhead dominates. The output is identical either way.
    let workers = if cfg.threads == 0 && window_groups_live.len() < PARALLEL_GROUPS {
        1
    } else {
        crate::parallel::effective_threads(cfg.threads)
    };
    let trip_stall = || stalled.store(true, Ordering::SeqCst);
    let watchdog = cfg
        .budget
        .stage_timeout
        .filter(|t| !t.is_zero())
        .map(|timeout| Watchdog {
            timeout,
            on_stall: &trip_stall,
        });
    let (outputs, busy, _) =
        crate::parallel::map_indexed_watched(PAIR_SHARDS, workers, watchdog, |s, hb| {
            if let Some(cached) = controls.resume.and_then(|r| r.get(&s)) {
                // Replayed shard: merge the previous run's output verbatim,
                // including its contribution to the shard-sum law.
                obs.pairing.shard_candidate_pairs[s]
                    .add(cached.candidate_pairs + cached.pairs_budget_dropped);
                return cached.clone();
            }
            let out = ctx.run_shard(s, &plan[s], slices[s], hb);
            if let Some(on_shard) = controls.on_shard {
                if out.cacheable() {
                    on_shard(s, &out);
                }
            }
            out
        });
    obs.record_worker_busy(&busy);

    // Deterministic merge, in shard-index order. Every combining operation
    // is commutative and associative (sum, OR, min-rank), so the result is
    // independent of which worker produced which shard when.
    let mut merged: HashMap<SiteKey, RaceAcc> = HashMap::new();
    let mut reason: Option<BudgetExceeded> = None;
    let mut budget_dropped = 0u64;
    for out in outputs {
        stats.candidate_pairs += out.candidate_pairs;
        stats.hb_pruned += out.hb_pruned;
        stats.lockset_protected += out.lockset_protected;
        stats.racy_pairs += out.racy_pairs;
        stats.hb_memo_hits += out.hb_memo_hits;
        stats.lockset_memo_hits += out.lockset_memo_hits;
        budget_dropped += out.pairs_budget_dropped;
        coverage.window_groups_examined += out.groups_examined;
        if reason.is_none() {
            reason = out.truncated;
        }
        for (key, acc) in out.races {
            match merged.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().absorb(acc),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(acc);
                }
            }
        }
    }
    coverage.truncated = reason.is_some();
    coverage.reason = reason;

    // Optional store/store pass — the §3.1.1 ablation. HawkSet's default
    // skips it: two stores lack the load-side-effect dependency that makes
    // a persistency-induced race harmful, and pairing them explodes the
    // report count on lock-free designs. Kept sequential: it is off by
    // default and quadratic grouping, not wall-clock, is its cost.
    if cfg.check_store_store && !cfg.eadr && !coverage.truncated {
        let mut scratch: Vec<u32> = Vec::new();
        let windows_by_addr = AddrIndex::build(
            window_groups
                .iter()
                .map(|&(wi, _)| access.windows[wi as usize].range),
        );
        for (g1, &(i1, c1)) in window_groups.iter().enumerate() {
            let w1 = &access.windows[i1 as usize];
            let candidates = windows_by_addr.query(&w1.range, &mut scratch);
            // Each unordered pair once: only the groups after `g1`.
            let after = candidates.partition_point(|&g2| g2 as usize <= g1);
            for &g2 in &candidates[after..] {
                let (i2, c2) = window_groups[g2 as usize];
                let w2 = &access.windows[i2 as usize];
                if w2.tid == w1.tid || !w2.range.overlaps(&w1.range) {
                    continue;
                }
                if cfg.use_hb {
                    // Windows must overlap in the happens-before order.
                    let w1_closed_before_w2 = match w1.close_vc {
                        Some(c) => access
                            .vclocks
                            .get(c)
                            .happens_before(access.vclocks.get(w2.store_vc)),
                        None => false,
                    };
                    let w2_closed_before_w1 = match w2.close_vc {
                        Some(c) => access
                            .vclocks
                            .get(c)
                            .happens_before(access.vclocks.get(w1.store_vc)),
                        None => false,
                    };
                    if w1_closed_before_w2 || w2_closed_before_w1 {
                        continue;
                    }
                }
                let eff1 = &norm_sets[norm_of_raw[w1.effective_ls.id() as usize] as usize];
                let eff2 = &norm_sets[norm_of_raw[w2.effective_ls.id() as usize] as usize];
                if eff1.protects_against(eff2) {
                    continue;
                }
                let s1 = stacks.site(w1.stack);
                let s2 = stacks.site(w2.stack);
                let key = match (s1, s2) {
                    (Some(a), Some(b)) => {
                        SiteKey::Functions(format!("ss:{}", a.function), b.function.clone())
                    }
                    _ => SiteKey::Stacks(w1.stack ^ 0x8000_0000, w2.stack),
                };
                let acc = merged.entry(key).or_insert_with(|| RaceAcc {
                    rank: (u32::MAX, u32::MAX),
                    race: Race {
                        key: RaceKey {
                            store_stack: w1.stack,
                            load_stack: w2.stack,
                        },
                        store_site: s1.cloned(),
                        load_site: s2.cloned(),
                        store_tid: w1.tid,
                        load_tid: w2.tid,
                        example_range: w1.range.intersection(&w2.range).unwrap_or(w1.range),
                        pair_count: 0,
                        store_atomic: w1.atomic,
                        load_atomic: w2.atomic,
                        store_non_temporal: w1.non_temporal,
                        store_never_persisted: false,
                        effective_lockset_empty: false,
                        store_store: true,
                    },
                });
                acc.race.pair_count += c1 * c2;
            }
        }
    }

    let mut races: Vec<Race> = merged.into_values().map(|acc| acc.race).collect();
    races.sort_by(|a, b| {
        b.pair_count
            .cmp(&a.pair_count)
            .then_with(|| a.key.cmp(&b.key))
    });
    stats.distinct_races = races.len() as u64;

    // Mirror the pairing stats into the metrics registry. The metrics'
    // `candidate_pairs` includes the budget-dropped tail (so the
    // conservation law is exact); the schema-v1 `stats.pairing` field
    // keeps its narrower examined-pairs meaning.
    let p = &obs.pairing;
    p.live_windows.set(stats.live_windows);
    p.live_loads.set(stats.live_loads);
    p.candidate_pairs
        .set(stats.candidate_pairs + budget_dropped);
    p.pairs_reported.set(stats.racy_pairs);
    p.pairs_pruned_hb.set(stats.hb_pruned);
    p.pairs_pruned_lockset.set(stats.lockset_protected);
    p.pairs_budget_dropped.set(budget_dropped);
    p.distinct_races.set(stats.distinct_races);
    p.hb_memo_hits.set(stats.hb_memo_hits);
    p.lockset_memo_hits.set(stats.lockset_memo_hits);

    AnalysisReport {
        races,
        stats: PipelineStats {
            sim: SimStats::default(),
            pairing: stats,
            quarantine: QuarantineStats::default(),
            duration: Default::default(),
        },
        coverage,
        metrics: None,
        fixes: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A range near one of three bases: two nearby low ones, so groups
    /// share lines, and the top of the address space, so some ranges end
    /// at `u64::MAX` (saturating there when they would pass it). Lengths
    /// reach five lines.
    fn arb_range() -> impl Strategy<Value = AddrRange> {
        (0u8..3, 0u64..512, 0u32..320).prop_map(|(base, offset, len)| {
            let start = match base {
                0 => 0x1000 + offset,
                1 => 0x1100 + offset,
                _ => u64::MAX - 512 + offset,
            };
            AddrRange::new(start, len)
        })
    }

    /// The groups sharing an 8-byte word with `q`, straight from the word
    /// spans: what an [`AddrIndex`] query must answer, in order.
    fn naive_query(groups: &[AddrRange], q: &AddrRange) -> Vec<u32> {
        let span = |r: &AddrRange| (r.start / 8, r.end().saturating_sub(1).max(r.start) / 8);
        let (qa, qb) = span(q);
        (0..groups.len() as u32)
            .filter(|&g| {
                let (a, b) = span(&groups[g as usize]);
                a <= qb && qa <= b
            })
            .collect()
    }

    proptest! {
        /// Every query answers the word-sharing groups, ascending and
        /// unique, whether it reads one run or merges several words' and
        /// lines' runs.
        #[test]
        fn addr_index_matches_the_naive_word_sharing_set(
            groups in proptest::collection::vec(arb_range(), 0..40),
            queries in proptest::collection::vec(arb_range(), 1..20),
        ) {
            let index = AddrIndex::build(groups.iter().copied());
            let mut scratch = Vec::new();
            for q in &queries {
                prop_assert_eq!(
                    index.query(q, &mut scratch).to_vec(),
                    naive_query(&groups, q),
                    "query {:?}", q
                );
            }
        }
    }

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for line in [0u64, 1, 63, 64, 0x40, 0x80, u64::MAX / 64] {
            let s = shard_of(line);
            assert!(s < PAIR_SHARDS);
            assert_eq!(s, shard_of(line), "assignment must be pure");
        }
    }

    #[test]
    fn budget_slices_sum_to_max_and_respect_emptiness() {
        let mut plan: Vec<Vec<u32>> = vec![Vec::new(); 8];
        plan[1] = vec![0, 1, 2];
        plan[4] = vec![3];
        plan[6] = vec![4, 5];
        let slices = budget_slices(Some(10), &plan);
        let total: u64 = slices.iter().map(|s| s.unwrap()).sum();
        assert_eq!(total, 10, "slices partition the budget exactly");
        assert!(slices[1].unwrap() >= 5); // proportionality: 3/6 of 10
        assert_eq!(slices[0], Some(0), "empty shards get nothing");
        let unbounded = budget_slices(None, &plan);
        assert!(unbounded.iter().all(|s| s.is_none()));
    }
}
