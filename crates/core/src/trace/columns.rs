//! Structure-of-arrays event storage.
//!
//! A trace is consumed column-wise: the simulator reads kinds/ranges, the
//! validator reads seqs/tids/stacks, decode appends rows. Storing events as
//! parallel columns instead of an array-of-structs keeps each pass inside
//! the columns it actually touches (≈29 bytes per event instead of the
//! 48-byte row struct, and no enum padding), while [`Event`] remains the
//! materialized row type at every API edge: rows go in and come out as
//! `Event`, so call sites keep the vocabulary of the event model.
//!
//! Batch ([`crate::trace::Trace`]) and streaming decode share this one
//! representation — the stream decoder appends rows here as chunks arrive.

use serde::{DeError, Deserialize, Serialize, Value};

use crate::addr::AddrRange;
use crate::trace::{Event, EventKind, LockId, LockMode, ThreadId};

// The packed kind byte. The codec reads and writes rows in this form
// ([`EventColumns::push_packed`], [`EventColumns::packed`]), so these are
// visible to the crate.
pub(crate) const TAG_STORE: u8 = 0;
pub(crate) const TAG_LOAD: u8 = 1;
pub(crate) const TAG_FLUSH: u8 = 2;
pub(crate) const TAG_FENCE: u8 = 3;
pub(crate) const TAG_ACQUIRE: u8 = 4;
pub(crate) const TAG_RELEASE: u8 = 5;
pub(crate) const TAG_CREATE: u8 = 6;
pub(crate) const TAG_JOIN: u8 = 7;

pub(crate) const FLAG_NT: u8 = 1 << 4;
pub(crate) const FLAG_ATOMIC: u8 = 1 << 5;
pub(crate) const FLAG_SHARED: u8 = 1 << 6;
pub(crate) const TAG_MASK: u8 = 0x0f;

/// A row in packed form: thread, stack, kind byte (tag and flags),
/// argument and length — everything but the `seq`.
pub(crate) type Packed = (u32, u32, u8, u64, u32);

/// Event rows stored as parallel columns, indexed 0..len.
///
/// The row type at every boundary is [`Event`]; the columns are an internal
/// layout choice. Column slices ([`Self::seqs`], [`Self::tids`],
/// [`Self::stacks`]) are exposed read-only for passes that scan a single
/// attribute.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventColumns {
    seqs: Vec<u64>,
    tids: Vec<u32>,
    stacks: Vec<u32>,
    /// Packed kind: low nibble = tag, high bits = flags.
    ops: Vec<u8>,
    /// Primary argument: access/flush address, lock id, or child thread.
    args: Vec<u64>,
    /// Access length in bytes (stores and loads; 0 otherwise).
    lens: Vec<u32>,
}

fn pack_kind(kind: &EventKind) -> (u8, u64, u32) {
    match *kind {
        EventKind::Store {
            range,
            non_temporal,
            atomic,
        } => (
            TAG_STORE
                | if non_temporal { FLAG_NT } else { 0 }
                | if atomic { FLAG_ATOMIC } else { 0 },
            range.start,
            range.len,
        ),
        EventKind::Load { range, atomic } => (
            TAG_LOAD | if atomic { FLAG_ATOMIC } else { 0 },
            range.start,
            range.len,
        ),
        EventKind::Flush { addr } => (TAG_FLUSH, addr, 0),
        EventKind::Fence => (TAG_FENCE, 0, 0),
        EventKind::Acquire { lock, mode } => (
            TAG_ACQUIRE
                | if mode == LockMode::Shared {
                    FLAG_SHARED
                } else {
                    0
                },
            lock.0,
            0,
        ),
        EventKind::Release { lock } => (TAG_RELEASE, lock.0, 0),
        EventKind::ThreadCreate { child } => (TAG_CREATE, u64::from(child.0), 0),
        EventKind::ThreadJoin { child } => (TAG_JOIN, u64::from(child.0), 0),
    }
}

fn unpack_kind(op: u8, arg: u64, len: u32) -> EventKind {
    match op & TAG_MASK {
        TAG_STORE => EventKind::Store {
            range: AddrRange::new(arg, len),
            non_temporal: op & FLAG_NT != 0,
            atomic: op & FLAG_ATOMIC != 0,
        },
        TAG_LOAD => EventKind::Load {
            range: AddrRange::new(arg, len),
            atomic: op & FLAG_ATOMIC != 0,
        },
        TAG_FLUSH => EventKind::Flush { addr: arg },
        TAG_FENCE => EventKind::Fence,
        TAG_ACQUIRE => EventKind::Acquire {
            lock: LockId(arg),
            mode: if op & FLAG_SHARED != 0 {
                LockMode::Shared
            } else {
                LockMode::Exclusive
            },
        },
        TAG_RELEASE => EventKind::Release { lock: LockId(arg) },
        TAG_CREATE => EventKind::ThreadCreate {
            child: ThreadId(arg as u32),
        },
        TAG_JOIN => EventKind::ThreadJoin {
            child: ThreadId(arg as u32),
        },
        other => unreachable!("corrupt packed event tag {other}"),
    }
}

impl EventColumns {
    /// An empty column set.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty column set with row capacity `n`.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            seqs: Vec::with_capacity(n),
            tids: Vec::with_capacity(n),
            stacks: Vec::with_capacity(n),
            ops: Vec::with_capacity(n),
            args: Vec::with_capacity(n),
            lens: Vec::with_capacity(n),
        }
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// Returns `true` if no events are stored.
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Rows the columns hold without reallocating.
    pub(crate) fn capacity(&self) -> usize {
        [
            self.seqs.capacity(),
            self.tids.capacity(),
            self.stacks.capacity(),
            self.ops.capacity(),
            self.args.capacity(),
            self.lens.capacity(),
        ]
        .into_iter()
        .min()
        .unwrap_or(0)
    }

    /// Appends a row.
    pub fn push(&mut self, ev: Event) {
        let (op, arg, len) = pack_kind(&ev.kind);
        self.push_packed(ev.seq, (ev.tid.0, ev.stack, op, arg, len));
    }

    /// Appends a row given in packed form, as the codec parses it.
    #[inline]
    pub(crate) fn push_packed(&mut self, seq: u64, (tid, stack, op, arg, len): Packed) {
        self.seqs.push(seq);
        self.tids.push(tid);
        self.stacks.push(stack);
        self.ops.push(op);
        self.args.push(arg);
        self.lens.push(len);
    }

    /// Row `i` in packed form, as the codec writes it.
    #[inline]
    pub(crate) fn packed(&self, i: usize) -> Packed {
        (
            self.tids[i],
            self.stacks[i],
            self.ops[i],
            self.args[i],
            self.lens[i],
        )
    }

    /// Renumbers row `i`.
    pub(crate) fn set_seq(&mut self, i: usize, seq: u64) {
        self.seqs[i] = seq;
    }

    /// Reserves room for `n` more rows.
    pub(crate) fn reserve(&mut self, n: usize) {
        self.seqs.reserve(n);
        self.tids.reserve(n);
        self.stacks.reserve(n);
        self.ops.reserve(n);
        self.args.reserve(n);
        self.lens.reserve(n);
    }

    /// Removes every row, keeping the capacity.
    pub(crate) fn clear(&mut self) {
        self.truncate(0);
    }

    /// Materializes row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> Event {
        Event {
            seq: self.seqs[i],
            tid: ThreadId(self.tids[i]),
            stack: self.stacks[i],
            kind: unpack_kind(self.ops[i], self.args[i], self.lens[i]),
        }
    }

    /// Materializes row `i`, or `None` past the end.
    pub fn try_get(&self, i: usize) -> Option<Event> {
        (i < self.len()).then(|| self.get(i))
    }

    /// Overwrites row `i`.
    pub fn set(&mut self, i: usize, ev: Event) {
        let (op, arg, len) = pack_kind(&ev.kind);
        self.seqs[i] = ev.seq;
        self.tids[i] = ev.tid.0;
        self.stacks[i] = ev.stack;
        self.ops[i] = op;
        self.args[i] = arg;
        self.lens[i] = len;
    }

    /// Inserts a row at `i`, shifting the tail.
    pub fn insert(&mut self, i: usize, ev: Event) {
        let (op, arg, len) = pack_kind(&ev.kind);
        self.seqs.insert(i, ev.seq);
        self.tids.insert(i, ev.tid.0);
        self.stacks.insert(i, ev.stack);
        self.ops.insert(i, op);
        self.args.insert(i, arg);
        self.lens.insert(i, len);
    }

    /// Removes and returns row `i`, shifting the tail.
    pub fn remove(&mut self, i: usize) -> Event {
        let ev = self.get(i);
        self.seqs.remove(i);
        self.tids.remove(i);
        self.stacks.remove(i);
        self.ops.remove(i);
        self.args.remove(i);
        self.lens.remove(i);
        ev
    }

    /// Keeps the first `n` rows.
    pub fn truncate(&mut self, n: usize) {
        self.seqs.truncate(n);
        self.tids.truncate(n);
        self.stacks.truncate(n);
        self.ops.truncate(n);
        self.args.truncate(n);
        self.lens.truncate(n);
    }

    /// The last row, if any.
    pub fn last(&self) -> Option<Event> {
        self.len().checked_sub(1).map(|i| self.get(i))
    }

    /// Renumbers `seq` densely from 0 in storage order.
    pub fn reseq(&mut self) {
        for (i, s) in self.seqs.iter_mut().enumerate() {
            *s = i as u64;
        }
    }

    /// The sequence-number column.
    pub fn seqs(&self) -> &[u64] {
        &self.seqs
    }

    /// The thread-id column (raw `u32`s).
    pub fn tids(&self) -> &[u32] {
        &self.tids
    }

    /// The stack-id column.
    pub fn stacks(&self) -> &[u32] {
        &self.stacks
    }

    /// Iterates rows in storage order, materialized by value.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Event> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Materializes every row.
    pub fn to_vec(&self) -> Vec<Event> {
        self.iter().collect()
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.seqs.capacity() * 8
            + self.tids.capacity() * 4
            + self.stacks.capacity() * 4
            + self.ops.capacity()
            + self.args.capacity() * 8
            + self.lens.capacity() * 4
    }

    /// A borrowed view of the first `n` rows (clamped to `len`).
    pub fn prefix(&self, n: usize) -> EventsView<'_> {
        EventsView {
            cols: self,
            len: n.min(self.len()),
        }
    }

    /// A borrowed view of all rows.
    pub fn view(&self) -> EventsView<'_> {
        self.prefix(self.len())
    }
}

impl From<Vec<Event>> for EventColumns {
    fn from(events: Vec<Event>) -> Self {
        let mut cols = Self::with_capacity(events.len());
        for ev in events {
            cols.push(ev);
        }
        cols
    }
}

impl FromIterator<Event> for EventColumns {
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> Self {
        let mut cols = Self::new();
        for ev in iter {
            cols.push(ev);
        }
        cols
    }
}

impl Extend<Event> for EventColumns {
    fn extend<I: IntoIterator<Item = Event>>(&mut self, iter: I) {
        for ev in iter {
            self.push(ev);
        }
    }
}

// Wire format compatibility: columns serialize exactly like the
// `Vec<Event>` they replaced, so serialized traces are unchanged.
impl Serialize for EventColumns {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(|ev| ev.serialize_value()).collect())
    }
}

impl Deserialize for EventColumns {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        Vec::<Event>::deserialize_value(v).map(Self::from)
    }
}

/// A borrowed, cheaply copyable prefix view over [`EventColumns`] — the
/// `&[Event]` analogue for columnar storage, used by
/// [`TraceView`](crate::trace::TraceView) so analyses can run on event
/// prefixes without copying.
#[derive(Clone, Copy, Debug)]
pub struct EventsView<'a> {
    cols: &'a EventColumns,
    len: usize,
}

impl<'a> EventsView<'a> {
    /// Number of rows in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Materializes row `i` of the view.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> Event {
        assert!(i < self.len, "index {i} out of view bounds {}", self.len);
        self.cols.get(i)
    }

    /// Materializes row `i`, or `None` past the view end.
    pub fn try_get(&self, i: usize) -> Option<Event> {
        (i < self.len).then(|| self.cols.get(i))
    }

    /// Appends row `i` of the view to `rows` as it is stored; `false`
    /// past the view end.
    pub(crate) fn copy_row(&self, i: usize, rows: &mut EventColumns) -> bool {
        if i >= self.len {
            return false;
        }
        rows.push_packed(self.cols.seqs[i], self.cols.packed(i));
        true
    }

    /// The last row of the view, if any.
    pub fn last(&self) -> Option<Event> {
        self.len.checked_sub(1).map(|i| self.cols.get(i))
    }

    /// Iterates the view's rows, materialized by value.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Event> + 'a {
        let cols = self.cols;
        (0..self.len).map(move |i| cols.get(i))
    }

    /// The sequence-number column of the view.
    pub fn seqs(&self) -> &'a [u64] {
        &self.cols.seqs[..self.len]
    }

    /// The thread-id column of the view (raw `u32`s).
    pub fn tids(&self) -> &'a [u32] {
        &self.cols.tids[..self.len]
    }

    /// The stack-id column of the view.
    pub fn stacks(&self) -> &'a [u32] {
        &self.cols.stacks[..self.len]
    }

    /// Materializes the view's rows.
    pub fn to_vec(&self) -> Vec<Event> {
        self.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                seq: 0,
                tid: ThreadId(0),
                stack: 3,
                kind: EventKind::Store {
                    range: AddrRange::new(0x1000, 8),
                    non_temporal: true,
                    atomic: false,
                },
            },
            Event {
                seq: 1,
                tid: ThreadId(2),
                stack: 0,
                kind: EventKind::Load {
                    range: AddrRange::new(0x1008, 4),
                    atomic: true,
                },
            },
            Event {
                seq: 2,
                tid: ThreadId(1),
                stack: 1,
                kind: EventKind::Flush { addr: 0x1040 },
            },
            Event {
                seq: 3,
                tid: ThreadId(1),
                stack: 1,
                kind: EventKind::Fence,
            },
            Event {
                seq: 4,
                tid: ThreadId(0),
                stack: 2,
                kind: EventKind::Acquire {
                    lock: LockId(77),
                    mode: LockMode::Shared,
                },
            },
            Event {
                seq: 5,
                tid: ThreadId(0),
                stack: 2,
                kind: EventKind::Release { lock: LockId(77) },
            },
            Event {
                seq: 6,
                tid: ThreadId(0),
                stack: 0,
                kind: EventKind::ThreadCreate { child: ThreadId(3) },
            },
            Event {
                seq: 7,
                tid: ThreadId(0),
                stack: 0,
                kind: EventKind::ThreadJoin { child: ThreadId(3) },
            },
        ]
    }

    #[test]
    fn roundtrips_every_kind() {
        let events = sample_events();
        let cols = EventColumns::from(events.clone());
        assert_eq!(cols.len(), events.len());
        assert_eq!(cols.to_vec(), events);
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(cols.get(i), *ev);
        }
    }

    #[test]
    fn mutation_ops_match_vec_semantics() {
        let events = sample_events();
        let mut cols = EventColumns::from(events.clone());
        let mut model = events;

        let ev = model[2];
        assert_eq!(cols.remove(2), ev);
        model.remove(2);
        assert_eq!(cols.to_vec(), model);

        let new_ev = Event {
            seq: 99,
            tid: ThreadId(5),
            stack: 7,
            kind: EventKind::Fence,
        };
        cols.insert(1, new_ev);
        model.insert(1, new_ev);
        assert_eq!(cols.to_vec(), model);

        cols.set(0, new_ev);
        model[0] = new_ev;
        assert_eq!(cols.to_vec(), model);

        cols.reseq();
        for (i, s) in model.iter_mut().enumerate() {
            s.seq = i as u64;
        }
        assert_eq!(cols.to_vec(), model);
        assert_eq!(cols.seqs(), (0..model.len() as u64).collect::<Vec<_>>());

        cols.truncate(3);
        model.truncate(3);
        assert_eq!(cols.to_vec(), model);
        assert_eq!(cols.last(), model.last().copied());
    }

    #[test]
    fn serde_matches_vec_of_events() {
        let events = sample_events();
        let cols = EventColumns::from(events.clone());
        assert_eq!(cols.serialize_value(), events.serialize_value());
        let back = EventColumns::deserialize_value(&cols.serialize_value()).unwrap();
        assert_eq!(back, cols);
    }

    #[test]
    fn views_clamp_and_expose_columns() {
        let cols = EventColumns::from(sample_events());
        let v = cols.prefix(3);
        assert_eq!(v.len(), 3);
        assert_eq!(v.to_vec(), cols.to_vec()[..3]);
        assert_eq!(v.seqs(), &cols.seqs()[..3]);
        assert_eq!(v.last(), Some(cols.get(2)));
        assert!(v.try_get(3).is_none());
        let all = cols.prefix(usize::MAX);
        assert_eq!(all.len(), cols.len());
        assert!(cols.prefix(0).is_empty());
    }
}
