//! Compact binary trace codec.
//!
//! The CLI front end decouples trace collection from analysis — traces are
//! recorded once and can be re-analyzed with different settings (IRH on/off,
//! different sync configurations). The format is a simple length-prefixed
//! binary layout with LEB128 varints, built on [`bytes`].
//!
//! Layout:
//!
//! ```text
//! magic "HWKT" | version u8 | thread_count varint
//! regions:  count, then (base varint, len varint, path string)
//! strings:  count, then (len varint, utf-8 bytes)       -- file/function pool
//! frames:   count, then (function str-id, file str-id, line) varints
//! stacks:   count, then (depth, frame ids...) varints
//! events:   count, then (tag u8, tid, stack, fields...) varints
//! ```

use bytes::Bytes;

use super::columns::{self as col, EventColumns, Packed};
use super::stack::Frame;
use super::{PmRegion, Trace};

/// Errors produced while decoding a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer does not start with the `HWKT` magic.
    BadMagic,
    /// The format version is not supported.
    BadVersion(u8),
    /// The buffer ended in the middle of a field.
    Truncated,
    /// A varint kept its continuation bit set past 64 value bits.
    VarintOverflow,
    /// A string was not valid UTF-8.
    BadString,
    /// An unknown event tag was encountered.
    BadTag(u8),
    /// An index referenced a missing table entry.
    BadIndex,
    /// A declared count exceeds what any real trace could hold — decoding
    /// it would be a decompression bomb, not a trace.
    LimitExceeded(&'static str),
    /// A 32-bit field (an access length, a frame's line number) was encoded
    /// with a wider value. Truncating it would decode a different trace.
    FieldTooWide(&'static str),
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a HawkSet trace (bad magic)"),
            DecodeError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            DecodeError::Truncated => write!(f, "truncated trace"),
            DecodeError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            DecodeError::BadString => write!(f, "invalid UTF-8 in trace string"),
            DecodeError::BadTag(t) => write!(f, "unknown event tag {t}"),
            DecodeError::BadIndex => write!(f, "dangling table index in trace"),
            DecodeError::LimitExceeded(what) => write!(f, "implausible {what} count in trace"),
            DecodeError::FieldTooWide(what) => write!(f, "{what} exceeds 32 bits in trace"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Reads a varint that encodes a 32-bit field. A wider value is
/// corruption, so it fails instead of being cut to its low bits.
#[inline]
fn get_u32(buf: &mut impl ByteRead, what: &'static str) -> Result<u32, DecodeError> {
    u32::try_from(varint(buf)?).map_err(|_| DecodeError::FieldTooWide(what))
}

/// Hard ceiling on the thread count a trace may declare. The simulator
/// allocates per-thread state eagerly, so an unchecked varint here would let
/// a 10-byte corruption demand gigabytes.
pub const MAX_THREADS: u32 = 1 << 16;

const MAGIC: &[u8; 4] = b"HWKT";
const VERSION: u8 = 1;

const TAG_STORE: u8 = 0;
const TAG_LOAD: u8 = 1;
const TAG_FLUSH: u8 = 2;
const TAG_FENCE: u8 = 3;
const TAG_ACQUIRE_EX: u8 = 4;
const TAG_ACQUIRE_SH: u8 = 5;
const TAG_RELEASE: u8 = 6;
const TAG_CREATE: u8 = 7;
const TAG_JOIN: u8 = 8;
const STORE_FLAG_NT: u8 = 1;
const STORE_FLAG_ATOMIC: u8 = 2;

/// The most bytes one event takes: a tag, a flags byte and at most four
/// varints (thread, stack, argument, length) of at most ten bytes each.
const MAX_EVENT_BYTES: usize = 2 + 4 * 10;

/// The fewest bytes one event takes: a tag, a flags byte, a thread and a
/// stack.
const MIN_EVENT_BYTES: usize = 4;

/// Bytes in a [`Window`]: more than any event takes.
const WINDOW: usize = 64;

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// A zero-copy decode cursor: a borrowed byte slice plus a position.
///
/// Decoding reads directly out of the caller's buffer (a mapped file, a
/// stream window, a test vector) — nothing is copied until a value must be
/// owned (interned strings). The position doubles as the loss-accounting
/// offset: a failed partial decode is undone by discarding the cursor.
#[derive(Clone, Copy)]
pub(crate) struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    /// A cursor at the start of `buf`.
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Bytes consumed so far.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Reads one byte.
    #[inline]
    fn get_u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Borrows the next `len` bytes without copying.
    fn take(&mut self, len: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(len).ok_or(DecodeError::Truncated)?;
        if end > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
}

/// The byte reads the event parser is generic over. [`Cur`] checks each
/// read against the end of its buffer; a [`Window`] holds more bytes than
/// any event takes, so its reads need no check. The one parser,
/// [`parse_event`], runs over both, so the two paths cannot drift.
trait ByteRead {
    /// Reads one byte.
    fn byte(&mut self) -> Result<u8, DecodeError>;
}

impl ByteRead for Cur<'_> {
    #[inline]
    fn byte(&mut self) -> Result<u8, DecodeError> {
        self.get_u8()
    }
}

/// The next [`WINDOW`] bytes of a buffer. An event parsed out of a fresh
/// window ends inside it, so its reads cannot run out.
struct Window<'a> {
    bytes: &'a [u8; WINDOW],
    pos: usize,
}

impl<'a> Window<'a> {
    /// A window at the start of `buf`, or `None` if fewer than [`WINDOW`]
    /// bytes are left.
    fn new(buf: &'a [u8]) -> Option<Self> {
        buf.first_chunk().map(|bytes| Self { bytes, pos: 0 })
    }
}

impl ByteRead for Window<'_> {
    #[inline]
    fn byte(&mut self) -> Result<u8, DecodeError> {
        // One event reads at most `MAX_EVENT_BYTES < WINDOW` bytes, so the
        // modulo never wraps; it only spares the bounds check.
        let b = self.bytes[self.pos % WINDOW];
        self.pos += 1;
        Ok(b)
    }
}

#[inline]
fn varint(buf: &mut impl ByteRead) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = buf.byte()?;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(DecodeError::VarintOverflow);
        }
    }
}

/// Caps an untrusted element count before preallocating: every element
/// occupies at least one encoded byte, so a count beyond the remaining
/// buffer length is a corruption that must not drive `Vec::with_capacity`.
fn checked_count(count: u64, remaining: usize, what: &'static str) -> Result<usize, DecodeError> {
    if count > remaining as u64 {
        return Err(DecodeError::LimitExceeded(what));
    }
    Ok(count as usize)
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Borrows a length-prefixed string out of the buffer. The `&str` points
/// into the caller's bytes; it is only copied where an owned `String` is
/// interned (region paths, frame tables).
fn get_str<'a>(buf: &mut Cur<'a>) -> Result<&'a str, DecodeError> {
    let len = varint(buf)? as usize;
    if buf.remaining() < len {
        return Err(DecodeError::Truncated);
    }
    std::str::from_utf8(buf.take(len)?).map_err(|_| DecodeError::BadString)
}

/// Serializes a trace to its binary representation.
pub fn encode(trace: &Trace) -> Bytes {
    let mut buf = Vec::with_capacity(1024);
    buf.extend_from_slice(MAGIC);
    buf.push(VERSION);
    put_varint(&mut buf, u64::from(trace.thread_count));

    put_varint(&mut buf, trace.regions.len() as u64);
    for r in &trace.regions {
        put_varint(&mut buf, r.base);
        put_varint(&mut buf, r.len);
        put_str(&mut buf, &r.path);
    }

    // String pool for frame functions and files.
    let mut strings: Vec<&str> = Vec::new();
    let mut string_ids: std::collections::HashMap<&str, u64> = std::collections::HashMap::new();
    let frame_count = (0..trace.stacks.frame_count()).map(|i| trace.stacks.frame(i as u32));
    for f in frame_count.clone() {
        for s in [f.function.as_str(), f.file.as_str()] {
            if !string_ids.contains_key(s) {
                string_ids.insert(s, strings.len() as u64);
                strings.push(s);
            }
        }
    }
    put_varint(&mut buf, strings.len() as u64);
    for s in &strings {
        put_str(&mut buf, s);
    }

    put_varint(&mut buf, trace.stacks.frame_count() as u64);
    for f in frame_count {
        put_varint(&mut buf, string_ids[f.function.as_str()]);
        put_varint(&mut buf, string_ids[f.file.as_str()]);
        put_varint(&mut buf, u64::from(f.line));
    }

    put_varint(&mut buf, trace.stacks.stack_count() as u64);
    for i in 0..trace.stacks.stack_count() {
        let stack = trace.stacks.stack(i as u32);
        put_varint(&mut buf, stack.len() as u64);
        for &fid in stack {
            put_varint(&mut buf, u64::from(fid));
        }
    }

    // The events go straight from the columns, each through a stack
    // buffer, into room reserved for exactly their encoded size.
    let events = &trace.events;
    put_varint(&mut buf, events.len() as u64);
    let size: usize = (0..events.len()).map(|i| event_len(events.packed(i))).sum();
    buf.reserve_exact(size);
    let mut one = [0u8; MAX_EVENT_BYTES];
    for i in 0..events.len() {
        let n = encode_event(events.packed(i), &mut one);
        buf.extend_from_slice(&one[..n]);
    }
    Bytes::from(buf)
}

/// The wire tag and flags byte of a packed kind, and whether the event
/// carries the argument and the length fields after its thread and stack.
fn wire_kind(op: u8) -> (u8, u8, bool, bool) {
    let set = |flag: u8, wire: u8| if op & flag != 0 { wire } else { 0 };
    match op & col::TAG_MASK {
        col::TAG_STORE => (
            TAG_STORE,
            set(col::FLAG_NT, STORE_FLAG_NT) | set(col::FLAG_ATOMIC, STORE_FLAG_ATOMIC),
            true,
            true,
        ),
        col::TAG_LOAD => (TAG_LOAD, set(col::FLAG_ATOMIC, 1), true, true),
        col::TAG_FLUSH => (TAG_FLUSH, 0, true, false),
        col::TAG_FENCE => (TAG_FENCE, 0, false, false),
        col::TAG_ACQUIRE if op & col::FLAG_SHARED != 0 => (TAG_ACQUIRE_SH, 0, true, false),
        col::TAG_ACQUIRE => (TAG_ACQUIRE_EX, 0, true, false),
        col::TAG_RELEASE => (TAG_RELEASE, 0, true, false),
        col::TAG_CREATE => (TAG_CREATE, 0, true, false),
        col::TAG_JOIN => (TAG_JOIN, 0, true, false),
        other => unreachable!("corrupt packed event tag {other}"),
    }
}

/// Bytes the varint encoding of `v` takes.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Bytes [`encode_event`] writes for a row.
fn event_len((tid, stack, op, arg, len): Packed) -> usize {
    let (_, _, has_arg, has_len) = wire_kind(op);
    2 + varint_len(u64::from(tid))
        + varint_len(u64::from(stack))
        + if has_arg { varint_len(arg) } else { 0 }
        + if has_len {
            varint_len(u64::from(len))
        } else {
            0
        }
}

/// Writes a row's wire form at the start of `out` and returns its length.
fn encode_event((tid, stack, op, arg, len): Packed, out: &mut [u8; MAX_EVENT_BYTES]) -> usize {
    let put = |out: &mut [u8; MAX_EVENT_BYTES], mut at: usize, mut v: u64| loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out[at] = byte;
            return at + 1;
        }
        out[at] = byte | 0x80;
        at += 1;
    };
    let (tag, flags, has_arg, has_len) = wire_kind(op);
    out[0] = tag;
    out[1] = flags;
    let mut at = put(out, 2, u64::from(tid));
    at = put(out, at, u64::from(stack));
    if has_arg {
        at = put(out, at, arg);
    }
    if has_len {
        at = put(out, at, u64::from(len));
    }
    at
}

/// The outcome of a lossy decode: the longest well-formed prefix the bytes
/// contain, plus an account of what was lost.
#[derive(Debug)]
pub struct Salvage {
    /// The recovered trace (all events up to the first corruption).
    pub trace: Trace,
    /// Bytes that were not turned into events.
    pub dropped_bytes: usize,
    /// Events declared by the header but not recovered.
    pub dropped_events: u64,
    /// The error that stopped the full decode, if any. `None` means the
    /// buffer decoded completely (modulo trailing bytes).
    pub reason: Option<DecodeError>,
    /// Absolute byte offset (from the start of the buffer) where the
    /// well-formed prefix ends — equivalently, the offset of the first
    /// skipped byte. With no loss this is the buffer length. Checkpoints
    /// taken against a salvaged trace realign on this offset.
    pub valid_bytes: usize,
}

impl Salvage {
    /// True when nothing was lost: the salvage IS the full trace.
    pub fn is_complete(&self) -> bool {
        self.reason.is_none() && self.dropped_events == 0 && self.dropped_bytes == 0
    }

    /// Records the salvage losses into a snapshot's ingest section (the
    /// CLI patches these in after the analyzer runs — the analyzer only
    /// ever sees the already-salvaged trace). Salvage-dropped events are
    /// deliberately outside the ingest conservation law: they were lost
    /// *before* decode completed, so they never counted as decoded.
    pub fn record_metrics(&self, metrics: &mut crate::obs::MetricsSnapshot) {
        metrics.ingest.events_salvage_dropped = self.dropped_events;
        metrics.ingest.bytes_salvage_dropped = self.dropped_bytes as u64;
    }
}

/// Deserializes a trace from its binary representation, rejecting any
/// corruption. See [`decode_lossy`] for the degraded-mode alternative.
///
/// The buffer is borrowed, never copied: pass a mapped file, a `Bytes`
/// window (`&bytes`), or any byte slice.
pub fn decode(buf: &[u8]) -> Result<Trace, DecodeError> {
    let salvage = decode_lossy(buf)?;
    match salvage.reason {
        Some(e) => Err(e),
        None if salvage.dropped_bytes > 0 => Err(DecodeError::Truncated),
        None => Ok(salvage.trace),
    }
}

/// Deserializes as much of a trace as the bytes allow.
///
/// The header and the interning tables (regions, strings, frames, stacks)
/// must decode cleanly — without them no event is interpretable, so their
/// corruption is fatal. The event stream, however, is salvaged: decoding
/// stops at the first ill-formed event and everything before it is returned
/// as a structurally valid trace, with drop counters and the stopping error
/// in the [`Salvage`].
///
/// Structural guarantees on the salvaged trace: dense `seq`, every stack id
/// resolvable, every `tid` and child id below `thread_count`. *Semantic*
/// invariants (creation order, lock balance) are NOT guaranteed — run
/// [`Trace::validate`] or analyze leniently.
pub fn decode_lossy(buf: &[u8]) -> Result<Salvage, DecodeError> {
    let total = buf.len();
    let mut cur = Cur::new(buf);
    let tables = decode_tables(&mut cur)?;
    let DecodedTables {
        mut trace,
        stack_map,
        event_count,
    } = tables;

    // A corrupt count cannot make this reserve more rows than the bytes
    // left could hold.
    let room = (cur.remaining() / MIN_EVENT_BYTES) as u64;
    trace.events.reserve(event_count.min(room) as usize);
    let mut reason = None;
    let mut dropped_events = 0;
    let mut dropped_bytes = 0;
    for seq in 0..event_count {
        let before = cur.remaining();
        if let Err(e) = next_event(
            &mut cur,
            seq,
            trace.thread_count,
            &stack_map,
            &mut trace.events,
        ) {
            reason = Some(e);
            dropped_events = event_count - seq;
            dropped_bytes = before;
            break;
        }
    }
    if reason.is_none() {
        // Trailing bytes past the declared events are corruption too, but a
        // kind that costs no events.
        dropped_bytes = cur.remaining();
    }
    Ok(Salvage {
        trace,
        dropped_bytes,
        dropped_events,
        reason,
        valid_bytes: total - dropped_bytes,
    })
}

/// The fully-decoded header tables of a trace: everything before the event
/// stream. `trace.events` is empty; the declared event count and the
/// stack-id remap table are returned alongside so callers can drive
/// [`next_event`] themselves (batch salvage and the streaming decoder
/// share this seam).
pub(crate) struct DecodedTables {
    pub trace: Trace,
    pub stack_map: Vec<u32>,
    pub event_count: u64,
}

/// Decodes the header and interning tables (regions, strings, frames,
/// stacks) plus the declared event count, leaving `buf` positioned at the
/// first event. Any corruption here is fatal — without the tables no event
/// is interpretable.
pub(crate) fn decode_tables(buf: &mut Cur<'_>) -> Result<DecodedTables, DecodeError> {
    if buf.remaining() < 5 {
        return Err(DecodeError::Truncated);
    }
    if buf.take(4)? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = buf.get_u8()?;
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let mut trace = Trace::new();
    let thread_count = varint(buf)?;
    if thread_count > u64::from(MAX_THREADS) {
        return Err(DecodeError::LimitExceeded("thread"));
    }
    trace.thread_count = (thread_count as u32).max(1);

    let region_count = varint(buf)?;
    for _ in 0..region_count {
        let base = varint(buf)?;
        let len = varint(buf)?;
        let path = get_str(buf)?.to_owned();
        trace.regions.push(PmRegion { base, len, path });
    }

    // The string pool stays borrowed: each entry is copied into an owned
    // `String` only once, at frame-interning time below.
    let string_count = varint(buf)?;
    let mut strings: Vec<&str> =
        Vec::with_capacity(checked_count(string_count, buf.remaining(), "string")?);
    for _ in 0..string_count {
        strings.push(get_str(buf)?);
    }
    let lookup = |id: u64| {
        strings
            .get(id as usize)
            .copied()
            .ok_or(DecodeError::BadIndex)
    };

    let frame_count = varint(buf)?;
    let mut stacks = super::stack::StackTable::new();
    let mut frame_map = Vec::with_capacity(checked_count(frame_count, buf.remaining(), "frame")?);
    for _ in 0..frame_count {
        let function = lookup(varint(buf)?)?.to_owned();
        let file = lookup(varint(buf)?)?.to_owned();
        let line = get_u32(buf, "frame line")?;
        frame_map.push(stacks.intern_frame(Frame {
            function,
            file,
            line,
        }));
    }

    let stack_count = varint(buf)?;
    let mut stack_map = Vec::with_capacity(checked_count(stack_count, buf.remaining(), "stack")?);
    for _ in 0..stack_count {
        let depth = varint(buf)?;
        let mut frames = Vec::with_capacity(checked_count(depth, buf.remaining(), "frame id")?);
        for _ in 0..depth {
            let fid = varint(buf)? as usize;
            frames.push(*frame_map.get(fid).ok_or(DecodeError::BadIndex)?);
        }
        stack_map.push(stacks.intern_frames(frames));
    }
    trace.stacks = stacks;

    let event_count = varint(buf)?;
    Ok(DecodedTables {
        trace,
        stack_map,
        event_count,
    })
}

/// Default ceiling on the trace file size [`load_file`] accepts (1 GiB).
pub const DEFAULT_MAX_FILE_BYTES: u64 = 1 << 30;

/// Reads and decodes a trace file, with a size ceiling.
///
/// On Unix the file is memory-mapped read-only and decoded in place — the
/// only heap the decode touches is the trace's own tables and event
/// columns, never a copy of the raw bytes. Platforms (or exotic files)
/// where mapping fails fall back to a buffered read.
///
/// The three failure families map onto the [`HawkSetError`](crate::HawkSetError) taxonomy:
/// unreadable file → `Io`, file larger than `max_bytes` (default
/// [`DEFAULT_MAX_FILE_BYTES`]) → `Resource`, ill-formed bytes → `Decode`.
pub fn load_file(
    path: &std::path::Path,
    max_bytes: Option<u64>,
) -> Result<Trace, crate::error::HawkSetError> {
    let limit = max_bytes.unwrap_or(DEFAULT_MAX_FILE_BYTES);
    let file = std::fs::File::open(path)?;
    let meta = file.metadata()?;
    if meta.len() > limit {
        return Err(crate::error::ResourceError {
            what: "trace file size",
            limit,
            requested: meta.len(),
        }
        .into());
    }
    #[cfg(unix)]
    if let Some(map) = mmap::Mmap::map(&file, meta.len() as usize) {
        return Ok(decode(map.as_slice())?);
    }
    let raw = std::fs::read(path)?;
    Ok(decode(&raw)?)
}

/// Minimal read-only memory mapping, bound directly to the platform's
/// `mmap`/`munmap` (no external crate). Mapping failure is never an error —
/// callers fall back to a buffered read.
#[cfg(unix)]
mod mmap {
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    /// An owned read-only mapping of a whole file.
    pub(super) struct Mmap {
        ptr: *mut core::ffi::c_void,
        len: usize,
    }

    impl Mmap {
        /// Maps `len` bytes of `file` read-only, or `None` if the platform
        /// refuses (zero-length files cannot be mapped, pipes have no pages).
        pub(super) fn map(file: &File, len: usize) -> Option<Self> {
            if len == 0 {
                return None;
            }
            let ptr = unsafe {
                mmap(
                    core::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as usize == usize::MAX {
                return None;
            }
            Some(Self { ptr, len })
        }

        /// The mapped bytes. Valid for the lifetime of the mapping: the
        /// pages are private (copy-on-write), so later file writers cannot
        /// shrink or invalidate them mid-decode on any OS we target —
        /// though, as with any map, truncation by another process is
        /// outside Rust's memory model. The decoder treats the contents as
        /// untrusted bytes regardless.
        pub(super) fn as_slice(&self) -> &[u8] {
            unsafe { core::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

/// Parses the event at the cursor and appends it to `rows` as row `seq`;
/// the cursor moves past it only on success. With at least a [`Window`]
/// of bytes left the reads go unchecked, and otherwise each one is
/// checked. Batch and streaming decode both call this.
pub(crate) fn next_event(
    cur: &mut Cur<'_>,
    seq: u64,
    thread_count: u32,
    stack_map: &[u32],
    rows: &mut EventColumns,
) -> Result<(), DecodeError> {
    let row = match Window::new(&cur.buf[cur.pos..]) {
        Some(mut w) => {
            let row = parse_event(&mut w, thread_count, stack_map)?;
            cur.pos += w.pos;
            row
        }
        None => {
            let mut c = *cur;
            let row = parse_event(&mut c, thread_count, stack_map)?;
            *cur = c;
            row
        }
    };
    rows.push_packed(seq, row);
    Ok(())
}

/// The one event parser: the wire fields straight into a packed row.
#[inline(always)]
fn parse_event(
    b: &mut impl ByteRead,
    thread_count: u32,
    stack_map: &[u32],
) -> Result<Packed, DecodeError> {
    let thread = |raw: u64| {
        if raw >= u64::from(thread_count) {
            Err(DecodeError::BadIndex)
        } else {
            Ok(raw as u32)
        }
    };
    let tag = b.byte()?;
    let flags = b.byte()?;
    let tid = thread(varint(b)?)?;
    let stack_idx = varint(b)? as usize;
    let stack = *stack_map.get(stack_idx).ok_or(DecodeError::BadIndex)?;
    let set = |wire: u8, flag: u8| if flags & wire != 0 { flag } else { 0 };
    let (op, arg, len) = match tag {
        TAG_STORE => {
            let op = col::TAG_STORE
                | set(STORE_FLAG_NT, col::FLAG_NT)
                | set(STORE_FLAG_ATOMIC, col::FLAG_ATOMIC);
            (op, varint(b)?, get_u32(b, "access length")?)
        }
        TAG_LOAD => {
            let op = col::TAG_LOAD | if flags != 0 { col::FLAG_ATOMIC } else { 0 };
            (op, varint(b)?, get_u32(b, "access length")?)
        }
        TAG_FLUSH => (col::TAG_FLUSH, varint(b)?, 0),
        TAG_FENCE => (col::TAG_FENCE, 0, 0),
        TAG_ACQUIRE_EX => (col::TAG_ACQUIRE, varint(b)?, 0),
        TAG_ACQUIRE_SH => (col::TAG_ACQUIRE | col::FLAG_SHARED, varint(b)?, 0),
        TAG_RELEASE => (col::TAG_RELEASE, varint(b)?, 0),
        TAG_CREATE => (col::TAG_CREATE, u64::from(thread(varint(b)?)?), 0),
        TAG_JOIN => (col::TAG_JOIN, u64::from(thread(varint(b)?)?), 0),
        other => return Err(DecodeError::BadTag(other)),
    };
    Ok((tid, stack, op, arg, len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddrRange;
    use crate::trace::{Event, EventKind, LockId, LockMode, ThreadId, TraceBuilder};

    fn sample_trace() -> Trace {
        let mut b = TraceBuilder::new();
        b.add_region(PmRegion {
            base: 0x1000,
            len: 4096,
            path: "/mnt/pmem/pool".into(),
        });
        let s0 = b.intern_stack([Frame::new("main", "main.rs", 1)]);
        let s1 = b.intern_stack([
            Frame::new("insert", "btree.rs", 42),
            Frame::new("main", "main.rs", 7),
        ]);
        b.push(
            ThreadId(0),
            s0,
            EventKind::ThreadCreate { child: ThreadId(1) },
        );
        b.push(
            ThreadId(0),
            s0,
            EventKind::Acquire {
                lock: LockId(0xbeef),
                mode: LockMode::Exclusive,
            },
        );
        b.push(
            ThreadId(0),
            s1,
            EventKind::Store {
                range: AddrRange::new(0x1000, 8),
                non_temporal: false,
                atomic: false,
            },
        );
        b.push(ThreadId(0), s1, EventKind::Flush { addr: 0x1000 });
        b.push(ThreadId(0), s1, EventKind::Fence);
        b.push(
            ThreadId(0),
            s0,
            EventKind::Release {
                lock: LockId(0xbeef),
            },
        );
        b.push(
            ThreadId(1),
            s1,
            EventKind::Load {
                range: AddrRange::new(0x1000, 8),
                atomic: true,
            },
        );
        b.push(
            ThreadId(1),
            s1,
            EventKind::Store {
                range: AddrRange::new(0x1040, 16),
                non_temporal: true,
                atomic: false,
            },
        );
        b.push(
            ThreadId(0),
            s0,
            EventKind::ThreadJoin { child: ThreadId(1) },
        );
        b.finish()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample_trace();
        let bytes = encode(&t);
        let back = decode(bytes.as_ref()).unwrap();
        assert_eq!(back.thread_count, t.thread_count);
        assert_eq!(back.regions, t.regions);
        assert_eq!(back.events, t.events);
        assert_eq!(back.stacks.stack_count(), t.stacks.stack_count());
        for i in 0..t.stacks.stack_count() {
            let a: Vec<_> = t.stacks.frames_of(i as u32).cloned().collect();
            let b: Vec<_> = back.stacks.frames_of(i as u32).cloned().collect();
            assert_eq!(a, b);
        }
        assert!(back.validate().is_ok());
    }

    #[test]
    fn rejects_bad_magic() {
        let res = decode(b"NOPE\x01\x00");
        assert_eq!(res.unwrap_err(), DecodeError::BadMagic);
    }

    #[test]
    fn rejects_bad_version() {
        let mut raw = encode(&sample_trace()).to_vec();
        raw[4] = 99;
        assert_eq!(decode(&raw).unwrap_err(), DecodeError::BadVersion(99));
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let raw = encode(&sample_trace()).to_vec();
        // Chop the buffer at every prefix length; none may panic, all must
        // return an error (or, for the full buffer, succeed).
        for cut in 0..raw.len() {
            let res = decode(&raw[..cut]);
            assert!(res.is_err(), "decode succeeded on a {cut}-byte prefix");
        }
        assert!(decode(&raw).is_ok());
    }

    #[test]
    fn varint_overflow_is_its_own_error() {
        // Eleven continuation bytes: more than 64 bits of payload.
        let raw = vec![0xffu8; 11];
        let mut b = Cur::new(&raw);
        assert_eq!(varint(&mut b).unwrap_err(), DecodeError::VarintOverflow);
    }

    #[test]
    fn rejects_implausible_thread_count() {
        let mut buf = MAGIC.to_vec();
        buf.push(VERSION);
        put_varint(&mut buf, u64::from(MAX_THREADS) + 1);
        assert_eq!(
            decode(&buf).unwrap_err(),
            DecodeError::LimitExceeded("thread")
        );
    }

    #[test]
    fn rejects_implausible_table_counts() {
        // Header + no regions, then a string count far beyond the buffer.
        let mut buf = MAGIC.to_vec();
        buf.push(VERSION);
        put_varint(&mut buf, 1); // thread_count
        put_varint(&mut buf, 0); // regions
        put_varint(&mut buf, 1 << 40); // strings: bomb
        assert_eq!(
            decode(&buf).unwrap_err(),
            DecodeError::LimitExceeded("string")
        );
    }

    #[test]
    fn decode_rejects_out_of_range_tid() {
        let mut b = TraceBuilder::new();
        let s = b.intern_stack([]);
        b.push(ThreadId(0), s, EventKind::Fence);
        let mut bad = encode(&b.finish()).to_vec();
        // Layout of the tail: ..., event_count=1, tag, flags, tid=0,
        // stack=0 — the tid byte is second from the end.
        let tid_at = bad.len() - 2;
        bad[tid_at] = 9; // tid 9 >= thread_count 1
        assert_eq!(decode(&bad).unwrap_err(), DecodeError::BadIndex);
    }

    #[test]
    fn decode_lossy_full_roundtrip_drops_nothing() {
        let t = sample_trace();
        let raw = encode(&t);
        let total = raw.len();
        let salvage = decode_lossy(&raw).unwrap();
        assert!(salvage.is_complete());
        assert_eq!(salvage.dropped_bytes, 0);
        assert_eq!(salvage.dropped_events, 0);
        assert!(salvage.reason.is_none());
        assert_eq!(salvage.valid_bytes, total);
        assert_eq!(salvage.trace.events, t.events);
    }

    #[test]
    fn decode_lossy_salvages_event_prefix_on_truncation() {
        let t = sample_trace();
        let raw = encode(&t).to_vec();
        // Cut 3 bytes before the end: inside the last event.
        let cut = raw.len() - 3;
        let salvage = decode_lossy(&raw[..cut]).unwrap();
        assert!(!salvage.trace.events.is_empty());
        assert!(salvage.trace.events.len() < t.events.len());
        assert!(salvage.dropped_events > 0);
        assert_eq!(salvage.reason, Some(DecodeError::Truncated));
        // Offsets partition the buffer: valid prefix + skipped region.
        assert_eq!(salvage.valid_bytes + salvage.dropped_bytes, cut);
        // The salvaged prefix matches the original event-for-event.
        for (a, b) in salvage.trace.events.iter().zip(t.events.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn salvage_valid_bytes_realigns_with_encoded_prefix() {
        // Flipping an event tag to garbage stops salvage exactly at that
        // event; valid_bytes must point at its first byte so a checkpoint
        // keyed on the offset can resume from the corruption boundary.
        let t = sample_trace();
        let raw = encode(&t).to_vec();
        let salvage_clean = decode_lossy(&raw).unwrap();
        assert_eq!(salvage_clean.valid_bytes, raw.len());

        let mut bad = raw.clone();
        // Corrupt the final event's tag (tag byte of ThreadJoin: the last
        // event is tag, flags, tid, stack, child = 5 bytes here).
        let tag_at = bad.len() - 5;
        bad[tag_at] = 0x7f;
        let salvage = decode_lossy(&bad).unwrap();
        assert_eq!(salvage.reason, Some(DecodeError::BadTag(0x7f)));
        assert_eq!(salvage.dropped_events, 1);
        assert_eq!(salvage.valid_bytes, tag_at);
        assert_eq!(salvage.dropped_bytes, raw.len() - tag_at);
        // Re-decoding the valid prefix (with a patched event count) yields
        // exactly the salvaged events — the offset is a real alignment
        // point, not an estimate.
        assert_eq!(salvage.trace.events.len(), t.events.len() - 1);
    }

    #[test]
    fn decode_lossy_is_fatal_on_table_corruption() {
        let raw = encode(&sample_trace()).to_vec();
        // Destroy the magic: nothing is salvageable.
        let mut bad = raw.clone();
        bad[0] = b'X';
        assert_eq!(decode_lossy(&bad).unwrap_err(), DecodeError::BadMagic);
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut raw = encode(&sample_trace()).to_vec();
        raw.extend_from_slice(b"junk");
        assert_eq!(decode(&raw).unwrap_err(), DecodeError::Truncated);
        // The lossy path still recovers the full trace.
        let salvage = decode_lossy(&raw).unwrap();
        assert_eq!(salvage.dropped_events, 0);
        assert_eq!(salvage.dropped_bytes, 4);
        assert!(salvage.reason.is_none());
    }

    #[test]
    fn varint_roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut b = Cur::new(&buf);
            assert_eq!(varint(&mut b).unwrap(), v);
            assert_eq!(b.remaining(), 0);
        }
    }

    /// A trace for the codec properties: every event kind, threads and
    /// stacks past one varint byte, addresses of every width, and enough
    /// events that most are parsed through a window.
    fn codec_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let stacks: Vec<_> = (0..200u32)
            .map(|i| b.intern_stack([Frame::new("f", "f.rs", i)]))
            .collect();
        for t in 1..150u32 {
            b.push(
                ThreadId(0),
                stacks[0],
                EventKind::ThreadCreate { child: ThreadId(t) },
            );
        }
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..150u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (tid, child) = (ThreadId((x % 150) as u32), ThreadId((x >> 32) as u32 % 150));
            let addr = x >> (x % 64);
            let range = AddrRange::new(addr, (x >> 20) as u32 % 300);
            let lock = LockId(x >> (x % 61));
            let kind = match i % 9 {
                0 => EventKind::Store {
                    range,
                    non_temporal: x & 1 != 0,
                    atomic: x & 2 != 0,
                },
                1 => EventKind::Load {
                    range,
                    atomic: x & 1 != 0,
                },
                2 => EventKind::Flush { addr },
                3 => EventKind::Fence,
                4 => EventKind::Acquire {
                    lock,
                    mode: LockMode::Exclusive,
                },
                5 => EventKind::Acquire {
                    lock,
                    mode: LockMode::Shared,
                },
                6 => EventKind::Release { lock },
                7 => EventKind::ThreadCreate { child },
                _ => EventKind::ThreadJoin { child },
            };
            b.push(tid, stacks[(x >> 8) as usize % stacks.len()], kind);
        }
        b.finish()
    }

    /// `v` as a varint padded to `width` bytes: a longer encoding of the
    /// same value, or, past ten bytes, an overflow.
    fn wide_varint(v: u64, width: usize) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, v);
        let last = out.len() - 1;
        out[last] |= 0x80;
        out.resize(width - 1, 0x80);
        out.push(0);
        out
    }

    /// The encoding of a trace's tables and of each of its events, apart.
    fn encoding_parts(t: &Trace) -> (Vec<u8>, Vec<Vec<u8>>) {
        let tables = Trace {
            events: EventColumns::new(),
            ..t.clone()
        };
        let mut head = encode(&tables).to_vec();
        assert_eq!(head.pop(), Some(0), "an empty trace ends in its count");
        let events = (0..t.events.len())
            .map(|i| {
                let mut one = [0u8; MAX_EVENT_BYTES];
                let n = encode_event(t.events.packed(i), &mut one);
                one[..n].to_vec()
            })
            .collect();
        (head, events)
    }

    fn assemble(head: &[u8], events: &[Vec<u8>]) -> Vec<u8> {
        let mut out = head.to_vec();
        put_varint(&mut out, events.len() as u64);
        for e in events {
            out.extend_from_slice(e);
        }
        out
    }

    /// What `decode_lossy` must return: the events, the stopping error,
    /// the dropped bytes and events and the valid prefix, decoded with
    /// every read checked.
    type Lossy = (Vec<Event>, Option<DecodeError>, u64, u64, u64);

    fn checked_reference(buf: &[u8]) -> Result<Lossy, DecodeError> {
        let mut cur = Cur::new(buf);
        let tables = decode_tables(&mut cur)?;
        let mut rows = EventColumns::new();
        for seq in 0..tables.event_count {
            let mut c = cur;
            match parse_event(&mut c, tables.trace.thread_count, &tables.stack_map) {
                Ok(row) => {
                    rows.push_packed(seq, row);
                    cur = c;
                }
                Err(e) => {
                    let (left, at) = (cur.remaining() as u64, cur.pos() as u64);
                    return Ok((rows.to_vec(), Some(e), left, tables.event_count - seq, at));
                }
            }
        }
        let (left, at) = (cur.remaining() as u64, cur.pos() as u64);
        Ok((rows.to_vec(), None, left, 0, at))
    }

    /// Every decoder agrees with the checked reference on `buf`, and at
    /// every event boundary with a window's worth of bytes left a window
    /// parses what checked reads parse.
    fn codecs_agree(buf: &[u8], starts: &[usize], what: &str) {
        use crate::error::HawkSetError;
        use crate::trace::stream::{StreamDecoder, StreamOptions};

        if let Ok(tables) = decode_tables(&mut Cur::new(buf)) {
            for &at in starts.iter().filter(|&&at| at + WINDOW <= buf.len()) {
                let (thread_count, stack_map) = (tables.trace.thread_count, &tables.stack_map);
                let mut window = Window::new(&buf[at..]).expect("a window's worth left");
                let mut cur = Cur::new(&buf[at..]);
                let windowed = parse_event(&mut window, thread_count, stack_map);
                let checked = parse_event(&mut cur, thread_count, stack_map);
                assert_eq!(windowed, checked, "{what}: event at byte {at}");
                if checked.is_ok() {
                    assert_eq!(window.pos, cur.pos(), "{what}: length of event at {at}");
                }
            }
        }
        let reference = checked_reference(buf);
        let lossy = decode_lossy(buf).map(|s| {
            let (events, reason) = (s.trace.events.to_vec(), s.reason);
            let (bytes, valid) = (s.dropped_bytes as u64, s.valid_bytes as u64);
            (events, reason, bytes, s.dropped_events, valid)
        });
        assert_eq!(lossy, reference, "{what}: decode_lossy");
        let strict = reference
            .clone()
            .and_then(|(events, reason, left, _, _)| match reason {
                Some(e) => Err(e),
                None if left > 0 => Err(DecodeError::Truncated),
                None => Ok(events),
            });
        assert_eq!(
            decode(buf).map(|t| t.events.to_vec()),
            strict,
            "{what}: decode"
        );
        for chunk_bytes in [1, 7, 64 << 10] {
            let what = format!("{what}, stream in {chunk_bytes}-byte chunks");
            for lossy in [true, false] {
                let opts = StreamOptions { chunk_bytes, lossy };
                let streamed = StreamDecoder::new(buf, opts).and_then(|d| d.collect());
                let streamed = streamed.map_err(|e| match e {
                    HawkSetError::Decode(e) => e,
                    other => panic!("{what}: not a decode error: {other}"),
                });
                if lossy {
                    let streamed = streamed.map(|(t, loss)| {
                        let events = t.events.to_vec();
                        let (bytes, events_lost) = (loss.dropped_bytes, loss.dropped_events);
                        (events, loss.reason, bytes, events_lost, loss.valid_bytes)
                    });
                    assert_eq!(streamed, reference, "{what}: lossy");
                } else {
                    let streamed = streamed.map(|(t, _)| t.events.to_vec());
                    assert_eq!(streamed, strict, "{what}: strict");
                }
            }
        }
    }

    /// The windowed and the checked reads agree with each other, and
    /// `decode`, `decode_lossy` and the stream decoder at 1-, 7- and
    /// 64 KiB chunks agree with them: on every cut within the last 64
    /// bytes, on varints of ten bytes and more, on an out-of-range thread,
    /// child or stack, on a 33-bit length, on a bad tag and on trailing
    /// bytes, each placed where a window reads it and where checked reads
    /// do.
    #[test]
    fn windowed_and_checked_reads_agree() {
        let trace = codec_trace();
        let (head, events) = encoding_parts(&trace);
        let clean = assemble(&head, &events);
        assert_eq!(
            clean,
            encode(&trace).to_vec(),
            "the parts make the encoding"
        );
        let n = events.len();
        let bad_thread = u64::from(trace.thread_count);
        let bad_stack = trace.stacks.stack_count() as u64;
        let field = |parts: &[&[u8]]| parts.concat();
        let v = |x: u64| {
            let mut out = Vec::new();
            put_varint(&mut out, x);
            out
        };
        let corruptions: Vec<(&str, Vec<u8>)> = vec![
            (
                "ten-byte thread",
                field(&[&[TAG_FENCE, 0], &wide_varint(0, 10), &[0]]),
            ),
            (
                "eleven-byte thread",
                field(&[&[TAG_FENCE, 0], &wide_varint(0, 11), &[0]]),
            ),
            (
                "ten-byte start",
                field(&[&[TAG_STORE, 0, 0, 0], &[0xff; 9], &[1], &[8]]),
            ),
            (
                "eleven-byte length",
                field(&[&[TAG_LOAD, 0, 0, 0, 1], &wide_varint(8, 11)]),
            ),
            (
                "bad thread",
                field(&[&[TAG_FENCE, 0], &v(bad_thread), &[0]]),
            ),
            (
                "bad child",
                field(&[&[TAG_CREATE, 0, 0, 0], &v(bad_thread)]),
            ),
            (
                "bad joined child",
                field(&[&[TAG_JOIN, 0, 0, 0], &v(bad_thread + 7)]),
            ),
            ("bad stack", field(&[&[TAG_FENCE, 0, 0], &v(bad_stack)])),
            (
                "33-bit length",
                field(&[&[TAG_LOAD, 0, 0, 0, 1], &v((1 << 32) | 8)]),
            ),
            ("bad tag", vec![9, 0, 0, 0]),
            ("bad high tag", vec![0x7f, 0, 0, 0, 0, 0, 0]),
        ];
        let starts = |events: &[Vec<u8>]| {
            let mut at = head.len() + v(events.len() as u64).len();
            let mut starts = Vec::with_capacity(events.len());
            for e in events {
                starts.push(at);
                at += e.len();
            }
            starts
        };
        let clean_starts = starts(&events);
        for cut in 1..=64 {
            let what = format!("clean, {cut} bytes cut");
            codecs_agree(&clean[..clean.len() - cut], &clean_starts, &what);
        }
        for tail in [&b"junk"[..], &[0u8; 70][..]] {
            let mut trailing = clean.clone();
            trailing.extend_from_slice(tail);
            codecs_agree(
                &trailing,
                &clean_starts,
                &format!("{} trailing", tail.len()),
            );
        }
        for (name, bytes) in &corruptions {
            for at in [0, 1, n / 2, n - 3, n - 2, n - 1] {
                let mut corrupt = events.clone();
                corrupt[at] = bytes.clone();
                let buf = assemble(&head, &corrupt);
                let what = format!("{name} at event {at}");
                codecs_agree(&buf, &starts(&corrupt), &what);
                if at == n - 1 {
                    for cut in 1..=bytes.len().min(64) {
                        let what = format!("{what}, {cut} bytes cut");
                        codecs_agree(&buf[..buf.len() - cut], &starts(&corrupt), &what);
                    }
                }
            }
        }
    }
}
