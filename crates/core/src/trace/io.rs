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

use bytes::{BufMut, Bytes, BytesMut};

use super::event::{Event, EventKind, LockId, LockMode, ThreadId};
use super::stack::Frame;
use super::{PmRegion, Trace};
use crate::addr::AddrRange;

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
fn get_u32(buf: &mut Cur<'_>, what: &'static str) -> Result<u32, DecodeError> {
    u32::try_from(get_varint(buf)?).map_err(|_| DecodeError::FieldTooWide(what))
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

fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
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

pub(crate) fn get_varint(buf: &mut Cur<'_>) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = buf.get_u8()?;
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

fn put_str(buf: &mut BytesMut, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

/// Borrows a length-prefixed string out of the buffer. The `&str` points
/// into the caller's bytes; it is only copied where an owned `String` is
/// interned (region paths, frame tables).
fn get_str<'a>(buf: &mut Cur<'a>) -> Result<&'a str, DecodeError> {
    let len = get_varint(buf)? as usize;
    if buf.remaining() < len {
        return Err(DecodeError::Truncated);
    }
    std::str::from_utf8(buf.take(len)?).map_err(|_| DecodeError::BadString)
}

/// Serializes a trace to its binary representation.
pub fn encode(trace: &Trace) -> Bytes {
    let mut buf = BytesMut::with_capacity(trace.events.len() * 8 + 1024);
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
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

    put_varint(&mut buf, trace.events.len() as u64);
    for ev in trace.events.iter() {
        let (tag, flags) = match ev.kind {
            EventKind::Store {
                non_temporal,
                atomic,
                ..
            } => {
                let mut fl = 0u8;
                if non_temporal {
                    fl |= STORE_FLAG_NT;
                }
                if atomic {
                    fl |= STORE_FLAG_ATOMIC;
                }
                (TAG_STORE, fl)
            }
            EventKind::Load { atomic, .. } => (TAG_LOAD, u8::from(atomic)),
            EventKind::Flush { .. } => (TAG_FLUSH, 0),
            EventKind::Fence => (TAG_FENCE, 0),
            EventKind::Acquire {
                mode: LockMode::Exclusive,
                ..
            } => (TAG_ACQUIRE_EX, 0),
            EventKind::Acquire {
                mode: LockMode::Shared,
                ..
            } => (TAG_ACQUIRE_SH, 0),
            EventKind::Release { .. } => (TAG_RELEASE, 0),
            EventKind::ThreadCreate { .. } => (TAG_CREATE, 0),
            EventKind::ThreadJoin { .. } => (TAG_JOIN, 0),
        };
        buf.put_u8(tag);
        buf.put_u8(flags);
        put_varint(&mut buf, u64::from(ev.tid.0));
        put_varint(&mut buf, u64::from(ev.stack));
        match ev.kind {
            EventKind::Store { range, .. } | EventKind::Load { range, .. } => {
                put_varint(&mut buf, range.start);
                put_varint(&mut buf, u64::from(range.len));
            }
            EventKind::Flush { addr } => put_varint(&mut buf, addr),
            EventKind::Fence => {}
            EventKind::Acquire { lock, .. } | EventKind::Release { lock } => {
                put_varint(&mut buf, lock.0)
            }
            EventKind::ThreadCreate { child } | EventKind::ThreadJoin { child } => {
                put_varint(&mut buf, u64::from(child.0))
            }
        }
    }
    buf.freeze()
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

    let mut reason = None;
    let mut dropped_events = 0;
    let mut dropped_bytes = 0;
    for seq in 0..event_count {
        let before = cur.remaining();
        match decode_event(&mut cur, seq, trace.thread_count, &stack_map) {
            Ok(ev) => trace.events.push(ev),
            Err(e) => {
                reason = Some(e);
                dropped_events = event_count - seq;
                dropped_bytes = before;
                break;
            }
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
/// [`decode_event`] themselves (batch salvage and the streaming decoder
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
    let thread_count = get_varint(buf)?;
    if thread_count > u64::from(MAX_THREADS) {
        return Err(DecodeError::LimitExceeded("thread"));
    }
    trace.thread_count = (thread_count as u32).max(1);

    let region_count = get_varint(buf)?;
    for _ in 0..region_count {
        let base = get_varint(buf)?;
        let len = get_varint(buf)?;
        let path = get_str(buf)?.to_owned();
        trace.regions.push(PmRegion { base, len, path });
    }

    // The string pool stays borrowed: each entry is copied into an owned
    // `String` only once, at frame-interning time below.
    let string_count = get_varint(buf)?;
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

    let frame_count = get_varint(buf)?;
    let mut stacks = super::stack::StackTable::new();
    let mut frame_map = Vec::with_capacity(checked_count(frame_count, buf.remaining(), "frame")?);
    for _ in 0..frame_count {
        let function = lookup(get_varint(buf)?)?.to_owned();
        let file = lookup(get_varint(buf)?)?.to_owned();
        let line = get_u32(buf, "frame line")?;
        frame_map.push(stacks.intern_frame(Frame {
            function,
            file,
            line,
        }));
    }

    let stack_count = get_varint(buf)?;
    let mut stack_map = Vec::with_capacity(checked_count(stack_count, buf.remaining(), "stack")?);
    for _ in 0..stack_count {
        let depth = get_varint(buf)?;
        let mut frames = Vec::with_capacity(checked_count(depth, buf.remaining(), "frame id")?);
        for _ in 0..depth {
            let fid = get_varint(buf)? as usize;
            frames.push(*frame_map.get(fid).ok_or(DecodeError::BadIndex)?);
        }
        stack_map.push(stacks.intern_frames(frames));
    }
    trace.stacks = stacks;

    let event_count = get_varint(buf)?;
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

pub(crate) fn decode_event(
    buf: &mut Cur<'_>,
    seq: u64,
    thread_count: u32,
    stack_map: &[u32],
) -> Result<Event, DecodeError> {
    if buf.remaining() < 2 {
        return Err(DecodeError::Truncated);
    }
    let tag = buf.get_u8()?;
    let flags = buf.get_u8()?;
    let tid_raw = get_varint(buf)?;
    if tid_raw >= u64::from(thread_count) {
        return Err(DecodeError::BadIndex);
    }
    let tid = ThreadId(tid_raw as u32);
    let stack_idx = get_varint(buf)? as usize;
    let stack = *stack_map.get(stack_idx).ok_or(DecodeError::BadIndex)?;
    let child_id = |raw: u64| {
        if raw >= u64::from(thread_count) {
            Err(DecodeError::BadIndex)
        } else {
            Ok(ThreadId(raw as u32))
        }
    };
    let kind = match tag {
        TAG_STORE => {
            let start = get_varint(buf)?;
            let len = get_u32(buf, "access length")?;
            EventKind::Store {
                range: AddrRange::new(start, len),
                non_temporal: flags & STORE_FLAG_NT != 0,
                atomic: flags & STORE_FLAG_ATOMIC != 0,
            }
        }
        TAG_LOAD => {
            let start = get_varint(buf)?;
            let len = get_u32(buf, "access length")?;
            EventKind::Load {
                range: AddrRange::new(start, len),
                atomic: flags != 0,
            }
        }
        TAG_FLUSH => EventKind::Flush {
            addr: get_varint(buf)?,
        },
        TAG_FENCE => EventKind::Fence,
        TAG_ACQUIRE_EX => EventKind::Acquire {
            lock: LockId(get_varint(buf)?),
            mode: LockMode::Exclusive,
        },
        TAG_ACQUIRE_SH => EventKind::Acquire {
            lock: LockId(get_varint(buf)?),
            mode: LockMode::Shared,
        },
        TAG_RELEASE => EventKind::Release {
            lock: LockId(get_varint(buf)?),
        },
        TAG_CREATE => EventKind::ThreadCreate {
            child: child_id(get_varint(buf)?)?,
        },
        TAG_JOIN => EventKind::ThreadJoin {
            child: child_id(get_varint(buf)?)?,
        },
        other => return Err(DecodeError::BadTag(other)),
    };
    Ok(Event {
        seq,
        tid,
        stack,
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;

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
        assert_eq!(get_varint(&mut b).unwrap_err(), DecodeError::VarintOverflow);
    }

    #[test]
    fn rejects_implausible_thread_count() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u8(VERSION);
        put_varint(&mut buf, u64::from(MAX_THREADS) + 1);
        assert_eq!(
            decode(buf.freeze().as_ref()).unwrap_err(),
            DecodeError::LimitExceeded("thread")
        );
    }

    #[test]
    fn rejects_implausible_table_counts() {
        // Header + no regions, then a string count far beyond the buffer.
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u8(VERSION);
        put_varint(&mut buf, 1); // thread_count
        put_varint(&mut buf, 0); // regions
        put_varint(&mut buf, 1 << 40); // strings: bomb
        assert_eq!(
            decode(buf.freeze().as_ref()).unwrap_err(),
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
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let raw = buf.freeze();
            let mut b = Cur::new(raw.as_ref());
            assert_eq!(get_varint(&mut b).unwrap(), v);
            assert_eq!(b.remaining(), 0);
        }
    }
}
