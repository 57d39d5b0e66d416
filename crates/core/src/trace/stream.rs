//! Chunked streaming decoder for `.hwkt` traces.
//!
//! [`decode`](super::io::decode) needs the whole trace in memory before the
//! first event comes out — fine for small traces, fatal for the
//! hundreds-of-millions-of-events captures long campaigns produce. This
//! module decodes the same format incrementally from any [`Read`] source
//! (file or stdin) through a bounded refill buffer: memory held by the
//! decoder is the interning tables (unavoidable — without them no event is
//! interpretable) plus at most one refill chunk and a partial-event tail.
//!
//! The decoder is byte-for-byte equivalent to the batch path: the events it
//! yields, and the loss accounting when the stream is corrupt, match
//! [`decode_lossy`](super::io::decode_lossy) on the same bytes exactly.
//! This equivalence is what lets the streaming analyzer promise bit-identical
//! reports (tested in this module and pinned by the golden corpus).

use std::io::Read;

use super::columns::EventColumns;
use super::io::{self, DecodeError};
use super::Trace;
use crate::error::HawkSetError;

/// Default refill granularity (64 KiB): large enough to amortize syscalls,
/// small enough that the live buffer never matters next to the tables.
pub const DEFAULT_CHUNK_BYTES: usize = 64 * 1024;

/// Knobs for [`StreamDecoder`].
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Bytes to request from the reader per refill.
    pub chunk_bytes: usize,
    /// When `true`, event-stream corruption ends the stream with loss
    /// accounting (mirroring [`decode_lossy`](io::decode_lossy)); when
    /// `false`, it is an error (mirroring [`decode`](io::decode)),
    /// including trailing bytes past the declared event count.
    pub lossy: bool,
}

impl Default for StreamOptions {
    fn default() -> Self {
        Self {
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            lossy: false,
        }
    }
}

/// Loss accounting for a (possibly corrupt) streamed trace. Field-for-field
/// the streaming analogue of [`io::Salvage`] minus the trace itself.
#[derive(Debug, Clone, Default)]
pub struct StreamLoss {
    /// Bytes that were not turned into events (from the first skipped byte
    /// through end of stream, trailing bytes included).
    pub dropped_bytes: u64,
    /// Events declared by the header but not recovered.
    pub dropped_events: u64,
    /// The error that stopped the full decode, if any.
    pub reason: Option<DecodeError>,
    /// Absolute stream offset where the well-formed prefix ends.
    pub valid_bytes: u64,
}

impl StreamLoss {
    /// True when nothing was lost.
    pub fn is_complete(&self) -> bool {
        self.reason.is_none() && self.dropped_events == 0 && self.dropped_bytes == 0
    }

    /// Records the losses into a snapshot's ingest section, exactly like
    /// [`io::Salvage::record_metrics`].
    pub fn record_metrics(&self, metrics: &mut crate::obs::MetricsSnapshot) {
        metrics.ingest.events_salvage_dropped = self.dropped_events;
        metrics.ingest.bytes_salvage_dropped = self.dropped_bytes;
    }
}

/// Incremental `.hwkt` decoder over any [`Read`] source.
///
/// Construction parses the header and interning tables (growing the buffer
/// until they fit — corruption there is fatal, as in the batch path). After
/// that, [`next_into`](Self::next_into) appends events one at a time, as
/// rows of an [`EventColumns`], from a bounded buffer.
pub struct StreamDecoder<R> {
    reader: R,
    opts: StreamOptions,
    /// The one read buffer. `buf[start..end]` is the undecoded window of
    /// the stream; a refill moves it to the front and reads into the room
    /// after it. Decode attempts run a borrowed [`io::Cur`] over the
    /// window, and only a *successful* parse advances `start`, so a
    /// partial decode at the chunk boundary is undone for free.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    eof: bool,
    /// Absolute stream offset of `buf[start]`.
    offset: u64,
    header: Trace,
    stack_map: Vec<u32>,
    event_count: u64,
    next_seq: u64,
    done: bool,
    loss: StreamLoss,
}

impl<R: Read> StreamDecoder<R> {
    /// Reads and decodes the trace header + tables, leaving the decoder
    /// positioned at the first event.
    pub fn new(reader: R, opts: StreamOptions) -> Result<Self, HawkSetError> {
        let mut s = Self {
            reader,
            opts,
            buf: Vec::new(),
            start: 0,
            end: 0,
            eof: false,
            offset: 0,
            header: Trace::new(),
            stack_map: Vec::new(),
            event_count: 0,
            next_seq: 0,
            done: false,
            loss: StreamLoss::default(),
        };
        // Each refill retries the table parse from the top, so double the
        // request size every round to keep the total work linear even when
        // the tables span many chunks.
        let mut want = s.opts.chunk_bytes;
        loop {
            let (res, used) = {
                let mut cur = io::Cur::new(&s.buf[..s.end]);
                (io::decode_tables(&mut cur), cur.pos())
            };
            match res {
                Ok(tables) => {
                    s.offset += used as u64;
                    s.start = used;
                    s.header = tables.trace;
                    s.stack_map = tables.stack_map;
                    s.event_count = tables.event_count;
                    return Ok(s);
                }
                // Truncated means "need more bytes". LimitExceeded can too:
                // the decompression-bomb guard compares declared counts
                // against the bytes *present*, which here is only a partial
                // window. Both retry until EOF, where the full input is
                // buffered and the verdict matches the batch decoder's.
                Err(DecodeError::Truncated | DecodeError::LimitExceeded(_)) if !s.eof => {
                    s.refill(want)?;
                    want = want.saturating_mul(2);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// The header-only trace: thread count, PM regions and the full stack
    /// table, with an empty event vector.
    pub fn header(&self) -> &Trace {
        &self.header
    }

    /// The event count the header declared.
    pub fn declared_events(&self) -> u64 {
        self.event_count
    }

    /// Events successfully decoded so far.
    pub fn decoded_events(&self) -> u64 {
        self.next_seq
    }

    /// Absolute stream offset of the next undecoded byte.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Loss accounting; fully populated once the stream is exhausted.
    pub fn loss(&self) -> &StreamLoss {
        &self.loss
    }

    /// Consumes the decoder, returning the header trace and loss record.
    pub fn into_parts(self) -> (Trace, StreamLoss) {
        (self.header, self.loss)
    }

    /// Decodes the next event and appends it to `rows`. `Ok(false)` means
    /// the stream ended — cleanly, or (in lossy mode) at a corruption
    /// recorded in [`loss`](Self::loss) — and appended nothing.
    pub fn next_into(&mut self, rows: &mut EventColumns) -> Result<bool, HawkSetError> {
        if self.done {
            return Ok(false);
        }
        loop {
            if self.next_seq >= self.event_count {
                self.finish_events()?;
                return Ok(false);
            }
            let (res, used) = {
                let mut cur = io::Cur::new(&self.buf[self.start..self.end]);
                let res = io::next_event(
                    &mut cur,
                    self.next_seq,
                    self.header.thread_count,
                    &self.stack_map,
                    rows,
                );
                (res, cur.pos())
            };
            match res {
                Ok(()) => {
                    self.offset += used as u64;
                    self.start += used;
                    self.next_seq += 1;
                    return Ok(true);
                }
                Err(DecodeError::Truncated) if !self.eof => {
                    let want = self.opts.chunk_bytes;
                    self.refill(want)?;
                }
                Err(e) => {
                    self.done = true;
                    self.loss.reason = Some(e);
                    self.loss.dropped_events = self.event_count - self.next_seq;
                    self.loss.valid_bytes = self.offset;
                    if !self.opts.lossy {
                        return Err(e.into());
                    }
                    self.loss.dropped_bytes = self.drain()?;
                    return Ok(false);
                }
            }
        }
    }

    /// All declared events decoded: account for trailing bytes, which are
    /// corruption (strict: an error; lossy: counted as dropped).
    fn finish_events(&mut self) -> Result<(), HawkSetError> {
        self.done = true;
        self.loss.valid_bytes = self.offset;
        let trailing = self.drain()?;
        self.loss.dropped_bytes = trailing;
        if trailing > 0 && !self.opts.lossy {
            return Err(DecodeError::Truncated.into());
        }
        Ok(())
    }

    /// Counts the unread remainder of the stream, reading it through the
    /// one buffer without keeping it, then frees the buffer: the stream is
    /// done. In lossy mode a read error merely ends the count — the
    /// decoded trace is already final, so salvage must not fail over
    /// bytes it was going to discard anyway.
    fn drain(&mut self) -> Result<u64, HawkSetError> {
        let mut n = (self.end - self.start) as u64;
        (self.start, self.end) = (0, 0);
        if self.buf.is_empty() {
            self.buf.resize(self.opts.chunk_bytes.max(1), 0);
        }
        while !self.eof {
            match self.reader.read(&mut self.buf) {
                Ok(0) => self.eof = true,
                Ok(k) => n += k as u64,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    if self.opts.lossy {
                        self.eof = true;
                    } else {
                        return Err(e.into());
                    }
                }
            }
        }
        self.buf = Vec::new();
        Ok(n)
    }

    /// Appends up to `want` fresh bytes to the window (at least
    /// `chunk_bytes`), setting `eof` on end of stream. The unread tail
    /// moves to the front of the buffer and the read lands in the room
    /// after it, so a refill allocates only when the buffer must grow. In
    /// lossy mode a mid-stream read error is the same failure as a
    /// truncated file — the reader died where a crash would have cut the
    /// bytes — so it ends the stream and lets the normal salvage
    /// accounting run; the decoded result then matches
    /// [`decode_lossy`](io::decode_lossy) on the prefix that was actually
    /// served.
    fn refill(&mut self, want: usize) -> Result<(), HawkSetError> {
        // The request is clamped: callers double `want` to amortize
        // re-parses, but a reader that trickles single bytes would otherwise
        // drive the request (and the buffer) toward `usize::MAX`.
        const MAX_REFILL_BYTES: usize = 8 << 20;
        let want = want.max(self.opts.chunk_bytes).clamp(1, MAX_REFILL_BYTES);
        self.buf.copy_within(self.start..self.end, 0);
        (self.start, self.end) = (0, self.end - self.start);
        let need = self.end + want;
        if self.buf.len() < need {
            self.buf.reserve_exact(need - self.buf.len());
            self.buf.resize(need, 0);
        } else if self.buf.len() > 2 * need {
            // Tables that spanned many chunks grew the buffer; the events
            // need one chunk, so give the rest back, once.
            self.buf.truncate(need);
            self.buf.shrink_to_fit();
        }
        let room = &mut self.buf[self.end..self.end + want];
        let mut filled = 0usize;
        while filled == 0 && !self.eof {
            match self.reader.read(room) {
                Ok(0) => self.eof = true,
                Ok(n) => filled = n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    if self.opts.lossy {
                        self.eof = true;
                    } else {
                        return Err(e.into());
                    }
                }
            }
        }
        self.end += filled;
        Ok(())
    }

    /// Drives the decoder to exhaustion, collecting every event into a full
    /// trace. Loses the memory bound — intended for tests and for callers
    /// that need batch/stream equivalence rather than streaming itself.
    pub fn collect(mut self) -> Result<(Trace, StreamLoss), HawkSetError> {
        let mut events = EventColumns::new();
        while self.next_into(&mut events)? {}
        let (mut trace, loss) = self.into_parts();
        trace.events = events;
        Ok((trace, loss))
    }
}

#[cfg(test)]
mod tests {
    use std::io::Cursor;

    use super::*;
    use crate::addr::AddrRange;
    use crate::trace::event::{EventKind, LockId, LockMode, ThreadId};
    use crate::trace::stack::Frame;
    use crate::trace::{PmRegion, TraceBuilder};

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
            ThreadId(0),
            s0,
            EventKind::ThreadJoin { child: ThreadId(1) },
        );
        b.finish()
    }

    fn opts(chunk: usize, lossy: bool) -> StreamOptions {
        StreamOptions {
            chunk_bytes: chunk,
            lossy,
        }
    }

    #[test]
    fn stream_matches_batch_decode() {
        let t = sample_trace();
        let raw = io::encode(&t).to_vec();
        for chunk in [1usize, 3, 7, 64, 1 << 16] {
            let dec =
                StreamDecoder::new(Cursor::new(raw.clone()), opts(chunk, false)).expect("tables");
            assert_eq!(dec.declared_events(), t.events.len() as u64);
            let (back, loss) = dec.collect().expect("clean stream");
            assert!(loss.is_complete(), "chunk {chunk}: unexpected loss");
            assert_eq!(back.events, t.events, "chunk {chunk}");
            assert_eq!(back.thread_count, t.thread_count);
            assert_eq!(back.regions, t.regions);
            assert_eq!(back.stacks.stack_count(), t.stacks.stack_count());
            assert_eq!(loss.valid_bytes, raw.len() as u64);
        }
    }

    #[test]
    fn stream_loss_matches_batch_salvage_on_truncation() {
        let t = sample_trace();
        let raw = io::encode(&t).to_vec();
        let cut = raw.len() - 3; // inside the last event
        let short = raw[..cut].to_vec();
        let batch = io::decode_lossy(&short).unwrap();
        for chunk in [1usize, 5, 1 << 16] {
            let dec =
                StreamDecoder::new(Cursor::new(short.clone()), opts(chunk, true)).expect("tables");
            let (back, loss) = dec
                .collect()
                .expect("lossy never errors on event corruption");
            assert_eq!(back.events, batch.trace.events, "chunk {chunk}");
            assert_eq!(loss.reason, batch.reason);
            assert_eq!(loss.dropped_events, batch.dropped_events);
            assert_eq!(loss.dropped_bytes, batch.dropped_bytes as u64);
            assert_eq!(loss.valid_bytes, batch.valid_bytes as u64);
        }
    }

    #[test]
    fn an_access_length_past_32_bits_is_corruption_for_every_decoder() {
        // A store, then a load whose length varint, the last field of the
        // encoding, is rewritten to 2^32 + 8: cut to 32 bits it would read
        // as an 8-byte load.
        let mut b = crate::trace::TraceBuilder::new();
        let s = b.intern_stack([crate::trace::Frame::new("f", "f.rs", 1)]);
        let range = AddrRange::new(0x1000, 8);
        let store = EventKind::Store {
            range,
            non_temporal: false,
            atomic: false,
        };
        b.push(ThreadId(0), s, store);
        let load = EventKind::Load {
            range,
            atomic: false,
        };
        b.push(ThreadId(0), s, load);
        let t = b.finish();
        let mut raw = io::encode(&t).to_vec();
        assert_eq!(raw.pop(), Some(8), "the load's length ends the encoding");
        // Tag, flags, tid and stack take a byte each, the start two.
        let load_at = raw.len() - 6;
        raw.extend_from_slice(&[0x88, 0x80, 0x80, 0x80, 0x10]);
        let wide = DecodeError::FieldTooWide("access length");

        assert_eq!(io::decode(&raw).unwrap_err(), wide);
        let batch = io::decode_lossy(&raw).unwrap();
        assert_eq!(batch.reason, Some(wide));
        let first = vec![t.events.get(0)];
        assert_eq!(batch.trace.events.to_vec(), first);
        assert_eq!(batch.dropped_events, 1);
        assert_eq!(batch.valid_bytes, load_at);
        for chunk in [1usize, 4, 1 << 16] {
            let dec = StreamDecoder::new(Cursor::new(raw.clone()), opts(chunk, true)).unwrap();
            let (back, loss) = dec.collect().unwrap();
            assert_eq!(back.events.to_vec(), first, "chunk {chunk}");
            assert_eq!(loss.reason, Some(wide));
            assert_eq!(loss.valid_bytes, load_at as u64);
            let dec = StreamDecoder::new(Cursor::new(raw.clone()), opts(chunk, false)).unwrap();
            match dec.collect() {
                Err(HawkSetError::Decode(e)) => assert_eq!(e, wide, "chunk {chunk}"),
                other => panic!("expected {wide:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn stream_loss_matches_batch_salvage_on_bad_tag() {
        let t = sample_trace();
        let mut raw = io::encode(&t).to_vec();
        let tag_at = raw.len() - 5; // final event's tag byte (ThreadJoin)
        raw[tag_at] = 0x7f;
        let batch = io::decode_lossy(&raw).unwrap();
        assert_eq!(batch.reason, Some(DecodeError::BadTag(0x7f)));
        let dec = StreamDecoder::new(Cursor::new(raw.clone()), opts(4, true)).expect("tables");
        let (back, loss) = dec.collect().unwrap();
        assert_eq!(back.events, batch.trace.events);
        assert_eq!(loss.reason, batch.reason);
        assert_eq!(loss.dropped_events, batch.dropped_events);
        assert_eq!(loss.dropped_bytes, batch.dropped_bytes as u64);
        assert_eq!(loss.valid_bytes, tag_at as u64);
    }

    #[test]
    fn strict_stream_rejects_corruption_and_trailing_bytes() {
        let t = sample_trace();
        let raw = io::encode(&t).to_vec();

        let short = raw[..raw.len() - 3].to_vec();
        let dec = StreamDecoder::new(Cursor::new(short), opts(8, false)).unwrap();
        match dec.collect() {
            Err(HawkSetError::Decode(DecodeError::Truncated)) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }

        let mut trailing = raw.clone();
        trailing.extend_from_slice(b"junk");
        let dec = StreamDecoder::new(Cursor::new(trailing.clone()), opts(8, false)).unwrap();
        match dec.collect() {
            Err(HawkSetError::Decode(DecodeError::Truncated)) => {}
            other => panic!("expected Truncated on trailing bytes, got {other:?}"),
        }

        // Lossy mode counts the same trailing bytes instead.
        let dec = StreamDecoder::new(Cursor::new(trailing), opts(8, true)).unwrap();
        let (back, loss) = dec.collect().unwrap();
        assert_eq!(back.events, t.events);
        assert_eq!(loss.dropped_bytes, 4);
        assert_eq!(loss.dropped_events, 0);
        assert!(loss.reason.is_none());
    }

    #[test]
    fn table_corruption_is_fatal_in_both_modes() {
        let mut raw = io::encode(&sample_trace()).to_vec();
        raw[0] = b'X';
        for lossy in [false, true] {
            match StreamDecoder::new(Cursor::new(raw.clone()), opts(2, lossy)) {
                Err(HawkSetError::Decode(DecodeError::BadMagic)) => {}
                other => panic!("expected BadMagic, got {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn truncation_inside_tables_is_fatal() {
        let raw = io::encode(&sample_trace()).to_vec();
        // Find where the tables end: decode them once and measure.
        let mut cursor = io::Cur::new(&raw);
        io::decode_tables(&mut cursor).unwrap();
        let tables_end = cursor.pos();
        let cut = tables_end / 2; // mid-tables
        match StreamDecoder::new(Cursor::new(raw[..cut].to_vec()), opts(4, true)) {
            Err(HawkSetError::Decode(DecodeError::Truncated)) => {}
            other => panic!("expected Truncated, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn offset_tracks_the_stream_position() {
        let t = sample_trace();
        let raw = io::encode(&t).to_vec();
        let mut dec = StreamDecoder::new(Cursor::new(raw.clone()), opts(4, false)).unwrap();
        let mut last = dec.offset();
        assert!(last > 0, "tables consume bytes");
        let mut rows = EventColumns::new();
        while dec.next_into(&mut rows).unwrap() {
            assert!(dec.offset() > last, "offset must advance per event");
            last = dec.offset();
        }
        assert_eq!(dec.offset(), raw.len() as u64);
        assert_eq!(dec.decoded_events(), t.events.len() as u64);
    }
}
