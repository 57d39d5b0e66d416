//! Corruption fault injection for the `.hwkt` codec.
//!
//! The trace file is the trust boundary of the whole pipeline: it is
//! produced by an instrumentation runtime that may crash mid-write, sit on
//! storage that bit-rots, or be handed over by a different (buggy) producer.
//! This module provides a small deterministic harness that manufactures
//! corrupted variants of a well-formed encoding so the test suite can state
//! the robustness contract precisely: [`decode`] and [`decode_lossy`] must
//! *never* panic, and every salvaged trace must be analyzable.
//!
//! The generator is self-contained (an xorshift64* PRNG) so the fault
//! streams are reproducible from a seed and the core crate keeps zero
//! dependencies.
//!
//! [`decode`]: crate::trace::io::decode
//! [`decode_lossy`]: crate::trace::io::decode_lossy

/// One corruption to apply to an encoded trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Keep only the first `len` bytes (a crash mid-write).
    Truncate(usize),
    /// Flip bit `bit` (0..8) of the byte at `offset` (bit rot).
    FlipBit {
        /// Byte position of the flip.
        offset: usize,
        /// Bit index within the byte, 0 = least significant.
        bit: u8,
    },
    /// Overwrite the byte at `offset` with `value`.
    SetByte {
        /// Byte position of the overwrite.
        offset: usize,
        /// Replacement value.
        value: u8,
    },
    /// Overwrite up to 10 bytes starting at `offset` with `0xFF`, which
    /// reads back as a varint with every continuation bit set — the
    /// shift-overflow path of the LEB128 decoder.
    OverflowVarint {
        /// Byte position where the 0xFF run starts.
        offset: usize,
    },
}

/// Returns a corrupted copy of `bytes` with `fault` applied.
///
/// Out-of-range offsets are clamped rather than rejected so that randomly
/// generated faults are always applicable; a clamped fault still corrupts
/// the tail of the buffer.
pub fn apply(bytes: &[u8], fault: Fault) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if out.is_empty() {
        return out;
    }
    let clamp = |offset: usize| offset.min(out.len() - 1);
    match fault {
        Fault::Truncate(len) => out.truncate(len.min(bytes.len())),
        Fault::FlipBit { offset, bit } => {
            let i = clamp(offset);
            out[i] ^= 1 << (bit % 8);
        }
        Fault::SetByte { offset, value } => {
            let i = clamp(offset);
            out[i] = value;
        }
        Fault::OverflowVarint { offset } => {
            let start = clamp(offset);
            let end = (start + 10).min(out.len());
            for b in &mut out[start..end] {
                *b = 0xFF;
            }
        }
    }
    out
}

/// Deterministic xorshift64* generator for reproducible fault streams.
#[derive(Clone, Debug)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Creates a generator from a seed (any value; zero is remapped).
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Draws a random fault applicable to a buffer of `len` bytes.
    pub fn fault(&mut self, len: usize) -> Fault {
        let len = len.max(1);
        match self.next_u64() % 4 {
            0 => Fault::Truncate(self.below(len)),
            1 => Fault::FlipBit {
                offset: self.below(len),
                bit: (self.next_u64() % 8) as u8,
            },
            2 => Fault::SetByte {
                offset: self.below(len),
                value: (self.next_u64() & 0xFF) as u8,
            },
            _ => Fault::OverflowVarint {
                offset: self.below(len),
            },
        }
    }
}

/// Every truncation of `bytes`, shortest first, excluding the full buffer.
///
/// Exhaustively exercises the "crash mid-write" failure mode: the decoder
/// must return an error (never panic) for each, and
/// [`decode_lossy`](crate::trace::io::decode_lossy) must salvage the
/// longest well-formed event prefix.
pub fn truncations(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    (0..bytes.len()).map(|len| bytes[..len].to_vec())
}

/// A [`Read`](std::io::Read) wrapper that fails with a deterministic I/O error once
/// `fail_at` bytes have been served — the storage-dies-mid-stream failure
/// mode for the streaming analyzer. Bytes before the fault are served
/// verbatim; afterwards every read fails with [`ErrorKind::Other`].
///
/// [`ErrorKind::Other`]: std::io::ErrorKind
#[derive(Debug)]
pub struct IoFaultReader<R> {
    inner: R,
    /// Bytes remaining before the injected failure.
    remaining: u64,
}

impl<R: std::io::Read> IoFaultReader<R> {
    /// Serves exactly `fail_at` bytes of `inner`, then errors forever.
    pub fn new(inner: R, fail_at: u64) -> Self {
        Self {
            inner,
            remaining: fail_at,
        }
    }
}

impl<R: std::io::Read> std::io::Read for IoFaultReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.remaining == 0 {
            return Err(std::io::Error::other("injected I/O fault"));
        }
        let cap = (self.remaining.min(buf.len() as u64)) as usize;
        let n = self.inner.read(&mut buf[..cap])?;
        self.remaining -= n as u64;
        Ok(n)
    }
}

/// A [`Read`](std::io::Read) wrapper that serves at most `trickle` bytes per call —
/// allocation-pressure injection for the streaming decoder: every refill
/// returns a sliver, maximizing the buffer-stitching and retry paths and
/// the number of partial-decode attempts per event.
#[derive(Debug)]
pub struct TrickleReader<R> {
    inner: R,
    trickle: usize,
}

impl<R: std::io::Read> TrickleReader<R> {
    /// Caps each `read` at `trickle` bytes (minimum 1).
    pub fn new(inner: R, trickle: usize) -> Self {
        Self {
            inner,
            trickle: trickle.max(1),
        }
    }
}

impl<R: std::io::Read> std::io::Read for TrickleReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let cap = self.trickle.min(buf.len());
        self.inner.read(&mut buf[..cap])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn apply_is_pure_and_in_bounds() {
        let original = vec![0u8; 32];
        let mut rng = FaultRng::new(42);
        for _ in 0..100 {
            let fault = rng.fault(original.len());
            let mutated = apply(&original, fault);
            assert!(mutated.len() <= original.len());
            assert_eq!(original, vec![0u8; 32], "input must not be mutated");
        }
    }

    #[test]
    fn flip_bit_changes_exactly_one_bit() {
        let original = vec![0b1010_1010u8; 4];
        let mutated = apply(&original, Fault::FlipBit { offset: 2, bit: 0 });
        assert_eq!(mutated[2], 0b1010_1011);
        assert_eq!(mutated[0], original[0]);
    }

    #[test]
    fn overflow_varint_writes_ff_run() {
        let original = vec![0u8; 16];
        let mutated = apply(&original, Fault::OverflowVarint { offset: 10 });
        assert_eq!(&mutated[10..16], &[0xFF; 6]);
        assert_eq!(&mutated[..10], &[0u8; 10]);
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = FaultRng::new(7);
        let mut b = FaultRng::new(7);
        for _ in 0..16 {
            assert_eq!(a.fault(100), b.fault(100));
        }
    }

    #[test]
    fn truncations_cover_every_proper_prefix() {
        let bytes = [1u8, 2, 3, 4];
        let cuts: Vec<_> = truncations(&bytes).collect();
        assert_eq!(cuts.len(), 4);
        assert_eq!(cuts[0], Vec::<u8>::new());
        assert_eq!(cuts[3], vec![1, 2, 3]);
    }

    #[test]
    fn io_fault_reader_serves_prefix_then_errors() {
        let data = (0u8..64).collect::<Vec<_>>();
        let mut r = IoFaultReader::new(std::io::Cursor::new(data.clone()), 10);
        let mut got = Vec::new();
        let err = r.read_to_end(&mut got).unwrap_err();
        assert_eq!(got, &data[..10]);
        assert_eq!(err.to_string(), "injected I/O fault");
        let mut buf = [0u8; 4];
        assert!(r.read(&mut buf).is_err(), "the fault is permanent");
    }

    #[test]
    fn trickle_reader_caps_every_read() {
        let data = vec![7u8; 100];
        let mut r = TrickleReader::new(std::io::Cursor::new(data.clone()), 3);
        let mut buf = [0u8; 50];
        let n = r.read(&mut buf).unwrap();
        assert_eq!(n, 3, "reads are capped at the trickle size");
        let mut got = vec![0u8; 3];
        got.copy_from_slice(&buf[..3]);
        let mut rest = Vec::new();
        r.read_to_end(&mut rest).unwrap();
        got.extend_from_slice(&rest);
        assert_eq!(got, data, "all bytes still arrive");
    }
}
