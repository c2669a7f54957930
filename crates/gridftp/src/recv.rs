//! The one receive path of a data channel, shared by the server's `STOR`
//! and the client's `RETR`.
//!
//! Frames are folded where they land, with no decoder in between:
//!
//! 1. `conn.read` fills one fixed staging buffer per channel.
//! 2. Headers are read in place ([`parse_header`]).
//! 3. As soon as [`LANES`] complete frames sit in the buffer, their
//!    payloads are hashed side by side ([`StripeDigest::add_lanes`]).
//! 4. At the end of the stream, or when the next frame does not fit behind
//!    the waiting ones, the 1–3 waiting frames are hashed one at a time and
//!    the partial tail moves to the front.
//! 5. A frame larger than the whole buffer grows it to that frame's size,
//!    as a block decoder's buffer would grow.
//!
//! A frame is counted (digest, bytes, range) only when it is complete, so a
//! frame cut off by a disconnect counts nothing, as with a block decoder.

use crate::block::{
    parse_header, DEFAULT_BLOCK_BYTES, FLAG_EOD, FLAG_EOF, HEADER_LEN, MAX_BLOCK_LEN,
};
use crate::checksum::{StripeDigest, LANES};
use std::io::{self, Read};

/// Size of the staging buffer: [`LANES`] default frames plus 64 KiB of read
/// slack, so a read rarely stops short of the fourth frame's end. One more
/// frame of room raised the socket-put peak RSS from ~8.0 MB to 9.1–10.3 MB
/// and did not run faster (EXPERIMENTS.md, socket-put recipe).
pub(crate) const STAGING_BYTES: usize = LANES * (HEADER_LEN + DEFAULT_BLOCK_BYTES) + 64 * 1024;

/// Why a channel's receive loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum End {
    /// An EOD frame: the transfer is over and the channel may be reused.
    Eod,
    /// An EOF frame: the sender closed the channel for good.
    Eof,
    /// The peer closed the connection.
    Closed,
    /// A header declared more than [`MAX_BLOCK_LEN`] bytes, or a range past
    /// the end of the offset space.
    Corrupt,
    /// The caller's stop flag was raised.
    Stopped,
}

/// A complete frame waiting in the buffer for its lane group.
#[derive(Debug, Clone, Copy, Default)]
struct Staged {
    offset: u64,
    start: usize,
    end: usize,
}

/// One channel's receive state and what it has counted so far.
#[derive(Debug)]
pub(crate) struct StripeFold {
    buf: Vec<u8>,
    /// Bytes `[0, filled)` of `buf` hold data from the wire.
    filled: usize,
    /// Bytes before `scanned` are parsed: staged frames or consumed.
    scanned: usize,
    staged: [Staged; LANES],
    n_staged: usize,
    /// Digest of every counted frame.
    pub(crate) digest: StripeDigest,
    /// Payload bytes of every counted frame.
    pub(crate) bytes: u64,
    /// `[offset, offset + len)` of every counted frame, in arrival order.
    pub(crate) ranges: Vec<(u64, u64)>,
}

impl StripeFold {
    /// An empty fold with its staging buffer of [`STAGING_BYTES`].
    pub(crate) fn new() -> Self {
        StripeFold {
            buf: vec![0; STAGING_BYTES],
            filled: 0,
            scanned: 0,
            staged: [Staged::default(); LANES],
            n_staged: 0,
            digest: StripeDigest::new(),
            bytes: 0,
            ranges: Vec::new(),
        }
    }

    /// Read `conn` and fold its frames until an end frame, a close, a
    /// corrupt header or `stop()`. Timed-out reads are retried. Every
    /// frame that arrived whole is counted, whatever ends the loop.
    ///
    /// # Errors
    /// Any other read error, after counting what arrived before it.
    pub(crate) fn receive(
        &mut self,
        conn: &mut impl Read,
        stop: impl Fn() -> bool,
    ) -> io::Result<End> {
        let end = loop {
            if stop() {
                break Ok(End::Stopped);
            }
            match conn.read(&mut self.buf[self.filled..]) {
                Ok(0) => break Ok(End::Closed),
                Ok(n) => {
                    self.filled += n;
                    if let Some(end) = self.fold() {
                        break Ok(end);
                    }
                }
                Err(ref e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(e) => break Err(e),
            }
        };
        self.flush();
        end
    }

    /// Fold the bytes `[scanned, filled)`; `Some` when the stream ended.
    /// On return with `None`, `filled < buf.len()`: the next read has room.
    fn fold(&mut self) -> Option<End> {
        loop {
            let Some((flags, len, offset)) = parse_header(&self.buf[self.scanned..self.filled])
            else {
                self.make_room(HEADER_LEN);
                return None;
            };
            if len > MAX_BLOCK_LEN || offset.checked_add(len).is_none() {
                return Some(End::Corrupt);
            }
            let total = HEADER_LEN + len as usize;
            if self.filled - self.scanned < total {
                self.make_room(total);
                return None;
            }
            let start = self.scanned + HEADER_LEN;
            self.scanned += total;
            if let Some(end) = end_of(flags) {
                return Some(end);
            }
            self.staged[self.n_staged] = Staged {
                offset,
                start,
                end: self.scanned,
            };
            self.n_staged += 1;
            if self.n_staged == LANES {
                let blocks = self.staged.map(|f| (f.offset, &self.buf[f.start..f.end]));
                self.digest.add_lanes(blocks);
                for f in self.staged {
                    self.count(f.offset, (f.end - f.start) as u64);
                }
                self.n_staged = 0;
            }
        }
    }

    /// Make sure `need` bytes from `scanned` fit in the buffer: if not,
    /// count the staged frames and move the unparsed tail to the front,
    /// and grow the buffer for a frame larger than all of it.
    fn make_room(&mut self, need: usize) {
        if self.scanned + need > self.buf.len() {
            self.flush();
            self.buf.copy_within(self.scanned..self.filled, 0);
            self.filled -= self.scanned;
            self.scanned = 0;
            if need > self.buf.len() {
                self.buf.resize(need, 0);
            }
        }
    }

    /// Count the staged frames one at a time.
    fn flush(&mut self) {
        let staged = self.staged;
        for f in &staged[..self.n_staged] {
            self.digest.add_block(f.offset, &self.buf[f.start..f.end]);
            self.count(f.offset, (f.end - f.start) as u64);
        }
        self.n_staged = 0;
    }

    /// Count a frame's bytes and range (its hash is already in `digest`).
    fn count(&mut self, offset: u64, len: u64) {
        self.bytes += len;
        self.ranges.push((offset, offset + len));
    }
}

/// The end a frame's flags signal, if any. EOF wins over EOD: a channel
/// closed for good is not kept for reuse.
fn end_of(flags: u8) -> Option<End> {
    if flags & FLAG_EOF != 0 {
        Some(End::Eof)
    } else if flags & FLAG_EOD != 0 {
        Some(End::Eod)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{header, BlockDecoder};
    use proptest::prelude::*;

    /// Serves `data` in reads whose sizes cycle through `sizes`; a size
    /// past the caller's buffer fills the whole buffer.
    struct Chunked<'a> {
        data: &'a [u8],
        sizes: &'a [usize],
        turn: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.sizes[self.turn % self.sizes.len()]
                .min(buf.len())
                .min(self.data.len());
            self.turn += 1;
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// Distinct pseudo-random bytes for every `(seed, i)`.
    fn noise(seed: u64, buf: &mut [u8]) {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        for b in buf {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *b = x as u8;
        }
    }

    /// One wire frame with a pseudo-random payload, appended to `wire`.
    fn push_frame(wire: &mut Vec<u8>, flags: u8, offset: u64, len: usize) {
        wire.extend_from_slice(&header(flags, len as u64, offset));
        let at = wire.len();
        wire.resize(at + len, 0);
        noise(offset ^ len as u64, &mut wire[at..]);
    }

    type Outcome = (StripeDigest, u64, Vec<(u64, u64)>, End);

    /// The reference: the block decoder and the scalar fold, block by block.
    fn scalar_fold(wire: &[u8]) -> Outcome {
        let mut dec = BlockDecoder::new();
        dec.feed(wire);
        let (mut digest, mut bytes, mut ranges) = (StripeDigest::new(), 0, Vec::new());
        let end = loop {
            match dec.next_block() {
                Ok(Some(b)) if b.is_eof() => break End::Eof,
                Ok(Some(b)) if b.is_eod() => break End::Eod,
                Ok(Some(b)) => {
                    digest.add_block(b.offset, &b.payload);
                    bytes += b.payload.len() as u64;
                    ranges.push((b.offset, b.offset + b.payload.len() as u64));
                }
                Ok(None) => break End::Closed,
                Err(_) => break End::Corrupt,
            }
        };
        (digest, bytes, ranges, end)
    }

    fn staged_fold(wire: &[u8], sizes: &[usize]) -> Outcome {
        let mut fold = StripeFold::new();
        let mut conn = Chunked {
            data: wire,
            sizes,
            turn: 0,
        };
        let end = fold.receive(&mut conn, || false).expect("reads never fail");
        (fold.digest, fold.bytes, fold.ranges, end)
    }

    const MIB: usize = 1024 * 1024;
    /// Frame payload sizes: 300 000 leaves three frames waiting when the
    /// fourth does not fit, and 3 MiB grows the buffer.
    const SIZES: [usize; 8] = [0, 1, 17, 4097, 256 * 1024, 256 * 1024 + 1, 300_000, 3 * MIB];
    const _: () = assert!(3 * MIB > STAGING_BYTES, "3 MiB frames must grow the buffer");
    const _: () = assert!(4 * (HEADER_LEN + 300_000) > STAGING_BYTES);

    /// Every read size from one byte to past the whole stream, on a stream
    /// of small frames of mixed sizes with an EOD in mid-buffer.
    #[test]
    fn every_read_size_folds_like_the_scalar_fold() {
        let mut wire = Vec::new();
        for (i, len) in [0, 1, 17, 300, 17, 1, 0, 64, 5].into_iter().enumerate() {
            push_frame(&mut wire, 0, 1000 * i as u64, len);
        }
        push_frame(&mut wire, FLAG_EOD, 0, 0);
        push_frame(&mut wire, 0, 99, 40); // after EOD: never counted
        let want = scalar_fold(&wire);
        assert_eq!(want.1, 405);
        assert_eq!(want.3, End::Eod);
        for size in 1..=wire.len() + 1 {
            assert_eq!(staged_fold(&wire, &[size]), want, "read size {size}");
        }
    }

    /// Default frames cut at every staging boundary, frames that leave
    /// others waiting when the buffer runs out, and a frame larger than the
    /// buffer, read one byte at a time and in whole buffers.
    #[test]
    fn large_frames_fold_like_the_scalar_fold_at_any_read_size() {
        let mut wire = Vec::new();
        let lens = [
            256 * 1024,
            256 * 1024 + 1,
            3 * MIB,
            4097,
            300_000,
            300_000,
            300_000,
            300_000,
            17,
        ];
        for (i, len) in lens.into_iter().enumerate() {
            push_frame(&mut wire, 0, (i * 4 * MIB) as u64, len);
        }
        push_frame(&mut wire, FLAG_EOF, 0, 0);
        let want = scalar_fold(&wire);
        assert_eq!(want.1, lens.iter().sum::<usize>() as u64);
        for sizes in [&[1][..], &[usize::MAX], &[1, 65_536, 3, STAGING_BYTES - 1]] {
            assert_eq!(staged_fold(&wire, sizes), want, "read sizes {sizes:?}");
        }
    }

    /// A stream cut inside a frame counts the frames before it only, be
    /// the cut frame smaller or larger than the staging buffer.
    #[test]
    fn a_cut_frame_counts_nothing() {
        for len in [4097, 3 * MIB] {
            let mut wire = Vec::new();
            push_frame(&mut wire, 0, 0, 100);
            push_frame(&mut wire, 0, 100, len);
            wire.truncate(wire.len() - 1);
            let (digest, bytes, ranges, end) = staged_fold(&wire, &[65_536]);
            let mut want = StripeDigest::new();
            want.add_block(0, &wire[HEADER_LEN..HEADER_LEN + 100]);
            assert_eq!(
                (digest, bytes, ranges, end),
                (want, 100, vec![(0, 100)], End::Closed)
            );
        }
    }

    /// An oversized length or a range past `u64::MAX` ends the stream as
    /// corrupt, after counting the whole frames before it.
    #[test]
    fn corrupt_headers_end_the_stream_after_counting_what_came_before() {
        for (len, offset) in [(MAX_BLOCK_LEN + 1, 0), (10, u64::MAX - 5)] {
            let mut wire = Vec::new();
            push_frame(&mut wire, 0, 0, 3);
            push_frame(&mut wire, 0, 3, 4);
            wire.extend_from_slice(&header(0, len, offset));
            wire.extend_from_slice(&[0; 10]);
            let (_, bytes, ranges, end) = staged_fold(&wire, &[usize::MAX]);
            assert_eq!(
                (bytes, ranges, end),
                (7, vec![(0, 3), (3, 7)], End::Corrupt)
            );
        }
        let mut wire = header(0, MAX_BLOCK_LEN + 1, 0).to_vec();
        wire.extend_from_slice(&[0; 10]);
        assert_eq!(scalar_fold(&wire).3, End::Corrupt, "the decoder agrees");
    }

    #[test]
    fn a_raised_stop_flag_counts_what_arrived() {
        let mut wire = Vec::new();
        push_frame(&mut wire, 0, 0, 9);
        let mut fold = StripeFold::new();
        let mut conn = Chunked {
            data: &wire,
            sizes: &[usize::MAX],
            turn: 0,
        };
        let reads = std::cell::Cell::new(0);
        let end = fold.receive(&mut conn, || {
            reads.set(reads.get() + 1);
            reads.get() > 1
        });
        assert_eq!(end.unwrap(), End::Stopped);
        assert_eq!((fold.bytes, fold.ranges), (9, vec![(0, 9)]));
    }

    /// A socket-put-sized stream, 256 MiB of default frames with distinct
    /// payloads and an EOD, generated as it is read in uneven sizes; the
    /// scalar fold of each frame is taken as it is generated. Too slow
    /// unoptimized, so `scripts/ci.sh` runs it in release.
    #[test]
    #[ignore = "256 MiB: run with --release --ignored"]
    fn staged_fold_equals_scalar_fold_over_a_full_put_stream() {
        const SIZE: u64 = 256 * MIB as u64;
        const BLOCK: usize = DEFAULT_BLOCK_BYTES;
        struct Generated {
            next: u64,
            frame: Vec<u8>,
            at: usize,
            turn: usize,
            scalar: StripeDigest,
        }
        impl Read for Generated {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.at == self.frame.len() {
                    self.frame.clear();
                    self.at = 0;
                    if self.next < SIZE {
                        push_frame(&mut self.frame, 0, self.next, BLOCK);
                        self.scalar.add_block(self.next, &self.frame[HEADER_LEN..]);
                        self.next += BLOCK as u64;
                    } else if self.next == SIZE {
                        push_frame(&mut self.frame, FLAG_EOD, 0, 0);
                        self.next += 1;
                    }
                }
                const SIZES: [usize; 6] = [1, 4097, 65_539, 300_000, STAGING_BYTES, 17];
                let n = SIZES[self.turn % SIZES.len()]
                    .min(buf.len())
                    .min(self.frame.len() - self.at);
                self.turn += 1;
                buf[..n].copy_from_slice(&self.frame[self.at..self.at + n]);
                self.at += n;
                Ok(n)
            }
        }
        let mut conn = Generated {
            next: 0,
            frame: Vec::new(),
            at: 0,
            turn: 0,
            scalar: StripeDigest::new(),
        };
        let mut fold = StripeFold::new();
        assert_eq!(fold.receive(&mut conn, || false).unwrap(), End::Eod);
        assert_eq!(fold.digest, conn.scalar);
        assert_eq!(fold.bytes, SIZE);
        let want: Vec<_> = (0..SIZE)
            .step_by(BLOCK)
            .map(|o| (o, o + BLOCK as u64))
            .collect();
        assert_eq!(fold.ranges, want);
    }

    /// How a generated stream ends; an EOD or EOF frame carries a payload
    /// of `SIZES[i]` bytes.
    #[derive(Debug, Clone, Copy)]
    enum Tail {
        Eod(usize),
        Eof(usize),
        Close,
        Cut(usize),
    }

    proptest! {
        /// The staged, lane-parallel fold equals the decoder's scalar fold
        /// (digest, bytes, ranges and how the stream ended) for any frame
        /// sizes, offsets and read sizes, with the stream ended by EOD or
        /// EOF in mid-buffer, by a close, or cut inside its last frame.
        #[test]
        fn staged_fold_equals_scalar_fold(
            frames in prop::collection::vec(
                // Indices into SIZES: small frames most often.
                (prop_oneof![0usize..4, 0usize..4, 4usize..7, Just(7usize)], 0u64..1 << 40),
                0..8,
            ),
            tail in prop_oneof![
                prop_oneof![0usize..4, 0usize..8].prop_map(Tail::Eod),
                prop_oneof![0usize..4, 0usize..8].prop_map(Tail::Eof),
                Just(Tail::Close),
                any::<usize>().prop_map(Tail::Cut),
            ],
            sizes in prop::collection::vec(
                prop_oneof![
                    1usize..=64,
                    1usize..=70_000,
                    STAGING_BYTES - 64..=STAGING_BYTES + 64,
                    Just(usize::MAX),
                ],
                1..4,
            ),
        ) {
            let mut wire = Vec::new();
            // At most one frame larger than the buffer keeps a debug-build
            // case short.
            let mut grown = false;
            let mut push = |wire: &mut Vec<u8>, flags, offset, size: usize| {
                let big = SIZES[size] > STAGING_BYTES;
                if !(big && grown) {
                    push_frame(wire, flags, offset, SIZES[size]);
                    grown |= big;
                }
            };
            for &(size, offset) in &frames {
                push(&mut wire, 0, offset, size);
            }
            match tail {
                Tail::Eod(size) | Tail::Eof(size) => {
                    let flags = if matches!(tail, Tail::Eod(_)) { FLAG_EOD } else { FLAG_EOF };
                    push(&mut wire, flags, 0, size);
                    push_frame(&mut wire, 0, 7, 4097);
                }
                Tail::Close => {}
                Tail::Cut(at) => {
                    if let Some(&(size, _)) = frames.last() {
                        let last = HEADER_LEN + SIZES[size].min(STAGING_BYTES + 1);
                        wire.truncate(wire.len() - 1 - at % last.min(wire.len()));
                    }
                }
            }
            prop_assert_eq!(staged_fold(&wire, &sizes), scalar_fold(&wire));
        }
    }
}
