//! EBLOCK-mode data framing.
//!
//! GridFTP extended-block mode prefixes every payload with a descriptor so
//! that blocks may be sent over any data channel and reassembled by offset:
//!
//! ```text
//! +-------+-----------------+-----------------+----------------+
//! | flags |  length (u64)   |  offset (u64)   |  payload ...   |
//! +-------+-----------------+-----------------+----------------+
//! ```
//!
//! We keep the real wire layout (1 + 8 + 8 byte header, big-endian) and the
//! EOD flag that closes a channel.

/// Header flag: end of data on this channel (for the current transfer; the
/// channel itself may be cached and reused by the next transfer).
pub const FLAG_EOD: u8 = 0x08;

/// Header flag: the sender is closing this data channel for good (no more
/// transfers will reuse it).
pub const FLAG_EOF: u8 = 0x40;

/// Size of the fixed EBLOCK header in bytes.
pub const HEADER_LEN: usize = 17;

/// Largest payload a single block may carry (sanity bound against corrupted
/// headers, 64 MiB).
pub const MAX_BLOCK_LEN: u64 = 64 * 1024 * 1024;

/// Payload size of the default block ([`crate::PutConfig::new`] and RETR).
pub(crate) const DEFAULT_BLOCK_BYTES: usize = 256 * 1024;

/// One EBLOCK frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Header flags ([`FLAG_EOD`] is the only one used here).
    pub flags: u8,
    /// Byte offset of the payload within the logical file.
    pub offset: u64,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Block {
    /// A data block.
    pub fn data(offset: u64, payload: Vec<u8>) -> Self {
        Block {
            flags: 0,
            offset,
            payload,
        }
    }

    /// An end-of-data marker (no payload).
    pub fn eod() -> Self {
        Block {
            flags: FLAG_EOD,
            offset: 0,
            payload: Vec::new(),
        }
    }

    /// An end-of-file marker: closes the channel permanently (no payload).
    pub fn eof() -> Self {
        Block {
            flags: FLAG_EOF,
            offset: 0,
            payload: Vec::new(),
        }
    }

    /// True when this block ends the current transfer on this channel.
    pub fn is_eod(&self) -> bool {
        self.flags & FLAG_EOD != 0
    }

    /// True when this block closes the channel permanently.
    pub fn is_eof(&self) -> bool {
        self.flags & FLAG_EOF != 0
    }

    /// Encode into a fresh buffer (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER_LEN + self.payload.len());
        buf.extend_from_slice(&header(self.flags, self.payload.len() as u64, self.offset));
        buf.extend_from_slice(&self.payload);
        buf
    }
}

/// The fixed EBLOCK header of a frame: flags, then the payload length and
/// the offset, both big-endian. The one writer of the wire layout, shared by
/// [`Block::encode`] and the sender's in-place frames.
pub(crate) fn header(flags: u8, len: u64, offset: u64) -> [u8; HEADER_LEN] {
    let mut h = [0; HEADER_LEN];
    h[0] = flags;
    h[1..9].copy_from_slice(&len.to_be_bytes());
    h[9..].copy_from_slice(&offset.to_be_bytes());
    h
}

/// Read the EBLOCK header at the front of `bytes`: `(flags, len, offset)`,
/// or `None` while fewer than [`HEADER_LEN`] bytes are there. The reading
/// twin of [`header`], shared by [`BlockDecoder`] and the receive fold.
pub(crate) fn parse_header(bytes: &[u8]) -> Option<(u8, u64, u64)> {
    let h: &[u8; HEADER_LEN] = bytes.get(..HEADER_LEN)?.try_into().ok()?;
    let be = |i: usize| u64::from_be_bytes(h[i..i + 8].try_into().expect("8-byte field"));
    Some((h[0], be(1), be(9)))
}

/// Error from the streaming decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Declared block length exceeds [`MAX_BLOCK_LEN`].
    OversizedBlock(u64),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::OversizedBlock(n) => write!(f, "block length {n} exceeds maximum"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Incremental decoder: feed arbitrary byte chunks, pop whole blocks.
///
/// Each payload is copied once, from the buffer into its block. Popping a
/// block only moves a read cursor; the consumed front of the buffer is
/// dropped on a later [`feed`](Self::feed), and only once it is at least as
/// long as what stays, so the bytes moved stay linear in the bytes fed.
#[derive(Debug, Default)]
pub struct BlockDecoder {
    buf: Vec<u8>,
    /// Bytes before `read` are consumed.
    read: usize,
}

impl BlockDecoder {
    /// A fresh decoder.
    pub fn new() -> Self {
        BlockDecoder::default()
    }

    /// Append raw bytes from the wire.
    pub fn feed(&mut self, chunk: &[u8]) {
        if self.read > 0 && self.read >= self.pending() {
            self.buf.drain(..self.read);
            self.read = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes buffered but not yet decodable into a whole block.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.read
    }

    /// Pop the next complete block, if any.
    pub fn next_block(&mut self) -> Result<Option<Block>, DecodeError> {
        let Some((flags, len, offset)) = parse_header(&self.buf[self.read..]) else {
            return Ok(None);
        };
        if len > MAX_BLOCK_LEN {
            return Err(DecodeError::OversizedBlock(len));
        }
        let start = self.read + HEADER_LEN;
        let end = start + len as usize;
        if self.buf.len() < end {
            return Ok(None);
        }
        let payload = self.buf[start..end].to_vec();
        self.read = end;
        Ok(Some(Block {
            flags,
            offset,
            payload,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_single_block() {
        let b = Block::data(4096, b"payload".to_vec());
        let wire = b.encode();
        assert_eq!(wire.len(), HEADER_LEN + 7);
        let mut dec = BlockDecoder::new();
        dec.feed(&wire);
        let out = dec.next_block().unwrap().unwrap();
        assert_eq!(out, b);
        assert!(dec.next_block().unwrap().is_none());
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn eod_round_trip() {
        let wire = Block::eod().encode();
        let mut dec = BlockDecoder::new();
        dec.feed(&wire);
        let out = dec.next_block().unwrap().unwrap();
        assert!(out.is_eod());
        assert!(out.payload.is_empty());
    }

    #[test]
    fn byte_at_a_time_feeding() {
        let blocks = vec![
            Block::data(0, b"aaaa".to_vec()),
            Block::data(4, b"bb".to_vec()),
            Block::eod(),
        ];
        let mut wire = Vec::new();
        for b in &blocks {
            wire.extend_from_slice(&b.encode());
        }
        let mut dec = BlockDecoder::new();
        let mut out = Vec::new();
        for &byte in &wire {
            dec.feed(&[byte]);
            while let Some(b) = dec.next_block().unwrap() {
                out.push(b);
            }
        }
        assert_eq!(out, blocks);
    }

    #[test]
    fn oversized_block_rejected() {
        let mut hdr = vec![0u8];
        hdr.extend_from_slice(&(MAX_BLOCK_LEN + 1).to_be_bytes());
        hdr.extend_from_slice(&0u64.to_be_bytes());
        let mut dec = BlockDecoder::new();
        dec.feed(&hdr);
        assert_eq!(
            dec.next_block(),
            Err(DecodeError::OversizedBlock(MAX_BLOCK_LEN + 1))
        );
    }

    #[test]
    fn parse_header_reads_what_header_writes() {
        let h = header(FLAG_EOD | FLAG_EOF, u64::MAX - 1, 0x0102_0304_0506_0708);
        assert_eq!(
            parse_header(&h),
            Some((FLAG_EOD | FLAG_EOF, u64::MAX - 1, 0x0102_0304_0506_0708))
        );
        assert_eq!(parse_header(&h[..HEADER_LEN - 1]), None);
    }

    /// Hundreds of frames fed at once pop in order, each payload intact,
    /// and leave nothing behind.
    #[test]
    fn many_frames_in_one_feed_all_pop() {
        let blocks: Vec<Block> = (0..300u64)
            .map(|i| Block::data(i * 1000, vec![i as u8; (i as usize * 37) % 700]))
            .collect();
        let wire: Vec<u8> = blocks.iter().flat_map(Block::encode).collect();
        let mut dec = BlockDecoder::new();
        dec.feed(&wire);
        let mut out = Vec::new();
        while let Some(b) = dec.next_block().unwrap() {
            out.push(b);
        }
        assert_eq!(out, blocks);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn partial_header_waits() {
        let mut dec = BlockDecoder::new();
        dec.feed(&[0, 0, 0]);
        assert!(dec.next_block().unwrap().is_none());
        assert_eq!(dec.pending(), 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn any_chunking_decodes_identically(
            blocks in prop::collection::vec(
                (any::<u64>(), prop::collection::vec(any::<u8>(), 0..256)),
                1..10
            ),
            chunk_size in 1usize..64,
        ) {
            let blocks: Vec<Block> = blocks
                .into_iter()
                .map(|(off, data)| Block::data(off, data))
                .collect();
            let mut wire = Vec::new();
            for b in &blocks {
                wire.extend_from_slice(&b.encode());
            }
            let mut dec = BlockDecoder::new();
            let mut out = Vec::new();
            for chunk in wire.chunks(chunk_size) {
                dec.feed(chunk);
                while let Some(b) = dec.next_block().unwrap() {
                    out.push(b);
                }
            }
            prop_assert_eq!(out, blocks);
            prop_assert_eq!(dec.pending(), 0);
        }
    }
}
