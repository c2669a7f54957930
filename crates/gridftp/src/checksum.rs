//! Order-independent stripe digests.
//!
//! EBLOCK blocks arrive on any channel in any order, so the receiver needs a
//! digest it can fold block-by-block without buffering the whole transfer.
//! We hash each block's `(offset, payload)` with FNV-1a, finalize each
//! block hash with murmur3's `fmix64`, and combine the finalized hashes
//! with wrapping addition — commutative and associative, so
//! any arrival order (and any chunking *at the same block boundaries*)
//! yields the same digest. This is an integrity check against reassembly
//! bugs, not a cryptographic MAC, and is documented as such.
//!
//! Every fold of many blocks goes through one kernel, `fnv1a_lanes`,
//! which hashes `LANES` blocks side by side: one FNV-1a chain waits on its
//! own multiply latency, while independent chains keep the multiplier busy.
//! It serves the expected digest of a generated payload
//! (`StripeDigest::of_generated`) and the receiver's in-place fold of
//! staged frames (both STOR and RETR receive through `recv::StripeFold`).
//! The expected digest splits its groups of blocks into contiguous ranges,
//! one per core, each thread getting at least 8 MiB of blocks, and adds up
//! the per-thread sums; smaller digests stay on the caller thread.
//! Senders fold nothing: a put checks the server's digest against the
//! expected one, and the server's `RETR` reply carries the expected digest
//! of the file it was asked to send. Folding on the sender threads between
//! writes would take CPU from a data phase that is already CPU-bound. The
//! sum does not depend on how blocks are grouped or split, so every value
//! is the scalar fold's exactly.

/// Order-independent digest of a set of `(offset, payload)` blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StripeDigest(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Blocks hashed side by side by [`fnv1a_lanes`].
pub(crate) const LANES: usize = 4;

/// The least payload [`StripeDigest::of_generated`] gives one thread: a
/// spawn costs tens of microseconds, and 8 MiB takes ~4 ms to fold.
const MIN_THREAD_BYTES: u64 = 8 << 20;

/// FNV-1a of one block, fed in pieces: seeded with the block offset, then
/// the payload bytes in order. The one definition of a block hash:
/// [`fnv1a_lanes`] must agree with it.
#[derive(Debug, Clone, Copy)]
struct BlockHash(u64);

impl BlockHash {
    /// The hash of the block at `offset` before any payload byte.
    fn new(offset: u64) -> Self {
        let mut h = BlockHash(FNV_OFFSET);
        h.update(&offset.to_le_bytes());
        h
    }

    /// Continue the hash over the next payload bytes.
    fn update(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }
}

/// murmur3's 64-bit finalizer, which spreads every bit of a block hash over
/// the whole word. Without it, a fault that changes every block the same way
/// (one byte flipped in each) moves the raw FNV-1a values by amounts that
/// can cancel in the sum, and the digest misses the fault.
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^ (k >> 33)
}

/// Continue [`LANES`] block hashes over one byte slice each. The common
/// length is hashed side by side; what one lane has beyond it finishes on
/// that lane alone.
fn fnv1a_lanes(h: &mut [BlockHash; LANES], data: [&[u8]; LANES]) {
    let n = data.iter().map(|d| d.len()).min().unwrap_or(0);
    // Zipped slice iterators carry no bounds checks; the pattern fails to
    // compile if LANES changes.
    let [a, b, c, d] = data.map(|d| &d[..n]);
    let mut lanes = h.map(|h| h.0);
    for (((&a, &b), &c), &d) in a.iter().zip(b).zip(c).zip(d) {
        for (h, byte) in lanes.iter_mut().zip([a, b, c, d]) {
            *h = (*h ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
    }
    *h = lanes.map(BlockHash);
    for (h, d) in h.iter_mut().zip(data) {
        h.update(&d[n..]);
    }
}

impl StripeDigest {
    /// The digest of an empty transfer.
    pub fn new() -> Self {
        StripeDigest(0)
    }

    /// Fold one block into the digest.
    pub fn add_block(&mut self, offset: u64, payload: &[u8]) {
        let mut h = BlockHash::new(offset);
        h.update(payload);
        self.add_hash(h);
    }

    /// Fold one finished block hash into the digest, through [`fmix64`]:
    /// the one point where block hashes enter the sum.
    fn add_hash(&mut self, h: BlockHash) {
        self.0 = self.0.wrapping_add(fmix64(h.0));
    }

    /// Fold [`LANES`] `(offset, payload)` blocks, hashed side by side.
    pub(crate) fn add_lanes(&mut self, blocks: [(u64, &[u8]); LANES]) {
        let mut h = blocks.map(|(offset, _)| BlockHash::new(offset));
        fnv1a_lanes(&mut h, blocks.map(|(_, payload)| payload));
        for h in h {
            self.add_hash(h);
        }
    }

    /// Combine with another partial digest (e.g. per-channel accumulators).
    pub fn merge(&mut self, other: StripeDigest) {
        self.0 = self.0.wrapping_add(other.0);
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// Digest of a whole buffer split at `block` boundaries starting from
    /// offset 0 — what a sender computes up front to compare with the
    /// receiver's fold.
    pub fn of_buffer(data: &[u8], block: usize) -> StripeDigest {
        assert!(block > 0, "block size must be positive");
        let mut d = StripeDigest::new();
        let mut off = 0usize;
        while off < data.len() {
            let end = (off + block).min(data.len());
            d.add_block(off as u64, &data[off..end]);
            off = end;
        }
        d
    }

    /// Digest of `size` generated bytes split at `block` boundaries from
    /// offset 0, where `fill(o, buf)` writes the bytes at file offsets
    /// `o..o + buf.len()`: what [`of_buffer`](Self::of_buffer) gives over
    /// the materialized bytes, without materializing them. Whole groups of
    /// [`LANES`] full blocks are split into contiguous ranges, each folded
    /// on its own thread by [`fold_groups`](Self::fold_groups), on up to
    /// `available_parallelism()` threads and with at least
    /// [`MIN_THREAD_BYTES`] of blocks per thread, so a digest under twice
    /// that stays on the caller thread and spawns nothing. The remaining
    /// blocks and the short tail go through the scalar
    /// [`add_block`](Self::add_block).
    ///
    /// # Panics
    /// Panics if `block` is zero.
    pub(crate) fn of_generated(
        size: u64,
        block: usize,
        fill: impl Fn(u64, &mut [u8]) + Sync,
    ) -> StripeDigest {
        assert!(block > 0, "block size must be positive");
        // `available_parallelism` reads the cgroup quota on Linux, so a
        // digest too small to split does not ask.
        let threads = match size / MIN_THREAD_BYTES {
            0 | 1 => 1,
            n => {
                let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
                n.min(cores as u64) as usize
            }
        };
        Self::of_generated_on(size, block, fill, threads)
    }

    /// [`of_generated`](Self::of_generated) on exactly `threads` threads
    /// (the caller's among them), or one per group when there are fewer
    /// groups. The per-thread sums add up to the one-thread fold's value
    /// bit for bit, since the sum is a wrapping add.
    ///
    /// # Panics
    /// Panics if `block` or `threads` is zero.
    pub(crate) fn of_generated_on(
        size: u64,
        block: usize,
        fill: impl Fn(u64, &mut [u8]) + Sync,
        threads: usize,
    ) -> StripeDigest {
        assert!(block > 0, "block size must be positive");
        assert!(threads > 0, "thread count must be positive");
        let groups = size / block as u64 / LANES as u64;
        let threads = (threads as u64).min(groups).max(1);
        // Thread `t` folds groups `cut(t)..cut(t + 1)`; u128 keeps the
        // product exact for any size.
        let cut = |t: u64| (groups as u128 * t as u128 / threads as u128) as u64;
        let range = move |t: u64| cut(t)..cut(t + 1);
        let fill = &fill;
        let mut d = std::thread::scope(|s| {
            let others: Vec<_> = (1..threads)
                .map(|t| s.spawn(move || Self::fold_groups(range(t), block, fill)))
                .collect();
            let mut d = Self::fold_groups(range(0), block, fill);
            for h in others {
                d.merge(h.join().expect("a digest thread panicked"));
            }
            d
        });
        let mut off = groups * LANES as u64 * block as u64;
        let mut buf = Vec::new();
        while off < size {
            buf.resize(((size - off) as usize).min(block), 0);
            fill(off, &mut buf);
            d.add_block(off, &buf);
            off += buf.len() as u64;
        }
        d
    }

    /// Fold the groups `groups` of [`LANES`] full blocks each: group `g`
    /// holds blocks `g * LANES..(g + 1) * LANES`. Each group's blocks are
    /// hashed side by side ([`fnv1a_lanes`]), their bytes generated a
    /// short chunk at a time into a stack buffer, which keeps the generator
    /// vectorized and out of the multiply chains.
    fn fold_groups(
        groups: std::ops::Range<u64>,
        block: usize,
        fill: &impl Fn(u64, &mut [u8]),
    ) -> StripeDigest {
        let mut d = StripeDigest::new();
        const CHUNK: usize = 1024;
        let mut chunks = [[0u8; CHUNK]; LANES];
        for g in groups {
            let first = g * LANES as u64;
            let offsets: [u64; LANES] = std::array::from_fn(|k| (first + k as u64) * block as u64);
            let mut h = offsets.map(BlockHash::new);
            let mut done = 0;
            while done < block {
                let n = CHUNK.min(block - done);
                for (chunk, o) in chunks.iter_mut().zip(offsets) {
                    fill(o.wrapping_add(done as u64), &mut chunk[..n]);
                }
                fnv1a_lanes(&mut h, chunks.each_ref().map(|c| &c[..n]));
                done += n;
            }
            for h in h {
                d.add_hash(h);
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_independent() {
        let mut a = StripeDigest::new();
        a.add_block(0, b"hello");
        a.add_block(5, b"world");
        let mut b = StripeDigest::new();
        b.add_block(5, b"world");
        b.add_block(0, b"hello");
        assert_eq!(a, b);
    }

    #[test]
    fn sensitive_to_content_and_offset() {
        let mut a = StripeDigest::new();
        a.add_block(0, b"hello");
        let mut b = StripeDigest::new();
        b.add_block(0, b"hellp");
        assert_ne!(a, b);
        let mut c = StripeDigest::new();
        c.add_block(1, b"hello");
        assert_ne!(a, c);
    }

    #[test]
    fn merge_equals_sequential() {
        let mut whole = StripeDigest::new();
        whole.add_block(0, b"aa");
        whole.add_block(2, b"bb");
        whole.add_block(4, b"cc");
        let mut left = StripeDigest::new();
        left.add_block(0, b"aa");
        let mut right = StripeDigest::new();
        right.add_block(2, b"bb");
        right.add_block(4, b"cc");
        left.merge(right);
        assert_eq!(left, whole);
    }

    #[test]
    fn of_buffer_matches_manual_fold() {
        let data: Vec<u8> = (0..=255u8).collect();
        let auto = StripeDigest::of_buffer(&data, 100);
        let mut manual = StripeDigest::new();
        manual.add_block(0, &data[0..100]);
        manual.add_block(100, &data[100..200]);
        manual.add_block(200, &data[200..256]);
        assert_eq!(auto, manual);
    }

    #[test]
    fn empty_buffer_digest_is_zero() {
        assert_eq!(StripeDigest::of_buffer(&[], 64).value(), 0);
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_rejected() {
        StripeDigest::of_buffer(b"x", 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn any_permutation_same_digest(
            blocks in prop::collection::vec((0u64..1_000_000, prop::collection::vec(any::<u8>(), 0..64)), 1..16),
            seed in any::<u64>(),
        ) {
            let mut a = StripeDigest::new();
            for (off, data) in &blocks {
                a.add_block(*off, data);
            }
            // Deterministic shuffle from the seed.
            let mut shuffled = blocks.clone();
            let mut state = seed | 1;
            for i in (1..shuffled.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                shuffled.swap(i, j);
            }
            let mut b = StripeDigest::new();
            for (off, data) in &shuffled {
                b.add_block(*off, data);
            }
            prop_assert_eq!(a, b);
        }

        #[test]
        fn split_accumulators_merge_correctly(
            blocks in prop::collection::vec((0u64..100_000, prop::collection::vec(any::<u8>(), 0..32)), 0..12),
            cut in 0usize..12,
        ) {
            let cut = cut.min(blocks.len());
            let mut whole = StripeDigest::new();
            for (off, data) in &blocks {
                whole.add_block(*off, data);
            }
            let mut left = StripeDigest::new();
            for (off, data) in &blocks[..cut] {
                left.add_block(*off, data);
            }
            let mut right = StripeDigest::new();
            for (off, data) in &blocks[cut..] {
                right.add_block(*off, data);
            }
            left.merge(right);
            prop_assert_eq!(left, whole);
        }
    }
}
