//! The backing byte array of one node's local memory, shareable across
//! threads.
//!
//! During a sharded (parallel) phase, each processing element's thread
//! owns its node's caches, write buffer and DRAM timing state
//! exclusively, but *remote reads must still observe other nodes' memory
//! bytes*. [`MemArena`] makes that possible: the bytes live in
//! `AtomicU8` cells accessed with `Relaxed` ordering, so a port can hand
//! out `Arc` clones of its arena to every other shard.
//!
//! The arena is **demand-chunked**: the byte space is divided into
//! fixed-size chunks that are allocated lazily, zero-filled, on first
//! write. A fresh 16 MB arena is a table of empty [`OnceLock`] slots —
//! a few hundred bytes — so constructing a 1024-PE machine no longer
//! eagerly commits gigabytes. Reads of untouched chunks observe zeros,
//! exactly as the old eager allocation did, which keeps
//! `snapshot_region`/`fnv64` checksums bit-identical.
//!
//! Relaxed per-byte atomics compile to plain loads and stores on every
//! platform we care about; there is no synchronization cost on the hot
//! path. Determinism is *not* provided by this type — it comes from the
//! sharded phase contract (a location written by its owner during a
//! phase must not be read remotely in the same phase), enforced by
//! convention and checked by the determinism oracle tests. Chunk
//! *initialization* is thread-safe regardless: `OnceLock` guarantees a
//! single zeroed allocation wins even under racing first writes.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Bytes per lazily-allocated chunk. 64 KB: big enough that chunk-table
/// indexing is invisible next to DRAM-model costs, small enough that a
/// microbenchmark touching one page commits one chunk, not a node's
/// whole memory.
pub const CHUNK_BYTES: usize = 64 * 1024;

/// Allocates `len` zeroed bytes as an atomic slice.
///
/// The allocation is requested as a zeroed `Box<[u8]>` — which the
/// allocator satisfies from the OS's pre-zeroed pages (calloc fast
/// path) — and reinterpreted in place, rather than initializing `len`
/// atomic cells one by one.
#[allow(unsafe_code)]
fn zeroed_atomic(len: usize) -> Box<[AtomicU8]> {
    let zeroed: Box<[u8]> = vec![0u8; len].into_boxed_slice();
    let raw = Box::into_raw(zeroed);
    // SAFETY: `AtomicU8` is documented to have the same size,
    // alignment and bit validity as `u8`, so a zeroed `u8`
    // allocation is a valid `[AtomicU8]` of the same length. The
    // pointer comes from `Box::into_raw` and ownership passes
    // directly back into `Box::from_raw`, with no aliasing in
    // between.
    unsafe { Box::from_raw(raw as *mut [AtomicU8]) }
}

/// A fixed-size, zero-initialized byte array with interior mutability
/// and demand-allocated backing chunks.
#[derive(Debug)]
pub struct MemArena {
    len: usize,
    chunks: Box<[OnceLock<Box<[AtomicU8]>>]>,
}

impl MemArena {
    /// Creates an arena of `len` zeroed bytes. No chunk is allocated
    /// until first written; reads of unallocated chunks return zeros.
    pub fn new(len: usize) -> Self {
        let n = len.div_ceil(CHUNK_BYTES);
        let chunks = (0..n).map(|_| OnceLock::new()).collect();
        MemArena { len, chunks }
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes actually committed to allocated chunks — the demand-paged
    /// footprint, as opposed to [`len`](Self::len), the addressable
    /// size.
    pub fn resident_bytes(&self) -> usize {
        self.chunks
            .iter()
            .filter_map(|c| c.get())
            .map(|c| c.len())
            .sum()
    }

    /// The byte length of chunk `i` (the last chunk may be short).
    fn chunk_len(&self, i: usize) -> usize {
        CHUNK_BYTES.min(self.len - i * CHUNK_BYTES)
    }

    /// The chunk backing byte `i * CHUNK_BYTES`, allocating it (zeroed)
    /// on first use.
    fn chunk_mut(&self, i: usize) -> &[AtomicU8] {
        self.chunks[i].get_or_init(|| zeroed_atomic(self.chunk_len(i)))
    }

    /// Copies `buf.len()` bytes starting at `offset` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the span exceeds the arena.
    pub fn read(&self, offset: u64, buf: &mut [u8]) {
        let off = offset as usize;
        assert!(
            off + buf.len() <= self.len,
            "read of {}..{} exceeds arena of {} bytes",
            off,
            off + buf.len(),
            self.len
        );
        let mut pos = off;
        let mut out = buf;
        while !out.is_empty() {
            let ci = pos / CHUNK_BYTES;
            let co = pos % CHUNK_BYTES;
            let span = out.len().min(self.chunk_len(ci) - co);
            let (head, tail) = out.split_at_mut(span);
            match self.chunks[ci].get() {
                Some(chunk) => {
                    for (d, s) in head.iter_mut().zip(&chunk[co..co + span]) {
                        *d = s.load(Ordering::Relaxed);
                    }
                }
                None => head.fill(0),
            }
            out = tail;
            pos += span;
        }
    }

    /// Reads one byte.
    pub fn get(&self, offset: u64) -> u8 {
        let off = offset as usize;
        assert!(
            off < self.len,
            "byte {off} exceeds arena of {} bytes",
            self.len
        );
        match self.chunks[off / CHUNK_BYTES].get() {
            Some(chunk) => chunk[off % CHUNK_BYTES].load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Writes `bytes` starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the span exceeds the arena.
    pub fn write(&self, offset: u64, bytes: &[u8]) {
        let off = offset as usize;
        assert!(
            off + bytes.len() <= self.len,
            "write of {}..{} exceeds arena of {} bytes",
            off,
            off + bytes.len(),
            self.len
        );
        let mut pos = off;
        let mut src = bytes;
        while !src.is_empty() {
            let ci = pos / CHUNK_BYTES;
            let co = pos % CHUNK_BYTES;
            let span = src.len().min(self.chunk_len(ci) - co);
            let chunk = self.chunk_mut(ci);
            for (d, s) in chunk[co..co + span].iter().zip(src) {
                d.store(*s, Ordering::Relaxed);
            }
            src = &src[span..];
            pos += span;
        }
    }

    /// Writes one byte.
    pub fn set(&self, offset: u64, byte: u8) {
        let off = offset as usize;
        assert!(
            off < self.len,
            "byte {off} exceeds arena of {} bytes",
            self.len
        );
        self.chunk_mut(off / CHUNK_BYTES)[off % CHUNK_BYTES].store(byte, Ordering::Relaxed);
    }

    /// Writes the bytes of `bytes` selected by the low bits of `mask`
    /// (bit `i` set → byte `i` written).
    ///
    /// # Panics
    ///
    /// Panics if the span exceeds the arena.
    pub fn write_masked(&self, offset: u64, bytes: &[u8], mask: u64) {
        let off = offset as usize;
        assert!(
            off + bytes.len() <= self.len,
            "masked write of {}..{} exceeds arena of {} bytes",
            off,
            off + bytes.len(),
            self.len
        );
        // Visit only the set bits that index into `bytes`.
        let mut bits = match bytes.len() {
            n if n >= 64 => mask,
            n => mask & ((1 << n) - 1),
        };
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let pos = off + i;
            self.chunk_mut(pos / CHUNK_BYTES)[pos % CHUNK_BYTES].store(bytes[i], Ordering::Relaxed);
        }
    }

    /// A deep copy with the same contents (used by `MemPort::clone`).
    /// Only chunks the source has committed are allocated in the copy,
    /// so cloning a mostly-untouched arena stays cheap.
    pub fn deep_clone(&self) -> Self {
        let clone = MemArena::new(self.len);
        for (i, slot) in self.chunks.iter().enumerate() {
            if let Some(src) = slot.get() {
                let dst = clone.chunk_mut(i);
                for (d, s) in dst.iter().zip(src.iter()) {
                    d.store(s.load(Ordering::Relaxed), Ordering::Relaxed);
                }
            }
        }
        clone
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_arena_reads_all_zero() {
        // Pins the demand-zeroed contract: a fresh arena must be
        // indistinguishable from the old eager zeroed allocation.
        let a = MemArena::new(4096 + 3); // odd size: no alignment luck
        let mut buf = vec![0xAAu8; a.len()];
        a.read(0, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(a.get(4096 + 2), 0);
    }

    #[test]
    fn fresh_arena_commits_nothing() {
        let a = MemArena::new(16 << 20);
        assert_eq!(a.resident_bytes(), 0, "construction allocates no chunks");
        let mut buf = [0u8; 64];
        a.read(1 << 20, &mut buf);
        assert_eq!(a.resident_bytes(), 0, "reads allocate no chunks");
        a.set(1 << 20, 1);
        assert_eq!(
            a.resident_bytes(),
            CHUNK_BYTES,
            "first write commits one chunk"
        );
    }

    #[test]
    fn read_write_roundtrip() {
        let a = MemArena::new(64);
        a.write(8, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        a.read(8, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!(a.get(9), 2);
    }

    #[test]
    fn spans_crossing_chunk_boundaries_roundtrip() {
        let a = MemArena::new(3 * CHUNK_BYTES + 7);
        let off = CHUNK_BYTES as u64 - 3; // straddles chunks 0 and 1
        let data: Vec<u8> = (0..16u8).collect();
        a.write(off, &data);
        let mut buf = [0u8; 16];
        a.read(off, &mut buf);
        assert_eq!(&buf[..], &data[..]);
        // A long read over committed, uncommitted and short-tail chunks.
        let mut all = vec![0xAAu8; a.len()];
        a.read(0, &mut all);
        assert_eq!(&all[CHUNK_BYTES - 3..CHUNK_BYTES + 13], &data[..]);
        assert!(all[..CHUNK_BYTES - 3].iter().all(|&b| b == 0));
        assert!(all[CHUNK_BYTES + 13..].iter().all(|&b| b == 0));
    }

    #[test]
    fn short_tail_chunk_is_addressable() {
        let a = MemArena::new(2 * CHUNK_BYTES + 5);
        a.write(2 * CHUNK_BYTES as u64, &[9, 8, 7, 6, 5]);
        assert_eq!(a.get(2 * CHUNK_BYTES as u64 + 4), 5);
        assert_eq!(a.resident_bytes(), 5, "tail chunk is allocated short");
    }

    #[test]
    fn masked_write_touches_selected_bytes_only() {
        let a = MemArena::new(16);
        a.write(0, &[0xFF; 8]);
        a.write_masked(0, &[0u8; 8], 0b0101_0101);
        let mut buf = [0u8; 8];
        a.read(0, &mut buf);
        assert_eq!(buf, [0, 0xFF, 0, 0xFF, 0, 0xFF, 0, 0xFF]);
    }

    #[test]
    fn deep_clone_is_independent() {
        let a = MemArena::new(8);
        a.set(0, 7);
        let b = a.deep_clone();
        a.set(0, 9);
        assert_eq!(b.get(0), 7);
        assert_eq!(a.get(0), 9);
    }

    #[test]
    fn deep_clone_copies_only_committed_chunks() {
        let a = MemArena::new(4 * CHUNK_BYTES);
        a.set(3 * CHUNK_BYTES as u64, 42);
        let b = a.deep_clone();
        assert_eq!(b.resident_bytes(), CHUNK_BYTES);
        assert_eq!(b.get(3 * CHUNK_BYTES as u64), 42);
        assert_eq!(b.get(0), 0);
    }

    #[test]
    fn shared_across_threads() {
        let a = std::sync::Arc::new(MemArena::new(1024));
        std::thread::scope(|s| {
            for t in 0..4u8 {
                let a = std::sync::Arc::clone(&a);
                s.spawn(move || {
                    // Disjoint spans per thread: the sharded-phase contract.
                    a.write(t as u64 * 256, &[t + 1; 256]);
                });
            }
        });
        for t in 0..4u8 {
            assert_eq!(a.get(t as u64 * 256 + 100), t + 1);
        }
    }

    #[test]
    fn racing_first_writes_to_one_chunk_all_land() {
        // OnceLock must arbitrate racing chunk initializations.
        let a = std::sync::Arc::new(MemArena::new(CHUNK_BYTES));
        std::thread::scope(|s| {
            for t in 0..8u8 {
                let a = std::sync::Arc::clone(&a);
                s.spawn(move || {
                    a.write(t as u64 * 128, &[t + 1; 128]);
                });
            }
        });
        for t in 0..8u8 {
            assert_eq!(a.get(t as u64 * 128 + 64), t + 1);
        }
        assert_eq!(a.resident_bytes(), CHUNK_BYTES);
    }

    #[test]
    #[should_panic(expected = "exceeds arena")]
    fn out_of_bounds_write_panics() {
        let a = MemArena::new(16);
        a.write(10, &[0u8; 8]);
    }
}
