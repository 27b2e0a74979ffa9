//! Shared-state primitives for parallel graph traversal.
//!
//! All algorithm state in this workspace is stored in atomics so that
//! every traversal mode (sequential measured, sharded-parallel, push or
//! pull) is data-race free by construction — the same guarantee the
//! Cilk-based frameworks in the paper get from their runtime. On x86-64,
//! relaxed atomic loads/stores compile to plain moves, so the pull-mode
//! fast path pays nothing for this.
//!
//! The one atomic that is *not* free on x86-64 is the locked
//! read-modify-write behind [`AtomicBitset::set`]. Kernels whose task owns
//! a contiguous destination range (dense COO, dense pull, dense
//! `vertex_map`) therefore build their slice of the next frontier through
//! [`AtomicBitset::range_writer`]: bits go into task-local plain words and
//! reach the shared bitset as one `fetch_or` per non-zero word. That flush
//! stays atomic because task ranges need not be 64-aligned, so the first
//! and last word of a range are shared with the neighbouring tasks.
//! Kernels whose destinations are arbitrary (sparse push, sparse
//! partitioned, sparse `vertex_map`) keep the per-bit `set`.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// An `f64` stored in an `AtomicU64` via bit transmutation.
#[derive(Debug, Default)]
pub struct AtomicF64 {
    bits: AtomicU64,
}

impl AtomicF64 {
    /// Creates with an initial value.
    pub fn new(v: f64) -> AtomicF64 {
        AtomicF64 {
            bits: AtomicU64::new(v.to_bits()),
        }
    }

    /// Relaxed load.
    #[inline]
    pub fn load(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Relaxed store.
    #[inline]
    pub fn store(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Atomic `+= delta` via CAS loop; returns the *previous* value.
    #[inline]
    pub fn fetch_add(&self, delta: f64) -> f64 {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return f64::from_bits(cur),
                Err(now) => cur = now,
            }
        }
    }

    /// Atomic minimum; returns `true` if the stored value was lowered.
    #[inline]
    pub fn fetch_min(&self, v: f64) -> bool {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            if f64::from_bits(cur) <= v {
                return false;
            }
            match self.bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }
}

/// Allocates a slice of `AtomicF64` initialized to `v`.
pub fn atomic_f64_vec(n: usize, v: f64) -> Vec<AtomicF64> {
    (0..n).map(|_| AtomicF64::new(v)).collect()
}

/// Snapshots a slice of `AtomicF64` into plain values.
pub fn snapshot_f64(values: &[AtomicF64]) -> Vec<f64> {
    values.iter().map(|a| a.load()).collect()
}

/// A fixed-size concurrent bitset used for next-frontier construction.
#[derive(Debug)]
pub struct AtomicBitset {
    words: Vec<AtomicU64>,
    len: usize,
}

impl AtomicBitset {
    /// All-zeros bitset over `len` bits.
    pub fn new(len: usize) -> AtomicBitset {
        let words = (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        AtomicBitset { words, len }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| w.load(Ordering::Relaxed) == 0)
    }

    /// Sets bit `i`; returns `true` if it was previously clear.
    #[inline]
    pub fn set(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i & 63);
        let prev = self.words[i >> 6].fetch_or(mask, Ordering::Relaxed);
        prev & mask == 0
    }

    /// A writer for the bits of `range` that costs no locked instruction
    /// per bit: see [`RangeWriter`].
    pub fn range_writer(&self, range: Range<usize>) -> RangeWriter<'_> {
        debug_assert!(range.end <= self.len);
        let first_word = range.start >> 6;
        let words = if range.is_empty() {
            0
        } else {
            ((range.end - 1) >> 6) + 1 - first_word
        };
        RangeWriter {
            target: self,
            first_word,
            words: vec![0; words],
        }
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i >> 6].load(Ordering::Relaxed) & (1u64 << (i & 63)) != 0
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Extracts the plain word array (consumes the atomic wrapper).
    pub fn into_words(self) -> Vec<u64> {
        self.words.into_iter().map(|w| w.into_inner()).collect()
    }
}

/// Task-local plain words covering one contiguous bit range of an
/// [`AtomicBitset`]; dropping the writer ORs every non-zero word into the
/// bitset with a single `fetch_or` each (atomic, because the range's
/// boundary words may be shared with writers of the adjacent ranges).
#[derive(Debug)]
pub struct RangeWriter<'a> {
    target: &'a AtomicBitset,
    first_word: usize,
    words: Vec<u64>,
}

impl RangeWriter<'_> {
    /// Sets bit `i` of the range. Panics when `i` falls outside the words
    /// that cover the range.
    #[inline]
    pub fn set(&mut self, i: usize) {
        self.words[(i >> 6) - self.first_word] |= 1u64 << (i & 63);
    }
}

impl Drop for RangeWriter<'_> {
    fn drop(&mut self) {
        let shared = &self.target.words[self.first_word..];
        for (word, &bits) in shared.iter().zip(&self.words) {
            if bits != 0 {
                word.fetch_or(bits, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_f64_roundtrip() {
        let a = AtomicF64::new(1.5);
        assert_eq!(a.load(), 1.5);
        a.store(-2.25);
        assert_eq!(a.load(), -2.25);
    }

    #[test]
    fn fetch_add_accumulates() {
        let a = AtomicF64::new(1.0);
        assert_eq!(a.fetch_add(2.0), 1.0);
        assert_eq!(a.fetch_add(0.5), 3.0);
        assert_eq!(a.load(), 3.5);
    }

    #[test]
    fn fetch_add_is_correct_under_threads() {
        let a = AtomicF64::new(0.0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        a.fetch_add(1.0);
                    }
                });
            }
        });
        assert_eq!(a.load(), 4000.0);
    }

    #[test]
    fn fetch_min_lowers_only() {
        let a = AtomicF64::new(5.0);
        assert!(a.fetch_min(3.0));
        assert!(!a.fetch_min(4.0));
        assert_eq!(a.load(), 3.0);
    }

    #[test]
    fn bitset_set_reports_first_setter() {
        let b = AtomicBitset::new(100);
        assert!(b.set(3));
        assert!(!b.set(3));
        assert!(b.get(3));
        assert!(!b.get(4));
        assert_eq!(b.count(), 1);
    }

    #[test]
    fn bitset_boundaries() {
        let b = AtomicBitset::new(128);
        assert!(b.set(0));
        assert!(b.set(63));
        assert!(b.set(64));
        assert!(b.set(127));
        assert_eq!(b.count(), 4);
        let words = b.into_words();
        assert_eq!(words.len(), 2);
        assert_eq!(words[0], (1 << 0) | (1 << 63));
        assert_eq!(words[1], 1 | (1 << 63));
    }

    #[test]
    fn bitset_concurrent_single_winner() {
        let b = AtomicBitset::new(64);
        let winners: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8).map(|_| s.spawn(|| usize::from(b.set(7)))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            winners.iter().sum::<usize>(),
            1,
            "exactly one thread wins the set"
        );
    }

    /// Unaligned neighbouring ranges share boundary words; every bit set
    /// through either writer lands, and only those.
    #[test]
    fn range_writers_share_boundary_words() {
        let b = AtomicBitset::new(200);
        let bounds = [0usize, 1, 63, 64, 65, 130, 130, 200];
        std::thread::scope(|s| {
            for w in bounds.windows(2) {
                let b = &b;
                s.spawn(move || {
                    let mut out = b.range_writer(w[0]..w[1]);
                    for i in (w[0]..w[1]).filter(|i| i % 3 != 1) {
                        out.set(i);
                    }
                });
            }
        });
        for i in 0..200 {
            assert_eq!(b.get(i), i % 3 != 1, "bit {i}");
        }
    }

    #[test]
    #[should_panic]
    fn range_writer_rejects_bits_outside_its_words() {
        let b = AtomicBitset::new(256);
        b.range_writer(64..128).set(200);
    }

    #[test]
    fn helpers() {
        let v = atomic_f64_vec(3, 0.25);
        assert_eq!(snapshot_f64(&v), vec![0.25, 0.25, 0.25]);
    }
}
