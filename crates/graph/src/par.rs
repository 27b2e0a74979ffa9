//! Parallelism support for the reorder pipeline.
//!
//! Two things live here:
//!
//! * [`stage`] — the one place that decides how many chunks a pipeline
//!   stage (CSR build, transpose, [`crate::Permutation::apply_graph`],
//!   the degree sort, VEBO's scatters, the text parsers) splits into.
//!   Each stage has a single chunked body whose output does not depend
//!   on the chunk count; the input size and the rayon thread count pick
//!   that count, and below [`AUTO_PAR_THRESHOLD`] elements it is one.
//! * [`SharedSlice`] — the unsafe scatter primitive the parallel paths
//!   share: a `Sync` view of a mutable slice that threads write through at
//!   provably disjoint indices (counting-sort slots, permutation targets,
//!   partition segments). Every parallel algorithm in the workspace that
//!   needs "scatter to disjoint positions" goes through this one audited
//!   type instead of hand-rolling raw pointers.

use std::cell::UnsafeCell;
use std::marker::PhantomData;

/// Stages over fewer elements than this run as one chunk: thread startup
/// costs tens of microseconds, which dominates counting sorts of this
/// size.
pub const AUTO_PAR_THRESHOLD: usize = 1 << 15;

/// Runs a stage over `len` elements. Below [`AUTO_PAR_THRESHOLD`] it
/// runs inside a one-thread pool, so every rayon call in it runs inline
/// as a single chunk; at or above it, the stage spreads over the
/// current pool.
pub fn stage<R>(len: usize, f: impl FnOnce() -> R) -> R {
    if len >= AUTO_PAR_THRESHOLD || rayon::current_num_threads() == 1 {
        return f();
    }
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-thread pool always builds")
        .install(f)
}

/// A `Sync` view over a mutable slice for disjoint parallel scatters.
///
/// Construction borrows the slice mutably, so no other access can exist
/// while the view is alive; the *caller* guarantees that concurrent
/// [`SharedSlice::write`] / [`SharedSlice::slice_mut`] calls touch
/// disjoint index ranges.
pub struct SharedSlice<'a, T> {
    data: *const UnsafeCell<T>,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: the only operations are unsafe writes/borrows whose disjointness
// the caller guarantees; the view itself carries no thread-local state.
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}
unsafe impl<T: Send> Send for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wraps `slice` for the duration of a parallel scatter.
    pub fn new(slice: &'a mut [T]) -> SharedSlice<'a, T> {
        SharedSlice {
            len: slice.len(),
            data: slice.as_mut_ptr() as *const UnsafeCell<T>,
            _marker: PhantomData,
        }
    }

    /// Length of the underlying slice.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the underlying slice is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes `value` at `i`.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds, and no other thread may read or write index
    /// `i` while this scatter is in flight.
    #[inline]
    pub unsafe fn write(&self, i: usize, value: T) {
        debug_assert!(i < self.len);
        // SAFETY: in bounds per the contract; exclusivity per the contract.
        unsafe { *(*self.data.add(i)).get() = value }
    }

    /// Reborrows `start..end` mutably.
    ///
    /// # Safety
    ///
    /// The range must be in bounds and disjoint from every range any other
    /// thread borrows or writes while this scatter is in flight.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, start: usize, end: usize) -> &mut [T] {
        debug_assert!(start <= end && end <= self.len);
        // SAFETY: in bounds and exclusive per the contract.
        unsafe { std::slice::from_raw_parts_mut((*self.data.add(start)).get(), end - start) }
    }
}

/// Splits `0..num_items` into at most `max_chunks` contiguous ranges of
/// near-equal *weight*, where item `i`'s cumulative weight is
/// `cumulative[i + 1]` (a prefix-sum array like CSR offsets). Used to hand
/// each thread an equal share of edges rather than an equal share of
/// vertices, which matters on power-law degree distributions.
pub fn weighted_ranges(cumulative: &[usize], max_chunks: usize) -> Vec<std::ops::Range<usize>> {
    let num_items = cumulative.len().saturating_sub(1);
    let total = *cumulative.last().unwrap_or(&0);
    let chunks = max_chunks.max(1).min(num_items.max(1));
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0usize;
    for c in 1..=chunks {
        if start >= num_items {
            break;
        }
        let target = total * c / chunks;
        // First boundary with cumulative weight >= target, but always make
        // progress by at least one item.
        let mut end = cumulative.partition_point(|&w| w < target).max(start + 1);
        if c == chunks {
            end = num_items;
        }
        let end = end.min(num_items);
        out.push(start..end);
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn stage_runs_small_inputs_as_one_chunk() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        pool.install(|| {
            assert_eq!(stage(AUTO_PAR_THRESHOLD - 1, rayon::current_num_threads), 1);
            assert_eq!(stage(AUTO_PAR_THRESHOLD, rayon::current_num_threads), 4);
        });
    }

    #[test]
    fn shared_slice_disjoint_parallel_writes() {
        let mut v = vec![0u64; 100_000];
        let shared = SharedSlice::new(&mut v);
        (0..100_000usize).into_par_iter().for_each(|i| {
            // SAFETY: each index is written by exactly one iteration.
            unsafe { shared.write(i, i as u64 * 3) };
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i as u64 * 3);
        }
    }

    #[test]
    fn shared_slice_disjoint_subslices() {
        let mut v = vec![0u32; 1000];
        let shared = SharedSlice::new(&mut v);
        (0..10usize).into_par_iter().for_each(|c| {
            // SAFETY: ranges [100c, 100c+100) are pairwise disjoint.
            let chunk = unsafe { shared.slice_mut(c * 100, (c + 1) * 100) };
            chunk.fill(c as u32);
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x as usize, i / 100);
        }
    }

    #[test]
    fn weighted_ranges_cover_and_balance() {
        // Skewed weights: one heavy item then a long tail.
        let weights: Vec<usize> = std::iter::once(1000)
            .chain(std::iter::repeat_n(1, 999))
            .collect();
        let mut cumulative = vec![0usize];
        for &w in &weights {
            cumulative.push(cumulative.last().unwrap() + w);
        }
        let ranges = weighted_ranges(&cumulative, 4);
        assert!(ranges.len() <= 4 && !ranges.is_empty());
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges.last().unwrap().end, 1000);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn weighted_ranges_handles_empty() {
        assert!(weighted_ranges(&[0], 8).is_empty() || weighted_ranges(&[0], 8)[0].is_empty());
        assert!(weighted_ranges(&[], 8).is_empty());
    }
}
