//! Compressed sparse row/column adjacency storage.
//!
//! [`Adjacency`] is direction-agnostic: a `Graph` uses one instance indexed
//! by source (CSR, out-edges) and one indexed by destination (CSC,
//! in-edges). Offsets are `usize` (one entry per vertex plus a sentinel) and
//! neighbor ids are [`VertexId`] to keep the hot arrays compact.
//!
//! Each of the three flat arrays sits behind a
//! [`GraphStorage`]: built graphs own their
//! `Vec`s, graphs loaded through
//! [`mmap_binary_graph`](crate::io::binary::mmap_binary_graph) borrow the
//! mapped file zero-copy. All accessors return plain slices either way, so
//! consumers never branch on the backing.
//!
//! The builder and the transpose are one counting sort each, chunked by
//! edge range; the chunk count ([`crate::par::stage`]) never changes the
//! arrays they produce.

use crate::compress::{CompressedCsr, CompressionStats};
use crate::par::{self, weighted_ranges, SharedSlice};
use crate::storage::{GraphStorage, StorageKind};
use crate::types::{GraphError, VertexId};
use rayon::prelude::*;

/// A compressed adjacency structure: `neighbors(v)` is the slice
/// `targets[offsets[v]..offsets[v+1]]`.
///
/// Neighbor lists are sorted ascending by construction, which makes
/// membership tests `O(log d)` and gives deterministic iteration order.
///
/// An optional [`CompressedCsr`] companion (attached by
/// [`Adjacency::with_compressed`] or the `.vgr` v3 loader) carries the
/// same neighbor lists delta/varint packed; the plain arrays stay
/// authoritative and every accessor keeps working, while the engine's
/// hot loops decode the companion to shrink their working set.
///
/// Equality is content equality on the plain arrays: an owned, a mapped,
/// and a compressed adjacency holding the same lists all compare equal
/// (the companion is derived data, so it does not participate).
#[derive(Clone, Debug)]
pub struct Adjacency {
    offsets: GraphStorage<usize>,
    targets: GraphStorage<VertexId>,
    weights: Option<GraphStorage<f32>>,
    compressed: Option<CompressedCsr>,
}

impl PartialEq for Adjacency {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets
            && self.targets == other.targets
            && self.weights == other.weights
    }
}

impl Adjacency {
    /// Builds an adjacency structure from `(index_vertex, neighbor)` pairs
    /// using a counting sort: `O(n + m)` time, no comparison sort involved.
    ///
    /// Within each vertex the neighbor list is sorted ascending.
    pub fn from_pairs(num_vertices: usize, pairs: &[(VertexId, VertexId)]) -> Self {
        Self::from_pairs_weighted(num_vertices, pairs, None)
    }

    /// As [`Adjacency::from_pairs`] but carrying a per-edge weight parallel
    /// to `pairs`.
    pub fn from_pairs_weighted(
        num_vertices: usize,
        pairs: &[(VertexId, VertexId)],
        weights: Option<&[f32]>,
    ) -> Self {
        if let Some(w) = weights {
            assert_eq!(w.len(), pairs.len(), "one weight per edge required");
        }
        par::stage(pairs.len(), || Self::build(num_vertices, pairs, weights))
    }

    /// Counting sort over *edge-range chunks*, one per rayon thread: each
    /// chunk scans only its `m / chunks` slice of the pair list, once to
    /// build a local histogram and once to scatter, so total work stays
    /// `O(n + m)` regardless of the chunk count. The histograms are
    /// converted in place into per-chunk scatter bases by one
    /// `O(chunks * n)` prefix pass; chunk `c`'s base for vertex `v`
    /// accounts for all of `v`'s pairs in chunks `< c`, which keeps the
    /// scatter stable (global input order within each vertex) and every
    /// write slot disjoint, so the output is the same for every chunk
    /// count. Memory overhead is the `chunks * n` base table — on the
    /// paper's graphs (edge factor >= 10) that is a fraction of the edge
    /// arrays themselves.
    fn build(num_vertices: usize, pairs: &[(VertexId, VertexId)], weights: Option<&[f32]>) -> Self {
        let n = num_vertices;
        let m = pairs.len();
        let chunks = rayon::current_num_threads().clamp(1, m.max(1));
        let per = m.div_ceil(chunks);
        let chunk_range = |c: usize| ((c * per).min(m))..((c + 1) * per).min(m);

        // Phase 1: per-chunk histograms, each thread scanning its own
        // slice of `pairs` only.
        let mut bases = vec![0usize; chunks * n];
        bases
            .par_chunks_mut(n.max(1))
            .enumerate()
            .for_each(|(c, window)| {
                for &(v, _) in &pairs[chunk_range(c)] {
                    window[v as usize] += 1;
                }
            });

        // Phase 2: one prefix pass turns histograms into offsets and
        // per-chunk scatter bases in place.
        let offsets = prefix_bases(&mut bases, n, chunks);
        debug_assert_eq!(offsets[n], m);

        // Phase 3: stable scatter, each thread re-scanning only its chunk.
        let mut targets = vec![0 as VertexId; m];
        let mut out_weights = weights.map(|_| vec![0f32; m]);
        {
            let tshared = SharedSlice::new(&mut targets);
            let wshared = out_weights
                .as_mut()
                .map(|w| SharedSlice::new(w.as_mut_slice()));
            bases
                .par_chunks_mut(n.max(1))
                .enumerate()
                .for_each(|(c, window)| {
                    let range = chunk_range(c);
                    let base_e = range.start;
                    for (k, &(v, t)) in pairs[range].iter().enumerate() {
                        let slot = window[v as usize];
                        window[v as usize] = slot + 1;
                        // SAFETY: chunk `c`'s slots for vertex `v` occupy
                        // [bases[c][v], bases[c][v] + count_c(v)), disjoint
                        // across chunks and vertices by construction.
                        unsafe { tshared.write(slot, t) };
                        if let (Some(ws), Some(w)) = (&wshared, weights) {
                            // SAFETY: same disjoint slot.
                            unsafe { ws.write(slot, w[base_e + k]) };
                        }
                    }
                });
        }
        sort_each_list(&offsets, &mut targets, out_weights.as_deref_mut());
        Adjacency::from_owned(offsets, targets, out_weights)
    }

    /// Wraps already-built owned arrays without re-validating them.
    fn from_owned(offsets: Vec<usize>, targets: Vec<VertexId>, weights: Option<Vec<f32>>) -> Self {
        Adjacency {
            offsets: offsets.into(),
            targets: targets.into(),
            weights: weights.map(Into::into),
            compressed: None,
        }
    }

    /// Builds from parts the caller already proved consistent (private to
    /// the crate: used by the permutation fast path, which constructs
    /// valid CSR arrays directly).
    pub(crate) fn from_parts_unchecked(
        offsets: Vec<usize>,
        targets: Vec<VertexId>,
        weights: Option<Vec<f32>>,
    ) -> Self {
        debug_assert_eq!(*offsets.last().unwrap(), targets.len());
        Adjacency::from_owned(offsets, targets, weights)
    }

    /// Builds directly from raw CSR arrays. Validates the invariants.
    pub fn from_raw(
        offsets: Vec<usize>,
        targets: Vec<VertexId>,
        weights: Option<Vec<f32>>,
    ) -> Result<Self, GraphError> {
        Self::from_storage(offsets.into(), targets.into(), weights.map(Into::into))
    }

    /// Builds from CSR sections in any [`GraphStorage`] backing (the
    /// mmap loader hands in mapped sections here), validating the same
    /// invariants as [`Adjacency::from_raw`]: monotonic offsets
    /// terminating at the edge count, every target in range, one weight
    /// per edge.
    pub fn from_storage(
        offsets: GraphStorage<usize>,
        targets: GraphStorage<VertexId>,
        weights: Option<GraphStorage<f32>>,
    ) -> Result<Self, GraphError> {
        {
            let off = offsets.as_slice();
            let tgt = targets.as_slice();
            if off.is_empty() {
                return Err(GraphError::OffsetsEdgeMismatch {
                    last_offset: 0,
                    num_edges: tgt.len(),
                });
            }
            for i in 1..off.len() {
                if off[i] < off[i - 1] {
                    return Err(GraphError::NonMonotonicOffsets { index: i });
                }
            }
            if *off.last().unwrap() != tgt.len() {
                return Err(GraphError::OffsetsEdgeMismatch {
                    last_offset: *off.last().unwrap(),
                    num_edges: tgt.len(),
                });
            }
            let n = off.len() - 1;
            if let Some(&bad) = tgt.iter().find(|&&t| (t as usize) >= n) {
                return Err(GraphError::VertexOutOfRange {
                    vertex: bad as u64,
                    num_vertices: n,
                });
            }
            if let Some(w) = &weights {
                assert_eq!(
                    w.as_slice().len(),
                    tgt.len(),
                    "one weight per edge required"
                );
            }
        }
        Ok(Adjacency {
            offsets,
            targets,
            weights,
            compressed: None,
        })
    }

    /// The backing kind: [`StorageKind::Compressed`] when a compressed
    /// companion is attached, [`StorageKind::Mapped`] when any plain
    /// section is a zero-copy view of a mapped file.
    pub fn storage_kind(&self) -> StorageKind {
        if self.compressed.is_some() {
            return StorageKind::Compressed;
        }
        let mapped = self.offsets.kind() == StorageKind::Mapped
            || self.targets.kind() == StorageKind::Mapped
            || self
                .weights
                .as_ref()
                .is_some_and(|w| w.kind() == StorageKind::Mapped);
        if mapped {
            StorageKind::Mapped
        } else {
            StorageKind::Owned
        }
    }

    /// The compressed companion representation, when one is attached.
    #[inline]
    pub fn compressed(&self) -> Option<&CompressedCsr> {
        self.compressed.as_ref()
    }

    /// Attaches a delta/varint compressed companion computed from the
    /// plain arrays (a no-op when one is already attached). The plain
    /// arrays stay authoritative; see [`CompressedCsr`].
    pub fn with_compressed(mut self) -> Adjacency {
        if self.compressed.is_none() {
            self.compressed = Some(CompressedCsr::from_csr(
                self.offsets.as_slice(),
                self.targets.as_slice(),
            ));
        }
        self
    }

    /// Attaches an already-built companion (the `.vgr` v3 loader, whose
    /// sections may be zero-copy views of the mapped file). The caller
    /// must have validated that `compressed` decodes to exactly this
    /// adjacency's target lists.
    pub fn with_compressed_storage(mut self, compressed: CompressedCsr) -> Adjacency {
        self.compressed = Some(compressed);
        self
    }

    /// Compressed-vs-raw byte accounting, when a companion is attached.
    pub fn compression_stats(&self) -> Option<CompressionStats> {
        self.compressed.as_ref().map(|c| c.stats(self.num_edges()))
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored arcs.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Degree of `v` in this direction.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Neighbor slice of `v` (sorted ascending).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Start of `v`'s neighbor range in the flat `targets` array.
    #[inline]
    pub fn edge_start(&self, v: VertexId) -> usize {
        self.offsets[v as usize]
    }

    /// Weight slice of `v`, parallel to [`Adjacency::neighbors`].
    /// Panics if the adjacency is unweighted.
    #[inline]
    pub fn weights_of(&self, v: VertexId) -> &[f32] {
        let w = self.weights.as_ref().expect("adjacency has no weights");
        &w[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Whether per-edge weights are present.
    #[inline]
    pub fn has_weights(&self) -> bool {
        self.weights.is_some()
    }

    /// The raw offsets array (length `n + 1`).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        self.offsets.as_slice()
    }

    /// The flat neighbor array (length `m`).
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        self.targets.as_slice()
    }

    /// The flat weight array, if present.
    #[inline]
    pub fn raw_weights(&self) -> Option<&[f32]> {
        self.weights.as_deref()
    }

    /// `true` if `v` has an arc to `t` (binary search; lists are sorted).
    pub fn has_edge(&self, v: VertexId, t: VertexId) -> bool {
        self.neighbors(v).binary_search(&t).is_ok()
    }

    /// Returns the transposed adjacency (in-edges become out-edges), again
    /// via counting sort in `O(n + m)`.
    ///
    /// The edge-chunked structure is the builder's. Chunks cover
    /// contiguous ranges of the flat CSR edge array, so each chunk's arcs are in ascending
    /// source order and the stable scatter leaves every transposed list
    /// sorted by source, for every chunk count.
    pub fn transpose(&self) -> Adjacency {
        par::stage(self.num_edges(), || self.transpose_chunked())
    }

    fn transpose_chunked(&self) -> Adjacency {
        let n = self.num_vertices();
        let m = self.num_edges();
        let (src_offsets, src_targets) = (self.offsets(), self.targets());
        let src_weights = self.raw_weights();
        let chunks = rayon::current_num_threads().clamp(1, m.max(1));
        let per = m.div_ceil(chunks);
        let chunk_range = |c: usize| ((c * per).min(m))..((c + 1) * per).min(m);

        // Phase 1: per-chunk in-degree histograms over edge ranges.
        let mut bases = vec![0usize; chunks * n];
        bases
            .par_chunks_mut(n.max(1))
            .enumerate()
            .for_each(|(c, window)| {
                for &t in &src_targets[chunk_range(c)] {
                    window[t as usize] += 1;
                }
            });

        // Phase 2: histograms -> offsets + per-chunk bases, in place.
        let offsets = prefix_bases(&mut bases, n, chunks);
        debug_assert_eq!(offsets[n], m);

        // Phase 3: stable scatter; each chunk walks its edge range one
        // source's slice at a time.
        let mut targets = vec![0 as VertexId; m];
        let mut weights = src_weights.map(|_| vec![0f32; m]);
        {
            let tshared = SharedSlice::new(&mut targets);
            let wshared = weights.as_mut().map(|w| SharedSlice::new(w.as_mut_slice()));
            bases
                .par_chunks_mut(n.max(1))
                .enumerate()
                .for_each(|(c, window)| {
                    let range = chunk_range(c);
                    if range.is_empty() {
                        return;
                    }
                    // First source whose edge range contains this chunk's
                    // first edge.
                    let mut v = src_offsets.partition_point(|&o| o <= range.start) - 1;
                    let mut e = range.start;
                    while e < range.end {
                        let end = src_offsets[v + 1].min(range.end);
                        for (k, &t) in src_targets[e..end].iter().enumerate() {
                            let t = t as usize;
                            let slot = window[t];
                            window[t] = slot + 1;
                            // SAFETY: chunk `c`'s slots for destination `t`
                            // occupy [bases[c][t], bases[c][t] + count_c(t)),
                            // disjoint across chunks and destinations by
                            // construction.
                            unsafe { tshared.write(slot, v as VertexId) };
                            if let (Some(ws), Some(wi)) = (&wshared, src_weights) {
                                // SAFETY: same disjoint slot.
                                unsafe { ws.write(slot, wi[e + k]) };
                            }
                        }
                        e = end;
                        v += 1;
                    }
                });
        }
        Adjacency::from_owned(offsets, targets, weights)
    }

    /// Attaches weights computed per edge as `f(index_vertex, neighbor)`.
    pub fn with_weights(mut self, f: impl Fn(VertexId, VertexId) -> f32) -> Adjacency {
        let mut w = vec![0f32; self.targets.len()];
        for v in 0..self.num_vertices() as VertexId {
            let base = self.offsets[v as usize];
            for (k, &t) in self.neighbors(v).iter().enumerate() {
                w[base + k] = f(v, t);
            }
        }
        self.weights = Some(w.into());
        self
    }

    /// Iterates all arcs as `(index_vertex, neighbor)` in CSR order.
    pub fn iter_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices() as VertexId)
            .flat_map(move |v| self.neighbors(v).iter().map(move |&t| (v, t)))
    }
}

/// Turns the `chunks` per-chunk histograms in `bases` (row `c` is chunk
/// `c`'s count per index, `n` wide) into per-chunk scatter bases, in
/// place, and returns the CSR offsets: index `v`'s slots start at
/// `offsets[v]`, and chunk `c`'s share of them after every earlier
/// chunk's.
fn prefix_bases(bases: &mut [usize], n: usize, chunks: usize) -> Vec<usize> {
    let mut offsets = vec![0usize; n + 1];
    let mut acc = 0usize;
    for v in 0..n {
        offsets[v] = acc;
        for c in 0..chunks {
            let cell = &mut bases[c * n + v];
            let count = *cell;
            *cell = acc;
            acc += count;
        }
    }
    offsets[n] = acc;
    offsets
}

/// Sorts every neighbor list ascending, in place, keeping an optional
/// weight array parallel, over edge-balanced vertex ranges. Each list is
/// touched by exactly one thread, so the result does not depend on the
/// range count.
fn sort_each_list(offsets: &[usize], targets: &mut [VertexId], weights: Option<&mut [f32]>) {
    let ranges = weighted_ranges(offsets, rayon::current_num_threads());
    match weights {
        None => {
            let tshared = SharedSlice::new(targets);
            let ranges = &ranges;
            (0..ranges.len()).into_par_iter().for_each(|ri| {
                for v in ranges[ri].clone() {
                    // SAFETY: vertex ranges are disjoint, so the edge
                    // ranges [offsets[v], offsets[v+1]) are too.
                    let list = unsafe { tshared.slice_mut(offsets[v], offsets[v + 1]) };
                    list.sort_unstable();
                }
            });
        }
        Some(w) => {
            let tshared = SharedSlice::new(targets);
            let wshared = SharedSlice::new(w);
            let ranges = &ranges;
            (0..ranges.len()).into_par_iter().for_each(|ri| {
                let mut scratch = Vec::new();
                for v in ranges[ri].clone() {
                    // SAFETY: as above; targets and weights share the
                    // same disjoint edge ranges.
                    let list = unsafe { tshared.slice_mut(offsets[v], offsets[v + 1]) };
                    let wts = unsafe { wshared.slice_mut(offsets[v], offsets[v + 1]) };
                    sort_weighted_list(list, wts, &mut scratch);
                }
            });
        }
    }
}

/// Sorts a neighbor list ascending, keeping its weight slice parallel.
/// Lists already ascending (every list of length <= 1 among them) are
/// left untouched, exactly as the sort would leave them; the rest are
/// zipped into `scratch`, which callers reuse across a whole vertex range
/// instead of allocating per vertex.
pub(crate) fn sort_weighted_list(
    targets: &mut [VertexId],
    weights: &mut [f32],
    scratch: &mut Vec<(VertexId, f32)>,
) {
    if targets.windows(2).all(|w| w[0] <= w[1]) {
        return;
    }
    scratch.clear();
    scratch.extend(targets.iter().copied().zip(weights.iter().copied()));
    scratch.sort_unstable_by_key(|&(t, _)| t);
    for (k, &(t, wt)) in scratch.iter().enumerate() {
        targets[k] = t;
        weights[k] = wt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Adjacency {
        // 0 -> {1, 2}, 1 -> {2}, 2 -> {}, 3 -> {0}
        Adjacency::from_pairs(4, &[(0, 2), (0, 1), (1, 2), (3, 0)])
    }

    #[test]
    fn from_pairs_builds_sorted_csr() {
        let a = small();
        assert_eq!(a.num_vertices(), 4);
        assert_eq!(a.num_edges(), 4);
        assert_eq!(a.neighbors(0), &[1, 2]);
        assert_eq!(a.neighbors(1), &[2]);
        assert_eq!(a.neighbors(2), &[] as &[VertexId]);
        assert_eq!(a.neighbors(3), &[0]);
    }

    #[test]
    fn degree_matches_neighbor_len() {
        let a = small();
        for v in 0..4 {
            assert_eq!(a.degree(v), a.neighbors(v).len());
        }
    }

    #[test]
    fn transpose_reverses_all_edges() {
        let a = small();
        let t = a.transpose();
        assert_eq!(t.neighbors(0), &[3]);
        assert_eq!(t.neighbors(1), &[0]);
        assert_eq!(t.neighbors(2), &[0, 1]);
        assert_eq!(t.neighbors(3), &[] as &[VertexId]);
    }

    #[test]
    fn double_transpose_is_identity() {
        let a = small();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transposed_lists_are_sorted() {
        let a = Adjacency::from_pairs(5, &[(4, 2), (0, 2), (3, 2), (1, 2), (2, 2)]);
        let t = a.transpose();
        assert_eq!(t.neighbors(2), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn has_edge_uses_sorted_lookup() {
        let a = small();
        assert!(a.has_edge(0, 1));
        assert!(a.has_edge(0, 2));
        assert!(!a.has_edge(0, 3));
        assert!(!a.has_edge(2, 0));
    }

    #[test]
    fn weights_follow_targets_through_sort() {
        let a = Adjacency::from_pairs_weighted(3, &[(0, 2), (0, 1)], Some(&[20.0, 10.0]));
        assert_eq!(a.neighbors(0), &[1, 2]);
        assert_eq!(a.weights_of(0), &[10.0, 20.0]);
    }

    #[test]
    fn weights_follow_targets_through_transpose() {
        let a = Adjacency::from_pairs_weighted(3, &[(0, 2), (1, 2)], Some(&[5.0, 7.0]));
        let t = a.transpose();
        assert_eq!(t.neighbors(2), &[0, 1]);
        assert_eq!(t.weights_of(2), &[5.0, 7.0]);
    }

    #[test]
    fn with_weights_applies_function() {
        let a = small().with_weights(|u, v| (u + v) as f32);
        assert_eq!(a.weights_of(0), &[1.0, 2.0]);
        assert_eq!(a.weights_of(3), &[3.0]);
    }

    #[test]
    fn from_raw_validates_monotonicity() {
        let r = Adjacency::from_raw(vec![0, 2, 1], vec![0, 1], None);
        assert!(matches!(
            r,
            Err(GraphError::NonMonotonicOffsets { index: 2 })
        ));
    }

    #[test]
    fn from_raw_validates_edge_count() {
        let r = Adjacency::from_raw(vec![0, 1, 3], vec![0, 1], None);
        assert!(matches!(r, Err(GraphError::OffsetsEdgeMismatch { .. })));
    }

    #[test]
    fn from_raw_validates_target_range() {
        let r = Adjacency::from_raw(vec![0, 1, 2], vec![0, 7], None);
        assert!(matches!(
            r,
            Err(GraphError::VertexOutOfRange { vertex: 7, .. })
        ));
    }

    #[test]
    fn iter_edges_covers_every_arc_in_order() {
        let a = small();
        let edges: Vec<_> = a.iter_edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (3, 0)]);
    }

    #[test]
    fn empty_graph_is_fine() {
        let a = Adjacency::from_pairs(0, &[]);
        assert_eq!(a.num_vertices(), 0);
        assert_eq!(a.num_edges(), 0);
    }

    #[test]
    fn parallel_edges_are_preserved() {
        let a = Adjacency::from_pairs(2, &[(0, 1), (0, 1)]);
        assert_eq!(a.neighbors(0), &[1, 1]);
        assert_eq!(a.num_edges(), 2);
    }

    #[test]
    fn compressed_companion_roundtrips_and_reports_kind() {
        let a = small();
        assert_eq!(a.storage_kind(), StorageKind::Owned);
        let c = a.clone().with_compressed();
        assert_eq!(c.storage_kind(), StorageKind::Compressed);
        // The plain accessors are untouched by the companion.
        assert_eq!(c.neighbors(0), a.neighbors(0));
        assert_eq!(c.offsets(), a.offsets());
        // The companion decodes back to exactly the target array.
        let decoded = c
            .compressed()
            .unwrap()
            .decode_to_targets(c.offsets())
            .unwrap();
        assert_eq!(decoded, c.targets());
        let stats = c.compression_stats().unwrap();
        assert_eq!(stats.raw_bytes, c.num_edges() * 4);
    }

    #[test]
    fn chunked_bodies_handle_more_chunks_than_edges() {
        // Called directly, the chunked bodies split even a few edges four
        // ways; empty trailing chunks must clamp to `m`.
        let four = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        for m in 0..12usize {
            let pairs: Vec<(VertexId, VertexId)> = (0..m)
                .map(|e| ((e % 3) as VertexId, ((e + 1) % 3) as VertexId))
                .collect();
            let weights: Vec<f32> = (0..m).map(|e| e as f32).collect();
            let one = Adjacency::from_pairs_weighted(3, &pairs, Some(&weights));
            let chunked = four.install(|| Adjacency::build(3, &pairs, Some(&weights)));
            assert_eq!(one, chunked, "build m={m}");
            let t = four.install(|| one.transpose_chunked());
            assert_eq!(one.transpose(), t, "transpose m={m}");
        }
    }

    #[test]
    fn equality_ignores_compressed_companion() {
        let a = small();
        let c = a.clone().with_compressed();
        assert_eq!(a, c);
        assert_eq!(c.transpose(), a.transpose());
    }
}
