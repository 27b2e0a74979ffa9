//! Materialized per-partition graph layouts.
//!
//! Partitioning by destination (Algorithm 1) assigns every in-edge of a
//! destination chunk to one partition. Two layouts serve the two frontier
//! regimes of the processing systems:
//!
//! * [`PartitionedCoo`] — flat `(src, dst)` edge streams per partition,
//!   ordered by [`EdgeOrder`]; used by GraphGrind-style dense traversal.
//! * [`PartitionedSubCsr`] — one compact CSR *over sources* per partition
//!   (only sources with at least one edge into the partition appear);
//!   used by sparse traversal, where each partition scans the out-edges of
//!   the active vertices that fall inside it. The per-partition work is
//!   then exactly the "active edges per partition" of Table IV.
//!
//! Both are views of one partition-major edge store built in `O(n + m)`
//! with no comparison sort: one walk of the CSR appends every edge to its
//! destination partition's stream. Sources arrive ascending and each
//! neighbor list is ascending, so every stream lands in `(src, dst)`
//! order — which *is* [`EdgeOrder::Csr`] — with parallel edges in CSR
//! order. The sub-CSR is an index over that store (the runs of each `src`
//! stream) and shares its `dst`/weight arrays (`Arc`s, so neither view
//! keeps the other's private arrays alive); only [`EdgeOrder::Hilbert`]
//! sorts, by curve key, over its own copy.

use crate::by_destination::PartitionBounds;
use crate::edge_order::EdgeOrder;
use crate::hilbert::{order_for, xy_to_d};
use std::sync::Arc;
use vebo_graph::{Graph, VertexId};

/// Per-partition COO edge streams (struct-of-arrays, flat storage). In
/// [`EdgeOrder::Csr`] this is the partition-major store itself.
#[derive(Clone, Debug)]
pub struct PartitionedCoo {
    edge_starts: Vec<usize>,
    src: Vec<VertexId>,
    dst: Arc<Vec<VertexId>>,
    weights: Option<Arc<Vec<f32>>>,
    order: EdgeOrder,
}

impl PartitionedCoo {
    /// Scatters every edge to its destination partition in one `O(n + m)`
    /// walk of the CSR, which leaves each partition in [`EdgeOrder::Csr`]
    /// (module docs); [`EdgeOrder::Hilbert`] then key-sorts each
    /// partition — the only `O(m log m)` step, paid by that order alone.
    pub fn build(g: &Graph, bounds: &PartitionBounds, order: EdgeOrder) -> PartitionedCoo {
        assert_eq!(bounds.num_vertices(), g.num_vertices());
        let (csr, m) = (g.csr(), g.num_edges());
        // A partition's in-edges are contiguous in the CSC, so its slots
        // in the store are the CSC offsets at its bounds.
        let csc_offsets = g.csc().offsets();
        let edge_starts: Vec<usize> = bounds.starts().iter().map(|&v| csc_offsets[v]).collect();
        let mut part_of = vec![0u32; g.num_vertices()];
        for (p, range) in bounds.iter() {
            part_of[range].fill(p as u32);
        }
        let mut cursor = edge_starts.clone();
        let (mut src, mut dst) = (vec![0 as VertexId; m], vec![0 as VertexId; m]);
        let mut weights = csr.raw_weights().map(|ws| (ws, vec![0f32; m]));
        let (offsets, targets) = (csr.offsets(), csr.targets());
        for u in 0..g.num_vertices() {
            for (e, &v) in (offsets[u]..).zip(&targets[offsets[u]..offsets[u + 1]]) {
                let slot = &mut cursor[part_of[v as usize] as usize];
                src[*slot] = u as VertexId;
                dst[*slot] = v;
                if let Some((ws, out)) = weights.as_mut() {
                    out[*slot] = ws[e];
                }
                *slot += 1;
            }
        }
        let mut coo = PartitionedCoo {
            edge_starts,
            src,
            dst: Arc::new(dst),
            weights: weights.map(|(_, out)| Arc::new(out)),
            order,
        };
        if order == EdgeOrder::Hilbert {
            coo.sort_by_hilbert_key(order_for(g.num_vertices()));
        }
        coo
    }

    /// Re-sorts each partition by the Hilbert index of `(src, dst)`; ties
    /// (parallel edges) break on store position, so they keep CSR order.
    fn sort_by_hilbert_key(&mut self, bits: u32) {
        let (src, dst) = (&self.src, &self.dst);
        let mut keyed: Vec<(u64, usize)> = (0..src.len())
            .map(|e| (xy_to_d(bits, src[e] as u64, dst[e] as u64), e))
            .collect();
        for p in 0..self.num_partitions() {
            keyed[self.edge_starts[p]..self.edge_starts[p + 1]].sort_unstable();
        }
        self.src = gather(&self.src, &keyed);
        self.dst = Arc::new(gather(&self.dst, &keyed));
        self.weights = (self.weights.as_deref()).map(|w| Arc::new(gather(w, &keyed)));
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.edge_starts.len() - 1
    }

    /// Total edges.
    pub fn num_edges(&self) -> usize {
        self.src.len()
    }

    /// The edge order used.
    pub fn order(&self) -> EdgeOrder {
        self.order
    }

    /// Edge count of partition `p`.
    #[inline]
    pub fn partition_len(&self, p: usize) -> usize {
        self.edge_starts[p + 1] - self.edge_starts[p]
    }

    /// `(src, dst)` streams of partition `p`.
    #[inline]
    pub fn partition_edges(&self, p: usize) -> (&[VertexId], &[VertexId]) {
        let r = self.edge_starts[p]..self.edge_starts[p + 1];
        (&self.src[r.clone()], &self.dst[r])
    }

    /// Weight stream of partition `p` (panics if unweighted).
    #[inline]
    pub fn partition_weights(&self, p: usize) -> &[f32] {
        let w = self.weights.as_ref().expect("graph has no weights");
        &w[self.edge_starts[p]..self.edge_starts[p + 1]]
    }

    /// Whether weights are present.
    pub fn has_weights(&self) -> bool {
        self.weights.is_some()
    }
}

/// `data` re-read in `keyed`'s position order (Hilbert order only).
fn gather<T: Copy>(data: &[T], keyed: &[(u64, usize)]) -> Vec<T> {
    keyed.iter().map(|&(_, e)| data[e]).collect()
}

/// One partition of a [`PartitionedSubCsr`]: a compact CSR over the
/// *sources* that have at least one edge into the partition, borrowed
/// from the shared store.
#[derive(Clone, Copy, Debug)]
pub struct SubCsr<'a> {
    sources: &'a [VertexId],
    /// Source `i`'s edges are `run_starts[i]..run_starts[i + 1]` of the
    /// store (one more entry than `sources`).
    run_starts: &'a [usize],
    dst: &'a [VertexId],
    weights: Option<&'a [f32]>,
}

impl<'a> SubCsr<'a> {
    /// Sources present in this partition (sorted ascending).
    pub fn sources(&self) -> &'a [VertexId] {
        self.sources
    }

    /// Total edges in this partition.
    pub fn num_edges(&self) -> usize {
        self.run_starts[self.sources.len()] - self.run_starts[0]
    }

    /// Destinations of `u`'s edges into this partition, or `None` if `u`
    /// has none. `O(log |sources|)`.
    pub fn edges_of(&self, u: VertexId) -> Option<&'a [VertexId]> {
        let i = self.sources.binary_search(&u).ok()?;
        Some(&self.dst[self.run_starts[i]..self.run_starts[i + 1]])
    }

    /// Destinations and weights of `u`'s edges into this partition.
    pub fn weighted_edges_of(&self, u: VertexId) -> Option<(&'a [VertexId], &'a [f32])> {
        let i = self.sources.binary_search(&u).ok()?;
        let r = self.run_starts[i]..self.run_starts[i + 1];
        let w = self.weights.expect("graph has no weights");
        Some((&self.dst[r.clone()], &w[r]))
    }

    /// Iterates `(source, destinations)` pairs.
    pub fn iter(self) -> impl Iterator<Item = (VertexId, &'a [VertexId])> {
        let runs = self.run_starts.windows(2);
        (self.sources.iter().zip(runs)).map(move |(&u, r)| (u, &self.dst[r[0]..r[1]]))
    }
}

/// All partitions' sub-CSRs: a source index over a CSR-order
/// [`PartitionedCoo`], whose `dst`/weight arrays it shares.
#[derive(Clone, Debug)]
pub struct PartitionedSubCsr {
    dst: Arc<Vec<VertexId>>,
    weights: Option<Arc<Vec<f32>>>,
    /// Partition `p` owns `sources[source_starts[p]..source_starts[p + 1]]`.
    source_starts: Vec<usize>,
    sources: Vec<VertexId>,
    /// Store position where each source's run begins, plus an end sentinel.
    run_starts: Vec<usize>,
}

impl PartitionedSubCsr {
    /// Builds the store and indexes it. `O(n + m)` total.
    pub fn build(g: &Graph, bounds: &PartitionBounds) -> PartitionedSubCsr {
        PartitionedSubCsr::over(&PartitionedCoo::build(g, bounds, EdgeOrder::Csr))
    }

    /// Indexes an existing CSR-order store, sharing its `dst`/weight
    /// arrays: each partition's `src` stream is ascending, so its distinct
    /// sources and their runs fall out of one linear scan (after which
    /// `store` itself may be dropped). Panics on any other order.
    pub fn over(store: &PartitionedCoo) -> PartitionedSubCsr {
        assert!(store.order == EdgeOrder::Csr, "not a CSR-order store");
        let src = &store.src;
        let mut source_starts = Vec::with_capacity(store.edge_starts.len());
        // One run per change of source, at most one more per partition.
        let cap = src.windows(2).filter(|w| w[0] != w[1]).count() + store.edge_starts.len();
        let (mut sources, mut run_starts) = (Vec::with_capacity(cap), Vec::with_capacity(cap));
        for p in 0..store.num_partitions() {
            source_starts.push(sources.len());
            let start = store.edge_starts[p];
            for e in start..store.edge_starts[p + 1] {
                if e == start || src[e] != src[e - 1] {
                    sources.push(src[e]);
                    run_starts.push(e);
                }
            }
        }
        source_starts.push(sources.len());
        run_starts.push(src.len());
        PartitionedSubCsr {
            dst: store.dst.clone(),
            weights: store.weights.clone(),
            source_starts,
            sources,
            run_starts,
        }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.source_starts.len() - 1
    }

    /// The sub-CSR of partition `p`.
    pub fn partition(&self, p: usize) -> SubCsr<'_> {
        let (lo, hi) = (self.source_starts[p], self.source_starts[p + 1]);
        SubCsr {
            sources: &self.sources[lo..hi],
            run_starts: &self.run_starts[lo..=hi],
            dst: &self.dst,
            weights: self.weights.as_ref().map(|w| &w[..]),
        }
    }

    /// Total edges across partitions (must equal the graph's edge count).
    pub fn num_edges(&self) -> usize {
        self.dst.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use vebo_graph::Dataset;

    fn setup() -> (Graph, PartitionBounds) {
        let g = Dataset::LiveJournalLike.build(0.05);
        let b = PartitionBounds::edge_balanced(&g, 16);
        (g, b)
    }

    #[test]
    fn coo_covers_every_edge_exactly_once() {
        let (g, b) = setup();
        let coo = PartitionedCoo::build(&g, &b, EdgeOrder::Csr);
        assert_eq!(coo.num_edges(), g.num_edges());
        let mut collected: Vec<(VertexId, VertexId)> = Vec::new();
        for p in 0..coo.num_partitions() {
            let (src, dst) = coo.partition_edges(p);
            collected.extend(src.iter().copied().zip(dst.iter().copied()));
        }
        collected.sort_unstable();
        let mut expected: Vec<(VertexId, VertexId)> = g
            .vertices()
            .flat_map(|u| g.out_neighbors(u).iter().map(move |&v| (u, v)))
            .collect();
        expected.sort_unstable();
        assert_eq!(collected, expected);
    }

    #[test]
    fn coo_destinations_stay_in_partition() {
        let (g, b) = setup();
        let coo = PartitionedCoo::build(&g, &b, EdgeOrder::Hilbert);
        for (p, range) in b.iter() {
            let (_, dst) = coo.partition_edges(p);
            for &v in dst {
                assert!(range.contains(&(v as usize)));
            }
        }
    }

    #[test]
    fn coo_csr_order_is_sorted_by_src() {
        let (g, b) = setup();
        let coo = PartitionedCoo::build(&g, &b, EdgeOrder::Csr);
        for p in 0..coo.num_partitions() {
            let (src, _) = coo.partition_edges(p);
            assert!(
                src.windows(2).all(|w| w[0] <= w[1]),
                "partition {p} unsorted"
            );
        }
    }

    #[test]
    fn coo_weights_travel_with_edges() {
        let g = Dataset::YahooLike.build(0.05).with_hash_weights(16);
        let b = PartitionBounds::edge_balanced(&g, 8);
        let coo = PartitionedCoo::build(&g, &b, EdgeOrder::Csr);
        assert!(coo.has_weights());
        for p in 0..coo.num_partitions() {
            let (src, dst) = coo.partition_edges(p);
            let w = coo.partition_weights(p);
            for i in 0..src.len().min(50) {
                // Every weight must match the graph's weight for that edge.
                let pos = g
                    .in_neighbors(dst[i])
                    .iter()
                    .position(|&s| s == src[i])
                    .unwrap();
                assert_eq!(w[i], g.csc().weights_of(dst[i])[pos]);
            }
        }
    }

    #[test]
    fn subcsr_covers_every_edge_exactly_once() {
        let (g, b) = setup();
        let sub = PartitionedSubCsr::build(&g, &b);
        assert_eq!(sub.num_edges(), g.num_edges());
        let mut collected: Vec<(VertexId, VertexId)> = Vec::new();
        for p in 0..sub.num_partitions() {
            for (u, dsts) in sub.partition(p).iter() {
                collected.extend(dsts.iter().map(|&v| (u, v)));
            }
        }
        collected.sort_unstable();
        let mut expected: Vec<(VertexId, VertexId)> = g
            .vertices()
            .flat_map(|u| g.out_neighbors(u).iter().map(move |&v| (u, v)))
            .collect();
        expected.sort_unstable();
        assert_eq!(collected, expected);
    }

    #[test]
    fn subcsr_lookup_matches_filtered_out_neighbors() {
        let (g, b) = setup();
        let sub = PartitionedSubCsr::build(&g, &b);
        for u in g.vertices().take(200) {
            for (p, range) in b.iter() {
                let expected: Vec<VertexId> = g
                    .out_neighbors(u)
                    .iter()
                    .copied()
                    .filter(|&v| range.contains(&(v as usize)))
                    .collect();
                match sub.partition(p).edges_of(u) {
                    Some(dsts) => {
                        let got: BTreeSet<VertexId> = dsts.iter().copied().collect();
                        let want: BTreeSet<VertexId> = expected.iter().copied().collect();
                        assert_eq!(got, want, "u = {u}, p = {p}");
                    }
                    None => assert!(expected.is_empty(), "u = {u}, p = {p} missing edges"),
                }
            }
        }
    }

    #[test]
    fn subcsr_sources_are_sorted_and_nonempty() {
        let (g, b) = setup();
        let sub = PartitionedSubCsr::build(&g, &b);
        for p in 0..sub.num_partitions() {
            let s = sub.partition(p);
            assert!(s.sources().windows(2).all(|w| w[0] < w[1]));
            for (_, dsts) in s.iter() {
                assert!(!dsts.is_empty(), "empty source entry");
            }
        }
    }

    #[test]
    fn subcsr_weighted_lookup() {
        let g = Dataset::YahooLike.build(0.05).with_hash_weights(8);
        let b = PartitionBounds::edge_balanced(&g, 4);
        let sub = PartitionedSubCsr::build(&g, &b);
        let mut checked = 0;
        for u in g.vertices() {
            if let Some((dsts, ws)) = sub.partition(0).weighted_edges_of(u) {
                for (k, &v) in dsts.iter().enumerate() {
                    let pos = g.out_neighbors(u).iter().position(|&x| x == v).unwrap();
                    assert_eq!(ws[k], g.csr().weights_of(u)[pos]);
                    checked += 1;
                }
            }
            if checked > 100 {
                break;
            }
        }
        assert!(checked > 0);
    }
}
