//! Property-based tests for partitioning invariants.

use proptest::prelude::*;
use vebo_graph::graph::mix64;
use vebo_graph::{Graph, VertexId};
use vebo_partition::hilbert::{d_to_xy, order_for, xy_to_d};
use vebo_partition::partitioned::{PartitionedCoo, PartitionedSubCsr};
use vebo_partition::{EdgeOrder, PartitionBounds};

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..80, 0usize..400, any::<u64>()).prop_map(|(n, m, seed)| {
        let mut x = seed;
        let mut next = || {
            x = mix64(x);
            x
        };
        let edges: Vec<(VertexId, VertexId)> = (0..m)
            .map(|_| {
                (
                    (next() % n as u64) as VertexId,
                    (next() % n as u64) as VertexId,
                )
            })
            .collect();
        Graph::from_edges(n, &edges, true)
    })
}

/// A random directed multigraph (parallel edges and self-loops kept) plus
/// arbitrary bounds over it: `P` may exceed `n`, cut points repeat, so
/// empty partitions occur anywhere. Weighted cases give every input edge a
/// distinct weight, so two parallel edges swapping places is visible.
fn arb_multigraph_and_bounds() -> impl Strategy<Value = (Graph, PartitionBounds)> {
    (
        1usize..40,
        0usize..300,
        any::<u64>(),
        any::<bool>(),
        1usize..90,
    )
        .prop_map(|(n, m, seed, weighted, p)| {
            let mut x = seed;
            let mut next = |bound: usize| {
                x = mix64(x);
                (x % bound as u64) as usize
            };
            // A small id space squared keeps parallel edges frequent.
            let edges: Vec<(VertexId, VertexId)> = (0..m)
                .map(|_| (next(n) as VertexId, next(n) as VertexId))
                .collect();
            let weights: Vec<f32> = (0..m).map(|e| e as f32 + 0.5).collect();
            let g = Graph::from_edges_weighted(n, &edges, weighted.then_some(&weights[..]), true);
            let mut starts: Vec<usize> = (1..p).map(|_| next(n + 1)).collect();
            starts.extend([0, n]);
            starts.sort_unstable();
            (g, PartitionBounds::from_starts(starts))
        })
}

/// Test-only reference for one partition's edge stream: gather the
/// partition's in-edges from the CSC and *sort* them — by `(src, dst)`,
/// then for Hilbert by curve key. Both sorts are stable, so parallel
/// edges stay in the order the CSR lists them (the CSC is its stable
/// transpose). This is what the scatter build must reproduce, weights
/// included, without sorting.
fn sorted_reference(
    g: &Graph,
    range: std::ops::Range<usize>,
    order: EdgeOrder,
) -> Vec<(VertexId, VertexId, u32)> {
    let mut edges = Vec::new();
    for v in range {
        let v = v as VertexId;
        for (k, &u) in g.in_neighbors(v).iter().enumerate() {
            let w = if g.has_weights() {
                g.csc().weights_of(v)[k].to_bits()
            } else {
                0
            };
            edges.push((u, v, w));
        }
    }
    edges.sort_by_key(|&(u, v, _)| (u, v));
    if order == EdgeOrder::Hilbert {
        let bits = order_for(g.num_vertices());
        edges.sort_by_key(|&(u, v, _)| xy_to_d(bits, u as u64, v as u64));
    }
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sort-free scatter build equals the sort-built reference, edge
    /// for edge and weight for weight, in both edge orders — including
    /// empty partitions, repeated bounds and `P > n`.
    #[test]
    fn scatter_built_coo_equals_sorted_reference((g, b) in arb_multigraph_and_bounds()) {
        for order in [EdgeOrder::Csr, EdgeOrder::Hilbert] {
            let coo = PartitionedCoo::build(&g, &b, order);
            prop_assert_eq!(coo.num_partitions(), b.num_partitions());
            prop_assert_eq!(coo.num_edges(), g.num_edges());
            prop_assert_eq!(coo.has_weights(), g.has_weights());
            for (p, range) in b.iter() {
                let (src, dst) = coo.partition_edges(p);
                let got: Vec<(VertexId, VertexId, u32)> = (0..src.len())
                    .map(|e| {
                        let w = if coo.has_weights() { coo.partition_weights(p)[e].to_bits() } else { 0 };
                        (src[e], dst[e], w)
                    })
                    .collect();
                prop_assert_eq!(got, sorted_reference(&g, range, order), "partition {}", p);
            }
        }
    }

    /// The sub-CSR index over the shared store equals a run-length
    /// grouping of the sorted reference: same sources, same destination
    /// and weight runs, and point lookups agree with iteration.
    #[test]
    fn scatter_built_subcsr_equals_sorted_reference((g, b) in arb_multigraph_and_bounds()) {
        let sub = PartitionedSubCsr::build(&g, &b);
        prop_assert_eq!(sub.num_partitions(), b.num_partitions());
        prop_assert_eq!(sub.num_edges(), g.num_edges());
        for (p, range) in b.iter() {
            let reference = sorted_reference(&g, range, EdgeOrder::Csr);
            let part = sub.partition(p);
            prop_assert_eq!(part.num_edges(), reference.len());
            let mut want_sources: Vec<VertexId> = reference.iter().map(|e| e.0).collect();
            want_sources.dedup();
            prop_assert_eq!(part.sources(), &want_sources[..]);
            let iterated: Vec<(VertexId, VertexId)> = part
                .iter()
                .flat_map(|(u, dsts)| dsts.iter().map(move |&v| (u, v)))
                .collect();
            let want: Vec<(VertexId, VertexId)> = reference.iter().map(|e| (e.0, e.1)).collect();
            prop_assert_eq!(iterated, want);
            for u in g.vertices() {
                let run: Vec<_> = reference.iter().filter(|e| e.0 == u).collect();
                match part.edges_of(u) {
                    None => prop_assert!(run.is_empty()),
                    Some(dsts) => {
                        prop_assert_eq!(dsts, &run.iter().map(|e| e.1).collect::<Vec<_>>()[..]);
                        if g.has_weights() {
                            let (wd, ws) = part.weighted_edges_of(u).unwrap();
                            prop_assert_eq!(wd, dsts);
                            let bits: Vec<u32> = ws.iter().map(|w| w.to_bits()).collect();
                            prop_assert_eq!(bits, run.iter().map(|e| e.2).collect::<Vec<_>>());
                        }
                    }
                }
            }
        }
    }

    /// Hilbert curve index mapping is a bijection (roundtrip form).
    #[test]
    fn hilbert_roundtrip(order in 1u32..12, x in 0u64..4096, y in 0u64..4096) {
        let side = 1u64 << order;
        let (x, y) = (x % side, y % side);
        let d = xy_to_d(order, x, y);
        prop_assert!(d < side * side);
        prop_assert_eq!(d_to_xy(order, d), (x, y));
    }

    /// Algorithm 1 partitions cover all vertices disjointly and conserve
    /// edges, for any graph and partition count.
    #[test]
    fn algorithm1_covers((g, p) in arb_graph().prop_flat_map(|g| (Just(g), 1usize..40))) {
        let b = PartitionBounds::edge_balanced(&g, p);
        prop_assert_eq!(b.num_partitions(), p);
        prop_assert_eq!(b.num_vertices(), g.num_vertices());
        let mut covered = 0usize;
        let mut edges = 0u64;
        for (_, r) in b.iter() {
            covered += r.len();
            edges += r.map(|v| g.in_degree(v as VertexId) as u64).sum::<u64>();
        }
        prop_assert_eq!(covered, g.num_vertices());
        prop_assert_eq!(edges, g.num_edges() as u64);
    }

    /// `partition_of` agrees with the ranges.
    #[test]
    fn partition_of_consistent((g, p) in arb_graph().prop_flat_map(|g| (Just(g), 1usize..20))) {
        let b = PartitionBounds::edge_balanced(&g, p);
        for (q, r) in b.iter() {
            for v in r {
                prop_assert_eq!(b.partition_of(v as VertexId), q);
            }
        }
    }

    /// The partitioned COO covers every edge exactly once, destinations
    /// stay in their partition, in both edge orders.
    #[test]
    fn coo_conserves_edges((g, p) in arb_graph().prop_flat_map(|g| (Just(g), 1usize..20))) {
        for order in [EdgeOrder::Csr, EdgeOrder::Hilbert] {
            let b = PartitionBounds::edge_balanced(&g, p);
            let coo = PartitionedCoo::build(&g, &b, order);
            prop_assert_eq!(coo.num_edges(), g.num_edges());
            let mut collected: Vec<(VertexId, VertexId)> = Vec::new();
            for q in 0..coo.num_partitions() {
                let (src, dst) = coo.partition_edges(q);
                for (&s, &d) in src.iter().zip(dst) {
                    prop_assert!(b.range(q).contains(&(d as usize)));
                    collected.push((s, d));
                }
            }
            collected.sort_unstable();
            let mut expected: Vec<(VertexId, VertexId)> = g
                .vertices()
                .flat_map(|u| g.out_neighbors(u).iter().map(move |&v| (u, v)))
                .collect();
            expected.sort_unstable();
            prop_assert_eq!(collected, expected);
        }
    }

    /// The per-partition sub-CSRs conserve the edge multiset.
    #[test]
    fn subcsr_conserves_edges((g, p) in arb_graph().prop_flat_map(|g| (Just(g), 1usize..20))) {
        let b = PartitionBounds::edge_balanced(&g, p);
        let sub = PartitionedSubCsr::build(&g, &b);
        prop_assert_eq!(sub.num_edges(), g.num_edges());
        let mut collected: Vec<(VertexId, VertexId)> = Vec::new();
        for q in 0..sub.num_partitions() {
            for (u, dsts) in sub.partition(q).iter() {
                for &v in dsts {
                    prop_assert!(b.range(q).contains(&(v as usize)));
                    collected.push((u, v));
                }
            }
        }
        collected.sort_unstable();
        let mut expected: Vec<(VertexId, VertexId)> = g
            .vertices()
            .flat_map(|u| g.out_neighbors(u).iter().map(move |&v| (u, v)))
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(collected, expected);
    }

    /// Vertex-balanced bounds differ by at most one vertex.
    #[test]
    fn vertex_balanced_tight(n in 1usize..1000, p in 1usize..64) {
        let b = PartitionBounds::vertex_balanced(n, p);
        let sizes: Vec<usize> = b.iter().map(|(_, r)| r.len()).collect();
        let max = sizes.iter().max().unwrap();
        let min = sizes.iter().min().unwrap();
        prop_assert!(max - min <= 1);
        prop_assert_eq!(sizes.iter().sum::<usize>(), n);
    }
}
