//! The [`Graph`] type: paired CSR (out) / CSC (in) adjacency.

use crate::adjacency::Adjacency;
use crate::types::{GraphError, VertexId};

/// A directed graph stored in both directions.
///
/// * `out` — CSR indexed by source: `out.neighbors(u)` are the destinations
///   of `u`'s out-edges.
/// * `into` — CSC indexed by destination: `into.neighbors(v)` are the
///   sources of `v`'s in-edges.
///
/// Undirected graphs are symmetrized on construction (each undirected edge
/// becomes two arcs), after which `out` and `into` hold identical data. All
/// edge counts in this workspace refer to *stored arcs*, matching how the
/// paper counts edges for its undirected datasets (Orkut, Yahoo, USAroad).
#[derive(Clone, Debug)]
pub struct Graph {
    out: Adjacency,
    into: Adjacency,
    directed: bool,
}

impl Graph {
    /// Builds a graph from an edge list.
    ///
    /// For `directed == false` the list is symmetrized: for every `(u, v)`
    /// with `u != v`, the arc `(v, u)` is added as well (duplicates that
    /// would result from the input already containing both directions are
    /// collapsed).
    pub fn from_edges(
        num_vertices: usize,
        edges: &[(VertexId, VertexId)],
        directed: bool,
    ) -> Graph {
        Self::from_edges_weighted(num_vertices, edges, None, directed)
    }

    /// As [`Graph::from_edges`], with one weight per input edge. For
    /// undirected graphs the weight is mirrored onto both arcs.
    pub fn from_edges_weighted(
        num_vertices: usize,
        edges: &[(VertexId, VertexId)],
        weights: Option<&[f32]>,
        directed: bool,
    ) -> Graph {
        for &(u, v) in edges {
            assert!(
                (u as usize) < num_vertices && (v as usize) < num_vertices,
                "edge ({u}, {v}) out of range for n = {num_vertices}"
            );
        }
        if directed {
            let out = Adjacency::from_pairs_weighted(num_vertices, edges, weights);
            let into = out.transpose();
            Graph {
                out,
                into,
                directed,
            }
        } else {
            // Symmetrize, de-duplicating mirrored pairs so that an input
            // containing both (u,v) and (v,u) yields exactly two arcs.
            let mut seen: std::collections::HashSet<(VertexId, VertexId)> =
                std::collections::HashSet::with_capacity(edges.len());
            let mut sym: Vec<(VertexId, VertexId)> = Vec::with_capacity(edges.len() * 2);
            let mut wsym: Vec<f32> = Vec::with_capacity(edges.len() * 2);
            for (i, &(u, v)) in edges.iter().enumerate() {
                let key = (u.min(v), u.max(v));
                if u != v && !seen.insert(key) {
                    continue;
                }
                let w = weights.map(|w| w[i]).unwrap_or(1.0);
                sym.push((u, v));
                wsym.push(w);
                if u != v {
                    sym.push((v, u));
                    wsym.push(w);
                }
            }
            let w = weights.map(|_| wsym.as_slice());
            let out = Adjacency::from_pairs_weighted(num_vertices, &sym, w);
            let into = out.clone();
            Graph {
                out,
                into,
                directed,
            }
        }
    }

    /// Assembles a graph from prebuilt adjacency halves. `into` must be the
    /// transpose of `out`; this is checked in debug builds.
    pub fn from_parts(
        out: Adjacency,
        into: Adjacency,
        directed: bool,
    ) -> Result<Graph, GraphError> {
        if out.num_vertices() != into.num_vertices() {
            return Err(GraphError::InvalidPermutation {
                reason: "out/in vertex count mismatch",
            });
        }
        if out.num_edges() != into.num_edges() {
            return Err(GraphError::OffsetsEdgeMismatch {
                last_offset: out.num_edges(),
                num_edges: into.num_edges(),
            });
        }
        debug_assert_eq!(
            out.transpose(),
            into,
            "`into` must be the transpose of `out`"
        );
        Ok(Graph {
            out,
            into,
            directed,
        })
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    /// Number of stored arcs `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out.num_edges()
    }

    /// Whether the graph was built as directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Out-adjacency (CSR).
    #[inline]
    pub fn csr(&self) -> &Adjacency {
        &self.out
    }

    /// In-adjacency (CSC).
    #[inline]
    pub fn csc(&self) -> &Adjacency {
        &self.into
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: VertexId) -> usize {
        self.out.degree(u)
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.into.degree(v)
    }

    /// Destinations of `u`'s out-edges.
    #[inline]
    pub fn out_neighbors(&self, u: VertexId) -> &[VertexId] {
        self.out.neighbors(u)
    }

    /// Sources of `v`'s in-edges.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.into.neighbors(v)
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices() as VertexId
    }

    /// Attaches deterministic pseudo-random integer weights in `1..=max` to
    /// both adjacency halves, keyed by the (source, destination) pair so the
    /// CSR and CSC views agree. Used by weighted algorithms (BF, BP) since
    /// the paper's datasets are unweighted.
    pub fn with_hash_weights(self, max: u32) -> Graph {
        assert!(max >= 1);
        let h = move |u: VertexId, v: VertexId| {
            (mix64(((u as u64) << 32) | v as u64) % max as u64 + 1) as f32
        };
        let out = self.out.with_weights(h);
        let into = self.into.with_weights(|v, u| h(u, v)); // CSC stores (dst, src)
        Graph {
            out,
            into,
            directed: self.directed,
        }
    }

    /// Whether per-edge weights are attached.
    #[inline]
    pub fn has_weights(&self) -> bool {
        self.out.has_weights()
    }

    /// The CSR's storage backing:
    /// [`Mapped`](crate::storage::StorageKind::Mapped) when the graph was
    /// loaded zero-copy from a memory-mapped `.vgr` file. The CSC half is
    /// always rebuilt into owned storage on load, so the CSR is what
    /// determines whether the graph borrows a mapping.
    #[inline]
    pub fn storage_kind(&self) -> crate::storage::StorageKind {
        self.out.storage_kind()
    }

    /// Attaches delta/varint compressed companions to both adjacency
    /// halves (see [`crate::compress::CompressedCsr`]): the engine's
    /// traversal kernels then decode byte-packed neighbor lists instead
    /// of streaming the 4-byte target arrays. A no-op on halves that
    /// already carry a companion (e.g. a graph loaded from a `.vgr` v3
    /// file).
    pub fn with_compressed(self) -> Graph {
        Graph {
            out: self.out.with_compressed(),
            into: self.into.with_compressed(),
            directed: self.directed,
        }
    }

    /// Compressed-vs-raw byte accounting of the CSR half, when a
    /// compressed companion is attached.
    pub fn compression_stats(&self) -> Option<crate::compress::CompressionStats> {
        self.out.compression_stats()
    }

    /// The transposed graph: every arc `(u, v)` becomes `(v, u)`. A
    /// [`Graph`] stores both directions, so this swaps the two adjacency
    /// halves — but for owned storage the swap copies both of them
    /// (targets, weights and any compressed companion), which is
    /// `O(n + m)`. Hot-path callers that traverse the transpose
    /// repeatedly (betweenness centrality's backward sweep) should use
    /// `vebo_engine::PreparedGraph::transposed`, which builds the
    /// transposed layouts once per prepared graph and reuses them.
    pub fn transposed(&self) -> Graph {
        Graph {
            out: self.into.clone(),
            into: self.out.clone(),
            directed: self.directed,
        }
    }
}

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixing function used
/// for deterministic edge weights and test data.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig3_graph() -> Graph {
        // The example graph of Figure 3: in-degrees 1,2,2,2,4,3.
        Graph::from_edges(
            6,
            &[
                (2, 0),
                (5, 1),
                (3, 1),
                (1, 2),
                (5, 2),
                (4, 3),
                (5, 3),
                (0, 4),
                (1, 4),
                (2, 4),
                (3, 4),
                (4, 5),
                (2, 5),
                (1, 5),
            ],
            true,
        )
    }

    #[test]
    fn fig3_in_degrees_match_paper() {
        let g = fig3_graph();
        let degs: Vec<usize> = (0..6).map(|v| g.in_degree(v)).collect();
        assert_eq!(degs, vec![1, 2, 2, 2, 4, 3]);
    }

    #[test]
    fn directed_graph_separates_in_and_out() {
        let g = Graph::from_edges(3, &[(0, 1), (0, 2)], true);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.in_degree(1), 1);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(2), &[0]);
    }

    #[test]
    fn undirected_graph_symmetrizes() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)], false);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_neighbors(1), &[0, 2]);
        assert_eq!(g.in_neighbors(1), &[0, 2]);
        assert!(!g.is_directed());
    }

    #[test]
    fn undirected_graph_collapses_mirrored_input() {
        // Input already lists both directions: must not double up.
        let g = Graph::from_edges(2, &[(0, 1), (1, 0)], false);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_neighbors(0), &[1]);
    }

    #[test]
    fn undirected_self_loop_stored_once() {
        let g = Graph::from_edges(2, &[(0, 0), (0, 1)], false);
        assert_eq!(g.out_neighbors(0), &[0, 1]);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn csc_is_transpose_of_csr() {
        let g = fig3_graph();
        assert_eq!(g.csr().transpose(), *g.csc());
    }

    #[test]
    fn from_parts_rejects_mismatched_halves() {
        let out = Adjacency::from_pairs(3, &[(0, 1)]);
        let into = Adjacency::from_pairs(4, &[(1, 0)]);
        assert!(Graph::from_parts(out, into, true).is_err());
    }

    #[test]
    fn hash_weights_agree_between_views() {
        let g = fig3_graph().with_hash_weights(16);
        for u in g.vertices() {
            for (k, &v) in g.out_neighbors(u).iter().enumerate() {
                let w_out = g.csr().weights_of(u)[k];
                let pos = g.in_neighbors(v).iter().position(|&s| s == u).unwrap();
                let w_in = g.csc().weights_of(v)[pos];
                assert_eq!(w_out, w_in, "weight mismatch on ({u}, {v})");
            }
        }
    }

    #[test]
    fn hash_weights_are_in_range() {
        let g = fig3_graph().with_hash_weights(8);
        for u in g.vertices() {
            for &w in g.csr().weights_of(u) {
                assert!((1.0..=8.0).contains(&w));
            }
        }
    }

    #[test]
    fn undirected_weights_are_mirrored() {
        let g = Graph::from_edges_weighted(3, &[(0, 1)], Some(&[2.5]), false);
        assert_eq!(g.csr().weights_of(0), &[2.5]);
        assert_eq!(g.csr().weights_of(1), &[2.5]);
    }

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(1), mix64(1));
        assert_ne!(mix64(1), mix64(2));
        // Low bits should differ for consecutive inputs (avalanche sanity).
        let a = mix64(100) & 0xFFFF;
        let b = mix64(101) & 0xFFFF;
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        Graph::from_edges(2, &[(0, 5)], true);
    }
}
