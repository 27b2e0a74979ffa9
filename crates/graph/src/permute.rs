//! Vertex permutations and the [`VertexOrdering`] trait implemented by
//! every reordering algorithm in the workspace (VEBO, RCM, Gorder, …).
//!
//! A [`Permutation`] maps *old* vertex ids to *new* vertex ids — the `S[v]`
//! sequence numbers of Algorithm 2 in the paper. Applying it to a graph
//! yields the isomorphic, relabeled graph that is then fed to the chunk
//! partitioner (Algorithm 1).

use crate::adjacency::Adjacency;
use crate::graph::Graph;
use crate::par::{self, weighted_ranges, SharedSlice};
use crate::types::{GraphError, VertexId};
use rayon::prelude::*;

/// A bijection `old id -> new id` over `0..n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Permutation {
    new_id: Vec<VertexId>,
}

impl Permutation {
    /// The identity permutation on `n` vertices.
    pub fn identity(n: usize) -> Permutation {
        Permutation {
            new_id: (0..n as VertexId).collect(),
        }
    }

    /// Builds from the `S[v]` array (`new_id[old] = new`). Validates that
    /// the mapping is a bijection on `0..n`.
    pub fn from_new_ids(new_id: Vec<VertexId>) -> Result<Permutation, GraphError> {
        let n = new_id.len();
        let mut seen = vec![false; n];
        for &s in &new_id {
            let s = s as usize;
            if s >= n {
                return Err(GraphError::InvalidPermutation {
                    reason: "id out of range",
                });
            }
            if seen[s] {
                return Err(GraphError::InvalidPermutation {
                    reason: "duplicate id",
                });
            }
            seen[s] = true;
        }
        Ok(Permutation { new_id })
    }

    /// Builds from a placement *order*: `order[k]` is the old id of the
    /// vertex that receives new id `k`. This is the inverse view of
    /// [`Permutation::from_new_ids`].
    pub fn from_order(order: &[VertexId]) -> Result<Permutation, GraphError> {
        let n = order.len();
        let mut new_id = vec![VertexId::MAX; n];
        for (k, &old) in order.iter().enumerate() {
            let o = old as usize;
            if o >= n {
                return Err(GraphError::InvalidPermutation {
                    reason: "id out of range",
                });
            }
            if new_id[o] != VertexId::MAX {
                return Err(GraphError::InvalidPermutation {
                    reason: "duplicate id",
                });
            }
            new_id[o] = k as VertexId;
        }
        Ok(Permutation { new_id })
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.new_id.len()
    }

    /// `true` for the empty permutation.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.new_id.is_empty()
    }

    /// New id of old vertex `old`.
    #[inline]
    pub fn new_id(&self, old: VertexId) -> VertexId {
        self.new_id[old as usize]
    }

    /// The raw `S[v]` array.
    #[inline]
    pub fn as_slice(&self) -> &[VertexId] {
        &self.new_id
    }

    /// The inverse mapping (`new id -> old id`).
    pub fn inverse(&self) -> Permutation {
        let mut old_id = vec![0 as VertexId; self.new_id.len()];
        for (old, &new) in self.new_id.iter().enumerate() {
            old_id[new as usize] = old as VertexId;
        }
        Permutation { new_id: old_id }
    }

    /// Composition: applies `self` first, then `then`
    /// (`result.new_id(v) == then.new_id(self.new_id(v))`).
    pub fn then(&self, then: &Permutation) -> Permutation {
        assert_eq!(self.len(), then.len());
        let new_id = self.new_id.iter().map(|&mid| then.new_id(mid)).collect();
        Permutation { new_id }
    }

    /// Whether this is the identity.
    pub fn is_identity(&self) -> bool {
        self.new_id
            .iter()
            .enumerate()
            .all(|(i, &s)| i == s as usize)
    }

    /// Relabels a graph: vertex `old` becomes `self.new_id(old)` and every
    /// arc `(u, v)` becomes `(S[u], S[v])`. Edge weights travel with their
    /// arcs. The result is isomorphic to the input.
    ///
    /// The permuted CSR is constructed directly — new vertex `S[u]`
    /// inherits `u`'s degree, so offsets are a scatter of the old degree
    /// array and each neighbor list is gathered, relabeled, and sorted in
    /// place. No intermediate edge list is materialized, and every
    /// per-vertex step runs over edge-balanced ranges of new ids.
    pub fn apply_graph(&self, g: &Graph) -> Graph {
        assert_eq!(self.len(), g.num_vertices());
        par::stage(g.num_edges(), || self.relabel(g))
    }

    fn relabel(&self, g: &Graph) -> Graph {
        let n = g.num_vertices();
        let m = g.num_edges();
        let csr = g.csr();
        let inv = self.inverse();
        let old_of = inv.as_slice();

        // Offsets: new vertex k has the degree of old vertex old_of[k].
        let mut offsets = vec![0usize; n + 1];
        offsets[1..]
            .par_iter_mut()
            .enumerate()
            .for_each(|(k, slot)| {
                *slot = csr.degree(old_of[k]);
            });
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }

        // Gather + relabel + sort each new neighbor list.
        let mut targets = vec![0 as VertexId; m];
        let mut weights = csr.raw_weights().map(|_| vec![0f32; m]);
        {
            let ranges = weighted_ranges(&offsets, rayon::current_num_threads());
            let tshared = SharedSlice::new(&mut targets);
            let wshared = weights.as_mut().map(|w| SharedSlice::new(w.as_mut_slice()));
            let (ranges, offsets) = (&ranges, &offsets);
            (0..ranges.len()).into_par_iter().for_each(|ri| {
                // The weighted sort's zip buffer, one per vertex range.
                let mut scratch = Vec::new();
                for k in ranges[ri].clone() {
                    // SAFETY: new-id ranges are disjoint, so the edge
                    // ranges [offsets[k], offsets[k+1]) are too.
                    let list = unsafe { tshared.slice_mut(offsets[k], offsets[k + 1]) };
                    let u = old_of[k];
                    for (j, &v) in csr.neighbors(u).iter().enumerate() {
                        list[j] = self.new_id(v);
                    }
                    match &wshared {
                        Some(ws) => {
                            // SAFETY: the same disjoint edge range.
                            let wts = unsafe { ws.slice_mut(offsets[k], offsets[k + 1]) };
                            wts.copy_from_slice(csr.weights_of(u));
                            crate::adjacency::sort_weighted_list(list, wts, &mut scratch);
                        }
                        None => list.sort_unstable(),
                    }
                }
            });
        }

        let out = Adjacency::from_parts_unchecked(offsets, targets, weights);
        let into = out.transpose();
        Graph::from_parts(out, into, g.is_directed()).expect("permuted graph is well-formed")
    }

    /// Reindexes a per-vertex value array from old-id indexing to new-id
    /// indexing (`result[S[v]] = values[v]`).
    pub fn apply_values<T: Clone>(&self, values: &[T]) -> Vec<T> {
        assert_eq!(self.len(), values.len());
        let mut out = values.to_vec();
        for (old, &new) in self.new_id.iter().enumerate() {
            out[new as usize] = values[old].clone();
        }
        out
    }
}

/// A vertex-reordering algorithm (the "vertex reordering" stage in the
/// paper's Figure 2 pipeline).
pub trait VertexOrdering {
    /// Human-readable name used in experiment tables ("VEBO", "RCM", …).
    fn name(&self) -> &str;

    /// Computes the permutation for `g`.
    fn compute(&self, g: &Graph) -> Permutation;
}

/// The identity ordering ("Original" rows of the paper's tables).
#[derive(Debug, Default, Clone, Copy)]
pub struct OriginalOrder;

impl VertexOrdering for OriginalOrder {
    fn name(&self) -> &str {
        "Original"
    }

    fn compute(&self, g: &Graph) -> Permutation {
        Permutation::identity(g.num_vertices())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], true)
    }

    #[test]
    fn identity_maps_to_self() {
        let p = Permutation::identity(5);
        assert!(p.is_identity());
        for v in 0..5 {
            assert_eq!(p.new_id(v), v);
        }
    }

    #[test]
    fn from_new_ids_rejects_duplicates() {
        assert!(Permutation::from_new_ids(vec![0, 0, 1]).is_err());
    }

    #[test]
    fn from_new_ids_rejects_out_of_range() {
        assert!(Permutation::from_new_ids(vec![0, 3]).is_err());
    }

    #[test]
    fn from_order_inverts_from_new_ids() {
        // order: vertex 2 first, then 0, then 1 => S = [1, 2, 0]
        let p = Permutation::from_order(&[2, 0, 1]).unwrap();
        assert_eq!(p.as_slice(), &[1, 2, 0]);
    }

    #[test]
    fn inverse_roundtrips() {
        let p = Permutation::from_new_ids(vec![2, 0, 3, 1]).unwrap();
        let inv = p.inverse();
        for v in 0..4 {
            assert_eq!(inv.new_id(p.new_id(v)), v);
        }
        assert_eq!(p.inverse().inverse(), p);
    }

    #[test]
    fn composition_applies_in_sequence() {
        let p = Permutation::from_new_ids(vec![1, 2, 0]).unwrap();
        let q = Permutation::from_new_ids(vec![2, 0, 1]).unwrap();
        let r = p.then(&q);
        for v in 0..3 {
            assert_eq!(r.new_id(v), q.new_id(p.new_id(v)));
        }
    }

    #[test]
    fn apply_graph_preserves_structure() {
        let g = sample();
        let p = Permutation::from_new_ids(vec![3, 1, 0, 2]).unwrap();
        let h = p.apply_graph(&g);
        assert_eq!(h.num_vertices(), g.num_vertices());
        assert_eq!(h.num_edges(), g.num_edges());
        // Every original edge must exist under the new labels.
        for u in g.vertices() {
            for &v in g.out_neighbors(u) {
                assert!(h.csr().has_edge(p.new_id(u), p.new_id(v)));
            }
        }
    }

    #[test]
    fn apply_graph_preserves_degree_multiset() {
        let g = sample();
        let p = Permutation::from_new_ids(vec![2, 3, 1, 0]).unwrap();
        let h = p.apply_graph(&g);
        let mut dg: Vec<usize> = g.vertices().map(|v| g.in_degree(v)).collect();
        let mut dh: Vec<usize> = h.vertices().map(|v| h.in_degree(v)).collect();
        dg.sort_unstable();
        dh.sort_unstable();
        assert_eq!(dg, dh);
    }

    #[test]
    fn apply_graph_moves_weights_with_edges() {
        let g = sample().with_hash_weights(32);
        let p = Permutation::from_new_ids(vec![1, 0, 3, 2]).unwrap();
        let h = p.apply_graph(&g);
        for u in g.vertices() {
            for (k, &v) in g.out_neighbors(u).iter().enumerate() {
                let w = g.csr().weights_of(u)[k];
                let (nu, nv) = (p.new_id(u), p.new_id(v));
                let pos = h.out_neighbors(nu).iter().position(|&x| x == nv).unwrap();
                assert_eq!(h.csr().weights_of(nu)[pos], w);
            }
        }
    }

    #[test]
    fn apply_values_reindexes() {
        let p = Permutation::from_new_ids(vec![2, 0, 1]).unwrap();
        let vals = vec!["a", "b", "c"];
        assert_eq!(p.apply_values(&vals), vec!["b", "c", "a"]);
    }

    #[test]
    fn original_order_is_identity() {
        let g = sample();
        let p = OriginalOrder.compute(&g);
        assert!(p.is_identity());
        assert_eq!(OriginalOrder.name(), "Original");
    }
}
