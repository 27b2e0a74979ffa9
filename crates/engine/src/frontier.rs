//! Frontiers (vertex subsets), with the dense/sparse dual representation
//! and automatic switching all three frameworks in the paper implement.

use crate::shared::AtomicBitset;
use std::borrow::Cow;
use vebo_graph::{Graph, VertexId};

/// A subset of the vertices, stored sparse (id list) or dense (bitmap).
#[derive(Clone, Debug)]
pub enum Frontier {
    /// Sorted list of active vertex ids.
    Sparse {
        /// Total vertices in the graph.
        num_vertices: usize,
        /// Active vertex ids, sorted ascending.
        vertices: Vec<VertexId>,
    },
    /// Bitmap plus population count.
    Dense {
        /// One bit per vertex, 64 per word.
        bits: Vec<u64>,
        /// Number of set bits.
        count: usize,
        /// Total vertices in the graph.
        num_vertices: usize,
    },
}

/// Density classes as used in Table II ("d", "m", "s").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DensityClass {
    /// Most vertices active ("d").
    Dense,
    /// A moderate share active ("m").
    MediumDense,
    /// Few vertices active ("s").
    Sparse,
}

impl DensityClass {
    /// Single-letter code as printed in Table II.
    pub fn code(self) -> &'static str {
        match self {
            DensityClass::Dense => "d",
            DensityClass::MediumDense => "m",
            DensityClass::Sparse => "s",
        }
    }
}

impl Frontier {
    /// The empty frontier.
    pub fn empty(num_vertices: usize) -> Frontier {
        Frontier::Sparse {
            num_vertices,
            vertices: Vec::new(),
        }
    }

    /// A single active vertex.
    pub fn single(num_vertices: usize, v: VertexId) -> Frontier {
        Frontier::Sparse {
            num_vertices,
            vertices: vec![v],
        }
    }

    /// All vertices active (dense).
    pub fn all(num_vertices: usize) -> Frontier {
        let mut bits = vec![u64::MAX; num_vertices.div_ceil(64)];
        trim_tail(&mut bits, num_vertices);
        Frontier::Dense {
            bits,
            count: num_vertices,
            num_vertices,
        }
    }

    /// From an explicit vertex list (sorted + deduped internally).
    pub fn from_vertices(num_vertices: usize, mut vertices: Vec<VertexId>) -> Frontier {
        vertices.sort_unstable();
        vertices.dedup();
        debug_assert!(vertices.iter().all(|&v| (v as usize) < num_vertices));
        Frontier::Sparse {
            num_vertices,
            vertices,
        }
    }

    /// A sparse frontier from a list the caller guarantees is already
    /// sorted ascending and duplicate-free — skips the re-sort of
    /// [`Frontier::from_vertices`]. Callers that maintain sorted active
    /// sets across rounds (e.g. the cluster runtime's per-superstep
    /// frontiers) use this on their hot path; the invariant is checked
    /// in debug builds.
    pub fn from_sorted_vertices(num_vertices: usize, vertices: Vec<VertexId>) -> Frontier {
        debug_assert!(
            vertices.windows(2).all(|w| w[0] < w[1]),
            "vertices must be strictly ascending"
        );
        debug_assert!(vertices.iter().all(|&v| (v as usize) < num_vertices));
        Frontier::Sparse {
            num_vertices,
            vertices,
        }
    }

    /// From a finished next-frontier bitset.
    pub fn from_bitset(bits: AtomicBitset) -> Frontier {
        let num_vertices = bits.len();
        let count = bits.count();
        Frontier::Dense {
            bits: bits.into_words(),
            count,
            num_vertices,
        }
    }

    /// Number of active vertices.
    pub fn len(&self) -> usize {
        match self {
            Frontier::Sparse { vertices, .. } => vertices.len(),
            Frontier::Dense { count, .. } => *count,
        }
    }

    /// `true` when no vertex is active.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total vertex-space size `n`.
    pub fn num_vertices(&self) -> usize {
        match self {
            Frontier::Sparse { num_vertices, .. } => *num_vertices,
            Frontier::Dense { num_vertices, .. } => *num_vertices,
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        match self {
            Frontier::Sparse { vertices, .. } => vertices.binary_search(&v).is_ok(),
            Frontier::Dense { bits, .. } => bits[v as usize >> 6] & (1 << (v as usize & 63)) != 0,
        }
    }

    /// Sum of out-degrees of active vertices — the second term of Ligra's
    /// density heuristic.
    pub fn active_out_degree(&self, g: &Graph) -> u64 {
        match self {
            Frontier::Sparse { vertices, .. } => {
                vertices.iter().map(|&v| g.out_degree(v) as u64).sum()
            }
            Frontier::Dense { .. } => self.iter_active().map(|v| g.out_degree(v) as u64).sum(),
        }
    }

    /// Ligra's direction heuristic: dense when
    /// `|F| + outdeg(F) > m / threshold_den` (threshold_den = 20).
    pub fn is_dense_for(&self, g: &Graph, threshold_den: usize) -> bool {
        let work = self.len() as u64 + self.active_out_degree(g);
        work > (g.num_edges() / threshold_den) as u64
    }

    /// Density class for Table II: dense if active vertices exceed n/2,
    /// sparse if the work heuristic stays below m/20, medium otherwise.
    pub fn density_class(&self, g: &Graph) -> DensityClass {
        if self.len() * 2 >= g.num_vertices() {
            DensityClass::Dense
        } else if !self.is_dense_for(g, 20) {
            DensityClass::Sparse
        } else {
            DensityClass::MediumDense
        }
    }

    /// The dense-bitmap form: borrows `self` when already dense (no copy),
    /// materializes the bitmap otherwise.
    pub fn to_dense(&self) -> Cow<'_, Frontier> {
        let Frontier::Sparse {
            num_vertices,
            vertices,
        } = self
        else {
            return Cow::Borrowed(self);
        };
        let mut bits = vec![0u64; num_vertices.div_ceil(64)];
        for &v in vertices {
            bits[v as usize >> 6] |= 1 << (v as usize & 63);
        }
        Cow::Owned(Frontier::Dense {
            bits,
            count: vertices.len(),
            num_vertices: *num_vertices,
        })
    }

    /// The sorted-id-list form: borrows `self` when already sparse (no
    /// copy), materializes the list otherwise.
    pub fn to_sparse(&self) -> Cow<'_, Frontier> {
        let Frontier::Dense {
            bits, num_vertices, ..
        } = self
        else {
            return Cow::Borrowed(self);
        };
        let mut vertices = Vec::with_capacity(self.len());
        for (w, &word) in bits.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let b = word.trailing_zeros() as usize;
                vertices.push((w * 64 + b) as VertexId);
                word &= word - 1;
            }
        }
        Cow::Owned(Frontier::Sparse {
            num_vertices: *num_vertices,
            vertices,
        })
    }

    /// Iterates active vertices in ascending id order.
    pub fn iter_active(&self) -> Box<dyn Iterator<Item = VertexId> + '_> {
        match self {
            Frontier::Sparse { vertices, .. } => Box::new(vertices.iter().copied()),
            Frontier::Dense { bits, .. } => {
                Box::new(bits.iter().enumerate().flat_map(|(w, &word)| {
                    let mut out = Vec::with_capacity(word.count_ones() as usize);
                    let mut word = word;
                    while word != 0 {
                        let b = word.trailing_zeros() as usize;
                        out.push((w * 64 + b) as VertexId);
                        word &= word - 1;
                    }
                    out
                }))
            }
        }
    }

    /// Dense word view (panics on sparse frontiers; call `to_dense` first).
    pub fn words(&self) -> &[u64] {
        match self {
            Frontier::Dense { bits, .. } => bits,
            Frontier::Sparse { .. } => panic!("frontier is sparse; call to_dense() first"),
        }
    }
}

fn trim_tail(bits: &mut [u64], n: usize) {
    let tail = n & 63;
    if tail != 0 {
        if let Some(last) = bits.last_mut() {
            *last &= (1u64 << tail) - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vebo_graph::Dataset;

    #[test]
    fn empty_and_all() {
        let e = Frontier::empty(100);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let a = Frontier::all(100);
        assert_eq!(a.len(), 100);
        assert!(a.contains(0) && a.contains(99));
    }

    #[test]
    fn all_trims_tail_bits() {
        let a = Frontier::all(70);
        assert_eq!(a.len(), 70);
        // Count of raw bits must also be 70 (no stray tail bits).
        let total: u32 = a.words().iter().map(|w| w.count_ones()).sum();
        assert_eq!(total, 70);
    }

    #[test]
    fn sparse_dense_roundtrip() {
        let f = Frontier::from_vertices(200, vec![5, 64, 63, 128, 199, 5]);
        assert_eq!(f.len(), 5); // dedup
        let d = f.to_dense();
        assert_eq!(d.len(), 5);
        let s = d.to_sparse();
        let ids: Vec<VertexId> = s.iter_active().collect();
        assert_eq!(ids, vec![5, 63, 64, 128, 199]);
    }

    /// Converting to the representation a frontier already has borrows it.
    #[test]
    fn conversion_to_own_representation_borrows() {
        let s = Frontier::from_vertices(200, vec![5, 64]);
        assert!(matches!(s.to_sparse(), Cow::Borrowed(_)));
        assert!(matches!(s.to_dense(), Cow::Owned(_)));
        let d = Frontier::all(200);
        assert!(matches!(d.to_dense(), Cow::Borrowed(_)));
        assert!(matches!(d.to_sparse(), Cow::Owned(_)));
    }

    #[test]
    fn contains_agrees_between_representations() {
        let f = Frontier::from_vertices(128, vec![1, 2, 70]);
        let d = f.to_dense();
        for v in 0..128 {
            assert_eq!(f.contains(v), d.contains(v), "v = {v}");
        }
    }

    #[test]
    fn active_out_degree_sums() {
        let g = vebo_graph::Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3)], true);
        let f = Frontier::from_vertices(4, vec![0, 1]);
        assert_eq!(f.active_out_degree(&g), 3);
        assert_eq!(f.to_dense().active_out_degree(&g), 3);
    }

    #[test]
    fn ligra_density_heuristic() {
        let g = Dataset::YahooLike.build(0.05);
        let n = g.num_vertices();
        assert!(Frontier::all(n).is_dense_for(&g, 20));
        assert!(!Frontier::single(n, 0).is_dense_for(&g, 20));
    }

    #[test]
    fn density_classes() {
        let g = Dataset::YahooLike.build(0.05);
        let n = g.num_vertices();
        assert_eq!(Frontier::all(n).density_class(&g), DensityClass::Dense);
        // An isolated-ish single vertex is sparse.
        let v = g.vertices().min_by_key(|&v| g.out_degree(v)).unwrap();
        assert_eq!(
            Frontier::single(n, v).density_class(&g),
            DensityClass::Sparse
        );
        assert_eq!(DensityClass::MediumDense.code(), "m");
    }

    #[test]
    fn from_bitset_counts() {
        let b = AtomicBitset::new(80);
        b.set(3);
        b.set(79);
        let f = Frontier::from_bitset(b);
        assert_eq!(f.len(), 2);
        assert!(f.contains(3) && f.contains(79));
    }

    #[test]
    fn iter_active_on_dense_matches_sparse() {
        let f = Frontier::from_vertices(300, vec![0, 64, 65, 255, 299]);
        let d = f.to_dense();
        let a: Vec<VertexId> = f.iter_active().collect();
        let b: Vec<VertexId> = d.iter_active().collect();
        assert_eq!(a, b);
    }
}
