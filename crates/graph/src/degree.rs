//! Degree statistics and the Table I graph characterization.

use crate::graph::Graph;
use crate::par::{self, SharedSlice};
use crate::types::VertexId;
use rayon::prelude::*;

/// Per-graph summary matching the columns of Table I in the paper.
#[derive(Clone, Debug, PartialEq)]
pub struct Characterization {
    /// Vertex count.
    pub vertices: usize,
    /// Stored arc count.
    pub edges: usize,
    /// Maximum in-degree ("Max. Degree" in Table I).
    pub max_in_degree: usize,
    /// Vertices with zero in-degree.
    pub zero_in_degree: usize,
    /// Vertices with zero out-degree.
    pub zero_out_degree: usize,
}

impl Characterization {
    /// Percentage of vertices with zero in-degree.
    pub fn pct_zero_in(&self) -> f64 {
        100.0 * self.zero_in_degree as f64 / self.vertices.max(1) as f64
    }

    /// Percentage of vertices with zero out-degree.
    pub fn pct_zero_out(&self) -> f64 {
        100.0 * self.zero_out_degree as f64 / self.vertices.max(1) as f64
    }
}

/// Computes the Table I characterization of a graph.
pub fn characterize(g: &Graph) -> Characterization {
    let mut max_in = 0usize;
    let mut zero_in = 0usize;
    let mut zero_out = 0usize;
    for v in g.vertices() {
        let din = g.in_degree(v);
        max_in = max_in.max(din);
        if din == 0 {
            zero_in += 1;
        }
        if g.out_degree(v) == 0 {
            zero_out += 1;
        }
    }
    Characterization {
        vertices: g.num_vertices(),
        edges: g.num_edges(),
        max_in_degree: max_in,
        zero_in_degree: zero_in,
        zero_out_degree: zero_out,
    }
}

/// In-degrees of every vertex as a dense array.
pub fn in_degrees(g: &Graph) -> Vec<u32> {
    g.vertices().map(|v| g.in_degree(v) as u32).collect()
}

/// Histogram of in-degrees: `hist[d]` = number of vertices with in-degree
/// `d`. Length is `max_in_degree + 1` (or 1 for an edgeless graph).
/// Built from per-chunk histograms over vertex ranges, merged per degree.
pub fn in_degree_histogram(g: &Graph) -> Vec<usize> {
    par::stage(g.num_vertices(), || {
        let (locals, _) = local_histograms(g);
        (0..locals[0].len())
            .into_par_iter()
            .map(|d| locals.iter().map(|l| l[d]).sum::<usize>())
            .collect()
    })
}

/// Splits `0..n` into one contiguous vertex range per rayon thread,
/// capping the chunk count so the per-chunk histogram scratch
/// (`chunks * buckets` words) stays within a small multiple of `n` even
/// when one hub vertex drives `buckets` toward `n` — the power-law
/// regime this crate targets. Returns `(chunks, per)`.
fn vertex_chunks(n: usize, buckets: usize) -> (usize, usize) {
    let budget = (4 * n.max(1)).div_ceil(buckets.max(1)).max(1);
    let chunks = rayon::current_num_threads().min(budget).clamp(1, n.max(1));
    (chunks, n.div_ceil(chunks))
}

/// Per-chunk in-degree histograms, each `max_in_degree + 1` long: chunk
/// `c` counts vertices `[c * per, (c + 1) * per)`. Returns the (never
/// empty) histograms and `per`.
fn local_histograms(g: &Graph) -> (Vec<Vec<usize>>, usize) {
    let n = g.num_vertices();
    let max_in = (0..n as VertexId)
        .into_par_iter()
        .map(|v| g.in_degree(v))
        .reduce(|| 0, usize::max);
    let buckets = max_in + 1;
    let (chunks, per) = vertex_chunks(n, buckets);
    let locals = (0..chunks)
        .into_par_iter()
        .map(|c| {
            let mut h = vec![0usize; buckets];
            for v in (c * per)..((c + 1) * per).min(n) {
                h[g.in_degree(v as VertexId)] += 1;
            }
            h
        })
        .collect();
    (locals, per)
}

/// Vertices sorted by decreasing in-degree — the placement order of VEBO's
/// phase 1. Implemented as a counting sort over the degree histogram, which
/// is the `O(|V|)` "radix-like" sort the paper's complexity analysis (§III-E)
/// relies on. Ties are broken by ascending vertex id for determinism.
///
/// The sort mirrors the CSR builder: per-chunk histograms become per-chunk
/// scatter bases via a prefix pass, so every vertex lands in the same slot
/// for every chunk count.
pub fn vertices_by_decreasing_in_degree(g: &Graph) -> Vec<VertexId> {
    par::stage(g.num_vertices(), || {
        let n = g.num_vertices();
        let (locals, per) = local_histograms(g);
        let (chunks, buckets) = (locals.len(), locals[0].len());
        // start[d]: first output slot of degree d (degrees laid out high→low).
        let mut start = vec![0usize; buckets];
        let mut acc = 0usize;
        for d in (0..buckets).rev() {
            start[d] = acc;
            acc += locals.iter().map(|l| l[d]).sum::<usize>();
        }
        // bases[c * buckets + d]: chunk c's first slot for degree d, counting
        // all of degree d's vertices in chunks < c, which keeps ascending
        // vertex id within a degree.
        let mut bases = vec![0usize; chunks * buckets];
        {
            let shared = SharedSlice::new(&mut bases);
            (0..buckets).into_par_iter().for_each(|d| {
                let mut acc = start[d];
                for (c, l) in locals.iter().enumerate() {
                    // SAFETY: slots {c * buckets + d | c} are disjoint per d.
                    unsafe { shared.write(c * buckets + d, acc) };
                    acc += l[d];
                }
            });
        }
        let mut order = vec![0 as VertexId; n];
        {
            let shared = SharedSlice::new(&mut order);
            (0..chunks).into_par_iter().for_each(|c| {
                let mut cursor = bases[c * buckets..(c + 1) * buckets].to_vec();
                for v in (c * per)..((c + 1) * per).min(n) {
                    let d = g.in_degree(v as VertexId);
                    // SAFETY: per-chunk cursor ranges partition the output.
                    unsafe { shared.write(cursor[d], v as VertexId) };
                    cursor[d] += 1;
                }
            });
        }
        order
    })
}

/// Estimates the Zipf exponent `s` of the in-degree distribution by a
/// log-log least-squares fit over the degree histogram (degrees >= 1).
/// Returns `None` when there are fewer than two distinct non-zero degrees.
pub fn estimate_zipf_exponent(g: &Graph) -> Option<f64> {
    let hist = in_degree_histogram(g);
    let pts: Vec<(f64, f64)> = hist
        .iter()
        .enumerate()
        .skip(1)
        .filter(|&(_, &c)| c > 0)
        .map(|(d, &c)| ((d as f64).ln(), (c as f64).ln()))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    // Degree counts fall as d^{-alpha}; the paper's s relates to the
    // power-law exponent alpha via alpha = 1 + 1/s (footnote 1).
    let alpha = -slope;
    if alpha <= 1.0 {
        return None;
    }
    Some(1.0 / (alpha - 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star(n: usize) -> Graph {
        // all vertices point at 0
        let edges: Vec<(VertexId, VertexId)> = (1..n as VertexId).map(|u| (u, 0)).collect();
        Graph::from_edges(n, &edges, true)
    }

    #[test]
    fn characterize_star() {
        let g = star(5);
        let c = characterize(&g);
        assert_eq!(c.vertices, 5);
        assert_eq!(c.edges, 4);
        assert_eq!(c.max_in_degree, 4);
        assert_eq!(c.zero_in_degree, 4); // only vertex 0 has in-edges
        assert_eq!(c.zero_out_degree, 1);
        assert!((c.pct_zero_in() - 80.0).abs() < 1e-9);
        assert!((c.pct_zero_out() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_sums_to_n() {
        let g = star(7);
        let h = in_degree_histogram(&g);
        assert_eq!(h.iter().sum::<usize>(), 7);
        assert_eq!(h[0], 6);
        assert_eq!(h[6], 1);
    }

    #[test]
    fn degree_arrays_match_graph() {
        let g = Graph::from_edges(3, &[(0, 1), (2, 1), (1, 0)], true);
        assert_eq!(in_degrees(&g), vec![1, 2, 0]);
    }

    #[test]
    fn decreasing_degree_order_is_sorted_and_stable() {
        let g = Graph::from_edges(5, &[(1, 0), (2, 0), (3, 0), (0, 1), (2, 1), (0, 4)], true);
        // in-degrees: 0:3, 1:2, 2:0, 3:0, 4:1
        let order = vertices_by_decreasing_in_degree(&g);
        assert_eq!(order, vec![0, 1, 4, 2, 3]);
        let degs: Vec<usize> = order.iter().map(|&v| g.in_degree(v)).collect();
        assert!(degs.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn decreasing_degree_order_is_permutation() {
        let g = star(9);
        let mut order = vertices_by_decreasing_in_degree(&g);
        order.sort_unstable();
        assert_eq!(order, (0..9).collect::<Vec<VertexId>>());
    }

    #[test]
    fn zipf_estimate_recovers_rough_exponent() {
        // Construct a graph whose in-degree histogram is exactly d^-2
        // shaped: count(d) proportional to d^-2 for d in 1..=8.
        let mut edges = Vec::new();
        let mut next_src = 0u32;
        let mut v = 0u32;
        let counts = [64usize, 16, 7, 4, 2, 1, 1, 1]; // ~ 64/d^2
        let n_vertices: usize = counts.iter().sum::<usize>() + 1000;
        for (d0, &c) in counts.iter().enumerate() {
            let d = d0 + 1;
            for _ in 0..c {
                for _ in 0..d {
                    edges.push((next_src % n_vertices as u32, v));
                    next_src += 1;
                }
                v += 1;
            }
        }
        let g = Graph::from_edges(n_vertices, &edges, true);
        let s = estimate_zipf_exponent(&g).expect("fit should succeed");
        // alpha ~= 2 => s ~= 1
        assert!((0.5..2.0).contains(&s), "s = {s}");
    }

    #[test]
    fn zipf_estimate_none_for_uniform() {
        // A cycle has a single distinct degree: fit is impossible.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)], true);
        assert_eq!(estimate_zipf_exponent(&g), None);
    }
}
