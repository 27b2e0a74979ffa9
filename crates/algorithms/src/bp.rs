//! Loopy belief propagation (BP in Table II: forward, edge-oriented,
//! dense frontiers, 10 iterations — Polymer's benchmark).
//!
//! Simplification versus textbook pairwise BP: beliefs live on vertices
//! and each iteration every vertex broadcasts a damped influence
//! `coupling(w) * tanh(belief)` to its out-neighbors (a mean-field /
//! vertex-level approximation). Textbook BP keeps one message per
//! directed edge; the vertex-level form has exactly the same traversal
//! and load-distribution structure (read source state, accumulate into
//! destination per edge), which is what the paper's evaluation exercises.
//! The substitution changes the beliefs computed, not the per-edge work or
//! its distribution across partitions.

use crate::common::RunReport;
use vebo_engine::shared::{atomic_f64_vec, snapshot_f64, AtomicF64};
use vebo_engine::{Direction, EdgeOp, Executor, Frontier, PreparedGraph};
use vebo_graph::graph::mix64;
use vebo_graph::VertexId;

/// Belief-propagation parameters.
#[derive(Clone, Copy, Debug)]
pub struct BpConfig {
    /// Iterations (paper: 10).
    pub iterations: usize,
    /// Maximum edge coupling strength (weights are mapped into
    /// `(0, max_coupling]`).
    pub max_coupling: f64,
}

impl Default for BpConfig {
    fn default() -> Self {
        BpConfig {
            iterations: 10,
            max_coupling: 0.5,
        }
    }
}

struct BpOp<'a> {
    influence: &'a [AtomicF64],
    acc: &'a [AtomicF64],
    scale: f64,
}

impl EdgeOp for BpOp<'_> {
    fn update(&self, src: VertexId, dst: VertexId, w: f32) -> bool {
        let cell = &self.acc[dst as usize];
        cell.store(cell.load() + self.scale * w as f64 * self.influence[src as usize].load());
        true
    }
    fn update_atomic(&self, src: VertexId, dst: VertexId, w: f32) -> bool {
        self.acc[dst as usize]
            .fetch_add(self.scale * w as f64 * self.influence[src as usize].load());
        true
    }
}

/// Runs vertex-level loopy BP; returns the belief (log-odds) vector.
/// The graph must carry weights, which act as coupling strengths.
pub fn bp(exec: &Executor, pg: &PreparedGraph, cfg: &BpConfig) -> (Vec<f64>, RunReport) {
    let (exec, rec) = exec.recorded();
    let g = pg.graph();
    assert!(g.has_weights(), "BP needs an edge-weighted graph");
    let n = g.num_vertices();
    if n == 0 {
        return (Vec::new(), RunReport::default());
    }
    // Deterministic priors in [-1, 1].
    let prior: Vec<f64> = (0..n)
        .map(|v| (mix64(v as u64 ^ 0xB0) % 2001) as f64 / 1000.0 - 1.0)
        .collect();
    let belief = atomic_f64_vec(n, 0.0);
    for (v, &p) in prior.iter().enumerate() {
        belief[v].store(p);
    }
    let influence = atomic_f64_vec(n, 0.0);
    let acc = atomic_f64_vec(n, 0.0);
    // Weights are hash-valued in [1, W]; normalize into (0, max_coupling].
    let wmax = (0..n as VertexId)
        .flat_map(|v| g.csr().weights_of(v).iter().copied())
        .fold(1.0f32, f32::max) as f64;
    let scale = cfg.max_coupling / wmax;
    let frontier = Frontier::all(n);

    for _ in 0..cfg.iterations {
        exec.vertex_map_all(pg, |v| {
            influence[v as usize].store(belief[v as usize].load().tanh());
            acc[v as usize].store(0.0);
            true
        });

        let op = BpOp {
            influence: &influence,
            acc: &acc,
            scale,
        };
        exec.edge_map_in(pg, &frontier, &op, Direction::Dense);

        exec.vertex_map_all(pg, |v| {
            belief[v as usize].store(prior[v as usize] + acc[v as usize].load());
            true
        });
    }
    (snapshot_f64(&belief), rec.take())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vebo_engine::SystemProfile;
    use vebo_graph::Dataset;
    use vebo_partition::EdgeOrder;

    fn graph() -> vebo_graph::Graph {
        Dataset::YahooLike.build(0.03).with_hash_weights(8)
    }

    #[test]
    fn profiles_agree_closely() {
        let g = graph();
        let mut results = Vec::new();
        for profile in [
            SystemProfile::ligra_like(),
            SystemProfile::polymer_like(),
            SystemProfile::graphgrind_like(EdgeOrder::Hilbert),
        ] {
            let pg = PreparedGraph::new(g.clone(), profile);
            let (b, _) = bp(&Executor::new(profile), &pg, &BpConfig::default());
            results.push(b);
        }
        for r in &results[1..] {
            for (a, b) in r.iter().zip(&results[0]) {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn beliefs_are_bounded() {
        let g = graph();
        let max_in = g.vertices().map(|v| g.in_degree(v)).max().unwrap() as f64;
        let pg = PreparedGraph::new(g, SystemProfile::ligra_like());
        let (b, _) = bp(
            &Executor::new(SystemProfile::ligra_like()),
            &pg,
            &BpConfig::default(),
        );
        let bound = 1.0 + 0.5 * max_in;
        assert!(b.iter().all(|&x| x.abs() <= bound + 1e-9));
    }

    #[test]
    fn isolated_vertex_keeps_prior() {
        let g = vebo_graph::Graph::from_edges_weighted(3, &[(0, 1)], Some(&[2.0]), true)
            .with_hash_weights(4);
        let pg = PreparedGraph::new(g, SystemProfile::ligra_like());
        let (b, _) = bp(
            &Executor::new(SystemProfile::ligra_like()),
            &pg,
            &BpConfig::default(),
        );
        let expected_prior = (mix64(2u64 ^ 0xB0) % 2001) as f64 / 1000.0 - 1.0;
        assert!((b[2] - expected_prior).abs() < 1e-12);
    }

    #[test]
    fn runs_requested_iterations_all_dense() {
        let g = graph();
        let m = g.num_edges() as u64;
        let profile = SystemProfile::graphgrind_like(EdgeOrder::Csr);
        let pg = PreparedGraph::new(g, profile);
        let cfg = BpConfig {
            iterations: 4,
            ..Default::default()
        };
        let (_, report) = bp(&Executor::new(profile), &pg, &cfg);
        assert_eq!(report.iterations, 4);
        assert_eq!(report.total_edges(), 4 * m);
    }
}
