//! Betweenness centrality (BC in Table II: vertex-oriented, backward,
//! medium/sparse frontiers) — the Brandes single-source formulation used
//! by Ligra: a forward BFS accumulating shortest-path counts, then a
//! backward sweep over the BFS levels accumulating dependencies.
//!
//! The backward sweep traverses the transposed graph through
//! [`PreparedGraph::transposed`], whose layouts are built once per
//! prepared graph and memoised — the analogue of Ligra's pointer swap —
//! so repeated calls pay only for the traversal. On a dirty epoch the
//! transposed handle carries the swapped delta overlay, so both phases
//! read the same edge set.

use crate::common::RunReport;
use std::sync::atomic::{AtomicBool, Ordering};
use vebo_engine::shared::{atomic_f64_vec, snapshot_f64, AtomicF64};
use vebo_engine::{EdgeOp, Executor, Frontier, PreparedGraph};
use vebo_graph::VertexId;

struct PathsOp<'a> {
    sigma: &'a [AtomicF64],
    visited: &'a [AtomicBool],
}

impl EdgeOp for PathsOp<'_> {
    fn update(&self, src: VertexId, dst: VertexId, _w: f32) -> bool {
        // Pull: dst is owned by one task; plain read-modify-write.
        let cell = &self.sigma[dst as usize];
        let old = cell.load();
        cell.store(old + self.sigma[src as usize].load());
        old == 0.0
    }
    fn update_atomic(&self, src: VertexId, dst: VertexId, _w: f32) -> bool {
        self.sigma[dst as usize].fetch_add(self.sigma[src as usize].load()) == 0.0
    }
    fn cond(&self, dst: VertexId) -> bool {
        !self.visited[dst as usize].load(Ordering::Relaxed)
    }
}

struct DepOp<'a> {
    sigma: &'a [AtomicF64],
    dep: &'a [AtomicF64],
    level: &'a [u32],
    current_level: u32,
}

impl EdgeOp for DepOp<'_> {
    // Traverses the *transposed* graph: src is a level-(L+1) vertex `w`,
    // dst is its level-L predecessor `u` on the original graph.
    fn update(&self, w: VertexId, u: VertexId, _weight: f32) -> bool {
        let add = self.sigma[u as usize].load() / self.sigma[w as usize].load()
            * (1.0 + self.dep[w as usize].load());
        let cell = &self.dep[u as usize];
        cell.store(cell.load() + add);
        true
    }
    fn update_atomic(&self, w: VertexId, u: VertexId, _weight: f32) -> bool {
        let add = self.sigma[u as usize].load() / self.sigma[w as usize].load()
            * (1.0 + self.dep[w as usize].load());
        self.dep[u as usize].fetch_add(add);
        true
    }
    fn cond(&self, u: VertexId) -> bool {
        self.level[u as usize] == self.current_level
    }
}

/// Single-source betweenness dependencies from `source` (Brandes'
/// delta values; summing over all sources would give exact BC — Ligra and
/// the paper likewise evaluate the single-source kernel).
pub fn bc(exec: &Executor, pg: &PreparedGraph, source: VertexId) -> (Vec<f64>, RunReport) {
    brandes(exec, pg, &pg.transposed(), source)
}

/// [`bc`] with the backward sweep over `tg`, the transpose of `pg`.
fn brandes(
    exec: &Executor,
    pg: &PreparedGraph,
    tg: &PreparedGraph,
    source: VertexId,
) -> (Vec<f64>, RunReport) {
    let (exec, rec) = exec.recorded();
    let n = pg.graph().num_vertices();

    // ---- forward phase: shortest-path counts and BFS levels ----
    let sigma = atomic_f64_vec(n, 0.0);
    sigma[source as usize].store(1.0);
    let visited: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    visited[source as usize].store(true, Ordering::Relaxed);
    let mut level = vec![u32::MAX; n];
    level[source as usize] = 0;

    let mut level_frontiers: Vec<Frontier> = vec![Frontier::single(n, source)];
    loop {
        let frontier = level_frontiers.last().unwrap();
        if frontier.is_empty() {
            level_frontiers.pop();
            break;
        }
        let op = PathsOp {
            sigma: &sigma,
            visited: &visited,
        };
        let (next, _) = exec.edge_map(pg, frontier, &op);
        // Mark the new frontier visited and record its level.
        let lev = level_frontiers.len() as u32;
        exec.vertex_map(pg, &next, |v| {
            visited[v as usize].store(true, Ordering::Relaxed);
            true
        });
        for v in next.iter_active() {
            level[v as usize] = lev;
        }
        level_frontiers.push(next);
    }

    // ---- backward phase: dependency accumulation on the transpose ----
    let dep = atomic_f64_vec(n, 0.0);
    for lev in (0..level_frontiers.len().saturating_sub(1)).rev() {
        let frontier = &level_frontiers[lev + 1];
        let op = DepOp {
            sigma: &sigma,
            dep: &dep,
            level: &level,
            current_level: lev as u32,
        };
        exec.edge_map(tg, frontier, &op);
    }

    (snapshot_f64(&dep), rec.take())
}

/// Reference sequential Brandes single-source dependencies (tests).
pub fn bc_reference(g: &vebo_graph::Graph, source: VertexId) -> Vec<f64> {
    let n = g.num_vertices();
    let mut sigma = vec![0.0f64; n];
    let mut dist = vec![i64::MAX; n];
    let mut order: Vec<VertexId> = Vec::new();
    sigma[source as usize] = 1.0;
    dist[source as usize] = 0;
    let mut queue = std::collections::VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for &v in g.out_neighbors(u) {
            if dist[v as usize] == i64::MAX {
                dist[v as usize] = dist[u as usize] + 1;
                queue.push_back(v);
            }
            if dist[v as usize] == dist[u as usize] + 1 {
                sigma[v as usize] += sigma[u as usize];
            }
        }
    }
    let mut dep = vec![0.0f64; n];
    for &u in order.iter().rev() {
        for &v in g.out_neighbors(u) {
            if dist[v as usize] == dist[u as usize] + 1 {
                dep[u as usize] += sigma[u as usize] / sigma[v as usize] * (1.0 + dep[v as usize]);
            }
        }
    }
    dep
}

#[cfg(test)]
mod tests {
    use super::*;
    use vebo_engine::SystemProfile;
    use vebo_graph::{Dataset, DynamicGraph, Graph};
    use vebo_partition::EdgeOrder;

    fn assert_close(got: &[f64], want: &[f64], tag: &str) {
        for (v, (a, b)) in got.iter().zip(want).enumerate() {
            assert!((a - b).abs() < 1e-6, "{tag}: v {v}: {a} vs {b}");
        }
    }

    #[test]
    fn diamond_graph_dependencies() {
        // 0 -> {1, 2} -> 3: two shortest paths through 1 and 2.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)], true);
        let want = bc_reference(&g, 0);
        assert_eq!(want, vec![3.0, 0.5, 0.5, 0.0]);
        let pg = PreparedGraph::new(g, SystemProfile::ligra_like());
        let (got, _) = bc(&Executor::new(SystemProfile::ligra_like()), &pg, 0);
        assert_close(&got, &want, "diamond");
    }

    #[test]
    fn matches_reference_on_all_profiles() {
        let g = Dataset::YahooLike.build(0.02);
        let src = g.vertices().max_by_key(|&v| g.out_degree(v)).unwrap();
        let want = bc_reference(&g, src);
        for profile in [
            SystemProfile::ligra_like(),
            SystemProfile::polymer_like(),
            SystemProfile::graphgrind_like(EdgeOrder::Csr),
        ] {
            let pg = PreparedGraph::new(g.clone(), profile);
            let (got, _) = bc(&Executor::new(profile), &pg, src);
            assert_close(&got, &want, profile.kind.name());
        }
    }

    #[test]
    fn line_graph_dependencies() {
        // Path 0 -> 1 -> 2 -> 3: dep[v] = #descendants on shortest paths.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)], true);
        let pg = PreparedGraph::new(g.clone(), SystemProfile::ligra_like());
        let (got, _) = bc(&Executor::new(SystemProfile::ligra_like()), &pg, 0);
        assert_close(&got, &[3.0, 2.0, 1.0, 0.0], "line");
    }

    #[test]
    fn dirty_epoch_matches_compacted_reference() {
        let dg = DynamicGraph::new(Graph::from_edges(
            5,
            &[(0, 1), (1, 2), (2, 3), (3, 4)],
            true,
        ));
        dg.insert_edge(0, 2).unwrap();
        dg.insert_edge(0, 3).unwrap();
        let pin = dg.pin();
        dg.compact();
        let want = bc_reference(&dg.snapshot(), 0);
        assert_eq!(want, vec![4.0, 0.0, 0.0, 1.0, 0.0]);
        for profile in [SystemProfile::ligra_like(), SystemProfile::polymer_like()] {
            let pg = PreparedGraph::for_pin(&pin, profile);
            for exec in [Executor::new(profile), Executor::sharded(profile, 2)] {
                let (got, _) = bc(&exec, &pg, 0);
                for (v, (a, b)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-9,
                        "{}: v {v}: {a} vs {b}",
                        profile.kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn memoised_transpose_is_bit_identical_to_a_per_call_rebuild() {
        let g = Dataset::YahooLike.build(0.02);
        let src = g.vertices().max_by_key(|&v| g.out_degree(v)).unwrap();
        for profile in [
            SystemProfile::ligra_like(),
            SystemProfile::polymer_like(),
            SystemProfile::graphgrind_like(EdgeOrder::Csr),
        ] {
            let pg = PreparedGraph::new(g.clone(), profile);
            let exec = Executor::new(profile);
            // Reference: the transpose prepared afresh for this one call.
            let rebuilt = PreparedGraph::builder(pg.graph().transposed())
                .profile(*pg.profile())
                .build()
                .unwrap();
            let (want, _) = brandes(&exec, &pg, &rebuilt, src);
            for _ in 0..2 {
                let (got, _) = bc(&exec, &pg, src);
                let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{}", profile.kind.name());
            }
        }
    }

    #[test]
    fn forced_directions_agree() {
        let g = Dataset::YahooLike.build(0.02);
        let src = g.vertices().max_by_key(|&v| g.out_degree(v)).unwrap();
        let pg = PreparedGraph::new(g.clone(), SystemProfile::ligra_like());
        let mut results = Vec::new();
        for force in [
            vebo_engine::Direction::Dense,
            vebo_engine::Direction::Sparse,
        ] {
            let exec = Executor::new(SystemProfile::ligra_like()).with_direction(force);
            let (dep, _) = bc(&exec, &pg, src);
            results.push(dep);
        }
        assert_close(&results[0], &results[1], "forced");
    }
}
