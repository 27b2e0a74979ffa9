//! `vertex_map`: apply a function to every active vertex (Ligra's
//! `VERTEXMAP`), returning the subset for which it returned `true`.
//!
//! GraphGrind "spreads the iterations of the vertexmap loop equally across
//! all threads" (§V-F) while the data stays distributed by partition —
//! the engine reproduces that: dense vertexmap tasks are the partition
//! ranges, sparse vertexmap tasks are chunks of the active list.

use crate::edge_map::TaskStats;
use crate::executor::TaskPolicy;
use crate::frontier::Frontier;
use crate::prepared::PreparedGraph;
use crate::sharded::ShardOpReport;
use crate::shared::AtomicBitset;
use vebo_graph::VertexId;

/// Result of one `vertex_map`: per-task stats (work = vertices scanned).
#[derive(Clone, Debug)]
pub struct VertexMapReport {
    /// Per-task (per-thread-chunk) measurements.
    pub tasks: Vec<TaskStats>,
    /// Per-shard queue/occupancy measurements — `Some` exactly when the
    /// operation ran on the sharded backend
    /// ([`crate::ExecMode::Sharded`]).
    pub shards: Option<ShardOpReport>,
}

impl VertexMapReport {
    /// Total vertices scanned.
    pub fn total_vertices(&self) -> u64 {
        self.tasks.iter().map(|t| t.vertices).sum()
    }

    /// Total sequential time.
    pub fn total_nanos(&self) -> u64 {
        self.tasks.iter().map(|t| t.nanos).sum()
    }
}

/// The kernel behind [`crate::Executor::vertex_map`]: dense vertexmap
/// tasks are the partition ranges, sparse vertexmap tasks are chunks of
/// the active list.
pub(crate) fn vertex_map_impl<F>(
    pg: &PreparedGraph,
    frontier: &Frontier,
    f: F,
    policy: &TaskPolicy,
) -> (Frontier, VertexMapReport)
where
    F: Fn(VertexId) -> bool + Sync,
{
    let n = pg.graph().num_vertices();
    let next = AtomicBitset::new(n);
    let (tasks, shards) = match frontier {
        Frontier::Dense { .. } => {
            // Borrow the membership bits in place: the frontier is
            // already dense in this arm, so no clone-and-copy is needed
            // and the scan reads the caller's words directly.
            let words = frontier.words();
            let bounds = pg.tasks();
            run(bounds.num_partitions(), policy, |t| {
                let mut scanned = 0u64;
                // The task owns its range: collect in plain words, flush
                // once per word (see `AtomicBitset::range_writer`).
                let mut out = next.range_writer(bounds.range(t));
                for v in bounds.range(t) {
                    if words[v >> 6] >> (v & 63) & 1 == 1 {
                        scanned += 1;
                        if f(v as VertexId) {
                            out.set(v);
                        }
                    }
                }
                scanned
            })
        }
        Frontier::Sparse { vertices, .. } => {
            let chunks = pg.num_tasks().min(vertices.len()).max(1);
            run(chunks, policy, |c| {
                let lo = c * vertices.len() / chunks;
                let hi = (c + 1) * vertices.len() / chunks;
                for &v in &vertices[lo..hi] {
                    if f(v) {
                        next.set(v as usize);
                    }
                }
                (hi - lo) as u64
            })
        }
    };
    let out = Frontier::from_bitset(next);
    // Same representation switch, on the same threshold, as `edge_map`.
    let out = if out.len() * policy.threshold_den < n {
        out.to_sparse().into_owned()
    } else {
        out
    };
    (out, VertexMapReport { tasks, shards })
}

fn run<F>(num_tasks: usize, policy: &TaskPolicy, f: F) -> (Vec<TaskStats>, Option<ShardOpReport>)
where
    F: Fn(usize) -> u64 + Sync,
{
    policy.run(num_tasks, |t| (0, f(t)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{ExecMode, Executor};
    use crate::profile::SystemProfile;
    use std::sync::atomic::{AtomicU64, Ordering};
    use vebo_graph::Dataset;

    #[test]
    fn filters_by_predicate() {
        let g = Dataset::YahooLike.build(0.05);
        let n = g.num_vertices();
        let pg = PreparedGraph::new(g, SystemProfile::ligra_like());
        let exec = Executor::new(SystemProfile::ligra_like());
        let (out, rep) = exec.vertex_map_all(&pg, |v| v % 3 == 0);
        let expect = n.div_ceil(3);
        assert_eq!(out.len(), expect);
        assert_eq!(rep.total_vertices(), n as u64);
        for v in out.iter_active() {
            assert_eq!(v % 3, 0);
        }
    }

    #[test]
    fn sparse_frontier_only_touches_active() {
        let g = Dataset::YahooLike.build(0.05);
        let n = g.num_vertices();
        let pg = PreparedGraph::new(g, SystemProfile::polymer_like());
        let exec = Executor::new(SystemProfile::polymer_like());
        let touched = AtomicU64::new(0);
        let f = Frontier::from_vertices(n, vec![1, 5, 9]);
        let (out, rep) = exec.vertex_map(&pg, &f, |v| {
            touched.fetch_add(1, Ordering::Relaxed);
            v != 5
        });
        assert_eq!(touched.load(Ordering::Relaxed), 3);
        assert_eq!(rep.total_vertices(), 3);
        let got: Vec<_> = out.iter_active().collect();
        assert_eq!(got, vec![1, 9]);
    }

    #[test]
    fn dense_frontier_respects_membership() {
        let g = Dataset::YahooLike.build(0.05);
        let n = g.num_vertices();
        let pg = PreparedGraph::new(g, SystemProfile::ligra_like());
        let f = Frontier::from_vertices(n, vec![2, 4, 6])
            .to_dense()
            .into_owned();
        let (out, _) = Executor::new(SystemProfile::ligra_like()).vertex_map(&pg, &f, |_| true);
        let got: Vec<_> = out.iter_active().collect();
        assert_eq!(got, vec![2, 4, 6]);
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = Dataset::YahooLike.build(0.05);
        let profile = SystemProfile::graphgrind_like(vebo_partition::EdgeOrder::Csr);
        let pg = PreparedGraph::new(g, profile);
        let (a, _) = Executor::new(profile).vertex_map_all(&pg, |v| v % 7 == 1);
        let (b, _) = Executor::new(profile)
            .with_mode(ExecMode::Sharded { shards: 2 })
            .vertex_map_all(&pg, |v| v % 7 == 1);
        let va: Vec<_> = a.iter_active().collect();
        let vb: Vec<_> = b.iter_active().collect();
        assert_eq!(va, vb);
    }

    /// The sharded backend agrees with the executor's sequential mode
    /// and carries a per-shard report.
    #[test]
    fn sharded_matches_sequential() {
        let g = Dataset::YahooLike.build(0.05);
        let profile = SystemProfile::ligra_like();
        let pg = PreparedGraph::new(g, profile);
        let (a, _) = Executor::new(profile).vertex_map_all(&pg, |v| v % 5 == 2);
        let (b, rep) = Executor::sharded(profile, 3).vertex_map_all(&pg, |v| v % 5 == 2);
        let va: Vec<_> = a.iter_active().collect();
        let vb: Vec<_> = b.iter_active().collect();
        assert_eq!(va, vb);
        let shards = rep.shards.expect("sharded run reports shard stats");
        assert_eq!(shards.shards.len(), 3);
        let done: u64 = shards
            .shards
            .iter()
            .map(|s| s.tasks_run + s.tasks_stolen)
            .sum();
        assert_eq!(done, rep.tasks.len() as u64);
    }
}
