//! Integration tests for the executor-centric engine API: execution
//! policy (sequential vs sharded, NUMA placement on vs off) must never
//! change algorithm results, on any profile, for all eight algorithms —
//! and statically scheduled executors must report a socket for every
//! task.

use proptest::prelude::*;
use vebo::engine::{Executor, PreparedGraph, SystemProfile};
use vebo::partition::EdgeOrder;
use vebo_algorithms::bc::bc;
use vebo_algorithms::bellman_ford::bellman_ford;
use vebo_algorithms::bfs::{bfs, levels_from_parents};
use vebo_algorithms::bp::{bp, BpConfig};
use vebo_algorithms::cc::cc;
use vebo_algorithms::pagerank::{pagerank, PageRankConfig};
use vebo_algorithms::pagerank_delta::{pagerank_delta, PageRankDeltaConfig};
use vebo_algorithms::spmv::spmv;
use vebo_algorithms::{default_source, needs_weights, AlgorithmKind};
use vebo_graph::graph::mix64;
use vebo_graph::{Graph, VertexId};

fn profiles() -> [SystemProfile; 3] {
    [
        SystemProfile::ligra_like(),
        SystemProfile::polymer_like(),
        SystemProfile::graphgrind_like(EdgeOrder::Csr),
    ]
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (4usize..40, 4usize..200, any::<u64>()).prop_map(|(n, m, seed)| {
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

/// A floating-point digest of one algorithm's result under `exec`.
/// BFS parents are reduced to levels (parent *choice* is a legitimate
/// tie-break, levels are not); everything else is the result vector.
fn digest(kind: AlgorithmKind, exec: &Executor, pg: &PreparedGraph) -> Vec<f64> {
    let src = default_source(pg.graph());
    match kind {
        AlgorithmKind::Pr => pagerank(exec, pg, &PageRankConfig::default()).0,
        AlgorithmKind::Prd => pagerank_delta(exec, pg, &PageRankDeltaConfig::default()).0,
        AlgorithmKind::Bfs => levels_from_parents(&bfs(exec, pg, src).0, src)
            .into_iter()
            .map(f64::from)
            .collect(),
        AlgorithmKind::Bc => bc(exec, pg, src).0,
        AlgorithmKind::Cc => cc(exec, pg).0.into_iter().map(f64::from).collect(),
        AlgorithmKind::Spmv => {
            let x: Vec<f64> = (0..pg.graph().num_vertices())
                .map(|i| ((i % 17) as f64) / 17.0)
                .collect();
            spmv(exec, pg, &x).0
        }
        AlgorithmKind::Bf => bellman_ford(exec, pg, src).0,
        AlgorithmKind::Bp => bp(exec, pg, &BpConfig::default()).0,
    }
}

fn assert_digests_agree(a: &[f64], b: &[f64], tag: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len(), "{}: lengths differ", tag);
    for (v, (x, y)) in a.iter().zip(b).enumerate() {
        prop_assert!(
            (x.is_infinite() && y.is_infinite() && x.signum() == y.signum())
                || (x - y).abs() < 1e-6,
            "{}: vertex {} differs: {} vs {}",
            tag,
            v,
            x,
            y
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sequential and sharded (parallel) executors produce the same
    /// results for all 8 algorithms x 3 system profiles.
    #[test]
    fn sequential_matches_parallel_for_every_algorithm(g in arb_graph()) {
        for profile in profiles() {
            for kind in AlgorithmKind::ALL {
                let g = if needs_weights(kind) {
                    g.clone().with_hash_weights(8)
                } else {
                    g.clone()
                };
                let pg = PreparedGraph::builder(g).profile(profile).build().unwrap();
                let seq = digest(kind, &Executor::new(profile), &pg);
                let par = digest(kind, &Executor::sharded(profile, 2), &pg);
                assert_digests_agree(
                    &seq,
                    &par,
                    &format!("{} on {:?}", kind.code(), profile.kind),
                )?;
            }
        }
    }

    /// NUMA placement reorders task execution (socket-major interleave)
    /// but never changes results, for all 8 algorithms on the statically
    /// scheduled profiles.
    #[test]
    fn numa_placement_preserves_results_for_every_algorithm(g in arb_graph()) {
        for profile in [
            SystemProfile::polymer_like(),
            SystemProfile::graphgrind_like(EdgeOrder::Csr),
        ] {
            for kind in AlgorithmKind::ALL {
                let g = if needs_weights(kind) {
                    g.clone().with_hash_weights(8)
                } else {
                    g.clone()
                };
                let pg = PreparedGraph::builder(g).profile(profile).build().unwrap();
                let placed = digest(kind, &Executor::new(profile), &pg);
                let unplaced = digest(
                    kind,
                    &Executor::new(profile).with_numa_placement(false),
                    &pg,
                );
                assert_digests_agree(
                    &placed,
                    &unplaced,
                    &format!("{} on {:?}", kind.code(), profile.kind),
                )?;
            }
        }
    }

    /// The NUMA-placed task visiting order is a permutation of the
    /// unplaced (index) order.
    #[test]
    fn placed_task_order_is_a_permutation(num_tasks in 1usize..500) {
        for profile in [
            SystemProfile::polymer_like(),
            SystemProfile::graphgrind_like(EdgeOrder::Hilbert),
        ] {
            let plan = Executor::new(profile)
                .placement(num_tasks)
                .expect("static profiles are placed");
            let order = plan.execution_order();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..num_tasks).collect::<Vec<_>>());
        }
    }
}

/// Acceptance: an executor built from a `polymer_like()` or
/// `graphgrind_like()` profile reports a socket assignment for every
/// task of a prepared graph, and the assignments tile the topology.
#[test]
fn static_executors_report_socket_assignments() {
    let g = vebo::graph::Dataset::TwitterLike.build(0.05);
    for profile in [
        SystemProfile::polymer_like(),
        SystemProfile::graphgrind_like(EdgeOrder::Csr),
    ] {
        let exec = Executor::new(profile);
        let pg = PreparedGraph::builder(g.clone())
            .profile(profile)
            .build()
            .unwrap();
        let plan = exec
            .placement(pg.num_tasks())
            .expect("static profiles are placed");
        assert_eq!(plan.num_tasks(), pg.num_tasks());
        let mut per_socket = vec![0usize; profile.topology.num_sockets];
        for t in 0..pg.num_tasks() {
            per_socket[plan.socket_of(t)] += 1;
        }
        assert!(
            per_socket.iter().all(|&c| c > 0),
            "every socket gets tasks: {per_socket:?}"
        );
        // Measured reports carry the same socket tags.
        let (_, report) = pagerank(&exec, &pg, &PageRankConfig::default());
        for em in &report.edge_maps {
            for (t, stats) in em.tasks.iter().enumerate() {
                assert_eq!(stats.socket as usize, plan.socket_of(t));
            }
        }
    }
    // Ligra's dynamic work stealing has no static placement.
    assert!(Executor::new(SystemProfile::ligra_like())
        .placement(48)
        .is_none());
}
