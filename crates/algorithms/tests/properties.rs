//! Property-based tests: every engine-based algorithm must agree with its
//! sequential reference on arbitrary graphs.

use proptest::prelude::*;
use vebo_algorithms::bellman_ford::{bellman_ford, dijkstra_reference};
use vebo_algorithms::bfs::{bfs, bfs_reference, levels_from_parents};
use vebo_algorithms::cc::{cc, cc_reference};
use vebo_algorithms::pagerank::{pagerank, pagerank_reference, PageRankConfig};
use vebo_algorithms::spmv::{spmv, spmv_reference};
use vebo_engine::{ExecMode, Executor, PreparedGraph, SystemProfile};
use vebo_graph::graph::mix64;
use vebo_graph::{Graph, VertexId};
use vebo_partition::EdgeOrder;

fn arb_graph(directed: bool) -> impl Strategy<Value = Graph> {
    (2usize..50, 1usize..250, any::<u64>()).prop_map(move |(n, m, seed)| {
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
        Graph::from_edges(n, &edges, directed)
    })
}

fn profile_of(pick: u8) -> SystemProfile {
    match pick % 3 {
        0 => SystemProfile::ligra_like(),
        1 => SystemProfile::polymer_like(),
        _ => SystemProfile::graphgrind_like(EdgeOrder::Csr),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pagerank_matches_reference(g in arb_graph(true), pick in any::<u8>()) {
        let cfg = PageRankConfig { iterations: 4, ..Default::default() };
        let want = pagerank_reference(&g, &cfg);
        let profile = profile_of(pick);
        let pg = PreparedGraph::new(g.clone(), profile);
        let (got, _) = pagerank(&Executor::new(profile), &pg, &cfg);
        for v in 0..got.len() {
            prop_assert!((got[v] - want[v]).abs() < 1e-9, "v {}: {} vs {}", v, got[v], want[v]);
        }
    }

    #[test]
    fn bfs_matches_reference(g in arb_graph(true), pick in any::<u8>(), src_pick in any::<u64>()) {
        let src = (src_pick % g.num_vertices() as u64) as VertexId;
        let want = bfs_reference(&g, src);
        let profile = profile_of(pick);
        let pg = PreparedGraph::new(g.clone(), profile);
        let (parents, _) = bfs(&Executor::new(profile), &pg, src);
        let levels = levels_from_parents(&parents, src);
        prop_assert_eq!(levels, want);
    }

    #[test]
    fn cc_matches_union_find(g in arb_graph(false), pick in any::<u8>()) {
        let want = cc_reference(&g);
        let profile = profile_of(pick);
        let pg = PreparedGraph::new(g.clone(), profile);
        let (got, _) = cc(&Executor::new(profile), &pg);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn bellman_ford_matches_dijkstra(g in arb_graph(true), pick in any::<u8>(), src_pick in any::<u64>()) {
        let g = g.with_hash_weights(16);
        let src = (src_pick % g.num_vertices() as u64) as VertexId;
        let want = dijkstra_reference(&g, src);
        let profile = profile_of(pick);
        let pg = PreparedGraph::new(g.clone(), profile);
        let (got, _) = bellman_ford(&Executor::new(profile), &pg, src);
        for v in 0..got.len() {
            let (a, b) = (got[v], want[v]);
            prop_assert!(
                (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9,
                "v {}: {} vs {}", v, a, b
            );
        }
    }

    #[test]
    fn spmv_matches_dense_matvec(g in arb_graph(true), pick in any::<u8>()) {
        let g = g.with_hash_weights(8);
        let n = g.num_vertices();
        let x: Vec<f64> = (0..n).map(|i| (mix64(i as u64) % 100) as f64 / 100.0).collect();
        let want = spmv_reference(&g, &x);
        let profile = profile_of(pick);
        let pg = PreparedGraph::new(g.clone(), profile);
        let (got, _) = spmv(&Executor::new(profile), &pg, &x);
        for v in 0..n {
            prop_assert!((got[v] - want[v]).abs() < 1e-9);
        }
    }

    /// Executor mode equivalence: sequential and sharded (parallel)
    /// execution produce identical results for every algorithm on every profile
    /// (deterministic digests: parents become levels, floats compare
    /// within fp tolerance for the commutative-accumulation kernels).
    #[test]
    fn executor_sequential_matches_parallel(g in arb_graph(true), pick in any::<u8>()) {
        use vebo_algorithms::{needs_weights, run_algorithm, AlgorithmKind};
        let profile = profile_of(pick);
        for kind in AlgorithmKind::ALL {
            let g = if needs_weights(kind) {
                g.clone().with_hash_weights(8)
            } else {
                g.clone()
            };
            let pg = PreparedGraph::builder(g).profile(profile).build().unwrap();
            if kind == AlgorithmKind::Cc {
                // CC propagates labels in place: a label lowered earlier in
                // a round is read later in the same round, so the round and
                // edge counts depend on the task schedule. The fixpoint the
                // propagation converges to does not.
                let labels = |mode: ExecMode| cc(&Executor::new(profile).with_mode(mode), &pg).0;
                prop_assert_eq!(
                    labels(ExecMode::Sequential),
                    labels(ExecMode::Sharded { shards: 2 }),
                    "CC labels on {:?}", profile.kind
                );
                continue;
            }
            let digest = |mode: ExecMode| {
                let exec = Executor::new(profile).with_mode(mode);
                let report = run_algorithm(kind, &exec, &pg);
                (report.iterations, report.total_edges())
            };
            // Per-algorithm result equality is covered by the *_matches_*
            // properties (profiles agree) plus the engine's mode-equivalence
            // property; here we assert the run *shape* is mode-invariant
            // for the other 7 algorithms end to end.
            prop_assert_eq!(
                digest(ExecMode::Sequential),
                digest(ExecMode::Sharded { shards: 2 }),
                "{} on {:?}", kind.code(), profile.kind
            );
        }
    }

    /// Reordering invariance: BFS reachable-set size is preserved under
    /// VEBO for any graph.
    #[test]
    fn bfs_reach_invariant_under_vebo(g in arb_graph(true), src_pick in any::<u64>()) {
        use vebo_graph::VertexOrdering;
        let src = (src_pick % g.num_vertices() as u64) as VertexId;
        let want = bfs_reference(&g, src).iter().filter(|&&d| d != u32::MAX).count();
        let perm = vebo_core::Vebo::new(8).compute(&g);
        let h = perm.apply_graph(&g);
        let got = bfs_reference(&h, perm.new_id(src)).iter().filter(|&&d| d != u32::MAX).count();
        prop_assert_eq!(got, want);
    }
}
