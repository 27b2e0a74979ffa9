//! Property-based tests for the engine: all traversal modes must agree,
//! and the executor's policies (mode, NUMA placement) must never change
//! results.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use vebo_engine::shared::AtomicF64;
use vebo_engine::{Direction, EdgeOp, Executor, Frontier, PreparedGraph, SystemProfile};
use vebo_graph::graph::mix64;
use vebo_graph::{Graph, VertexId};
use vebo_partition::EdgeOrder;

fn arb_case() -> impl Strategy<Value = (Graph, Vec<VertexId>)> {
    (2usize..60, 0usize..300, any::<u64>(), 1usize..10).prop_map(|(n, m, seed, f)| {
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
        let frontier: Vec<VertexId> = (0..f).map(|_| (next() % n as u64) as VertexId).collect();
        (Graph::from_edges(n, &edges, true), frontier)
    })
}

/// Min-relaxation operator: commutative and idempotent, so any traversal
/// order must produce the same state and the same activation set.
struct MinOp {
    val: Vec<AtomicF64>,
}

impl EdgeOp for MinOp {
    fn update(&self, s: VertexId, d: VertexId, w: f32) -> bool {
        let cand = self.val[s as usize].load() + w as f64;
        if cand < self.val[d as usize].load() {
            self.val[d as usize].store(cand);
            true
        } else {
            false
        }
    }
    fn update_atomic(&self, s: VertexId, d: VertexId, w: f32) -> bool {
        self.val[d as usize].fetch_min(self.val[s as usize].load() + w as f64)
    }
}

fn run_mode(
    g: &Graph,
    frontier: &[VertexId],
    exec: &Executor,
    direction: Direction,
) -> (Vec<f64>, Vec<VertexId>) {
    let n = g.num_vertices();
    let pg = PreparedGraph::builder(g.clone())
        .profile(*exec.profile())
        .build()
        .expect("no explicit bounds, cannot fail");
    let op = MinOp {
        val: (0..n).map(|_| AtomicF64::new(f64::INFINITY)).collect(),
    };
    for &v in frontier {
        op.val[v as usize].store(0.0);
    }
    let f = Frontier::from_vertices(n, frontier.to_vec());
    let (out, _) = exec.edge_map_in(&pg, &f, &op, direction);
    let mut active: Vec<VertexId> = out.iter_active().collect();
    active.sort_unstable();
    (op.val.iter().map(|a| a.load()).collect(), active)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All (profile, direction) combinations compute the same relaxation.
    #[test]
    fn all_modes_agree((g, frontier) in arb_case()) {
        let reference = run_mode(
            &g,
            &frontier,
            &Executor::new(SystemProfile::ligra_like()),
            Direction::Sparse,
        );
        for profile in [
            SystemProfile::ligra_like(),
            SystemProfile::polymer_like(),
            SystemProfile::graphgrind_like(EdgeOrder::Csr),
            SystemProfile::graphgrind_like(EdgeOrder::Hilbert),
        ] {
            for direction in [Direction::Dense, Direction::Sparse, Direction::Auto] {
                let got = run_mode(&g, &frontier, &Executor::new(profile), direction);
                prop_assert_eq!(&got.1, &reference.1, "activation sets differ");
                for (a, b) in got.0.iter().zip(&reference.0) {
                    prop_assert!(
                        (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-12,
                        "state differs: {} vs {}", a, b
                    );
                }
            }
        }
    }

    /// Executor policies — sharded mode, NUMA placement on/off — never
    /// change the result, on every profile.
    #[test]
    fn executor_policies_preserve_results((g, frontier) in arb_case()) {
        for profile in [
            SystemProfile::ligra_like(),
            SystemProfile::polymer_like(),
            SystemProfile::graphgrind_like(EdgeOrder::Csr),
        ] {
            let reference = run_mode(&g, &frontier, &Executor::new(profile), Direction::Auto);
            for exec in [
                Executor::sharded(profile, 2),
                Executor::new(profile).with_numa_placement(false),
                Executor::sharded(profile, 3).with_numa_placement(false),
            ] {
                let got = run_mode(&g, &frontier, &exec, Direction::Auto);
                prop_assert_eq!(&got.1, &reference.1, "activation sets differ");
                for (a, b) in got.0.iter().zip(&reference.0) {
                    prop_assert!(
                        (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-12,
                        "state differs: {} vs {}", a, b
                    );
                }
            }
        }
    }

    /// The NUMA-placed execution order is always a permutation of the
    /// unplaced (index) order, and every task has a socket within the
    /// topology.
    #[test]
    fn placement_order_is_a_permutation(num_tasks in 0usize..600) {
        for profile in [
            SystemProfile::polymer_like(),
            SystemProfile::graphgrind_like(EdgeOrder::Csr),
        ] {
            let exec = Executor::new(profile);
            let plan = exec.placement(num_tasks).expect("static profiles place tasks");
            let order = plan.execution_order();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..num_tasks).collect::<Vec<_>>());
            for t in 0..num_tasks {
                prop_assert!(plan.socket_of(t) < profile.topology.num_sockets);
            }
        }
        prop_assert!(Executor::new(SystemProfile::ligra_like()).placement(num_tasks).is_none());
    }

    /// BFS-style single-activation: each destination enters the next
    /// frontier at most once, in every mode.
    #[test]
    fn single_activation((g, frontier) in arb_case()) {
        struct Once {
            hit: Vec<AtomicU32>,
        }
        impl EdgeOp for Once {
            fn update(&self, _s: VertexId, d: VertexId, _w: f32) -> bool {
                self.hit[d as usize].fetch_add(1, Ordering::Relaxed) == 0
            }
            fn update_atomic(&self, s: VertexId, d: VertexId, w: f32) -> bool {
                self.update(s, d, w)
            }
            fn cond(&self, d: VertexId) -> bool {
                self.hit[d as usize].load(Ordering::Relaxed) == 0
            }
        }
        let n = g.num_vertices();
        let profile = SystemProfile::graphgrind_like(EdgeOrder::Csr);
        let exec = Executor::new(profile);
        for direction in [Direction::Dense, Direction::Sparse] {
            let pg = PreparedGraph::builder(g.clone()).profile(profile).build().unwrap();
            let op = Once { hit: (0..n).map(|_| AtomicU32::new(0)).collect() };
            let f = Frontier::from_vertices(n, frontier.clone());
            let (out, _) = exec.edge_map_in(&pg, &f, &op, direction);
            // The output frontier is exactly the set of touched dsts.
            let mut expect: Vec<VertexId> = (0..n as VertexId)
                .filter(|&v| op.hit[v as usize].load(Ordering::Relaxed) > 0)
                .collect();
            expect.sort_unstable();
            let mut got: Vec<VertexId> = out.iter_active().collect();
            got.sort_unstable();
            prop_assert_eq!(got, expect);
        }
    }

    /// Frontier representation switches never change membership.
    #[test]
    fn frontier_representation_is_lossless(n in 1usize..500, seed in any::<u64>()) {
        let mut x = seed;
        let mut ids = Vec::new();
        for _ in 0..(x % 64) {
            x = mix64(x);
            ids.push((x % n as u64) as VertexId);
        }
        let f = Frontier::from_vertices(n, ids);
        let rt = f.to_dense().to_sparse().into_owned();
        let rt = rt.to_dense().to_sparse().into_owned();
        let a: Vec<VertexId> = f.iter_active().collect();
        let b: Vec<VertexId> = rt.iter_active().collect();
        prop_assert_eq!(a, b);
    }

    /// Scheduling simulator invariants: makespan bounds.
    #[test]
    fn makespan_bounds(costs in proptest::collection::vec(0.0f64..100.0, 1..200), threads in 1usize..64) {
        use vebo_engine::{simulate, Scheduling};
        for policy in [Scheduling::Static, Scheduling::Dynamic] {
            let r = simulate(&costs, threads, policy);
            let total: f64 = costs.iter().sum();
            let maxc = costs.iter().cloned().fold(0.0, f64::max);
            // makespan >= max(total/threads, largest task); <= total.
            prop_assert!(r.makespan + 1e-9 >= total / threads as f64);
            prop_assert!(r.makespan + 1e-9 >= maxc);
            prop_assert!(r.makespan <= total + 1e-9);
            prop_assert!((r.per_thread.iter().sum::<f64>() - total).abs() < 1e-6);
        }
    }
}
