//! Property-based tests for the distributed partitioners and the BSP
//! simulator — conservation laws and capacity bounds that must hold on
//! arbitrary graphs — for the cluster runtime's batch shapes, and for
//! the cluster wire decoder, which must turn any byte string into a
//! message or an error, never a panic.

use proptest::prelude::*;
use std::io::ErrorKind;
use std::net::SocketAddr;
use vebo_distributed::bsp::{superstep, ClusterConfig};
use vebo_distributed::runtime::{decide_continue, master_of};
use vebo_distributed::transport::ValuePair;
use vebo_distributed::vertex_cut::random_edge_placement;
use vebo_distributed::{
    hash_partition, ClusterAlgo, ClusterPlan, DistributedError, Fennel, GreedyVertexCut, HybridCut,
    Ldg, Msg, Partitioner, WorkerState,
};
use vebo_graph::{mix64, Graph, VertexId};
use vebo_partition::{Multilevel, VertexAssignment};

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..80, 0usize..400, any::<u64>(), any::<bool>()).prop_map(|(n, m, seed, directed)| {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every vertex partitioner covers all vertices with valid partition
    /// ids, and the streaming ones respect their capacity bounds.
    #[test]
    fn partitioners_cover_and_respect_capacity(g in arb_graph(), p in 1usize..12) {
        let n = g.num_vertices();
        let ldg = Ldg::default();
        let fennel = Fennel::default();
        let assignments: Vec<(&str, VertexAssignment)> = vec![
            ("hash", hash_partition(n, p)),
            ("ldg", ldg.partition(&g, p)),
            ("fennel", fennel.partition(&g, p)),
            ("multilevel", Multilevel::new().partition(&g, p)),
        ];
        for (name, a) in &assignments {
            prop_assert_eq!(a.num_vertices(), n, "{} vertex coverage", name);
            prop_assert_eq!(
                a.vertex_counts().iter().sum::<usize>(), n,
                "{} counts", name
            );
        }
        let ldg_cap = ((n as f64 / p as f64).ceil() * (1.0 + ldg.slack)).ceil();
        for &c in &assignments[1].1.vertex_counts() {
            prop_assert!(c as f64 <= ldg_cap, "LDG capacity");
        }
        let fennel_cap = (fennel.nu * n as f64 / p as f64).ceil().max(1.0);
        for &c in &assignments[2].1.vertex_counts() {
            prop_assert!(c as f64 <= fennel_cap, "Fennel capacity");
        }
    }

    /// Quality metrics are invariant under the contiguous relabeling (the
    /// relabeled graph with contiguous bounds is isomorphic).
    #[test]
    fn quality_invariant_under_relabeling(g in arb_graph(), p in 1usize..8, seed in any::<u64>()) {
        let n = g.num_vertices();
        let part: Vec<u32> = (0..n).map(|v| (mix64(seed ^ v as u64) % p as u64) as u32).collect();
        let a = VertexAssignment::new(part, p);
        let q = a.quality(&g);
        let (perm, bounds) = a.relabeling();
        let h = perm.apply_graph(&g);
        let qb = VertexAssignment::from_bounds(&bounds).quality(&h);
        prop_assert_eq!(q.cut_edges, qb.cut_edges);
        prop_assert_eq!(q.comm_volume, qb.comm_volume);
        prop_assert!((q.replication_factor - qb.replication_factor).abs() < 1e-12);
        prop_assert_eq!(q.vertex_spread, qb.vertex_spread);
    }

    /// BSP superstep conservation: total compute equals the work model
    /// applied to the active set; sends equal receives; messages equal
    /// the assignment's comm volume when everything is active.
    #[test]
    fn superstep_conservation(g in arb_graph(), p in 1usize..10, seed in any::<u64>()) {
        let n = g.num_vertices();
        let part: Vec<u32> = (0..n).map(|v| (mix64(seed ^ v as u64) % p as u64) as u32).collect();
        let a = VertexAssignment::new(part, p);
        let cfg = ClusterConfig { workers: p, ..Default::default() };
        let active: Vec<VertexId> = g.vertices().collect();
        let step = superstep(&g, &a, &cfg, &active).unwrap();
        let total: f64 = step.compute.iter().sum();
        let expected = g.num_edges() as f64 * cfg.per_edge_cost
            + n as f64 * cfg.per_vertex_cost;
        prop_assert!((total - expected).abs() < 1e-6);
        prop_assert_eq!(step.sent.iter().sum::<u64>(), step.received.iter().sum::<u64>());
        prop_assert_eq!(step.messages(), a.quality(&g).comm_volume);
    }

    /// The cluster runtime's batch shapes, at every superstep of every
    /// algorithm: each `compute_gather` batch lists vertices strictly
    /// ascending, all mastered by the machine it is addressed to, and
    /// each `apply_gather` scatter batch is strictly ascending too.
    #[test]
    fn cluster_batches_are_ascending_and_master_addressed(
        g in arb_graph(),
        machines in 1usize..5,
        which in 0usize..3,
        source in any::<u32>(),
    ) {
        let n = g.num_vertices();
        let partitioner = Partitioner::ALL[which];
        let placement = partitioner.place(&g, machines).unwrap();
        let plans: Vec<ClusterPlan> = (0..machines as u32)
            .map(|me| ClusterPlan::build(&g, &placement, me))
            .collect();
        let master: Vec<u32> = (0..n as VertexId)
            .map(|v| master_of(placement.replicas_of(v), v, machines))
            .collect();
        let ascending = |b: &[ValuePair]| b.windows(2).all(|w| w[0].0 < w[1].0);
        for algo in [
            ClusterAlgo::PageRank { iters: 3 },
            ClusterAlgo::Bfs { source: source % n as u32 },
            ClusterAlgo::Cc,
        ] {
            let mut states: Vec<WorkerState> =
                plans.iter().map(|p| WorkerState::new(p, algo)).collect();
            let mut step = 0u32;
            loop {
                let gathers: Vec<Vec<Vec<ValuePair>>> = states
                    .iter_mut()
                    .zip(&plans)
                    .map(|(s, p)| s.compute_gather(p))
                    .collect();
                for (p, batches) in gathers.iter().enumerate() {
                    prop_assert_eq!(batches.len(), machines);
                    for (q, batch) in batches.iter().enumerate() {
                        prop_assert!(ascending(batch), "{:?} step {} gather {}->{}", algo, step, p, q);
                        for &(v, _) in batch {
                            prop_assert_eq!(master[v as usize] as usize, q, "{:?} vertex {}", algo, v);
                        }
                    }
                }
                let mut total_active = 0;
                let mut scatters = Vec::with_capacity(machines);
                for (q, (state, plan)) in states.iter_mut().zip(&plans).enumerate() {
                    let incoming: Vec<Vec<ValuePair>> =
                        gathers.iter().map(|b| b[q].clone()).collect();
                    let (batches, active) = state.apply_gather(plan, step, &incoming);
                    for (r, batch) in batches.iter().enumerate() {
                        prop_assert!(ascending(batch), "{:?} step {} scatter {}->{}", algo, step, q, r);
                    }
                    total_active += active;
                    scatters.push(batches);
                }
                for (q, (state, plan)) in states.iter_mut().zip(&plans).enumerate() {
                    let incoming: Vec<Vec<ValuePair>> =
                        scatters.iter().map(|b: &Vec<Vec<ValuePair>>| b[q].clone()).collect();
                    state.apply_scatter(plan, &incoming);
                }
                step += 1;
                if !decide_continue(algo, step, total_active) {
                    break;
                }
            }
        }
    }

    /// Edge placements, for every strategy: each arc lands on exactly one
    /// in-range machine, per-machine loads are exactly the recomputed arc
    /// counts (so they sum to `m`), and replica masks cover exactly the
    /// machines holding an incident arc — no phantom replicas, no missing
    /// ones.
    #[test]
    fn edge_placements_are_consistent(g in arb_graph(), machines in 1usize..16) {
        let placements = [
            ("greedy", GreedyVertexCut.place(&g, machines).unwrap()),
            ("random", random_edge_placement(&g, machines).unwrap()),
            ("hybrid", HybridCut::default().place(&g, machines).unwrap()),
            ("hybrid-theta0", HybridCut::new(0).place(&g, machines).unwrap()),
        ];
        for (name, placement) in &placements {
            prop_assert_eq!(placement.num_machines(), machines, "{}", name);
            // Recompute loads and replica masks from the per-arc machine
            // assignment and compare exactly.
            let mut loads = vec![0u64; machines];
            let mut expect = vec![0u64; g.num_vertices()];
            let mut idx = 0usize;
            for u in g.vertices() {
                for &v in g.out_neighbors(u) {
                    let m = placement.machine_of_arc(idx);
                    prop_assert!((m as usize) < machines, "{}: arc {} machine {}", name, idx, m);
                    loads[m as usize] += 1;
                    expect[u as usize] |= 1 << m;
                    expect[v as usize] |= 1 << m;
                    idx += 1;
                }
            }
            prop_assert_eq!(idx, g.num_edges(), "{}: every arc placed exactly once", name);
            prop_assert_eq!(placement.loads(), &loads[..], "{}: loads", name);
            prop_assert_eq!(loads.iter().sum::<u64>(), g.num_edges() as u64, "{}", name);
            for v in g.vertices() {
                prop_assert_eq!(
                    placement.replicas_of(v), expect[v as usize],
                    "{}: vertex {}", name, v
                );
            }
            let rf = placement.replication_factor();
            prop_assert!((1.0..=machines as f64).contains(&rf) || g.num_edges() == 0);
        }
    }

    /// Every strategy is deterministic — two placements of the same graph
    /// are identical, including greedy under an explicit source order.
    #[test]
    fn edge_placements_are_deterministic(g in arb_graph(), machines in 1usize..16) {
        prop_assert_eq!(
            GreedyVertexCut.place(&g, machines).unwrap(),
            GreedyVertexCut.place(&g, machines).unwrap()
        );
        prop_assert_eq!(
            random_edge_placement(&g, machines).unwrap(),
            random_edge_placement(&g, machines).unwrap()
        );
        prop_assert_eq!(
            HybridCut::default().place(&g, machines).unwrap(),
            HybridCut::default().place(&g, machines).unwrap()
        );
        let rev: Vec<VertexId> = (0..g.num_vertices() as VertexId).rev().collect();
        prop_assert_eq!(
            GreedyVertexCut.place_with_source_order(&g, machines, &rev).unwrap(),
            GreedyVertexCut.place_with_source_order(&g, machines, &rev).unwrap()
        );
    }

    /// Out-of-range machine counts are typed errors for every strategy,
    /// never panics.
    #[test]
    fn edge_placement_machine_bounds(g in arb_graph(), over in 65usize..200) {
        for machines in [0, over] {
            let want = DistributedError::MachineCount { machines };
            prop_assert_eq!(GreedyVertexCut.place(&g, machines).unwrap_err(), want);
            prop_assert_eq!(random_edge_placement(&g, machines).unwrap_err(), want);
            prop_assert_eq!(HybridCut::default().place(&g, machines).unwrap_err(), want);
        }
    }

    /// Multilevel respects its vertex-balance tolerance on unit weights.
    #[test]
    fn multilevel_balance_tolerance(g in arb_graph(), p in 2usize..8) {
        let a = Multilevel::new().partition(&g, p);
        let max = *a.vertex_counts().iter().max().unwrap();
        let cap = (g.num_vertices() as f64 / p as f64) * 1.05 + 2.0;
        prop_assert!(max as f64 <= cap.ceil() + 1.0, "max {} cap {}", max, cap);
    }
}

/// One message of every [`Msg`] variant, built from random field values.
fn every_variant(a: u32, b: u64, port: u16, pairs: Vec<ValuePair>) -> Vec<Msg> {
    let algo = match a % 3 {
        0 => ClusterAlgo::PageRank { iters: a },
        1 => ClusterAlgo::Bfs { source: a },
        _ => ClusterAlgo::Cc,
    };
    vec![
        Msg::Join { mesh_port: port },
        Msg::Start {
            worker_id: a,
            roster: (0..a % 4)
                .map(|i| SocketAddr::from(([127, 0, 0, i as u8], port)))
                .collect(),
        },
        Msg::Hello { worker_id: a },
        Msg::Begin { algo },
        Msg::Gather {
            step: a,
            pairs: pairs.clone(),
        },
        Msg::Scatter {
            step: a,
            pairs: pairs.clone(),
        },
        Msg::StepDone {
            step: a,
            active: b,
            sent: b.rotate_left(7),
        },
        Msg::Continue {
            step: a,
            go: b.is_multiple_of(2),
        },
        Msg::Values { pairs },
        Msg::Shutdown,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes behind any tag byte (the ten tags plus one unknown
    /// on each side) never panic the decoder, and whatever it accepts
    /// survives an encode/decode round trip.
    #[test]
    fn decode_never_panics_on_arbitrary_bytes(
        tag in 0u8..12,
        body in prop::collection::vec(any::<u8>(), 0..65),
    ) {
        let mut payload = vec![tag];
        payload.extend_from_slice(&body);
        if let Ok(m) = Msg::decode(&payload) {
            let again = Msg::decode(&m.encode());
            prop_assert!(again.as_ref().is_ok_and(|d| *d == m), "{:?} -> {:?}", m, again);
        }
    }

    /// Every strict prefix of a valid encoding, of every variant, is an
    /// `InvalidData` error rather than a panic or a shorter message; the
    /// whole encoding round-trips.
    #[test]
    fn truncated_encodings_are_invalid_data(
        a in any::<u32>(),
        b in any::<u64>(),
        port in 0u16..u16::MAX,
        pairs in prop::collection::vec((any::<u32>(), any::<u64>()), 0..5),
    ) {
        for msg in every_variant(a, b, port, pairs) {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                let err = Msg::decode(&bytes[..cut]);
                prop_assert!(
                    err.as_ref().is_err_and(|e| e.kind() == ErrorKind::InvalidData),
                    "{:?} cut at {}: {:?}", msg, cut, err
                );
            }
            prop_assert_eq!(Msg::decode(&bytes).ok(), Some(msg));
        }
    }
}
