//! Loopback cluster conformance: the socket runtime (coordinator + N
//! worker threads over real TCP connections on 127.0.0.1) must produce
//! value vectors bit-identical to [`vebo_distributed::run_local`], for
//! every partitioner and several worker counts — the multi-process
//! analogue of the engine's sequential/sharded conformance
//! suites. BFS and CC are integer fixpoints, so they are additionally
//! worker-count-invariant; PageRank's float sums are grouped per shard,
//! so its digest is compared at fixed worker count only.

#![cfg(target_os = "linux")]

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;

use vebo_distributed::runtime::master_of;
use vebo_distributed::sync::Coordinator;
use vebo_distributed::{
    run_local, run_worker, ClusterAlgo, FramedConn, Msg, Partitioner, RunOutput,
};
use vebo_graph::{Dataset, Graph};

/// Runs `algos` on a real loopback cluster of `workers` processes-worth
/// of worker threads (real sockets, real frames — only the process
/// boundary is elided; the `vebo-cluster` bin covers that).
fn run_cluster(
    g: &Graph,
    partitioner: Partitioner,
    workers: usize,
    algos: &[ClusterAlgo],
) -> Vec<RunOutput> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handles: Vec<_> = (0..workers)
        .map(|_| {
            let g = g.clone();
            thread::spawn(move || run_worker(addr, &g, partitioner).unwrap())
        })
        .collect();
    let mut coordinator = Coordinator::accept(&listener, workers).unwrap();
    let outputs = coordinator.run(g.num_vertices(), algos).unwrap();
    for h in handles {
        h.join().unwrap();
    }
    outputs
}

fn scaled_twitter() -> Graph {
    Dataset::TwitterLike.build(0.04)
}

const ALGOS: [ClusterAlgo; 3] = [
    ClusterAlgo::PageRank { iters: 5 },
    ClusterAlgo::Bfs { source: 3 },
    ClusterAlgo::Cc,
];

#[test]
fn cluster_matches_run_local_across_partitioners_and_widths() {
    let g = scaled_twitter();
    for partitioner in [Partitioner::VertexCut, Partitioner::Hash] {
        for workers in [2usize, 3] {
            let cluster = run_cluster(&g, partitioner, workers, &ALGOS);
            for (algo, out) in ALGOS.iter().zip(&cluster) {
                let local = run_local(&g, partitioner, workers, *algo).unwrap();
                assert_eq!(
                    out.digest, local.digest,
                    "{partitioner:?} w={workers} {algo:?}"
                );
                assert_eq!(
                    out.values, local.values,
                    "{partitioner:?} w={workers} {algo:?}"
                );
                assert_eq!(out.supersteps, local.supersteps);
                assert_eq!(out.values_sent, local.values_sent);
            }
        }
    }
}

#[test]
fn hybrid_cut_cluster_matches_run_local() {
    let g = scaled_twitter();
    let cluster = run_cluster(&g, Partitioner::Hybrid, 3, &ALGOS);
    for (algo, out) in ALGOS.iter().zip(&cluster) {
        let local = run_local(&g, Partitioner::Hybrid, 3, *algo).unwrap();
        assert_eq!(out.digest, local.digest, "{algo:?}");
    }
}

#[test]
fn single_worker_cluster_degenerates_cleanly() {
    // One worker: no mesh peers at all, every phase is loopback.
    let g = scaled_twitter();
    let cluster = run_cluster(&g, Partitioner::VertexCut, 1, &ALGOS);
    for (algo, out) in ALGOS.iter().zip(&cluster) {
        let local = run_local(&g, Partitioner::VertexCut, 1, *algo).unwrap();
        assert_eq!(out.digest, local.digest, "{algo:?}");
        assert_eq!(out.values_sent, 0, "nothing crosses a 1-machine cluster");
    }
}

#[test]
fn integer_fixpoints_are_worker_count_invariant() {
    // BFS levels and CC labels are unique fixpoints, so the digest must
    // not depend on how many workers computed them — only PageRank's
    // float grouping is width-sensitive.
    let g = scaled_twitter();
    for algo in [ClusterAlgo::Bfs { source: 3 }, ClusterAlgo::Cc] {
        let one = run_local(&g, Partitioner::VertexCut, 1, algo).unwrap();
        for workers in [2usize, 3, 5] {
            for partitioner in Partitioner::ALL {
                let w = run_local(&g, partitioner, workers, algo).unwrap();
                assert_eq!(one.digest, w.digest, "{partitioner:?} w={workers} {algo:?}");
            }
        }
    }
}

#[test]
fn superstep_metrics_are_recorded() {
    use vebo_distributed::ClusterPlan;
    let g = scaled_twitter();
    let placement = Partitioner::VertexCut.place(&g, 2).unwrap();
    let plans: Vec<ClusterPlan> = (0..2)
        .map(|m| ClusterPlan::build(&g, &placement, m))
        .collect();
    let out = vebo_distributed::runtime::run_local_on(&plans, ClusterAlgo::PageRank { iters: 4 });
    assert_eq!(out.supersteps, 4);
    assert!(out.values_sent > 0, "a 2-way vertex cut has mirrors");
    let mut sent = 0;
    let mut received = 0;
    for plan in &plans {
        let m = plan.metrics().snapshot();
        assert_eq!(m.supersteps, 4);
        assert!(m.superstep_quantile(0.5).is_some());
        sent += m.sync_values_sent;
        received += m.sync_values_received;
    }
    assert_eq!(sent, out.values_sent);
    assert_eq!(received, out.values_sent, "every pair sent is received");
}

/// The cluster PageRank computed by hand: each machine's shard is
/// rebuilt from the placement exactly as `ClusterPlan::build` cuts it,
/// each machine's partial sum walks that shard's in-lists (CSC) in list
/// order, and the masters combine the partials in ascending machine
/// order. Shares no code with `WorkerState`, so it pins the
/// floating-point sum order the runtime must keep.
fn reference_pagerank(
    g: &Graph,
    partitioner: Partitioner,
    machines: usize,
    iters: u32,
) -> Vec<u64> {
    let n = g.num_vertices();
    let placement = partitioner.place(g, machines).unwrap();
    let mut local: Vec<Vec<(u32, u32)>> = vec![Vec::new(); machines];
    let mut idx = 0usize;
    for u in g.vertices() {
        for &v in g.out_neighbors(u) {
            local[placement.machine_of_arc(idx) as usize].push((u, v));
            idx += 1;
        }
    }
    let shards: Vec<Graph> = local
        .iter()
        .map(|edges| Graph::from_edges(n, edges, true))
        .collect();
    let damping = 0.85;
    let base = (1.0 - damping) / n as f64;
    let mut x = vec![1.0 / n as f64; n];
    for _ in 0..iters {
        let contrib: Vec<f64> = (0..n)
            .map(|u| match g.out_degree(u as u32) {
                0 => 0.0,
                d => x[u] / d as f64,
            })
            .collect();
        let mut total = vec![0.0f64; n];
        for shard in &shards {
            for (v, t) in total.iter_mut().enumerate() {
                let mut partial = 0.0f64;
                for &u in shard.in_neighbors(v as u32) {
                    partial += contrib[u as usize];
                }
                *t += partial;
            }
        }
        for (xv, t) in x.iter_mut().zip(&total) {
            *xv = base + damping * t;
        }
    }
    x.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn pagerank_sum_order_matches_an_independent_reference() {
    let g = Dataset::TwitterLike.build(0.02);
    let iters = 4;
    for partitioner in Partitioner::ALL {
        for machines in [1usize, 2, 3] {
            let want = reference_pagerank(&g, partitioner, machines, iters);
            let got =
                run_local(&g, partitioner, machines, ClusterAlgo::PageRank { iters }).unwrap();
            let first_diff = got.values.iter().zip(&want).position(|(a, b)| a != b);
            assert_eq!(first_diff, None, "{partitioner:?} w={machines}");
        }
    }
}

/// Runs one real worker against a fake coordinator and, when `peer` is
/// given, a fake mesh peer: the coordinator answers the worker's join
/// with `start` (a 2-worker roster naming the worker `worker_id`); the
/// fake peer (worker 1) says hello and then sends `peer`'s frames
/// after `begin`. Returns what `run_worker` returned.
fn run_against_fakes(worker_id: u32, peer: Option<Vec<Msg>>) -> std::io::Result<()> {
    let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)], true);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let worker = thread::spawn(move || run_worker(addr, &g, Partitioner::Hash));
    let (stream, _) = listener.accept().unwrap();
    let mut control = FramedConn::new(stream).unwrap();
    let Msg::Join { mesh_port } = control.recv().unwrap() else {
        panic!("worker must open with join");
    };
    let mesh: SocketAddr = ([127, 0, 0, 1], mesh_port).into();
    control
        .send(&Msg::Start {
            worker_id,
            roster: vec![mesh, "127.0.0.1:9".parse().unwrap()],
        })
        .unwrap();
    // Held until the worker has returned, so its sends never hit a
    // closed socket.
    let mut fake_peer = None;
    if let Some(frames) = peer {
        let mut conn = FramedConn::new(TcpStream::connect(mesh).unwrap()).unwrap();
        conn.send(&Msg::Hello { worker_id: 1 }).unwrap();
        control
            .send(&Msg::Begin {
                algo: ClusterAlgo::Cc,
            })
            .unwrap();
        for frame in &frames {
            conn.send(frame).unwrap();
        }
        fake_peer = Some(conn);
    }
    let out = worker.join().expect("the worker must not panic");
    drop(fake_peer);
    out
}

#[test]
fn start_naming_an_out_of_range_worker_is_invalid_data() {
    let err = run_against_fakes(5, None).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
}

#[test]
fn peer_batches_naming_foreign_vertices_are_invalid_data() {
    let n = 6u32;
    // A vertex worker 0 does not master under the 2-way hash placement.
    let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)], true);
    let placement = Partitioner::Hash.place(&g, 2).unwrap();
    let foreign = (0..n)
        .find(|&v| master_of(placement.replicas_of(v), v, 2) != 0)
        .expect("hash placement splits the ring");
    let gather = |pairs| Msg::Gather { step: 0, pairs };
    for frames in [
        vec![gather(vec![(n + 5, 0)])],
        vec![gather(vec![(foreign, 0)])],
        vec![
            gather(Vec::new()),
            Msg::Scatter {
                step: 0,
                pairs: vec![(u32::MAX, 0)],
            },
        ],
    ] {
        let err = run_against_fakes(0, Some(frames.clone())).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{frames:?}: {err}");
    }
}
