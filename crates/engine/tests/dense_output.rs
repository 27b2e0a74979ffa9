//! The dense kernels build their output frontier in task-local words and
//! flush whole words (`AtomicBitset::range_writer`). Task bounds that are
//! not multiples of 64 make neighbouring tasks share boundary words, so
//! this suite pins the output frontier — bit for bit, on every backend —
//! with exactly such bounds, and checks `vertex_map`'s representation
//! switch follows the executor's threshold.

use vebo_engine::{Direction, EdgeOp, Executor, Frontier, PreparedGraph, SystemProfile};
use vebo_graph::graph::mix64;
use vebo_graph::{Graph, VertexId};
use vebo_partition::{EdgeOrder, PartitionBounds};

const N: usize = 200;

/// Seven tasks whose edges straddle, touch and sit one off the 64-bit
/// word boundaries.
fn unaligned_bounds() -> PartitionBounds {
    PartitionBounds::from_starts(vec![0, 1, 63, 64, 65, 130, N])
}

fn graph() -> Graph {
    let mut x = 0x5eed_u64;
    let mut next = || {
        x = mix64(x);
        (x % N as u64) as VertexId
    };
    let edges: Vec<(VertexId, VertexId)> = (0..1500).map(|_| (next(), next())).collect();
    Graph::from_edges(N, &edges, true)
}

/// Stateless, so any schedule gives the same answer: an edge activates its
/// destination unless the destination is a multiple of 3 or the pair sums
/// to a multiple of 5 — `update` returns `false` for many edges and for
/// every edge of some destinations.
fn activates(src: VertexId, dst: VertexId) -> bool {
    !dst.is_multiple_of(3) && !(src + dst).is_multiple_of(5)
}

/// The dense `vertex_map` predicate: drops every fifth vertex.
fn keeps(v: VertexId) -> bool {
    !v.is_multiple_of(5)
}

struct Picky;

impl EdgeOp for Picky {
    fn update(&self, src: VertexId, dst: VertexId, _w: f32) -> bool {
        activates(src, dst)
    }
    fn update_atomic(&self, src: VertexId, dst: VertexId, w: f32) -> bool {
        self.update(src, dst, w)
    }
}

fn backends(profile: SystemProfile) -> Vec<(String, Executor)> {
    let mut out = vec![("sequential".to_string(), Executor::new(profile))];
    for shards in [1, 2, 7] {
        out.push((
            format!("sharded/{shards}"),
            Executor::sharded(profile, shards),
        ));
    }
    out
}

fn input_frontiers() -> Vec<(&'static str, Frontier)> {
    vec![
        (
            "sparse",
            Frontier::from_vertices(N, vec![0, 5, 63, 64, 65, 129, 130, 199]),
        ),
        ("full", Frontier::all(N)),
    ]
}

#[test]
fn dense_edge_map_output_is_identical_on_every_backend() {
    let g = graph();
    // COO streaming and CSC pull: the two dense kernels.
    for profile in [
        SystemProfile::graphgrind_like(EdgeOrder::Csr),
        SystemProfile::polymer_like(),
    ] {
        let pg = PreparedGraph::builder(g.clone())
            .profile(profile)
            .bounds(unaligned_bounds())
            .build()
            .unwrap();
        for (fname, frontier) in input_frontiers() {
            let expect: Vec<VertexId> = (0..N as VertexId)
                .filter(|&v| {
                    g.in_neighbors(v)
                        .iter()
                        .any(|&u| frontier.contains(u) && activates(u, v))
                })
                .collect();
            assert!(!expect.is_empty() && expect.len() < N);
            for (bname, exec) in backends(profile) {
                let (out, report) = exec.edge_map_in(&pg, &frontier, &Picky, Direction::Dense);
                assert!(report.traversal.is_dense());
                let got: Vec<VertexId> = out.iter_active().collect();
                assert_eq!(
                    got, expect,
                    "{:?} / {fname} frontier / {bname}",
                    report.traversal
                );
                assert_eq!(report.output_size, expect.len());
            }
        }
    }
}

#[test]
fn dense_vertex_map_output_is_identical_on_every_backend() {
    let profile = SystemProfile::graphgrind_like(EdgeOrder::Csr);
    let pg = PreparedGraph::builder(graph())
        .profile(profile)
        .bounds(unaligned_bounds())
        .build()
        .unwrap();
    for (fname, frontier) in input_frontiers() {
        let dense = frontier.to_dense();
        let expect: Vec<VertexId> = dense.iter_active().filter(|&v| keeps(v)).collect();
        for (bname, exec) in backends(profile) {
            let (out, _) = exec.vertex_map(&pg, &dense, keeps);
            let got: Vec<VertexId> = out.iter_active().collect();
            assert_eq!(got, expect, "{fname} frontier / {bname}");
        }
    }
}

/// `vertex_map`'s output representation follows
/// `Executor::with_threshold_den`, as `edge_map`'s does.
#[test]
fn vertex_map_output_representation_follows_the_executor_threshold() {
    let profile = SystemProfile::ligra_like();
    let pg = PreparedGraph::new(graph(), profile);
    let is_sparse = |den: usize, keep: u32| {
        let exec = Executor::new(profile).with_threshold_den(den);
        let (out, _) = exec.vertex_map_all(&pg, |v| v < keep);
        assert_eq!(out.len(), keep as usize);
        matches!(out, Frontier::Sparse { .. })
    };
    // 20 of 200 active: 20 * 20 >= 200 stays dense by default, but
    // 20 * 2 < 200 turns sparse at denominator 2.
    assert!(!is_sparse(20, 20));
    assert!(is_sparse(2, 20));
    // 5 of 200 active: sparse by default, dense at denominator 1000.
    assert!(is_sparse(20, 5));
    assert!(!is_sparse(1000, 5));
}
