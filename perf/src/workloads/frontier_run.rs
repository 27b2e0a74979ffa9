//! `frontier-run` — traversals over a graph reordered once, in set-up.
//!
//! The mirror image of `reorder-run`: a heavy-hub Twitter-like graph stored
//! as a **compressed** `.vgr` (version 3) is loaded, VEBO-reordered and
//! prepared (Polymer-like profile, compressed neighbor lists) during
//! set-up; the measured operations are BFS, BC, Bellman–Ford, CC and
//! PageRankDelta from seeded hub sources under `Direction::Auto`. Sparse
//! `edge_map`, frontier conversion, direction switching and
//! `NeighborDecoder` dominate; reordering is paid outside the measured
//! phase. A dense-kernel gain predicts no change here; a frontier gain
//! predicts none on `reorder-run`.
//!
//! A round is a fixed list of operations; every round repeats the same
//! list, so each operation has one sequential-executor reference computed
//! once (untimed) after set-up.
//!
//! Gate: BFS levels, Bellman–Ford distances and CC labels equal the
//! reference exactly. BC and PageRankDelta accumulate `f64` through the
//! atomic sparse push, whose summation order depends on scheduling, so
//! those two are compared within a relative 1e-6.

use super::{hub_draws, measure_rounds, repeat_setup, Measured, RunConfig, SeedStream};
use crate::fixtures::{load_mapped, FixtureSpec};
use crate::sink::{EngineCounters, SHARDS};
use crate::trace::Tracer;
use std::io;
use std::sync::Arc;
use std::time::Instant;
use vebo_algorithms::bc::bc;
use vebo_algorithms::bellman_ford::bellman_ford;
use vebo_algorithms::bfs::{bfs, levels_from_parents};
use vebo_algorithms::cc::cc;
use vebo_algorithms::pagerank_delta::{pagerank_delta, PageRankDeltaConfig};
use vebo_core::{BalanceReport, Vebo};
use vebo_engine::{Executor, PreparedGraph, SystemProfile};
use vebo_graph::{digest_u64s, Dataset, VertexId};

fn fixture(cfg: &RunConfig) -> FixtureSpec {
    FixtureSpec {
        dataset: Dataset::TwitterLike,
        scale: cfg.size(2.0, 0.1),
        weighted: true,
        compressed: true,
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Bfs(VertexId),
    Bc(VertexId),
    Bf(VertexId),
    Cc,
    Prd,
}

impl Op {
    fn span_name(self) -> &'static str {
        match self {
            Op::Bfs(_) => "algorithms.bfs",
            Op::Bc(_) => "algorithms.bc",
            Op::Bf(_) => "algorithms.bf",
            Op::Cc => "algorithms.cc",
            Op::Prd => "algorithms.prd",
        }
    }
}

/// An operation's result, reduced to what the gate compares.
enum Outcome {
    Exact(u64),
    Approx(Vec<f64>),
}

impl Outcome {
    fn matches(&self, reference: &Outcome) -> bool {
        match (self, reference) {
            (Outcome::Exact(a), Outcome::Exact(b)) => a == b,
            (Outcome::Approx(a), Outcome::Approx(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|(x, y)| (x - y).abs() <= 1e-6 * x.abs().max(y.abs()).max(1e-30))
            }
            _ => false,
        }
    }
}

fn execute(op: Op, exec: &Executor, pg: &PreparedGraph) -> (Outcome, usize) {
    match op {
        Op::Bfs(s) => {
            let (parents, r) = bfs(exec, pg, s);
            let levels = levels_from_parents(&parents, s);
            (
                Outcome::Exact(digest_u64s(levels.into_iter().map(u64::from))),
                r.iterations,
            )
        }
        Op::Bc(s) => {
            let (scores, r) = bc(exec, pg, s);
            (Outcome::Approx(scores), r.iterations)
        }
        Op::Bf(s) => {
            let (dist, r) = bellman_ford(exec, pg, s);
            (
                Outcome::Exact(digest_u64s(dist.into_iter().map(f64::to_bits))),
                r.iterations,
            )
        }
        Op::Cc => {
            let (labels, r) = cc(exec, pg);
            (
                Outcome::Exact(digest_u64s(labels.into_iter().map(u64::from))),
                r.iterations,
            )
        }
        Op::Prd => {
            let (ranks, r) = pagerank_delta(exec, pg, &PageRankDeltaConfig::default());
            (Outcome::Approx(ranks), r.iterations)
        }
    }
}

/// Sources are drawn among this many highest out-degree vertices.
const SOURCE_HUBS: usize = 256;

/// One round's operations: six cheap BFS probes, five dearer kernels
/// (3 BF, PRD, BC) and three CC between the two groups — so the median
/// operation is a CC, which has no source: `op_p50_ms` sits in the middle
/// of one kind's latencies (three samples a round) and does not depend on
/// which hubs the seed drew. BC, the dearest, is one operation in
/// fourteen, so the reported tail (about p97) sits in the middle of the BC
/// runs' latencies.
fn round_ops(pg: &PreparedGraph, seed: u64, bfs_count: usize) -> Vec<Op> {
    let mut s = SeedStream::new(seed, 0xf407);
    let mut sources = hub_draws(pg.graph(), &mut s, SOURCE_HUBS, bfs_count + 4).into_iter();
    let mut source = || sources.next().expect("one draw per rooted operation");
    let mut ops: Vec<Op> = (0..bfs_count).map(|_| Op::Bfs(source())).collect();
    ops.insert(bfs_count / 2, Op::Cc);
    ops.push(Op::Bf(source()));
    ops.push(Op::Cc);
    ops.push(Op::Bf(source()));
    ops.push(Op::Prd);
    ops.push(Op::Bf(source()));
    ops.push(Op::Cc);
    ops.push(Op::Bc(source()));
    ops
}

struct Ready {
    pg: PreparedGraph,
    exec: Executor,
    ops: Vec<Op>,
    edge_imbalance: u64,
    vertex_imbalance: usize,
}

pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> io::Result<Measured> {
    let path = fixture(cfg).ensure()?;
    let counters = Arc::new(EngineCounters::default());
    let profile = SystemProfile::polymer_like();
    let bfs_count = cfg.size(6, 6);
    let seed = cfg.seed;

    let (ready, setup_s) = repeat_setup(cfg.size(5, 1), tracer, |t| {
        let g = t.span("graph.load", |_| load_mapped(&path))?;
        let res = t.span("core.vebo", |_| {
            Vebo::new(profile.num_partitions).compute_full(&g)
        });
        let reordered = t.span("graph.permute", |_| res.permutation.apply_graph(&g));
        let pg = t.span("partition.prepare", |_| {
            PreparedGraph::builder(reordered)
                .profile(profile)
                .compress(true)
                .vebo_starts(Some(&res.starts))
                .build()
                .expect("VEBO's own boundaries are valid")
        });
        let exec = Executor::sharded(profile, SHARDS).with_sink(counters.clone());
        let ops = round_ops(&pg, seed, bfs_count);
        t.span("perf.warmup", |_| {
            for &op in &ops {
                std::hint::black_box(execute(op, &exec, &pg));
            }
        });
        let balance = BalanceReport::from_result(&res);
        Ok(Ready {
            pg,
            exec,
            ops,
            edge_imbalance: balance.edge_imbalance,
            vertex_imbalance: balance.vertex_imbalance,
        })
    })?;

    // The references: the same operations on the sequential executor.
    let sequential = Executor::new(profile);
    let references: Vec<(Outcome, usize)> = ready
        .ops
        .iter()
        .map(|&op| execute(op, &sequential, &ready.pg))
        .collect();

    let mut m = Measured {
        setup_s,
        ..Measured::default()
    };
    let before = counters.snapshot();
    let times = measure_rounds(cfg.seconds, tracer, |r, t| {
        for (i, (&op, (reference, _))) in ready.ops.iter().zip(&references).enumerate() {
            t.set_op((r * ready.ops.len() + i) as u32);
            let t0 = Instant::now();
            let (outcome, _) = t.span(op.span_name(), |_| execute(op, &ready.exec, &ready.pg));
            m.ops.push(t0.elapsed().as_nanos() as u64);
            m.attempted += 1;
            if !outcome.matches(reference) {
                m.failed += 1;
            }
        }
        Ok(())
    })?;
    let engine = counters.snapshot().since(&before);

    m.closed_ok = m.attempted - m.failed;
    m.edges = engine.edges();
    m.rounds = times;

    if cfg.trace {
        m.set_engine_layer(&engine);
        m.set_span_medians(
            tracer,
            &[
                ("core.vebo_s", "core.vebo", 1.0),
                ("graph.permute_s", "graph.permute", 1.0),
                ("partition.prepare_s", "partition.prepare", 1.0),
                ("algorithms.bfs_s", "algorithms.bfs", 1.0),
                ("algorithms.bc_s", "algorithms.bc", 1.0),
                ("algorithms.bf_s", "algorithms.bf", 1.0),
                ("algorithms.cc_s", "algorithms.cc", 1.0),
                ("algorithms.prd_s", "algorithms.prd", 1.0),
            ],
        );
        let l = &mut m.layer;
        l.set(
            "algorithms.iterations",
            references.iter().map(|(_, it)| *it).sum::<usize>() as f64,
        );
        l.set("core.edge_imbalance", ready.edge_imbalance as f64);
        l.set("core.vertex_imbalance", ready.vertex_imbalance as f64);
        super::graph_layer(&mut m.layer, &path, ready.pg.graph())?;
    }
    Ok(m)
}
