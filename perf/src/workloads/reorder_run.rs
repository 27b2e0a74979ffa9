//! `reorder-run` — the paper's pipeline, paid in full on every operation.
//!
//! One operation is one pass over a mapped `.vgr`: `Vebo::compute_full`
//! (P = 384) → `Permutation::apply_graph` → `PreparedGraph::builder().build()`
//! (GraphGrind-like profile, CSR edge order) → PageRank (10 iterations) +
//! SPMV + BP on a 2-shard executor. `core`, `graph::permute`, `partition`
//! and the dense `engine` kernels do nearly all the work; the serving,
//! network and cluster code do none. A round is one pass.
//!
//! Gate: the PR, SPMV and BP digests of every pass equal those of the
//! warm-up pass (the partitioned profile accumulates destination-owned, so
//! they are bit-stable).

use super::{measure_rounds, repeat_setup, Measured, RunConfig, SeedStream};
use crate::fixtures::{load_mapped, FixtureSpec};
use crate::sink::{EngineCounters, SHARDS};
use crate::trace::Tracer;
use std::io;
use std::sync::Arc;
use std::time::Instant;
use vebo_algorithms::bp::{bp, BpConfig};
use vebo_algorithms::pagerank::{pagerank, PageRankConfig};
use vebo_algorithms::spmv::spmv;
use vebo_core::{BalanceReport, Vebo};
use vebo_engine::{Executor, PreparedGraph, SystemProfile};
use vebo_graph::{digest_u64s, Dataset, Graph};
use vebo_partition::EdgeOrder;

/// VEBO's partition count: GraphGrind's 384.
const PARTITIONS: usize = 384;

fn fixture(cfg: &RunConfig) -> FixtureSpec {
    FixtureSpec {
        dataset: Dataset::Rmat27Like,
        scale: cfg.size(4.0, 0.25),
        weighted: true,
        compressed: false,
    }
}

fn profile() -> SystemProfile {
    SystemProfile::graphgrind_like(EdgeOrder::Csr).with_partitions(PARTITIONS)
}

fn digest_f64(values: &[f64]) -> u64 {
    digest_u64s(values.iter().map(|x| x.to_bits()))
}

/// What one pass produced: the three result digests plus the exact
/// balance VEBO reached and the iteration count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PassOut {
    digests: [u64; 3],
    edge_imbalance: u64,
    vertex_imbalance: usize,
    iterations: usize,
}

fn pass(g: &Graph, exec: &Executor, x: &[f64], t: &mut Tracer) -> PassOut {
    let res = t.span("core.vebo", |_| Vebo::new(PARTITIONS).compute_full(g));
    let reordered = t.span("graph.permute", |_| res.permutation.apply_graph(g));
    let pg = t.span("partition.prepare", |_| {
        PreparedGraph::builder(reordered)
            .profile(profile())
            .vebo_starts(Some(&res.starts))
            .build()
            .expect("VEBO's own boundaries are valid")
    });
    // SPMV's input lives in the new id space, like the graph.
    let x = res.permutation.apply_values(x);
    let (pr, pr_report) = t.span("algorithms.pr", |_| {
        pagerank(exec, &pg, &PageRankConfig::default())
    });
    let (y, spmv_report) = t.span("algorithms.spmv", |_| spmv(exec, &pg, &x));
    let (beliefs, bp_report) = t.span("algorithms.bp", |_| bp(exec, &pg, &BpConfig::default()));
    let balance = BalanceReport::from_result(&res);
    PassOut {
        digests: [digest_f64(&pr), digest_f64(&y), digest_f64(&beliefs)],
        edge_imbalance: balance.edge_imbalance,
        vertex_imbalance: balance.vertex_imbalance,
        iterations: pr_report.iterations + spmv_report.iterations + bp_report.iterations,
    }
}

struct Ready {
    g: Graph,
    exec: Executor,
    x: Vec<f64>,
    reference: PassOut,
}

pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> io::Result<Measured> {
    let path = fixture(cfg).ensure()?;
    let counters = Arc::new(EngineCounters::default());
    let seed = cfg.seed;

    let (ready, setup_s) = repeat_setup(cfg.size(5, 1), tracer, |t| {
        let g = t.span("graph.load", |_| load_mapped(&path))?;
        let exec = Executor::sharded(profile(), SHARDS).with_sink(counters.clone());
        // The seed drives the one free input of the pipeline: SPMV's x.
        let mut s = SeedStream::new(seed, 0x5e0d);
        let x: Vec<f64> = (0..g.num_vertices()).map(|_| s.unit()).collect();
        let reference = t.span("perf.warmup", |t| pass(&g, &exec, &x, t));
        Ok(Ready {
            g,
            exec,
            x,
            reference,
        })
    })?;

    let mut m = Measured {
        setup_s,
        ..Measured::default()
    };
    let before = counters.snapshot();
    let times = measure_rounds(cfg.seconds, tracer, |r, t| {
        t.set_op(r as u32);
        let t0 = Instant::now();
        let out = t.span("perf.op", |t| pass(&ready.g, &ready.exec, &ready.x, t));
        m.ops.push(t0.elapsed().as_nanos() as u64);
        m.attempted += 1;
        if out != ready.reference {
            m.failed += 1;
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
                ("algorithms.pr_s", "algorithms.pr", 1.0),
                ("algorithms.spmv_s", "algorithms.spmv", 1.0),
                ("algorithms.bp_s", "algorithms.bp", 1.0),
            ],
        );
        let l = &mut m.layer;
        l.set("algorithms.iterations", ready.reference.iterations as f64);
        l.set("core.edge_imbalance", ready.reference.edge_imbalance as f64);
        l.set(
            "core.vertex_imbalance",
            ready.reference.vertex_imbalance as f64,
        );
        super::graph_layer(&mut m.layer, &path, &ready.g)?;
    }
    Ok(m)
}
