//! Tour of the executor-centric engine API.
//!
//! One `Executor` owns every execution policy — execution mode, NUMA
//! placement, scheduling, instrumentation — and `PreparedGraph::builder`
//! is the single construction path for execution-ready graphs. This
//! example walks through all four responsibilities:
//!
//! 1. build a prepared graph (with VEBO's exact boundaries) per profile;
//! 2. run an algorithm sequentially vs on the sharded worker pool
//!    (identical results);
//! 3. inspect the NUMA placement plan of a statically scheduled profile
//!    and the per-socket time split of a measured edgemap;
//! 4. attach a custom instrumentation sink.
//!
//! ```text
//! cargo run --release --example executor
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use vebo::core::Vebo;
use vebo::engine::{
    DensityClass, EdgeMapReport, Executor, InstrumentSink, PreparedGraph, SystemProfile,
    VertexMapReport,
};
use vebo::graph::Dataset;
use vebo::partition::EdgeOrder;
use vebo_algorithms::pagerank::{pagerank, PageRankConfig};

/// A custom sink: counts operations and dense rounds.
#[derive(Default)]
struct OpCounter {
    edge_maps: AtomicUsize,
    vertex_maps: AtomicUsize,
    dense_rounds: AtomicUsize,
}

impl InstrumentSink for OpCounter {
    fn record_edge_map(&self, class: DensityClass, _report: &EdgeMapReport) {
        self.edge_maps.fetch_add(1, Ordering::Relaxed);
        if class == DensityClass::Dense {
            self.dense_rounds.fetch_add(1, Ordering::Relaxed);
        }
    }
    fn record_vertex_map(&self, _report: &VertexMapReport) {
        self.vertex_maps.fetch_add(1, Ordering::Relaxed);
    }
}

fn main() {
    let g = Dataset::TwitterLike.build(0.2);
    println!(
        "twitter-like graph: {} vertices, {} edges\n",
        g.num_vertices(),
        g.num_edges()
    );

    // ---- 1. prepare the graph through the builder --------------------
    let vebo = Vebo::new(48).compute_full(&g);
    let profile = SystemProfile::graphgrind_like(EdgeOrder::Csr).with_partitions(48);
    let pg = PreparedGraph::builder(vebo.permutation.apply_graph(&g))
        .profile(profile)
        .vebo_starts(Some(&vebo.starts))
        .build()
        .expect("VEBO boundaries are valid");
    println!(
        "prepared {} tasks under the GraphGrind-like profile (exact VEBO bounds)",
        pg.num_tasks()
    );

    // ---- 2. sequential (measured) vs sharded execution ---------------
    let cfg = PageRankConfig::default();
    let sequential = Executor::new(profile);
    let sharded = Executor::sharded(profile, 2);
    let (ranks_seq, report) = pagerank(&sequential, &pg, &cfg);
    let (ranks_sharded, _) = pagerank(&sharded, &pg, &cfg);
    let max_diff = ranks_seq
        .iter()
        .zip(&ranks_sharded)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("sequential vs sharded PageRank: max |diff| = {max_diff:.2e}");
    println!(
        "simulated {}-thread runtime ({:?} scheduling): {:.3} ms",
        profile.topology.num_threads,
        profile.scheduling,
        sequential.simulated_seconds(&report) * 1e3
    );

    // ---- 3. NUMA placement -------------------------------------------
    let plan = sequential
        .placement(pg.num_tasks())
        .expect("static profiles are placed");
    println!(
        "\nplacement plan: {} tasks over {} sockets; socket of task 0/24/47 = {}/{}/{}",
        plan.num_tasks(),
        plan.num_sockets(),
        plan.socket_of(0),
        plan.socket_of(24),
        plan.socket_of(47),
    );
    let em = &report.edge_maps[0];
    let per_socket = em.per_socket_nanos();
    println!(
        "first edgemap, measured time per socket (us): {:?}",
        per_socket.iter().map(|n| n / 1_000).collect::<Vec<_>>()
    );

    // ---- 4. a custom instrumentation sink ----------------------------
    let counter = Arc::new(OpCounter::default());
    let instrumented = Executor::new(profile).with_sink(counter.clone());
    let _ = pagerank(&instrumented, &pg, &cfg);
    println!(
        "\ncustom sink saw {} edgemaps ({} dense) and {} vertexmaps",
        counter.edge_maps.load(Ordering::Relaxed),
        counter.dense_rounds.load(Ordering::Relaxed),
        counter.vertex_maps.load(Ordering::Relaxed),
    );
}
