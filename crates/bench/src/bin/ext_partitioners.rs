//! Extension study: partitioner quality grid.
//!
//! Compares the paper's chunk partitioning (Algorithm 1 on the original
//! and on the VEBO order) against the distributed-partitioning families
//! §VI surveys — hash, LDG, Fennel, METIS-like multilevel (vertex
//! assignments) and PowerGraph greedy / PowerLyra hybrid (edge
//! placements) — on every dataset. Reported per strategy:
//!
//! * cut fraction and replication factor (communication cost),
//! * vertex and edge imbalance (the paper's load-balance criteria),
//! * partitioning time.
//!
//! The expected picture: VEBO is the only strategy with perfect vertex
//! *and* edge balance; the cut-optimizing strategies pay an imbalance
//! penalty (and vice versa).
//!
//! ```text
//! cargo run --release -p vebo-bench --bin ext_partitioners -- --quick
//! ```

use std::time::Instant;
use vebo_bench::{HarnessArgs, Table};
use vebo_distributed::vertex_cut::random_edge_placement;
use vebo_distributed::{GreedyVertexCut, HybridCut, Strategy};
use vebo_graph::degree::vertices_by_decreasing_in_degree;
use vebo_graph::Dataset;

fn main() {
    let args = HarnessArgs::parse(
        "ext_partitioners",
        "partitioner quality grid: chunk/VEBO vs streaming/multilevel/vertex-cut",
    );
    let scale = args.scale_or(0.3);
    let workers = args.partitions.unwrap_or(16);
    println!("== Partitioner quality at P = {workers}, scale {scale} ==\n");

    for dataset in args.datasets() {
        let g = args.build_dataset(dataset, scale);
        println!(
            "--- {} ({} vertices, {} edges) ---",
            dataset.name(),
            g.num_vertices(),
            g.num_edges()
        );

        let mut t = Table::new(&[
            "strategy",
            "cut %",
            "repl.",
            "vert imb",
            "edge imb",
            "time (ms)",
        ]);
        for s in Strategy::ALL {
            let t0 = Instant::now();
            let (h, asg) = s.realize(&g, workers);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let q = asg.quality(&h);
            t.row(&[
                s.name().into(),
                format!("{:.1}", 100.0 * q.cut_fraction()),
                format!("{:.2}", q.replication_factor),
                format!("{:.3}", q.vertex_imbalance),
                format!("{:.3}", q.edge_imbalance),
                format!("{ms:.1}"),
            ]);
        }
        t.print();

        // Edge placements (vertex cuts) have replication factor as the
        // headline and edge load balance as the secondary metric.
        let theta = (g.num_edges() / g.num_vertices().max(1)).max(1);
        let mut t = Table::new(&["edge placement", "repl.", "edge imb", "time (ms)"]);
        let mut add = |name: &str, f: &mut dyn FnMut() -> vebo_distributed::EdgePlacement| {
            let t0 = Instant::now();
            let p = f();
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            t.row(&[
                name.into(),
                format!("{:.2}", p.replication_factor()),
                format!("{:.3}", p.load_imbalance()),
                format!("{ms:.1}"),
            ]);
        };
        add("Random edges", &mut || {
            random_edge_placement(&g, workers.min(64)).expect("worker count capped at 64")
        });
        add("Greedy (id order)", &mut || {
            GreedyVertexCut
                .place(&g, workers.min(64))
                .expect("worker count capped at 64")
        });
        add("Greedy (degree desc)", &mut || {
            let order = vertices_by_decreasing_in_degree(&g);
            GreedyVertexCut
                .place_with_source_order(&g, workers.min(64), &order)
                .expect("worker count capped at 64")
        });
        add(&format!("Hybrid-cut (deg>{theta})"), &mut || {
            HybridCut::new(theta)
                .place(&g, workers.min(64))
                .expect("worker count capped at 64")
        });
        t.print();
        println!();
    }

    let _ = Dataset::ALL; // silence potential unused warnings on filtered runs
}
