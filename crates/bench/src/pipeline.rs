//! The experiment pipeline shared by every harness binary: apply a vertex
//! ordering, prepare the graph through the engine's `PreparedGraph`
//! builder, run an algorithm through an `Executor`, convert per-task
//! measurements into the simulated 48-thread runtime.

use std::time::{Duration, Instant};
use vebo::OrderingRegistry;
use vebo_core::Vebo;
use vebo_engine::{Executor, PreparedGraph, SystemProfile};
use vebo_graph::{Graph, Permutation};

/// The vertex orderings compared in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrderingKind {
    /// Original ids (the "Orig." columns).
    Original,
    /// Reverse Cuthill–McKee.
    Rcm,
    /// Gorder (hub-capped for time-boxed harness runs; Table VI measures
    /// the faithful variant on graphs small enough to finish).
    Gorder,
    /// VEBO with the target system's partition count.
    Vebo,
    /// Uniformly random permutation (§V-C).
    Random,
    /// VEBO applied on top of the random permutation (§V-C).
    RandomPlusVebo,
    /// High-to-low degree sort (§V-G).
    HighToLow,
    /// SlashBurn hub-removal ordering (extension; §VI related work).
    SlashBurn,
    /// METIS-like multilevel partition + contiguous relabeling
    /// (extension; §VI's "additional vertex relabeling" remark).
    MetisLike,
    /// BOBA first-touch edge-stream ordering (extension; Drescher &
    /// Porumbescu, arXiv:2306.10410) — the lightweight O(m) comparator
    /// in VEBO's own reordering-cost class.
    Boba,
}

impl OrderingKind {
    /// The four orderings of Table III, in column order.
    pub const TABLE3: [OrderingKind; 4] = [
        OrderingKind::Original,
        OrderingKind::Rcm,
        OrderingKind::Gorder,
        OrderingKind::Vebo,
    ];

    /// Table III's columns plus the extension orderings (`table3_runtime
    /// --extended`).
    pub const TABLE3_EXTENDED: [OrderingKind; 7] = [
        OrderingKind::Original,
        OrderingKind::Rcm,
        OrderingKind::Gorder,
        OrderingKind::Vebo,
        OrderingKind::SlashBurn,
        OrderingKind::MetisLike,
        OrderingKind::Boba,
    ];

    /// The four orderings of Figure 5.
    pub const FIG5: [OrderingKind; 4] = [
        OrderingKind::Original,
        OrderingKind::Vebo,
        OrderingKind::Random,
        OrderingKind::RandomPlusVebo,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            OrderingKind::Original => "Orig.",
            OrderingKind::Rcm => "RCM",
            OrderingKind::Gorder => "Gorder",
            OrderingKind::Vebo => "VEBO",
            OrderingKind::Random => "Random",
            OrderingKind::RandomPlusVebo => "Random+VEBO",
            OrderingKind::HighToLow => "HighToLow",
            OrderingKind::SlashBurn => "SlashBurn",
            OrderingKind::MetisLike => "METIS-like",
            OrderingKind::Boba => "BOBA",
        }
    }

    /// Registry name of this ordering, or `None` for the two kinds that
    /// are not plain roster members (the identity and the Random+VEBO
    /// composition).
    pub fn registry_name(self) -> Option<&'static str> {
        match self {
            OrderingKind::Original | OrderingKind::RandomPlusVebo => None,
            OrderingKind::Rcm => Some("rcm"),
            OrderingKind::Gorder => Some("gorder"),
            OrderingKind::Vebo => Some("vebo"),
            OrderingKind::Random => Some("random"),
            OrderingKind::HighToLow => Some("hightolow"),
            OrderingKind::SlashBurn => Some("slashburn"),
            OrderingKind::MetisLike => Some("metis"),
            OrderingKind::Boba => Some("boba"),
        }
    }

    /// The registry every harness resolves through. The hub cap keeps
    /// Gorder's sibling-update fan-out bounded so the full Table III cross
    /// product stays time-boxed (Table VI measures the faithful, uncapped
    /// cost separately); the random seed is the §V-C experiment seed.
    pub fn registry(num_partitions: usize) -> OrderingRegistry {
        OrderingRegistry::new(num_partitions)
            .with_gorder_hub_cap(Some(64))
            .with_random_seed(0xF1665)
    }

    /// Computes the permutation for `g` (with `num_partitions` as VEBO's
    /// target), returning it with the ordering wall time (Table VI).
    pub fn compute(self, g: &Graph, num_partitions: usize) -> (Permutation, Duration) {
        let t0 = Instant::now();
        let registry = Self::registry(num_partitions);
        let resolve = |name: &str| registry.resolve(name).expect("roster names always resolve");
        let perm = match self.registry_name() {
            Some(name) => resolve(name).compute(g),
            None => match self {
                OrderingKind::Original => Permutation::identity(g.num_vertices()),
                OrderingKind::RandomPlusVebo => {
                    let random = resolve("random").compute(g);
                    let shuffled = random.apply_graph(g);
                    let vebo = resolve("vebo").compute(&shuffled);
                    random.then(&vebo)
                }
                _ => unreachable!("registry_name covers every other kind"),
            },
        };
        (perm, t0.elapsed())
    }
}

/// Applies `ordering` to `g` and returns the reordered graph plus the
/// ordering time.
pub fn ordered_graph(
    g: &Graph,
    ordering: OrderingKind,
    num_partitions: usize,
) -> (Graph, Duration) {
    let (h, _, t) = ordered_with_starts(g, ordering, num_partitions);
    (h, t)
}

/// As [`ordered_graph`], additionally returning VEBO's exact phase-3
/// partition boundaries (in the *new* id space) when the ordering is
/// VEBO-based — Algorithm 2's output includes these "partition end
/// points", and the systems consume them instead of re-running the chunk
/// walk.
pub fn ordered_with_starts(
    g: &Graph,
    ordering: OrderingKind,
    num_partitions: usize,
) -> (Graph, Option<Vec<usize>>, Duration) {
    let t0 = Instant::now();
    match ordering {
        OrderingKind::Vebo => {
            let res = Vebo::new(num_partitions).compute_full(g);
            let h = res.permutation.apply_graph(g);
            (h, Some(res.starts), t0.elapsed())
        }
        OrderingKind::RandomPlusVebo => {
            let random = OrderingKind::registry(num_partitions)
                .resolve("random")
                .expect("random is a roster name")
                .compute(g);
            let shuffled = random.apply_graph(g);
            let res = Vebo::new(num_partitions).compute_full(&shuffled);
            let h = res.permutation.apply_graph(&shuffled);
            (h, Some(res.starts), t0.elapsed())
        }
        other => {
            let (perm, t) = other.compute(g, num_partitions);
            (perm.apply_graph(g), None, t)
        }
    }
}

/// Runs one PageRank iteration under the GraphGrind profile and returns
/// the per-partition task measurements of its edgemap — the raw series
/// behind Figures 1, 4a and 6.
pub fn pr_one_iteration_tasks(
    g: &Graph,
    num_partitions: usize,
    edge_order: vebo_partition::EdgeOrder,
) -> Vec<vebo_engine::TaskStats> {
    use vebo_algorithms::pagerank::{pagerank, PageRankConfig};
    let profile = SystemProfile::graphgrind_like(edge_order).with_partitions(num_partitions);
    let pg = PreparedGraph::builder(g.clone())
        .profile(profile)
        .build()
        .expect("no explicit bounds, cannot fail");
    let cfg = PageRankConfig {
        iterations: 1,
        ..Default::default()
    };
    let (_, report) = pagerank(&Executor::new(profile), &pg, &cfg);
    report.edge_maps[0].tasks.clone()
}

/// Per-partition PageRank edgemap time, aggregated over `repeats`
/// iterations to lift the signal above timer noise (scaled-down
/// partitions process microseconds of work per iteration; the paper's
/// full-size partitions process milliseconds). Returns the *minimum*
/// nanoseconds per partition across iterations — each iteration does
/// identical work, so the minimum is the standard noise-robust estimate.
/// `vebo_starts` supplies exact boundaries when available.
pub fn pr_partition_nanos(
    g: &Graph,
    num_partitions: usize,
    edge_order: vebo_partition::EdgeOrder,
    repeats: usize,
    vebo_starts: Option<&[usize]>,
) -> Vec<u64> {
    let profile = SystemProfile::graphgrind_like(edge_order).with_partitions(num_partitions);
    pr_task_nanos(g, profile, repeats, vebo_starts)
}

/// As [`pr_partition_nanos`] for an arbitrary profile: min-per-task
/// nanoseconds of the dense PageRank edgemap across `repeats` iterations.
pub fn pr_task_nanos(
    g: &Graph,
    profile: SystemProfile,
    repeats: usize,
    vebo_starts: Option<&[usize]>,
) -> Vec<u64> {
    use vebo_algorithms::pagerank::{pagerank, PageRankConfig};
    let pg = PreparedGraph::builder(g.clone())
        .profile(profile)
        .vebo_starts(vebo_starts)
        .build()
        .expect("harness boundaries come from VEBO and are valid");
    let cfg = PageRankConfig {
        iterations: repeats.max(1),
        ..Default::default()
    };
    let (_, report) = pagerank(&Executor::new(profile), &pg, &cfg);
    let mut nanos = vec![u64::MAX; pg.num_tasks()];
    for em in &report.edge_maps {
        for (p, task) in em.tasks.iter().enumerate() {
            nanos[p] = nanos[p].min(task.nanos);
        }
    }
    nanos
}

#[cfg(test)]
mod tests {
    use super::*;
    use vebo_graph::{Dataset, VertexOrdering};

    #[test]
    fn all_orderings_produce_valid_graphs() {
        let g = Dataset::YahooLike.build(0.02);
        for ord in [
            OrderingKind::Original,
            OrderingKind::Rcm,
            OrderingKind::Gorder,
            OrderingKind::Vebo,
            OrderingKind::Random,
            OrderingKind::RandomPlusVebo,
            OrderingKind::HighToLow,
            OrderingKind::SlashBurn,
            OrderingKind::MetisLike,
            OrderingKind::Boba,
        ] {
            let (h, t) = ordered_graph(&g, ord, 16);
            assert_eq!(h.num_vertices(), g.num_vertices(), "{}", ord.name());
            assert_eq!(h.num_edges(), g.num_edges(), "{}", ord.name());
            assert!(t.as_nanos() > 0 || ord == OrderingKind::Original);
        }
    }

    #[test]
    fn random_plus_vebo_composes() {
        // Applying Random+VEBO must equal applying random, then VEBO on
        // the shuffled graph.
        let g = Dataset::YahooLike.build(0.02);
        let (perm, _) = OrderingKind::RandomPlusVebo.compute(&g, 8);
        let direct = perm.apply_graph(&g);
        let random = OrderingKind::registry(8)
            .resolve("random")
            .unwrap()
            .compute(&g);
        let shuffled = random.apply_graph(&g);
        let vebo = Vebo::new(8).compute(&shuffled);
        let two_step = vebo.apply_graph(&shuffled);
        assert_eq!(direct.csr().offsets(), two_step.csr().offsets());
        assert_eq!(direct.csr().targets(), two_step.csr().targets());
    }

    #[test]
    fn table3_column_order() {
        let names: Vec<&str> = OrderingKind::TABLE3.iter().map(|o| o.name()).collect();
        assert_eq!(names, vec!["Orig.", "RCM", "Gorder", "VEBO"]);
    }
}
