//! Integration tests for the registry-driven reorder pipeline:
//! resolving every ordering by name, running it through the (parallel)
//! relabeling path, and checking that VEBO's balance guarantees are
//! invariant to whichever ordering the graph arrived in.

use proptest::prelude::*;
use vebo::core::balance::BalanceReport;
use vebo::core::Vebo;
use vebo::graph::gen::powerlaw::{zipf_directed, ZipfGraphConfig};
use vebo::graph::par::AUTO_PAR_THRESHOLD;
use vebo::graph::Graph;
use vebo::{chunked_balance_report, OrderingRegistry, ORDERING_NAMES};

/// A directed power-law (Zipf in-degree) graph satisfying the theorem
/// preconditions at the chosen partition counts.
fn power_law(seed: u64) -> Graph {
    power_law_of(4000, seed)
}

fn power_law_of(num_vertices: usize, seed: u64) -> Graph {
    zipf_directed(&ZipfGraphConfig {
        num_vertices,
        num_ranks: 32,
        s: 1.0,
        out_skew: 1.0,
        zero_out_fraction: 0.0,
        shuffle_ids: true,
        seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// VEBO's optimality (edge and vertex imbalance <= 1) holds no matter
    /// which registry ordering the graph was previously reordered with:
    /// the guarantee depends only on the degree distribution, which every
    /// relabeling preserves. Exercises name resolution, the (parallel)
    /// apply_graph path, and BalanceReport in one sweep.
    #[test]
    fn balance_invariants_hold_for_every_registry_ordering(
        seed in any::<u64>(),
        p in 2usize..16,
    ) {
        let g = power_law(seed);
        for (name, ordering) in OrderingRegistry::new(p).all() {
            let h = ordering.compute(&g).apply_graph(&g);
            prop_assert_eq!(h.num_edges(), g.num_edges(), "{}", name);
            let report = BalanceReport::from_result(&Vebo::new(p).compute_full(&h));
            prop_assert!(
                report.edge_imbalance <= 1,
                "{} then VEBO @ P={}: edge imbalance {}",
                name, p, report.edge_imbalance
            );
            prop_assert!(
                report.vertex_imbalance <= 1,
                "{} then VEBO @ P={}: vertex imbalance {}",
                name, p, report.vertex_imbalance
            );
        }
    }

    /// The blocked variant — degree sort, placement and scatter — gives
    /// the same result at one and at four threads, permutation included,
    /// on graphs past the one-chunk threshold.
    #[test]
    fn vebo_parallel_scatter_matches_sequential(seed in any::<u64>(), p in 1usize..24) {
        let g = power_law_of(AUTO_PAR_THRESHOLD + 1000, seed);
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| Vebo::new(p).compute_full(&g))
        };
        let (one, four) = (run(1), run(4));
        prop_assert_eq!(one.permutation.as_slice(), four.permutation.as_slice());
        prop_assert_eq!(one.assignment, four.assignment);
        prop_assert_eq!(one.vertex_counts, four.vertex_counts);
        prop_assert_eq!(one.edge_counts, four.edge_counts);
        prop_assert_eq!(one.starts, four.starts);
    }
}

/// The CLI's chunked balance report recovers VEBO's optimal balance on a
/// VEBO-ordered graph (the Figure 2 pipeline: reorder, then Algorithm 1).
#[test]
fn chunked_report_recovers_vebo_balance() {
    let g = power_law(3);
    let p = 8;
    let full = Vebo::new(p).compute_full(&g);
    let h = full.permutation.apply_graph(&g);
    let report = chunked_balance_report(&h, p);
    let direct = BalanceReport::from_result(&full);
    assert!(
        report.edge_imbalance <= direct.edge_imbalance + 1,
        "chunked {} vs direct {}",
        report.edge_imbalance,
        direct.edge_imbalance
    );
    assert_eq!(report.vertex_counts.iter().sum::<usize>(), g.num_vertices());
    assert_eq!(report.edge_counts.iter().sum::<u64>(), g.num_edges() as u64);
}

/// The roster is complete and stable: the seven paper orderings plus the
/// BOBA baseline, resolvable case-insensitively, with unknown names
/// rejected.
#[test]
fn roster_is_complete() {
    assert_eq!(
        ORDERING_NAMES,
        [
            "vebo",
            "rcm",
            "gorder",
            "hightolow",
            "random",
            "slashburn",
            "metis",
            "boba"
        ]
    );
    let reg = OrderingRegistry::new(4);
    for name in ORDERING_NAMES {
        assert!(reg.resolve(name).is_some(), "{name}");
        assert!(reg.resolve(&name.to_uppercase()).is_some(), "{name}");
    }
    assert!(reg.resolve("degree").is_none());
}
