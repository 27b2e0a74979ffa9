//! Property tests for the reorder pipeline's thread-count invariance:
//! the CSR builder, transpose, `apply_graph`, the in-degree histogram and
//! the degree sort each have one chunked body, and its output — offsets,
//! targets, weights — must not depend on how many chunks it ran in.
//!
//! Each test runs the same call in a 1-thread pool and in a 4-thread
//! pool on inputs at or above [`AUTO_PAR_THRESHOLD`], so the second run
//! really splits into four chunks. Vertex counts stay small where the
//! stage is sized by edges, so multi-edges and skew stay adversarial.
//! Two independent oracles pin the shared answer: `from_pairs` is a
//! stable sort of the pairs by source followed by per-list sorting, and
//! `transpose` is `from_pairs` of the swapped pairs.

use proptest::prelude::*;
use vebo_graph::adjacency::Adjacency;
use vebo_graph::degree::{in_degree_histogram, vertices_by_decreasing_in_degree};
use vebo_graph::gen::random_permutation;
use vebo_graph::graph::mix64;
use vebo_graph::par::AUTO_PAR_THRESHOLD;
use vebo_graph::{Graph, VertexId};

/// `m` pseudo-random pairs over `0..n`, self-loops and parallel edges
/// included, plus one weight per pair.
fn random_edges(n: usize, m: usize, seed: u64) -> (Vec<(VertexId, VertexId)>, Vec<f32>) {
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
    let weights = (0..m).map(|_| (next() % 1000) as f32 / 10.0).collect();
    (edges, weights)
}

/// Arbitrary (n, edges, weights) triples with few vertices and at least
/// [`AUTO_PAR_THRESHOLD`] edges: every list holds hundreds of multi-edges.
fn arb_edges() -> impl Strategy<Value = (usize, Vec<(VertexId, VertexId)>, Vec<f32>)> {
    (1usize..120, 0usize..2000, any::<u64>()).prop_map(|(n, extra, seed)| {
        let (edges, weights) = random_edges(n, AUTO_PAR_THRESHOLD + extra, seed);
        (n, edges, weights)
    })
}

/// Arbitrary graphs with at least [`AUTO_PAR_THRESHOLD`] vertices, for
/// the stages sized by vertex count. Half the edges land on a handful of
/// hubs, so the degree histogram is long and skewed.
fn arb_wide_graph() -> impl Strategy<Value = Graph> {
    (0usize..500, 0usize..3000, any::<u64>(), any::<bool>()).prop_map(
        |(extra, m, seed, directed)| {
            let n = AUTO_PAR_THRESHOLD + extra;
            let (mut edges, _) = random_edges(n, m, seed);
            for (k, e) in edges.iter_mut().enumerate().filter(|(k, _)| k % 2 == 0) {
                e.1 = (mix64(seed ^ k as u64) % 8) as VertexId;
            }
            Graph::from_edges(n, &edges, directed)
        },
    )
}

/// Runs `f` with `threads` rayon threads.
fn in_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

/// `(one thread, four threads)` results of `f`.
fn one_and_four<R>(f: impl Fn() -> R) -> (R, R) {
    (in_pool(1, &f), in_pool(4, &f))
}

/// Oracle for `from_pairs`: a stable sort of the pairs by source, then
/// each list sorted by target.
fn oracle_csr(n: usize, edges: &[(VertexId, VertexId)]) -> (Vec<usize>, Vec<VertexId>) {
    let mut sorted = edges.to_vec();
    sorted.sort_by_key(|&(s, _)| s);
    let mut offsets = vec![0usize; n + 1];
    for &(s, _) in &sorted {
        offsets[s as usize + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let mut targets: Vec<VertexId> = sorted.iter().map(|&(_, t)| t).collect();
    for v in 0..n {
        targets[offsets[v]..offsets[v + 1]].sort_unstable();
    }
    (offsets, targets)
}

/// Asserts `adj` holds the oracle's lists, and — when weighted — the same
/// `(target, weight)` multiset per list as the input pairs.
fn assert_matches_oracle(adj: &Adjacency, n: usize, edges: &[(VertexId, VertexId)], w: &[f32]) {
    let (offsets, targets) = oracle_csr(n, edges);
    assert_eq!(adj.offsets(), &offsets[..]);
    assert_eq!(adj.targets(), &targets[..]);
    if adj.has_weights() {
        let mut want: Vec<(VertexId, VertexId, u32)> = edges
            .iter()
            .zip(w)
            .map(|(&(s, t), x)| (s, t, x.to_bits()))
            .collect();
        let mut got: Vec<(VertexId, VertexId, u32)> = adj
            .iter_edges()
            .zip(adj.raw_weights().unwrap())
            .map(|((s, t), x)| (s, t, x.to_bits()))
            .collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want);
    }
}

/// Oracle for `transpose`: `from_pairs` of the swapped pairs, fed in CSR
/// order so equal sources keep their weights' order.
fn oracle_transpose(adj: &Adjacency) -> Adjacency {
    let swapped: Vec<(VertexId, VertexId)> = adj.iter_edges().map(|(s, t)| (t, s)).collect();
    Adjacency::from_pairs_weighted(adj.num_vertices(), &swapped, adj.raw_weights())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The CSR build is the same at one and four threads, and equals the
    /// oracle, unweighted.
    #[test]
    fn parallel_csr_build_matches_sequential((n, edges, _w) in arb_edges()) {
        let (one, four) = one_and_four(|| Adjacency::from_pairs(n, &edges));
        prop_assert_eq!(&one, &four);
        assert_matches_oracle(&one, n, &edges, &[]);
    }

    /// As above, with weights riding along.
    #[test]
    fn parallel_weighted_csr_build_matches_sequential((n, edges, w) in arb_edges()) {
        let (one, four) = one_and_four(|| Adjacency::from_pairs_weighted(n, &edges, Some(&w)));
        prop_assert_eq!(&one, &four);
        assert_matches_oracle(&one, n, &edges, &w);
    }

    /// The transpose is the same at one and four threads, and equals
    /// `from_pairs` of the swapped pairs, weights included.
    #[test]
    fn parallel_transpose_matches_sequential((n, edges, w) in arb_edges()) {
        let adj = Adjacency::from_pairs_weighted(n, &edges, Some(&w));
        let (one, four) = one_and_four(|| adj.transpose());
        prop_assert_eq!(&one, &four);
        prop_assert_eq!(&one, &oracle_transpose(&adj));
    }

    /// `apply_graph` is the same at one and four threads, directed and
    /// undirected, weighted and not.
    #[test]
    fn parallel_apply_graph_matches_sequential(
        (n, edges, _w) in arb_edges(),
        seed in any::<u64>(),
        directed in any::<bool>(),
        weighted in any::<bool>(),
    ) {
        let mut g = Graph::from_edges(n, &edges, directed);
        if weighted {
            g = g.with_hash_weights(64);
        }
        let perm = random_permutation(n, seed);
        let (one, four) = one_and_four(|| perm.apply_graph(&g));
        prop_assert_eq!(one.csr(), four.csr());
        prop_assert_eq!(one.csc(), four.csc());
        prop_assert_eq!(one.is_directed(), four.is_directed());
    }

    /// Below the threshold a 4-thread pool runs the build as one chunk;
    /// the result is still the oracle's.
    #[test]
    fn auto_mode_agrees_with_sequential(n in 1usize..120, m in 0usize..600, seed in any::<u64>()) {
        let (edges, w) = random_edges(n, m, seed);
        let adj = in_pool(4, || Adjacency::from_pairs_weighted(n, &edges, Some(&w)));
        assert_matches_oracle(&adj, n, &edges, &w);
    }

    /// The in-degree histogram is the same at one and four threads, and
    /// equals a direct count.
    #[test]
    fn parallel_histogram_matches_sequential(g in arb_wide_graph()) {
        let (one, four) = one_and_four(|| in_degree_histogram(&g));
        prop_assert_eq!(&one, &four);
        let mut direct = vec![0usize; g.vertices().map(|v| g.in_degree(v)).max().unwrap() + 1];
        for v in g.vertices() {
            direct[g.in_degree(v)] += 1;
        }
        prop_assert_eq!(one, direct);
    }

    /// The decreasing-in-degree order is the same at one and four threads
    /// and is *exactly* a stable sort by decreasing degree — ties by
    /// ascending id, not merely a valid reordering.
    #[test]
    fn parallel_degree_order_matches_sequential(g in arb_wide_graph()) {
        let (one, four) = one_and_four(|| vertices_by_decreasing_in_degree(&g));
        prop_assert_eq!(&one, &four);
        prop_assert_eq!(one, stable_degree_order(&g));
    }
}

/// Oracle for the degree sort: a stable sort of the ids by decreasing
/// in-degree.
fn stable_degree_order(g: &Graph) -> Vec<VertexId> {
    let mut order: Vec<VertexId> = g.vertices().collect();
    order.sort_by_key(|&v| std::cmp::Reverse(g.in_degree(v)));
    order
}

/// The degree order past the threshold with a heavily skewed
/// (power-law-ish) degree distribution.
#[test]
fn parallel_degree_order_large_skewed_graph() {
    let n = 40_000usize;
    let mut x = 11u64;
    let mut next = move || {
        x = mix64(x);
        x
    };
    // Heavy skew: half the edges land on ~16 hub vertices.
    let edges: Vec<(VertexId, VertexId)> = (0..120_000)
        .map(|_| {
            let dst = if next() % 2 == 0 {
                (next() % 16) as VertexId
            } else {
                (next() % n as u64) as VertexId
            };
            ((next() % n as u64) as VertexId, dst)
        })
        .collect();
    let g = Graph::from_edges(n, &edges, true);
    let (one, four) = one_and_four(|| vertices_by_decreasing_in_degree(&g));
    assert_eq!(one, four);
    assert_eq!(one, stable_degree_order(&g));
    let (h1, h4) = one_and_four(|| in_degree_histogram(&g));
    assert_eq!(h1, h4);
}

/// One deterministic build well past the threshold, on more vertices
/// than the proptests use.
#[test]
fn auto_parallelizes_large_graphs_identically() {
    let n = 20_000usize;
    let (edges, _) = random_edges(n, 100_000, 7);
    let (one, four) = one_and_four(|| Adjacency::from_pairs(n, &edges));
    assert_eq!(one, four);
    assert_matches_oracle(&one, n, &edges, &[]);
    let (t1, t4) = one_and_four(|| one.transpose());
    assert_eq!(t1, t4);
    assert_eq!(t1, oracle_transpose(&one));
}

/// Regression: with more threads than edges, trailing chunks are empty
/// and their ranges must clamp to `m` instead of panicking (m = 5 with a
/// 4-thread pool used to produce the range 6..5).
#[test]
fn forced_parallel_handles_fewer_edges_than_chunk_capacity() {
    for m in 0..12usize {
        let edges: Vec<(VertexId, VertexId)> = (0..m)
            .map(|e| ((e % 3) as VertexId, ((e + 1) % 3) as VertexId))
            .collect();
        let adj = in_pool(4, || Adjacency::from_pairs(3, &edges));
        assert_matches_oracle(&adj, 3, &edges, &[]);
        let t = in_pool(4, || adj.transpose());
        assert_eq!(t, oracle_transpose(&adj), "transpose m={m}");
    }
}
