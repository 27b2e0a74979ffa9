//! Cross-executor conformance suite: every executor backend — sequential
//! measured and sharded at S ∈ {1, 2, 7} — must be
//! *indistinguishable* for all 8 algorithms on all 3 system profiles.
//! The sharded serving backend joins with the same day-one coverage the
//! storage backends got in `storage_equivalence.rs`.
//!
//! "Indistinguishable" is checked at two levels:
//!
//! 1. **Bit-identical result digests.** Each algorithm's result is
//!    reduced to a canonical `Vec<u64>` digest that quotients out only
//!    the freedom the algorithm's *specification* grants (and nothing
//!    more):
//!    * PR, SPMV, BP, BF — the raw `f64` bit patterns (PR/SPMV/BP force
//!      dense traversal, so every accumulation is destination-owned; BF
//!      converges to the unique shortest-distance fixed point);
//!    * BFS — levels, not parents (which parent wins a same-level race
//!      is a legitimate tie-break; the level array is not);
//!    * CC — the final labels (the component-minimum fixed point);
//!    * BC, PRD — `f64` bits under an executor pinned to
//!      `Direction::Dense`: their sparse push interleaves atomic `f64`
//!      additions across tasks, so cross-backend bit equality is only
//!      *defined* for destination-owned accumulation. (A separate
//!      tolerance test covers their auto-direction sparse paths.)
//! 2. **Deterministic `RunReport` fields.** For the algorithms whose
//!    round structure is scheduling-independent (PR, PRD, BFS, BC,
//!    SPMV, BP), iteration counts, frontier classes, traversal choices,
//!    output sizes, task counts, per-task edge/vertex work, and socket
//!    stamps must all agree with the sequential reference; wall-clock
//!    nanos and the shard occupancy report are the only backend-specific
//!    fields. (CC and BF propagate values written *within* a round, so
//!    their round count legitimately depends on task interleaving —
//!    their digests above still may not.)
//!
//! A concurrency stress test then fires interleaved request batches at
//! one shared sharded executor and checks every response against its
//! sequential reference.
//!
//! "The graph" is a *versioned handle* throughout: two dynamic-graph
//! tests extend the matrix to mutable graphs — a compacted
//! [`DynamicGraph`] must be indistinguishable (bit-identical digests,
//! all 8 algorithms, every backend) from a static graph built from
//! scratch over the same edge set, and a mutation storm must never
//! block queries, which keep serving off their pinned epochs while
//! compactions republish new ones underneath.

mod common;

use common::assert_reports_match;
use vebo::engine::{Direction, Executor, PreparedGraph, RunReport, SystemProfile};
use vebo::graph::{mix64, DynamicGraph, Graph};
use vebo::partition::EdgeOrder;
use vebo_algorithms::bc::bc;
use vebo_algorithms::bellman_ford::bellman_ford;
use vebo_algorithms::bfs::{bfs, levels_from_parents};
use vebo_algorithms::bp::{bp, BpConfig};
use vebo_algorithms::cc::cc;
use vebo_algorithms::pagerank::{pagerank, PageRankConfig};
use vebo_algorithms::pagerank_delta::{pagerank_delta, PageRankDeltaConfig};
use vebo_algorithms::spmv::spmv;
use vebo_algorithms::{default_source, needs_weights, AlgorithmKind};
use vebo_bench::serve::{generate_requests, Request, ServeEngine};

fn profiles() -> [SystemProfile; 3] {
    [
        SystemProfile::ligra_like(),
        SystemProfile::polymer_like(),
        SystemProfile::graphgrind_like(EdgeOrder::Csr),
    ]
}

/// The backends under test: name, executor factory.
fn backends(profile: SystemProfile) -> Vec<(String, Executor)> {
    let mut out = vec![("sequential".to_string(), Executor::new(profile))];
    for shards in [1usize, 2, 7] {
        out.push((
            format!("sharded-{shards}"),
            Executor::sharded(profile, shards),
        ));
    }
    out
}

/// Whether cross-backend digests are only defined under pinned dense
/// traversal (see the module docs).
fn needs_dense_pin(kind: AlgorithmKind) -> bool {
    matches!(kind, AlgorithmKind::Bc | AlgorithmKind::Prd)
}

/// Whether the algorithm's round structure (and hence its whole
/// deterministic report) is scheduling-independent.
fn report_is_deterministic(kind: AlgorithmKind) -> bool {
    !matches!(kind, AlgorithmKind::Cc | AlgorithmKind::Bf)
}

fn f64_bits(v: Vec<f64>) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Canonical bit-exact digest of one algorithm run.
fn digest(kind: AlgorithmKind, exec: &Executor, pg: &PreparedGraph) -> (Vec<u64>, RunReport) {
    let exec = if needs_dense_pin(kind) {
        exec.clone().with_direction(Direction::Dense)
    } else {
        exec.clone()
    };
    let src = default_source(pg.graph());
    match kind {
        AlgorithmKind::Pr => {
            let (r, rep) = pagerank(&exec, pg, &PageRankConfig::default());
            (f64_bits(r), rep)
        }
        AlgorithmKind::Prd => {
            let (r, rep) = pagerank_delta(&exec, pg, &PageRankDeltaConfig::default());
            (f64_bits(r), rep)
        }
        AlgorithmKind::Bfs => {
            let (r, rep) = bfs(&exec, pg, src);
            (
                levels_from_parents(&r, src)
                    .into_iter()
                    .map(u64::from)
                    .collect(),
                rep,
            )
        }
        AlgorithmKind::Bc => {
            let (r, rep) = bc(&exec, pg, src);
            (f64_bits(r), rep)
        }
        AlgorithmKind::Cc => {
            let (r, rep) = cc(&exec, pg);
            (r.into_iter().map(u64::from).collect(), rep)
        }
        AlgorithmKind::Spmv => {
            let x: Vec<f64> = (0..pg.graph().num_vertices())
                .map(|i| ((i % 17) as f64) / 17.0)
                .collect();
            let (r, rep) = spmv(&exec, pg, &x);
            (f64_bits(r), rep)
        }
        AlgorithmKind::Bf => {
            let (r, rep) = bellman_ford(&exec, pg, src);
            (f64_bits(r), rep)
        }
        AlgorithmKind::Bp => {
            let (r, rep) = bp(&exec, pg, &BpConfig::default());
            (f64_bits(r), rep)
        }
    }
}

/// The acceptance matrix: 8 algorithms x 3 profiles x 5 backends x 2
/// neighbor-list backings (plain, delta-varint compressed), all digests
/// bit-identical to the sequential reference, all deterministic report
/// fields equal where the algorithm's rounds are deterministic.
#[test]
fn all_backends_agree_on_all_algorithms_and_profiles() {
    let plain = vebo::graph::Dataset::YahooLike.build(0.02);
    let weighted = plain.clone().with_hash_weights(16);
    for profile in profiles() {
        let prepare = |g: &vebo::graph::Graph, compress: bool| {
            PreparedGraph::builder(g.clone())
                .profile(profile)
                .compress(compress)
                .build()
                .unwrap()
        };
        let pg_plain = [prepare(&plain, false), prepare(&plain, true)];
        let pg_weighted = [prepare(&weighted, false), prepare(&weighted, true)];
        for kind in AlgorithmKind::ALL {
            let pgs = if needs_weights(kind) {
                &pg_weighted
            } else {
                &pg_plain
            };
            let mut reference: Option<(Vec<u64>, RunReport)> = None;
            for (pg, backing) in pgs.iter().zip(["plain", "compressed"]) {
                for (name, exec) in backends(profile) {
                    let tag = format!(
                        "{} on {:?} via {name} ({backing})",
                        kind.code(),
                        profile.kind
                    );
                    let (dig, rep) = digest(kind, &exec, pg);
                    assert!(rep.iterations > 0, "{tag}: ran nothing");
                    // Sharded runs must carry shard reports; others must not.
                    let sharded = name.starts_with("sharded");
                    for em in &rep.edge_maps {
                        if em.tasks.is_empty() {
                            continue; // empty-frontier short circuit
                        }
                        assert_eq!(em.shards.is_some(), sharded, "{tag}: shard report");
                    }
                    match &reference {
                        None => reference = Some((dig, rep)),
                        Some((ref_dig, ref_rep)) => {
                            assert_eq!(&dig, ref_dig, "{tag}: result digest");
                            if report_is_deterministic(kind) {
                                assert_reports_match(ref_rep, &rep, &tag);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// BC and PRD under automatic direction selection take the sparse-push
/// path, where atomic f64 addition order is scheduling-dependent; the
/// backends must still agree to floating-point accumulation tolerance.
#[test]
fn racy_accumulators_agree_within_tolerance_under_auto_direction() {
    let g = vebo::graph::Dataset::YahooLike.build(0.02);
    let profile = SystemProfile::ligra_like();
    let pg = PreparedGraph::builder(g.clone())
        .profile(profile)
        .build()
        .unwrap();
    let src = default_source(&g);
    for kind in [AlgorithmKind::Bc, AlgorithmKind::Prd] {
        let run = |exec: &Executor| -> Vec<f64> {
            match kind {
                AlgorithmKind::Bc => bc(exec, &pg, src).0,
                _ => pagerank_delta(exec, &pg, &PageRankDeltaConfig::default()).0,
            }
        };
        let want = run(&Executor::new(profile));
        for (name, exec) in backends(profile) {
            let got = run(&exec);
            for (v, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs())),
                    "{} via {name}: vertex {v}: {a} vs {b}",
                    kind.code()
                );
            }
        }
    }
}

/// Concurrency stress: interleaved request batches against one *shared*
/// sharded executor; every response digest must equal the sequential
/// reference computed request by request.
#[test]
fn concurrent_requests_match_sequential_reference() {
    let profile = SystemProfile::polymer_like();
    let g = vebo::graph::Dataset::YahooLike.build(0.02);
    // Read-only slice of the serving mix: with concurrent request
    // threads the *order* mutations land in is legitimately racy, so
    // response-by-response digest equality is only defined for queries
    // (the mutation storm has its own stress test below).
    let requests: Vec<Request> = generate_requests(48, 99)
        .into_iter()
        .filter(|r| !r.mutates())
        .take(24)
        .collect();

    let sequential = ServeEngine::new(g.clone(), profile, Executor::new(profile));
    let reference: Vec<u64> = requests
        .iter()
        .map(|r| sequential.handle(r).digest)
        .collect();

    for shards in [2usize, 7] {
        let shared = ServeEngine::new(g.clone(), profile, Executor::sharded(profile, shards));
        for concurrency in [4usize, 8] {
            let batch = shared.run_batch(&requests, concurrency);
            for (i, resp) in batch.responses.iter().enumerate() {
                let resp = resp
                    .as_ref()
                    .expect("run_batch without a stop flag completes");
                assert_eq!(
                    resp.digest,
                    reference[i],
                    "request {i} ({}) with {shards} shards, {concurrency} request threads",
                    requests[i].code()
                );
            }
        }
        // The shared pool really was exercised concurrently.
        let m = shared.metrics();
        assert!(m.ops > 0);
        assert_eq!(m.request_nanos.len(), 2 * requests.len());
    }
}

/// The mutable-graph acceptance matrix: a [`DynamicGraph`] seeded with
/// half the target edge set, grown to the full set through the delta
/// log (including a delete/re-insert churn cycle spanning a
/// compaction), must — once compacted — produce digests bit-identical
/// to a from-scratch static build for all 8 algorithms on every
/// backend. Weighted kinds attach the same hash weights to both sides.
#[test]
fn compacted_dynamic_graph_matches_static_digests() {
    let profile = SystemProfile::polymer_like();
    let base = vebo::graph::Dataset::YahooLike.build(0.02);
    let directed = base.is_directed();
    let n = base.num_vertices();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for u in 0..n as u32 {
        for &v in base.out_neighbors(u) {
            if directed || u <= v {
                edges.push((u, v));
            }
        }
    }
    // The serving clamp semantics are set semantics; dedup so the
    // streamed half cannot collide with seed-half duplicates.
    edges.sort_unstable();
    edges.dedup();
    let target = Graph::from_edges(n, &edges, directed);

    let half = edges.len() / 2;
    let dg = DynamicGraph::new(Graph::from_edges(n, &edges[..half], directed));
    for &(u, v) in &edges[half..] {
        dg.insert_edge(u, v).unwrap();
    }
    // Churn: delete every 7th edge, compact mid-stream, re-insert.
    for &(u, v) in edges.iter().step_by(7) {
        dg.delete_edge(u, v).unwrap();
    }
    dg.compact();
    for &(u, v) in edges.iter().step_by(7) {
        dg.insert_edge(u, v).unwrap();
    }
    dg.compact();
    assert!(!dg.is_dirty());
    assert_eq!(dg.epoch(), 2, "the handle is versioned");

    let plain_dyn = (*dg.snapshot()).clone();
    let weighted_static = target.clone().with_hash_weights(16);
    let weighted_dyn = plain_dyn.clone().with_hash_weights(16);
    for kind in AlgorithmKind::ALL {
        let (gs, gd) = if needs_weights(kind) {
            (&weighted_static, &weighted_dyn)
        } else {
            (&target, &plain_dyn)
        };
        let pg_static = PreparedGraph::builder(gs.clone())
            .profile(profile)
            .build()
            .unwrap();
        let pg_dyn = PreparedGraph::builder(gd.clone())
            .profile(profile)
            .build()
            .unwrap();
        let (want, _) = digest(kind, &Executor::new(profile), &pg_static);
        for (name, exec) in backends(profile) {
            let (got, _) = digest(kind, &exec, &pg_dyn);
            assert_eq!(
                got,
                want,
                "{} via {name}: compacted dynamic != static",
                kind.code()
            );
        }
    }
}

/// The background-compaction acceptance criterion: the same request
/// script driven through an engine whose compaction-tripping mutations
/// *wait* for the cycle (synchronous scheduling) and through one whose
/// mutations return immediately while the compactor merges behind them
/// must answer **bit-identical digests for every request** — including
/// queries served mid-stream off dirty epochs whose delta overlay has
/// not been merged yet — and both must settle on byte-identical
/// adjacency once drained and compacted.
#[test]
fn background_compaction_matches_synchronous_digests() {
    let profile = SystemProfile::polymer_like();
    let g = vebo::graph::Dataset::YahooLike.build(0.02);
    let requests = generate_requests(96, 5);

    let mut sync_engine = ServeEngine::new(g.clone(), profile, Executor::new(profile));
    sync_engine.configure_compaction(4, 0.25);
    let mut async_engine = ServeEngine::new(g, profile, Executor::new(profile));
    async_engine.configure_compaction(4, 0.25);
    async_engine.set_compaction_blocking(false);

    for (i, req) in requests.iter().enumerate() {
        let want = sync_engine.handle(req);
        let got = async_engine.handle(req);
        assert_eq!(
            got.digest,
            want.digest,
            "request {i} ({}): async compaction changed a served digest",
            req.to_line()
        );
    }

    // Drained and fully compacted, both engines hold the same graph,
    // byte for byte — scheduling moved the merges, not their result.
    async_engine.drain_compaction();
    sync_engine.compact_now();
    async_engine.compact_now();
    let a = sync_engine.dynamic().snapshot();
    let b = async_engine.dynamic().snapshot();
    assert_eq!(a.csr(), b.csr(), "CSR diverged under background compaction");
    assert_eq!(a.csc(), b.csc(), "CSC diverged under background compaction");
    assert!(!sync_engine.dynamic().is_dirty());
    assert!(!async_engine.dynamic().is_dirty());
    // The synchronous engine's schedule is exact: every 4th mutation
    // waited for its cycle (plus the final forced one).
    let muts = requests.iter().filter(|r| r.mutates()).count() as u64;
    assert_eq!(sync_engine.metrics().compactions, muts / 4 + 1);
}

/// The never-block acceptance criterion: one thread hammers mutations
/// (forcing frequent compactions and label recomputes) while query
/// threads keep serving off the shared sharded pool. Every query runs
/// against its pinned epoch; none can deadlock or observe a torn state,
/// and epochs must visibly advance while the queries run.
#[test]
fn pinned_epochs_stay_readable_during_mutation_storm() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let profile = SystemProfile::polymer_like();
    let g = vebo::graph::Dataset::YahooLike.build(0.02);
    let n = g.num_vertices() as u32;
    let mut engine = ServeEngine::new(g, profile, Executor::sharded(profile, 3));
    engine.configure_compaction(4, 0.25);
    let engine = &engine;
    let stop = &AtomicBool::new(false);
    let served = &AtomicU64::new(0);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut x = 123u64;
            for _ in 0..120 {
                x = mix64(x);
                let u = (x >> 32) as u32 % n;
                x = mix64(x);
                let v = (x >> 32) as u32 % n;
                if x.is_multiple_of(3) {
                    engine.handle(&Request::DelEdge { u, v });
                } else {
                    engine.handle(&Request::AddEdge { u, v });
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
        for t in 0..3u32 {
            scope.spawn(move || loop {
                engine.handle(&Request::Bfs { seed: t * 7 });
                engine.handle(&Request::Label { v: t * 13 });
                served.fetch_add(2, Ordering::Relaxed);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            });
        }
    });
    assert!(served.load(Ordering::Relaxed) >= 6, "queries made progress");
    let m = engine.metrics();
    assert_eq!(m.compactions, 30, "120 mutations at compact-every 4");
    assert!(engine.dynamic().epoch() >= 1);
    assert_eq!(engine.prepared().epoch(), engine.dynamic().epoch());
    assert!(!engine.dynamic().is_dirty());
}

/// Direct engine-level interleaving (no serving layer): many threads run
/// different algorithms through clones of one sharded executor at once.
#[test]
fn interleaved_algorithms_share_one_pool() {
    let profile = SystemProfile::graphgrind_like(EdgeOrder::Csr);
    let g = vebo::graph::Dataset::YahooLike.build(0.02);
    let pg = PreparedGraph::builder(g.clone())
        .profile(profile)
        .build()
        .unwrap();
    let src = default_source(&g);
    let seq = Executor::new(profile);
    let want_levels = levels_from_parents(&bfs(&seq, &pg, src).0, src);
    let (want_labels, _) = cc(&seq, &pg);
    let want_ranks = pagerank(&seq, &pg, &PageRankConfig::default()).0;

    let exec = Executor::sharded(profile, 3);
    let (exec, pg) = (&exec, &pg);
    let (want_levels, want_labels, want_ranks) = (&want_levels, &want_labels, &want_ranks);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(move || {
                let got = levels_from_parents(&bfs(exec, pg, src).0, src);
                assert_eq!(&got, want_levels, "bfs under interleaving");
            });
            scope.spawn(move || {
                let (got, _) = cc(exec, pg);
                assert_eq!(&got, want_labels, "cc under interleaving");
            });
            scope.spawn(move || {
                let got = pagerank(exec, pg, &PageRankConfig::default()).0;
                let bits: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
                let want_bits: Vec<u64> = want_ranks.iter().map(|x| x.to_bits()).collect();
                assert_eq!(bits, want_bits, "pagerank under interleaving");
            });
        }
    });
}
