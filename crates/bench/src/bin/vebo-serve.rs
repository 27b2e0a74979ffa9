//! `vebo-serve` — a serving-style request loop over one **mutable**
//! graph: batched PageRank-from-seed / PRD / BFS / label-lookup queries
//! interleaved with edge mutations, driven concurrently through either
//! executor backend.
//!
//! ```text
//! # 64 generated requests (~15% mutations), 4 shards, 8 request threads:
//! cargo run --release -p vebo-bench --bin vebo-serve -- \
//!     --quick --executor sharded --shards 4 --concurrency 8 --gen 64
//!
//! # replay a script (one request per line: `pr 3`, `add 1 2`, ...)
//! # and verify the final adjacency against an independent rebuild:
//! cargo run --release -p vebo-bench --bin vebo-serve -- \
//!     --requests batch.txt --executor sequential --concurrency 1 --verify-static
//! ```
//!
//! Per-request digests and the combined batch digest are printed on
//! stdout; on the default (partitioned) profiles, delta-free epochs make
//! them bit-identical across the sequential and sharded backends, which
//! is exactly what the CI serve-smoke job diffs. Shard
//! metrics (queue depth, occupancy, steals), latency quantiles, and the
//! dynamic-graph counters (`compactions=`, `reorders=`, `epoch=`,
//! `epoch-age=`) go to stderr after the batch.

use std::collections::HashMap;
use vebo_bench::serve::{
    generate_requests, metrics_summary, parse_script, Request, ServeEngine, DEFAULT_COMPACT_EVERY,
    DEFAULT_DRIFT_THRESHOLD,
};
use vebo_bench::{shutdown, HarnessArgs, Table};
use vebo_engine::SystemProfile;
use vebo_graph::{Dataset, Graph};
use vebo_partition::EdgeOrder;

struct ServeArgs {
    harness: HarnessArgs,
    profile: SystemProfile,
    profile_name: String,
    concurrency: usize,
    requests_file: Option<String>,
    gen_count: usize,
    gen_seed: u64,
    ppr_rounds: usize,
    compact_every: usize,
    compact_async: bool,
    drift: f64,
    verify_static: bool,
}

fn usage() -> ! {
    // The request-line grammar is derived from `REQUEST_SPECS`, so this
    // text cannot drift from what `parse_request_line` accepts.
    let grammar = vebo::request_grammar();
    eprintln!(
        "vebo-serve — concurrent graph-query serving loop over a mutable graph\n\n\
         Serving options (plus every vebo-bench harness option):\n  \
         --profile <name>    ligra | polymer | graphgrind (default polymer)\n  \
         --concurrency <n>   request threads (default 4)\n  \
         --requests <file>   replay a script, one request per line:\n                      \
         {grammar}\n  \
         --gen <n>           generate a mixed workload of n requests (default 32)\n  \
         --seed <s>          workload generator seed (default 1)\n  \
         --ppr-rounds <k>    push rounds per PageRank-from-seed request (default 10)\n  \
         --compact-every <n> merge the delta log every n mutations (default {DEFAULT_COMPACT_EVERY})\n  \
         --compact-mode <m>  wait | async (default wait): whether the mutation that\n                      \
         trips --compact-every waits for the background compaction\n                      \
         cycle (deterministic counts) or returns immediately\n  \
         --drift <t>         per-partition edge-drift threshold that triggers a\n                      \
         placement reorder at compaction (default {DEFAULT_DRIFT_THRESHOLD})\n  \
         --verify-static     after the batch, compact and diff the adjacency against\n                      \
         an independently rebuilt static graph (use --concurrency 1\n                      \
         so the mutation order matches the script)\n\n\
         Digests on delta-free epochs are bit-stable across --executor\n\
         backends on the partitioned profiles (polymer, graphgrind)."
    );
    std::process::exit(2)
}

fn parse_args() -> ServeArgs {
    let mut out = ServeArgs {
        harness: HarnessArgs::default(),
        profile: SystemProfile::polymer_like(),
        profile_name: "polymer".to_string(),
        concurrency: 4,
        requests_file: None,
        gen_count: 32,
        gen_seed: 1,
        ppr_rounds: 10,
        compact_every: DEFAULT_COMPACT_EVERY,
        compact_async: false,
        drift: DEFAULT_DRIFT_THRESHOLD,
        verify_static: false,
    };
    let mut rest: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut next = |flag: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--profile" => {
                let v = next("--profile");
                out.profile = match v.as_str() {
                    "ligra" => SystemProfile::ligra_like(),
                    "polymer" => SystemProfile::polymer_like(),
                    "graphgrind" => SystemProfile::graphgrind_like(EdgeOrder::Csr),
                    _ => {
                        eprintln!("unknown profile '{v}'");
                        usage()
                    }
                };
                out.profile_name = v;
            }
            "--concurrency" => {
                out.concurrency = next("--concurrency").parse().unwrap_or_else(|_| usage())
            }
            "--requests" => out.requests_file = Some(next("--requests")),
            "--gen" => out.gen_count = next("--gen").parse().unwrap_or_else(|_| usage()),
            "--seed" => out.gen_seed = next("--seed").parse().unwrap_or_else(|_| usage()),
            "--ppr-rounds" => {
                out.ppr_rounds = next("--ppr-rounds").parse().unwrap_or_else(|_| usage())
            }
            "--compact-every" => {
                out.compact_every = next("--compact-every").parse().unwrap_or_else(|_| usage());
                if out.compact_every == 0 {
                    eprintln!("--compact-every must be at least 1");
                    usage()
                }
            }
            "--compact-mode" => {
                out.compact_async = match next("--compact-mode").as_str() {
                    "wait" => false,
                    "async" => true,
                    other => {
                        eprintln!("unknown compact mode '{other}' (wait | async)");
                        usage()
                    }
                }
            }
            "--drift" => out.drift = next("--drift").parse().unwrap_or_else(|_| usage()),
            "--verify-static" => out.verify_static = true,
            "--help" | "-h" => usage(),
            other => rest.push(other.to_string()),
        }
    }
    out.harness =
        HarnessArgs::parse_from("vebo-serve", "concurrent graph-query serving loop", rest);
    out
}

/// Rebuilds the expected final graph independently of the dynamic-graph
/// machinery: the initial arc multiset, the script's mutations replayed
/// in order with the serving clamp semantics (an insert fires only when
/// the edge is absent, a delete only when present), and a from-scratch
/// `Graph::from_edges` build.
fn statically_rebuilt(g0: &Graph, requests: &[Request]) -> Graph {
    let directed = g0.is_directed();
    let n = g0.num_vertices();
    let nv = n.max(1) as u32;
    let norm = |u: u32, v: u32| if directed || u <= v { (u, v) } else { (v, u) };
    let mut counts: HashMap<(u32, u32), u64> = HashMap::new();
    for u in 0..n as u32 {
        for &v in g0.out_neighbors(u) {
            // Undirected CSR stores both arc directions (self-loops
            // once); count each edge once.
            if directed || u <= v {
                *counts.entry((u, v)).or_insert(0) += 1;
            }
        }
    }
    for req in requests {
        match *req {
            Request::AddEdge { u, v } => {
                let c = counts.entry(norm(u % nv, v % nv)).or_insert(0);
                if *c == 0 {
                    *c = 1;
                }
            }
            Request::DelEdge { u, v } => {
                if let Some(c) = counts.get_mut(&norm(u % nv, v % nv)) {
                    *c = c.saturating_sub(1);
                }
            }
            _ => {}
        }
    }
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (&(u, v), &c) in &counts {
        for _ in 0..c {
            edges.push((u, v));
        }
    }
    edges.sort_unstable();
    Graph::from_edges(n, &edges, directed)
}

fn main() {
    let args = parse_args();
    let dataset = args.harness.dataset.unwrap_or(Dataset::LiveJournalLike);
    let scale = args.harness.scale_or(0.2);
    let g = args.harness.build_dataset(dataset, scale);
    let n = g.num_vertices();
    let requests = match &args.requests_file {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            });
            parse_script(&text).unwrap_or_else(|e| {
                eprintln!("bad request script: {e}");
                std::process::exit(2);
            })
        }
        None => generate_requests(args.gen_count, args.gen_seed),
    };
    let g0 = args.verify_static.then(|| g.clone());
    // Built once: for the sharded backend this spawns the long-lived
    // worker pool the whole serving process shares.
    let exec = args.harness.executor(args.profile);
    eprintln!(
        "serving {} requests on {} (n = {n}, m = {}) | profile {} | executor {:?} | {} request threads",
        requests.len(),
        dataset.name(),
        g.num_edges(),
        args.profile_name,
        exec.mode(),
        args.concurrency,
    );

    let mut engine = ServeEngine::new(g, args.profile, exec);
    engine.set_ppr_rounds(args.ppr_rounds);
    engine.configure_compaction(args.compact_every, args.drift);
    engine.set_compaction_blocking(!args.compact_async);
    // First Ctrl-C drains: request threads stop claiming new work,
    // in-flight requests complete, and the metrics below still print.
    shutdown::install();
    let report = engine.run_batch_until(&requests, args.concurrency, Some(shutdown::flag()));
    // Let any signalled background compaction cycle finish before the
    // final metrics, so the counters describe a settled engine.
    engine.drain_compaction();
    let drained = shutdown::requested();

    for (i, (req, resp)) in requests.iter().zip(&report.responses).enumerate() {
        if let Some(resp) = resp {
            println!("req {i:>4} {:<5} digest={:016x}", req.code(), resp.digest);
        }
    }
    println!("batch digest={:016x}", report.combined_digest());
    if drained {
        eprintln!(
            "interrupted: drained after {} of {} requests",
            report.completed(),
            requests.len()
        );
    }

    // Snapshot after the compactor drain: in async mode the batch's
    // final compaction may land after `run_batch_until`'s own snapshot.
    let m = &engine.metrics();
    eprintln!(
        "\nbatch: {:.3}s wall, {:.0} req/s",
        report.wall_seconds,
        requests.len() as f64 / report.wall_seconds.max(1e-9),
    );
    if m.ops > 0 {
        let mut t = Table::new(&[
            "Shard",
            "Mean queue depth",
            "Max depth",
            "Tasks run",
            "Stolen",
            "Occupancy",
        ]);
        for (s, totals) in m.shards.iter().enumerate() {
            t.row(&[
                s.to_string(),
                format!("{:.1}", m.mean_queue_depth(s)),
                totals.queue_depth_max.to_string(),
                totals.tasks_run.to_string(),
                totals.tasks_stolen.to_string(),
                format!("{:.0}%", totals.occupancy() * 100.0),
            ]);
        }
        eprint!("{}", t.render());
    }
    eprint!("{}", metrics_summary(m));
    eprintln!("pending={}", engine.dynamic().pending_len());

    if drained {
        if args.verify_static {
            eprintln!("static-check skipped: batch was drained before completion");
        }
        return;
    }
    if let Some(g0) = g0 {
        engine.compact_now();
        let want = statically_rebuilt(&g0, &requests);
        let got = engine.dynamic().snapshot();
        let mut ok = got.num_edges() == want.num_edges();
        if !ok {
            eprintln!(
                "static-check MISMATCH: {} arcs served vs {} rebuilt",
                got.num_edges(),
                want.num_edges()
            );
        }
        for v in 0..want.num_vertices() as u32 {
            if !ok {
                break;
            }
            if got.out_neighbors(v) != want.out_neighbors(v) {
                eprintln!("static-check MISMATCH at vertex {v}");
                ok = false;
            }
        }
        if !ok {
            std::process::exit(1);
        }
        eprintln!("static-check OK ({} arcs)", got.num_edges());
    }
}
