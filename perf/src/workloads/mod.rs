//! The five workloads and the scaffolding they share: repeated set-up,
//! the fixed-count round loop, and the reduction of what a workload
//! measured to the end-to-end metrics.
//!
//! Every workload has the same shape. Work is a *round*: a fixed list of
//! operations derived from `--seed`. Set-up (fixture open → one warm-up
//! round done) is timed several times and the median reported; then rounds
//! repeat until `--seconds` have passed, ending on a round boundary, and
//! the per-round and per-operation times are reduced to medians. Nothing
//! that is timed has a duration chosen by the benchmark: a faster program
//! completes more rounds in the window, each of them shorter.

pub mod cluster_bsp;
pub mod frontier_run;
pub mod net_serve;
pub mod reorder_run;
pub mod serve_mutate;

use crate::fixtures::load_with;
use crate::metrics::Metrics;
use crate::sink::{ratio, EngineSnapshot};
use crate::stats;
use crate::trace::Tracer;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};
use vebo_graph::{Graph, LoadMode, VertexId};

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 5] = [
    "reorder-run",
    "frontier-run",
    "serve-mutate",
    "net-serve",
    "cluster-bsp",
];

#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small fixtures and short lists: same code paths, seconds not
    /// minutes. Numbers from a smoke run mean nothing.
    pub smoke: bool,
}

impl RunConfig {
    /// Picks the full-size or the smoke-size value of a sizing constant.
    pub fn size<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// What one run of a workload measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall time of each set-up (fixture open → warm-up round done).
    pub setup_s: Vec<f64>,
    /// Wall time of each measured fixed-count round (in a traced run also
    /// split by whether spans were on).
    pub rounds: RoundTimes,
    /// Latency of each measured operation (for an open loop: from its
    /// due time), nanoseconds.
    pub ops: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Operations answered correctly over the measured (closed-loop) rounds.
    pub closed_ok: u64,
    /// Edges the engine traversed over the measured rounds.
    pub edges: u64,
    /// Peak resident set of child processes (cluster workers), MiB.
    pub children_rss_mib: f64,
    /// Per-layer metrics (filled in the traced run only).
    pub layer: Metrics,
}

impl Measured {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The eight end-to-end metrics. Definitions are the same on every
    /// workload; see the README table. Every figure is taken over *all*
    /// the samples of the run — nothing is trimmed.
    pub fn end_to_end(&self) -> Metrics {
        let mut m = Metrics::default();
        let setup = stats::median(&self.setup_s);
        let run = stats::median(&self.rounds.all);
        m.set("setup_s", setup);
        m.set("run_s", run);
        m.set("time_to_solution_s", setup + run);
        m.set("op_p50_ms", stats::median_ns(&self.ops) / 1e6);
        m.set(
            "op_tail_ms",
            stats::tail(&self.ops).map_or(0.0, |t| t.value / 1e6),
        );
        // Rounds hold a fixed amount of work, so throughput is work per
        // round over the median round time.
        let rounds = self.rounds.all.len() as f64;
        m.set("medges_per_s", ratio(self.edges as f64, rounds * run) / 1e6);
        m.set("req_per_s", ratio(self.closed_ok as f64, rounds * run));
        let own = crate::sys::peak_rss_mib(std::process::id()).unwrap_or(0.0);
        m.set("peak_rss_mb", own + self.children_rss_mib);
        m
    }

    /// Fills the `perf.*` metrics that qualify the numbers.
    pub fn finish_layer(&mut self) {
        let overhead = ratio(
            stats::median(&self.rounds.traced),
            stats::median(&self.rounds.untraced),
        );
        self.layer.set(
            "perf.trace_overhead_share",
            if overhead == 0.0 { 0.0 } else { overhead - 1.0 },
        );
        self.layer.set("perf.op_samples", self.ops.len() as f64);
        self.layer.set(
            "perf.tail_percentile",
            stats::tail(&self.ops).map_or(0.0, |t| t.percentile),
        );
    }

    /// Sets each `(metric, span, per_second)` row to the median self time
    /// of the spans named `span`, in units of `1 / per_second` seconds
    /// (1 → s, 1e3 → ms, 1e6 → µs); 0 where no such span was recorded.
    pub fn set_span_medians(&mut self, tracer: &Tracer, rows: &[(&'static str, &str, f64)]) {
        let selfs = tracer.self_times();
        for &(metric, span, per_second) in rows {
            let ns = selfs.get(span).map_or(0.0, |v| stats::median_ns(v));
            self.layer.set(metric, ns / 1e9 * per_second);
        }
    }

    /// Fills the `engine.*` metrics from the counters of the measured
    /// phase.
    pub fn set_engine_layer(&mut self, e: &EngineSnapshot) {
        let l = &mut self.layer;
        l.set(
            "engine.dense_ns_per_edge",
            ratio(e.dense_nanos as f64, e.dense_edges as f64),
        );
        l.set(
            "engine.sparse_ns_per_edge",
            ratio(e.sparse_nanos as f64, e.sparse_edges as f64),
        );
        l.set("engine.edges_traversed", e.edges() as f64);
        l.set("engine.edge_map_calls", e.edge_map_calls as f64);
        l.set(
            "engine.dense_share",
            ratio(e.dense_edges as f64, e.edges() as f64),
        );
        l.set("engine.vertex_map_s", e.vertex_map_nanos as f64 / 1e9);
        l.set("engine.shard_busy_share", e.shard_busy_share());
        l.set("engine.shard_imbalance", e.shard_imbalance());
        l.set("engine.tasks_stolen", e.tasks_stolen as f64);
    }
}

/// Times `setup` `times` times and keeps the state the last one built.
/// Earlier states are dropped outside the timed interval.
pub fn repeat_setup<S>(
    times: usize,
    tracer: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer) -> io::Result<S>,
) -> io::Result<(S, Vec<f64>)> {
    let mut samples = Vec::with_capacity(times);
    let mut kept = None;
    for _ in 0..times.max(1) {
        drop(kept.take());
        let t0 = Instant::now();
        let state = tracer.span("perf.setup", &mut setup)?;
        samples.push(t0.elapsed().as_secs_f64());
        kept = Some(state);
    }
    Ok((kept.expect("at least one set-up ran"), samples))
}

/// Round times of one measured phase.
#[derive(Debug, Default)]
pub struct RoundTimes {
    pub all: Vec<f64>,
    pub traced: Vec<f64>,
    pub untraced: Vec<f64>,
    pub wall_s: f64,
}

/// Repeats `round` until `seconds` have passed, always finishing the round
/// in flight (at least one round runs). In a traced run spans are
/// recorded on every other round only, so the same process prices the
/// tracing overhead against interleaved untraced rounds.
pub fn measure_rounds(
    seconds: f64,
    tracer: &mut Tracer,
    mut round: impl FnMut(usize, &mut Tracer) -> io::Result<()>,
) -> io::Result<RoundTimes> {
    let traced_run = tracer.enabled();
    let mut times = RoundTimes::default();
    let begin = Instant::now();
    let deadline = begin + Duration::from_secs_f64(seconds);
    let mut r = 0usize;
    loop {
        let spans_on = traced_run && r.is_multiple_of(2);
        tracer.set_enabled(spans_on);
        let t0 = Instant::now();
        round(r, tracer)?;
        let dt = t0.elapsed().as_secs_f64();
        times.all.push(dt);
        if traced_run {
            if spans_on {
                times.traced.push(dt);
            } else {
                times.untraced.push(dt);
            }
        }
        r += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    tracer.set_enabled(traced_run);
    times.wall_s = begin.elapsed().as_secs_f64();
    Ok(times)
}

/// The `graph.*` storage metrics every traced run reports for its fixture:
/// both load paths (median of three), the file size, the bytes one full
/// scan of the out-adjacency streams per edge — *computed* from the array
/// sizes, not measured — and, for a compressed fixture, the decode cost.
pub fn graph_layer(layer: &mut Metrics, path: &Path, g: &Graph) -> io::Result<()> {
    let timed_load = |mode| -> io::Result<f64> {
        let mut samples = Vec::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            let loaded = load_with(path, mode)?;
            samples.push(t0.elapsed().as_secs_f64());
            drop(loaded);
        }
        Ok(stats::median(&samples))
    };
    layer.set("graph.load_mmap_s", timed_load(LoadMode::Mmap)?);
    layer.set("graph.load_buffered_s", timed_load(LoadMode::Buffered)?);
    layer.set("graph.load_bytes", std::fs::metadata(path)?.len() as f64);

    let csr = g.csr();
    let m = g.num_edges() as f64;
    let offsets = std::mem::size_of_val(csr.offsets());
    let weights = csr.raw_weights().map_or(0, std::mem::size_of_val);
    let neighbors = match csr.compressed() {
        Some(c) => c.data().len() + std::mem::size_of_val(c.byte_offsets()),
        None => std::mem::size_of_val(csr.targets()),
    };
    layer.set(
        "graph.bytes_per_edge",
        ratio((offsets + weights + neighbors) as f64, m),
    );
    if let Some(c) = csr.compressed() {
        let t0 = Instant::now();
        let decoded = c
            .decode_to_targets(csr.offsets())
            .map_err(io::Error::other)?;
        let ns = t0.elapsed().as_nanos() as f64;
        std::hint::black_box(&decoded);
        layer.set("graph.decode_ns_per_edge", ratio(ns, m));
    }
    Ok(())
}

/// A small seeded generator (`mix64` chain) for operation lists.
pub struct SeedStream(u64);

impl SeedStream {
    pub fn new(seed: u64, salt: u64) -> SeedStream {
        SeedStream(vebo_graph::mix64(seed ^ salt.rotate_left(32)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = vebo_graph::mix64(self.0.wrapping_add(0x9e37_79b9_7f4a_7c15));
        self.0
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        (self.next_u64() >> 11) % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Seeded draws (with replacement) among the `among` highest out-degree
/// vertices of `g`. Traversals rooted at hubs cost about the same whichever
/// hub is drawn, so the seed varies the inputs without varying the amount
/// of work — a spread between seeds is then noise, not input.
pub fn hub_draws(g: &Graph, stream: &mut SeedStream, among: usize, draws: usize) -> Vec<VertexId> {
    let mut hubs: Vec<VertexId> = g.vertices().collect();
    let among = among.min(hubs.len());
    let by_degree = |v: &VertexId| (std::cmp::Reverse(g.out_degree(*v)), *v);
    if among < hubs.len() {
        hubs.select_nth_unstable_by_key(among, by_degree);
        hubs.truncate(among);
    }
    hubs.sort_unstable_by_key(by_degree);
    (0..draws)
        .map(|_| hubs[stream.below(hubs.len() as u64) as usize])
        .collect()
}

/// Runs the workload `cfg` names.
pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> io::Result<Measured> {
    match cfg.workload.as_str() {
        "reorder-run" => reorder_run::run(cfg, tracer),
        "frontier-run" => frontier_run::run(cfg, tracer),
        "serve-mutate" => serve_mutate::run(cfg, tracer),
        "net-serve" => net_serve::run(cfg, tracer),
        "cluster-bsp" => cluster_bsp::run(cfg, tracer),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown workload `{other}` (one of: {})", NAMES.join(", ")),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_streams_repeat_per_seed_and_differ_across_seeds() {
        let take = |seed| {
            let mut s = SeedStream::new(seed, 1);
            (0..8).map(|_| s.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(take(42), take(42));
        assert_ne!(take(42), take(43));
        let mut s = SeedStream::new(7, 2);
        assert!((0..1000).all(|_| (0.0..1.0).contains(&s.unit())));
    }

    #[test]
    fn hub_draws_come_from_the_highest_degree_vertices() {
        // Vertex v has out-degree v (edges v -> 0..v).
        let edges: Vec<(u32, u32)> = (0..40u32)
            .flat_map(|v| (0..v).map(move |t| (v, t)))
            .collect();
        let g = Graph::from_edges(40, &edges, true);
        let draws = hub_draws(&g, &mut SeedStream::new(3, 9), 8, 100);
        assert!(draws.iter().all(|&v| v >= 32), "{draws:?}");
        assert_eq!(draws, hub_draws(&g, &mut SeedStream::new(3, 9), 8, 100));
        assert_ne!(draws, hub_draws(&g, &mut SeedStream::new(4, 9), 8, 100));
        // Asking for more hubs than vertices is the whole graph.
        assert_eq!(hub_draws(&g, &mut SeedStream::new(1, 1), 1000, 5).len(), 5);
    }

    #[test]
    fn end_to_end_figures_cover_every_sample() {
        // Two disturbed rounds of five and 12 stalled operations of 100:
        // the medians are those of all five and all hundred, and the
        // stall is what the tail reports.
        let mut ops = vec![1_000_000u64; 88];
        ops.extend([50_000_000u64; 12]);
        let m = Measured {
            setup_s: vec![1.0, 1.2, 3.0, 1.1, 5.0],
            rounds: RoundTimes {
                all: vec![2.0, 2.2, 9.0, 2.4, 8.0],
                ..RoundTimes::default()
            },
            ops,
            closed_ok: 50,
            edges: 120_000_000,
            ..Measured::default()
        };
        let e = m.end_to_end();
        assert_eq!(e.get("setup_s"), 1.2);
        assert_eq!(e.get("run_s"), 2.4);
        assert_eq!(e.get("time_to_solution_s"), 1.2 + 2.4);
        assert_eq!(e.get("op_p50_ms"), 1.0);
        assert_eq!(e.get("op_tail_ms"), 50.0);
        assert_eq!(e.get("req_per_s"), 50.0 / (5.0 * 2.4));
        assert_eq!(e.get("medges_per_s"), 120.0 / (5.0 * 2.4));
    }

    #[test]
    fn rounds_end_on_a_boundary_after_the_deadline() {
        let mut t = Tracer::new(true);
        let mut calls = 0;
        let times = measure_rounds(0.02, &mut t, |_, t| {
            calls += 1;
            t.span("perf.op", |_| std::thread::sleep(Duration::from_millis(5)));
            Ok(())
        })
        .unwrap();
        assert_eq!(times.all.len(), calls);
        assert!(calls >= 4 && times.wall_s >= 0.02);
        // Spans were recorded on every other round only.
        assert_eq!(t.spans().len(), calls.div_ceil(2));
        assert_eq!(times.traced.len() + times.untraced.len(), calls);
    }

    #[test]
    fn setup_is_timed_each_time_and_the_last_state_kept() {
        let mut t = Tracer::new(false);
        let mut n = 0;
        let (state, samples) = repeat_setup(3, &mut t, |_| {
            n += 1;
            Ok(n)
        })
        .unwrap();
        assert_eq!((state, samples.len()), (3, 3));
    }
}
