//! `cluster-bsp` — BSP supersteps across processes.
//!
//! `vebo-perf` is the coordinator (`Coordinator::accept`) and re-executes
//! itself twice as `vebo-perf worker <addr> <fixture>`, each worker
//! calling `run_worker` over its vertex-cut shard of an RMAT graph. One
//! operation is one algorithm run — PageRank (10 supersteps), a BFS or CC
//! — and a round is a fixed list of them. `distributed` placement, plan
//! build, transport and the barrier dominate; per-step compute is
//! deliberately small. Set-up (spawn → workers joined, planned and one
//! warm-up round done) is what "workers map only their shard" must move.
//!
//! The measured phase drives the barrier through `Coordinator`'s public
//! `broadcast`/`barrier`/`collect_values` — the loop `Coordinator::run`
//! runs, opened up — because `run` takes the whole list, reports no time
//! per algorithm and ends by shutting the workers down: it leaves no
//! per-operation latency and no way to stop when the time is up. Worker
//! start-up stays in set-up: one session serves every operation of the
//! run. A per-algorithm entry point on `Coordinator` is the follow-up that
//! would let this file call the program's loop instead of mirroring it.
//!
//! Gate: every operation's digest, superstep count and shipped-value count
//! equal `run_local_on` over the same placement, in process — and so do
//! those of one extra, untimed session driven through `Coordinator::run`
//! itself, so the mirrored loop cannot drift from the program's unnoticed.

use super::{hub_draws, measure_rounds, repeat_setup, Measured, RunConfig, SeedStream};
use crate::fixtures::{load_mapped, FixtureSpec};
use crate::sink::ratio;
use crate::stats::median;
use crate::trace::Tracer;
use std::io;
use std::net::TcpListener;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;
use vebo_algorithms::{bfs::bfs, cc::cc, pagerank::pagerank};
use vebo_distributed::runtime::{decide_continue, run_local_on};
use vebo_distributed::transport::ValuePair;
use vebo_distributed::{
    run_worker, ClusterAlgo, ClusterPlan, Coordinator, Msg, Partitioner, RunOutput, WorkerState,
};
use vebo_engine::{Executor, PreparedGraph, SystemProfile};
use vebo_graph::{digest_u64s, Dataset, Graph};

/// Worker processes (= machines of the placement).
const WORKERS: usize = 2;
const PARTITIONER: Partitioner = Partitioner::VertexCut;

fn fixture(cfg: &RunConfig) -> FixtureSpec {
    FixtureSpec {
        dataset: Dataset::Rmat27Like,
        scale: cfg.size(4.0, 0.25),
        weighted: false,
        compressed: false,
    }
}

/// The body of `vebo-perf worker <addr> <fixture>`.
pub fn worker_main(addr: &str, fixture: &Path) -> io::Result<()> {
    let addr = addr
        .parse()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("{addr}: {e}")))?;
    let g = load_mapped(fixture)?;
    run_worker(addr, &g, PARTITIONER)
}

/// What the gate compares of one algorithm run: the digest of the final
/// values, the supersteps taken and the value pairs shipped between
/// workers. All three are deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Outcome {
    digest: u64,
    supersteps: u32,
    values_sent: u64,
}

impl From<&RunOutput> for Outcome {
    fn from(out: &RunOutput) -> Outcome {
        Outcome {
            digest: out.digest,
            supersteps: out.supersteps,
            values_sent: out.values_sent,
        }
    }
}

/// The worker processes of one session. Dropping it kills whatever is
/// still running, so no error path leaves a process behind.
struct Workers(Vec<Child>);

impl Workers {
    /// Binds a fresh loopback listener and starts the workers against it.
    fn spawn(fixture: &Path) -> io::Result<(TcpListener, Workers)> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let exe = std::env::current_exe()?;
        let mut workers = Workers(Vec::new());
        for _ in 0..WORKERS {
            let child = Command::new(&exe)
                .arg("worker")
                .arg(addr.to_string())
                .arg(fixture)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()?;
            workers.0.push(child);
        }
        Ok((listener, workers))
    }

    /// Waits for workers that were told to shut down — for all of them,
    /// whatever the first one's exit status was.
    fn wait(&mut self) -> io::Result<()> {
        let mut result = Ok(());
        for mut child in std::mem::take(&mut self.0) {
            match child.wait() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    result = Err(io::Error::other(format!("worker exited with {status}")))
                }
                Err(e) => result = Err(e),
            }
        }
        result
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One session: the coordinator endpoint and its worker processes.
struct Cluster {
    coordinator: Coordinator,
    workers: Workers,
    vertices: usize,
}

impl Cluster {
    fn start(fixture: &Path, vertices: usize) -> io::Result<Cluster> {
        let (listener, workers) = Workers::spawn(fixture)?;
        Ok(Cluster {
            coordinator: Coordinator::accept(&listener, WORKERS)?,
            workers,
            vertices,
        })
    }

    /// Runs one algorithm to its halt: the loop of `Coordinator::run`.
    fn run(&mut self, algo: ClusterAlgo) -> io::Result<Outcome> {
        let c = &mut self.coordinator;
        c.broadcast(&Msg::Begin { algo })?;
        let (mut step, mut values_sent) = (0u32, 0u64);
        loop {
            let outcome = c.barrier(step)?;
            values_sent += outcome.sent;
            let go = decide_continue(algo, step + 1, outcome.active);
            c.broadcast(&Msg::Continue { step, go })?;
            step += 1;
            if !go {
                break;
            }
        }
        let values = c.collect_values(self.vertices)?;
        Ok(Outcome {
            digest: digest_u64s(values),
            supersteps: step,
            values_sent,
        })
    }

    /// Shuts the workers down and waits for them; returns the sum of their
    /// peak resident sets (MiB), read while they were still alive.
    fn shutdown(&mut self) -> io::Result<f64> {
        let rss = self
            .workers
            .0
            .iter()
            .filter_map(|c| crate::sys::peak_rss_mib(c.id()))
            .sum();
        self.coordinator.broadcast(&Msg::Shutdown)?;
        self.workers.wait()?;
        Ok(rss)
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // A session replaced by the next set-up repetition (or abandoned
        // on an error) still ends its workers in an orderly way.
        if !self.workers.0.is_empty() {
            let _ = self.shutdown();
        }
    }
}

/// One whole session through the program's own `Coordinator::run`: spawn,
/// join, the full list, shutdown.
fn coordinator_run(
    fixture: &Path,
    vertices: usize,
    ops: &[ClusterAlgo],
) -> io::Result<Vec<RunOutput>> {
    let (listener, mut workers) = Workers::spawn(fixture)?;
    let mut coordinator = Coordinator::accept(&listener, WORKERS)?;
    let outputs = coordinator.run(vertices, ops)?;
    workers.wait()?;
    Ok(outputs)
}

/// One round: PageRank, four BFS from seeded hub roots, CC.
fn round_ops(g: &Graph, seed: u64, bfs_count: usize) -> Vec<ClusterAlgo> {
    let mut s = SeedStream::new(seed, 0xb5b5);
    let mut ops = vec![ClusterAlgo::PageRank { iters: 10 }];
    for source in hub_draws(g, &mut s, 64, bfs_count) {
        ops.push(ClusterAlgo::Bfs { source });
    }
    ops.push(ClusterAlgo::Cc);
    ops
}

/// Edges the shared-memory engine traverses for the same algorithm on the
/// whole graph (sequential executor: a deterministic count). The workers'
/// own counters live in other processes, so this is the numerator of
/// `medges_per_s` here.
fn reference_edges(g: &Graph, ops: &[ClusterAlgo]) -> Vec<u64> {
    let profile = SystemProfile::ligra_like();
    let exec = Executor::new(profile);
    let pg = PreparedGraph::new(g.clone(), profile);
    ops.iter()
        .map(|&op| match op {
            ClusterAlgo::PageRank { iters } => {
                let cfg = vebo_algorithms::pagerank::PageRankConfig {
                    iterations: iters as usize,
                    ..Default::default()
                };
                pagerank(&exec, &pg, &cfg).1.total_edges()
            }
            ClusterAlgo::Bfs { source } => bfs(&exec, &pg, source).1.total_edges(),
            ClusterAlgo::Cc => cc(&exec, &pg).1.total_edges(),
        })
        .collect()
}

/// `run_local_on`'s superstep loop with a stopwatch around each worker's
/// `compute_gather`, `apply_gather` and `apply_scatter`. The cluster runs
/// its workers side by side, so a phase costs what its *slowest* worker
/// costs: the result is the critical path in seconds, per phase.
fn timed_local(plans: &[ClusterPlan], algo: ClusterAlgo) -> [f64; 3] {
    let w = plans.len();
    let mut states: Vec<WorkerState> = plans.iter().map(|p| WorkerState::new(p, algo)).collect();
    let mut phase_s = [0.0f64; 3];
    let mut step = 0u32;
    fn timed<R>(slowest: &mut f64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        *slowest = slowest.max(t0.elapsed().as_secs_f64());
        out
    }
    loop {
        let mut slowest = [0.0f64; 3];
        let gathers: Vec<Vec<Vec<ValuePair>>> = states
            .iter_mut()
            .zip(plans)
            .map(|(s, p)| timed(&mut slowest[0], || s.compute_gather(p)))
            .collect();
        let mut total_active = 0u64;
        let mut scatters = Vec::with_capacity(w);
        for (q, (state, plan)) in states.iter_mut().zip(plans).enumerate() {
            let incoming: Vec<Vec<ValuePair>> = (0..w).map(|p| gathers[p][q].clone()).collect();
            let (scatter, active) = timed(&mut slowest[1], || {
                state.apply_gather(plan, step, &incoming)
            });
            total_active += active;
            scatters.push(scatter);
        }
        for (q, (state, plan)) in states.iter_mut().zip(plans).enumerate() {
            let incoming: Vec<Vec<ValuePair>> = (0..w).map(|p| scatters[p][q].clone()).collect();
            timed(&mut slowest[2], || state.apply_scatter(plan, &incoming));
        }
        for (total, s) in phase_s.iter_mut().zip(slowest) {
            *total += s;
        }
        step += 1;
        if !decide_continue(algo, step, total_active) {
            return phase_s;
        }
    }
}

pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> io::Result<Measured> {
    let path = fixture(cfg).ensure()?;
    // The benchmark's own copy of the graph: operation lists and
    // references come from it. The workers map the file themselves.
    let g = load_mapped(&path)?;
    let vertices = g.num_vertices();
    let ops = round_ops(&g, cfg.seed, cfg.size(4, 2));

    let mut join_s = Vec::new();
    let (mut cluster, setup_s) = repeat_setup(cfg.size(5, 1), tracer, |t| {
        let t0 = Instant::now();
        let mut cluster = t.span("distributed.worker_start", |_| {
            Cluster::start(&path, vertices)
        })?;
        join_s.push(t0.elapsed().as_secs_f64());
        t.span("perf.warmup", |_| -> io::Result<()> {
            for &op in &ops {
                cluster.run(op)?;
            }
            Ok(())
        })?;
        Ok(cluster)
    })?;

    // References, in process, over the same deterministic placement.
    let t0 = Instant::now();
    let placement = PARTITIONER.place(&g, WORKERS).map_err(io::Error::other)?;
    let place_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let plans: Vec<ClusterPlan> = (0..WORKERS as u32)
        .map(|me| ClusterPlan::build(&g, &placement, me))
        .collect();
    let plan_s = t0.elapsed().as_secs_f64() / WORKERS as f64;
    let references: Vec<Outcome> = ops
        .iter()
        .map(|&op| Outcome::from(&run_local_on(&plans, op)))
        .collect();
    let edges_per_round: u64 = reference_edges(&g, &ops).iter().sum();

    let mut m = Measured {
        setup_s,
        ..Measured::default()
    };
    // The program's own loop, once over the same list (untimed): what the
    // measured phase mirrors must agree with the same references.
    for (out, reference) in coordinator_run(&path, vertices, &ops)?
        .iter()
        .zip(&references)
    {
        m.attempted += 1;
        if Outcome::from(out) != *reference {
            eprintln!(
                "cluster-bsp: Coordinator::run disagrees with run_local_on on {:?}",
                out.algo
            );
            m.failed += 1;
        }
    }
    let gate_ops = m.attempted;
    let (mut supersteps, mut values_sent) = (0u64, 0u64);
    let times = measure_rounds(cfg.seconds, tracer, |r, t| {
        for (i, (&op, &reference)) in ops.iter().zip(&references).enumerate() {
            t.set_op((r * ops.len() + i) as u32);
            let t0 = Instant::now();
            let out = t.span("distributed.op", |_| cluster.run(op))?;
            m.ops.push(t0.elapsed().as_nanos() as u64);
            m.attempted += 1;
            if out != reference {
                m.failed += 1;
            }
            supersteps += u64::from(out.supersteps);
            values_sent += out.values_sent;
        }
        Ok(())
    })?;
    m.children_rss_mib = cluster.shutdown()?;

    m.closed_ok = (m.attempted - gate_ops).saturating_sub(m.failed);
    m.edges = edges_per_round * times.all.len() as u64;
    m.rounds = times;

    if cfg.trace {
        let mut phases = [0.0f64; 3];
        for &op in &ops {
            for (total, s) in phases.iter_mut().zip(timed_local(&plans, op)) {
                *total += s;
            }
        }
        let rounds = m.rounds.all.len() as f64;
        let l = &mut m.layer;
        l.set("distributed.place_s", place_s);
        l.set("distributed.plan_s", plan_s);
        l.set(
            "distributed.replication_factor",
            placement.replication_factor(),
        );
        l.set("distributed.worker_setup_s", median(&join_s));
        l.set("distributed.compute_s", phases[0]);
        l.set("distributed.gather_s", phases[1]);
        l.set("distributed.scatter_s", phases[2]);
        // Socket round minus the same round's phases in process:
        // transport plus barrier wait.
        l.set(
            "distributed.wire_overhead_s",
            median(&m.rounds.all) - phases.iter().sum::<f64>(),
        );
        l.set("distributed.supersteps", ratio(supersteps as f64, rounds));
        l.set("distributed.values_sent", ratio(values_sent as f64, rounds));
        super::graph_layer(&mut m.layer, &path, &g)?;
    }
    Ok(m)
}
