//! The [`Executor`]: one object that owns every execution policy of the
//! engine — parallelism mode, NUMA placement, scheduling, direction
//! selection, and instrumentation.
//!
//! Before the executor existed, execution policy was scattered: a
//! `parallel: bool` on `EdgeMapOptions` at every call site, NUMA topology
//! carried by [`SystemProfile`] but ignored at execution time, and
//! per-algorithm `RunReport` bookkeeping. The executor centralizes all of
//! it:
//!
//! * **Mode** ([`ExecMode`]) — sequential measured execution (the
//!   default: per-task wall times feed the scheduling simulator) or the
//!   [`crate::sharded`] worker pool, verified equivalent by conformance
//!   and property tests.
//! * **NUMA placement** — for statically scheduled profiles (Polymer,
//!   GraphGrind) the executor derives a
//!   [`PlacementPlan`](vebo_partition::PlacementPlan) from the profile's
//!   topology: every task is bound to the socket that owns its
//!   partition's arrays, tasks are visited in socket-major interleaved
//!   order (the per-socket thread teams advancing concurrently), and each
//!   task's [`TaskStats`] records its socket.
//! * **Scheduling** — the profile's policy drives
//!   [`Executor::simulated_seconds`] and every makespan conversion.
//! * **Instrumentation** — attached [`InstrumentSink`]s receive every
//!   operation; [`Executor::recorded`] is how algorithms accumulate a
//!   [`RunReport`] without hand-rolled bookkeeping.

use crate::edge_map::{edge_map_impl, EdgeMapReport, TaskStats};
use crate::frontier::Frontier;
use crate::instrument::{InstrumentSink, Recorder, RunReport};
use crate::ops::EdgeOp;
use crate::prepared::PreparedGraph;
use crate::profile::{Scheduling, SystemProfile};
use crate::sharded::{ShardOpReport, ShardedExecutor};
use crate::vertex_map::{vertex_map_impl, VertexMapReport};
use std::sync::Arc;
use std::time::Instant;
use vebo_graph::VertexId;
use vebo_partition::numa::NumaTopology;

/// How an executor runs the tasks of one operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// One task at a time, each individually timed — the measurement mode
    /// whose per-task wall clocks feed the scheduling simulator. Default,
    /// and bit-reproducible run to run.
    #[default]
    Sequential,
    /// Tasks run on `shards` long-lived worker threads, each owning one
    /// shard of the task space with its own work queue and a
    /// work-stealing fallback (see [`crate::sharded`]). Results are
    /// identical to [`ExecMode::Sequential`] (conformance tested);
    /// selecting this mode spawns the workers, which are shared by every
    /// clone of the executor.
    Sharded {
        /// Number of shards (= worker threads); must be at least 1.
        shards: usize,
    },
}

/// Traversal direction policy for `edge_map`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Direction {
    /// Ligra's density heuristic decides per call (dense when
    /// `|F| + outdeg(F) > m / threshold_den`).
    #[default]
    Auto,
    /// Force the dense (backward) traversal.
    Dense,
    /// Force the sparse (forward) traversal.
    Sparse,
}

impl Direction {
    pub(crate) fn forced(self) -> Option<bool> {
        match self {
            Direction::Auto => None,
            Direction::Dense => Some(true),
            Direction::Sparse => Some(false),
        }
    }
}

/// Owns threading, NUMA placement, scheduling, and instrumentation for
/// every `edge_map`/`vertex_map`. Construct one per [`SystemProfile`] and
/// pass it to the algorithms (`vebo-algorithms` signatures all take
/// `&Executor`).
///
/// ```
/// use vebo_engine::{Executor, PreparedGraph, SystemProfile};
///
/// let g = vebo_graph::Dataset::YahooLike.build(0.05);
/// let profile = SystemProfile::polymer_like();
/// let exec = Executor::new(profile);
/// let pg = PreparedGraph::builder(g).profile(profile).build().unwrap();
/// // Polymer is statically scheduled: every task has a socket.
/// let plan = exec.placement(pg.num_tasks()).unwrap();
/// assert_eq!(plan.num_tasks(), pg.num_tasks());
/// ```
#[derive(Clone)]
pub struct Executor {
    profile: SystemProfile,
    direction: Direction,
    threshold_den: usize,
    numa_placement: bool,
    sinks: Vec<Arc<dyn InstrumentSink>>,
    /// The [`ExecMode::Sharded`] worker pool, shared (`Arc`) by every
    /// clone; `None` runs sequentially. The mode is derived from it.
    pool: Option<Arc<ShardedExecutor>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("profile", &self.profile.kind)
            .field("mode", &self.mode())
            .field("direction", &self.direction)
            .field("threshold_den", &self.threshold_den)
            .field("numa_placement", &self.numa_placement)
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl Executor {
    /// An executor for `profile`: sequential measured mode, automatic
    /// direction selection, Ligra's `|E|/20` density threshold, and NUMA
    /// placement on for statically scheduled profiles.
    pub fn new(profile: SystemProfile) -> Executor {
        Executor {
            profile,
            direction: Direction::default(),
            threshold_den: 20,
            numa_placement: true,
            sinks: Vec::new(),
            pool: None,
        }
    }

    /// A sharded serving executor for `profile`: shorthand for
    /// `Executor::new(profile).with_mode(ExecMode::Sharded { shards })`.
    /// Spawns the `shards` long-lived workers immediately.
    pub fn sharded(profile: SystemProfile, shards: usize) -> Executor {
        Executor::new(profile).with_mode(ExecMode::Sharded { shards })
    }

    /// The profile this executor schedules for.
    pub fn profile(&self) -> &SystemProfile {
        &self.profile
    }

    /// The execution mode.
    pub fn mode(&self) -> ExecMode {
        match &self.pool {
            Some(pool) => ExecMode::Sharded {
                shards: pool.num_shards(),
            },
            None => ExecMode::Sequential,
        }
    }

    /// Selects sequential (measured) or sharded execution. Selecting
    /// [`ExecMode::Sharded`] spawns the worker pool (long-lived threads
    /// shared by every clone of this executor); selecting
    /// [`ExecMode::Sequential`] drops this executor's reference to a
    /// previously spawned pool.
    pub fn with_mode(mut self, mode: ExecMode) -> Executor {
        self.pool = match mode {
            ExecMode::Sequential => None,
            ExecMode::Sharded { shards } => Some(Arc::new(ShardedExecutor::spawn(shards))),
        };
        self
    }

    /// Overrides the direction policy for every `edge_map` this executor
    /// runs (tests and ablations; the default heuristic is [`Direction::Auto`]).
    pub fn with_direction(mut self, direction: Direction) -> Executor {
        self.direction = direction;
        self
    }

    /// Overrides Ligra's density-threshold denominator (default 20), used
    /// for `edge_map`'s direction choice and for the sparse/dense
    /// representation of every output frontier (`edge_map` and
    /// `vertex_map` alike).
    pub fn with_threshold_den(mut self, den: usize) -> Executor {
        assert!(den >= 1);
        self.threshold_den = den;
        self
    }

    /// Enables or disables NUMA placement (default: enabled; it only
    /// engages on statically scheduled profiles). Disabling reverts to
    /// unplaced task order — results are identical, property tested.
    pub fn with_numa_placement(mut self, on: bool) -> Executor {
        self.numa_placement = on;
        self
    }

    /// Attaches an instrumentation sink; every subsequent operation is
    /// forwarded to it (in addition to any sinks already attached).
    pub fn with_sink(mut self, sink: Arc<dyn InstrumentSink>) -> Executor {
        self.sinks.push(sink);
        self
    }

    /// A clone of this executor with a fresh [`Recorder`] attached —
    /// the standard way algorithms accumulate their [`RunReport`]:
    ///
    /// ```ignore
    /// let (exec, rec) = caller_exec.recorded();
    /// /* exec.edge_map(...) as many times as needed */
    /// let report: RunReport = rec.take();
    /// ```
    pub fn recorded(&self) -> (Executor, Arc<Recorder>) {
        let rec = Arc::new(Recorder::new());
        let exec = self.clone().with_sink(rec.clone());
        (exec, rec)
    }

    /// The NUMA placement plan this executor uses for an operation of
    /// `num_tasks` tasks: `Some` for statically scheduled profiles
    /// (Polymer, GraphGrind) with placement enabled — every task gets a
    /// socket — and `None` for dynamically scheduled ones (Ligra), whose
    /// work stealing defeats static binding.
    pub fn placement(&self, num_tasks: usize) -> Option<vebo_partition::PlacementPlan> {
        self.placement_topology()
            .map(|topo| topo.placement_plan(num_tasks))
    }

    /// Simulated runtime of `report` in seconds on this profile's
    /// machine: its thread count and scheduling policy.
    pub fn simulated_seconds(&self, report: &RunReport) -> f64 {
        report.simulated_nanos(self.profile.topology.num_threads, self.profile.scheduling) / 1e9
    }

    /// As [`Executor::simulated_seconds`] under the deterministic work
    /// model (cost = edges + destination vertices) instead of measured
    /// wall time.
    pub fn simulated_work(&self, report: &RunReport) -> f64 {
        report.simulated_work(self.profile.topology.num_threads, self.profile.scheduling)
    }

    /// Applies `op` over every edge whose source is in `frontier`,
    /// choosing the traversal by this executor's direction policy;
    /// returns the next frontier and the per-task report (also forwarded
    /// to the attached sinks).
    pub fn edge_map<O: EdgeOp>(
        &self,
        pg: &PreparedGraph,
        frontier: &Frontier,
        op: &O,
    ) -> (Frontier, EdgeMapReport) {
        self.edge_map_in(pg, frontier, op, self.direction)
    }

    /// As [`Executor::edge_map`] with an explicit direction for this one
    /// call (algorithms that are inherently dense — PR, SPMV, BP — force
    /// [`Direction::Dense`]).
    pub fn edge_map_in<O: EdgeOp>(
        &self,
        pg: &PreparedGraph,
        frontier: &Frontier,
        op: &O,
        direction: Direction,
    ) -> (Frontier, EdgeMapReport) {
        let (out, report) =
            edge_map_impl(pg, frontier, op, direction.forced(), &self.task_policy());
        if !self.sinks.is_empty() {
            // Classifying sums active out-degrees (O(|frontier|)); only
            // pay for it when someone is listening.
            let class = frontier.density_class(pg.graph());
            for sink in &self.sinks {
                sink.record_edge_map(class, &report);
                if let Some(shards) = &report.shards {
                    sink.record_shard_op(shards);
                }
            }
        }
        (out, report)
    }

    /// Applies `f` to each active vertex; the output frontier contains
    /// the vertices for which `f` returned `true`. The report is also
    /// forwarded to the attached sinks.
    pub fn vertex_map<F>(
        &self,
        pg: &PreparedGraph,
        frontier: &Frontier,
        f: F,
    ) -> (Frontier, VertexMapReport)
    where
        F: Fn(VertexId) -> bool + Sync,
    {
        let (out, report) = vertex_map_impl(pg, frontier, f, &self.task_policy());
        for sink in &self.sinks {
            sink.record_vertex_map(&report);
            if let Some(shards) = &report.shards {
                sink.record_shard_op(shards);
            }
        }
        (out, report)
    }

    /// [`Executor::vertex_map`] over all vertices (dense initialization
    /// passes).
    pub fn vertex_map_all<F>(&self, pg: &PreparedGraph, f: F) -> (Frontier, VertexMapReport)
    where
        F: Fn(VertexId) -> bool + Sync,
    {
        let all = Frontier::all(pg.graph().num_vertices());
        self.vertex_map(pg, &all, f)
    }

    fn placement_topology(&self) -> Option<NumaTopology> {
        (self.numa_placement && self.profile.scheduling == Scheduling::Static)
            .then_some(self.profile.topology)
    }

    fn task_policy(&self) -> TaskPolicy<'_> {
        TaskPolicy {
            pool: self.pool.as_deref(),
            placement: self.placement_topology(),
            threshold_den: self.threshold_den,
        }
    }
}

/// How one operation's tasks execute: resolved from the executor, passed
/// into the traversal kernels.
pub(crate) struct TaskPolicy<'a> {
    /// The sharded backend's pool; `None` runs the tasks sequentially.
    pool: Option<&'a ShardedExecutor>,
    placement: Option<NumaTopology>,
    /// The executor's density-threshold denominator: `edge_map`'s
    /// direction choice and both operations' output-representation switch.
    pub(crate) threshold_den: usize,
}

impl TaskPolicy<'_> {
    /// Runs `num_tasks` tasks, timing each; `f(task) -> (edges, vertices)`.
    /// With a placement topology, the sequential backend visits tasks in
    /// the plan's socket-major interleaved order and the sharded backend
    /// splits them into socket-aligned shards; both stamp each task's
    /// socket. Returns the per-task stats plus the per-shard report when
    /// the sharded backend ran.
    pub(crate) fn run<F>(&self, num_tasks: usize, f: F) -> (Vec<TaskStats>, Option<ShardOpReport>)
    where
        F: Fn(usize) -> (u64, u64) + Sync,
    {
        if let Some(pool) = self.pool {
            let (stats, report) = pool.run_tasks(num_tasks, self.placement.as_ref(), f);
            return (stats, Some(report));
        }
        let timed = |t: usize| {
            let t0 = Instant::now();
            let (edges, vertices) = f(t);
            TaskStats {
                nanos: t0.elapsed().as_nanos() as u64,
                edges,
                vertices,
                socket: 0,
            }
        };
        let stats = match &self.placement {
            None => (0..num_tasks).map(timed).collect(),
            Some(topo) => {
                let plan = topo.placement_plan(num_tasks);
                let mut stats = vec![TaskStats::default(); num_tasks];
                for t in plan.execution_order() {
                    stats[t] = timed(t);
                }
                for (t, s) in stats.iter_mut().enumerate() {
                    s.socket = plan.socket_of(t) as u32;
                }
                stats
            }
        };
        (stats, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::SystemKind;
    use std::sync::atomic::{AtomicU32, Ordering};
    use vebo_graph::Dataset;
    use vebo_partition::EdgeOrder;

    struct ParentOp {
        parent: Vec<AtomicU32>,
    }

    impl ParentOp {
        fn new(n: usize) -> ParentOp {
            ParentOp {
                parent: (0..n).map(|_| AtomicU32::new(u32::MAX)).collect(),
            }
        }
    }

    impl EdgeOp for ParentOp {
        fn update(&self, src: VertexId, dst: VertexId, _w: f32) -> bool {
            if self.parent[dst as usize].load(Ordering::Relaxed) == u32::MAX {
                self.parent[dst as usize].store(src, Ordering::Relaxed);
                true
            } else {
                false
            }
        }
        fn update_atomic(&self, src: VertexId, dst: VertexId, _w: f32) -> bool {
            self.parent[dst as usize]
                .compare_exchange(u32::MAX, src, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        }
        fn cond(&self, dst: VertexId) -> bool {
            self.parent[dst as usize].load(Ordering::Relaxed) == u32::MAX
        }
    }

    #[test]
    fn static_profiles_place_every_task() {
        for profile in [
            SystemProfile::polymer_like(),
            SystemProfile::graphgrind_like(EdgeOrder::Csr),
        ] {
            let exec = Executor::new(profile);
            let plan = exec.placement(96).expect("static profiles are placed");
            assert_eq!(plan.num_tasks(), 96);
            for t in 0..96 {
                assert!(plan.socket_of(t) < profile.topology.num_sockets);
            }
        }
        assert!(Executor::new(SystemProfile::ligra_like())
            .placement(96)
            .is_none());
    }

    #[test]
    fn reports_tag_tasks_with_sockets() {
        let g = Dataset::YahooLike.build(0.05);
        let profile = SystemProfile::graphgrind_like(EdgeOrder::Csr);
        let exec = Executor::new(profile);
        let pg = PreparedGraph::builder(g.clone())
            .profile(profile)
            .build()
            .unwrap();
        let n = g.num_vertices();
        let op = ParentOp::new(n);
        let (_, report) = exec.edge_map_in(&pg, &Frontier::all(n), &op, Direction::Dense);
        let plan = exec.placement(report.tasks.len()).unwrap();
        for (t, stats) in report.tasks.iter().enumerate() {
            assert_eq!(stats.socket as usize, plan.socket_of(t));
        }
        // All four sockets appear.
        let mut seen: Vec<u32> = report.tasks.iter().map(|t| t.socket).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn placement_does_not_change_results() {
        let g = Dataset::LiveJournalLike.build(0.03);
        let n = g.num_vertices();
        let profile = SystemProfile::polymer_like();
        let mut outputs = Vec::new();
        for placed in [true, false] {
            let exec = Executor::new(profile).with_numa_placement(placed);
            let pg = PreparedGraph::builder(g.clone())
                .profile(profile)
                .build()
                .unwrap();
            let op = ParentOp::new(n);
            op.parent[0].store(0, Ordering::Relaxed);
            let (out, _) = exec.edge_map(&pg, &Frontier::single(n, 0), &op);
            let mut got: Vec<VertexId> = out.iter_active().collect();
            got.sort_unstable();
            outputs.push(got);
        }
        assert_eq!(outputs[0], outputs[1]);
    }

    #[test]
    fn recorded_executor_accumulates_a_run_report() {
        let g = Dataset::YahooLike.build(0.03);
        let n = g.num_vertices();
        let profile = SystemProfile::ligra_like();
        let base = Executor::new(profile);
        let (exec, rec) = base.recorded();
        let pg = PreparedGraph::builder(g).profile(profile).build().unwrap();
        let op = ParentOp::new(n);
        op.parent[0].store(0, Ordering::Relaxed);
        let (next, _) = exec.edge_map(&pg, &Frontier::single(n, 0), &op);
        let (_, _) = exec.vertex_map(&pg, &next, |_| true);
        let report = rec.take();
        assert_eq!(report.iterations, 1);
        assert_eq!(report.edge_maps.len(), 1);
        assert_eq!(report.vertex_maps.len(), 1);
        // The base executor was not mutated.
        assert_eq!(base.sinks.len(), 0);
    }

    #[test]
    fn parallel_mode_matches_sequential() {
        let g = Dataset::LiveJournalLike.build(0.03);
        let n = g.num_vertices();
        let profile = SystemProfile::graphgrind_like(EdgeOrder::Csr);
        let pg = PreparedGraph::builder(g).profile(profile).build().unwrap();
        let seeds: Vec<VertexId> = (0..50).map(|i| i * 13 % n as u32).collect();
        let mut outputs = Vec::new();
        for mode in [ExecMode::Sequential, ExecMode::Sharded { shards: 3 }] {
            let exec = Executor::new(profile).with_mode(mode);
            let op = ParentOp::new(n);
            for &s in &seeds {
                op.parent[s as usize].store(s, Ordering::Relaxed);
            }
            let f = Frontier::from_vertices(n, seeds.clone());
            let (out, _) = exec.edge_map(&pg, &f, &op);
            let mut got: Vec<VertexId> = out.iter_active().collect();
            got.sort_unstable();
            outputs.push(got);
        }
        assert_eq!(outputs[0], outputs[1]);
    }

    #[test]
    fn debug_format_names_the_profile() {
        let exec = Executor::new(SystemProfile::ligra_like());
        let s = format!("{exec:?}");
        assert!(s.contains("LigraLike"), "{s}");
        assert_eq!(exec.profile().kind, SystemKind::LigraLike);
    }
}
