//! The multi-process cluster runtime: vertex-cut shards executing real
//! BSP supersteps.
//!
//! Where [`crate::bsp`] *simulates* a cluster (it charges work and
//! communication against a cost model), this module *is* one: each
//! worker owns the arcs an edge placement assigned to it, runs local
//! `edge_map`s over that shard through the ordinary
//! [`vebo_engine::Executor`], and synchronizes vertex values with its
//! peers in the PowerGraph gather/scatter shape —
//!
//! 1. **compute**: a local edge map produces per-vertex partial values
//!    (PageRank partial sums, BFS/CC candidates);
//! 2. **gather**: each partial is sent to the vertex's *master* (the
//!    lowest-numbered machine in its replica set), which combines them
//!    in machine order;
//! 3. **scatter**: the master broadcasts the authoritative value back
//!    to every replica;
//! 4. **barrier**: workers report activity to the coordinator, which
//!    decides continue-or-halt.
//!
//! Every step of that loop is deterministic: shards are rebuilt
//! identically from the same placement, local edge maps run
//! [`ExecMode::Sequential`] with a forced direction, masters combine
//! partials in ascending machine order, and batches list vertices in
//! ascending id order. [`run_local`] steps the same `WorkerState` code
//! in-process with no sockets at all — the conformance suites prove the
//! socket cluster bit-identical to it, and (for the integer-valued
//! fixpoints BFS and CC) to the single-process engine algorithms.
//!
//! A superstep costs what its edges cost. The PageRank gather is a
//! dense pull, which owns each destination, so its `update` is a plain
//! read-modify-write; only push traversals go through `update_atomic`.
//! The BFS and CC gathers take the vertices they reached or lowered from
//! the edge map's output frontier, already ascending. Per-vertex scratch
//! buffers are allocated once per run and reset by each superstep, and
//! batches are moved into their frames, never cloned.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use crate::error::DistributedError;
use crate::hybrid_cut::HybridCut;
use crate::transport::{FramedConn, Mesh, Msg, Phase, ValuePair};
use crate::vertex_cut::{random_edge_placement, EdgePlacement, GreedyVertexCut};
use vebo_engine::shared::{atomic_f64_vec, AtomicF64};
use vebo_engine::{
    Direction, EdgeOp, ExecMode, Executor, Frontier, PreparedGraph, ShardMetricsSink, SystemProfile,
};
use vebo_graph::{digest_u64s, Graph, VertexId};

/// PageRank damping factor (the constant the rest of the repo uses).
const DAMPING: f64 = 0.85;

/// BFS "not reached" level, matching the engine's convention.
const UNVISITED: u32 = u32::MAX;

/// Edge-placement strategy selector for the cluster runtime — the
/// partitioners a shard can be cut with, as a CLI-friendly enum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Partitioner {
    /// PowerGraph greedy vertex cut ([`GreedyVertexCut`]).
    VertexCut,
    /// Random (hash) edge placement ([`random_edge_placement`]).
    Hash,
    /// PowerLyra hybrid cut with the default threshold ([`HybridCut`]).
    Hybrid,
}

impl Partitioner {
    /// Every strategy, in display order.
    pub const ALL: [Partitioner; 3] = [
        Partitioner::VertexCut,
        Partitioner::Hash,
        Partitioner::Hybrid,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Partitioner::VertexCut => "vertex-cut",
            Partitioner::Hash => "hash",
            Partitioner::Hybrid => "hybrid",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Partitioner> {
        Partitioner::ALL.into_iter().find(|p| p.name() == s)
    }

    /// Places every arc of `g` on one of `machines` machines. All three
    /// strategies are deterministic, so every worker computes the same
    /// placement from the same graph.
    pub fn place(self, g: &Graph, machines: usize) -> Result<EdgePlacement, DistributedError> {
        match self {
            Partitioner::VertexCut => GreedyVertexCut.place(g, machines),
            Partitioner::Hash => random_edge_placement(g, machines),
            Partitioner::Hybrid => HybridCut::default().place(g, machines),
        }
    }
}

/// The algorithm a cluster run executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClusterAlgo {
    /// Fixed-iteration PageRank; final values are `f64::to_bits`.
    PageRank {
        /// Superstep (iteration) count.
        iters: u32,
    },
    /// Level-synchronous BFS; final values are levels (`u32::MAX` =
    /// unreached), zero-extended.
    Bfs {
        /// Root vertex.
        source: u32,
    },
    /// Min-label propagation along stored arcs, the same fixpoint the
    /// engine's `cc` computes; final values are labels, zero-extended.
    Cc,
}

impl ClusterAlgo {
    /// Short display name, used by the `vebo-cluster` bin's output lines.
    pub fn name(self) -> &'static str {
        match self {
            ClusterAlgo::PageRank { .. } => "pagerank",
            ClusterAlgo::Bfs { .. } => "bfs",
            ClusterAlgo::Cc => "cc",
        }
    }
}

/// Whether another superstep follows `next_step` given the activity sum
/// of the step just finished — the coordinator's (and [`run_local`]'s)
/// halt rule.
pub fn decide_continue(algo: ClusterAlgo, next_step: u32, total_active: u64) -> bool {
    match algo {
        ClusterAlgo::PageRank { iters } => next_step < iters,
        ClusterAlgo::Bfs { .. } | ClusterAlgo::Cc => total_active > 0,
    }
}

/// The master machine of vertex `v`: lowest-numbered machine in its
/// replica set, or `v % w` for vertices no arc ever touched (so
/// ownership stays total and every machine agrees on it).
pub fn master_of(replica_mask: u64, v: VertexId, machines: usize) -> u32 {
    if replica_mask == 0 {
        v % machines as u32
    } else {
        replica_mask.trailing_zeros()
    }
}

/// One worker's immutable view of the cluster: its shard graph
/// (prepared for the engine), the ownership map, and global degrees.
pub struct ClusterPlan {
    n: usize,
    machines: usize,
    me: u32,
    pg: PreparedGraph,
    exec: Executor,
    /// Global out-degree of every vertex (PageRank divides by this, not
    /// by the local shard degree).
    global_out_degree: Vec<u32>,
    /// Replica bitmask per vertex, copied from the placement.
    replicas: Vec<u64>,
    /// Master machine per vertex.
    master: Vec<u32>,
    /// Vertices this machine masters, ascending.
    owned: Vec<VertexId>,
    metrics: Arc<ShardMetricsSink>,
}

impl ClusterPlan {
    /// Builds machine `me`'s plan: the shard graph holds exactly the
    /// arcs `placement` assigned to `me` (over the full global vertex
    /// id space, so no id translation ever happens), prepared with the
    /// deterministic sequential profile.
    pub fn build(g: &Graph, placement: &EdgePlacement, me: u32) -> ClusterPlan {
        let n = g.num_vertices();
        let machines = placement.num_machines();
        assert!((me as usize) < machines, "worker id out of range");
        let mut local_edges = Vec::new();
        let mut idx = 0usize;
        for u in g.vertices() {
            for &v in g.out_neighbors(u) {
                if placement.machine_of_arc(idx) == me {
                    local_edges.push((u, v));
                }
                idx += 1;
            }
        }
        let shard = Graph::from_edges(n, &local_edges, true);
        let pg = PreparedGraph::builder(shard)
            .profile(SystemProfile::ligra_like())
            .build()
            .expect("shard graph prepares");
        let metrics = Arc::new(ShardMetricsSink::new());
        let exec = Executor::new(SystemProfile::ligra_like())
            .with_mode(ExecMode::Sequential)
            .with_sink(metrics.clone());
        let global_out_degree = (0..n).map(|v| g.out_degree(v as VertexId) as u32).collect();
        let replicas: Vec<u64> = (0..n)
            .map(|v| placement.replicas_of(v as VertexId))
            .collect();
        let master: Vec<u32> = (0..n)
            .map(|v| master_of(replicas[v], v as VertexId, machines))
            .collect();
        let owned: Vec<VertexId> = (0..n as VertexId)
            .filter(|&v| master[v as usize] == me)
            .collect();
        ClusterPlan {
            n,
            machines,
            me,
            pg,
            exec,
            global_out_degree,
            replicas,
            master,
            owned,
            metrics,
        }
    }

    /// Global vertex count.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Cluster width.
    pub fn num_machines(&self) -> usize {
        self.machines
    }

    /// This machine's id.
    pub fn machine(&self) -> u32 {
        self.me
    }

    /// Arcs in this machine's shard.
    pub fn shard_edges(&self) -> usize {
        self.pg.graph().num_edges()
    }

    /// Vertices this machine masters.
    pub fn num_owned(&self) -> usize {
        self.owned.len()
    }

    /// The metrics sink the shard executor and superstep loop feed.
    pub fn metrics(&self) -> &Arc<ShardMetricsSink> {
        &self.metrics
    }
}

/// Per-machine outgoing batches, indexed by machine id (the slot for
/// this machine itself carries the loopback batch).
type Batches = Vec<Vec<ValuePair>>;

fn empty_batches(machines: usize) -> Batches {
    vec![Vec::new(); machines]
}

/// PageRank gather operator: pull-accumulate `contrib[src]` into
/// `acc[dst]` over the shard's arcs. Sequential + forced-dense, so the
/// floating-point sum order is the shard CSC order — identical for the
/// in-process and socket runners.
///
/// Ownership rule: the dense pull owns `dst` (one task scans each
/// destination's in-list), so [`EdgeOp::update`] is a plain relaxed
/// load + store — no locked CAS per edge. Push traversals, where several
/// sources may hit one destination at once, go through
/// [`EdgeOp::update_atomic`]'s `fetch_add`. Both perform the same
/// rounded `f64` addition, so the sum order alone fixes the bits.
struct PrGather<'a> {
    contrib: &'a [f64],
    acc: &'a [AtomicF64],
}

impl EdgeOp for PrGather<'_> {
    fn update(&self, src: VertexId, dst: VertexId, _w: f32) -> bool {
        let a = &self.acc[dst as usize];
        a.store(a.load() + self.contrib[src as usize]);
        false
    }

    fn update_atomic(&self, src: VertexId, dst: VertexId, _w: f32) -> bool {
        self.acc[dst as usize].fetch_add(self.contrib[src as usize]);
        false
    }
}

/// BFS gather operator: every unvisited destination the frontier
/// reaches joins the edge map's output frontier. `levels` is frozen for
/// the whole compute phase and `cond` gates every update, so a
/// destination reached twice is simply set twice in the engine's output
/// bitset.
struct BfsGather<'a> {
    levels: &'a [u32],
}

impl EdgeOp for BfsGather<'_> {
    fn update(&self, _src: VertexId, _dst: VertexId, _w: f32) -> bool {
        true
    }

    fn update_atomic(&self, src: VertexId, dst: VertexId, w: f32) -> bool {
        self.update(src, dst, w)
    }

    fn cond(&self, dst: VertexId) -> bool {
        self.levels[dst as usize] == UNVISITED
    }
}

/// CC gather operator: lower `next[dst]` toward `labels[src]` (the
/// frozen pre-superstep label); a lowered destination joins the edge
/// map's output frontier.
struct CcGather<'a> {
    labels: &'a [u32],
    next: &'a [AtomicU32],
}

impl EdgeOp for CcGather<'_> {
    fn update(&self, src: VertexId, dst: VertexId, _w: f32) -> bool {
        let cand = self.labels[src as usize];
        let slot = &self.next[dst as usize];
        let mut cur = slot.load(Ordering::Relaxed);
        while cand < cur {
            match slot.compare_exchange(cur, cand, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
        false
    }

    fn update_atomic(&self, src: VertexId, dst: VertexId, w: f32) -> bool {
        self.update(src, dst, w)
    }
}

/// Algorithm-specific mutable state of one worker. Every n-long buffer
/// is allocated once per run, in [`WorkerState::new`]; supersteps reset
/// what they touched instead of allocating afresh.
enum AlgoState {
    Pr {
        x: Vec<f64>,
        /// `x[v] / global_out_degree(v)`, rewritten every superstep.
        contrib: Vec<f64>,
        /// Sums: the shard's partials in the compute phase, the
        /// masters' combined partials in the gather phase, all zero
        /// between phases.
        acc: Vec<AtomicF64>,
    },
    Bfs {
        levels: Vec<u32>,
        frontier: Vec<VertexId>,
    },
    Cc {
        labels: Vec<u32>,
        /// Candidate labels of the compute phase; equal to `labels`
        /// between supersteps.
        next: Vec<AtomicU32>,
        frontier: Vec<VertexId>,
    },
}

/// One worker's superstep engine. All numeric work happens here;
/// [`run_local`] and the socket runtime differ only in how batches
/// travel between `WorkerState`s.
pub struct WorkerState {
    algo: ClusterAlgo,
    state: AlgoState,
}

impl WorkerState {
    /// Initial state for `algo` on this worker's shard.
    pub fn new(plan: &ClusterPlan, algo: ClusterAlgo) -> WorkerState {
        let n = plan.n;
        let state = match algo {
            ClusterAlgo::PageRank { .. } => AlgoState::Pr {
                x: vec![1.0 / n.max(1) as f64; n],
                contrib: vec![0.0; n],
                acc: atomic_f64_vec(n, 0.0),
            },
            ClusterAlgo::Bfs { source } => {
                let source = if n == 0 { 0 } else { source % n as u32 };
                let mut levels = vec![UNVISITED; n];
                if n > 0 {
                    levels[source as usize] = 0;
                }
                AlgoState::Bfs {
                    levels,
                    frontier: if n > 0 { vec![source] } else { Vec::new() },
                }
            }
            ClusterAlgo::Cc => AlgoState::Cc {
                labels: (0..n as u32).collect(),
                next: (0..n as u32).map(AtomicU32::new).collect(),
                frontier: (0..n as VertexId).collect(),
            },
        };
        WorkerState { algo, state }
    }

    /// Phase 1 — local compute: one edge map over the shard, producing
    /// the per-master gather batches (ascending vertex ids; the slot
    /// for `plan.machine()` is the loopback batch). BFS and CC read the
    /// vertices they reached or lowered from the edge map's output
    /// frontier, which lists them ascending.
    pub fn compute_gather(&mut self, plan: &ClusterPlan) -> Batches {
        let n = plan.n;
        let mut out = empty_batches(plan.machines);
        match &mut self.state {
            AlgoState::Pr { x, contrib, acc } => {
                for (v, c) in contrib.iter_mut().enumerate() {
                    let d = plan.global_out_degree[v];
                    *c = if d > 0 { x[v] / d as f64 } else { 0.0 };
                }
                let op = PrGather { contrib, acc };
                plan.exec
                    .edge_map_in(&plan.pg, &Frontier::all(n), &op, Direction::Dense);
                // Read each partial and zero its slot: `apply_gather` sums into `acc` next.
                for (v, slot) in acc.iter().enumerate() {
                    let partial = slot.load();
                    if partial != 0.0 {
                        slot.store(0.0);
                        out[plan.master[v] as usize].push((v as u32, partial.to_bits()));
                    }
                }
            }
            AlgoState::Bfs { levels, frontier } => {
                if !frontier.is_empty() {
                    let f = Frontier::from_sorted_vertices(n, std::mem::take(frontier));
                    let op = BfsGather { levels };
                    let (reached, _) = plan.exec.edge_map_in(&plan.pg, &f, &op, Direction::Sparse);
                    for_each_ascending(&reached, |v| {
                        out[plan.master[v as usize] as usize].push((v, 0));
                    });
                }
            }
            AlgoState::Cc {
                labels,
                next,
                frontier,
            } => {
                if !frontier.is_empty() {
                    let f = Frontier::from_sorted_vertices(n, std::mem::take(frontier));
                    let op = CcGather { labels, next };
                    let (lowered, _) = plan.exec.edge_map_in(&plan.pg, &f, &op, Direction::Sparse);
                    for_each_ascending(&lowered, |v| {
                        // Read the candidate, then restore `next == labels`.
                        let cand =
                            std::mem::replace(next[v as usize].get_mut(), labels[v as usize]);
                        out[plan.master[v as usize] as usize].push((v, u64::from(cand)));
                    });
                }
            }
        }
        out
    }

    /// Phase 2 — master combine: merges the gather batches addressed to
    /// this machine (`incoming[q]` from machine `q`, ascending machine
    /// order, so floating-point combination order is fixed), updates
    /// owned vertices, and produces the scatter batches for their
    /// replicas. Returns `(scatter_batches, newly_active)`.
    pub fn apply_gather(
        &mut self,
        plan: &ClusterPlan,
        step: u32,
        incoming: &[Vec<ValuePair>],
    ) -> (Batches, u64) {
        assert_eq!(incoming.len(), plan.machines);
        let mut out = empty_batches(plan.machines);
        let me = plan.me;
        let active;
        match &mut self.state {
            AlgoState::Pr { x, acc, .. } => {
                for batch in incoming {
                    for &(v, bits) in batch {
                        debug_assert_eq!(plan.master[v as usize], me);
                        let a = &acc[v as usize];
                        a.store(a.load() + f64::from_bits(bits));
                    }
                }
                let base = (1.0 - DAMPING) / plan.n.max(1) as f64;
                for &v in &plan.owned {
                    // Gather pairs name owned vertices only, so zeroing
                    // the owned sums leaves all of `acc` zero.
                    let total = acc[v as usize].load();
                    acc[v as usize].store(0.0);
                    let nx = base + DAMPING * total;
                    x[v as usize] = nx;
                    push_to_replicas(&mut out, plan.replicas[v as usize], me, v, nx.to_bits());
                }
                active = plan.owned.len() as u64;
            }
            AlgoState::Bfs { levels, frontier } => {
                let mut newly = Vec::new();
                for batch in incoming {
                    for &(v, _) in batch {
                        debug_assert_eq!(plan.master[v as usize], me);
                        if levels[v as usize] == UNVISITED {
                            levels[v as usize] = step + 1;
                            newly.push(v);
                        }
                    }
                }
                newly.sort_unstable();
                active = newly.len() as u64;
                for &v in &newly {
                    push_to_replicas(
                        &mut out,
                        plan.replicas[v as usize],
                        me,
                        v,
                        u64::from(step + 1),
                    );
                }
                frontier.extend_from_slice(&newly);
            }
            AlgoState::Cc {
                labels,
                next,
                frontier,
            } => {
                let mut newly = Vec::new();
                for batch in incoming {
                    for &(v, bits) in batch {
                        debug_assert_eq!(plan.master[v as usize], me);
                        let cand = bits as u32;
                        if cand < labels[v as usize] {
                            labels[v as usize] = cand;
                            *next[v as usize].get_mut() = cand;
                            newly.push(v);
                        }
                    }
                }
                newly.sort_unstable();
                newly.dedup();
                active = newly.len() as u64;
                for &v in &newly {
                    push_to_replicas(
                        &mut out,
                        plan.replicas[v as usize],
                        me,
                        v,
                        u64::from(labels[v as usize]),
                    );
                }
                frontier.extend_from_slice(&newly);
            }
        }
        (out, active)
    }

    /// Phase 3 — mirror update: applies the masters' scatter batches to
    /// local mirrors and finalizes the next frontier.
    pub fn apply_scatter(&mut self, plan: &ClusterPlan, incoming: &[Vec<ValuePair>]) {
        assert_eq!(incoming.len(), plan.machines);
        match &mut self.state {
            AlgoState::Pr { x, .. } => {
                for batch in incoming {
                    for &(v, bits) in batch {
                        x[v as usize] = f64::from_bits(bits);
                    }
                }
            }
            AlgoState::Bfs { levels, frontier } => {
                for batch in incoming {
                    for &(v, bits) in batch {
                        levels[v as usize] = bits as u32;
                        frontier.push(v);
                    }
                }
                frontier.sort_unstable();
                frontier.dedup();
            }
            AlgoState::Cc {
                labels,
                next,
                frontier,
            } => {
                for batch in incoming {
                    for &(v, bits) in batch {
                        labels[v as usize] = bits as u32;
                        *next[v as usize].get_mut() = bits as u32;
                        frontier.push(v);
                    }
                }
                frontier.sort_unstable();
                frontier.dedup();
            }
        }
    }

    /// Final values of the vertices this machine masters, ascending —
    /// the worker's contribution to the cluster's value vector.
    pub fn values(&self, plan: &ClusterPlan) -> Vec<ValuePair> {
        plan.owned
            .iter()
            .map(|&v| {
                let bits = match &self.state {
                    AlgoState::Pr { x, .. } => x[v as usize].to_bits(),
                    AlgoState::Bfs { levels, .. } => u64::from(levels[v as usize]),
                    AlgoState::Cc { labels, .. } => u64::from(labels[v as usize]),
                };
                (v, bits)
            })
            .collect()
    }

    /// The algorithm this state is running.
    pub fn algo(&self) -> ClusterAlgo {
        self.algo
    }
}

/// Appends `(v, bits)` to the batch of every replica machine except
/// `me` — plus nothing for `me` itself, whose state was just updated in
/// place.
fn push_to_replicas(out: &mut Batches, mask: u64, me: u32, v: u32, bits: u64) {
    let mut m = mask;
    while m != 0 {
        let q = m.trailing_zeros();
        if q != me {
            out[q as usize].push((v, bits));
        }
        m &= m - 1;
    }
}

/// Calls `visit` on every vertex of an edge map's output frontier, in
/// ascending id order.
fn for_each_ascending(f: &Frontier, visit: impl FnMut(VertexId)) {
    let f = f.to_sparse();
    let Frontier::Sparse { vertices, .. } = &*f else {
        unreachable!("to_sparse returned a dense frontier")
    };
    vertices.iter().copied().for_each(visit);
}

/// Everything a finished cluster run reports.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// The algorithm that ran.
    pub algo: ClusterAlgo,
    /// Final per-vertex values as raw bits, indexed by vertex id.
    pub values: Vec<u64>,
    /// Order-sensitive FNV-1a digest of `values` — the conformance
    /// artifact compared across runners and worker counts.
    pub digest: u64,
    /// Supersteps executed.
    pub supersteps: u32,
    /// Value pairs shipped between distinct machines (gather + scatter;
    /// loopback batches don't count).
    pub values_sent: u64,
}

/// Runs `algo` over prebuilt per-machine plans entirely in-process,
/// stepping every worker in lockstep — the single-process reference the
/// socket cluster must match bit for bit.
pub fn run_local_on(plans: &[ClusterPlan], algo: ClusterAlgo) -> RunOutput {
    let w = plans.len();
    assert!(w > 0, "at least one plan");
    let n = plans[0].n;
    let mut states: Vec<WorkerState> = plans.iter().map(|p| WorkerState::new(p, algo)).collect();
    let mut step = 0u32;
    let mut values_sent = 0u64;
    loop {
        let t0 = std::time::Instant::now();
        // Remote pairs each machine sent / received this superstep.
        let mut sent = vec![0u64; w];
        let mut received = vec![0u64; w];
        let mut gathers: Vec<Batches> = states
            .iter_mut()
            .zip(plans)
            .map(|(s, p)| s.compute_gather(p))
            .collect();
        count_remote(&gathers, &mut sent, &mut received);
        let mut total_active = 0u64;
        let mut scatters: Vec<Batches> = Vec::with_capacity(w);
        for (q, (state, plan)) in states.iter_mut().zip(plans).enumerate() {
            let incoming = take_column(&mut gathers, q);
            let (sc, active) = state.apply_gather(plan, step, &incoming);
            total_active += active;
            scatters.push(sc);
        }
        count_remote(&scatters, &mut sent, &mut received);
        for (q, (state, plan)) in states.iter_mut().zip(plans).enumerate() {
            let incoming = take_column(&mut scatters, q);
            state.apply_scatter(plan, &incoming);
        }
        let nanos = t0.elapsed().as_nanos() as u64;
        for (plan, (&s, &r)) in plans.iter().zip(sent.iter().zip(&received)) {
            plan.metrics.record_superstep(s, r, nanos);
        }
        values_sent += sent.iter().sum::<u64>();
        step += 1;
        if !decide_continue(algo, step, total_active) {
            break;
        }
    }
    let mut values = vec![0u64; n];
    for (state, plan) in states.iter().zip(plans) {
        for (v, bits) in state.values(plan) {
            values[v as usize] = bits;
        }
    }
    RunOutput {
        algo,
        digest: digest_u64s(values.iter().copied()),
        values,
        supersteps: step,
        values_sent,
    }
}

/// Adds each machine's remote traffic in `all` (`all[p][q]` = batch
/// from `p` to `q`) to `sent[p]` and `received[q]`; loopback batches
/// don't count.
fn count_remote(all: &[Batches], sent: &mut [u64], received: &mut [u64]) {
    for (p, batches) in all.iter().enumerate() {
        for (q, batch) in batches.iter().enumerate() {
            if p != q {
                sent[p] += batch.len() as u64;
                received[q] += batch.len() as u64;
            }
        }
    }
}

/// Moves the batches addressed to machine `q` out of `all`, in sender
/// order.
fn take_column(all: &mut [Batches], q: usize) -> Vec<Vec<ValuePair>> {
    all.iter_mut().map(|b| std::mem::take(&mut b[q])).collect()
}

/// Partitions `g` with `partitioner` for `machines` machines and runs
/// `algo` in-process over the resulting shards.
pub fn run_local(
    g: &Graph,
    partitioner: Partitioner,
    machines: usize,
    algo: ClusterAlgo,
) -> Result<RunOutput, DistributedError> {
    let placement = partitioner.place(g, machines)?;
    let plans: Vec<ClusterPlan> = (0..machines)
        .map(|m| ClusterPlan::build(g, &placement, m as u32))
        .collect();
    Ok(run_local_on(&plans, algo))
}

/// One worker process's whole life: dial the coordinator, learn the
/// roster, rebuild the shard deterministically, mesh up with the peers,
/// and execute supersteps until [`Msg::Shutdown`]. The graph and
/// partitioner are *local* inputs — every worker derives the identical
/// placement from them, so only vertex values ever cross the network.
pub fn run_worker(coordinator: SocketAddr, g: &Graph, partitioner: Partitioner) -> io::Result<()> {
    let mesh_listener = TcpListener::bind((loopback_ip(coordinator), 0))?;
    let mesh_port = mesh_listener.local_addr()?.port();
    let mut control = FramedConn::new(TcpStream::connect(coordinator)?)?;
    control.send(&Msg::Join { mesh_port })?;
    let (me, roster) = match control.recv()? {
        Msg::Start { worker_id, roster } => (worker_id, roster),
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected start, got {other:?}"),
            ))
        }
    };
    if me as usize >= roster.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "start names worker {me} of a {}-worker roster",
                roster.len()
            ),
        ));
    }
    let placement = partitioner
        .place(g, roster.len())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    let plan = ClusterPlan::build(g, &placement, me);
    let mut mesh = Mesh::connect(me, &mesh_listener, &roster)?;
    loop {
        match control.recv()? {
            Msg::Begin { algo } => run_worker_algo(&plan, &mut mesh, &mut control, algo)?,
            Msg::Shutdown => return Ok(()),
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected begin/shutdown, got {other:?}"),
                ))
            }
        }
    }
}

fn loopback_ip(addr: SocketAddr) -> std::net::IpAddr {
    if addr.ip().is_loopback() {
        addr.ip()
    } else {
        match addr {
            SocketAddr::V4(_) => std::net::Ipv4Addr::UNSPECIFIED.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::UNSPECIFIED.into(),
        }
    }
}

/// One algorithm's superstep loop on the socket runtime. Mirrors
/// [`run_local_on`] exactly — the only difference is that batches ride
/// [`Msg::Gather`]/[`Msg::Scatter`] frames instead of a `Vec` swap.
fn run_worker_algo(
    plan: &ClusterPlan,
    mesh: &mut Mesh,
    control: &mut FramedConn,
    algo: ClusterAlgo,
) -> io::Result<()> {
    let me = plan.me;
    let w = plan.machines;
    let mut state = WorkerState::new(plan, algo);
    let mut step = 0u32;
    loop {
        let t0 = std::time::Instant::now();
        let mut sent = 0u64;
        let mut received = 0u64;
        let mut gathers = state.compute_gather(plan);
        let mut incoming: Vec<Vec<ValuePair>> = vec![Vec::new(); w];
        for q in 0..w as u32 {
            let pairs = std::mem::take(&mut gathers[q as usize]);
            if q == me {
                incoming[me as usize] = pairs;
                continue;
            }
            sent += pairs.len() as u64;
            mesh.send_to(q, &Msg::Gather { step, pairs })?;
        }
        for (peer, pairs) in mesh.recv_phase(Phase::Gather, step)? {
            check_pairs(plan, Phase::Gather, peer, &pairs)?;
            received += pairs.len() as u64;
            incoming[peer as usize] = pairs;
        }
        let (mut scatters, active) = state.apply_gather(plan, step, &incoming);
        let mut incoming: Vec<Vec<ValuePair>> = vec![Vec::new(); w];
        for q in 0..w as u32 {
            let pairs = std::mem::take(&mut scatters[q as usize]);
            if q == me {
                incoming[me as usize] = pairs;
                continue;
            }
            sent += pairs.len() as u64;
            mesh.send_to(q, &Msg::Scatter { step, pairs })?;
        }
        for (peer, pairs) in mesh.recv_phase(Phase::Scatter, step)? {
            check_pairs(plan, Phase::Scatter, peer, &pairs)?;
            received += pairs.len() as u64;
            incoming[peer as usize] = pairs;
        }
        state.apply_scatter(plan, &incoming);
        plan.metrics
            .record_superstep(sent, received, t0.elapsed().as_nanos() as u64);
        control.send(&Msg::StepDone { step, active, sent })?;
        let go = match control.recv()? {
            Msg::Continue { step: s, go } if s == step => go,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected continue {step}, got {other:?}"),
                ))
            }
        };
        step += 1;
        if !go {
            break;
        }
    }
    control.send(&Msg::Values {
        pairs: state.values(plan),
    })
}

/// Rejects a peer's batch that names a vertex outside `0..n` or, in the
/// gather phase, one this machine does not master: `apply_gather` and
/// `apply_scatter` index per-vertex state by these ids, so a corrupt or
/// hostile peer must surface as `InvalidData`, not a panic.
fn check_pairs(plan: &ClusterPlan, phase: Phase, peer: u32, pairs: &[ValuePair]) -> io::Result<()> {
    let bad = pairs.iter().find(|&&(v, _)| {
        plan.master
            .get(v as usize)
            .is_none_or(|&m| phase == Phase::Gather && m != plan.me)
    });
    match bad {
        None => Ok(()),
        Some(&(v, _)) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{phase:?} batch from worker {peer} names vertex {v}: out of range \
                 or not mastered by worker {}",
                plan.me
            ),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vebo_graph::Dataset;

    fn ring_with_tail() -> Graph {
        // A 6-cycle, a tail hanging off it, and an isolated vertex —
        // exercises masters, mirrors, and the mask==0 ownership
        // fallback.
        let edges = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 0),
            (2, 6),
            (6, 7),
        ];
        Graph::from_edges(9, &edges, true)
    }

    #[test]
    fn masters_partition_the_vertex_set() {
        let g = Dataset::TwitterLike.build(0.05);
        let placement = GreedyVertexCut.place(&g, 5).unwrap();
        let plans: Vec<ClusterPlan> = (0..5)
            .map(|m| ClusterPlan::build(&g, &placement, m))
            .collect();
        let mut owners = vec![0usize; g.num_vertices()];
        for p in &plans {
            for &v in &p.owned {
                owners[v as usize] += 1;
            }
        }
        assert!(
            owners.iter().all(|&c| c == 1),
            "ownership total and disjoint"
        );
        let shard_arcs: usize = plans.iter().map(|p| p.shard_edges()).sum();
        assert_eq!(shard_arcs, g.num_edges());
    }

    #[test]
    fn local_bfs_and_cc_match_engine_fixpoints() {
        let g = ring_with_tail();
        let n = g.num_vertices();
        for partitioner in Partitioner::ALL {
            for w in [1usize, 2, 3] {
                let bfs = run_local(&g, partitioner, w, ClusterAlgo::Bfs { source: 0 }).unwrap();
                // Hand-checked levels on the ring+tail.
                let want = [0u64, 1, 2, 3, 4, 5, 3, 4, u64::from(UNVISITED)];
                assert_eq!(bfs.values, want, "{partitioner:?} w={w}");
                let cc = run_local(&g, partitioner, w, ClusterAlgo::Cc).unwrap();
                // Min label over directed ancestors ∪ self: the cycle
                // all collapses to 0; the tail inherits 0; vertex 8 is
                // alone.
                let want = [0u64, 0, 0, 0, 0, 0, 0, 0, 8];
                assert_eq!(cc.values, want, "{partitioner:?} w={w}");
                assert_eq!(n, cc.values.len());
            }
        }
    }

    #[test]
    fn local_pagerank_mass_is_conserved_modulo_dangling() {
        let g = Dataset::TwitterLike.build(0.03);
        let out = run_local(
            &g,
            Partitioner::VertexCut,
            3,
            ClusterAlgo::PageRank { iters: 5 },
        )
        .unwrap();
        assert_eq!(out.supersteps, 5);
        let total: f64 = out.values.iter().map(|&b| f64::from_bits(b)).sum();
        // Dangling vertices leak mass, so total <= 1 but stays well
        // above the teleport floor.
        assert!(total > 0.14 && total <= 1.0 + 1e-9, "total {total}");
    }

    #[test]
    fn local_runs_are_deterministic_per_worker_count() {
        let g = Dataset::OrkutLike.build(0.04);
        for algo in [
            ClusterAlgo::PageRank { iters: 4 },
            ClusterAlgo::Bfs { source: 1 },
            ClusterAlgo::Cc,
        ] {
            let a = run_local(&g, Partitioner::VertexCut, 3, algo).unwrap();
            let b = run_local(&g, Partitioner::VertexCut, 3, algo).unwrap();
            assert_eq!(a.digest, b.digest, "{algo:?}");
        }
    }

    #[test]
    fn zero_machines_is_a_typed_error() {
        let g = ring_with_tail();
        assert_eq!(
            run_local(&g, Partitioner::Hash, 0, ClusterAlgo::Cc).unwrap_err(),
            DistributedError::MachineCount { machines: 0 }
        );
    }

    #[test]
    fn partitioner_names_round_trip() {
        for p in Partitioner::ALL {
            assert_eq!(Partitioner::parse(p.name()), Some(p));
        }
        assert_eq!(Partitioner::parse("metis"), None);
    }
}
