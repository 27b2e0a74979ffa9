//! The serving layer behind `vebo-serve`: batched query workloads driven
//! concurrently through one shared [`Executor`] — over a **mutable**
//! graph.
//!
//! Six request kinds model a graph-serving API (the roster lives in
//! [`vebo::REQUEST_SPECS`], the single source of truth the script parser
//! resolves against):
//!
//! * [`Request::PageRankSeed`] — personalized PageRank pushed from one
//!   seed vertex (a fixed number of forward-push rounds);
//! * [`Request::PageRankDelta`] — a whole-graph PageRankDelta sweep
//!   (Table II's PRD) capped at a round count, digesting the rank
//!   vector;
//! * [`Request::Bfs`] — BFS reachability/levels from a seed;
//! * [`Request::Label`] — component-label lookup against labels
//!   maintained incrementally across mutations (the "cheap read" class
//!   of request);
//! * [`Request::AddEdge`] / [`Request::DelEdge`] — edge mutations
//!   against the engine's [`DynamicGraph`].
//!
//! ## The mutable serving loop
//!
//! The engine owns a [`DynamicGraph`] and publishes an immutable
//! [`Arc`]`<ServeState>` (prepared graph + component labels) that query
//! threads clone under a briefly-held read lock — queries **never block
//! on mutations**. Mutations serialize on a separate lock: each one is
//! buffered into the dynamic graph's delta log, component labels are
//! repaired incrementally ([`IncrementalCc`] — exact label propagation
//! on inserts, overlay-aware recompute on deletes), and a new state
//! carrying the delta overlay is published so subsequent queries observe
//! the mutation before any compaction.
//!
//! ## Background compaction
//!
//! Compaction never runs on the mutation path. The engine owns a
//! [`Compactor`] — a dedicated thread that, on request, merge-rebuilds
//! the delta log into a fresh CSR/CSC snapshot, runs the
//! [`DriftTrigger`] placement decision (recompute task bounds on a
//! "reorder", carry the old bounds otherwise), and republishes the
//! serving state. Every `compact_every` buffered ops a mutation
//! *signals* the compactor; in the default **blocking** mode it then
//! waits for the cycle (so compaction scheduling stays exactly as
//! observable as the old inline behavior — what the digest-diffing CI
//! legs rely on), while in background mode
//! ([`ServeEngine::set_compaction_blocking`]`(false)`) it returns
//! immediately and the rebuild proceeds concurrently — the mutation
//! lane's latency becomes independent of graph size. The delta log can
//! be bounded ([`ServeEngine::set_log_capacity`]): a full log refuses
//! mutations with [`ServeError::Busy`] (wire-level BUSY) instead of
//! growing without bound while compaction is behind. Compaction counts,
//! reorders, cycle-latency quantiles, log-depth high-water, stall
//! counts, the published epoch, and the epoch's age in requests are
//! reported through the [`ShardMetricsSink`].
//!
//! Each response is reduced to a 64-bit FNV-1a digest so whole batches
//! can be diffed across executor backends: on the partitioned profiles
//! (Polymer, GraphGrind — the `vebo-serve` default) every float
//! accumulation is destination-owned, so digests on delta-free epochs
//! are **bit-identical** across the sequential and sharded backends and
//! CI fails on any mismatch. (On the Ligra profile, and on dirty epochs
//! — where the overlay routes sparse traversals through the atomic push
//! kernel — float digests may differ in the last ulp between the
//! backends; integer digests, `bfs` and `label`, stay exact
//! everywhere.)
//!
//! Batches run on `concurrency` request threads pulling from a shared
//! cursor; each request's latency is recorded per kind through the
//! [`ShardMetricsSink`] (the kind-tagged counterpart of
//! [`vebo_engine::InstrumentSink::record_request`] — every request goes
//! through exactly one of the two), and the sink's snapshot reports
//! per-shard queue depth, occupancy, steals, and latency quantiles.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;
use vebo::request_spec;
use vebo_algorithms::bfs::{bfs, levels_from_parents};
use vebo_algorithms::cc::cc;
use vebo_algorithms::pagerank_delta::{pagerank_delta, PageRankDeltaConfig};
use vebo_algorithms::IncrementalCc;
use vebo_core::{edge_counts_for_starts, DriftTrigger};
use vebo_engine::shared::{atomic_f64_vec, snapshot_f64, AtomicF64};
use vebo_engine::{
    EdgeOp, Executor, Frontier, PreparedGraph, ShardMetrics, ShardMetricsSink, SystemProfile,
};
use vebo_graph::graph::mix64;
use vebo_graph::{Compactor, DynamicGraph, Graph, GraphError, VertexId};

/// One serving request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Request {
    /// Personalized PageRank pushed from `seed`.
    PageRankSeed {
        /// Seed vertex (taken modulo the vertex count).
        seed: VertexId,
    },
    /// A whole-graph PageRankDelta sweep capped at `rounds` rounds.
    PageRankDelta {
        /// Maximum delta-propagation rounds (at least 1).
        rounds: u32,
    },
    /// BFS levels from `seed`.
    Bfs {
        /// Source vertex (taken modulo the vertex count).
        seed: VertexId,
    },
    /// Component-label lookup for `v`.
    Label {
        /// Queried vertex (taken modulo the vertex count).
        v: VertexId,
    },
    /// Insert edge `(u, v)` into the dynamic graph.
    AddEdge {
        /// Source endpoint (taken modulo the vertex count).
        u: VertexId,
        /// Destination endpoint (taken modulo the vertex count).
        v: VertexId,
    },
    /// Delete edge `(u, v)` from the dynamic graph.
    DelEdge {
        /// Source endpoint (taken modulo the vertex count).
        u: VertexId,
        /// Destination endpoint (taken modulo the vertex count).
        v: VertexId,
    },
}

impl Request {
    /// Short kind code used in scripts and output — the
    /// [`vebo::RequestSpec::code`] of this request's roster entry.
    pub fn code(&self) -> &'static str {
        match self {
            Request::PageRankSeed { .. } => "pr",
            Request::PageRankDelta { .. } => "prd",
            Request::Bfs { .. } => "bfs",
            Request::Label { .. } => "label",
            Request::AddEdge { .. } => "add",
            Request::DelEdge { .. } => "del",
        }
    }

    /// Whether handling this request mutates the dynamic graph, per the
    /// [`vebo::REQUEST_SPECS`] roster.
    pub fn mutates(&self) -> bool {
        request_spec(self.code())
            .expect("every request code is in the roster")
            .mutates
    }

    /// The integer arguments, in roster order (unused slots zero).
    fn args(&self) -> [VertexId; 2] {
        match *self {
            Request::PageRankSeed { seed } => [seed, 0],
            Request::PageRankDelta { rounds } => [rounds, 0],
            Request::Bfs { seed } => [seed, 0],
            Request::Label { v } => [v, 0],
            Request::AddEdge { u, v } => [u, v],
            Request::DelEdge { u, v } => [u, v],
        }
    }

    /// Renders the request as one script/wire line (`"pr 3"`,
    /// `"add 1 2"`) — the inverse of [`parse_request_line`], so network
    /// clients and script writers share one grammar.
    pub fn to_line(&self) -> String {
        let spec = request_spec(self.code()).expect("every request code is in the roster");
        let args = self.args();
        let mut out = String::from(spec.code);
        for a in &args[..spec.arity()] {
            out.push(' ');
            out.push_str(&a.to_string());
        }
        out
    }

    /// Builds the request a parsed `(spec, args)` pair denotes — the one
    /// place the roster maps onto this enum, shared by the script parser
    /// and the network protocol decoder.
    fn from_spec_args(spec: &vebo::RequestSpec, args: [VertexId; 2]) -> Request {
        match spec.code {
            "pr" => Request::PageRankSeed { seed: args[0] },
            "prd" => Request::PageRankDelta { rounds: args[0] },
            "bfs" => Request::Bfs { seed: args[0] },
            "label" => Request::Label { v: args[0] },
            "add" => Request::AddEdge {
                u: args[0],
                v: args[1],
            },
            "del" => Request::DelEdge {
                u: args[0],
                v: args[1],
            },
            other => unreachable!("roster and Request enum out of sync: {other}"),
        }
    }

    /// The canonical form two requests must share to be answered by one
    /// execution on an `n`-vertex graph: vertex arguments reduced modulo
    /// `n` (exactly what [`ServeEngine::handle`] does before executing)
    /// and degenerate round counts clamped. Used by the coalescing
    /// batch path to detect duplicates.
    pub fn canonical(&self, n: u32) -> Request {
        let n = n.max(1);
        match *self {
            Request::PageRankSeed { seed } => Request::PageRankSeed { seed: seed % n },
            Request::PageRankDelta { rounds } => Request::PageRankDelta {
                rounds: rounds.max(1),
            },
            Request::Bfs { seed } => Request::Bfs { seed: seed % n },
            Request::Label { v } => Request::Label { v: v % n },
            Request::AddEdge { u, v } => Request::AddEdge { u: u % n, v: v % n },
            Request::DelEdge { u, v } => Request::DelEdge { u: u % n, v: v % n },
        }
    }
}

/// One handled request.
#[derive(Clone, Copy, Debug)]
pub struct Response {
    /// FNV-1a digest of the canonical result.
    pub digest: u64,
    /// Wall-clock latency of the request in nanoseconds.
    pub nanos: u64,
}

/// Result of one [`ServeEngine::run_batch`].
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// One slot per request, in request order. `None` marks requests a
    /// graceful drain ([`ServeEngine::run_batch_until`]) skipped; a full
    /// run is all `Some`.
    pub responses: Vec<Option<Response>>,
    /// Snapshot of the engine's shard/latency metrics as of the end of
    /// this batch — cumulative over every request served by the engine
    /// so far (startup precomputation is never counted).
    pub metrics: ShardMetrics,
    /// Batch wall-clock seconds.
    pub wall_seconds: f64,
}

impl BatchReport {
    /// Number of requests that actually completed.
    pub fn completed(&self) -> usize {
        self.responses.iter().flatten().count()
    }

    /// Order-sensitive digest over all completed response digests — one
    /// number to diff across executor backends.
    pub fn combined_digest(&self) -> u64 {
        digest_u64s(self.responses.iter().flatten().map(|r| r.digest))
    }
}

/// Order-sensitive FNV-1a digest over a `u64` stream — the digest every
/// response reduces to, exported so network clients can recompute the
/// combined batch digest the in-process harness prints. Re-exported from
/// [`vebo_graph::digest`], where the cluster runtime shares it.
pub use vebo_graph::digest_u64s;

/// Forward-push personalized-PageRank operator: `acc[dst] += contrib[src]`.
struct PushOp<'a> {
    contrib: &'a [AtomicF64],
    acc: &'a [AtomicF64],
}

impl EdgeOp for PushOp<'_> {
    fn update(&self, src: VertexId, dst: VertexId, _w: f32) -> bool {
        let a = &self.acc[dst as usize];
        a.store(a.load() + self.contrib[src as usize].load());
        true
    }
    fn update_atomic(&self, src: VertexId, dst: VertexId, _w: f32) -> bool {
        self.acc[dst as usize].fetch_add(self.contrib[src as usize].load());
        true
    }
}

/// What query threads read: one epoch's prepared graph (snapshot +
/// possibly a delta overlay) and the component labels current as of that
/// epoch. Immutable once published; swapped wholesale behind an `Arc`.
struct ServeState {
    pg: PreparedGraph,
    labels: Vec<u32>,
}

/// Mutation-path state, serialized under one lock so mutations apply in
/// a total order: the incremental component-label maintainer. The
/// compaction thread also takes this lock — only around its O(1)
/// publication step, never around the rebuild.
struct MutationState {
    cc: IncrementalCc,
}

/// Placement-drift state, consulted and rebased on the compaction
/// thread only (and when reconfiguring the policy).
struct PlacementState {
    trigger: DriftTrigger,
}

/// Why a request was refused instead of answered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The mutation lane is backpressured: the bounded delta log is full
    /// until the background compaction catches up. Surfaced on the wire
    /// as the BUSY reply (same admission-control seam as queue-depth
    /// rejection); the request had no effect and can be retried.
    Busy {
        /// Mutations buffered when the request was refused.
        pending: usize,
    },
    /// The request can never be served by this engine (e.g. a mutation
    /// against a weighted snapshot, or an out-of-range endpoint).
    /// Surfaced on the wire as an `err` reply.
    Rejected(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Busy { pending } => {
                write!(f, "busy: delta log full ({pending} pending mutations)")
            }
            ServeError::Rejected(msg) => write!(f, "rejected: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Everything the request threads and the background compaction thread
/// share: the dynamic graph, the executor, the published per-epoch
/// serving state, and the metrics sink. [`ServeEngine`] wraps this in an
/// `Arc` so the compactor's job closure can own a handle to it.
struct EngineCore {
    exec: Executor,
    profile: SystemProfile,
    graph: DynamicGraph,
    state: RwLock<Arc<ServeState>>,
    mutation: Mutex<MutationState>,
    placement: Mutex<PlacementState>,
    metrics: Arc<ShardMetricsSink>,
    ppr_rounds: AtomicUsize,
    compact_every: AtomicUsize,
}

/// A dynamic graph plus the executor and published per-epoch state every
/// request handler shares, with a dedicated background compaction
/// thread. Cheap to share across request threads (`&self` everywhere);
/// the executor's sharded pool, when selected, is likewise shared.
/// Queries clone the published state `Arc` under a briefly-held read
/// lock and run entirely against that pinned epoch, so they never block
/// on (or observe a half-applied) mutation — and mutations never run a
/// CSR rebuild inline: they append to the delta log, signal the
/// [`Compactor`], and return (see the [module docs](self)).
pub struct ServeEngine {
    core: Arc<EngineCore>,
    compactor: Compactor,
    /// Whether a mutation that trips the `compact_every` threshold waits
    /// for the signalled cycle to complete (deterministic scheduling)
    /// or returns immediately (background mode).
    blocking_compaction: bool,
}

/// Default mutation count between compactions.
pub const DEFAULT_COMPACT_EVERY: usize = 8;
/// Default relative per-partition edge-count drift that triggers a
/// placement recompute at compaction time.
pub const DEFAULT_DRIFT_THRESHOLD: f64 = 0.25;

impl ServeEngine {
    /// Wraps `g` in a [`DynamicGraph`], prepares its initial snapshot
    /// for `profile`, attaches a [`ShardMetricsSink`] to `exec`, and
    /// precomputes the component labels served by [`Request::Label`]
    /// (maintained incrementally from then on). Compaction policy starts
    /// at [`DEFAULT_COMPACT_EVERY`] / [`DEFAULT_DRIFT_THRESHOLD`]; see
    /// [`ServeEngine::configure_compaction`].
    pub fn new(g: Graph, profile: SystemProfile, exec: Executor) -> ServeEngine {
        let pg = PreparedGraph::new(g.clone(), profile);
        let graph = DynamicGraph::new(g);
        // Precompute before attaching the metrics sink, so the serving
        // metrics only ever describe served requests, not startup work.
        let (labels, _) = cc(&exec, &pg);
        let baseline = edge_counts_for_starts(pg.graph(), pg.tasks().starts());
        let mutation = Mutex::new(MutationState {
            cc: IncrementalCc::new(labels.clone()),
        });
        let placement = Mutex::new(PlacementState {
            trigger: DriftTrigger::new(DEFAULT_DRIFT_THRESHOLD, baseline),
        });
        let metrics = Arc::new(ShardMetricsSink::new());
        let exec = exec.with_sink(metrics.clone());
        let core = Arc::new(EngineCore {
            exec,
            profile,
            graph,
            state: RwLock::new(Arc::new(ServeState { pg, labels })),
            mutation,
            placement,
            metrics,
            ppr_rounds: AtomicUsize::new(10),
            compact_every: AtomicUsize::new(DEFAULT_COMPACT_EVERY),
        });
        let worker = Arc::clone(&core);
        let compactor = Compactor::spawn(move || worker.compaction_cycle());
        ServeEngine {
            core,
            compactor,
            blocking_compaction: true,
        }
    }

    /// Sets the compaction policy: merge the delta log every `every`
    /// buffered mutations, and recompute partition placement when the
    /// per-partition edge-count drift reaches `drift_threshold`.
    pub fn configure_compaction(&mut self, every: usize, drift_threshold: f64) {
        assert!(every >= 1, "compaction period must be at least 1");
        self.core.compact_every.store(every, Ordering::Relaxed);
        let mut pl = self.core.placement.lock().unwrap();
        pl.trigger = DriftTrigger::new(drift_threshold, pl.trigger.baseline().to_vec());
    }

    /// Sets how many forward-push rounds each PageRank-from-seed request
    /// runs (default 10).
    pub fn set_ppr_rounds(&mut self, rounds: usize) {
        self.core.ppr_rounds.store(rounds, Ordering::Relaxed);
    }

    /// Selects whether a mutation that trips the `compact_every`
    /// threshold blocks on the signalled compaction cycle (`true`, the
    /// default — compaction scheduling stays deterministic at request
    /// concurrency 1, which the cross-backend digest diffs rely on) or
    /// returns immediately while the cycle runs in the background
    /// (`false` — the serving daemon's mode, where mutation latency must
    /// stay independent of graph size). The rebuild itself runs on the
    /// compaction thread either way.
    pub fn set_compaction_blocking(&mut self, blocking: bool) {
        self.blocking_compaction = blocking;
    }

    /// Bounds the dynamic graph's delta log: once `capacity` mutations
    /// are buffered, further ones answer [`ServeError::Busy`] until a
    /// compaction drains the log (see the [module docs](self)).
    pub fn set_log_capacity(&mut self, capacity: usize) {
        self.core.graph.set_log_capacity(capacity);
    }

    /// The prepared graph of the currently published epoch. A cheap
    /// clone: layouts are shared behind an `Arc`.
    pub fn prepared(&self) -> PreparedGraph {
        self.core.state.read().unwrap().pg.clone()
    }

    /// The dynamic graph behind the engine.
    pub fn dynamic(&self) -> &DynamicGraph {
        &self.core.graph
    }

    /// The executor requests run through.
    pub fn executor(&self) -> &Executor {
        &self.core.exec
    }

    /// A snapshot of the shard/latency metrics accumulated so far.
    pub fn metrics(&self) -> ShardMetrics {
        self.core.metrics.snapshot()
    }

    /// The metrics sink itself — serving frontends (the `serve-net` TCP
    /// server) record admission decisions and queue depths into the same
    /// sink the engine feeds, so one snapshot correlates frontend
    /// backpressure with shard occupancy and latency.
    pub fn sink(&self) -> &Arc<ShardMetricsSink> {
        &self.core.metrics
    }

    /// Forces a full compaction cycle (merging any buffered mutations
    /// into a fresh snapshot and republishing the serving state) and
    /// waits for it, regardless of the `compact_every` threshold. The
    /// cycle still runs on the compaction thread. No-op on a clean
    /// engine.
    pub fn compact_now(&self) {
        self.compactor.request_and_wait();
    }

    /// Blocks until every signalled compaction cycle has completed — the
    /// graceful-shutdown path: daemons drain the compactor before
    /// printing final metrics, so the log is as compact as requested and
    /// no cycle is torn mid-publication.
    pub fn drain_compaction(&self) {
        self.compactor.drain();
    }

    /// Handles one request, recording its latency (aggregate and
    /// per-kind); the fallible version is [`ServeEngine::try_handle`].
    ///
    /// Panics if the request is refused (full bounded log, weighted
    /// snapshot) — callers that serve untrusted traffic or configure
    /// backpressure must use `try_handle` and map the error to a wire
    /// reply.
    pub fn handle(&self, req: &Request) -> Response {
        match self.try_handle(req) {
            Ok(resp) => resp,
            Err(e) => panic!("request '{}' refused: {e}", req.to_line()),
        }
    }

    /// Handles one request: queries run lock-free against the pinned
    /// published epoch; mutations append to the delta log, repair
    /// labels, publish the dirty state, and — every `compact_every`
    /// buffered ops — signal the background compactor (waiting for the
    /// cycle only in blocking mode). Refusals come back as
    /// [`ServeError`]: `Busy` when the bounded delta log is full
    /// (the compactor is nudged so the backlog drains), `Rejected` when
    /// the engine can never apply the mutation. Latency is recorded
    /// (aggregate and per-kind) for answered requests only.
    pub fn try_handle(&self, req: &Request) -> Result<Response, ServeError> {
        let t0 = Instant::now();
        let n = self.core.graph.num_vertices().max(1) as u32;
        let digest = match *req {
            Request::AddEdge { u, v } => self.mutate(true, u % n, v % n)?,
            Request::DelEdge { u, v } => self.mutate(false, u % n, v % n)?,
            _ => {
                let state = self.core.state.read().unwrap().clone();
                self.core.query_digest(&state, req)
            }
        };
        let nanos = t0.elapsed().as_nanos() as u64;
        self.core.metrics.record_request_kind(req.code(), nanos);
        Ok(Response { digest, nanos })
    }

    /// The mutation lane: apply through the core (no rebuild inline),
    /// then signal the compactor when the log reached the threshold — or
    /// nudge it and bubble BUSY when the log is full.
    fn mutate(&self, insert: bool, u: VertexId, v: VertexId) -> Result<u64, ServeError> {
        match self.core.apply_mutation(insert, u, v) {
            Ok((digest, compact)) => {
                if compact {
                    let ticket = self.compactor.request();
                    if self.blocking_compaction {
                        self.compactor.wait(ticket);
                    }
                }
                Ok(digest)
            }
            Err(e) => {
                if matches!(e, ServeError::Busy { .. }) {
                    // Make sure a cycle is scheduled to drain the
                    // backlog the client is being pushed back over.
                    self.compactor.request();
                }
                Err(e)
            }
        }
    }

    /// The micro-batching seam: serves a batch of **query** requests
    /// against one pinned epoch, coalescing compatible requests — same
    /// algorithm, same (canonicalized) arguments, same epoch — into a
    /// single execution whose digest fans out to every rider. Digests
    /// are bit-identical to handling each request individually (the
    /// execution path is `ServeEngine::query_digest` either way, and
    /// the shared epoch is exactly what sequential handling would have
    /// pinned when no mutation interleaves). Batches containing a
    /// mutation fall back to in-order [`ServeEngine::handle`] calls —
    /// mutations serialize on the mutation lock and are never coalesced.
    ///
    /// Every request's latency is recorded per kind, and the batch's
    /// size/execution counts land in the [`ShardMetrics`] batching
    /// counters (`batches`, `batched_requests`, `batch_executions`).
    ///
    /// Like [`ServeEngine::handle`], the mutation fallback panics on a
    /// refused mutation — frontends route mutations through
    /// [`ServeEngine::try_handle`] individually and only coalesce
    /// queries.
    pub fn run_coalesced(&self, requests: &[Request]) -> Vec<Response> {
        if requests.is_empty() {
            return Vec::new();
        }
        if requests.iter().any(|r| r.mutates()) {
            return requests.iter().map(|r| self.handle(r)).collect();
        }
        let n = self.core.graph.num_vertices().max(1) as u32;
        let state = self.core.state.read().unwrap().clone();
        // Group by canonical form, preserving first-seen order so the
        // executions themselves happen in request order.
        let mut unique: Vec<Request> = Vec::new();
        let mut slot_of: HashMap<Request, usize> = HashMap::new();
        let slots: Vec<usize> = requests
            .iter()
            .map(|req| {
                let c = req.canonical(n);
                *slot_of.entry(c).or_insert_with(|| {
                    unique.push(c);
                    unique.len() - 1
                })
            })
            .collect();
        let executed: Vec<Response> = unique
            .iter()
            .map(|req| {
                let t0 = Instant::now();
                let digest = self.core.query_digest(&state, req);
                Response {
                    digest,
                    nanos: t0.elapsed().as_nanos() as u64,
                }
            })
            .collect();
        self.core
            .metrics
            .record_batch(requests.len() as u64, unique.len() as u64);
        slots
            .iter()
            .zip(requests)
            .map(|(&slot, req)| {
                let r = executed[slot];
                self.core.metrics.record_request_kind(req.code(), r.nanos);
                r
            })
            .collect()
    }

    /// Runs `requests` on `concurrency` request threads sharing this
    /// engine (and its sharded worker pool, when selected). Responses
    /// land in request order regardless of completion order. Mutations
    /// in the batch serialize on the mutation lock; queries proceed
    /// against their pinned epoch concurrently with them.
    pub fn run_batch(&self, requests: &[Request], concurrency: usize) -> BatchReport {
        self.run_batch_until(requests, concurrency, None)
    }

    /// [`ServeEngine::run_batch`] with a cooperative stop flag: once
    /// `stop` reads `true`, workers finish the request they are on
    /// (in-flight work drains, nothing is torn mid-request) but claim no
    /// more — the graceful-shutdown path `vebo-serve` takes on SIGINT.
    /// Unclaimed requests stay `None` in the report, as do requests the
    /// engine refused (BUSY under a bounded delta log — the refusal is
    /// already counted in the log-stall metrics).
    pub fn run_batch_until(
        &self,
        requests: &[Request],
        concurrency: usize,
        stop: Option<&AtomicBool>,
    ) -> BatchReport {
        let t0 = Instant::now();
        let cursor = AtomicUsize::new(0);
        let responses: Mutex<Vec<Option<Response>>> = Mutex::new(vec![None; requests.len()]);
        let workers = concurrency.max(1).min(requests.len().max(1));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= requests.len() {
                        break;
                    }
                    if let Ok(r) = self.try_handle(&requests[i]) {
                        responses.lock().unwrap()[i] = Some(r);
                    }
                });
            }
        });
        BatchReport {
            responses: responses.into_inner().unwrap(),
            metrics: self.core.metrics.snapshot(),
            wall_seconds: t0.elapsed().as_secs_f64(),
        }
    }
}

impl EngineCore {
    /// Computes a query's digest against one pinned serving state — the
    /// exact execution path [`ServeEngine::handle`] takes, factored out
    /// so the coalescing batch path produces bit-identical digests.
    /// Panics on mutation requests (those never share a pinned state).
    fn query_digest(&self, state: &ServeState, req: &Request) -> u64 {
        let n = self.graph.num_vertices().max(1) as u32;
        match *req {
            Request::PageRankSeed { seed } => self.ppr_digest(state, seed % n),
            Request::PageRankDelta { rounds } => self.prd_digest(state, rounds),
            Request::Bfs { seed } => self.bfs_digest(state, seed % n),
            Request::Label { v } => digest_u64s([state.labels[(v % n) as usize] as u64]),
            Request::AddEdge { .. } | Request::DelEdge { .. } => {
                unreachable!("mutations are never coalesced")
            }
        }
    }

    /// The mutation path: buffer the op (refusing it typed when the
    /// bounded log is full or the snapshot is weighted), repair (insert)
    /// or recompute (delete) component labels, and publish a dirty epoch
    /// carrying the delta overlay. **No CSR rebuild happens here** —
    /// the returned flag tells the caller the log reached the
    /// `compact_every` threshold and the compactor should be signalled.
    /// Serialized on the mutation lock; the state write lock is only
    /// held for the `Arc` swap, so concurrent queries keep reading their
    /// pinned epoch throughout.
    fn apply_mutation(
        &self,
        insert: bool,
        u: VertexId,
        v: VertexId,
    ) -> Result<(u64, bool), ServeError> {
        let mut mu = self.mutation.lock().unwrap();
        let buffered = if insert {
            self.graph.insert_edge(u, v)
        } else {
            self.graph.delete_edge(u, v)
        };
        match buffered {
            Ok(()) => {}
            Err(GraphError::DeltaLogFull { pending, .. }) => {
                self.metrics.record_log_stall(pending as u64);
                return Err(ServeError::Busy { pending });
            }
            Err(e) => return Err(ServeError::Rejected(e.to_string())),
        }
        let pending = self.graph.pending_len();
        self.metrics.record_log_depth(pending as u64);
        let pin = self.graph.pin();
        let base = self.state.read().unwrap().pg.clone();
        let pg = base.with_overlay(Some(pin.overlay().clone()), pin.epoch());
        if insert {
            mu.cc.on_insert(pin.graph(), Some(pin.overlay()), u, v);
        } else {
            // A delete can split a component, which label lowering
            // cannot express: recompute on the overlay-aware handle.
            mu.cc.recompute(&self.exec, &pg);
        }
        let labels = mu.cc.labels().to_vec();
        *self.state.write().unwrap() = Arc::new(ServeState { pg, labels });
        let digest = digest_u64s([if insert { 1 } else { 2 }, u as u64, v as u64]);
        Ok((
            digest,
            pending >= self.compact_every.load(Ordering::Relaxed),
        ))
    }

    /// One compaction cycle, run on the [`Compactor`] thread only —
    /// never the mutation or query path. Phases:
    ///
    /// 1. **Prepare** (compaction gate held, no other lock): the delta
    ///    log is merge-rebuilt into a fresh CSR/CSC snapshot.
    /// 2. **Placement** (placement lock): the [`DriftTrigger`] compares
    ///    per-partition edge counts on the post-merge snapshot against
    ///    its baseline — past the threshold the placement is recomputed
    ///    from scratch (a "reorder"); otherwise the previous task bounds
    ///    carry over and only the layouts rebuild.
    /// 3. **Publish** (mutation lock, O(1) work): the snapshot commits
    ///    via the `Arc` swap, a fresh pin picks up any mutations that
    ///    arrived during the rebuild (they stay buffered as the new
    ///    epoch's overlay), and the serving state republishes. Taking
    ///    the mutation lock here keeps publication atomic with respect
    ///    to concurrent `apply_mutation` calls — their pin and state
    ///    base can never straddle the swap.
    fn compaction_cycle(&self) {
        let t0 = Instant::now();
        let pending = self.graph.compact_prepare();
        let cur = self.state.read().unwrap().clone();
        if pending.applied() == 0 && cur.pg.overlay().is_none() {
            return;
        }
        let snapshot = Arc::clone(pending.snapshot());
        let counts = edge_counts_for_starts(&snapshot, cur.pg.tasks().starts());
        let (pg, reorder) = {
            let mut pl = self.placement.lock().unwrap();
            let reorder = pl.trigger.should_reorder(&counts);
            let pg = if reorder {
                PreparedGraph::new((*snapshot).clone(), self.profile)
            } else {
                PreparedGraph::builder((*snapshot).clone())
                    .profile(self.profile)
                    .bounds(cur.pg.tasks().clone())
                    .build()
                    .expect("carried-over bounds span the same vertex range")
            };
            pl.trigger
                .rebase(edge_counts_for_starts(pg.graph(), pg.tasks().starts()));
            (pg, reorder)
        };
        let mu = self.mutation.lock().unwrap();
        let stats = pending.commit();
        // Mutations that raced the rebuild stay buffered: republish them
        // as the new epoch's overlay so no applied mutation disappears
        // from the served view.
        let pin = self.graph.pin();
        let pg = if pin.is_dirty() {
            pg.with_overlay(Some(pin.overlay().clone()), pin.epoch())
        } else {
            pg.with_overlay(None, stats.epoch)
        };
        let labels = mu.cc.labels().to_vec();
        self.metrics
            .record_compaction(stats.epoch, reorder, t0.elapsed().as_nanos() as u64);
        *self.state.write().unwrap() = Arc::new(ServeState { pg, labels });
    }

    /// Personalized PageRank from `seed`: `ppr_rounds` forward-push
    /// rounds of `x_{k+1} = d · Aᵀ x_k` with `p += (1 − d) · x_k`,
    /// starting from `x_0 = e_seed`. The digest covers the bit patterns
    /// of every nonzero score.
    ///
    /// Per-round work is frontier-scoped: contributions are staged over
    /// the active set only (every traversal kernel gates reads by
    /// frontier membership, so stale `contrib`/`x` entries on inactive
    /// vertices are never observed), and the accumulated mass is folded
    /// back — and the accumulator re-zeroed — over just the vertices
    /// the push touched. A request on a small neighborhood therefore
    /// costs O(touched), not O(n · rounds).
    ///
    /// Degrees go through the prepared handle, which is overlay-aware:
    /// on a dirty epoch the push divisor matches the merged adjacency
    /// the edge map traverses.
    fn ppr_digest(&self, state: &ServeState, seed: VertexId) -> u64 {
        const DAMPING: f64 = 0.85;
        let pg = &state.pg;
        let n = pg.graph().num_vertices();
        let p = atomic_f64_vec(n, 0.0);
        let x = atomic_f64_vec(n, 0.0);
        let acc = atomic_f64_vec(n, 0.0);
        let contrib = atomic_f64_vec(n, 0.0);
        x[seed as usize].store(1.0);
        let mut frontier = Frontier::single(n, seed);
        for _ in 0..self.ppr_rounds.load(Ordering::Relaxed) {
            if frontier.is_empty() {
                break;
            }
            // Stage this round's contributions over the active set;
            // absorb (1 - d) into the scores as the mass leaves.
            self.exec.vertex_map(pg, &frontier, |v| {
                let i = v as usize;
                let xi = x[i].load();
                let d = pg.out_degree(v);
                contrib[i].store(if d > 0 { DAMPING * xi / d as f64 } else { 0.0 });
                p[i].store(p[i].load() + (1.0 - DAMPING) * xi);
                true
            });
            let op = PushOp {
                contrib: &contrib,
                acc: &acc,
            };
            let (touched, _) = self.exec.edge_map(pg, &frontier, &op);
            // The accumulated mass becomes the next x and the
            // accumulator is re-zeroed, both over the touched set only;
            // tiny residues leave the frontier so request cost stays
            // bounded.
            let (next, _) = self.exec.vertex_map(pg, &touched, |v| {
                let i = v as usize;
                let nx = acc[i].load();
                x[i].store(nx);
                acc[i].store(0.0);
                nx > 1e-12
            });
            frontier = next;
        }
        digest_u64s(
            snapshot_f64(&p)
                .into_iter()
                .enumerate()
                .filter(|&(_, s)| s != 0.0)
                .flat_map(|(v, s)| [v as u64, s.to_bits()]),
        )
    }

    /// PageRankDelta over the whole pinned epoch, digested over the bit
    /// patterns of the final rank vector.
    fn prd_digest(&self, state: &ServeState, rounds: u32) -> u64 {
        let cfg = PageRankDeltaConfig {
            max_iterations: rounds.max(1) as usize,
            ..Default::default()
        };
        let (ranks, _) = pagerank_delta(&self.exec, &state.pg, &cfg);
        digest_u64s(ranks.into_iter().map(f64::to_bits))
    }

    /// BFS from `seed`, digested over the (deterministic) level array —
    /// parent choice is a legitimate tie-break, levels are not.
    fn bfs_digest(&self, state: &ServeState, seed: VertexId) -> u64 {
        let (parents, _) = bfs(&self.exec, &state.pg, seed);
        let levels = levels_from_parents(&parents, seed);
        digest_u64s(levels.into_iter().map(u64::from))
    }
}

/// Parses one request line against the [`vebo::REQUEST_SPECS`] roster —
/// the grammar is exactly [`vebo::request_grammar`]. Returns `Ok(None)`
/// for blank lines and `#` comments. This is the **single** request
/// decoder: the script parser ([`parse_script`]) and the `serve-net`
/// wire protocol both route through it, so the network protocol, the
/// script format, and the usage text cannot drift apart.
pub fn parse_request_line(line: &str) -> Result<Option<Request>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let kind = parts.next().unwrap();
    let spec = request_spec(kind).ok_or_else(|| format!("unknown request '{kind}'"))?;
    let mut args = [0 as VertexId; 2];
    for slot in args.iter_mut().take(spec.arity()) {
        *slot = parts
            .next()
            .ok_or_else(|| format!("'{}' takes {} argument(s)", spec.code, spec.arity()))?
            .parse()
            .map_err(|_| "bad vertex id".to_string())?;
    }
    if parts.next().is_some() {
        return Err("trailing tokens".to_string());
    }
    Ok(Some(Request::from_spec_args(spec, args)))
}

/// Parses a request script: one request per line via
/// [`parse_request_line`] (blank lines and `#` comments ignored), with
/// 1-based line numbers on errors.
pub fn parse_script(text: &str) -> Result<Vec<Request>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        match parse_request_line(line) {
            Ok(Some(req)) => out.push(req),
            Ok(None) => {}
            Err(e) => return Err(format!("line {}: {e}", lineno + 1)),
        }
    }
    Ok(out)
}

/// Renders the serving-side metric lines shared by `vebo-serve` and the
/// `serve-net` daemon: overall and per-request-kind latency quantiles
/// (p50/p95/p99/max), the micro-batching counters, admission-control
/// counters (when a frontend recorded any), and the dynamic-graph
/// compaction/epoch line.
pub fn metrics_summary(m: &ShardMetrics) -> String {
    let fmt_ns = |ns: Option<u64>| {
        ns.map(|ns| format!("{:.2}ms", ns as f64 / 1e6))
            .unwrap_or_else(|| "-".to_string())
    };
    let mut out = format!(
        "latency p50 {} | p95 {} | p99 {} | max {}\n",
        fmt_ns(m.latency_quantile(0.50)),
        fmt_ns(m.latency_quantile(0.95)),
        fmt_ns(m.latency_quantile(0.99)),
        fmt_ns(m.latency_quantile(1.0)),
    );
    for k in &m.kinds {
        out.push_str(&format!(
            "latency[{:<5}] n={:<6} p50 {} | p95 {} | p99 {}\n",
            k.code,
            k.nanos.len(),
            fmt_ns(m.kind_quantile(k.code, 0.50)),
            fmt_ns(m.kind_quantile(k.code, 0.95)),
            fmt_ns(m.kind_quantile(k.code, 0.99)),
        ));
    }
    if m.batches > 0 {
        out.push_str(&format!(
            "batches={} batched-requests={} executions={} coalesced={}\n",
            m.batches,
            m.batched_requests,
            m.batch_executions,
            m.batched_requests - m.batch_executions,
        ));
    }
    if m.queue_depth_samples > 0 {
        out.push_str(&format!(
            "admitted={} rejected-busy={} queue-depth mean={:.1} max={}\n",
            m.admitted,
            m.rejected,
            m.mean_admission_depth(),
            m.queue_depth_max,
        ));
    }
    out.push_str(&format!(
        "compactions={} reorders={} epoch={} epoch-age={}\n",
        m.compactions, m.reorders, m.epoch, m.epoch_age,
    ));
    if m.compactions > 0 || m.log_stalls > 0 {
        out.push_str(&format!(
            "compaction p50 {} | p99 {} | max {} log-depth-max={} log-stalls={}\n",
            fmt_ns(m.compaction_quantile(0.50)),
            fmt_ns(m.compaction_quantile(0.99)),
            fmt_ns(m.compaction_quantile(1.0)),
            m.log_depth_max,
            m.log_stalls,
        ));
    }
    if m.supersteps > 0 {
        out.push_str(&format!(
            "supersteps={} sync-sent={} sync-received={} superstep p50 {} | p99 {} | max {}\n",
            m.supersteps,
            m.sync_values_sent,
            m.sync_values_received,
            fmt_ns(m.superstep_quantile(0.50)),
            fmt_ns(m.superstep_quantile(0.99)),
            fmt_ns(m.superstep_quantile(1.0)),
        ));
    }
    out
}

/// Deterministically generates a mixed workload of `count` requests:
/// cheap label lookups dominate, with a mutation share (~15% adds and
/// deletes) and an occasional whole-graph PRD sweep, as in a real
/// serving mix.
pub fn generate_requests(count: usize, seed: u64) -> Vec<Request> {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state = mix64(state);
        state
    };
    (0..count)
        .map(|_| {
            let v = (next() >> 32) as VertexId;
            let u = (next() >> 32) as VertexId;
            match next() % 20 {
                0..=1 => Request::PageRankSeed { seed: v },
                2 => Request::PageRankDelta {
                    rounds: 2 + (u % 4),
                },
                3..=6 => Request::Bfs { seed: v },
                7..=8 => Request::AddEdge { u, v },
                9 => Request::DelEdge { u, v },
                _ => Request::Label { v },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vebo_engine::ExecMode;
    use vebo_graph::Dataset;

    fn engine(mode: ExecMode) -> ServeEngine {
        let g = Dataset::YahooLike.build(0.03);
        let profile = SystemProfile::polymer_like();
        ServeEngine::new(g, profile, Executor::new(profile).with_mode(mode))
    }

    #[test]
    fn metrics_summary_renders_dashes_for_empty_series() {
        // A mutation-only served run reaches the summary with empty
        // latency/compaction series: each empty quantile renders `-`,
        // and the superstep block only appears once a cluster ran.
        let sink = ShardMetricsSink::new();
        sink.record_log_stall(2);
        let s = metrics_summary(&sink.snapshot());
        assert!(
            s.starts_with("latency p50 - | p95 - | p99 - | max -\n"),
            "{s}"
        );
        assert!(
            s.contains("compaction p50 - | p99 - | max - log-depth-max=2 log-stalls=1"),
            "{s}"
        );
        assert!(!s.contains("supersteps="), "{s}");
        sink.record_superstep(4, 4, 2_000_000);
        let s = metrics_summary(&sink.snapshot());
        assert!(
            s.contains("supersteps=1 sync-sent=4 sync-received=4"),
            "{s}"
        );
        assert!(s.contains("superstep p50 2.00ms"), "{s}");
    }

    #[test]
    fn mutation_only_runs_leave_query_kind_quantiles_empty() {
        let e = engine(ExecMode::Sequential);
        let reqs = vec![
            Request::AddEdge { u: 1, v: 2 },
            Request::DelEdge { u: 1, v: 2 },
        ];
        e.run_batch(&reqs, 1);
        let m = e.metrics();
        assert!(m.kind_quantile("add", 0.5).is_some());
        for code in ["pr", "prd", "bfs", "label"] {
            assert_eq!(m.kind_quantile(code, 0.5), None, "{code}");
        }
        // The rendered summary has no per-kind line for unseen kinds and
        // no bogus numbers for them.
        let s = metrics_summary(&m);
        assert!(!s.contains("latency[pr "), "{s}");
        assert!(!s.contains("latency[bfs"), "{s}");
    }

    #[test]
    fn script_round_trips() {
        let script = "# mixed\npr 3\n\nbfs 7\nlabel 12\nprd 4\nadd 1 2\ndel 2 1\n";
        let reqs = parse_script(script).unwrap();
        assert_eq!(
            reqs,
            vec![
                Request::PageRankSeed { seed: 3 },
                Request::Bfs { seed: 7 },
                Request::Label { v: 12 },
                Request::PageRankDelta { rounds: 4 },
                Request::AddEdge { u: 1, v: 2 },
                Request::DelEdge { u: 2, v: 1 },
            ]
        );
        assert!(parse_script("pr\n").is_err());
        assert!(parse_script("walk 3\n").is_err());
        assert!(parse_script("pr 1 2\n").is_err());
        assert!(parse_script("add 3\n").is_err(), "add is binary");
        assert!(parse_script("add 3 4 5\n").is_err());
    }

    #[test]
    fn generated_workload_is_deterministic_and_mixed() {
        let a = generate_requests(256, 42);
        let b = generate_requests(256, 42);
        assert_eq!(a, b);
        assert_ne!(a, generate_requests(256, 43));
        for spec in &vebo::REQUEST_SPECS {
            assert!(
                a.iter().any(|r| r.code() == spec.code),
                "no {} requests",
                spec.code
            );
        }
        let mutations = a.iter().filter(|r| r.mutates()).count();
        assert!(mutations * 10 >= a.len(), "mutation share too small");
        assert!(mutations * 4 <= a.len(), "mutation share too large");
    }

    #[test]
    fn batch_digests_match_across_backends() {
        // Read-only slice of the mix at request concurrency 4: digests
        // must be bit-identical between backends on the partitioned
        // profile.
        let reqs: Vec<Request> = generate_requests(40, 7)
            .into_iter()
            .filter(|r| !r.mutates())
            .take(12)
            .collect();
        let seq = engine(ExecMode::Sequential).run_batch(&reqs, 1);
        let sharded = engine(ExecMode::Sharded { shards: 3 }).run_batch(&reqs, 4);
        assert_eq!(seq.completed(), reqs.len());
        for (i, (a, b)) in seq.responses.iter().zip(&sharded.responses).enumerate() {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.digest, b.digest, "request {i} ({})", reqs[i].code());
        }
        assert_eq!(seq.combined_digest(), sharded.combined_digest());
        // The sharded run exercised the pool and recorded latencies.
        let m = sharded.metrics;
        assert!(m.ops > 0, "no sharded ops recorded");
        assert_eq!(m.request_nanos.len(), reqs.len());
        assert!(m.latency_quantile(0.99).unwrap() >= m.latency_quantile(0.5).unwrap());
    }

    #[test]
    fn mutating_batch_digests_match_across_backends() {
        // Interleaved mutate+query stream, applied in order (request
        // concurrency 1) with compaction after every mutation so float
        // queries always run on delta-free epochs: every digest must be
        // bit-identical between the sequential and sharded backends.
        let reqs = generate_requests(32, 11);
        assert!(reqs.iter().any(|r| r.mutates()), "mix lost its mutations");
        let mut a = engine(ExecMode::Sequential);
        a.configure_compaction(1, DEFAULT_DRIFT_THRESHOLD);
        let mut b = engine(ExecMode::Sharded { shards: 3 });
        b.configure_compaction(1, DEFAULT_DRIFT_THRESHOLD);
        let ra = a.run_batch(&reqs, 1);
        let rb = b.run_batch(&reqs, 1);
        for (i, (x, y)) in ra.responses.iter().zip(&rb.responses).enumerate() {
            let (x, y) = (x.as_ref().unwrap(), y.as_ref().unwrap());
            assert_eq!(x.digest, y.digest, "request {i} ({})", reqs[i].code());
        }
        assert_eq!(ra.combined_digest(), rb.combined_digest());
        assert_eq!(a.metrics().compactions, b.metrics().compactions);
        assert!(a.metrics().compactions > 0);
    }

    #[test]
    fn request_lines_round_trip_through_roster_grammar() {
        for req in generate_requests(64, 5) {
            let line = req.to_line();
            let back = parse_request_line(&line).unwrap().unwrap();
            assert_eq!(back, req, "{line}");
        }
        assert_eq!(parse_request_line("  # comment").unwrap(), None);
        assert_eq!(parse_request_line("").unwrap(), None);
        assert!(parse_request_line("pr").is_err());
    }

    #[test]
    fn coalesced_batch_matches_individual_handling() {
        let e = engine(ExecMode::Sequential);
        let n = e.prepared().graph().num_vertices() as u32;
        // Duplicates (including one that only matches modulo n) plus
        // distinct queries of every kind.
        let reqs = vec![
            Request::Bfs { seed: 7 },
            Request::Label { v: 3 },
            Request::Bfs { seed: 7 },
            Request::PageRankSeed { seed: 11 },
            Request::Label { v: 3 + n },
            Request::PageRankDelta { rounds: 3 },
            Request::Bfs { seed: 9 },
            Request::PageRankSeed { seed: 11 },
        ];
        let coalesced = e.run_coalesced(&reqs);
        let reference = engine(ExecMode::Sequential);
        for (req, got) in reqs.iter().zip(&coalesced) {
            assert_eq!(
                got.digest,
                reference.handle(req).digest,
                "{}",
                req.to_line()
            );
        }
        let m = e.metrics();
        assert_eq!(m.batches, 1);
        assert_eq!(m.batched_requests, 8);
        assert_eq!(m.batch_executions, 5, "three duplicates coalesced");
        assert_eq!(m.request_nanos.len(), 8, "every rider recorded");
        assert!(m.kind_quantile("bfs", 0.99).is_some());
    }

    #[test]
    fn coalesced_batch_with_mutations_falls_back_to_in_order_handling() {
        let reqs = generate_requests(24, 11);
        assert!(reqs.iter().any(|r| r.mutates()));
        let a = engine(ExecMode::Sequential);
        let b = engine(ExecMode::Sequential);
        let coalesced = a.run_coalesced(&reqs);
        let reference: Vec<Response> = reqs.iter().map(|r| b.handle(r)).collect();
        for (i, (x, y)) in coalesced.iter().zip(&reference).enumerate() {
            assert_eq!(x.digest, y.digest, "request {i} ({})", reqs[i].code());
        }
        assert_eq!(a.metrics().batches, 0, "mutating batches never coalesce");
    }

    #[test]
    fn run_batch_until_drains_on_stop() {
        let e = engine(ExecMode::Sequential);
        let reqs = vec![Request::Label { v: 1 }; 8];
        let stop = AtomicBool::new(true);
        let r = e.run_batch_until(&reqs, 2, Some(&stop));
        assert_eq!(r.completed(), 0, "pre-set stop claims nothing");
        assert!(r.responses.iter().all(|r| r.is_none()));
        let r = e.run_batch_until(&reqs, 2, None);
        assert_eq!(r.completed(), reqs.len());
    }

    #[test]
    fn label_requests_serve_component_labels() {
        let e = engine(ExecMode::Sequential);
        let n = e.prepared().graph().num_vertices() as u32;
        let a = e.handle(&Request::Label { v: 5 });
        let b = e.handle(&Request::Label { v: 5 + n });
        assert_eq!(a.digest, b.digest, "lookup wraps modulo n");
    }

    #[test]
    fn inserts_repair_labels_before_compaction() {
        // Two components; bridge them with an add and the label lookup
        // must reflect the merge immediately, while the epoch is still
        // dirty (no compaction has happened).
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)], false);
        let profile = SystemProfile::polymer_like();
        let e = ServeEngine::new(g, profile, Executor::new(profile));
        let before = e.handle(&Request::Label { v: 4 }).digest;
        assert_ne!(before, e.handle(&Request::Label { v: 0 }).digest);
        e.handle(&Request::AddEdge { u: 2, v: 3 });
        assert!(e.dynamic().is_dirty(), "compaction should not have fired");
        assert_eq!(
            e.handle(&Request::Label { v: 4 }).digest,
            e.handle(&Request::Label { v: 0 }).digest,
            "incremental repair merges the components"
        );
        assert!(e.prepared().overlay().is_some(), "dirty epoch published");
    }

    #[test]
    fn deletes_recompute_labels_via_overlay() {
        // A path 0-1-2: deleting (1, 2) splits the component, which the
        // overlay-aware recompute must observe pre-compaction.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)], false);
        let profile = SystemProfile::polymer_like();
        let e = ServeEngine::new(g, profile, Executor::new(profile));
        assert_eq!(
            e.handle(&Request::Label { v: 2 }).digest,
            e.handle(&Request::Label { v: 0 }).digest
        );
        e.handle(&Request::DelEdge { u: 1, v: 2 });
        assert!(e.dynamic().is_dirty());
        assert_ne!(
            e.handle(&Request::Label { v: 2 }).digest,
            e.handle(&Request::Label { v: 0 }).digest,
            "split observed before compaction"
        );
    }

    #[test]
    fn compaction_fires_on_schedule_and_matches_static_rebuild() {
        let g = Graph::from_edges(8, &[(0, 1), (2, 3)], false);
        let profile = SystemProfile::polymer_like();
        let mut e = ServeEngine::new(g, profile, Executor::new(profile));
        e.configure_compaction(3, DEFAULT_DRIFT_THRESHOLD);
        e.handle(&Request::AddEdge { u: 1, v: 2 });
        e.handle(&Request::AddEdge { u: 3, v: 4 });
        assert_eq!(e.metrics().compactions, 0);
        e.handle(&Request::AddEdge { u: 4, v: 5 });
        let m = e.metrics();
        assert_eq!(m.compactions, 1);
        assert_eq!(m.epoch, 1);
        assert!(!e.dynamic().is_dirty());
        assert!(e.prepared().overlay().is_none(), "clean epoch published");
        assert_eq!(e.prepared().epoch(), 1);

        // The compacted adjacency equals a from-scratch static build.
        let want = Graph::from_edges(8, &[(0, 1), (2, 3), (1, 2), (3, 4), (4, 5)], false);
        let got = e.dynamic().snapshot();
        for v in 0..8u32 {
            assert_eq!(got.out_neighbors(v), want.out_neighbors(v), "vertex {v}");
        }

        // And the post-compaction queries match a fresh engine on the
        // statically rebuilt graph.
        let f = ServeEngine::new(want, profile, Executor::new(profile));
        for req in [
            Request::Bfs { seed: 0 },
            Request::PageRankSeed { seed: 1 },
            Request::PageRankDelta { rounds: 4 },
        ] {
            assert_eq!(
                e.handle(&req).digest,
                f.handle(&req).digest,
                "{}",
                req.code()
            );
        }
    }

    #[test]
    fn epoch_age_tracks_requests_since_compaction() {
        let e = engine(ExecMode::Sequential);
        e.handle(&Request::Label { v: 1 });
        e.handle(&Request::Label { v: 2 });
        assert_eq!(e.metrics().epoch_age, 2);
        e.handle(&Request::AddEdge { u: 1, v: 2 });
        e.compact_now();
        assert_eq!(e.metrics().epoch_age, 0, "compaction resets the age");
        e.handle(&Request::Label { v: 3 });
        assert_eq!(e.metrics().epoch_age, 1);
    }

    #[test]
    fn drift_triggers_placement_reorder() {
        // Pile inserts onto the tail partition with a hair-trigger
        // threshold: the compaction must recompute placement.
        let g = Dataset::YahooLike.build(0.02);
        let n = g.num_vertices() as u32;
        let profile = SystemProfile::polymer_like();
        let mut e = ServeEngine::new(g, profile, Executor::new(profile));
        e.configure_compaction(16, 1e-6);
        for i in 0..16u32 {
            e.handle(&Request::AddEdge {
                u: n - 1 - (i % 8),
                v: n - 9 - (i % 8),
            });
        }
        let m = e.metrics();
        assert_eq!(m.compactions, 1);
        assert_eq!(m.reorders, 1, "drift threshold of ~0 must reorder");
    }
}
