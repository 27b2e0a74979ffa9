//! `edge_map`: the central traversal primitive (Ligra's `EDGEMAP`), with
//! direction optimization and per-task work measurement.
//!
//! Four traversal modes cover the three systems' layouts:
//!
//! * [`Traversal::DensePull`] — backward over the CSC, one destination at
//!   a time with `cond` early exit (Ligra/Polymer dense);
//! * [`Traversal::DenseCoo`] — stream each partition's COO chunk
//!   (GraphGrind dense; edge order = CSR or Hilbert);
//! * [`Traversal::SparsePush`] — forward over the out-edges of active
//!   vertices with atomic updates (Ligra sparse);
//! * [`Traversal::SparsePartitioned`] — per-partition sub-CSR scan of the
//!   active list; destinations stay partition-local, so updates need no
//!   atomics and per-partition work equals the "active edges per
//!   partition" of Table IV (Polymer/GraphGrind sparse).
//!
//! The two dense kernels own a contiguous destination range per task
//! (`pg.tasks().range(t)`; a COO chunk holds exactly that range's
//! in-edges), so they build their slice of the next frontier in
//! task-local plain words ([`AtomicBitset::range_writer`]) — no locked
//! instruction per edge or per destination; only the per-word flush is
//! atomic, because unaligned task bounds share their boundary words. The
//! two sparse kernels write destinations that any concurrent task may
//! also write, and keep the per-bit atomic [`AtomicBitset::set`].
//!
//! Every call returns an [`EdgeMapReport`] with per-task durations and
//! work counts; the scheduling simulator turns those into the simulated
//! 48-thread makespan.
//!
//! The traversal kernels live here; execution policy (mode, NUMA
//! placement, scheduling, instrumentation) lives on [`crate::Executor`],
//! whose [`crate::Executor::edge_map`] is the public entry point. (The
//! free `edge_map` shim deprecated when the executor landed has been
//! removed after its one-release grace period.)
//!
//! Every kernel is storage-agnostic: the CSR/CSC arrays are hoisted once
//! per call as flat slices, so graphs whose sections are zero-copy views
//! of a memory-mapped `.vgr` file (see `vebo_graph::storage`) traverse
//! through exactly the same code as owned graphs, byte for byte.
//!
//! ## The neighbor-cursor seam
//!
//! The pull and push kernels are written once against a small private
//! `NeighborScan` trait and monomorphized per backing. The plain-CSR
//! implementation extracts each vertex's neighbor list as a *single*
//! bounds-checked slice (`&targets[offsets[v]..offsets[v + 1]]`) and
//! hands it to the kernel as one block, so the per-edge loop iterates a
//! slice directly — no per-edge bounds checks, and a shape the
//! autovectorizer can work with. The compressed implementation
//! ([`vebo_graph::CompressedCsr`]) decodes delta-varint neighbor lists
//! block-by-block ([`vebo_graph::DECODE_BLOCK`] targets at a time) into a
//! stack buffer and hands the kernel the same `(base, block)` view, so
//! update order, early-exit points, and per-task edge counts are
//! bit-identical across backings. Both implementations issue a software
//! prefetch for the next vertex's offset and neighbor-list cache lines
//! (x86-64 `prefetcht0`; a no-op elsewhere) ahead of the current scan.
//! The sharded worker path reuses these kernels through the internal
//! `TaskPolicy::run`, so it inherits the same treatment.
//!
//! ## The delta-overlay seam
//!
//! When the [`PreparedGraph`] handle describes a *dirty* epoch of a
//! [`vebo_graph::DynamicGraph`] (buffered edge mutations not yet
//! compacted), the kernels run against an `OverlayScan`: a third
//! `NeighborScan` implementation that serves the overlay's fully merged
//! neighbor list for dirty vertices and delegates untouched vertices to
//! the underlying plain or compressed scanner. Because the overlay
//! stores *merged* lists (not patches), the kernel sees each dirty
//! vertex as one ordinary sorted block — update order and early-exit
//! semantics are identical to a compacted graph, on every backend.
//!
//! Two routing rules keep the overlay correct: the COO and sub-CSR
//! layouts are materialized from the snapshot and know nothing about
//! deltas, so a dirty handle always traverses `DensePull` (over the
//! CSC overlay half) or `SparsePush` (over the CSR overlay half); and
//! overlays exist only for unweighted graphs (enforced by
//! `DynamicGraph::new`), so the `offsets`-based weight addressing is
//! never consulted for an overlay list.

use crate::executor::TaskPolicy;
use crate::frontier::Frontier;
use crate::ops::EdgeOp;
use crate::prepared::PreparedGraph;
use crate::profile::DenseLayout;
use crate::schedule::{simulate, MakespanReport};
use crate::sharded::ShardOpReport;
use crate::shared::AtomicBitset;
use vebo_graph::{CompressedCsr, NeighborDecoder, OverlayHalf, VertexId, DECODE_BLOCK};

/// Issues a best-effort read prefetch for `slice[idx]`'s cache line.
/// Out-of-range indices are ignored, so callers can speculate one vertex
/// ahead without edge-case guards. Compiles to `prefetcht0` on x86-64 and
/// to nothing elsewhere.
#[inline(always)]
fn prefetch_read<T>(slice: &[T], idx: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        if idx < slice.len() {
            // SAFETY: the index is in range and prefetch has no
            // architectural side effects — it is purely a cache hint.
            unsafe {
                use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                _mm_prefetch(slice.as_ptr().add(idx).cast::<i8>(), _MM_HINT_T0);
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (slice, idx);
    }
}

/// The neighbor-cursor seam: visits one vertex's neighbor list as a
/// sequence of contiguous blocks. Kernels are generic over this trait and
/// monomorphize per backing, so the plain path keeps its single-slice
/// inner loop while the compressed path decodes on the fly.
trait NeighborScan: Sync {
    /// Calls `visit(base, block)` for successive chunks of `v`'s neighbor
    /// list, where `base` is the index of `block[0]` within the list (so
    /// `offsets[v] + base + k` addresses the weight of `block[k]`).
    /// `visit` returns `false` to stop the scan early (Ligra's `cond`
    /// exit); remaining blocks are then neither decoded nor counted.
    fn scan<F: FnMut(usize, &[VertexId]) -> bool>(&self, v: usize, visit: F);

    /// Hints the hardware prefetcher at vertex `v`'s offset entry and
    /// neighbor-list head, one vertex ahead of the scan.
    fn prefetch(&self, v: usize);
}

/// Plain-CSR scanner: one bounds check per vertex, then a borrowed slice.
struct PlainScan<'a> {
    offsets: &'a [usize],
    targets: &'a [VertexId],
}

impl NeighborScan for PlainScan<'_> {
    #[inline(always)]
    fn scan<F: FnMut(usize, &[VertexId]) -> bool>(&self, v: usize, mut visit: F) {
        // The whole list is one block: a single slice extraction hoists
        // the bounds checks out of the per-edge loop for every kernel.
        visit(0, &self.targets[self.offsets[v]..self.offsets[v + 1]]);
    }

    #[inline(always)]
    fn prefetch(&self, v: usize) {
        prefetch_read(self.offsets, v + 1);
        if let Some(&start) = self.offsets.get(v) {
            prefetch_read(self.targets, start);
        }
    }
}

/// Delta-varint scanner: decodes [`DECODE_BLOCK`]-target blocks into a
/// stack buffer; the kernel sees the same `(base, block)` shape as the
/// plain path.
struct CompressedScan<'a> {
    comp: &'a CompressedCsr,
}

impl NeighborScan for CompressedScan<'_> {
    #[inline(always)]
    fn scan<F: FnMut(usize, &[VertexId]) -> bool>(&self, v: usize, mut visit: F) {
        let mut dec = NeighborDecoder::new(self.comp, v);
        let mut buf = [0 as VertexId; DECODE_BLOCK];
        let mut base = 0usize;
        loop {
            let len = dec.next_block(&mut buf);
            if len == 0 {
                return;
            }
            if !visit(base, &buf[..len]) {
                return;
            }
            base += len;
        }
    }

    #[inline(always)]
    fn prefetch(&self, v: usize) {
        let byte_offsets = self.comp.byte_offsets();
        prefetch_read(byte_offsets, v + 1);
        if let Some(&start) = byte_offsets.get(v) {
            prefetch_read(self.comp.data(), start);
        }
    }
}

/// Delta-overlay scanner: serves the merged neighbor list for vertices
/// dirtied by buffered mutations, delegates the rest to the snapshot
/// scanner (plain or compressed). The merged list arrives as a single
/// sorted block, indistinguishable from a compacted graph's.
struct OverlayScan<'a, S> {
    inner: S,
    half: &'a OverlayHalf,
}

impl<S: NeighborScan> NeighborScan for OverlayScan<'_, S> {
    #[inline(always)]
    fn scan<F: FnMut(usize, &[VertexId]) -> bool>(&self, v: usize, mut visit: F) {
        match self.half.merged(v as VertexId) {
            Some(list) => {
                visit(0, list);
            }
            None => self.inner.scan(v, visit),
        }
    }

    #[inline(always)]
    fn prefetch(&self, v: usize) {
        // Dirty vertices are rare; hinting the snapshot arrays is the
        // right speculation either way.
        self.inner.prefetch(v);
    }
}

/// Which traversal `edge_map` chose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Traversal {
    /// Dense backward/pull over the CSC (Ligra/Polymer dense mode).
    DensePull,
    /// Dense streaming over per-partition COO chunks (GraphGrind).
    DenseCoo,
    /// Sparse forward/push over active sources with atomics.
    SparsePush,
    /// Sparse pull over per-partition sub-CSRs.
    SparsePartitioned,
}

impl Traversal {
    /// Whether this is a dense (backward) traversal — the "B" column of
    /// Table II.
    pub fn is_dense(self) -> bool {
        matches!(self, Traversal::DensePull | Traversal::DenseCoo)
    }
}

/// Per-task measurement: wall time, edges examined, and destination
/// vertices covered. Both work terms matter: the paper's core observation
/// is that partition processing time depends on edges *and* unique
/// destinations (§II), so the deterministic work model charges both.
#[derive(Clone, Copy, Debug, Default)]
pub struct TaskStats {
    /// Measured wall-clock nanoseconds of the task.
    pub nanos: u64,
    /// Edges traversed by the task.
    pub edges: u64,
    /// Destination vertices touched by the task.
    pub vertices: u64,
    /// Socket the task was placed on (0 when the executor ran without a
    /// NUMA placement plan, e.g. dynamically scheduled profiles).
    pub socket: u32,
}

/// Result of one `edge_map` invocation.
#[derive(Clone, Debug)]
pub struct EdgeMapReport {
    /// Traversal mode the direction heuristic selected.
    pub traversal: Traversal,
    /// Per-task (per-partition) measurements.
    pub tasks: Vec<TaskStats>,
    /// Active vertices in the output frontier.
    pub output_size: usize,
    /// Per-shard queue/occupancy measurements — `Some` exactly when the
    /// operation ran on the sharded backend
    /// ([`crate::ExecMode::Sharded`]).
    pub shards: Option<ShardOpReport>,
}

impl EdgeMapReport {
    /// Simulated makespan using measured per-task nanoseconds.
    pub fn makespan(
        &self,
        threads: usize,
        scheduling: crate::profile::Scheduling,
    ) -> MakespanReport {
        let costs: Vec<f64> = self.tasks.iter().map(|t| t.nanos as f64).collect();
        simulate(&costs, threads, scheduling)
    }

    /// Simulated makespan using the deterministic work model
    /// `cost = edges + vertices` (the paper's joint cost drivers, §II).
    pub fn makespan_by_work(
        &self,
        threads: usize,
        scheduling: crate::profile::Scheduling,
    ) -> MakespanReport {
        let costs: Vec<f64> = self
            .tasks
            .iter()
            .map(|t| (t.edges + t.vertices) as f64)
            .collect();
        simulate(&costs, threads, scheduling)
    }

    /// Total edges examined.
    pub fn total_edges(&self) -> u64 {
        self.tasks.iter().map(|t| t.edges).sum()
    }

    /// Aggregates measured nanoseconds per socket (index = socket id;
    /// a single entry when the operation ran without NUMA placement).
    pub fn per_socket_nanos(&self) -> Vec<u64> {
        let sockets = self.tasks.iter().map(|t| t.socket).max().unwrap_or(0) as usize + 1;
        let mut out = vec![0u64; sockets];
        for t in &self.tasks {
            out[t.socket as usize] += t.nanos;
        }
        out
    }

    /// Total sequential time.
    pub fn total_nanos(&self) -> u64 {
        self.tasks.iter().map(|t| t.nanos).sum()
    }
}

/// The traversal dispatcher behind [`crate::Executor::edge_map`]:
/// direction selection, kernel choice, output-representation switch.
pub(crate) fn edge_map_impl<O: EdgeOp>(
    pg: &PreparedGraph,
    frontier: &Frontier,
    op: &O,
    force_dense: Option<bool>,
    policy: &TaskPolicy,
) -> (Frontier, EdgeMapReport) {
    let g = pg.graph();
    let n = g.num_vertices();
    if frontier.is_empty() {
        return (
            Frontier::empty(n),
            EdgeMapReport {
                traversal: Traversal::SparsePush,
                tasks: Vec::new(),
                output_size: 0,
                shards: None,
            },
        );
    }
    let threshold_den = policy.threshold_den;
    let dense = force_dense.unwrap_or_else(|| frontier.is_dense_for(g, threshold_den));
    let next = AtomicBitset::new(n);
    // A dirty epoch's COO chunks and sub-CSRs describe the snapshot
    // only; route every traversal through the overlay-capable pull and
    // push kernels instead. Overlays are unweighted by construction
    // (`DynamicGraph::new` rejects weighted snapshots), which is what
    // keeps the offsets-based weight addressing out of overlay lists.
    let dirty = pg.overlay().is_some();
    debug_assert!(
        !dirty || !g.has_weights(),
        "delta overlays are defined for unweighted graphs only"
    );
    let (traversal, (tasks, shards)) = if dense {
        let f = frontier.to_dense();
        match (dirty, pg.profile().dense_layout) {
            (false, DenseLayout::Coo(_)) => {
                (Traversal::DenseCoo, dense_coo(pg, &f, op, &next, policy))
            }
            _ => (Traversal::DensePull, dense_pull(pg, &f, op, &next, policy)),
        }
    } else {
        let f = frontier.to_sparse();
        let active: &[VertexId] = match &*f {
            Frontier::Sparse { vertices, .. } => vertices,
            Frontier::Dense { .. } => unreachable!("to_sparse returned dense"),
        };
        if !dirty && pg.profile().partitioned_sparse {
            (
                Traversal::SparsePartitioned,
                sparse_partitioned(pg, active, op, &next, policy),
            )
        } else {
            (
                Traversal::SparsePush,
                sparse_push(pg, active, op, &next, policy),
            )
        }
    };
    let out = Frontier::from_bitset(next);
    let output_size = out.len();
    // Representation switch on output size, as all three systems do.
    let out = if output_size * threshold_den < n {
        out.to_sparse().into_owned()
    } else {
        out
    };
    (
        out,
        EdgeMapReport {
            traversal,
            tasks,
            output_size,
            shards,
        },
    )
}

fn dense_pull<O: EdgeOp>(
    pg: &PreparedGraph,
    frontier: &Frontier,
    op: &O,
    next: &AtomicBitset,
    policy: &TaskPolicy,
) -> (Vec<TaskStats>, Option<ShardOpReport>) {
    let g = pg.graph();
    let csc = g.csc();
    // Flat storage-agnostic views, hoisted once per call: whether the
    // arrays are owned vectors or zero-copy sections of a mapped `.vgr`
    // file, the kernel below indexes plain slices.
    let offsets = csc.offsets();
    let weights = csc.raw_weights();
    let half = pg.overlay().map(|ov| ov.inbound());
    match (csc.compressed(), half) {
        (Some(comp), None) => dense_pull_scan(
            pg,
            &CompressedScan { comp },
            offsets,
            weights,
            frontier,
            op,
            next,
            policy,
        ),
        (None, None) => dense_pull_scan(
            pg,
            &PlainScan {
                offsets,
                targets: csc.targets(),
            },
            offsets,
            weights,
            frontier,
            op,
            next,
            policy,
        ),
        (Some(comp), Some(half)) => dense_pull_scan(
            pg,
            &OverlayScan {
                inner: CompressedScan { comp },
                half,
            },
            offsets,
            weights,
            frontier,
            op,
            next,
            policy,
        ),
        (None, Some(half)) => dense_pull_scan(
            pg,
            &OverlayScan {
                inner: PlainScan {
                    offsets,
                    targets: csc.targets(),
                },
                half,
            },
            offsets,
            weights,
            frontier,
            op,
            next,
            policy,
        ),
    }
}

/// The pull kernel body, monomorphized per neighbor-list backing. Update
/// order, the `cond` early exit, and edge counts match the historical
/// per-edge loop exactly, so `TaskStats` agree bit-for-bit across
/// backings.
#[allow(clippy::too_many_arguments)]
fn dense_pull_scan<O: EdgeOp, S: NeighborScan>(
    pg: &PreparedGraph,
    scan: &S,
    offsets: &[usize],
    weights: Option<&[f32]>,
    frontier: &Frontier,
    op: &O,
    next: &AtomicBitset,
    policy: &TaskPolicy,
) -> (Vec<TaskStats>, Option<ShardOpReport>) {
    let words = frontier.words();
    let tasks = pg.tasks();
    policy.run(tasks.num_partitions(), |t| {
        let mut edges = 0u64;
        let vertices = tasks.range(t).len() as u64;
        // The task owns these destinations: no locked RMW per activation.
        let mut out = next.range_writer(tasks.range(t));
        for v in tasks.range(t) {
            let vid = v as VertexId;
            if !op.cond(vid) {
                continue;
            }
            // Hint the next vertex's offset/list cache lines while this
            // vertex's neighbors are scanned.
            scan.prefetch(v + 1);
            let e0 = offsets[v];
            let mut activated = false;
            scan.scan(v, |base, block| {
                for (k, &u) in block.iter().enumerate() {
                    edges += 1;
                    if words[u as usize >> 6] >> (u as usize & 63) & 1 == 1 {
                        let w = weights.map_or(1.0, |ws| ws[e0 + base + k]);
                        if op.update(u, vid, w) {
                            activated = true;
                        }
                        if !op.cond(vid) {
                            return false; // Ligra's early exit once cond turns false
                        }
                    }
                }
                true
            });
            if activated {
                out.set(v);
            }
        }
        (edges, vertices)
    })
}

fn dense_coo<O: EdgeOp>(
    pg: &PreparedGraph,
    frontier: &Frontier,
    op: &O,
    next: &AtomicBitset,
    policy: &TaskPolicy,
) -> (Vec<TaskStats>, Option<ShardOpReport>) {
    let coo = pg.coo().expect("profile declares a COO dense layout");
    let words = frontier.words();
    let tasks = pg.tasks();
    policy.run(coo.num_partitions(), |p| {
        let (src, dst) = coo.partition_edges(p);
        let vertices = tasks.range(p).len() as u64;
        let ws = coo.has_weights().then(|| coo.partition_weights(p));
        // A COO chunk holds exactly the in-edges of the task's range, so
        // every activation lands in task-local words.
        let mut out = next.range_writer(tasks.range(p));
        for e in 0..src.len() {
            let (u, v) = (src[e], dst[e]);
            if words[u as usize >> 6] >> (u as usize & 63) & 1 == 1 && op.cond(v) {
                let w = ws.map_or(1.0, |ws| ws[e]);
                if op.update(u, v, w) {
                    out.set(v as usize);
                }
            }
        }
        (src.len() as u64, vertices)
    })
}

fn sparse_push<O: EdgeOp>(
    pg: &PreparedGraph,
    active: &[VertexId],
    op: &O,
    next: &AtomicBitset,
    policy: &TaskPolicy,
) -> (Vec<TaskStats>, Option<ShardOpReport>) {
    let g = pg.graph();
    let csr = g.csr();
    // Storage-agnostic flat views (owned or mapped), hoisted once.
    let offsets = csr.offsets();
    let weights = csr.raw_weights();
    let half = pg.overlay().map(|ov| ov.out());
    match (csr.compressed(), half) {
        (Some(comp), None) => sparse_push_scan(
            pg,
            &CompressedScan { comp },
            offsets,
            weights,
            active,
            op,
            next,
            policy,
        ),
        (None, None) => sparse_push_scan(
            pg,
            &PlainScan {
                offsets,
                targets: csr.targets(),
            },
            offsets,
            weights,
            active,
            op,
            next,
            policy,
        ),
        (Some(comp), Some(half)) => sparse_push_scan(
            pg,
            &OverlayScan {
                inner: CompressedScan { comp },
                half,
            },
            offsets,
            weights,
            active,
            op,
            next,
            policy,
        ),
        (None, Some(half)) => sparse_push_scan(
            pg,
            &OverlayScan {
                inner: PlainScan {
                    offsets,
                    targets: csr.targets(),
                },
                half,
            },
            offsets,
            weights,
            active,
            op,
            next,
            policy,
        ),
    }
}

/// The push kernel body, monomorphized per neighbor-list backing. Every
/// out-edge of every active vertex is examined (no early exit), exactly
/// as the historical per-edge loop did.
#[allow(clippy::too_many_arguments)]
fn sparse_push_scan<O: EdgeOp, S: NeighborScan>(
    pg: &PreparedGraph,
    scan: &S,
    offsets: &[usize],
    weights: Option<&[f32]>,
    active: &[VertexId],
    op: &O,
    next: &AtomicBitset,
    policy: &TaskPolicy,
) -> (Vec<TaskStats>, Option<ShardOpReport>) {
    let num_chunks = pg.num_tasks().min(active.len()).max(1);
    policy.run(num_chunks, |c| {
        let lo = c * active.len() / num_chunks;
        let hi = (c + 1) * active.len() / num_chunks;
        let mut edges = 0u64;
        let vertices = (hi - lo) as u64;
        for (i, &u) in active[lo..hi].iter().enumerate() {
            // Hint the next active vertex's list while scanning this one.
            if let Some(&nu) = active[lo..hi].get(i + 1) {
                scan.prefetch(nu as usize);
            }
            let e0 = offsets[u as usize];
            scan.scan(u as usize, |base, block| {
                for (k, &v) in block.iter().enumerate() {
                    edges += 1;
                    if op.cond(v) {
                        let w = weights.map_or(1.0, |ws| ws[e0 + base + k]);
                        if op.update_atomic(u, v, w) {
                            next.set(v as usize);
                        }
                    }
                }
                true
            });
        }
        (edges, vertices)
    })
}

fn sparse_partitioned<O: EdgeOp>(
    pg: &PreparedGraph,
    active: &[VertexId],
    op: &O,
    next: &AtomicBitset,
    policy: &TaskPolicy,
) -> (Vec<TaskStats>, Option<ShardOpReport>) {
    let sub = pg
        .sub_csr()
        .expect("profile declares partitioned sparse layout");
    policy.run(sub.num_partitions(), |p| {
        let part = sub.partition(p);
        let mut edges = 0u64;
        let mut vertices = 0u64;
        if part.sources().is_empty() {
            return (0, 0);
        }
        for &u in active {
            // Destinations are partition-local, so the non-atomic update
            // path is race-free even when partitions run in parallel.
            if let Some(dsts) = part.edges_of(u) {
                vertices += 1;
                if pg.graph().has_weights() {
                    let (dsts, ws) = part.weighted_edges_of(u).unwrap();
                    for (k, &v) in dsts.iter().enumerate() {
                        edges += 1;
                        if op.cond(v) && op.update(u, v, ws[k]) {
                            next.set(v as usize);
                        }
                    }
                } else {
                    for &v in dsts {
                        edges += 1;
                        if op.cond(v) && op.update(u, v, 1.0) {
                            next.set(v as usize);
                        }
                    }
                }
            }
        }
        (edges, vertices)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Direction, ExecMode, Executor};
    use crate::profile::SystemProfile;
    use std::sync::atomic::{AtomicU32, Ordering};
    use vebo_graph::{Dataset, Graph};
    use vebo_partition::EdgeOrder;

    /// BFS-style parent setter: activates each destination exactly once.
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

    fn profiles() -> Vec<SystemProfile> {
        vec![
            SystemProfile::ligra_like(),
            SystemProfile::polymer_like(),
            SystemProfile::graphgrind_like(EdgeOrder::Csr),
            SystemProfile::graphgrind_like(EdgeOrder::Hilbert),
        ]
    }

    fn test_graph() -> Graph {
        Dataset::LiveJournalLike.build(0.03)
    }

    #[test]
    fn one_hop_frontier_matches_reference_on_all_profiles() {
        let g = test_graph();
        let n = g.num_vertices();
        let root: VertexId = g.vertices().max_by_key(|&v| g.out_degree(v)).unwrap();
        // Reference: out-neighbors of the root, deduped, excluding root.
        let mut expect: Vec<VertexId> = g
            .out_neighbors(root)
            .iter()
            .copied()
            .filter(|&v| v != root)
            .collect();
        expect.sort_unstable();
        expect.dedup();

        for profile in profiles() {
            for force in [Direction::Dense, Direction::Sparse, Direction::Auto] {
                let exec = Executor::new(profile);
                let pg = PreparedGraph::new(g.clone(), profile);
                let op = ParentOp::new(n);
                op.parent[root as usize].store(root, Ordering::Relaxed); // don't re-activate root
                let f = Frontier::single(n, root);
                let (out, report) = exec.edge_map_in(&pg, &f, &op, force);
                let mut got: Vec<VertexId> = out.iter_active().collect();
                got.sort_unstable();
                assert_eq!(got, expect, "profile {:?} force {force:?}", profile.kind);
                assert_eq!(report.output_size, expect.len());
            }
        }
    }

    #[test]
    fn dense_and_sparse_agree_on_multi_vertex_frontier() {
        let g = test_graph();
        let n = g.num_vertices();
        let seeds: Vec<VertexId> = (0..20).map(|i| i * 37 % n as u32).collect();
        let mut reference: Option<Vec<VertexId>> = None;
        for profile in profiles() {
            for force in [Direction::Dense, Direction::Sparse] {
                let exec = Executor::new(profile).with_direction(force);
                let pg = PreparedGraph::new(g.clone(), profile);
                let op = ParentOp::new(n);
                for &s in &seeds {
                    op.parent[s as usize].store(s, Ordering::Relaxed);
                }
                let f = Frontier::from_vertices(n, seeds.clone());
                let (out, _) = exec.edge_map(&pg, &f, &op);
                let mut got: Vec<VertexId> = out.iter_active().collect();
                got.sort_unstable();
                match &reference {
                    None => reference = Some(got),
                    Some(r) => assert_eq!(&got, r, "profile {:?} force {force:?}", profile.kind),
                }
            }
        }
    }

    #[test]
    fn sharded_multi_seed_matches_sequential() {
        let g = test_graph();
        let n = g.num_vertices();
        let profile = SystemProfile::graphgrind_like(EdgeOrder::Csr);
        let pg = PreparedGraph::new(g.clone(), profile);
        let seeds: Vec<VertexId> = (0..50).map(|i| i * 13 % n as u32).collect();
        let mut outputs = Vec::new();
        for mode in [ExecMode::Sequential, ExecMode::Sharded { shards: 2 }] {
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

    /// The sharded backend matches sequential execution and attaches a
    /// per-shard report accounting for every task.
    #[test]
    fn sharded_mode_matches_sequential() {
        let g = test_graph();
        let n = g.num_vertices();
        let profile = SystemProfile::graphgrind_like(EdgeOrder::Csr);
        let pg = PreparedGraph::new(g.clone(), profile);
        let run = |exec: &Executor| -> (Vec<VertexId>, EdgeMapReport) {
            let op = ParentOp::new(n);
            op.parent[0].store(0, Ordering::Relaxed);
            let f = Frontier::single(n, 0);
            let (out, report) = exec.edge_map(&pg, &f, &op);
            let mut got: Vec<VertexId> = out.iter_active().collect();
            got.sort_unstable();
            (got, report)
        };
        let (seq, seq_rep) = run(&Executor::new(profile));
        assert!(seq_rep.shards.is_none());
        for shards in [1usize, 2, 7] {
            let (got, report) = run(&Executor::sharded(profile, shards));
            assert_eq!(got, seq, "shards = {shards}");
            let sr = report.shards.expect("sharded run reports shard stats");
            assert_eq!(sr.shards.len(), shards);
            let done: u64 = sr.shards.iter().map(|s| s.tasks_run + s.tasks_stolen).sum();
            assert_eq!(done, report.tasks.len() as u64);
        }
    }

    #[test]
    fn report_edge_totals_are_sane() {
        let g = test_graph();
        let n = g.num_vertices();
        let m = g.num_edges() as u64;
        let profile = SystemProfile::graphgrind_like(EdgeOrder::Csr);
        let pg = PreparedGraph::new(g.clone(), profile);
        let op = ParentOp::new(n);
        let f = Frontier::all(n);
        let (_, report) = Executor::new(profile).edge_map_in(&pg, &f, &op, Direction::Dense);
        // Dense COO scans every edge exactly once.
        assert_eq!(report.traversal, Traversal::DenseCoo);
        assert_eq!(report.total_edges(), m);
        assert_eq!(report.tasks.len(), 384);
    }

    #[test]
    fn sparse_partitioned_work_equals_active_edges() {
        let g = test_graph();
        let n = g.num_vertices();
        let profile = SystemProfile::graphgrind_like(EdgeOrder::Csr);
        let pg = PreparedGraph::new(g.clone(), profile);
        let seeds: Vec<VertexId> = (0..10).map(|i| i * 101 % n as u32).collect();
        let op = ParentOp::new(n);
        let f = Frontier::from_vertices(n, seeds.clone());
        let (_, report) = Executor::new(profile).edge_map_in(&pg, &f, &op, Direction::Sparse);
        assert_eq!(report.traversal, Traversal::SparsePartitioned);
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        let expected: u64 = dedup.iter().map(|&u| g.out_degree(u) as u64).sum();
        assert_eq!(report.total_edges(), expected);
    }

    #[test]
    fn empty_frontier_short_circuits() {
        let g = test_graph();
        let n = g.num_vertices();
        let pg = PreparedGraph::new(g, SystemProfile::ligra_like());
        let op = ParentOp::new(n);
        let (out, report) =
            Executor::new(SystemProfile::ligra_like()).edge_map(&pg, &Frontier::empty(n), &op);
        assert!(out.is_empty());
        assert!(report.tasks.is_empty());
    }

    #[test]
    fn direction_heuristic_picks_dense_for_full_frontier() {
        let g = test_graph();
        let n = g.num_vertices();
        let exec = Executor::new(SystemProfile::ligra_like());
        let pg = PreparedGraph::new(g, SystemProfile::ligra_like());
        let op = ParentOp::new(n);
        let (_, report) = exec.edge_map(&pg, &Frontier::all(n), &op);
        assert!(report.traversal.is_dense());
        let pg2 = PreparedGraph::new(test_graph(), SystemProfile::ligra_like());
        let op2 = ParentOp::new(n);
        let (_, report2) = exec.edge_map(&pg2, &Frontier::single(n, 0), &op2);
        assert!(!report2.traversal.is_dense());
    }

    /// The compressed backing must reproduce the plain backing exactly:
    /// same output frontier, same per-task edge counts — on every
    /// profile, both directions, and the parallel/sharded policies.
    #[test]
    fn compressed_backing_matches_plain_on_all_profiles() {
        let g = test_graph();
        let n = g.num_vertices();
        let seeds: Vec<VertexId> = (0..20).map(|i| i * 37 % n as u32).collect();
        for profile in profiles() {
            for force in [Direction::Dense, Direction::Sparse] {
                let mut outputs: Vec<(Vec<VertexId>, Vec<u64>)> = Vec::new();
                for compress in [false, true] {
                    let exec = Executor::new(profile).with_direction(force);
                    let pg = PreparedGraph::builder(g.clone())
                        .profile(profile)
                        .compress(compress)
                        .build()
                        .unwrap();
                    let op = ParentOp::new(n);
                    for &s in &seeds {
                        op.parent[s as usize].store(s, Ordering::Relaxed);
                    }
                    let f = Frontier::from_vertices(n, seeds.clone());
                    let (out, report) = exec.edge_map(&pg, &f, &op);
                    let mut got: Vec<VertexId> = out.iter_active().collect();
                    got.sort_unstable();
                    outputs.push((got, report.tasks.iter().map(|t| t.edges).collect()));
                }
                assert_eq!(
                    outputs[0], outputs[1],
                    "profile {:?} force {force:?}",
                    profile.kind
                );
            }
        }
    }

    /// Same parity check under the sharded policy (the worker path goes
    /// through the identical monomorphized kernels).
    #[test]
    fn compressed_backing_matches_plain_on_sharded_backend() {
        let g = test_graph();
        let n = g.num_vertices();
        let profile = SystemProfile::ligra_like();
        let mut outputs = Vec::new();
        for compress in [false, true] {
            let exec = Executor::sharded(profile, 2);
            let pg = PreparedGraph::builder(g.clone())
                .profile(profile)
                .compress(compress)
                .build()
                .unwrap();
            let op = ParentOp::new(n);
            op.parent[0].store(0, Ordering::Relaxed);
            let f = Frontier::single(n, 0);
            let (out, report) = exec.edge_map(&pg, &f, &op);
            let mut got: Vec<VertexId> = out.iter_active().collect();
            got.sort_unstable();
            outputs.push((got, report.total_edges()));
        }
        assert_eq!(outputs[0], outputs[1]);
    }

    #[test]
    fn makespan_reports_compute() {
        let g = test_graph();
        let n = g.num_vertices();
        let profile = SystemProfile::graphgrind_like(EdgeOrder::Csr);
        let pg = PreparedGraph::new(g, profile);
        let op = ParentOp::new(n);
        let (_, report) = Executor::new(profile).edge_map(&pg, &Frontier::all(n), &op);
        let ms = report.makespan_by_work(48, crate::profile::Scheduling::Static);
        assert!(ms.makespan > 0.0);
        assert!(ms.imbalance() >= 1.0);
        assert_eq!(ms.per_thread.len(), 48);
    }
}
