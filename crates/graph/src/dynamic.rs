//! Mutable graphs: an immutable CSR snapshot plus a delta buffer of edge
//! inserts/deletes, compacted off the hot path and republished by an
//! atomic [`Arc`] swap.
//!
//! The static [`Graph`] stays the storage substrate — owned, mapped, and
//! compressed backings are all valid snapshots. [`DynamicGraph`] wraps
//! one behind an epoch-versioned publication slot and buffers mutations
//! in an ordered operation log:
//!
//! * **Mutations** ([`DynamicGraph::insert_edge`] /
//!   [`DynamicGraph::delete_edge`]) only append to the log under a
//!   dedicated mutex; they never touch the snapshot and never block
//!   readers.
//! * **Pinning** ([`DynamicGraph::pin`]) captures a consistent
//!   `(snapshot, delta overlay, epoch)` triple. The returned
//!   [`PinnedEpoch`] holds plain `Arc`s, so once pinned a query reads
//!   entirely lock-free — compactions publishing newer epochs cannot
//!   invalidate or block it.
//! * **Compaction** ([`DynamicGraph::compact`]) merges the buffered
//!   mutations into a fresh CSR/CSC pair *off-lock*, then publishes the
//!   new snapshot with a single pointer-sized `Arc` swap under the write
//!   side of the slot (held only for the swap itself). In-flight pins
//!   keep their old epoch; new pins see the new one.
//!
//! Mutation semantics are those of a simple edge set: inserting an arc
//! that is already present (in the snapshot or earlier in the log) is a
//! no-op, deleting removes one stored occurrence, and on undirected
//! graphs both mirrored arcs are maintained together (a self-loop stays
//! a single stored arc, matching [`Graph::from_edges`]). Vertex count is
//! fixed at construction. Weighted snapshots may be *wrapped* (so a
//! weighted dataset can still be served read-only through the versioned
//! handle) but refuse mutations with
//! [`GraphError::WeightedMutation`] — every weighted algorithm in the
//! workspace runs on static snapshots.
//!
//! The delta log can be bounded ([`DynamicGraph::set_log_capacity`]):
//! once full, mutations fail with [`GraphError::DeltaLogFull`] instead
//! of growing without bound while compaction is behind — the serving
//! layer surfaces this as backpressure (a BUSY reply) rather than
//! unbounded memory growth.
//!
//! For serving, compaction moves off the mutation path entirely: a
//! [`Compactor`] owns a dedicated thread that runs compaction cycles on
//! request, so mutators only append to the log, signal, and return.
//! [`DynamicGraph::compact_prepare`] /
//! [`PendingCompaction::commit`] split one cycle into the expensive
//! lock-free rebuild and the brief publication, letting callers hang
//! extra work (placement recompute, state republication) between the
//! two while the compaction gate stays held.
//!
//! Compaction is bit-reproducible: the merged neighbor lists are exactly
//! what [`Graph::from_edges`]-style reconstruction from the final edge
//! set produces (sorted ascending per vertex), which the
//! `dynamic_props.rs` property suite checks for both adjacency halves
//! and for the re-encoded compressed companion.

use crate::adjacency::Adjacency;
use crate::graph::Graph;
use crate::io::binary::{mmap_binary_graph, write_binary_graph};
use crate::types::{GraphError, VertexId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};

/// One buffered mutation, in arrival order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeMut {
    /// Insert the edge `(u, v)` (both arcs on undirected graphs).
    Insert(VertexId, VertexId),
    /// Delete the edge `(u, v)` (both arcs on undirected graphs).
    Delete(VertexId, VertexId),
}

/// Per-direction delta overlay half: the *fully merged* neighbor list of
/// every vertex whose adjacency differs from the snapshot. Vertices not
/// present read straight from the snapshot, so the overlay's memory
/// footprint is proportional to the touched neighborhood, not the graph.
#[derive(Clone, Debug, Default)]
pub struct OverlayHalf {
    merged: HashMap<VertexId, Vec<VertexId>>,
}

impl OverlayHalf {
    /// The merged (snapshot + delta) neighbor list of `v`, if `v` is
    /// dirty in this direction; `None` means the snapshot list is
    /// current.
    #[inline]
    pub fn merged(&self, v: VertexId) -> Option<&[VertexId]> {
        self.merged.get(&v).map(|l| l.as_slice())
    }

    /// Number of dirty vertices in this direction.
    pub fn len(&self) -> usize {
        self.merged.len()
    }

    /// `true` when no vertex is dirty in this direction.
    pub fn is_empty(&self) -> bool {
        self.merged.is_empty()
    }
}

/// The delta overlay of one pinned epoch: merged neighbor lists for the
/// dirty vertices of both adjacency halves. This is the structure the
/// engine's overlay scan consults before falling back to the snapshot
/// CSR/CSC (see `vebo_engine::edge_map`).
#[derive(Clone, Debug, Default)]
pub struct DeltaOverlay {
    out: OverlayHalf,
    into: OverlayHalf,
    pending: usize,
}

impl DeltaOverlay {
    /// The overlay of a delta-free epoch.
    pub fn empty() -> DeltaOverlay {
        DeltaOverlay::default()
    }

    /// Out-direction (CSR) half, indexed by source.
    #[inline]
    pub fn out(&self) -> &OverlayHalf {
        &self.out
    }

    /// In-direction (CSC) half, indexed by destination.
    #[inline]
    pub fn inbound(&self) -> &OverlayHalf {
        &self.into
    }

    /// Buffered mutations this overlay covers.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// `true` when the overlay changes nothing (the epoch is delta-free).
    pub fn is_empty(&self) -> bool {
        self.out.is_empty() && self.into.is_empty()
    }

    /// The overlay of the transposed graph ([`Graph::transposed`]): the
    /// two halves swapped, so its out-lists are this overlay's in-lists
    /// and vice versa. Costs one copy of the dirty vertices' merged lists.
    pub fn transposed(&self) -> DeltaOverlay {
        DeltaOverlay {
            out: self.into.clone(),
            into: self.out.clone(),
            pending: self.pending,
        }
    }

    /// Overlay-aware out-neighbor list of `v` against snapshot `g`.
    #[inline]
    pub fn out_neighbors<'a>(&'a self, g: &'a Graph, v: VertexId) -> &'a [VertexId] {
        self.out.merged(v).unwrap_or_else(|| g.out_neighbors(v))
    }

    /// Overlay-aware in-neighbor list of `v` against snapshot `g`.
    #[inline]
    pub fn in_neighbors<'a>(&'a self, g: &'a Graph, v: VertexId) -> &'a [VertexId] {
        self.into.merged(v).unwrap_or_else(|| g.in_neighbors(v))
    }

    /// Overlay-aware out-degree of `v` against snapshot `g`.
    #[inline]
    pub fn out_degree(&self, g: &Graph, v: VertexId) -> usize {
        match self.out.merged(v) {
            Some(list) => list.len(),
            None => g.out_degree(v),
        }
    }
}

/// A consistent, lock-free view of one epoch of a [`DynamicGraph`]:
/// the immutable snapshot, the delta overlay of mutations buffered when
/// the pin was taken, and the epoch number. Cloning shares the `Arc`s.
///
/// A pin stays fully readable while later mutations and compactions run;
/// it simply describes an older version of the graph.
#[derive(Clone, Debug)]
pub struct PinnedEpoch {
    snapshot: Arc<Graph>,
    overlay: Arc<DeltaOverlay>,
    epoch: u64,
}

impl PinnedEpoch {
    /// The immutable CSR snapshot of this epoch.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.snapshot
    }

    /// The snapshot as a shared handle.
    #[inline]
    pub fn snapshot(&self) -> &Arc<Graph> {
        &self.snapshot
    }

    /// The delta overlay (empty for a delta-free pin).
    #[inline]
    pub fn overlay(&self) -> &Arc<DeltaOverlay> {
        &self.overlay
    }

    /// The snapshot epoch (incremented by every publication).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `true` when mutations were buffered on top of the snapshot at pin
    /// time.
    #[inline]
    pub fn is_dirty(&self) -> bool {
        !self.overlay.is_empty()
    }
}

/// What one [`DynamicGraph::compact`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Log entries consumed (0 means the log was clean and no new
    /// snapshot was published).
    pub applied: usize,
    /// Stored arcs added to the snapshot.
    pub arcs_inserted: u64,
    /// Stored arcs removed from the snapshot.
    pub arcs_deleted: u64,
    /// The epoch of the published snapshot (unchanged when `applied`
    /// is 0).
    pub epoch: u64,
}

/// The published snapshot slot. Readers hold the lock only long enough
/// to clone an `Arc`; the writer only for the pointer swap itself — the
/// compaction build happens entirely outside.
#[derive(Debug)]
struct EpochSlot {
    snapshot: Arc<Graph>,
    epoch: u64,
}

/// A mutable graph: immutable snapshot + delta buffer + epoch-versioned
/// publication. See the [module docs](self) for the full contract.
#[derive(Debug)]
pub struct DynamicGraph {
    slot: RwLock<EpochSlot>,
    log: Mutex<Vec<EdgeMut>>,
    /// Serializes compactions (the build phase runs outside `slot`'s
    /// write lock, so two concurrent compactors would double-apply).
    compact_gate: Mutex<()>,
    compactions: AtomicU64,
    /// Mutations refused once the log holds this many entries.
    log_capacity: AtomicUsize,
    directed: bool,
    weighted: bool,
    num_vertices: usize,
}

impl DynamicGraph {
    /// Wraps `snapshot` as epoch 0 with an empty delta buffer.
    ///
    /// Weighted snapshots are accepted (and stay readable through the
    /// versioned handle) but refuse every mutation with
    /// [`GraphError::WeightedMutation`] — mutation semantics are defined
    /// for unweighted graphs only.
    pub fn new(snapshot: Graph) -> DynamicGraph {
        let directed = snapshot.is_directed();
        let weighted = snapshot.has_weights();
        let num_vertices = snapshot.num_vertices();
        DynamicGraph {
            slot: RwLock::new(EpochSlot {
                snapshot: Arc::new(snapshot),
                epoch: 0,
            }),
            log: Mutex::new(Vec::new()),
            compact_gate: Mutex::new(()),
            compactions: AtomicU64::new(0),
            log_capacity: AtomicUsize::new(usize::MAX),
            directed,
            weighted,
            num_vertices,
        }
    }

    /// Fixed vertex count (mutations cannot add vertices).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Whether the graph was built as directed.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Whether the wrapped snapshot carries edge weights (and therefore
    /// refuses mutations).
    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    /// Bounds the delta log: once `capacity` mutations are buffered,
    /// further ones fail with [`GraphError::DeltaLogFull`] until a
    /// compaction drains the log. The default is unbounded
    /// (`usize::MAX`); a capacity of 0 refuses every mutation.
    pub fn set_log_capacity(&self, capacity: usize) {
        self.log_capacity.store(capacity, Ordering::Relaxed);
    }

    /// The configured delta-log bound (`usize::MAX` when unbounded).
    pub fn log_capacity(&self) -> usize {
        self.log_capacity.load(Ordering::Relaxed)
    }

    /// The current snapshot epoch.
    pub fn epoch(&self) -> u64 {
        self.slot.read().unwrap().epoch
    }

    /// Compactions that published a new snapshot so far.
    pub fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }

    /// Buffered mutations not yet compacted.
    pub fn pending_len(&self) -> usize {
        self.log.lock().unwrap().len()
    }

    /// `true` when mutations are buffered on top of the snapshot.
    pub fn is_dirty(&self) -> bool {
        self.pending_len() > 0
    }

    /// The current snapshot (ignores buffered mutations; see
    /// [`DynamicGraph::pin`] for the overlay-complete view).
    pub fn snapshot(&self) -> Arc<Graph> {
        self.slot.read().unwrap().snapshot.clone()
    }

    /// Validates and appends one mutation: weighted snapshots and
    /// out-of-range endpoints are typed errors (both are reachable from
    /// untrusted wire requests, so they must not abort the process), and
    /// a full bounded log answers [`GraphError::DeltaLogFull`] so the
    /// caller can apply backpressure.
    fn push_op(&self, op: EdgeMut) -> Result<(), GraphError> {
        if self.weighted {
            return Err(GraphError::WeightedMutation);
        }
        let (u, v) = match op {
            EdgeMut::Insert(u, v) | EdgeMut::Delete(u, v) => (u, v),
        };
        let worst = u.max(v);
        if worst as usize >= self.num_vertices {
            return Err(GraphError::VertexOutOfRange {
                vertex: worst as u64,
                num_vertices: self.num_vertices,
            });
        }
        let mut log = self.log.lock().unwrap();
        let capacity = self.log_capacity.load(Ordering::Relaxed);
        if log.len() >= capacity {
            return Err(GraphError::DeltaLogFull {
                pending: log.len(),
                capacity,
            });
        }
        log.push(op);
        Ok(())
    }

    /// Buffers an edge insert. On undirected graphs both arcs are
    /// inserted together; inserting a present edge is a no-op at
    /// merge time.
    pub fn insert_edge(&self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        self.push_op(EdgeMut::Insert(u, v))
    }

    /// Buffers an edge delete. On undirected graphs both arcs are
    /// deleted together; deleting an absent edge is a no-op at merge
    /// time.
    pub fn delete_edge(&self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        self.push_op(EdgeMut::Delete(u, v))
    }

    /// Captures a consistent `(snapshot, overlay, epoch)` view. The slot
    /// read lock and log mutex are held only long enough to clone the
    /// `Arc` and copy the log; the overlay merge runs outside both.
    pub fn pin(&self) -> PinnedEpoch {
        let (snapshot, epoch, ops) = {
            // Lock order slot -> log, matching the publication path, so
            // a pin sees either (old snapshot, full log) or (new
            // snapshot, unconsumed suffix) — never a half state.
            let slot = self.slot.read().unwrap();
            let log = self.log.lock().unwrap();
            (slot.snapshot.clone(), slot.epoch, log.clone())
        };
        let overlay = if ops.is_empty() {
            Arc::new(DeltaOverlay::empty())
        } else {
            Arc::new(build_overlay(&snapshot, &ops, self.directed))
        };
        PinnedEpoch {
            snapshot,
            overlay,
            epoch,
        }
    }

    /// Merges every buffered mutation into a fresh snapshot and
    /// publishes it under the next epoch. The CSR/CSC rebuild runs
    /// without holding the publication lock; pins taken before the swap
    /// keep reading their epoch undisturbed.
    ///
    /// The new snapshot is always owned storage (a mapped snapshot
    /// therefore detaches from its file on first compaction) and carries
    /// a re-encoded compressed companion iff the old snapshot had one.
    pub fn compact(&self) -> CompactionStats {
        self.compact_prepare().commit()
    }

    /// First half of a compaction cycle: takes the compaction gate,
    /// snapshots the log, and merge-rebuilds the next CSR/CSC pair
    /// entirely off the publication lock. Nothing is published — readers
    /// and mutators proceed undisturbed — until the returned
    /// [`PendingCompaction`] is [committed](PendingCompaction::commit).
    /// The gate stays held for the lifetime of the pending value, so the
    /// caller can compute dependent work (e.g. a placement recompute
    /// over the post-merge view) without racing another compactor.
    pub fn compact_prepare(&self) -> PendingCompaction<'_> {
        let gate = self.compact_gate.lock().unwrap();
        let (snapshot, ops) = {
            let slot = self.slot.read().unwrap();
            let log = self.log.lock().unwrap();
            (slot.snapshot.clone(), log.clone())
        };
        let rebuilt = if ops.is_empty() {
            None
        } else {
            Some(Arc::new(rebuild_snapshot(&snapshot, &ops, self.directed)))
        };
        PendingCompaction {
            dg: self,
            _gate: gate,
            old_arcs: snapshot.num_edges() as i64,
            prior: snapshot,
            rebuilt,
            ops_len: ops.len(),
        }
    }

    /// Saves the graph as a binary `.vgr` file, forcing a compaction
    /// first: persisted snapshots are always delta-free, so a reload
    /// (buffered or mmap) observes exactly the current edge set.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<CompactionStats, GraphError> {
        let stats = self.compact();
        let snapshot = self.snapshot();
        let file = std::fs::File::create(path).map_err(|e| GraphError::Io(e.to_string()))?;
        write_binary_graph(&snapshot, std::io::BufWriter::new(file))?;
        Ok(stats)
    }

    /// Replaces the snapshot with a zero-copy mmap of a `.vgr` file
    /// (e.g. one produced by [`DynamicGraph::save`]), publishing it as
    /// the next epoch.
    ///
    /// Fails with [`GraphError::DirtyDynamicGraph`] when mutations are
    /// buffered: adopting a foreign snapshot under a non-empty delta
    /// buffer would silently re-apply the buffered ops to unrelated
    /// data. Compact (or save) first. Also fails when the file's vertex
    /// count or directedness disagrees with this handle.
    pub fn adopt_mapped(&self, path: impl AsRef<std::path::Path>) -> Result<u64, GraphError> {
        let _gate = self.compact_gate.lock().unwrap();
        let mapped = mmap_binary_graph(path)?;
        if mapped.num_vertices() != self.num_vertices {
            return Err(GraphError::VertexOutOfRange {
                vertex: mapped.num_vertices() as u64,
                num_vertices: self.num_vertices,
            });
        }
        let mut slot = self.slot.write().unwrap();
        let log = self.log.lock().unwrap();
        if !log.is_empty() {
            return Err(GraphError::DirtyDynamicGraph { pending: log.len() });
        }
        slot.snapshot = Arc::new(mapped);
        slot.epoch += 1;
        Ok(slot.epoch)
    }
}

/// A prepared-but-unpublished compaction: the merge-rebuild has run, the
/// compaction gate is held, and nothing is visible to readers yet. See
/// [`DynamicGraph::compact_prepare`].
#[derive(Debug)]
pub struct PendingCompaction<'a> {
    dg: &'a DynamicGraph,
    _gate: MutexGuard<'a, ()>,
    /// The snapshot the rebuild was based on.
    prior: Arc<Graph>,
    /// The merged snapshot (`None` when the log was clean).
    rebuilt: Option<Arc<Graph>>,
    ops_len: usize,
    old_arcs: i64,
}

impl PendingCompaction<'_> {
    /// Log entries this cycle will consume (0: clean log, committing is
    /// a no-op that publishes nothing).
    pub fn applied(&self) -> usize {
        self.ops_len
    }

    /// The snapshot that commit will publish: the merged rebuild, or the
    /// unchanged prior snapshot when the log was clean. Lets callers
    /// compute placement work against the post-merge view before
    /// publication.
    pub fn snapshot(&self) -> &Arc<Graph> {
        self.rebuilt.as_ref().unwrap_or(&self.prior)
    }

    /// Second half of the cycle: swaps the rebuilt snapshot in under the
    /// publication lock, drains the consumed log prefix (mutations that
    /// arrived during the rebuild stay buffered against the new
    /// snapshot), and bumps the epoch. Holding only pointer-sized work
    /// under the write lock keeps publication O(1).
    pub fn commit(self) -> CompactionStats {
        let Some(rebuilt) = self.rebuilt else {
            return CompactionStats {
                epoch: self.dg.epoch(),
                ..CompactionStats::default()
            };
        };
        let new_arcs = rebuilt.num_edges() as i64;
        let epoch = {
            let mut slot = self.dg.slot.write().unwrap();
            let mut log = self.dg.log.lock().unwrap();
            log.drain(..self.ops_len);
            slot.snapshot = rebuilt;
            slot.epoch += 1;
            slot.epoch
        };
        self.dg.compactions.fetch_add(1, Ordering::Relaxed);
        let (inserted, deleted) = arc_churn(self.old_arcs, new_arcs);
        CompactionStats {
            applied: self.ops_len,
            arcs_inserted: inserted,
            arcs_deleted: deleted,
            epoch,
        }
    }
}

/// Coordination state shared between a [`Compactor`]'s callers and its
/// worker thread: a monotone ticket pair (`requested`/`completed`) under
/// one mutex, signalled both ways through one condvar.
#[derive(Debug, Default)]
struct CompactorState {
    requested: u64,
    completed: u64,
    runs: u64,
    shutdown: bool,
    poisoned: bool,
}

/// A dedicated compaction thread: callers [request](Compactor::request)
/// cycles and optionally [wait](Compactor::wait) on them, the worker
/// runs the supplied job once per wakeup — coalescing every ticket
/// outstanding at that moment into a single run, since one compaction
/// cycle drains the whole log regardless of how many mutators asked.
///
/// This is what takes compaction off the mutation path: a mutator
/// appends to the delta log, calls [`Compactor::request`], and returns;
/// the merge-rebuild happens on the worker. [`Compactor::drain`] blocks
/// until every requested cycle has completed (the shutdown path), and
/// dropping the compactor drains outstanding tickets before joining the
/// thread.
///
/// If the job panics the compactor is *poisoned*: the panic is contained
/// to the worker, and every subsequent or blocked waiter panics with a
/// diagnostic instead of deadlocking.
#[derive(Debug)]
pub struct Compactor {
    state: Arc<(Mutex<CompactorState>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Compactor {
    /// Spawns the worker thread around an arbitrary compaction job. The
    /// job runs once per coalesced wakeup, on the worker thread only.
    pub fn spawn<F>(mut job: F) -> Compactor
    where
        F: FnMut() + Send + 'static,
    {
        let state = Arc::new((Mutex::new(CompactorState::default()), Condvar::new()));
        let worker_state = Arc::clone(&state);
        let handle = std::thread::Builder::new()
            .name("vebo-compactor".to_string())
            .spawn(move || {
                let (lock, cvar) = &*worker_state;
                loop {
                    let target = {
                        let mut st = lock.lock().unwrap();
                        while st.requested == st.completed && !st.shutdown {
                            st = cvar.wait(st).unwrap();
                        }
                        if st.requested == st.completed {
                            break; // shutdown with nothing outstanding
                        }
                        st.requested // coalesce all outstanding tickets
                    };
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut job));
                    let mut st = lock.lock().unwrap();
                    st.runs += 1;
                    st.completed = target;
                    if outcome.is_err() {
                        st.poisoned = true;
                    }
                    cvar.notify_all();
                }
            })
            .expect("spawn compactor thread");
        Compactor {
            state,
            handle: Some(handle),
        }
    }

    /// Convenience worker that just calls [`DynamicGraph::compact`] on a
    /// shared handle each cycle.
    pub fn for_graph(graph: Arc<DynamicGraph>) -> Compactor {
        Compactor::spawn(move || {
            graph.compact();
        })
    }

    /// Requests one compaction cycle and returns its ticket without
    /// blocking. Multiple outstanding tickets coalesce into one run.
    pub fn request(&self) -> u64 {
        let (lock, cvar) = &*self.state;
        let mut st = lock.lock().unwrap();
        st.requested += 1;
        let ticket = st.requested;
        cvar.notify_all();
        ticket
    }

    /// Blocks until the cycle holding `ticket` has completed.
    ///
    /// Panics if the compaction job panicked (the compactor is
    /// poisoned) — the alternative is waiting forever.
    pub fn wait(&self, ticket: u64) {
        let (lock, cvar) = &*self.state;
        let poisoned = {
            let mut st = lock.lock().unwrap();
            while st.completed < ticket && !st.poisoned {
                st = cvar.wait(st).unwrap();
            }
            st.poisoned
            // Guard released here: panicking while holding it would
            // poison the mutex and abort in our own Drop during unwind.
        };
        assert!(!poisoned, "compaction thread panicked");
    }

    /// Requests a cycle and blocks until it completes — the synchronous
    /// mode used where exact compaction scheduling must be observable
    /// (deterministic benchmarks, conformance tests).
    pub fn request_and_wait(&self) {
        let ticket = self.request();
        self.wait(ticket);
    }

    /// Blocks until every requested cycle has completed (the clean
    /// shutdown path). Panics if the compactor is poisoned.
    pub fn drain(&self) {
        let ticket = {
            let (lock, _) = &*self.state;
            lock.lock().unwrap().requested
        };
        self.wait(ticket);
    }

    /// Worker runs so far (each run may serve several coalesced
    /// tickets, so `runs() <= requests`).
    pub fn runs(&self) -> u64 {
        let (lock, _) = &*self.state;
        lock.lock().unwrap().runs
    }
}

impl Drop for Compactor {
    fn drop(&mut self) {
        {
            let (lock, cvar) = &*self.state;
            // Tolerate a poisoned mutex: Drop may run while a waiter's
            // "compaction thread panicked" panic is already unwinding.
            let mut st = lock.lock().unwrap_or_else(|e| e.into_inner());
            st.shutdown = true;
            cvar.notify_all();
        }
        if let Some(handle) = self.handle.take() {
            // The worker finishes outstanding tickets before exiting;
            // its panics were already contained and recorded.
            let _ = handle.join();
        }
    }
}

fn arc_churn(old_arcs: i64, new_arcs: i64) -> (u64, u64) {
    if new_arcs >= old_arcs {
        ((new_arcs - old_arcs) as u64, 0)
    } else {
        (0, (old_arcs - new_arcs) as u64)
    }
}

/// Net per-arc multiplicity changes of `ops` against `snapshot`, with
/// edge-set clamping applied in log order: an insert only fires when the
/// arc's current multiplicity (snapshot + net so far) is zero, a delete
/// only when it is positive. Undirected graphs apply each op to both
/// mirrored arcs (self-loops once), preserving snapshot symmetry.
fn arc_deltas(
    snapshot: &Graph,
    ops: &[EdgeMut],
    directed: bool,
) -> HashMap<(VertexId, VertexId), i32> {
    let mut net: HashMap<(VertexId, VertexId), i32> = HashMap::new();
    let mut snap_count_cache: HashMap<(VertexId, VertexId), i32> = HashMap::new();
    let mut snap_count = |u: VertexId, v: VertexId| -> i32 {
        *snap_count_cache.entry((u, v)).or_insert_with(|| {
            let list = snapshot.out_neighbors(u);
            let lo = list.partition_point(|&t| t < v);
            let hi = list.partition_point(|&t| t <= v);
            (hi - lo) as i32
        })
    };
    for op in ops {
        let (insert, u, v) = match *op {
            EdgeMut::Insert(u, v) => (true, u, v),
            EdgeMut::Delete(u, v) => (false, u, v),
        };
        let arcs: &[(VertexId, VertexId)] = if directed || u == v {
            &[(u, v)]
        } else {
            &[(u, v), (v, u)]
        };
        for &(a, b) in arcs {
            let entry = net.entry((a, b)).or_insert(0);
            let mult = snap_count(a, b) + *entry;
            if insert && mult == 0 {
                *entry += 1;
            } else if !insert && mult > 0 {
                *entry -= 1;
            }
        }
    }
    net.retain(|_, d| *d != 0);
    net
}

/// Merges one sorted snapshot neighbor list with its sorted per-target
/// deltas; produces the same sorted-ascending list a from-scratch
/// counting-sort rebuild of the final edge set would.
fn merge_list(old: &[VertexId], deltas: &[(VertexId, i32)]) -> Vec<VertexId> {
    let grow: usize = deltas.iter().map(|&(_, d)| d.max(0) as usize).sum();
    let mut out = Vec::with_capacity(old.len() + grow);
    let mut i = 0usize;
    for &(t, d) in deltas {
        while i < old.len() && old[i] < t {
            out.push(old[i]);
            i += 1;
        }
        let mut have = 0i64;
        while i < old.len() && old[i] == t {
            have += 1;
            i += 1;
        }
        let keep = (have + d as i64).max(0) as usize;
        out.extend(std::iter::repeat_n(t, keep));
    }
    out.extend_from_slice(&old[i..]);
    out
}

/// Groups arc deltas by one endpoint, each group sorted by the other.
fn group_deltas(
    net: &HashMap<(VertexId, VertexId), i32>,
    by_source: bool,
) -> HashMap<VertexId, Vec<(VertexId, i32)>> {
    let mut grouped: HashMap<VertexId, Vec<(VertexId, i32)>> = HashMap::new();
    for (&(u, v), &d) in net {
        let (key, other) = if by_source { (u, v) } else { (v, u) };
        grouped.entry(key).or_default().push((other, d));
    }
    for list in grouped.values_mut() {
        list.sort_unstable_by_key(|&(t, _)| t);
    }
    grouped
}

/// Builds the pin-time overlay: merged lists for every dirty vertex of
/// both halves.
fn build_overlay(snapshot: &Graph, ops: &[EdgeMut], directed: bool) -> DeltaOverlay {
    let net = arc_deltas(snapshot, ops, directed);
    let mut overlay = DeltaOverlay {
        pending: ops.len(),
        ..DeltaOverlay::default()
    };
    for (v, deltas) in group_deltas(&net, true) {
        overlay
            .out
            .merged
            .insert(v, merge_list(snapshot.out_neighbors(v), &deltas));
    }
    for (v, deltas) in group_deltas(&net, false) {
        overlay
            .into
            .merged
            .insert(v, merge_list(snapshot.in_neighbors(v), &deltas));
    }
    overlay
}

/// Rebuilds one adjacency half, copying untouched neighbor lists and
/// merging dirty ones.
fn rebuild_half(old: &Adjacency, grouped: &HashMap<VertexId, Vec<(VertexId, i32)>>) -> Adjacency {
    let n = old.num_vertices();
    let merged: HashMap<VertexId, Vec<VertexId>> = grouped
        .iter()
        .map(|(&v, deltas)| (v, merge_list(old.neighbors(v), deltas)))
        .collect();
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let mut total = 0usize;
    for v in 0..n as VertexId {
        total += merged.get(&v).map_or_else(|| old.degree(v), |l| l.len());
        offsets.push(total);
    }
    let mut targets = Vec::with_capacity(total);
    for v in 0..n as VertexId {
        match merged.get(&v) {
            Some(list) => targets.extend_from_slice(list),
            None => targets.extend_from_slice(old.neighbors(v)),
        }
    }
    Adjacency::from_parts_unchecked(offsets, targets, None)
}

/// Builds the next snapshot by merging `ops` into `snapshot` — both
/// halves rebuilt directly, compressed companion re-encoded iff the old
/// snapshot carried one.
fn rebuild_snapshot(snapshot: &Graph, ops: &[EdgeMut], directed: bool) -> Graph {
    let net = arc_deltas(snapshot, ops, directed);
    let out = rebuild_half(snapshot.csr(), &group_deltas(&net, true));
    let into = rebuild_half(snapshot.csc(), &group_deltas(&net, false));
    let g = Graph::from_parts(out, into, directed)
        .expect("merged halves are transposes by construction");
    if snapshot.csr().compressed().is_some() {
        g.with_compressed()
    } else {
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::StorageKind;

    fn small_directed() -> Graph {
        // 0 -> {1, 2}, 1 -> {2}, 3 -> {0}
        Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (3, 0)], true)
    }

    #[test]
    fn insert_then_compact_adds_arc() {
        let dg = DynamicGraph::new(small_directed());
        dg.insert_edge(2, 3).unwrap();
        assert!(dg.is_dirty());
        let stats = dg.compact();
        assert_eq!(stats.applied, 1);
        assert_eq!(stats.arcs_inserted, 1);
        assert_eq!(stats.epoch, 1);
        let g = dg.snapshot();
        assert_eq!(g.out_neighbors(2), &[3]);
        assert_eq!(g.in_neighbors(3), &[2]);
        assert!(!dg.is_dirty());
    }

    #[test]
    fn duplicate_insert_and_absent_delete_are_noops() {
        let dg = DynamicGraph::new(small_directed());
        dg.insert_edge(0, 1).unwrap(); // already present
        dg.delete_edge(2, 0).unwrap(); // absent
        let stats = dg.compact();
        assert_eq!(stats.applied, 2);
        assert_eq!(stats.arcs_inserted, 0);
        assert_eq!(stats.arcs_deleted, 0);
        assert_eq!(dg.snapshot().out_neighbors(0), &[1, 2]);
    }

    #[test]
    fn insert_then_delete_cancels_in_one_batch() {
        let dg = DynamicGraph::new(small_directed());
        dg.insert_edge(2, 3).unwrap();
        dg.delete_edge(2, 3).unwrap();
        dg.delete_edge(0, 1).unwrap();
        dg.insert_edge(0, 1).unwrap();
        let stats = dg.compact();
        assert_eq!(stats.applied, 4);
        assert_eq!(dg.snapshot().out_neighbors(2), &[] as &[VertexId]);
        assert_eq!(dg.snapshot().out_neighbors(0), &[1, 2]);
    }

    #[test]
    fn undirected_mutations_stay_symmetric() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2)], false);
        let dg = DynamicGraph::new(g);
        dg.insert_edge(2, 3).unwrap();
        dg.delete_edge(1, 0).unwrap(); // mirrored form of (0, 1)
        dg.insert_edge(3, 3).unwrap(); // self-loop: one arc
        dg.compact();
        let g = dg.snapshot();
        assert_eq!(g.csr(), g.csc());
        assert_eq!(g.out_neighbors(0), &[] as &[VertexId]);
        assert_eq!(g.out_neighbors(2), &[1, 3]);
        assert_eq!(g.out_neighbors(3), &[2, 3]);
    }

    #[test]
    fn pin_overlay_matches_future_compaction() {
        let dg = DynamicGraph::new(small_directed());
        dg.insert_edge(2, 3).unwrap();
        dg.delete_edge(0, 2).unwrap();
        let pin = dg.pin();
        assert!(pin.is_dirty());
        assert_eq!(pin.epoch(), 0);
        // Overlay view agrees with what compaction will produce.
        let ov = pin.overlay();
        assert_eq!(ov.out_neighbors(pin.graph(), 2), &[3]);
        assert_eq!(ov.out_neighbors(pin.graph(), 0), &[1]);
        assert_eq!(ov.in_neighbors(pin.graph(), 3), &[2]);
        assert_eq!(ov.out_degree(pin.graph(), 0), 1);
        // Untouched vertices fall through to the snapshot.
        assert!(ov.out().merged(1).is_none());
        dg.compact();
        let g = dg.snapshot();
        assert_eq!(g.out_neighbors(2), &[3]);
        assert_eq!(g.out_neighbors(0), &[1]);
    }

    #[test]
    fn transposed_overlay_swaps_directions() {
        let dg = DynamicGraph::new(small_directed());
        dg.insert_edge(2, 3).unwrap();
        dg.insert_edge(1, 0).unwrap();
        dg.delete_edge(0, 2).unwrap();
        let pin = dg.pin();
        let (g, ov) = (pin.graph(), pin.overlay());
        let (tg, tov) = (g.transposed(), ov.transposed());
        assert_eq!(tov.pending(), ov.pending());
        assert_eq!(tov.out().len(), ov.inbound().len());
        assert_eq!(tov.inbound().len(), ov.out().len());
        // Vertex 1 is clean in-bound and vertex 3 clean out-bound, so
        // both fall-through paths are covered along with the dirty ones.
        assert!(ov.inbound().merged(1).is_none());
        assert!(ov.out().merged(3).is_none());
        for v in g.vertices() {
            assert_eq!(tov.out_neighbors(&tg, v), ov.in_neighbors(g, v), "out {v}");
            assert_eq!(tov.in_neighbors(&tg, v), ov.out_neighbors(g, v), "in {v}");
            assert_eq!(tov.out_degree(&tg, v), ov.in_neighbors(g, v).len());
        }
    }

    #[test]
    fn pinned_epoch_survives_compaction() {
        let dg = DynamicGraph::new(small_directed());
        let pin = dg.pin();
        dg.insert_edge(2, 3).unwrap();
        dg.compact();
        dg.delete_edge(0, 1).unwrap();
        dg.compact();
        // The old pin still reads epoch-0 data.
        assert_eq!(pin.epoch(), 0);
        assert_eq!(pin.graph().out_neighbors(2), &[] as &[VertexId]);
        assert_eq!(pin.graph().out_neighbors(0), &[1, 2]);
        assert_eq!(dg.epoch(), 2);
        assert_eq!(dg.compactions(), 2);
    }

    #[test]
    fn compact_on_clean_log_is_a_noop() {
        let dg = DynamicGraph::new(small_directed());
        let stats = dg.compact();
        assert_eq!(stats.applied, 0);
        assert_eq!(stats.epoch, 0);
        assert_eq!(dg.epoch(), 0);
        assert_eq!(dg.compactions(), 0);
    }

    #[test]
    fn compressed_companion_is_reencoded() {
        let dg = DynamicGraph::new(small_directed().with_compressed());
        dg.insert_edge(2, 3).unwrap();
        dg.compact();
        let g = dg.snapshot();
        assert_eq!(g.storage_kind(), StorageKind::Compressed);
        let decoded = g
            .csr()
            .compressed()
            .unwrap()
            .decode_to_targets(g.csr().offsets())
            .unwrap();
        assert_eq!(decoded, g.csr().targets());
    }

    #[test]
    fn save_forces_compaction_and_roundtrips() {
        let dir = std::env::temp_dir().join(format!("vebo-dyn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dyn-save.vgr");
        let dg = DynamicGraph::new(small_directed());
        dg.insert_edge(2, 3).unwrap();
        let stats = dg.save(&path).unwrap();
        assert_eq!(stats.applied, 1);
        assert!(!dg.is_dirty(), "save must leave the handle delta-free");
        let loaded = crate::io::binary::read_binary_graph(std::fs::File::open(&path).unwrap())
            .map(|g| g.out_neighbors(2).to_vec())
            .unwrap();
        assert_eq!(loaded, vec![3]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn adopt_mapped_rejects_dirty_handle() {
        let dir = std::env::temp_dir().join(format!("vebo-dyn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dyn-adopt.vgr");
        let dg = DynamicGraph::new(small_directed());
        dg.save(&path).unwrap();
        dg.insert_edge(2, 3).unwrap();
        let err = dg.adopt_mapped(&path).unwrap_err();
        assert_eq!(err, GraphError::DirtyDynamicGraph { pending: 1 });
        assert!(err.to_string().contains("1 buffered mutation"), "{err}");
        // After compacting, adoption succeeds and bumps the epoch.
        dg.compact();
        let epoch = dg.adopt_mapped(&path).unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(dg.snapshot().storage_kind(), StorageKind::Mapped);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mutations_during_compaction_survive_to_next_epoch() {
        let dg = DynamicGraph::new(small_directed());
        dg.insert_edge(2, 3).unwrap();
        dg.compact();
        // A mutation buffered after the compaction's snapshot was taken
        // must not be lost.
        dg.insert_edge(3, 2).unwrap();
        assert_eq!(dg.pending_len(), 1);
        dg.compact();
        assert_eq!(dg.snapshot().out_neighbors(3), &[0, 2]);
    }

    #[test]
    fn weighted_snapshot_serves_reads_but_refuses_mutations() {
        // A weighted dataset must be servable through the versioned
        // handle without aborting the process on the first mutation —
        // both are reachable from untrusted wire requests.
        let dg = DynamicGraph::new(small_directed().with_hash_weights(4));
        assert!(dg.is_weighted());
        assert_eq!(dg.snapshot().out_neighbors(0), &[1, 2]);
        let err = dg.insert_edge(2, 3).unwrap_err();
        assert_eq!(err, GraphError::WeightedMutation);
        let err = dg.delete_edge(0, 1).unwrap_err();
        assert!(err.to_string().contains("unweighted"), "{err}");
        assert!(!dg.is_dirty(), "refused mutations must not reach the log");
    }

    #[test]
    fn out_of_range_mutation_is_a_typed_error() {
        let dg = DynamicGraph::new(small_directed());
        let err = dg.insert_edge(0, 9).unwrap_err();
        assert_eq!(
            err,
            GraphError::VertexOutOfRange {
                vertex: 9,
                num_vertices: 4
            }
        );
        assert!(!dg.is_dirty());
    }

    #[test]
    fn bounded_log_answers_full_until_compacted() {
        let dg = DynamicGraph::new(small_directed());
        dg.set_log_capacity(2);
        dg.insert_edge(2, 3).unwrap();
        dg.insert_edge(3, 2).unwrap();
        let err = dg.insert_edge(1, 0).unwrap_err();
        assert_eq!(
            err,
            GraphError::DeltaLogFull {
                pending: 2,
                capacity: 2
            }
        );
        // Backpressure resolves once a compaction drains the log.
        dg.compact();
        dg.insert_edge(1, 0).unwrap();
        assert_eq!(dg.pending_len(), 1);
    }

    #[test]
    fn compact_prepare_commit_splits_one_cycle() {
        let dg = DynamicGraph::new(small_directed());
        dg.insert_edge(2, 3).unwrap();
        let pending = dg.compact_prepare();
        assert_eq!(pending.applied(), 1);
        // Nothing is visible until commit: readers still see epoch 0.
        assert_eq!(dg.epoch(), 0);
        assert_eq!(dg.snapshot().out_neighbors(2), &[] as &[VertexId]);
        // The post-merge view is available for dependent work.
        assert_eq!(pending.snapshot().out_neighbors(2), &[3]);
        let stats = pending.commit();
        assert_eq!(stats.applied, 1);
        assert_eq!(stats.epoch, 1);
        assert_eq!(dg.snapshot().out_neighbors(2), &[3]);
        assert!(!dg.is_dirty());
    }

    #[test]
    fn compactor_runs_cycles_off_thread_and_coalesces() {
        let dg = Arc::new(DynamicGraph::new(small_directed()));
        let compactor = Compactor::for_graph(Arc::clone(&dg));
        dg.insert_edge(2, 3).unwrap();
        // Several requests while one cycle drains the whole log must
        // coalesce rather than queue redundant rebuilds.
        let t1 = compactor.request();
        let t2 = compactor.request();
        compactor.wait(t2);
        compactor.wait(t1); // completed tickets return immediately
        assert_eq!(dg.snapshot().out_neighbors(2), &[3]);
        assert!(!dg.is_dirty());
        assert!(compactor.runs() <= 2);

        dg.delete_edge(2, 3).unwrap();
        compactor.request_and_wait();
        assert_eq!(dg.snapshot().out_neighbors(2), &[] as &[VertexId]);
        compactor.drain(); // nothing outstanding: returns immediately
    }

    #[test]
    fn compactor_drop_drains_outstanding_work() {
        let dg = Arc::new(DynamicGraph::new(small_directed()));
        {
            let compactor = Compactor::for_graph(Arc::clone(&dg));
            dg.insert_edge(2, 3).unwrap();
            compactor.request();
            // No wait: drop must finish the requested cycle itself.
        }
        assert!(!dg.is_dirty());
        assert_eq!(dg.snapshot().out_neighbors(2), &[3]);
    }

    #[test]
    #[should_panic(expected = "compaction thread panicked")]
    fn poisoned_compactor_fails_waiters_instead_of_hanging() {
        let compactor = Compactor::spawn(|| panic!("boom"));
        let ticket = compactor.request();
        compactor.wait(ticket);
    }
}
