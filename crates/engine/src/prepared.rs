//! Graph preparation per system profile: partition bounds, COO chunks,
//! sub-CSRs — the "edge reordering + partitioning" stage whose cost
//! Table VI reports.
//!
//! Construction goes through [`PreparedGraph::builder`], which owns the
//! whole "how do VEBO's exact phase-3 boundaries reach the engine"
//! decision (it absorbed `prepare_profile` from the bench pipeline so the
//! CLI, the algorithms, the harnesses, and the tests all prepare
//! execution identically):
//!
//! ```
//! use vebo_engine::{PreparedGraph, SystemProfile};
//!
//! let g = vebo_graph::Dataset::YahooLike.build(0.05);
//! let pg = PreparedGraph::builder(g)
//!     .profile(SystemProfile::polymer_like())
//!     .build()
//!     .unwrap();
//! assert_eq!(pg.num_tasks(), 48);
//! ```

use crate::profile::{DenseLayout, SystemKind, SystemProfile};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use vebo_graph::{DeltaOverlay, Graph, PinnedEpoch};
use vebo_partition::partitioned::PartitionedSubCsr;
use vebo_partition::{BoundsError, EdgeOrder, PartitionBounds, PartitionedCoo};

/// The expensive, immutable part of a [`PreparedGraph`]: the snapshot
/// and every profile-specific layout derived from it. Shared by `Arc` so
/// versioned handles over the same snapshot (e.g. successive dirty
/// epochs of a dynamic graph) clone in O(1).
#[derive(Debug)]
struct PreparedCore {
    graph: Graph,
    profile: SystemProfile,
    /// Task-granularity destination ranges: one per dense task.
    tasks: PartitionBounds,
    /// Per-task COO chunks (GraphGrind dense layout).
    coo: Option<PartitionedCoo>,
    /// Per-task sub-CSRs (Polymer/GraphGrind sparse layout); shares the
    /// destination and weight arrays of a CSR-order `coo`.
    sub_csr: Option<PartitionedSubCsr>,
    /// Time spent building the partitioned layouts (Table VI).
    prep_time: Duration,
    /// The transposed graph's core, built on the first
    /// [`PreparedGraph::transposed`] call and shared from then on.
    transposed: OnceLock<Arc<PreparedCore>>,
}

/// A graph made ready for traversal under one system profile.
///
/// Since the dynamic-graph refactor this is a cheap-to-clone *versioned
/// handle*: an `Arc`'d core (snapshot + partitioned layouts) plus an
/// optional delta overlay and an epoch number. A handle without an
/// overlay behaves exactly as before. A handle carrying an overlay
/// (built via [`PreparedGraph::for_pin`] or
/// [`PreparedGraph::with_overlay`]) makes every edge traversal read the
/// overlay's merged neighbor lists for dirty vertices — see the
/// overlay-scan seam in [`edge_map`](crate::edge_map).
#[derive(Clone, Debug)]
pub struct PreparedGraph {
    core: Arc<PreparedCore>,
    overlay: Option<Arc<DeltaOverlay>>,
    epoch: u64,
}

/// Why a [`PreparedGraphBuilder`] could not produce a [`PreparedGraph`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PrepareError {
    /// The supplied boundaries are malformed (not monotonic, first not
    /// zero, or covering a different vertex count than the graph).
    Bounds(BoundsError),
}

impl std::fmt::Display for PrepareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrepareError::Bounds(e) => write!(f, "invalid partition boundaries: {e}"),
        }
    }
}

impl std::error::Error for PrepareError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PrepareError::Bounds(e) => Some(e),
        }
    }
}

impl From<BoundsError> for PrepareError {
    fn from(e: BoundsError) -> PrepareError {
        PrepareError::Bounds(e)
    }
}

/// Builds a [`PreparedGraph`], validating explicit boundaries and
/// routing VEBO's exact phase-3 boundaries per profile:
///
/// * GraphGrind — the boundaries become the partition bounds directly;
/// * Polymer — the socket-level boundaries are subdivided per thread;
/// * Ligra — no partitioning; boundaries are irrelevant.
#[derive(Debug)]
pub struct PreparedGraphBuilder {
    graph: Graph,
    profile: SystemProfile,
    vebo_starts: Option<Vec<usize>>,
    bounds: Option<PartitionBounds>,
    compress: bool,
}

impl PreparedGraphBuilder {
    /// Targets `profile` (default: [`SystemProfile::ligra_like`]).
    pub fn profile(mut self, profile: SystemProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Attaches delta-varint compressed neighbor lists
    /// ([`vebo_graph::CompressedCsr`]) to both graph halves before
    /// preparation, so the pull and push kernels stream the compressed
    /// working set instead of the raw target arrays. A no-op when the
    /// graph already carries a compressed companion (e.g. loaded from a
    /// `.vgr` version-3 file). Results are bit-identical either way.
    pub fn compress(mut self, compress: bool) -> Self {
        self.compress = compress;
        self
    }

    /// Supplies VEBO's exact phase-3 partition boundaries (Algorithm 2's
    /// "partition end points", in the *new* id space). `None` is
    /// accepted so harnesses can pass an ordering's optional boundaries
    /// straight through.
    pub fn vebo_starts<S: AsRef<[usize]>>(mut self, starts: Option<S>) -> Self {
        self.vebo_starts = starts.map(|s| s.as_ref().to_vec());
        self
    }

    /// Uses explicit destination ranges verbatim (overrides
    /// `vebo_starts`; no per-profile routing).
    pub fn bounds(mut self, bounds: PartitionBounds) -> Self {
        self.bounds = Some(bounds);
        self
    }

    /// Validates and materializes the layouts the profile needs.
    pub fn build(self) -> Result<PreparedGraph, PrepareError> {
        let t0 = Instant::now();
        let graph = if self.compress {
            self.graph.with_compressed()
        } else {
            self.graph
        };
        let n = graph.num_vertices();
        let check_covers = |b: &PartitionBounds| -> Result<(), PrepareError> {
            if b.num_vertices() != n {
                return Err(BoundsError::VertexCountMismatch {
                    expected: n,
                    found: b.num_vertices(),
                }
                .into());
            }
            Ok(())
        };
        let tasks = match (self.bounds, self.vebo_starts) {
            (Some(bounds), _) => {
                check_covers(&bounds)?;
                Some(bounds)
            }
            (None, Some(starts)) => match self.profile.kind {
                SystemKind::GraphGrindLike => {
                    let bounds = PartitionBounds::try_from_starts(starts)?;
                    check_covers(&bounds)?;
                    Some(bounds)
                }
                SystemKind::PolymerLike => {
                    let top = PartitionBounds::try_from_starts(starts)?;
                    check_covers(&top)?;
                    Some(subdivide_for_threads(&top, &self.profile.topology))
                }
                SystemKind::LigraLike => None,
            },
            (None, None) => None,
        };
        Ok(match tasks {
            Some(tasks) => PreparedGraph::from_parts(graph, self.profile, tasks, t0),
            None => PreparedGraph::new(graph, self.profile),
        })
    }
}

impl PreparedGraph {
    /// Starts a builder for `graph` — the single construction path every
    /// consumer (CLI, algorithms, harnesses, tests) goes through.
    pub fn builder(graph: Graph) -> PreparedGraphBuilder {
        PreparedGraphBuilder {
            graph,
            profile: SystemProfile::ligra_like(),
            vebo_starts: None,
            bounds: None,
            compress: false,
        }
    }

    /// Partitions `graph` according to `profile` and materializes the
    /// layouts that profile needs.
    pub fn new(graph: Graph, profile: SystemProfile) -> PreparedGraph {
        let t0 = Instant::now();
        let tasks = match profile.kind {
            SystemKind::LigraLike => {
                // Cilk chunks the iteration range by vertex count; no
                // graph-aware partitioning happens.
                PartitionBounds::vertex_balanced(graph.num_vertices(), profile.num_partitions)
            }
            SystemKind::PolymerLike => polymer_task_bounds(&graph, &profile),
            SystemKind::GraphGrindLike => {
                PartitionBounds::edge_balanced(&graph, profile.num_partitions)
            }
        };
        PreparedGraph::from_parts(graph, profile, tasks, t0)
    }

    /// Materializes the layouts for already-validated `tasks`; `t0` is
    /// when preparation began (so `prep_time` covers the bounds
    /// computation too, as Table VI charges it). One `O(n + m)` scatter
    /// builds the partition-major edge store; a CSR-order COO and the
    /// sub-CSRs are both views of it, so a profile that wants both pays
    /// for one store plus the sub-CSR's source index, and a profile that
    /// wants only sub-CSRs keeps no `src` stream.
    fn from_parts(
        graph: Graph,
        profile: SystemProfile,
        tasks: PartitionBounds,
        t0: Instant,
    ) -> PreparedGraph {
        let coo = match profile.dense_layout {
            DenseLayout::Coo(order) => Some(PartitionedCoo::build(&graph, &tasks, order)),
            DenseLayout::CscPull => None,
        };
        let sub_csr = profile.partitioned_sparse.then(|| match &coo {
            Some(coo) if coo.order() == EdgeOrder::Csr => PartitionedSubCsr::over(coo),
            _ => PartitionedSubCsr::build(&graph, &tasks),
        });
        let prep_time = t0.elapsed();
        PreparedGraph {
            core: Arc::new(PreparedCore {
                graph,
                profile,
                tasks,
                coo,
                sub_csr,
                prep_time,
                transposed: OnceLock::new(),
            }),
            overlay: None,
            epoch: 0,
        }
    }

    /// Prepares a pinned epoch of a dynamic graph: the snapshot goes
    /// through the normal profile preparation, and the pin's delta
    /// overlay (when non-empty) rides along so traversals observe the
    /// buffered mutations.
    pub fn for_pin(pin: &PinnedEpoch, profile: SystemProfile) -> PreparedGraph {
        let prepared = PreparedGraph::new(pin.graph().clone(), profile);
        let overlay = if pin.is_dirty() {
            Some(pin.overlay().clone())
        } else {
            None
        };
        PreparedGraph {
            core: prepared.core,
            overlay,
            epoch: pin.epoch(),
        }
    }

    /// A handle over the same core with a different overlay and epoch —
    /// O(1), no layout rebuild. This is how a serving loop publishes a
    /// dirty epoch cheaply between compactions. `None` (or an empty
    /// overlay) restores pure-snapshot reads.
    pub fn with_overlay(&self, overlay: Option<Arc<DeltaOverlay>>, epoch: u64) -> PreparedGraph {
        let overlay = overlay.filter(|ov| !ov.is_empty());
        PreparedGraph {
            core: self.core.clone(),
            overlay,
            epoch,
        }
    }

    /// The transposed graph under the same profile, with this handle's
    /// overlay (if any) transposed alongside and the same epoch. The
    /// transposed layouts are built on the first call — exactly as
    /// `PreparedGraph::new(self.graph().transposed(), profile)` would —
    /// and memoised in the shared core, so later calls and every handle
    /// over the same core ([`Clone`], [`with_overlay`](Self::with_overlay))
    /// reuse them; only the overlay's dirty lists are copied per call.
    pub fn transposed(&self) -> PreparedGraph {
        let core = self.core.transposed.get_or_init(|| {
            PreparedGraph::new(self.core.graph.transposed(), self.core.profile).core
        });
        PreparedGraph {
            core: core.clone(),
            overlay: self.overlay.as_ref().map(|ov| Arc::new(ov.transposed())),
            epoch: self.epoch,
        }
    }

    /// The delta overlay, when this handle describes a dirty epoch.
    pub fn overlay(&self) -> Option<&Arc<DeltaOverlay>> {
        self.overlay.as_ref()
    }

    /// The epoch this handle describes (0 for plain static preparation).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Overlay-aware out-degree of `v`: the merged list's length for
    /// dirty vertices, the snapshot degree otherwise.
    pub fn out_degree(&self, v: vebo_graph::VertexId) -> usize {
        match &self.overlay {
            Some(ov) => ov.out_degree(&self.core.graph, v),
            None => self.core.graph.out_degree(v),
        }
    }

    /// Overlay-aware out-neighbor list of `v`.
    pub fn out_neighbors(&self, v: vebo_graph::VertexId) -> &[vebo_graph::VertexId] {
        match &self.overlay {
            Some(ov) => ov.out_neighbors(&self.core.graph, v),
            None => self.core.graph.out_neighbors(v),
        }
    }

    /// The underlying graph (the snapshot; ignores any overlay).
    pub fn graph(&self) -> &Graph {
        &self.core.graph
    }

    /// The CSR storage backing of the underlying graph —
    /// [`Mapped`](vebo_graph::StorageKind::Mapped) when the graph was
    /// loaded zero-copy from a memory-mapped `.vgr` file. Preparation is
    /// storage-agnostic: partition bounds, COO chunks, and sub-CSRs are
    /// derived identically from owned and mapped graphs, and every
    /// traversal kernel reads through flat slices either way.
    pub fn storage_kind(&self) -> vebo_graph::StorageKind {
        self.core.graph.storage_kind()
    }

    /// The profile this graph was prepared for.
    pub fn profile(&self) -> &SystemProfile {
        &self.core.profile
    }

    /// Dense-task destination ranges.
    pub fn tasks(&self) -> &PartitionBounds {
        &self.core.tasks
    }

    /// Number of dense tasks.
    pub fn num_tasks(&self) -> usize {
        self.core.tasks.num_partitions()
    }

    /// The COO layout, if this profile uses one.
    pub fn coo(&self) -> Option<&PartitionedCoo> {
        self.core.coo.as_ref()
    }

    /// The sub-CSR layout, if this profile uses one.
    pub fn sub_csr(&self) -> Option<&PartitionedSubCsr> {
        self.core.sub_csr.as_ref()
    }

    /// Layout construction time (the partitioning column of Table VI):
    /// bounds, the one partition-major scatter, the sub-CSR source index,
    /// and — for [`EdgeOrder::Hilbert`] only — the per-partition key sort.
    pub fn prep_time(&self) -> Duration {
        self.core.prep_time
    }
}

/// Polymer's two-level split: edge-balanced partitioning by destination
/// into one partition per socket, then vertex-balanced subdivision of each
/// partition among the socket's threads. Thread-level imbalance inside a
/// socket is exactly where VEBO's vertex balance pays off (§V-F).
fn polymer_task_bounds(graph: &Graph, profile: &SystemProfile) -> PartitionBounds {
    let top = PartitionBounds::edge_balanced(graph, profile.topology.num_sockets);
    subdivide_for_threads(&top, &profile.topology)
}

/// Subdivides each socket-level partition into one vertex-balanced chunk
/// per thread of that socket (Polymer's intra-socket static split). Public
/// so harnesses can feed VEBO's *exact* phase-3 boundaries through the
/// same subdivision.
pub fn subdivide_for_threads(
    top: &PartitionBounds,
    topology: &vebo_partition::numa::NumaTopology,
) -> PartitionBounds {
    let per_socket = topology.threads_per_socket();
    let n = top.num_vertices();
    let mut starts = Vec::with_capacity(top.num_partitions() * per_socket + 1);
    for (_, range) in top.iter() {
        let len = range.len();
        for k in 0..per_socket {
            starts.push(range.start + k * len / per_socket);
        }
    }
    starts.push(n);
    PartitionBounds::from_starts(starts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vebo_graph::Dataset;

    #[test]
    fn ligra_prepares_vertex_chunks_without_layouts() {
        let g = Dataset::YahooLike.build(0.05);
        let pg = PreparedGraph::new(g, SystemProfile::ligra_like());
        assert_eq!(pg.num_tasks(), 3072);
        assert!(pg.coo().is_none());
        assert!(pg.sub_csr().is_none());
    }

    #[test]
    fn polymer_prepares_48_static_tasks() {
        let g = Dataset::YahooLike.build(0.05);
        let pg = PreparedGraph::new(g, SystemProfile::polymer_like());
        assert_eq!(pg.num_tasks(), 48);
        assert!(pg.coo().is_none());
        assert!(pg.sub_csr().is_some());
        assert_eq!(pg.sub_csr().unwrap().num_partitions(), 48);
    }

    #[test]
    fn graphgrind_prepares_coo_and_subcsr() {
        let g = Dataset::YahooLike.build(0.05);
        let m = g.num_edges();
        let pg = PreparedGraph::new(g, SystemProfile::graphgrind_like(EdgeOrder::Hilbert));
        assert_eq!(pg.num_tasks(), 384);
        assert_eq!(pg.coo().unwrap().num_edges(), m);
        assert_eq!(pg.sub_csr().unwrap().num_edges(), m);
        assert!(pg.prep_time() > Duration::ZERO);
    }

    #[test]
    fn polymer_tasks_nest_in_socket_partitions() {
        let g = Dataset::LiveJournalLike.build(0.05);
        let top = PartitionBounds::edge_balanced(&g, 4);
        let pg = PreparedGraph::new(g, SystemProfile::polymer_like());
        // Every socket boundary must appear among the task boundaries.
        for &s in top.starts() {
            assert!(pg.tasks().starts().contains(&s), "boundary {s} lost");
        }
    }

    #[test]
    fn transposed_core_is_built_once_and_matches_a_fresh_build() {
        let g = Dataset::LiveJournalLike.build(0.05);
        for profile in [
            SystemProfile::ligra_like(),
            SystemProfile::polymer_like(),
            SystemProfile::graphgrind_like(EdgeOrder::Csr),
        ] {
            let pg = PreparedGraph::new(g.clone(), profile);
            assert!(pg.core.transposed.get().is_none(), "built eagerly");
            let (a, b) = (pg.transposed(), pg.transposed());
            let sibling = pg.with_overlay(None, 7).transposed();
            assert!(Arc::ptr_eq(&a.core, &b.core));
            assert!(Arc::ptr_eq(&a.core, &sibling.core));
            assert_eq!(sibling.epoch(), 7);

            let fresh = PreparedGraph::new(g.transposed(), profile);
            let tag = profile.kind.name();
            assert_eq!(a.tasks().starts(), fresh.tasks().starts(), "{tag}");
            assert_eq!(
                a.coo().map(|c| c.num_edges()),
                fresh.coo().map(|c| c.num_edges()),
                "{tag}"
            );
            assert_eq!(
                a.sub_csr().map(|s| s.num_edges()),
                fresh.sub_csr().map(|s| s.num_edges()),
                "{tag}"
            );
            assert_eq!(a.graph().csr(), g.csc(), "{tag}");
        }
    }

    #[test]
    fn transposed_handle_carries_the_swapped_overlay() {
        let dg = vebo_graph::DynamicGraph::new(Graph::from_edges(3, &[(0, 1)], true));
        dg.insert_edge(1, 2).unwrap();
        let pg = PreparedGraph::for_pin(&dg.pin(), SystemProfile::ligra_like());
        let tg = pg.transposed();
        assert_eq!(tg.epoch(), pg.epoch());
        assert_eq!(tg.out_neighbors(2), &[1]);
        assert_eq!(tg.out_neighbors(1), &[0]);
        assert!(pg.with_overlay(None, 0).transposed().overlay().is_none());
    }

    #[test]
    fn builder_uses_explicit_ranges() {
        let g = Dataset::YahooLike.build(0.05);
        let n = g.num_vertices();
        let bounds = PartitionBounds::vertex_balanced(n, 10);
        let pg = PreparedGraph::builder(g)
            .profile(SystemProfile::graphgrind_like(EdgeOrder::Csr))
            .bounds(bounds)
            .build()
            .unwrap();
        assert_eq!(pg.num_tasks(), 10);
    }

    #[test]
    fn builder_routes_vebo_starts_per_profile() {
        let g = Dataset::YahooLike.build(0.05);
        let n = g.num_vertices();
        // Fake "exact boundaries": 4 socket-level partitions.
        let starts: Vec<usize> = (0..=4).map(|p| p * n / 4).collect();

        // GraphGrind: boundaries become the bounds directly.
        let pg = PreparedGraph::builder(g.clone())
            .profile(SystemProfile::graphgrind_like(EdgeOrder::Csr))
            .vebo_starts(Some(&starts))
            .build()
            .unwrap();
        assert_eq!(pg.num_tasks(), 4);
        assert_eq!(pg.tasks().starts(), &starts[..]);

        // Polymer: socket boundaries are subdivided among 12 threads each.
        let pg = PreparedGraph::builder(g.clone())
            .profile(SystemProfile::polymer_like())
            .vebo_starts(Some(&starts))
            .build()
            .unwrap();
        assert_eq!(pg.num_tasks(), 48);
        for &s in &starts {
            assert!(pg.tasks().starts().contains(&s), "socket boundary {s} lost");
        }

        // Ligra: boundaries are irrelevant; Cilk-style vertex chunks.
        let pg = PreparedGraph::builder(g)
            .profile(SystemProfile::ligra_like())
            .vebo_starts(Some(&starts))
            .build()
            .unwrap();
        assert_eq!(pg.num_tasks(), 3072);
    }

    #[test]
    fn builder_compress_attaches_companion_to_both_halves() {
        let g = Dataset::LiveJournalLike.build(0.05);
        let pg = PreparedGraph::builder(g)
            .profile(SystemProfile::ligra_like())
            .compress(true)
            .build()
            .unwrap();
        assert_eq!(pg.storage_kind(), vebo_graph::StorageKind::Compressed);
        assert!(pg.graph().csr().compressed().is_some());
        assert!(pg.graph().csc().compressed().is_some());
        let stats = pg.graph().compression_stats().unwrap();
        assert!(stats.ratio() > 0.0);
    }

    #[test]
    fn builder_rejects_malformed_starts_with_typed_errors() {
        let g = Dataset::YahooLike.build(0.05);
        let n = g.num_vertices();
        let profile = SystemProfile::graphgrind_like(EdgeOrder::Csr);

        let err = PreparedGraph::builder(g.clone())
            .profile(profile)
            .vebo_starts(Some(vec![0, n / 2, n / 4, n]))
            .build()
            .unwrap_err();
        assert!(
            matches!(
                err,
                PrepareError::Bounds(vebo_partition::BoundsError::NotMonotonic { .. })
            ),
            "{err:?}"
        );

        let err = PreparedGraph::builder(g.clone())
            .profile(profile)
            .vebo_starts(Some(vec![0, n + 7]))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            PrepareError::Bounds(vebo_partition::BoundsError::VertexCountMismatch {
                expected: n,
                found: n + 7,
            })
        );

        let err = PreparedGraph::builder(g)
            .profile(SystemProfile::polymer_like())
            .vebo_starts(Some(vec![3, n]))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("first boundary"), "{err}");
    }
}
