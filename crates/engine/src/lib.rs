//! # vebo-engine
//!
//! A shared-memory graph processing engine in the Ligra mold, rebuilt from
//! scratch for the VEBO reproduction. One engine, three **system
//! profiles** capturing the load-balance-relevant design axes of the three
//! frameworks the paper evaluates (Ligra, Polymer, GraphGrind — §IV):
//! partition count, scheduling policy, and dense-iteration layout.
//!
//! Execution is organized around one object, the [`Executor`]: it owns
//! the parallelism mode, the NUMA placement plan binding each task to
//! the socket that owns its partition's arrays, the scheduling policy
//! used for makespan simulation, and the instrumentation sinks that
//! accumulate [`RunReport`]s. Graphs are prepared for a profile through
//! [`PreparedGraph::builder`], which also routes VEBO's exact phase-3
//! boundaries to the right layout per profile.
//!
//! The container this reproduction runs in has a single hardware thread,
//! so parallel wall-clock cannot be observed directly; instead, every
//! `edge_map`/`vertex_map` measures per-task work and a deterministic
//! [`schedule`] simulator computes the 48-thread makespan under each
//! profile's scheduling policy (static vs work-stealing). That measured
//! sequential mode has one concurrent counterpart, conformance-tested
//! for equivalence: the [`sharded`] backend ([`ExecMode::Sharded`]) —
//! statically assigned partitions on long-lived per-shard worker
//! threads with a work-stealing fallback — which runs one-shot batch
//! jobs and request loops firing many small operations (see
//! `vebo-serve`) alike.
//!
//! ```
//! use vebo_engine::{Executor, Frontier, PreparedGraph, SystemProfile};
//! use vebo_engine::ops::EdgeOp;
//! use std::sync::atomic::{AtomicU32, Ordering};
//!
//! struct Hops(Vec<AtomicU32>);
//! impl EdgeOp for Hops {
//!     fn update(&self, _s: u32, d: u32, _w: f32) -> bool {
//!         self.0[d as usize].store(1, Ordering::Relaxed);
//!         true
//!     }
//!     fn update_atomic(&self, s: u32, d: u32, w: f32) -> bool { self.update(s, d, w) }
//!     fn cond(&self, d: u32) -> bool { self.0[d as usize].load(Ordering::Relaxed) == 0 }
//! }
//!
//! let g = vebo_graph::Dataset::YahooLike.build(0.05);
//! let n = g.num_vertices();
//! let profile = SystemProfile::polymer_like();
//! let exec = Executor::new(profile);
//! let pg = PreparedGraph::builder(g).profile(profile).build().unwrap();
//! let op = Hops((0..n).map(|_| AtomicU32::new(0)).collect());
//! let start = Frontier::single(n, 0);
//! let (next, report) = exec.edge_map(&pg, &start, &op);
//! assert_eq!(next.len(), report.output_size);
//! // Statically scheduled profiles place every task on a socket.
//! let plan = exec.placement(pg.num_tasks()).unwrap();
//! assert_eq!(plan.num_tasks(), pg.num_tasks());
//! ```

#![warn(missing_docs)]

pub mod edge_map;
pub mod executor;
pub mod frontier;
pub mod instrument;
pub mod ops;
pub mod prepared;
pub mod profile;
pub mod schedule;
pub mod sharded;
pub mod shared;
pub mod vertex_map;

pub use edge_map::{EdgeMapReport, TaskStats, Traversal};
pub use executor::{Direction, ExecMode, Executor};
pub use frontier::{DensityClass, Frontier};
pub use instrument::{
    InstrumentSink, KindLatency, Recorder, RunReport, ShardMetrics, ShardMetricsSink, ShardTotals,
};
pub use ops::EdgeOp;
pub use prepared::{subdivide_for_threads, PrepareError, PreparedGraph, PreparedGraphBuilder};
pub use profile::{DenseLayout, Scheduling, SystemKind, SystemProfile};
pub use schedule::{simulate, MakespanReport};
pub use sharded::{ShardOpReport, ShardOpStats, ShardedExecutor};
pub use vertex_map::VertexMapReport;
