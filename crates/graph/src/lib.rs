//! # vebo-graph
//!
//! Graph substrate for the VEBO reproduction (Sun, Vandierendonck,
//! Nikolopoulos, PPoPP 2019): compact in-memory graph representations,
//! synthetic graph generators matching the paper's datasets, vertex
//! permutation machinery, and simple text I/O.
//!
//! The central type is [`Graph`], which stores a directed graph as a pair of
//! adjacency structures: a CSR (out-edges, indexed by source) and a CSC
//! (in-edges, indexed by destination). Undirected graphs are stored
//! symmetrized, so every undirected edge contributes two arcs.
//!
//! ```
//! use vebo_graph::Graph;
//!
//! // The 6-vertex example graph from Figure 3 of the paper.
//! let g = Graph::from_edges(6, &[(0, 4), (1, 4), (2, 4), (3, 4), (4, 5),
//!                                (5, 1), (5, 2), (2, 5), (1, 2), (3, 1),
//!                                (4, 3), (5, 3), (2, 0), (4, 1)], true);
//! assert_eq!(g.num_vertices(), 6);
//! assert_eq!(g.in_degree(4), 4);
//! ```

#![warn(missing_docs)]

pub mod adjacency;
pub mod compress;
pub mod coo;
pub mod datasets;
pub mod degree;
pub mod digest;
pub mod dynamic;
pub mod gen;
pub mod graph;
pub mod io;
pub mod par;
pub mod permute;
pub mod storage;
pub mod types;
pub mod validate;

pub use adjacency::Adjacency;
pub use compress::{CompressedCsr, CompressionStats, NeighborDecoder, DECODE_BLOCK};
pub use coo::Coo;
pub use datasets::{Dataset, DatasetSpec};
pub use digest::digest_u64s;
pub use dynamic::{
    CompactionStats, Compactor, DeltaOverlay, DynamicGraph, EdgeMut, OverlayHalf,
    PendingCompaction, PinnedEpoch,
};
pub use graph::{mix64, Graph};
pub use io::{Format, LoadMode, StreamConfig};
pub use par::SharedSlice;
pub use permute::{Permutation, VertexOrdering};
pub use storage::{GraphStorage, MappedSlice, Mmap, StorageKind};
pub use types::{EdgeId, GraphError, VertexId};
