//! The benchmark's engine sink: an [`InstrumentSink`] attached to every
//! executor a workload builds, reducing the reports the engine already
//! produces to a handful of counters. Attached in traced and untraced
//! runs alike — `medges_per_s` needs the edge count — and costs a few
//! relaxed atomic adds per `edge_map`, so it does not move what it counts.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use vebo_engine::{DensityClass, EdgeMapReport, InstrumentSink, ShardOpReport, VertexMapReport};

/// Shards the benchmark pins every sharded executor to.
pub const SHARDS: usize = 2;

#[derive(Debug, Default)]
pub struct EngineCounters {
    edge_map_calls: AtomicU64,
    dense_edges: AtomicU64,
    sparse_edges: AtomicU64,
    dense_nanos: AtomicU64,
    sparse_nanos: AtomicU64,
    vertex_map_nanos: AtomicU64,
    tasks_stolen: AtomicU64,
    op_wall_nanos: AtomicU64,
    shard_busy_nanos: [AtomicU64; SHARDS],
}

/// A point-in-time copy of [`EngineCounters`]; subtract two to scope the
/// counts to a phase.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineSnapshot {
    pub edge_map_calls: u64,
    pub dense_edges: u64,
    pub sparse_edges: u64,
    pub dense_nanos: u64,
    pub sparse_nanos: u64,
    pub vertex_map_nanos: u64,
    pub tasks_stolen: u64,
    pub op_wall_nanos: u64,
    pub shard_busy_nanos: [u64; SHARDS],
}

impl EngineCounters {
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            edge_map_calls: self.edge_map_calls.load(Relaxed),
            dense_edges: self.dense_edges.load(Relaxed),
            sparse_edges: self.sparse_edges.load(Relaxed),
            dense_nanos: self.dense_nanos.load(Relaxed),
            sparse_nanos: self.sparse_nanos.load(Relaxed),
            vertex_map_nanos: self.vertex_map_nanos.load(Relaxed),
            tasks_stolen: self.tasks_stolen.load(Relaxed),
            op_wall_nanos: self.op_wall_nanos.load(Relaxed),
            shard_busy_nanos: [
                self.shard_busy_nanos[0].load(Relaxed),
                self.shard_busy_nanos[1].load(Relaxed),
            ],
        }
    }
}

/// Wall time of one operation: fan-out to fan-in on the sharded backend,
/// the sum of the (sequentially run) tasks otherwise.
fn wall_nanos(shards: &Option<ShardOpReport>, task_nanos: u64) -> u64 {
    shards.as_ref().map_or(task_nanos, |s| s.wall_nanos)
}

impl InstrumentSink for EngineCounters {
    fn record_edge_map(&self, _class: DensityClass, report: &EdgeMapReport) {
        let nanos = wall_nanos(&report.shards, report.total_nanos());
        let (edges, time) = if report.traversal.is_dense() {
            (&self.dense_edges, &self.dense_nanos)
        } else {
            (&self.sparse_edges, &self.sparse_nanos)
        };
        self.edge_map_calls.fetch_add(1, Relaxed);
        edges.fetch_add(report.total_edges(), Relaxed);
        time.fetch_add(nanos, Relaxed);
    }

    fn record_vertex_map(&self, report: &VertexMapReport) {
        self.vertex_map_nanos
            .fetch_add(wall_nanos(&report.shards, report.total_nanos()), Relaxed);
    }

    fn record_shard_op(&self, op: &ShardOpReport) {
        self.tasks_stolen.fetch_add(op.total_stolen(), Relaxed);
        self.op_wall_nanos.fetch_add(op.wall_nanos, Relaxed);
        for (slot, shard) in self.shard_busy_nanos.iter().zip(&op.shards) {
            slot.fetch_add(shard.busy_nanos, Relaxed);
        }
    }
}

impl EngineSnapshot {
    pub fn since(&self, earlier: &EngineSnapshot) -> EngineSnapshot {
        EngineSnapshot {
            edge_map_calls: self.edge_map_calls - earlier.edge_map_calls,
            dense_edges: self.dense_edges - earlier.dense_edges,
            sparse_edges: self.sparse_edges - earlier.sparse_edges,
            dense_nanos: self.dense_nanos - earlier.dense_nanos,
            sparse_nanos: self.sparse_nanos - earlier.sparse_nanos,
            vertex_map_nanos: self.vertex_map_nanos - earlier.vertex_map_nanos,
            tasks_stolen: self.tasks_stolen - earlier.tasks_stolen,
            op_wall_nanos: self.op_wall_nanos - earlier.op_wall_nanos,
            shard_busy_nanos: [
                self.shard_busy_nanos[0] - earlier.shard_busy_nanos[0],
                self.shard_busy_nanos[1] - earlier.shard_busy_nanos[1],
            ],
        }
    }

    pub fn edges(&self) -> u64 {
        self.dense_edges + self.sparse_edges
    }

    /// Busy time over wall time, averaged over the shards: what is lost
    /// from 1.0 is barrier wait.
    pub fn shard_busy_share(&self) -> f64 {
        let busy: u64 = self.shard_busy_nanos.iter().sum();
        ratio(busy as f64, (self.op_wall_nanos * SHARDS as u64) as f64)
    }

    /// Busiest shard over the mean shard (1.0 = perfectly balanced).
    pub fn shard_imbalance(&self) -> f64 {
        let max = *self.shard_busy_nanos.iter().max().unwrap_or(&0) as f64;
        let mean = self.shard_busy_nanos.iter().sum::<u64>() as f64 / SHARDS as f64;
        ratio(max, mean)
    }
}

/// `num / den`, 0 when the denominator is 0 (layer not exercised).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
