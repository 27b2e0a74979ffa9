//! The metric registry: every name `BENCHMARK.json` lists, with its unit.
//! A run reports *every* end-to-end metric (untraced) or *every* per-layer
//! metric (traced); a per-layer metric of a layer the workload does not
//! exercise reads 0 — which is the "bypassed" half of the prediction map
//! in the README.

use crate::json::Json;
use std::collections::BTreeMap;

pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("time_to_solution_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("medges_per_s", "1e6/s"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

pub const PER_LAYER: [(&str, &str); 64] = [
    ("graph.load_mmap_s", "s"),
    ("graph.load_buffered_s", "s"),
    ("graph.load_bytes", "B"),
    ("graph.permute_s", "s"),
    ("graph.bytes_per_edge", "B"),
    ("graph.decode_ns_per_edge", "ns"),
    ("graph.mutate_p50_us", "us"),
    ("graph.pin_p50_us", "us"),
    ("graph.compact_p50_ms", "ms"),
    ("graph.compactions", "count"),
    ("graph.compact_edges_rewritten", "count"),
    ("core.vebo_s", "s"),
    ("core.edge_imbalance", "count"),
    ("core.vertex_imbalance", "count"),
    ("partition.prepare_s", "s"),
    ("engine.dense_ns_per_edge", "ns"),
    ("engine.sparse_ns_per_edge", "ns"),
    ("engine.edges_traversed", "count"),
    ("engine.edge_map_calls", "count"),
    ("engine.dense_share", "ratio"),
    ("engine.vertex_map_s", "s"),
    ("engine.shard_busy_share", "ratio"),
    ("engine.shard_imbalance", "ratio"),
    ("engine.tasks_stolen", "count"),
    ("algorithms.pr_s", "s"),
    ("algorithms.spmv_s", "s"),
    ("algorithms.bp_s", "s"),
    ("algorithms.bfs_s", "s"),
    ("algorithms.bc_s", "s"),
    ("algorithms.bf_s", "s"),
    ("algorithms.cc_s", "s"),
    ("algorithms.prd_s", "s"),
    ("algorithms.iterations", "count"),
    ("serve.label_p50_us", "us"),
    ("serve.bfs_p50_ms", "ms"),
    ("serve.pr_p50_ms", "ms"),
    ("serve.add_p50_us", "us"),
    ("serve.del_p50_us", "us"),
    ("serve.compaction_p50_ms", "ms"),
    ("serve.reorders", "count"),
    ("serve.log_stalls", "count"),
    ("serve.mutation_stall_share", "ratio"),
    ("serve-net.overhead_p50_us", "us"),
    ("serve-net.batches", "count"),
    ("serve-net.batch_mean", "count"),
    ("serve-net.coalesced_share", "ratio"),
    ("serve-net.queue_depth_mean", "count"),
    ("serve-net.busy", "count"),
    ("serve-net.fair_yields", "count"),
    ("net.frame_ns", "ns"),
    ("distributed.place_s", "s"),
    ("distributed.plan_s", "s"),
    ("distributed.replication_factor", "ratio"),
    ("distributed.worker_setup_s", "s"),
    ("distributed.compute_s", "s"),
    ("distributed.gather_s", "s"),
    ("distributed.scatter_s", "s"),
    ("distributed.wire_overhead_s", "s"),
    ("distributed.supersteps", "count"),
    ("distributed.values_sent", "count"),
    ("perf.loadgen_late_p99_ms", "ms"),
    ("perf.trace_overhead_share", "ratio"),
    ("perf.op_samples", "count"),
    ("perf.tail_percentile", "ratio"),
];

/// Metric values by name, filled by a workload and completed (missing →
/// 0) against a registry list before printing.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|&(n, _)| n == name),
            "metric {name} is not in the registry"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The `metrics` object of the result line: every metric of `list`,
    /// in registry order.
    pub fn to_json(&self, list: &[(&'static str, &'static str)]) -> Json {
        Json::obj(list.iter().map(|&(name, unit)| {
            (
                name,
                Json::obj([
                    ("value", Json::Num(self.get(name))),
                    ("unit", Json::str(unit)),
                ]),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn registry(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(declared(&doc, "end_to_end"), registry(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), registry(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn missing_metrics_read_zero_and_order_follows_the_registry() {
        let mut m = Metrics::default();
        m.set("run_s", 1.5);
        let json = m.to_json(&END_TO_END);
        let pairs = json.as_obj().unwrap();
        assert_eq!(pairs.len(), END_TO_END.len());
        assert_eq!(pairs[0].0, "setup_s");
        assert_eq!(pairs[0].1.get("value"), Some(&Json::Num(0.0)));
        assert_eq!(pairs[1].1.get("value"), Some(&Json::Num(1.5)));
    }
}
