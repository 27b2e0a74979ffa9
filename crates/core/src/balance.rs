//! Load-balance metrics: the Δ (edge) and δ (vertex) imbalances of §III-A
//! plus spread/deviation statistics used throughout the evaluation.

use crate::vebo::VeboResult;
use vebo_graph::Graph;

/// Per-partitioning balance summary.
#[derive(Clone, Debug, PartialEq)]
pub struct BalanceReport {
    /// `w[p]`: in-edges per partition.
    pub edge_counts: Vec<u64>,
    /// `u[p]`: vertices per partition.
    pub vertex_counts: Vec<usize>,
    /// `Δ(n) = max w - min w`.
    pub edge_imbalance: u64,
    /// `δ(n) = max u - min u`.
    pub vertex_imbalance: usize,
}

impl BalanceReport {
    /// Builds from explicit per-partition counts.
    pub fn from_counts(edge_counts: Vec<u64>, vertex_counts: Vec<usize>) -> BalanceReport {
        assert_eq!(edge_counts.len(), vertex_counts.len());
        assert!(!edge_counts.is_empty());
        let edge_imbalance = edge_counts.iter().max().unwrap() - edge_counts.iter().min().unwrap();
        let vertex_imbalance =
            vertex_counts.iter().max().unwrap() - vertex_counts.iter().min().unwrap();
        BalanceReport {
            edge_counts,
            vertex_counts,
            edge_imbalance,
            vertex_imbalance,
        }
    }

    /// Builds from a [`VeboResult`].
    pub fn from_result(r: &VeboResult) -> BalanceReport {
        Self::from_counts(r.edge_counts.clone(), r.vertex_counts.clone())
    }

    /// Builds from an arbitrary per-vertex partition assignment: counts
    /// each vertex and its in-edges toward its assigned partition
    /// (partitioning *by destination*, as everywhere in the paper).
    pub fn from_assignment(g: &Graph, assignment: &[u32], num_partitions: usize) -> BalanceReport {
        assert_eq!(assignment.len(), g.num_vertices());
        let mut edges = vec![0u64; num_partitions];
        let mut verts = vec![0usize; num_partitions];
        for v in g.vertices() {
            let p = assignment[v as usize] as usize;
            verts[p] += 1;
            edges[p] += g.in_degree(v) as u64;
        }
        Self::from_counts(edges, verts)
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.edge_counts.len()
    }

    /// Max/min ratio of edge counts (the "spread" the paper quotes, e.g.
    /// 6.9x vs 1.6x for PR on Twitter). Returns `f64::INFINITY` when some
    /// partition is empty.
    pub fn edge_spread(&self) -> f64 {
        let max = *self.edge_counts.iter().max().unwrap() as f64;
        let min = *self.edge_counts.iter().min().unwrap() as f64;
        if min == 0.0 {
            f64::INFINITY
        } else {
            max / min
        }
    }

    /// `true` when both optimality criteria of §III-A hold.
    pub fn is_optimal(&self) -> bool {
        self.edge_imbalance <= 1 && self.vertex_imbalance <= 1
    }
}

/// Per-partition in-edge counts under explicit destination-range
/// boundaries (`starts[p]..starts[p + 1]` is partition `p`'s vertex
/// range). This is the drift observable of [`DriftTrigger`]: the same
/// `w[p]` the VEBO objective balances, recomputed cheaply for the
/// current snapshot without rerunning placement.
pub fn edge_counts_for_starts(g: &Graph, starts: &[usize]) -> Vec<u64> {
    assert!(starts.len() >= 2, "need at least one partition");
    assert_eq!(*starts.last().unwrap(), g.num_vertices());
    starts
        .windows(2)
        .map(|w| (w[0]..w[1]).map(|v| g.in_degree(v as u32) as u64).sum())
        .collect()
}

/// Decides when a mutated graph has drifted far enough from the balance
/// the current VEBO placement was computed for that recomputing the
/// placement is worth its cost — the "reordering is cheap enough to
/// redo" claim of the paper applied online.
///
/// The trigger keeps the per-partition edge counts observed when the
/// placement was (re)computed and compares them against the counts of a
/// new snapshot under the *same* boundaries: drift is the largest
/// absolute per-partition deviation, relative to the mean baseline load.
/// Below the threshold the old partition bounds are reused for the new
/// snapshot; at or above it the caller recomputes placement and calls
/// [`DriftTrigger::rebase`].
#[derive(Clone, Debug)]
pub struct DriftTrigger {
    threshold: f64,
    baseline: Vec<u64>,
}

impl DriftTrigger {
    /// Starts from the partition loads the current placement balances.
    /// `threshold` is the relative drift at which reordering fires
    /// (e.g. `0.2` = a partition strayed by ≥ 20% of the mean load).
    pub fn new(threshold: f64, baseline: Vec<u64>) -> DriftTrigger {
        assert!(threshold >= 0.0 && !baseline.is_empty());
        DriftTrigger {
            threshold,
            baseline,
        }
    }

    /// The configured firing threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The baseline per-partition edge counts.
    pub fn baseline(&self) -> &[u64] {
        &self.baseline
    }

    /// Relative drift of `current` against the baseline: the largest
    /// per-partition |Δw| divided by the mean baseline load. An empty
    /// baseline mean (edgeless graph) reports drift 0 unless edges
    /// appeared, in which case it is `f64::INFINITY`.
    pub fn drift(&self, current: &[u64]) -> f64 {
        assert_eq!(current.len(), self.baseline.len());
        let max_dev = self
            .baseline
            .iter()
            .zip(current)
            .map(|(&b, &c)| b.abs_diff(c))
            .max()
            .unwrap_or(0);
        let mean = self.baseline.iter().sum::<u64>() as f64 / self.baseline.len() as f64;
        if mean == 0.0 {
            if max_dev == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            max_dev as f64 / mean
        }
    }

    /// `true` when `current` drifted at or past the threshold and the
    /// caller should recompute placement.
    pub fn should_reorder(&self, current: &[u64]) -> bool {
        self.drift(current) >= self.threshold
    }

    /// Adopts `baseline` as the loads of a freshly computed placement.
    pub fn rebase(&mut self, baseline: Vec<u64>) {
        assert!(!baseline.is_empty());
        self.baseline = baseline;
    }
}

/// Distribution summary (min / median / std-dev / max) in the format of
/// Table IV.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistributionSummary {
    /// Smallest value.
    pub min: f64,
    /// Median value.
    pub median: f64,
    /// Standard deviation.
    pub std_dev: f64,
    /// Largest value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

/// Summarizes an arbitrary sample (e.g. active edges per partition).
pub fn summarize(values: &[f64]) -> DistributionSummary {
    assert!(!values.is_empty());
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    DistributionSummary {
        min: sorted[0],
        median,
        std_dev: std_dev(sorted.iter().copied()),
        max: sorted[n - 1],
        mean: sorted.iter().sum::<f64>() / n as f64,
    }
}

fn std_dev(values: impl Iterator<Item = f64> + Clone) -> f64 {
    let n = values.clone().count();
    if n < 2 {
        return 0.0;
    }
    let mean = values.clone().sum::<f64>() / n as f64;
    let var = values.map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vebo::Vebo;
    use vebo_graph::Dataset;

    #[test]
    fn from_counts_computes_imbalances() {
        let r = BalanceReport::from_counts(vec![10, 12, 11], vec![5, 5, 6]);
        assert_eq!(r.edge_imbalance, 2);
        assert_eq!(r.vertex_imbalance, 1);
        assert!(!r.is_optimal());
    }

    #[test]
    fn optimal_when_both_within_one() {
        let r = BalanceReport::from_counts(vec![10, 11], vec![5, 5]);
        assert!(r.is_optimal());
    }

    #[test]
    fn spread_handles_zero_partitions() {
        let r = BalanceReport::from_counts(vec![0, 8], vec![1, 1]);
        assert!(r.edge_spread().is_infinite());
        let r2 = BalanceReport::from_counts(vec![4, 8], vec![1, 1]);
        assert!((r2.edge_spread() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn from_assignment_counts_in_edges() {
        let g = vebo_graph::Graph::from_edges(4, &[(0, 1), (2, 1), (3, 1), (1, 0)], true);
        // partition 0 = {0, 1}, partition 1 = {2, 3}
        let r = BalanceReport::from_assignment(&g, &[0, 0, 1, 1], 2);
        assert_eq!(r.edge_counts, vec![4, 0]); // all edges point into {0, 1}
        assert_eq!(r.vertex_counts, vec![2, 2]);
    }

    #[test]
    fn from_result_equals_from_assignment() {
        let g = Dataset::YahooLike.build(0.05);
        let res = Vebo::new(24).compute_full(&g);
        let a = BalanceReport::from_result(&res);
        let b = BalanceReport::from_assignment(&g, &res.assignment, 24);
        assert_eq!(a, b);
    }

    #[test]
    fn summarize_known_values() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.mean, 2.5);
        // sample std dev of 1..4 = sqrt(5/3)
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summarize_odd_length_median() {
        let s = summarize(&[5.0, 1.0, 3.0]);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn std_dev_of_constant_is_zero() {
        let s = summarize(&[2.0, 2.0, 2.0]);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn edge_counts_for_starts_partitions_in_degrees() {
        let g = vebo_graph::Graph::from_edges(4, &[(0, 1), (2, 1), (3, 1), (1, 0)], true);
        let counts = edge_counts_for_starts(&g, &[0, 2, 4]);
        assert_eq!(counts, vec![4, 0]);
        assert_eq!(counts.iter().sum::<u64>(), g.num_edges() as u64);
    }

    #[test]
    fn drift_trigger_fires_at_threshold() {
        let t = DriftTrigger::new(0.25, vec![100, 100, 100, 100]);
        assert_eq!(t.drift(&[100, 100, 100, 100]), 0.0);
        assert!(!t.should_reorder(&[110, 100, 95, 100])); // 10% < 25%
        assert!(t.should_reorder(&[130, 100, 100, 100])); // 30% >= 25%
        assert!(t.should_reorder(&[100, 100, 100, 75])); // deletion drift too
    }

    #[test]
    fn drift_trigger_rebase_adopts_new_baseline() {
        let mut t = DriftTrigger::new(0.2, vec![10, 10]);
        assert!(t.should_reorder(&[14, 10]));
        t.rebase(vec![14, 10]);
        assert_eq!(t.drift(&[14, 10]), 0.0);
        assert_eq!(t.baseline(), &[14, 10]);
    }

    #[test]
    fn drift_on_empty_baseline_is_infinite_only_with_new_edges() {
        let t = DriftTrigger::new(0.5, vec![0, 0]);
        assert_eq!(t.drift(&[0, 0]), 0.0);
        assert!(t.drift(&[1, 0]).is_infinite());
    }
}
