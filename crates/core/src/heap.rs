//! Deterministic min-heap over partition loads.
//!
//! VEBO's placement loop needs `arg min_i w[i]` followed by an increase of
//! the chosen entry's weight — `O(log P)` with a binary heap, which is what
//! gives the algorithm its `O(n log P)` total complexity (§III-E). Ties are
//! broken by the lowest partition id so that runs are deterministic and
//! match the worked example in Figure 3 of the paper.

/// A binary min-heap of `(load, partition id)` entries supporting the
/// single operation VEBO needs: *pop the least-loaded partition, add to its
/// load, push it back*.
#[derive(Clone, Debug)]
pub struct MinLoadHeap {
    /// Heap-ordered `(load, id)`; comparison is lexicographic so equal
    /// loads resolve to the smallest id.
    slots: Vec<(u64, u32)>,
}

impl MinLoadHeap {
    /// Creates a heap of `num_partitions` zero-loaded partitions.
    pub fn new(num_partitions: usize) -> MinLoadHeap {
        assert!(num_partitions >= 1, "need at least one partition");
        let slots = (0..num_partitions as u32).map(|p| (0u64, p)).collect();
        MinLoadHeap { slots }
    }

    /// Creates a heap from existing loads (used when VEBO's phase 2 reuses
    /// the vertex counts accumulated during phase 1).
    pub fn with_loads(loads: &[u64]) -> MinLoadHeap {
        assert!(!loads.is_empty());
        let mut h = MinLoadHeap {
            slots: loads.iter().copied().zip(0..loads.len() as u32).collect(),
        };
        // Standard Floyd heapify: O(P).
        for i in (0..h.slots.len() / 2).rev() {
            h.sift_down(i);
        }
        h
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Always false — the heap permanently holds one slot per partition.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The least-loaded partition and its load (ties: lowest id).
    #[inline]
    pub fn peek(&self) -> (u64, u32) {
        self.slots[0]
    }

    /// Assigns `amount` to the least-loaded partition: increases its load
    /// and returns its id. `O(log P)`.
    #[inline]
    pub fn assign_to_min(&mut self, amount: u64) -> u32 {
        let (load, id) = self.slots[0];
        self.slots[0] = (load + amount, id);
        self.sift_down(0);
        id
    }

    /// Extracts the current loads indexed by partition id.
    pub fn loads(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.slots.len()];
        for &(load, id) in &self.slots {
            out[id as usize] = load;
        }
        out
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.slots.len();
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut smallest = i;
            if l < len && self.slots[l] < self.slots[smallest] {
                smallest = l;
            }
            if r < len && self.slots[r] < self.slots[smallest] {
                smallest = r;
            }
            if smallest == i {
                return;
            }
            self.slots.swap(i, smallest);
            i = smallest;
        }
    }
}

/// Linear-scan `arg min` over partition loads — the `O(P)`-per-step
/// alternative the `ablation` binary times against [`MinLoadHeap`] to
/// check the `O(n log P)` claim (§III-E).
#[derive(Clone, Debug)]
pub struct LinearArgMin {
    loads: Vec<u64>,
}

impl LinearArgMin {
    /// Creates `num_partitions` zero loads.
    pub fn new(num_partitions: usize) -> LinearArgMin {
        assert!(num_partitions >= 1);
        LinearArgMin {
            loads: vec![0; num_partitions],
        }
    }

    /// Starts from existing loads.
    pub fn from_loads(loads: Vec<u64>) -> LinearArgMin {
        assert!(!loads.is_empty());
        LinearArgMin { loads }
    }

    /// Scans for the minimum (ties: lowest id), adds `amount`, returns the
    /// id. `O(P)`.
    #[inline]
    pub fn assign_to_min(&mut self, amount: u64) -> u32 {
        let mut best = 0usize;
        for i in 1..self.loads.len() {
            if self.loads[i] < self.loads[best] {
                best = i;
            }
        }
        self.loads[best] += amount;
        best as u32
    }

    /// Current loads by partition id.
    pub fn loads(&self) -> Vec<u64> {
        self.loads.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ties_break_to_lowest_id() {
        let mut h = MinLoadHeap::new(4);
        assert_eq!(h.assign_to_min(1), 0);
        assert_eq!(h.assign_to_min(1), 1);
        assert_eq!(h.assign_to_min(1), 2);
        assert_eq!(h.assign_to_min(1), 3);
        assert_eq!(h.assign_to_min(1), 0);
    }

    #[test]
    fn always_picks_least_loaded() {
        let mut h = MinLoadHeap::new(3);
        h.assign_to_min(10); // p0 = 10
        h.assign_to_min(5); // p1 = 5
        h.assign_to_min(1); // p2 = 1
        assert_eq!(h.peek(), (1, 2));
        assert_eq!(h.assign_to_min(3), 2); // p2 = 4
        assert_eq!(h.assign_to_min(2), 2); // p2 = 6
        assert_eq!(h.assign_to_min(1), 1); // p1 = 6
        assert_eq!(h.loads(), vec![10, 6, 6]);
    }

    #[test]
    fn with_loads_heapifies() {
        let h = MinLoadHeap::with_loads(&[7, 3, 9, 1]);
        assert_eq!(h.peek(), (1, 3));
        assert_eq!(h.loads(), vec![7, 3, 9, 1]);
    }

    #[test]
    fn with_loads_tie_break_matches_fresh_heap() {
        let h = MinLoadHeap::with_loads(&[5, 5, 5]);
        assert_eq!(h.peek().1, 0, "equal loads must resolve to id 0");
    }

    #[test]
    fn heap_matches_linear_scan_on_random_sequence() {
        // The heap must make exactly the same decisions as the obvious
        // linear argmin for any weight sequence.
        let mut h = MinLoadHeap::new(7);
        let mut l = LinearArgMin::new(7);
        let mut x = 12345u64;
        for _ in 0..2000 {
            x = vebo_graph::graph::mix64(x);
            let amount = x % 50 + 1;
            assert_eq!(h.assign_to_min(amount), l.assign_to_min(amount));
        }
        assert_eq!(h.loads(), l.loads());
    }

    #[test]
    fn single_partition_takes_everything() {
        let mut h = MinLoadHeap::new(1);
        for _ in 0..10 {
            assert_eq!(h.assign_to_min(3), 0);
        }
        assert_eq!(h.loads(), vec![30]);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_panics() {
        MinLoadHeap::new(0);
    }
}
