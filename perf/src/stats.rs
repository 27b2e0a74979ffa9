//! Order statistics: the median, the quartiles the acceptance rule uses,
//! and the tail-percentile rule.

/// Sorts a copy of `values` ascending.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of integer nanosecond samples, as `f64` nanoseconds.
pub fn median_ns(values: &[u64]) -> f64 {
    let v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    median(&v)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) computes
/// them — the rule the acceptance check applies. Needs two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median: the run-to-run
/// spread the acceptance rule compares with a metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// A tail sample: the value and the percentile it sits at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
}

/// Samples that must lie beyond a reported percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile not above p99 that still has at least
/// [`TAIL_BEYOND`] samples beyond it. With fewer than ~1000 samples that is
/// lower than p99; it never drops below the (upper) median, so with fewer
/// than 22 samples the "tail" *is* the median and says nothing more. The sample
/// count and the percentile used are reported beside every tail.
pub fn tail(samples: &[u64]) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let n = v.len();
    let p99 = (n * 99).div_ceil(100) - 1;
    let backed = n.saturating_sub(TAIL_BEYOND + 1);
    let idx = p99.min(backed).max(n / 2);
    Some(Tail {
        value: v[idx] as f64,
        percentile: (idx + 1) as f64 / n as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn tail_is_p99_only_with_ten_samples_beyond() {
        // 2000 samples: p99 is index 1979, 20 samples beyond it.
        let v: Vec<u64> = (0..2000).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 1979.0);
        assert_eq!(t.percentile, 0.99);
        // 1000 samples: p99 (index 989) has exactly 10 beyond it.
        let v: Vec<u64> = (0..1000).collect();
        assert_eq!(tail(&v).unwrap().value, 989.0);
    }

    #[test]
    fn tail_backs_off_below_p99_when_samples_are_few() {
        // 200 samples: p99 would leave only 2 beyond; the rule backs off
        // to index 189 (p95), which leaves exactly 10.
        let v: Vec<u64> = (0..200).rev().collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 189.0);
        assert_eq!(t.percentile, 0.95);
        assert_eq!(
            v.iter().filter(|&&x| x as f64 > t.value).count(),
            TAIL_BEYOND
        );
    }

    #[test]
    fn tail_never_drops_below_the_median() {
        let v: Vec<u64> = (0..9).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 4.0);
        // Even counts take the upper middle sample, so tail >= median.
        let v: Vec<u64> = (0..8).collect();
        assert_eq!(tail(&v).unwrap().value, 4.0);
        assert_eq!(tail(&[]), None);
        // 21 samples: index 10 is the median and has exactly 10 beyond.
        let v: Vec<u64> = (0..21).collect();
        assert_eq!(tail(&v).unwrap().value, 10.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median_ns(&[10, 30]), 20.0);
    }
}
