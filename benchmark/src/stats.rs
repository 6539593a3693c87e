//! Order statistics over raw samples: medians and exact nearest-rank
//! percentiles, never histogram bucket edges.

/// Median of `samples` (mean of the two middle values for an even count).
/// `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. `p` in (0, 100].
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = nearest_rank(v.len(), p)?;
    Some(v[rank - 1])
}

fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    Some(((p * n as f64 / 100.0).ceil() as usize).clamp(1, n))
}

/// A tail percentile together with what it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. 90.0 for p90.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was taken over.
    pub samples: usize,
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 8] = [99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 60.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// ranked beyond it. `None` when even the median has fewer than ten
/// samples above it (fewer than 20 samples): such a "tail" would be
/// noise, so callers must collect more samples instead.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    let p = TAIL_LADDER.into_iter().find(|&p| nearest_rank(n, p).is_some_and(|r| n - r >= 10))?;
    Some(Tail { percentile: p, value: percentile(samples, p)?, samples: n })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // shuffled on purpose: the statistics must sort for themselves
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert_eq!(percentile(&v, 0.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: p90 is rank 90 with exactly 10 beyond; p95 has 5
        let t = tail(&ramp(100)).expect("tail");
        assert_eq!((t.percentile, t.value, t.samples), (90.0, 90.0, 100));
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1
        let t = tail(&ramp(1000)).expect("tail");
        assert_eq!((t.percentile, t.value), (99.0, 990.0));
        // 50 samples: p80 is rank 40 (10 beyond), p90 rank 45 (5 beyond)
        let t = tail(&ramp(50)).expect("tail");
        assert_eq!((t.percentile, t.value), (80.0, 40.0));
        // 20 samples: only the median has ten beyond it
        let t = tail(&ramp(20)).expect("tail");
        assert_eq!((t.percentile, t.value), (50.0, 10.0));
    }

    #[test]
    fn tail_refuses_too_few_samples() {
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }
}
