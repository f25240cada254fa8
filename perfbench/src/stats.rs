//! Order statistics for the reported figures.

/// Sorts a sample set in place (total order; NaN never occurs in timings).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    samples
}

/// Nearest-rank percentile of sorted samples: the smallest sample with at
/// least `q`% of the set at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty set");
    sorted[rank(sorted.len(), q)]
}

fn rank(len: usize, q: f64) -> usize {
    let idx = (q / 100.0 * len as f64).ceil() as usize;
    idx.clamp(1, len) - 1
}

/// The median of unsorted samples (nearest rank, so always a measured value).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 50.0)
}

/// A tail figure: the value at the highest percentile ≤ the one asked for
/// that still has at least [`TAIL_BEYOND`] samples ranked above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported.
    pub percentile: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Samples ranked above it.
    pub beyond: usize,
    /// Size of the sample set.
    pub samples: usize,
}

/// Minimum number of samples a reported tail must have beyond it, so one
/// stray stall cannot be the figure.
pub const TAIL_BEYOND: usize = 10;

/// The tail at `want` percent, lowered until [`TAIL_BEYOND`] samples lie
/// beyond it. `None` when fewer than `TAIL_BEYOND + 1` samples exist.
pub fn tail(sorted: &[f64], want: f64) -> Option<Tail> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let wanted = rank(n, want);
    let (idx, percentile) = if n - 1 - wanted >= TAIL_BEYOND {
        (wanted, want)
    } else {
        let idx = n - 1 - TAIL_BEYOND;
        (idx, 100.0 * (idx + 1) as f64 / n as f64)
    };
    Some(Tail {
        percentile,
        value: sorted[idx],
        beyond: n - 1 - idx,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(10);
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_p99_when_enough_samples_lie_beyond() {
        let t = tail(&ramp(2000), 99.0).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 1980.0);
        assert_eq!(t.beyond, 20);
        assert_eq!(t.samples, 2000);
    }

    #[test]
    fn tail_lowers_the_percentile_to_keep_ten_beyond() {
        // p99 of 500 samples has only 5 beyond it: fall back to rank 489.
        let t = tail(&ramp(500), 99.0).unwrap();
        assert_eq!(t.beyond, TAIL_BEYOND);
        assert_eq!(t.value, 490.0);
        assert!((t.percentile - 98.0).abs() < 1e-12);
        // Exactly at the boundary: 1000 samples, p99 rank 990, 10 beyond.
        let t = tail(&ramp(1000), 99.0).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        // 999 samples: p99 rank 990 leaves 9 beyond, so step down one.
        let t = tail(&ramp(999), 99.0).unwrap();
        assert_eq!((t.value, t.beyond), (989.0, 10));
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert!(tail(&ramp(10), 99.0).is_none());
        let t = tail(&ramp(11), 99.0).unwrap();
        assert_eq!((t.value, t.beyond), (1.0, 10));
    }
}
