//! Exact order statistics over per-point samples.
//!
//! Rank rule (nearest rank): in `n` ascending samples, the `p`-th
//! percentile (0 < p ≤ 100) is the sample of 1-based rank
//! `ceil(p / 100 · n)`. No interpolation and no histogram buckets: every
//! reported value is one of the measured samples.

/// The 1-based nearest rank of percentile `p` among `n` samples.
pub fn rank(p: f64, n: usize) -> usize {
    assert!(n > 0, "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    // The small epsilon keeps p = 100·k/n from rounding up to k + 1.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// The `p`-th percentile of `sorted` (ascending) by the nearest-rank rule.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(p, sorted.len()) - 1]
}

/// The median by the nearest-rank rule (the lower middle for even `n`).
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 50.0)
}

/// The tail statistic: the highest percentile with at least `beyond`
/// samples above its rank, never below the median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// The percentile the rank corresponds to (`100 · rank / n`).
    pub pct: f64,
    /// The 1-based rank.
    pub rank: usize,
    /// Whether rank `n − beyond` lies at or above the median rank;
    /// otherwise too few samples leave `beyond` above a tail and the
    /// median stands in.
    pub defined: bool,
}

/// The highest percentile of `sorted` (ascending) that leaves at least
/// `beyond` samples above it: rank `n − beyond`, i.e. percentile
/// `100 · (n − beyond) / n`. When that rank falls below the median's,
/// the median is reported in its place (flagged `defined = false`).
pub fn tail(sorted: &[f64], beyond: usize) -> Tail {
    let n = sorted.len();
    let mid = rank(50.0, n);
    let (rank, defined) = match n.checked_sub(beyond) {
        Some(r) if r >= mid => (r, true),
        _ => (mid, false),
    };
    Tail {
        value: sorted[rank - 1],
        pct: 100.0 * rank as f64 / n as f64,
        rank,
        defined,
    }
}

/// Median of an unsorted sample set (sorts a copy).
pub fn median_of(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ten() -> Vec<f64> {
        (1..=10).map(f64::from).collect()
    }

    #[test]
    fn nearest_rank_hand_cases() {
        let v = ten();
        // ceil(0.5 · 10) = 5 → the 5th sample.
        assert_eq!(median(&v), 5.0);
        // ceil(0.9 · 10) = 9; ceil(0.91 · 10) = 10.
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        // ceil(0.01 · 10) = 1.
        assert_eq!(percentile(&v, 1.0), 1.0);
        // Odd count: ceil(0.5 · 5) = 3, the true middle.
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0, 5.0]), 3.0);
        // One sample is every percentile.
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn exact_percent_does_not_round_up() {
        // p = 100·k/n must select rank k exactly, e.g. 70% of 10 → 7.
        assert_eq!(rank(70.0, 10), 7);
        assert_eq!(rank(100.0 * 14.0 / 24.0, 24), 14);
        assert_eq!(rank(100.0 / 3.0, 3), 1);
    }

    #[test]
    fn tail_leaves_ten_beyond() {
        // 25 samples 1..=25: rank 15 (p60), ten samples (16..=25) above.
        let v: Vec<f64> = (1..=25).map(f64::from).collect();
        let t = tail(&v, 10);
        assert!(t.defined);
        assert_eq!(t.rank, 15);
        assert_eq!(t.value, 15.0);
        assert!((t.pct - 60.0).abs() < 1e-12);
        assert_eq!(percentile(&v, t.pct), t.value);
        // 1000 samples: rank 990 = p99.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 10);
        assert_eq!((t.rank, t.value), (990, 990.0));
        assert!((t.pct - 99.0).abs() < 1e-12);
    }

    #[test]
    fn tail_with_too_few_samples_falls_back_to_median() {
        let t = tail(&ten(), 10);
        assert!(!t.defined);
        assert_eq!((t.rank, t.value), (5, 5.0));
        // 14 samples: rank 4 would sit below the median's rank 7.
        let v: Vec<f64> = (1..=14).map(f64::from).collect();
        let t = tail(&v, 10);
        assert!(!t.defined);
        assert_eq!((t.rank, t.value), (7, 7.0));
        // 20 samples: rank 10 is the median's rank, so it qualifies.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&v, 10);
        assert!(t.defined);
        assert_eq!((t.rank, t.value), (10, 10.0));
    }

    #[test]
    fn median_of_sorts() {
        assert_eq!(median_of(&[9.0, 1.0, 5.0]), 5.0);
    }
}
