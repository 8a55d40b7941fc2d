//! Order statistics over timing samples: nearest-rank percentiles,
//! quartiles, and the reporting rule "the highest percentile with at
//! least ten samples beyond it".

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// 1-based nearest rank of percentile `p` (in `(0, 100]`) among `n`
/// samples: `ceil(p/100 · n)`, clamped to `1..=n`. Computed in
/// per-mille integers so `90 %` of `100` is exactly rank 90.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile `p` of ascending `sorted`: the smallest
/// sample with at least `p` % of all samples at or below it.
///
/// # Panics
///
/// On an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// of `n` samples strictly beyond its rank, if any does.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n >= 1 && n - rank(n, p) >= 10)
}

/// Median and quartiles of a sample set, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile (nearest rank).
    pub q1: f64,
    /// Median (nearest rank).
    pub median: f64,
    /// Third quartile (nearest rank).
    pub q3: f64,
}

impl Summary {
    /// Summarizes `samples` (any order); `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let sorted = sorted(samples);
        Some(Summary {
            n: sorted.len(),
            q1: percentile(&sorted, 25.0),
            median: percentile(&sorted, 50.0),
            q3: percentile(&sorted, 75.0),
        })
    }

    /// Interquartile range as a share of the median (0 when the median
    /// is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// An ascending copy of `samples` (total order; NaN sorts last).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        let five = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&five, 50.0), 30.0);
        assert_eq!(percentile(&five, 25.0), 20.0);
        assert_eq!(percentile(&five, 75.0), 40.0);
        assert_eq!(percentile(&[7.0], 1.0), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(10), None);
        // 40 samples: rank(75) = 30 leaves exactly 10 beyond.
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - rank(n, p) >= 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn summary_quartiles_and_spread() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0, 8.0, 6.0, 7.0]).unwrap();
        assert_eq!(s.n, 8);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 4.0, 6.0));
        assert_eq!(s.spread(), 1.0);
        assert_eq!(Summary::of(&[]), None);
        let flat = Summary::of(&[3.0; 9]).unwrap();
        assert_eq!(flat.spread(), 0.0);
    }
}
