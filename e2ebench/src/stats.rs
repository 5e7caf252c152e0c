//! Order statistics for timing samples.
//!
//! Every timing the benchmark reports is a median or a tail percentile
//! over a stated number of samples. The tail is the highest whole
//! percentile that still leaves at least [`TAIL_SAMPLES`] samples beyond
//! it, so a tail figure is never carried by one or two outliers.

/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice, a NaN sample, or `p` outside `(0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let s = sorted(xs);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest whole percentile whose nearest-rank value leaves at
/// least `tail` of `n` samples strictly beyond it, or `None` when not
/// even the 1st percentile does.
pub fn tail_percentile(n: usize, tail: usize) -> Option<u32> {
    (1..=99u32).rev().find(|&p| {
        let rank = (p as usize * n).div_ceil(100);
        rank >= 1 && n - rank >= tail
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "no samples");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 100.0);
        assert_eq!(percentile(&xs, 95.0), 190.0);
        assert_eq!(percentile(&xs, 100.0), 200.0);
        assert_eq!(percentile(&[5.0], 95.0), 5.0);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(200, TAIL_SAMPLES), Some(95));
        assert_eq!(tail_percentile(1000, TAIL_SAMPLES), Some(99));
        assert_eq!(tail_percentile(100, TAIL_SAMPLES), Some(90));
        assert_eq!(tail_percentile(10, TAIL_SAMPLES), None);
        // The promise holds at the boundary: p95 of 200 samples has
        // exactly ten samples above it.
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = percentile(&xs, 95.0);
        assert_eq!(xs.iter().filter(|&&x| x > p95).count(), 10);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_samples_panic() {
        median(&[]);
    }
}
