//! Order statistics used by every metric the benchmark reports.
//!
//! Percentiles follow the nearest-rank rule on sorted samples. A tail
//! percentile is only reported when the sample supports it: at least ten
//! samples must lie beyond it, so "p99" needs at least 1,000 samples.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// The percentile ladder tried by [`highest_supported`], highest first.
const LADDER: [f64; 5] = [0.9999, 0.999, 0.99, 0.9, 0.5];

/// Nearest-rank quantile `q` in `[0, 1]` of `sorted` (ascending). `None`
/// for an empty sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank quantile of an unsorted sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// The median as the mean of the two middle values (even counts), which
/// keeps medians of a few repetitions from snapping to one sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Whether a sample of `n` values has at least [`TAIL_SAMPLES`] values
/// strictly beyond the nearest-rank quantile `q`.
pub fn supports(n: usize, q: f64) -> bool {
    let rank = (q * n as f64).ceil() as usize;
    n >= 1 && n.saturating_sub(rank.max(1)) >= TAIL_SAMPLES
}

/// The highest percentile of the ladder a sample of `n` values supports,
/// as a fraction (`0.99` for p99). `None` if not even the median has ten
/// samples beyond it.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&q| supports(n, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s = ramp(100);
        assert_eq!(quantile(&s, 0.5), Some(50.0));
        assert_eq!(quantile(&s, 0.99), Some(99.0));
        assert_eq!(quantile(&s, 1.0), Some(100.0));
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
        // unsorted input gives the same answer
        let mut rev = s.clone();
        rev.reverse();
        assert_eq!(quantile(&rev, 0.9), Some(90.0));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1,000 samples is the 990th value: exactly ten lie beyond
        assert!(supports(1_000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn the_highest_supported_percentile_climbs_with_the_sample() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(100_000), Some(0.9999));
    }
}
