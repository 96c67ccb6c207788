//! Order statistics and the percentile-reporting rule.

/// Percentiles a tail may be reported at, highest first.
const LADDER: [f64; 6] = [99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Number of samples out of `n` that lie beyond percentile `pct`.
pub fn beyond(n: usize, pct: f64) -> usize {
    // Integer arithmetic in tenths of a percent avoids rounding 10.0 down.
    let tenths = (pct * 10.0).round() as usize;
    n * (1000 - tenths.min(1000)) / 1000
}

/// The highest percentile, at most `cap`, with at least [`MIN_BEYOND`] of `n`
/// samples beyond it; `None` when even the median is unsupported.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    LADDER.iter().copied().find(|&p| p <= cap && beyond(n, p) >= MIN_BEYOND)
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of an ascending slice;
/// NaN when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sort a sample ascending (NaN-free input expected).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// A latency sample summarised by its median and its rule-chosen tail.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Percentile the tail is reported at (NaN when unsupported).
    pub tail_pct: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
}

impl Summary {
    /// Summarise `v`, reporting the tail at the highest percentile up to
    /// `cap` that the sample supports.
    pub fn of(v: Vec<f64>, cap: f64) -> Summary {
        let s = sorted(v);
        let tail_pct = tail_percentile(s.len(), cap).unwrap_or(f64::NAN);
        Summary { n: s.len(), p50: quantile(&s, 0.5), tail_pct, tail: quantile(&s, tail_pct / 100.0) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(999, 99.0), Some(98.0));
        assert_eq!(tail_percentile(500, 99.0), Some(98.0));
        assert_eq!(tail_percentile(499, 99.0), Some(95.0));
        assert_eq!(tail_percentile(100, 99.0), Some(90.0));
        assert_eq!(tail_percentile(20, 99.0), Some(50.0));
        assert_eq!(tail_percentile(19, 99.0), None);
        // The cap keeps a named percentile fixed when samples are plentiful.
        assert_eq!(tail_percentile(100_000, 90.0), Some(90.0));
        for n in [20, 57, 100, 333, 1000, 4321] {
            let p = tail_percentile(n, 99.0).expect("supported");
            assert!(beyond(n, p) >= MIN_BEYOND);
        }
    }

    #[test]
    fn quantile_interpolates() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
