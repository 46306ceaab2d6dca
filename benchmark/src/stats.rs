//! Order statistics for timing samples.

/// Median, quartiles, range and sample count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Run-to-run spread: the distance between the quartiles as a share
    /// of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller times at least one run.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `i`-th quartile cut of sorted `v`, as Python's
/// `statistics.quantiles(v, n=4)` places it (the exclusive method); a
/// single sample is its own quartiles.
fn quartile(v: &[f64], i: usize) -> f64 {
    let n = v.len();
    if n < 2 {
        return v[0];
    }
    let j = (i * (n + 1) / 4).clamp(1, n - 1);
    let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

/// Median with quartiles, min, max and `n`.
pub fn summarize(samples: &[f64]) -> Summary {
    let v = sorted(samples);
    Summary {
        median: median(&v),
        q1: quartile(&v, 1),
        q3: quartile(&v, 3),
        min: v[0],
        max: v[v.len() - 1],
        n: v.len(),
    }
}

/// Nearest-rank percentile `p` (0 < p < 1), reported only when at least
/// ten samples lie beyond it — a p99 of 200 samples is two outliers, not
/// a percentile.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < 10 {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_odd_and_even() {
        let s = summarize(&[5.0, 1.0, 3.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (3.0, 1.0, 5.0, 3));
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.5, 1.0, 4.0, 4));
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        // == [3.5, 13.5, 31.0]
        let s = summarize(&[46.0, 1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0]);
        assert_eq!((s.q1, s.median, s.q3), (3.5, 13.5, 31.0));
        assert_eq!(s.spread(), 27.5 / 13.5);
        // quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        // quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = summarize(&[10.0, 20.0]);
        assert_eq!((s.q1, s.q3), (7.5, 22.5));
        let s = summarize(&[3.0]);
        assert_eq!((s.q1, s.q3, s.spread()), (3.0, 3.0, 0.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000: rank 990, ten samples beyond.
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v[..999], 0.99), None);
        // p50 of 20: rank 10, ten beyond; of 19: rank 10, nine beyond.
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }
}
