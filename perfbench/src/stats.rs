//! Order statistics for reported timings: nearest-rank percentiles,
//! medians and quartiles.

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`: the smallest
/// sample such that at least `p` % of the samples are ≤ it. `None` for
/// an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// How many samples lie strictly above the nearest-rank percentile `p`
/// — the count that says whether a tail percentile is supported (the
/// benchmark wants at least ten beyond every reported tail).
pub fn beyond(values: &[f64], p: f64) -> usize {
    match percentile(values, p) {
        Some(cut) => values.iter().filter(|&&v| v > cut).count(),
        None => 0,
    }
}

/// Median, first and third quartile and sample count of a set of
/// samples, with quartiles by linear interpolation between order
/// statistics (the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, which the spread checks use).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; `None` for an empty slice.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 1 {
            return Some(Summary {
                median: v[0],
                q1: v[0],
                q3: v[0],
                n,
            });
        }
        // Exclusive method: the m-th of n+1 equal parts, m = 1..=3. Like
        // Python, the outer quartiles of tiny samples extrapolate.
        let at = |m: f64| {
            let pos = m * (n as f64 + 1.0) / 4.0;
            let j = (pos.floor() as usize).clamp(1, n - 1);
            v[j - 1] + (v[j] - v[j - 1]) * (pos - j as f64)
        };
        Some(Summary {
            median: at(2.0),
            q1: at(1.0),
            q3: at(3.0),
            n,
        })
    }
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.1), Some(1.0));
        assert_eq!(beyond(&v, 99.0), 1);
        assert_eq!(beyond(&v, 90.0), 10);
        // Order of input does not matter; ranks round up.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 3.0, 1.0, 4.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(median(&[]), 0.0);
    }
}
