//! Order statistics over a run's repeats. Quartiles use the same rule as
//! Python's `statistics.quantiles(values, n=4)` (exclusive method), so a
//! spread computed here equals the one the PR driver computes.

/// Summary of one sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Spread {
    /// Interquartile distance as a share of the median (0 when n < 2).
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// Median of `xs` (mean of the middle pair for even counts): the middle
/// quartile cut. Panics on an empty slice: every caller has run at least
/// one repeat.
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs)[1]
}

/// The three quartile cut points, exclusive method. With one sample all
/// three equal it.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "quartiles of no samples");
    let ld = v.len();
    if ld == 1 {
        return [v[0]; 3];
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Full summary.
pub fn spread(xs: &[f64]) -> Spread {
    let [q1, _, q3] = quartiles(xs);
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Spread { n: xs.len(), min, q1, median: median(xs), q3, max }
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
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn spread_reports_extremes_and_relative_iqr() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&xs);
        assert_eq!((s.n, s.min, s.max, s.median), (10, 1.0, 10.0, 5.5));
        assert!((s.iqr_share() - 1.0).abs() < 1e-12);
    }
}
