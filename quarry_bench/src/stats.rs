//! Order statistics. Everything is nearest-rank on a sorted copy, so a
//! reported value is always one that was measured.

/// Nearest-rank `q`-quantile (`0 < q <= 1`): the smallest value with at
/// least `q` of the sample at or below it. `None` on an empty sample.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// The value a tenth of the windows reach or beat, for a metric where
/// lower is better: interference on a shared box only ever slows a
/// window, so the quiet tenth estimates the program. Of fourteen windows
/// it is the second best, which leaves one lucky window out.
pub fn quiet_low(windows: &[f64]) -> Option<f64> {
    percentile(windows, 0.1)
}

/// [`quiet_low`] for a metric where higher is better (throughput).
pub fn quiet_high(windows: &[f64]) -> Option<f64> {
    percentile(windows, 0.9)
}

/// Median and the two quartiles, as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), so
/// `repeat` and `compare` print the spread the acceptance check computes.
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    pub fn of(values: &[f64]) -> Option<Quartiles> {
        if values.len() < 2 {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let at = |i: usize| {
            // Position i*(n+1)/4 on the 1-based sorted sample, interpolated.
            let pos = (i * (n + 1)) as f64 / 4.0;
            let lo = (pos.floor() as usize).clamp(1, n - 1);
            let frac = pos - lo as f64;
            sorted[lo - 1] + (sorted[lo] - sorted[lo - 1]) * frac
        };
        Some(Quartiles { q1: at(1), median: at(2), q3: at(3) })
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_sample_members() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.05), Some(15.0));
        assert_eq!(percentile(&v, 0.30), Some(20.0));
        assert_eq!(percentile(&v, 0.40), Some(20.0));
        assert_eq!(percentile(&v, 0.50), Some(35.0));
        assert_eq!(percentile(&v, 1.00), Some(50.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn quiet_window_is_the_second_best_of_fourteen() {
        // Fourteen windows, nine of them slowed by a neighbour.
        let throughput: Vec<f64> =
            [60, 101, 62, 60, 102, 58, 55, 100, 103, 57, 58, 61, 99, 61].map(f64::from).to_vec();
        assert_eq!(quiet_high(&throughput), Some(102.0));
        let latency: Vec<f64> = throughput.iter().map(|t| 1e6 / t).collect();
        // The same window is the quiet one seen from the latency side.
        assert_eq!(quiet_low(&latency), Some(1e6 / 102.0));
        // Up to ten samples it is the best one.
        assert_eq!(quiet_low(&[3.0, 1.0, 2.0]), Some(1.0));
        assert_eq!(quiet_high(&[3.0, 1.0, 2.0]), Some(3.0));
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        assert!((q.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[1.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        assert!(Quartiles::of(&[1.0]).is_none());
    }
}
