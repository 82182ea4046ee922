//! Percentiles, medians and the offered-rate search.

/// The `p`-quantile (0 < p < 1) of `samples` by the nearest-rank rule,
/// or `None` when fewer than ten samples lie beyond it: a percentile
/// needs at least ten samples above it to be reported.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = (p * n as f64).ceil().max(1.0) as usize;
    if n == 0 || n - rank.min(n) < 10 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// The median across up to `windows` consecutive windows of the
/// `p`-quantile of each, with as many windows as keep ten samples beyond
/// the quantile in every one. Short stalls of the machine then move one
/// window's quantile, not the reported one.
pub fn windowed_percentile(samples: &[f64], p: f64, windows: usize) -> Option<f64> {
    let needed = (10.0 / (1.0 - p)).ceil() as usize;
    let w = (samples.len() / needed).min(windows);
    if w == 0 {
        return None;
    }
    let per = samples.len() / w;
    let quantiles: Option<Vec<f64>> = (0..w)
        .map(|i| percentile(&samples[i * per..(i + 1) * per], p))
        .collect();
    quantiles.map(|q| median(&q))
}

/// The median (mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Finds the highest offered rate that passes, to a relative
/// `resolution`: steps up (or down) by half from `start` until a pass
/// and a fail bracket the answer, then bisects on a log scale. A failure only
/// counts once a second trial at the same rate confirms it, so one stall
/// of a shared machine does not end the search low.
#[derive(Clone, Debug)]
pub struct RateSearch {
    pass: Option<f64>,
    fail: Option<f64>,
    next: f64,
    resolution: f64,
    floor: f64,
    /// A first failure at `next`, awaiting its confirming trial.
    unconfirmed: bool,
}

impl RateSearch {
    pub fn new(start: f64, resolution: f64) -> RateSearch {
        RateSearch {
            pass: None,
            fail: None,
            next: start,
            resolution,
            floor: start / 64.0,
            unconfirmed: false,
        }
    }

    /// The rate to try next, or `None` once the bracket is fine enough
    /// (or nothing down to 1/64 of the start passed).
    pub fn next(&self) -> Option<f64> {
        match (self.pass, self.fail) {
            (Some(p), Some(f)) if f / p <= 1.0 + self.resolution => None,
            (None, Some(f)) if f <= self.floor => None,
            _ => Some(self.next),
        }
    }

    /// Records the outcome of a trial at `rate`.
    pub fn record(&mut self, rate: f64, passed: bool) {
        if !passed && !self.unconfirmed {
            self.unconfirmed = true;
            self.next = rate;
            return;
        }
        self.unconfirmed = false;
        if passed {
            self.pass = Some(self.pass.map_or(rate, |p| p.max(rate)));
        } else {
            self.fail = Some(self.fail.map_or(rate, |f| f.min(rate)));
        }
        self.next = match (self.pass, self.fail) {
            (Some(p), Some(f)) => (p * f).sqrt(),
            (Some(p), None) => p * 1.5,
            (None, Some(f)) => f / 1.5,
            (None, None) => self.next,
        };
    }

    /// The highest passing rate found.
    pub fn result(&self) -> Option<f64> {
        self.pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), None, "999 samples leave 9 above p99");
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn windowed_percentile_ignores_one_bad_window() {
        let mut v: Vec<f64> = (0..5000).map(|i| f64::from(i % 1000)).collect();
        // A stall: the third window's slowest tenth become huge.
        for x in &mut v[2900..3000] {
            *x = 1e6;
        }
        assert_eq!(windowed_percentile(&v, 0.99, 5), Some(989.0));
        assert_eq!(percentile(&v, 0.99), Some(1e6));
        assert_eq!(windowed_percentile(&v[..999], 0.99, 5), None);
        assert_eq!(windowed_percentile(&v[..2500], 0.99, 5), Some(987.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// A system that passes every rate up to `capacity`.
    fn search(capacity: f64, start: f64) -> (f64, usize) {
        let mut s = RateSearch::new(start, 0.03);
        let mut trials = 0;
        while let Some(rate) = s.next() {
            s.record(rate, rate <= capacity);
            trials += 1;
            assert!(trials < 40, "search does not terminate");
        }
        (s.result().unwrap_or(0.0), trials)
    }

    #[test]
    fn rate_search_brackets_capacity_to_its_resolution() {
        for (capacity, start) in [
            (1000.0, 100.0),
            (1000.0, 5000.0),
            (123.0, 123.0),
            (7e4, 8e3),
        ] {
            let (found, trials) = search(capacity, start);
            assert!(found <= capacity, "{found} > {capacity}");
            assert!(
                found * 1.03 >= capacity,
                "{found} not within 3% of {capacity}"
            );
            assert!(trials <= 20, "{trials} trials");
        }
    }

    #[test]
    fn rate_search_needs_a_failure_confirmed() {
        let mut s = RateSearch::new(1000.0, 0.03);
        s.record(1000.0, false);
        assert_eq!(s.next(), Some(1000.0), "a first failure is retried");
        s.record(1000.0, true);
        assert_eq!(s.next(), Some(1500.0), "a passing retry counts as a pass");
        s.record(1500.0, false);
        s.record(1500.0, false);
        assert_eq!(s.fail, Some(1500.0));
        assert_eq!(s.next(), Some((1000.0f64 * 1500.0).sqrt()));
    }

    #[test]
    fn rate_search_gives_up_below_its_floor() {
        let (found, _) = search(0.0, 100.0);
        assert_eq!(found, 0.0);
    }
}
