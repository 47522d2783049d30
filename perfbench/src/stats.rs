//! The benchmark's own statistics: exact nearest-rank percentiles over
//! raw samples, and the tail rule — report the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, with the sample
//! count behind it.

/// Samples a tail percentile must have beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// A sorted sample set.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

/// A reported tail: which percentile, its value, and how many samples lie
/// beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub beyond: usize,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        assert!(values.iter().all(|v| v.is_finite()), "non-finite sample");
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples compare"));
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    fn rank(&self, p: f64) -> usize {
        // Nearest rank: the smallest 1-based rank covering p percent. The
        // relative nudge keeps 99.9 % of 10 000 at rank 9 990, not 9 991.
        let x = p / 100.0 * self.sorted.len() as f64;
        ((x - x * 1e-12).ceil() as usize).clamp(1, self.sorted.len())
    }

    /// Nearest-rank percentile; 0 for an empty set.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted[self.rank(p) - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Samples ranked above percentile `p`.
    pub fn beyond(&self, p: f64) -> usize {
        if self.sorted.is_empty() {
            return 0;
        }
        self.sorted.len() - self.rank(p)
    }

    /// The highest ladder percentile with at least [`MIN_BEYOND`] samples
    /// ranked above it. With too few samples for any, the maximum is
    /// reported as the 100th percentile with nothing beyond.
    pub fn tail(&self) -> Tail {
        for p in TAIL_LADDER {
            let beyond = self.beyond(p);
            if beyond >= MIN_BEYOND {
                return Tail {
                    percentile: p,
                    value: self.percentile(p),
                    beyond,
                };
            }
        }
        Tail {
            percentile: 100.0,
            value: self.max(),
            beyond: 0,
        }
    }
}

/// Completions a throughput window needs on average.
pub const WINDOW_COMPLETIONS: usize = 50;
const MAX_WINDOWS: usize = 10;

/// Percentile `p` of each of up to ten windows of consecutive samples (in
/// completion order), each long enough that `p` has at least
/// [`MIN_BEYOND`] samples beyond it (200 for p95). The reported value is
/// their median, so a burst of machine noise moves one window, not the
/// result. Fewer samples form one window.
pub fn latency_windows(in_order: &[f64], p: f64) -> Vec<f64> {
    let per_window = (MIN_BEYOND as f64 / (1.0 - p / 100.0)).ceil() as usize;
    let k = (in_order.len() / per_window).clamp(1, MAX_WINDOWS);
    let per = in_order.len() / k;
    (0..k)
        .map(|i| {
            let end = if i + 1 == k {
                in_order.len()
            } else {
                (i + 1) * per
            };
            Samples::new(in_order[i * per..end].to_vec()).percentile(p)
        })
        .collect()
}

/// Items per second in each of up to ten equal time windows of `wall_s`
/// holding at least [`WINDOW_COMPLETIONS`] completions on average, from
/// `(seconds since start, items)` completions; one window (the overall
/// rate) when there are too few completions. The reported value is their
/// median.
pub fn rate_windows(done: &[(f64, u64)], wall_s: f64) -> Vec<f64> {
    let wall_s = wall_s.max(f64::MIN_POSITIVE);
    let k = (done.len() / WINDOW_COMPLETIONS).clamp(1, MAX_WINDOWS);
    let width = wall_s / k as f64;
    let mut items = vec![0u64; k];
    for &(t, n) in done {
        items[((t / width) as usize).min(k - 1)] += n;
    }
    items.iter().map(|&n| n as f64 / width).collect()
}

/// The median of a window list.
pub fn median(windows: Vec<f64>) -> f64 {
    Samples::new(windows).median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_percentile_discards_a_noisy_window() {
        // 5 000 samples of 1.0 with one 1 000-sample burst of 50.0: p99
        // windows hold 1 000 samples each.
        let mut v = vec![1.0; 5_000];
        v[2_000..3_000].fill(50.0);
        assert_eq!(latency_windows(&v, 99.0), [1.0, 1.0, 50.0, 1.0, 1.0]);
        assert_eq!(median(latency_windows(&v, 99.0)), 1.0);
        // p95 windows need only 200 samples; at most ten windows.
        assert_eq!(latency_windows(&v[..1_000], 95.0).len(), 5);
        assert_eq!(latency_windows(&v, 95.0).len(), 10);
        // Fewer than two windows' worth: one window, the plain p99.
        let mut short = vec![1.0; 1_500];
        short[1_480..].fill(9.0);
        assert_eq!(latency_windows(&short, 99.0), [9.0]);
        assert_eq!(median(latency_windows(&[], 99.0)), 0.0);
    }

    #[test]
    fn windowed_rate_takes_the_median_window() {
        // 10 s, 500 completions of 2 items each, evenly spread: 100/s in
        // each of ten windows, except one where 1 000 extra items land.
        let mut done: Vec<(f64, u64)> = (0..500).map(|i| (i as f64 / 50.0, 2)).collect();
        done.push((3.5, 1_000));
        let w = rate_windows(&done, 10.0);
        assert_eq!((w.len(), w[3], median(w)), (10, 1_100.0, 100.0));
        // Too few completions to window: the overall rate.
        assert_eq!(rate_windows(&[(0.5, 3), (1.5, 3)], 2.0), [3.0]);
    }

    fn ramp(n: usize) -> Samples {
        Samples::new((1..=n).rev().map(|v| v as f64).collect())
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(ramp(5).median(), 3.0);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn tail_takes_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 is rank 990, 10 beyond.
        assert_eq!(
            ramp(1000).tail(),
            Tail {
                percentile: 99.0,
                value: 990.0,
                beyond: 10
            }
        );
        // 10 000 samples: p99.9 is rank 9990, 10 beyond.
        assert_eq!(ramp(10_000).tail().percentile, 99.9);
        // 999 samples: p99 has only 9 beyond (rank 990), so p98.
        let t = ramp(999).tail();
        assert_eq!((t.percentile, t.beyond), (98.0, 19));
        // 20 samples: only the median has 10 beyond.
        assert_eq!(ramp(20).tail().percentile, 50.0);
        // Too few samples: the maximum, flagged with nothing beyond.
        assert_eq!(
            ramp(19).tail(),
            Tail {
                percentile: 100.0,
                value: 19.0,
                beyond: 0
            }
        );
        assert_eq!(Samples::default().tail().value, 0.0);
    }
}
