//! Order statistics for timing samples.

/// Median of `samples` (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of the quietest window: `samples`, in the order they were
/// taken, are cut into consecutive windows of `per_window`, and the
/// lowest window median is returned. A trailing window shorter than
/// `per_window` is left out unless it is the only one.
///
/// On a shared host another tenant slows memory-bound code by tens of
/// per cent for seconds at a time. Such an episode shifts the median of
/// a whole run, but seldom covers every window of it.
pub fn quietest_window_median(samples: &[f64], per_window: usize) -> f64 {
    assert!(!samples.is_empty() && per_window > 0, "no samples or empty windows");
    if samples.len() < per_window {
        return median(samples);
    }
    samples.chunks_exact(per_window).map(median).fold(f64::INFINITY, f64::min)
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// (the default exclusive method) gives them. Needs two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The percentiles a tail is reported at, lowest first, in tenths of a
/// percent so that ranks are exact integers.
const LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The highest percentile of [`LADDER`] that still has at least ten
/// samples beyond it, and its nearest-rank value. With fewer than
/// twenty samples no rung qualifies and the median is returned as p50.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "tail of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match LADDER.iter().rev().find(|&&permille| n - rank(n, permille) >= 10) {
        Some(&permille) => (permille as f64 / 10.0, v[rank(n, permille) - 1]),
        None => (50.0, median(&v)),
    }
}

/// Nearest-rank position (1-based) of a percentile among `n` samples.
fn rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
    }

    #[test]
    fn quietest_window_ignores_a_slow_episode() {
        // Ten quiet ops, twenty slowed by half, ten quiet again.
        let mut v = vec![10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 10.0];
        v.extend([15.0; 20]);
        v.extend([10.1, 10.0, 9.9, 10.2, 10.0, 10.1, 10.0, 9.9, 10.3, 10.0]);
        assert_eq!(median(&v), 12.65);
        assert_eq!(quietest_window_median(&v, 10), 10.0);
        // Fewer samples than one window: the plain median.
        assert_eq!(quietest_window_median(&[3.0, 1.0, 2.0], 10), 2.0);
        // A short trailing window is not a window.
        assert_eq!(quietest_window_median(&[5.0, 5.0, 5.0, 5.0, 1.0], 2), 5.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let v = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 19 samples: even p50 leaves only 9 beyond.
        assert_eq!(tail(&v(19)), (50.0, 10.0));
        // 20 samples: p50 leaves exactly 10.
        assert_eq!(tail(&v(20)), (50.0, 10.0));
        // 100 samples: p90 leaves 10, p95 only 5.
        assert_eq!(tail(&v(100)), (90.0, 90.0));
        // 1000 samples: p99 leaves 10, p99.9 leaves 1.
        assert_eq!(tail(&v(1000)), (99.0, 990.0));
        assert_eq!(tail(&v(10_000)), (99.9, 9990.0));
    }
}
