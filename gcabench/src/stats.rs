//! Order statistics used by every metric the benchmark reports.
//!
//! Four rules live here and nowhere else:
//!
//! * medians and quartiles follow Python's `statistics.quantiles(values,
//!   n=4)` (the default "exclusive" method), so a spread computed by a
//!   script over the printed values matches the one computed here;
//! * a tail percentile is reported only where at least ten samples lie
//!   beyond it — with fewer samples the highest percentile that has ten
//!   beyond it is used instead, and the caller prints which one it got;
//! * an overhead ratio is the median of per-pair ratios taken from
//!   interleaved runs, never the ratio of two medians (a slow phase of
//!   the machine then hits both sides of a pair alike);
//! * an absolute time is the mean over a run's passes, not their median:
//!   the machine's speed moves in phases of tens of seconds, a median
//!   lands in whichever phase held most passes, and the mean weighs each
//!   phase by its share of the run.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// On an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean of `values`.
///
/// # Panics
///
/// On an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.iter().sum::<f64>() / values.len() as f64
}

/// First, second and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` computes them.
///
/// # Panics
///
/// With fewer than two samples (Python raises there too).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let v = sorted(values);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        // Python clamps j to [1, n-1] so both neighbours exist.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median — the spread the
/// benchmark's bounds are stated in.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

/// A tail percentile together with the rank it was actually taken at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile used (at most the one asked for).
    pub percentile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// The `want`-th percentile of `values` by nearest rank, lowered until
/// at least ten samples lie beyond it, but never below the median: with
/// fewer than 21 samples a tail cannot be told from the middle, and the
/// upper middle sample is returned.
///
/// # Panics
///
/// On an empty slice.
pub fn tail(values: &[f64], want: f64) -> Tail {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    let n = v.len();
    let rank = ((want / 100.0) * n as f64).ceil() as usize;
    let wanted = rank.saturating_sub(1).min(n - 1);
    let index = wanted.min(n.saturating_sub(11)).max(n / 2);
    let percentile = if index == wanted {
        want
    } else {
        100.0 * (index + 1) as f64 / n as f64
    };
    Tail {
        percentile,
        value: v[index],
        samples: n,
    }
}

/// Median of the per-pair ratios `checked / base`.
///
/// # Panics
///
/// On no pairs.
pub fn pair_ratio(pairs: &[(f64, f64)]) -> f64 {
    let ratios: Vec<f64> = pairs
        .iter()
        .map(|&(checked, base)| checked / base)
        .collect();
    median(&ratios)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    /// Two phases of the machine, one slower by half: the median sits in
    /// the phase that held most passes, the mean between the two by the
    /// time spent in each.
    #[test]
    fn mean_weighs_phases_where_the_median_jumps() {
        let mostly_fast = [1.0, 1.0, 1.0, 1.5, 1.5];
        let mostly_slow = [1.0, 1.0, 1.5, 1.5, 1.5];
        assert_eq!(median(&mostly_fast), 1.0);
        assert_eq!(median(&mostly_slow), 1.5);
        assert!((mean(&mostly_fast) - 1.2).abs() < 1e-12);
        assert!((mean(&mostly_slow) - 1.3).abs() < 1e-12);
    }

    /// Values cross-checked against CPython 3.11:
    /// `statistics.quantiles([...], n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), [1.0, 3.0, 5.0]);
        let spread = relative_spread(&ten);
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = tail(&big, 99.0);
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 9_900.0, 10_000));
        // 200 samples: p99 would leave two beyond, so the 190th (p95,
        // ten beyond) is used instead.
        let small: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&small, 99.0);
        assert_eq!(t.value, 190.0);
        assert!((t.percentile - 95.0).abs() < 1e-12);
        assert_eq!(small.iter().filter(|&&x| x > t.value).count(), 10);
        // Too few samples for a tail above the median.
        let t = tail(&[3.0, 1.0, 2.0, 4.0], 99.0);
        assert_eq!((t.percentile, t.value, t.samples), (75.0, 3.0, 4));
        assert!(t.value >= median(&[3.0, 1.0, 2.0, 4.0]));
    }

    /// A slow phase that hits both halves of a pair cancels in the pair
    /// ratio, while the ratio of medians mixes pairs from different
    /// phases and is pulled off the true overhead.
    #[test]
    fn pair_ratio_differs_from_ratio_of_medians() {
        let pairs = [
            (1.2, 1.0),
            (1.2, 1.0),
            (3.3, 3.0),
            (12.0, 10.0),
            (13.0, 10.0),
        ];
        assert!((pair_ratio(&pairs) - 1.2).abs() < 1e-12);
        let checked: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let base: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let of_medians = median(&checked) / median(&base);
        assert!((of_medians - 1.2).abs() > 0.05, "{of_medians}");
    }
}
