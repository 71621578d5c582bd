//! Order statistics the benchmark reports: medians, quartiles, and the
//! tail rule ("the highest percentile with at least ten samples beyond
//! it, capped at p99").

/// Fewest samples that must lie beyond a percentile for it to be reported.
pub const TAIL_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller reports a measurement that
/// must exist.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The value at quantile `q` in `[0, 1]` by the nearest-rank rule
/// (`ceil(q·n)`-th smallest).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method), so `compare` and the driver agree on
/// what "spread" means. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based axis; the neighbours are
        // clamped into the sample and the ends extrapolate, as in Python.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// A reported tail: the value, which percentile it is, and how many
/// samples lie beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at the tail percentile.
    pub value: f64,
    /// The percentile reported, in `(0, 99]`.
    pub percentile: f64,
    /// Samples strictly after `value` in sorted order.
    pub beyond: usize,
    /// Total samples.
    pub count: usize,
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it, capped at p99. `None` when the sample supports no such percentile
/// (ten samples or fewer).
pub fn tail(values: &[f64]) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let p99 = (0.99 * n as f64).ceil() as usize - 1;
    let idx = p99.min(n - 1 - TAIL_BEYOND);
    Some(Tail {
        value: v[idx],
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
        beyond: n - 1 - idx,
        count: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_rule_at_the_sample_sizes_that_matter() {
        assert_eq!(tail(&ramp(0)), None);
        assert_eq!(tail(&ramp(9)), None);
        assert_eq!(tail(&ramp(10)), None, "ten samples leave none before");
        let t = tail(&ramp(11)).unwrap();
        assert_eq!((t.value, t.beyond, t.count), (1.0, 10, 11));
        // 1 000 samples: p99 is the 990th value and exactly ten lie beyond.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.value, t.beyond), (990.0, 10));
        assert!((t.percentile - 99.0).abs() < 1e-9);
        // Above that the cap holds and more than ten lie beyond.
        let t = tail(&ramp(5000)).unwrap();
        assert_eq!((t.value, t.beyond), (4950.0, 50));
        // Between: the percentile slides so that ten stay beyond.
        let t = tail(&ramp(300)).unwrap();
        assert_eq!((t.value, t.beyond), (290.0, 10));
        assert!(t.percentile < 99.0);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&ramp(10), 0.5), 5.0);
        assert_eq!(percentile(&ramp(10), 0.9), 9.0);
        assert_eq!(percentile(&ramp(10), 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let (q1, q3) = quartiles(&ramp(10)).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&ramp(3)).unwrap(), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]).unwrap(), (0.75, 2.25));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
