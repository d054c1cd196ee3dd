//! Order statistics and means used by every workload.  All of them take the
//! samples as they were measured; nothing here rounds.

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample set: the
/// value at rank `ceil(p/100 * n)`, 1-based, clamped into the set.
///
/// # Panics
/// Panics on an empty set: every caller times at least one operation, so an
/// empty set is a harness bug and must not turn into a silent zero.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample set");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// How many samples lie strictly beyond the nearest-rank `p`-th percentile's
/// rank — the guide asks for at least ten before a tail is reported.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1)).min(n)
}

/// Geometric mean of strictly positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty set");
    assert!(
        values.iter().all(|v| *v > 0.0),
        "geomean needs positive values: {values:?}"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Quartiles by the "exclusive" method, the one Python's
/// `statistics.quantiles(values, n=4)` uses, so `selfcheck` and the driver
/// compute the same spread.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + frac * (sorted[j] - sorted[j - 1])
    };
    (at(1), at(2), at(3))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // Five samples: p90 is rank ceil(4.5) = 5, the maximum.
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 90.0), 5.0);
        assert_eq!(median(&[5.0, 1.0, 4.0, 2.0, 3.0]), 3.0);
        // Even count: nearest rank takes the lower middle, it never averages.
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "empty sample set")]
    fn percentile_refuses_an_empty_set() {
        percentile(&[], 50.0);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(120, 90.0), 12);
        assert_eq!(samples_beyond(5, 90.0), 0);
        assert_eq!(samples_beyond(400, 95.0), 20);
    }

    #[test]
    fn geomean_is_scale_free() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        // One cell ten times slower moves the geomean of six by 10^(1/6).
        let base = geomean(&[3.0; 6]);
        let slow = geomean(&[3.0, 3.0, 3.0, 3.0, 3.0, 30.0]);
        assert!((slow / base - 10f64.powf(1.0 / 6.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_refuses_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, _, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
