//! Order statistics used for every reported number.

/// Sorted copy of `values` (total order on floats; NaN sorts last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles with the same interpolation as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive"
/// method), so the spreads printed here match the ones any script
/// computes from the printed values. A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n == 1 {
        return (v[0], v[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The `q` quantile (nearest rank) when at least ten samples lie
/// beyond it, else `None`: a percentile with fewer samples past it is
/// not a tail. p90 therefore needs 100 samples and p75 needs 40.
pub fn tail(values: &[f64], q: f64) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < 10 {
        return None;
    }
    Some(v[rank - 1])
}

/// [`tail`], or the median when the sample is too small for the tail.
pub fn tail_or_median(values: &[f64], q: f64) -> f64 {
    tail(values, q).unwrap_or_else(|| median(values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 0.9), Some(90.0));
        assert_eq!(tail(&v[..99], 0.9), None);
        let w: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&w, 0.75), Some(30.0));
        assert_eq!(tail(&w[..39], 0.75), None);
        assert_eq!(tail(&[], 0.75), None);
    }

    #[test]
    fn short_samples_fall_back_to_the_median() {
        assert_eq!(tail_or_median(&[1.0, 2.0, 9.0], 0.9), 2.0);
    }
}
