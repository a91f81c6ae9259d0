//! Order statistics over timing samples.

/// The median of `values` (mean of the two middle values for an even
/// count). `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The nearest-rank `q`-quantile of `values`, refused (`None`) unless at
/// least ten samples lie beyond it: a tail percentile read off fewer
/// samples is one or two observations, not a distribution.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || !(0.0..1.0).contains(&q) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).max(1);
    let beyond = v.len() - rank;
    (beyond >= 10).then(|| v[rank - 1])
}

/// The arithmetic mean; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_is_refused_with_fewer_than_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=999).map(f64::from).collect();
        // 999 samples: rank ceil(0.99 * 999) = 990 leaves 9 beyond.
        assert_eq!(percentile(&values, 0.99), None);
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: rank 990 leaves exactly 10 beyond.
        assert_eq!(percentile(&values, 0.99), Some(990.0));
        assert_eq!(percentile(&values, 0.5), Some(500.0));
        assert_eq!(percentile(&[1.0; 5], 0.5), None);
    }
}
