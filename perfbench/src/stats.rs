//! Order statistics for host-time samples.

/// Median of `values` (mean of the two middle values for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `0..=1`; `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// A latency tail: the value, the percentile it sits at and the sample
/// count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency at `percentile`.
    pub value: f64,
    /// Percentile in `0..=100`; 100 means the maximum.
    pub percentile: f64,
    /// Samples the tail was taken from.
    pub samples: usize,
}

/// The highest percentile that still has at least ten samples beyond
/// it, `100 * (1 - 10 / n)`. Runs with fewer than twenty samples have no
/// such percentile above the median, so their tail is the maximum.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    let percentile = if n >= 20 {
        100.0 * (1.0 - 10.0 / n as f64)
    } else {
        100.0
    };
    Some(Tail {
        value: quantile(values, percentile / 100.0)?,
        percentile,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert!((t.percentile - 90.0).abs() < 1e-9);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        let short = tail(&[1.0, 5.0, 3.0]).unwrap();
        assert_eq!(
            (short.value, short.percentile, short.samples),
            (5.0, 100.0, 3)
        );
    }
}
