//! Order statistics the battery reports with: medians, quartiles and
//! percentiles over small sample sets.

use serde_json::Value;

/// `q`-quantile (`0.0..=1.0`) of an ascending-sorted slice, linearly
/// interpolated between the two nearest ranks; `0.0` on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts a copy of `values` ascending (NaNs last, never produced here).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    v
}

/// Percentile `p` (`0..=100`) of unsorted `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    quantile_sorted(&sorted(values), p / 100.0)
}

/// Median of unsorted `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// One reported number: the median of its samples with the quartiles and
/// sample count that say how far to trust it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summary of a sample set.
    pub fn of(values: &[f64]) -> Self {
        let s = sorted(values);
        Summary {
            median: quantile_sorted(&s, 0.5),
            q1: quantile_sorted(&s, 0.25),
            q3: quantile_sorted(&s, 0.75),
            n: s.len(),
        }
    }

    /// A number that is a single reading (a count, a ratio of totals).
    pub fn single(v: f64) -> Self {
        Self::total(v, 1)
    }

    /// One reading taken over `n` samples (a total divided by a count).
    pub fn total(v: f64, n: usize) -> Self {
        Summary {
            median: v,
            q1: v,
            q3: v,
            n,
        }
    }

    /// Interquartile range as a share of the median (`0.0` when the
    /// median is zero).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(self, unit: &str) -> Value {
        Value::Map(vec![
            ("median".into(), Value::Float(self.median)),
            ("q1".into(), Value::Float(self.q1)),
            ("q3".into(), Value::Float(self.q3)),
            ("n".into(), Value::UInt(self.n as u64)),
            ("unit".into(), Value::Str(unit.into())),
        ])
    }
}

/// `a ÷ b`, or `0.0` when the base is zero (a layer the workload never
/// drove reads zero, not NaN).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// LB4OMP's percent imbalance of per-worker loads: `(1 − mean/max)·100`.
pub fn pct_imbalance(loads: &[f64]) -> f64 {
    let max = loads.iter().cloned().fold(0.0, f64::max);
    if max <= 0.0 {
        return 0.0;
    }
    (1.0 - mean(loads) / max) * 100.0
}

/// Coefficient of variation (population σ ÷ mean) of per-worker loads.
pub fn cov(loads: &[f64]) -> f64 {
    let m = mean(loads);
    if loads.is_empty() || m == 0.0 {
        return 0.0;
    }
    let var = loads.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / loads.len() as f64;
    var.sqrt() / m
}

/// The paper's Fig. 3 imbalance factor: `max ÷ mean` of per-worker loads.
pub fn max_over_mean(loads: &[f64]) -> f64 {
    ratio(loads.iter().cloned().fold(0.0, f64::max), mean(loads))
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        let s = Summary::of(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((s.q1, s.median, s.q3), (17.5, 25.0, 32.5));
        assert!((s.spread() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn percentiles_hit_the_extremes_and_the_tail() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
        assert_eq!(percentile(&v, 99.0), 100.0);
        assert_eq!(percentile(&v, 90.0), 91.0);
    }

    #[test]
    fn imbalance_measures_agree_on_simple_loads() {
        assert_eq!(max_over_mean(&[2.0, 2.0]), 1.0);
        assert_eq!(pct_imbalance(&[2.0, 2.0]), 0.0);
        assert_eq!(cov(&[2.0, 2.0]), 0.0);
        assert_eq!(max_over_mean(&[3.0, 1.0]), 1.5);
        assert!((pct_imbalance(&[3.0, 1.0]) - 100.0 / 3.0).abs() < 1e-9);
        assert_eq!(cov(&[3.0, 1.0]), 0.5);
        assert_eq!(pct_imbalance(&[0.0, 0.0]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
