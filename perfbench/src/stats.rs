//! Percentile maths shared by the timed window and the traced run.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks — the same rule as numpy's default and Python's
/// `statistics.quantiles(method="inclusive")`. `None` for no values.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(quantile_sorted(&sorted, q))
}

/// [`quantile`] over values already sorted ascending (not empty).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Arithmetic mean (`None` when empty).
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Latency summary of one timed window, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub samples: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: f64,
}

impl Latency {
    /// Summarises per-request latencies given in nanoseconds.
    pub fn from_ns(ns: &[u64]) -> Option<Latency> {
        if ns.is_empty() {
            return None;
        }
        let mut ms: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e6).collect();
        ms.sort_by(f64::total_cmp);
        Some(Latency {
            samples: ms.len(),
            p50: quantile_sorted(&ms, 0.5),
            p90: quantile_sorted(&ms, 0.9),
            p99: quantile_sorted(&ms, 0.99),
            max: ms[ms.len() - 1],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.25), Some(1.75));
        assert_eq!(quantile(&[7.0], 0.9), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn ten_runs_match_python_inclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4, method="inclusive")
        // == [3.25, 5.5, 7.75]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), Some(3.25));
        assert_eq!(quantile(&v, 0.5), Some(5.5));
        assert_eq!(quantile(&v, 0.75), Some(7.75));
    }

    #[test]
    fn latency_summary_is_in_milliseconds() {
        let ns: Vec<u64> = (1..=100).map(|i| i * 1_000_000).collect();
        let l = Latency::from_ns(&ns).unwrap();
        assert_eq!(l.samples, 100);
        assert!((l.p50 - 50.5).abs() < 1e-9);
        assert!((l.p90 - 90.1).abs() < 1e-9);
        assert!((l.p99 - 99.01).abs() < 1e-9);
        assert_eq!(l.max, 100.0);
        assert_eq!(Latency::from_ns(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
