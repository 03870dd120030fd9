//! The estimators every reported number goes through.
//!
//! All of them interpolate linearly between order statistics, so a sample
//! of any size gives a defined value, and none of them rounds.

use std::collections::BTreeMap;

/// Sorted copy of `values`.
///
/// # Panics
///
/// Panics on NaN: a NaN sample is a bug in the harness, not data.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a sample"));
    v
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, interpolating between the
/// two nearest order statistics (position `q·(len−1)`).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let v = sorted(values);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The lower quartile: the estimator for probe batches.
pub fn lower_quartile(values: &[f64]) -> f64 {
    quantile(values, 0.25)
}

/// The smallest value: the estimator for the time of a deterministic
/// single-threaded pass. A pass on a shared host is slowed by its
/// neighbours, never sped up, so the fastest of many passes is the one
/// closest to what the code costs (see README.md).
pub fn fastest(values: &[f64]) -> f64 {
    quantile(values, 0.0)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method, position `q·(len+1)`, clamped to
/// the sample). The acceptance rule for the benchmark is stated in these
/// terms, so the noise gate uses the same definition.
pub fn quartiles_exclusive(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let v = sorted(values);
    let at = |q: f64| {
        let pos = (q * (v.len() + 1) as f64).clamp(1.0, v.len() as f64);
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(v.len());
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * (pos - lo as f64)
    };
    (at(0.25), at(0.75))
}

/// (Q3 − Q1) ÷ median: the run-to-run spread the acceptance rule bounds.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles_exclusive(values);
    (q3 - q1) / median(values)
}

/// (max − min) ÷ median.
pub fn range_over_median(values: &[f64]) -> f64 {
    let v = sorted(values);
    (v[v.len() - 1] - v[0]) / median(values)
}

/// Shape of one realized dissemination tree: for every node but the
/// origin, the time from its parent's delivery to its own, and the depth of
/// the deepest node. `at` is each node's delivery time, `parent` the node
/// its winning copy came from. A cycle in `parent` (a bug upstream) shows
/// as a depth above `at.len()`.
pub fn tree_shape(at: &BTreeMap<u32, f64>, parent: &BTreeMap<u32, u32>) -> (Vec<f64>, u32) {
    let mut hops = Vec::with_capacity(parent.len());
    let mut depth_max = 0;
    for (node, up) in parent {
        if let (Some(t), Some(t_up)) = (at.get(node), at.get(up)) {
            hops.push((t - t_up).max(0.0));
        }
        let (mut depth, mut cur) = (1u32, up);
        while let Some(next) = parent.get(cur) {
            depth += 1;
            cur = next;
            if depth as usize > at.len() {
                break;
            }
        }
        depth_max = depth_max.max(depth);
    }
    (hops, depth_max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_shape_measures_hops_and_depth() {
        // 0 → 1 → 2 and 0 → 3
        let at = BTreeMap::from([(0, 10.0), (1, 12.0), (2, 15.0), (3, 11.0)]);
        let parent = BTreeMap::from([(1, 0), (2, 1), (3, 0)]);
        let (mut hops, depth) = tree_shape(&at, &parent);
        hops.sort_by(f64::total_cmp);
        assert_eq!((hops, depth), (vec![1.0, 2.0, 3.0], 2));
        let cycle = BTreeMap::from([(1, 2), (2, 1)]);
        assert!(tree_shape(&at, &cycle).1 as usize > at.len());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn lower_quartile_interpolates() {
        // positions 0..4, q·(len−1) = 1.0 → the second order statistic
        assert_eq!(lower_quartile(&[50.0, 10.0, 20.0, 40.0, 30.0]), 20.0);
        // len 4: position 0.75 → 1 + 0.75·(2−1)
        assert_eq!(lower_quartile(&[1.0, 2.0, 3.0, 4.0]), 1.75);
        assert_eq!(lower_quartile(&[5.0]), 5.0);
    }

    #[test]
    fn low_estimators_ignore_slow_outliers() {
        let mut passes = vec![10.0; 8];
        passes.extend([90.0, 120.0, 300.0]);
        assert_eq!(lower_quartile(&passes), 10.0);
        assert_eq!(fastest(&passes), 10.0);
        assert_eq!(fastest(&[12.0, 9.5, 30.0]), 9.5);
    }

    #[test]
    fn quantile_ends_are_min_and_max() {
        let v = [9.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 2.0);
        assert_eq!(quantile(&v, 1.0), 9.0);
    }

    #[test]
    fn exclusive_quartiles_match_python() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles_exclusive(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((iqr_over_median(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]; clamped here
        // to the sample, which only narrows a two-point spread.
        assert_eq!(quartiles_exclusive(&[1.0, 2.0]), (1.0, 2.0));
    }

    #[test]
    fn range_over_median_is_relative() {
        assert_eq!(range_over_median(&[90.0, 100.0, 110.0]), 0.2);
    }
}
