//! Order statistics.

/// The `q`-quantile of ascending `sorted`, interpolating linearly
/// between neighbours; `0` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => {
            let pos = q * (n - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median and interquartile range of `xs`; `(0, 0)` when empty.
pub fn median_iqr(mut xs: Vec<f64>) -> (f64, f64) {
    xs.sort_by(f64::total_cmp);
    (
        quantile(&xs, 0.5),
        quantile(&xs, 0.75) - quantile(&xs, 0.25),
    )
}

/// The nearest-rank `q`-percentile of ascending `sorted`: the smallest
/// sample with at least a `q` share of the samples at or below it.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
