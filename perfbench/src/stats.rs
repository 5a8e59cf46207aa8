//! Order statistics over measured samples.

/// Median (mean of the two middle values for an even count); NaN when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: the highest integer percentile with at
/// least 10 samples beyond it (nearest rank). Returns (percentile,
/// value, samples beyond); percentile 50 when there are too few samples.
pub fn tail(v: &[f64]) -> (u32, f64, usize) {
    if v.is_empty() {
        return (50, f64::NAN, 0);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let rank = |p: u32| (p as usize * n).div_ceil(100).max(1) - 1;
    let p = (50..=99)
        .rev()
        .find(|&p| n - 1 - rank(p) >= 10)
        .unwrap_or(50);
    (p, s[rank(p)], n - 1 - rank(p))
}
