//! Order statistics.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quartiles as Python's `statistics.quantiles(xs, n=4)` gives them
/// (the "exclusive" method), with the median in the middle.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let d = sorted(xs);
    match d.len() {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (d[0], d[0], d[0]),
        _ => {}
    }
    let ld = d.len() as i64;
    let m = ld + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (d[(j - 1) as usize] * (4.0 - delta) + d[j as usize] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// The `p`-th percentile (nearest rank).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let d = sorted(xs);
    if d.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * d.len() as f64).ceil() as usize;
    d[rank.clamp(1, d.len()) - 1]
}
