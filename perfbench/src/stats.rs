//! Medians and the tail-percentile rule.

/// The median of `values` (mean of the two middle values for an even
/// count), or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// A tail latency: the value at whole percentile `pct` (nearest rank) of
/// `n` samples, with `beyond` samples ranked above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub pct: u32,
    pub value: f64,
    pub n: usize,
    pub beyond: usize,
}

/// The fewest samples a tail percentile must have ranked above it.
pub const MIN_BEYOND: usize = 10;

/// The highest whole percentile (50–99) that has at least
/// [`MIN_BEYOND`] samples ranked above it, by the nearest-rank
/// definition (rank `ceil(p/100 · n)`). `None` when even the median has
/// fewer than ten samples above it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (50..=99u32).rev().find_map(|pct| {
        let rank = (pct as usize * n).div_ceil(100).max(1);
        let beyond = n.checked_sub(rank)?;
        (rank <= n && beyond >= MIN_BEYOND).then(|| Tail {
            pct,
            value: v[rank - 1],
            n,
            beyond,
        })
    })
}

/// The nearest-rank percentile `pct` (0–100) of `values`.
pub fn percentile(values: &[f64], pct: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    Some(v[rank.min(v.len()) - 1])
}
