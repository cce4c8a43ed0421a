//! Order statistics and the process's peak memory.

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile `q` of weighted samples `(value, weight)`.
pub fn weighted_quantile(samples: &mut [(u64, u64)], q: f64) -> u64 {
    samples.sort_unstable();
    let total: u64 = samples.iter().map(|s| s.1).sum();
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total.max(1));
    let mut seen = 0;
    for &(value, weight) in samples.iter() {
        seen += weight;
        if seen >= rank {
            return value;
        }
    }
    0
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the exclusive method) — the driver's spread is `(q3 - q1) / median`.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// `VmHWM` of this process in MiB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
