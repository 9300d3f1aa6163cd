//! Order statistics for timings.
//!
//! Host interference on a shared sandbox is one-sided and bursty (a
//! burst can only make an operation slower), so the gated latency sits
//! on the quiet side of the distribution (the lower quartile) and the
//! gated throughput is the median pass, not the mean of the window.
//! Medians, means and tails are printed next to them, never gated.

/// Nearest-rank quantile of an ascending-sorted slice: the smallest
/// sample with at least `q` of the samples at or below it.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn quantile(samples: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(samples), q)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest of p99/p95/p90/p75 with at least ten samples beyond it,
/// as `(label, value)`; `None` when even p75 has fewer.
pub fn resolved_tail(sorted: &[f64]) -> Option<(&'static str, f64)> {
    // Integer ranks: 0.9 * 100 is not 90 in floating point.
    [("p99", 99), ("p95", 95), ("p90", 90), ("p75", 75)].into_iter().find_map(|(label, pct)| {
        let rank = (pct * sorted.len()).div_ceil(100);
        (rank >= 1 && sorted.len() - rank >= 10).then(|| (label, sorted[rank - 1]))
    })
}

/// One printed line per timing: median, p25, min/max, the resolved tail
/// percentile and the sample count.
pub fn describe(name: &str, unit: &str, samples: &[f64]) -> String {
    if samples.is_empty() {
        return format!("{name}: no samples");
    }
    let s = sorted(samples);
    let tail = match resolved_tail(&s) {
        Some((label, v)) => format!("{label} {v:.3} (highest percentile with >=10 samples beyond)"),
        None => "tail unresolved (<10 samples beyond p75)".to_string(),
    };
    let p99 = if s.len() >= 1000 { "" } else { ", p99 unresolved" };
    format!(
        "{name}: median {:.3} {unit}, p25 {:.3}, min {:.3}, max {:.3}, {tail}{p99}, n={}",
        quantile_sorted(&s, 0.5),
        quantile_sorted(&s, 0.25),
        s[0],
        s[s.len() - 1],
        s.len()
    )
}

/// Run-to-run spread the way the driver computes it: the distance
/// between the first and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method),
/// as a share of the median. `None` below two values.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let s = sorted(values);
    let n = s.len();
    let cut = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - j*4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    let mid = if n % 2 == 1 { s[n / 2] } else { (s[n / 2 - 1] + s[n / 2]) / 2.0 };
    Some((cut(3) - cut(1)) / mid)
}

/// Plain median of a set of run values (mean of the middle two for an
/// even count, as Python's `statistics.median`).
pub fn median_interp(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Geometric mean (multi-variant layer metrics).
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile_sorted(&s, 0.25), 2.0); // ceil(1.25) = 2nd
        assert_eq!(quantile_sorted(&s, 0.5), 3.0);
        assert_eq!(quantile_sorted(&s, 0.75), 4.0);
        assert_eq!(quantile_sorted(&s, 1.0), 5.0);
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        let s: Vec<f64> = (1..=4).map(f64::from).collect();
        assert_eq!(quantile_sorted(&s, 0.25), 1.0);
        assert_eq!(quantile_sorted(&s, 0.5), 2.0);
        assert_eq!(quantile(&[9.0, 1.0, 5.0], 0.5), 5.0);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(resolved_tail(&s).unwrap().0, "p90");
        let s: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(resolved_tail(&s).unwrap().0, "p99");
        let s: Vec<f64> = (0..39).map(f64::from).collect();
        assert!(resolved_tail(&s).is_none());
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v).unwrap() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((iqr_share(&[4.0, 1.0, 2.0]).unwrap() - 1.5).abs() < 1e-12);
        assert!(iqr_share(&[1.0]).is_none());
    }
}
