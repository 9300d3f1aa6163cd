//! Ghost-cell overhead analytics (paper Figure 1).

/// Ratio of total cells (physical + ghost) to physical cells for a
/// `D`-dimensional box of `n` cells per side with `g` ghost layers:
/// `(1 + 2g/n)^D` — the quantity plotted in Figure 1.
///
/// ```
/// use pdesched_kernels::ghost::ratio;
/// // A 16^3 box with 2 ghost layers nearly doubles its storage:
/// assert!((ratio(16, 3, 2) - 1.953125).abs() < 1e-12);
/// // Five ghosts need a box of 64 to get under 2x (paper Sec. I):
/// assert!(ratio(32, 3, 5) >= 2.0 && ratio(64, 3, 5) < 2.0);
/// ```
pub fn ratio(n: u32, dim: u32, ghosts: u32) -> f64 {
    assert!(n > 0);
    (1.0 + 2.0 * ghosts as f64 / n as f64).powi(dim as i32)
}

/// Total cells including ghosts for a `dim`-dimensional hypercube box.
pub fn total_cells(n: u32, dim: u32, ghosts: u32) -> u64 {
    (n as u64 + 2 * ghosts as u64).pow(dim)
}

/// One series of Figure 1: the ratio at box sizes `ns` for fixed
/// dimension and ghost count.
pub fn figure1_series(ns: &[u32], dim: u32, ghosts: u32) -> Vec<(u32, f64)> {
    ns.iter().map(|&n| (n, ratio(n, dim, ghosts))).collect()
}

/// Smallest box size (power of two up to `limit`) whose ghost ratio is
/// below `threshold`; `None` when even `limit` is not enough. The paper
/// observes that with 5 ghosts a box of 64 is needed to get under 2.0.
pub fn min_box_for_ratio(dim: u32, ghosts: u32, threshold: f64, limit: u32) -> Option<u32> {
    let mut n = 1;
    while n <= limit {
        if ratio(n, dim, ghosts) < threshold {
            return Some(n);
        }
        n *= 2;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_matches_exact_counts() {
        for (n, d, g) in [(16u32, 3u32, 2u32), (32, 3, 5), (64, 4, 2), (128, 4, 5)] {
            let exact = total_cells(n, d, g) as f64 / (n as u64).pow(d) as f64;
            assert!((ratio(n, d, g) - exact).abs() < 1e-12);
        }
    }

    #[test]
    fn ratio_decreases_with_box_size() {
        let series = figure1_series(&[16, 32, 64, 128], 3, 5);
        for w in series.windows(2) {
            assert!(w[1].1 < w[0].1);
        }
    }

    #[test]
    fn paper_observation_five_ghosts_need_box_64() {
        // "Given five ghosts, a box size of 64 is necessary to get the
        // ratio below 2.0" (3-D).
        assert!(ratio(32, 3, 5) >= 2.0);
        assert!(ratio(64, 3, 5) < 2.0);
        assert_eq!(min_box_for_ratio(3, 5, 2.0, 128), Some(64));
    }

    #[test]
    fn figure1_anchor_values() {
        // 3D, 2 ghosts, N=16: (1 + 4/16)^3 = 1.953125
        assert!((ratio(16, 3, 2) - 1.953125).abs() < 1e-12);
        // 4D, 5 ghosts, N=16: (1 + 10/16)^4 ≈ 6.97
        assert!((ratio(16, 4, 5) - (1.625f64).powi(4)).abs() < 1e-12);
        // Large boxes approach 1.
        assert!(ratio(1024, 3, 2) < 1.02);
    }

    #[test]
    fn higher_dim_higher_ratio() {
        for n in [16, 32, 64, 128] {
            assert!(ratio(n, 4, 2) > ratio(n, 3, 2));
            assert!(ratio(n, 6, 2) > ratio(n, 4, 2));
        }
    }
}
