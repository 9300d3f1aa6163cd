//! Rendering and setup helpers shared by the `repro` binary and the
//! native benches.

use pdesched_machine::figures::Figure;
pub use pdesched_machine::json::json_str;

pub mod harness {
    //! A std-only micro-benchmark harness: warm up once, take N timed
    //! samples, report min/median/mean on stderr.

    use std::time::{Duration, Instant};

    /// A named group of benchmarks sharing a sample count.
    pub struct Group {
        name: String,
        samples: usize,
    }

    impl Group {
        /// A group taking `samples` timed runs per benchmark.
        pub fn new(name: impl Into<String>, samples: usize) -> Self {
            Group { name: name.into(), samples: samples.max(1) }
        }

        /// Time `f`, discarding one warm-up run.
        pub fn bench<R>(&self, id: &str, mut f: impl FnMut() -> R) {
            std::hint::black_box(f());
            let mut times: Vec<Duration> = (0..self.samples)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(f());
                    t0.elapsed()
                })
                .collect();
            times.sort();
            let min = times[0];
            let median = times[times.len() / 2];
            let mean = times.iter().sum::<Duration>() / times.len() as u32;
            eprintln!(
                "{}/{id}: min {min:.1?}  median {median:.1?}  mean {mean:.1?}  ({} samples)",
                self.name, self.samples
            );
        }
    }
}

/// Render a [`Figure`] as an aligned text table: one row per x value,
/// one column per series.
pub fn render_figure(fig: &Figure) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "== {} [{}] ==", fig.title, fig.id);
    let _ = writeln!(out, "   y: {}", fig.ylabel);
    // Collect the union of x values in order of first appearance.
    let mut xs: Vec<f64> = Vec::new();
    for s in &fig.series {
        for (x, _) in &s.points {
            if !xs.iter().any(|v| v == x) {
                xs.push(*x);
            }
        }
    }
    let mut header = format!("{:>12}", fig.xlabel.split_whitespace().next().unwrap_or("x"));
    for s in &fig.series {
        let _ = write!(header, "  {:>28}", truncate(&s.label, 28));
    }
    let _ = writeln!(out, "{header}");
    for &x in &xs {
        let mut row = format!("{:>12}", trim_float(x));
        for s in &fig.series {
            match s.points.iter().find(|(px, _)| *px == x) {
                Some((_, y)) => {
                    let _ = write!(row, "  {:>28}", format!("{y:.4}"));
                }
                None => {
                    let _ = write!(row, "  {:>28}", "-");
                }
            }
        }
        let _ = writeln!(out, "{row}");
    }
    out
}

fn trim_float(x: f64) -> String {
    if x.fract() == 0.0 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n - 1])
    }
}

/// Build a filled single-box test pair: `phi0` with 2 ghost layers of
/// synthetic data and a zeroed `phi1`, over an `n^3` box.
pub fn box_pair(
    n: i32,
    seed: u64,
) -> (pdesched_mesh::FArrayBox, pdesched_mesh::FArrayBox, pdesched_mesh::IBox) {
    use pdesched_kernels::{GHOST, NCOMP};
    use pdesched_mesh::{FArrayBox, IBox};
    let cells = IBox::cube(n);
    let mut phi0 = FArrayBox::new(cells.grown(GHOST), NCOMP);
    phi0.fill_synthetic(seed);
    let phi1 = FArrayBox::new(cells, NCOMP);
    (phi0, phi1, cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdesched_machine::figures::{Figure, Series};

    #[test]
    fn render_produces_rows_and_columns() {
        let fig = Figure {
            id: "figX".into(),
            title: "Test".into(),
            xlabel: "Threads".into(),
            ylabel: "Seconds".into(),
            series: vec![
                Series { label: "a".into(), points: vec![(1.0, 2.0), (2.0, 1.0)] },
                Series { label: "b".into(), points: vec![(1.0, 4.0)] },
            ],
        };
        let text = render_figure(&fig);
        assert!(text.contains("figX"));
        assert!(text.contains("2.0000"));
        // Missing point rendered as '-'.
        assert!(text.lines().last().unwrap().contains('-'));
        // Two x rows plus headers.
        assert_eq!(text.lines().count(), 5);
    }

    #[test]
    fn box_pair_shapes() {
        let (phi0, phi1, cells) = box_pair(8, 1);
        assert_eq!(cells.num_pts(), 512);
        assert_eq!(phi0.region(), cells.grown(2));
        assert_eq!(phi1.region(), cells);
        assert!(phi0.data().iter().all(|v| *v != 0.0));
        assert!(phi1.data().iter().all(|v| *v == 0.0));
    }
}
