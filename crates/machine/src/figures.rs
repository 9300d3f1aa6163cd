//! Generators for every figure and table of the paper's evaluation.
//!
//! Each generator returns plain data (`Figure` with labeled series);
//! the `repro` binary in `pdesched-bench` renders them as text tables.
//! Paper-reference values for EXPERIMENTS.md comparisons are in the
//! bandwidth experiment's rows.

use crate::engine::SimPoint;
use crate::model::{predict_time, Workload};
use crate::spec::MachineSpec;
use crate::traffic::TrafficCache;
use pdesched_core::{CompLoop, Granularity, IntraTile, Variant};
use pdesched_kernels::ghost;

/// One plotted line: a label and (x, y) points.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label (paper style, e.g. `"Shift-Fuse OT-8: P<Box"`).
    pub label: String,
    /// Data points.
    pub points: Vec<(f64, f64)>,
}

/// One figure: id, title, axis labels, series.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Paper figure id, e.g. `"fig2"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// X-axis label.
    pub xlabel: String,
    /// Y-axis label.
    pub ylabel: String,
    /// The lines.
    pub series: Vec<Series>,
}

/// Figure 1: ratio of total to physical cells vs box size.
pub fn figure1() -> Figure {
    let ns = [16u32, 32, 64, 128];
    let mut series = Vec::new();
    for (dim, g) in [(3u32, 2u32), (3, 5), (4, 2), (4, 5)] {
        series.push(Series {
            label: format!("{dim}D, {g} ghost"),
            points: ghost::figure1_series(&ns, dim, g)
                .into_iter()
                .map(|(n, r)| (n as f64, r))
                .collect(),
        });
    }
    Figure {
        id: "fig1".into(),
        title: "Ratio of total cells to physical cells as a function of box size".into(),
        xlabel: "Box size (dimension of hyper-cube)".into(),
        ylabel: "Total cells / Physical cells".into(),
        series,
    }
}

/// Thread counts plotted for a machine (paper axis ticks).
pub fn thread_counts(spec: &MachineSpec) -> Vec<usize> {
    let mut t = vec![1usize, 2, 4, 8];
    let cores = spec.cores();
    for extra in [12, 16, 20, 24] {
        if extra < cores && !t.contains(&extra) {
            t.push(extra);
        }
    }
    t.push(cores);
    if spec.smt > 1 {
        t.push(spec.hw_threads());
    }
    t.retain(|&x| x <= spec.hw_threads());
    t.sort_unstable();
    t.dedup();
    t
}

fn scaling_series(
    spec: &MachineSpec,
    label: &str,
    variant: Variant,
    wl: Workload,
    cache: &TrafficCache,
    threads: &[usize],
) -> Series {
    Series {
        label: label.to_string(),
        points: threads
            .iter()
            .map(|&t| (t as f64, predict_time(spec, variant, wl, t, cache).seconds))
            .collect(),
    }
}

fn cli(mut v: Variant) -> Variant {
    v.comp = CompLoop::Inside;
    v
}

/// The machine-specific best N=128 variant highlighted in Figures 2–4
/// (the diamond-marked series).
pub fn best_variant_fig234(spec: &MachineSpec) -> (String, Variant) {
    if spec.name.contains("Magny") {
        // Fig. 2: Shift-Fuse OT-16: P>=Box.
        (
            "Shift-Fuse OT-16: P>=Box".into(),
            Variant::overlapped(IntraTile::ShiftFuse, 16, Granularity::OverBoxes),
        )
    } else if spec.name.contains("Ivy") {
        // Fig. 3: Shift-Fuse OT-8: P<Box.
        (
            "Shift-Fuse OT-8: P<Box".into(),
            Variant::overlapped(IntraTile::ShiftFuse, 8, Granularity::WithinBox),
        )
    } else {
        // Fig. 4: Shift-Fuse OT-16: P<Box.
        (
            "Shift-Fuse OT-16: P<Box".into(),
            Variant::overlapped(IntraTile::ShiftFuse, 16, Granularity::WithinBox),
        )
    }
}

/// Figures 2, 3, 4: baseline and shift-fuse at N = 16 vs the baseline
/// and the best tiled schedule at N = 128, across thread counts.
pub fn figure234(spec: &MachineSpec, cache: &TrafficCache, id: &str) -> Figure {
    figure234_sized(spec, cache, id, 128)
}

/// [`figure234`] with a substitute for the 128^3 box (`--fast` mode uses
/// 64^3: ~8x cheaper traces, same qualitative shapes).
pub fn figure234_sized(spec: &MachineSpec, cache: &TrafficCache, id: &str, big_n: i32) -> Figure {
    let threads = thread_counts(spec);
    let wl16 = Workload::paper(16);
    let wl128 = Workload::paper(big_n);
    let (best_label, best) = best_variant_fig234(spec);
    let series = vec![
        scaling_series(spec, "Baseline: P>=Box, N=16", Variant::baseline(), wl16, cache, &threads),
        scaling_series(
            spec,
            "Shift-Fuse: P>=Box, N=16",
            Variant::shift_fuse(),
            wl16,
            cache,
            &threads,
        ),
        scaling_series(
            spec,
            &format!("Baseline: P>=Box, N={big_n}"),
            Variant::baseline(),
            wl128,
            cache,
            &threads,
        ),
        scaling_series(spec, &format!("{best_label}, N={big_n}"), best, wl128, cache, &threads),
    ];
    Figure {
        id: id.into(),
        title: format!("Performance on {}", spec.name),
        xlabel: "Thread Count".into(),
        ylabel: "Execution Time (s)".into(),
        series,
    }
}

/// Every traffic measurement [`figure234_sized`] will perform, for
/// parallel prewarming by the sweep engine.
pub fn figure234_points(spec: &MachineSpec, big_n: i32) -> Vec<SimPoint> {
    let threads = thread_counts(spec);
    let (_, best) = best_variant_fig234(spec);
    let mut pts = Vec::new();
    for (variant, n) in [
        (Variant::baseline(), 16),
        (Variant::shift_fuse(), 16),
        (Variant::baseline(), big_n),
        (best, big_n),
    ] {
        for &t in &threads {
            pts.push(SimPoint::for_prediction(spec, variant, n, t));
        }
    }
    pts
}

/// The seven N=128 schedules plotted in Figures 10–12 for each machine.
pub fn n128_variants(spec: &MachineSpec) -> Vec<(String, Variant)> {
    let ot = Variant::overlapped;
    let base: Vec<(String, Variant)> = vec![
        ("Baseline: P>=Box".into(), Variant::baseline()),
        ("Shift-Fuse: P>=Box".into(), Variant::shift_fuse()),
    ];
    let mut rest: Vec<(String, Variant)> = if spec.name.contains("Magny") {
        vec![
            ("Blocked WF-CLO-16: P<Box".into(), Variant::blocked_wavefront(CompLoop::Outside, 16)),
            ("Shift-Fuse OT-8: P<Box".into(), ot(IntraTile::ShiftFuse, 8, Granularity::WithinBox)),
            ("Basic-Sched OT-8: P<Box".into(), ot(IntraTile::Basic, 8, Granularity::WithinBox)),
            (
                "Shift-Fuse OT-16: P>=Box".into(),
                ot(IntraTile::ShiftFuse, 16, Granularity::OverBoxes),
            ),
            ("Basic-Sched OT-16: P>=Box".into(), ot(IntraTile::Basic, 16, Granularity::OverBoxes)),
        ]
    } else if spec.name.contains("Ivy") {
        vec![
            ("Blocked WF-CLI-4: P<Box".into(), Variant::blocked_wavefront(CompLoop::Inside, 4)),
            ("Shift-Fuse OT-8: P<Box".into(), ot(IntraTile::ShiftFuse, 8, Granularity::WithinBox)),
            ("Basic-Sched OT-16: P<Box".into(), ot(IntraTile::Basic, 16, Granularity::WithinBox)),
            ("Shift-Fuse OT-8: P>=Box".into(), ot(IntraTile::ShiftFuse, 8, Granularity::OverBoxes)),
            ("Basic-Sched OT-16: P>=Box".into(), ot(IntraTile::Basic, 16, Granularity::OverBoxes)),
        ]
    } else {
        vec![
            ("Blocked WF-CLI-16: P<Box".into(), Variant::blocked_wavefront(CompLoop::Inside, 16)),
            (
                "Shift-Fuse OT-16: P<Box".into(),
                ot(IntraTile::ShiftFuse, 16, Granularity::WithinBox),
            ),
            ("Basic-Sched OT-16: P<Box".into(), ot(IntraTile::Basic, 16, Granularity::WithinBox)),
            ("Shift-Fuse OT-8: P>=Box".into(), ot(IntraTile::ShiftFuse, 8, Granularity::OverBoxes)),
            ("Basic-Sched OT-16: P>=Box".into(), ot(IntraTile::Basic, 16, Granularity::OverBoxes)),
        ]
    };
    let mut all = base;
    all.append(&mut rest);
    all
}

/// Figures 10, 11, 12: all seven highlighted schedules at N = 128.
pub fn figure1012(spec: &MachineSpec, cache: &TrafficCache, id: &str) -> Figure {
    let threads = thread_counts(spec);
    let wl = Workload::paper(128);
    let series = n128_variants(spec)
        .into_iter()
        .map(|(label, v)| scaling_series(spec, &label, v, wl, cache, &threads))
        .collect();
    Figure {
        id: id.into(),
        title: format!("Performance on {} (N=128)", spec.name),
        xlabel: "Thread Count".into(),
        ylabel: "Execution Time (s)".into(),
        series,
    }
}

/// The candidate set Figure 9 minimizes over (the schedules the paper
/// found competitive, for both granularities).
pub fn fig9_candidates(gran: Granularity, n: i32) -> Vec<Variant> {
    let mut out = vec![
        Variant { gran, ..Variant::baseline() },
        Variant { gran, ..Variant::shift_fuse() },
        cli(Variant { gran, ..Variant::shift_fuse() }),
    ];
    for t in [8, 16] {
        if t < n {
            out.push(Variant { gran, ..Variant::blocked_wavefront(CompLoop::Outside, t) });
            out.push(Variant { gran, ..Variant::blocked_wavefront(CompLoop::Inside, t) });
            out.push(Variant::overlapped(IntraTile::ShiftFuse, t, gran));
            out.push(Variant::overlapped(IntraTile::Basic, t, gran));
        }
    }
    out
}

/// Every traffic measurement [`figure1012`] will perform.
pub fn figure1012_points(spec: &MachineSpec) -> Vec<SimPoint> {
    let threads = thread_counts(spec);
    let mut pts = Vec::new();
    for (_, variant) in n128_variants(spec) {
        for &t in &threads {
            pts.push(SimPoint::for_prediction(spec, variant, 128, t));
        }
    }
    pts
}

/// Every traffic measurement [`figure9`] will perform.
pub fn figure9_points() -> Vec<SimPoint> {
    let machines = [MachineSpec::magny_cours(), MachineSpec::ivy_bridge_node()];
    let mut pts = Vec::new();
    for spec in &machines {
        for gran in [Granularity::OverBoxes, Granularity::WithinBox] {
            for n in [16, 32, 64, 128] {
                for v in fig9_candidates(gran, n) {
                    for t in [spec.cores() / 2, spec.cores()] {
                        pts.push(SimPoint::for_prediction(spec, v, n, t.max(1)));
                    }
                }
            }
        }
    }
    pts
}

/// Figure 9: fastest configuration per box size, for parallelization
/// over boxes vs within boxes, on the AMD and Ivy Bridge nodes.
pub fn figure9(cache: &TrafficCache) -> Figure {
    let machines = [MachineSpec::magny_cours(), MachineSpec::ivy_bridge_node()];
    let mut series = Vec::new();
    for spec in &machines {
        for gran in [Granularity::OverBoxes, Granularity::WithinBox] {
            let glabel = match gran {
                Granularity::OverBoxes => "P>=Box",
                Granularity::WithinBox => "P<Box",
            };
            let mut points = Vec::new();
            for n in [16, 32, 64, 128] {
                let wl = Workload::paper(n);
                // Best over candidate variants and two thread counts.
                let mut best = f64::INFINITY;
                for v in fig9_candidates(gran, n) {
                    for t in [spec.cores() / 2, spec.cores()] {
                        let p = predict_time(spec, v, wl, t.max(1), cache);
                        best = best.min(p.seconds);
                    }
                }
                points.push((n as f64, best));
            }
            series.push(Series { label: format!("{} {}", short_name(spec), glabel), points });
        }
    }
    Figure {
        id: "fig9".into(),
        title: "Best Performance with Box Size".into(),
        xlabel: "Box Size".into(),
        ylabel: "Execution Time (s)".into(),
        series,
    }
}

fn short_name(spec: &MachineSpec) -> &'static str {
    if spec.name.contains("Magny") {
        "AMD Magny-Cours"
    } else if spec.name.contains("Ivy") {
        "Intel Ivy Bridge"
    } else {
        "Intel Sandy Bridge"
    }
}

/// One row of the Section VI-B bandwidth experiment on the i5 desktop.
#[derive(Clone, Debug)]
pub struct BandwidthRow {
    /// Schedule label.
    pub schedule: String,
    /// Box size.
    pub n: i32,
    /// Threads.
    pub threads: usize,
    /// Model-sustained bandwidth (GB/s).
    pub predicted_gbs: f64,
    /// The VTune figure the paper reports (GB/s), if given.
    pub paper_gbs: Option<f64>,
}

/// The (schedule, N, threads, paper GB/s) rows of the Section VI-B
/// experiment.
fn bandwidth_rows() -> Vec<(&'static str, Variant, i32, usize, Option<f64>)> {
    vec![
        ("Baseline", Variant::baseline(), 16, 1, Some(4.9)),
        ("Baseline", Variant::baseline(), 16, 4, Some(14.5)),
        ("Baseline", Variant::baseline(), 128, 1, Some(18.3)),
        ("Shift-Fuse", Variant::shift_fuse(), 16, 1, Some(3.9)),
        ("Shift-Fuse", Variant::shift_fuse(), 128, 1, Some(9.4)),
    ]
}

/// Every traffic measurement [`bandwidth_experiment`] will perform.
pub fn bandwidth_points() -> Vec<SimPoint> {
    let spec = MachineSpec::i5_desktop();
    bandwidth_rows()
        .into_iter()
        .map(|(_, v, n, t, _)| SimPoint::for_prediction(&spec, v, n, t))
        .collect()
}

/// The VTune bandwidth observations of Section VI-B, reproduced on the
/// i5 desktop model.
pub fn bandwidth_experiment(cache: &TrafficCache) -> Vec<BandwidthRow> {
    let spec = MachineSpec::i5_desktop();
    bandwidth_rows()
        .into_iter()
        .map(|(label, v, n, t, paper)| {
            let p = predict_time(&spec, v, Workload::paper(n), t, cache);
            BandwidthRow {
                schedule: label.to_string(),
                n,
                threads: t,
                predicted_gbs: p.bandwidth_gbs,
                paper_gbs: paper,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_matches_formula() {
        let f = figure1();
        assert_eq!(f.series.len(), 4);
        // 3D 2-ghost at N=16.
        let p = &f.series[0].points[0];
        assert!((p.1 - 1.953125).abs() < 1e-12);
        // Every series decreases with box size.
        for s in &f.series {
            for w in s.points.windows(2) {
                assert!(w[1].1 < w[0].1, "{}", s.label);
            }
        }
    }

    #[test]
    fn thread_counts_end_at_hw_threads() {
        let ivy = MachineSpec::ivy_bridge_node();
        let t = thread_counts(&ivy);
        assert_eq!(*t.last().unwrap(), 40);
        assert!(t.contains(&20));
        let sandy = MachineSpec::sandy_bridge_node();
        assert_eq!(*thread_counts(&sandy).last().unwrap(), 16);
    }

    #[test]
    fn n128_variant_sets_have_seven() {
        for spec in MachineSpec::evaluation_nodes() {
            let v = n128_variants(&spec);
            assert_eq!(v.len(), 7, "{}", spec.name);
            for (_, var) in v {
                assert!(var.valid_for_box(128));
            }
        }
    }

    #[test]
    fn prewarmed_figure234_generates_without_simulating() {
        // The point enumerator must cover the generator exactly: after a
        // parallel prewarm, figure generation is all cache hits — and
        // therefore byte-identical to a serial run.
        use crate::engine::SweepEngine;
        let spec = MachineSpec::i5_desktop();
        let big_n = 16; // keep the test cheap; the enumeration logic is size-blind
        let serial_cache = TrafficCache::new();
        let serial = figure234_sized(&spec, &serial_cache, "figX", big_n);
        let cache = TrafficCache::new();
        let engine = SweepEngine::new(4);
        engine.prewarm(&cache, &figure234_points(&spec, big_n));
        let misses_before = cache.stats().misses;
        let warm = figure234_sized(&spec, &cache, "figX", big_n);
        assert_eq!(cache.stats().misses, misses_before, "generation must not simulate");
        for (a, b) in serial.series.iter().zip(&warm.series) {
            assert_eq!(a.label, b.label);
            for (pa, pb) in a.points.iter().zip(&b.points) {
                assert_eq!(pa.0.to_bits(), pb.0.to_bits(), "{}", a.label);
                assert_eq!(pa.1.to_bits(), pb.1.to_bits(), "{}", a.label);
            }
        }
    }

    #[test]
    fn bandwidth_points_cover_experiment() {
        use crate::engine::SweepEngine;
        let cache = TrafficCache::new();
        SweepEngine::new(2).prewarm(&cache, &bandwidth_points());
        let misses_before = cache.stats().misses;
        let rows = bandwidth_experiment(&cache);
        assert_eq!(rows.len(), 5);
        assert_eq!(cache.stats().misses, misses_before, "experiment must not simulate");
    }

    #[test]
    fn point_enumerators_match_generator_shapes() {
        // Structural coverage for the expensive figures (their actual
        // simulation is exercised by the repro binary, not unit tests):
        // one point per (series, thread count) for the scaling figures,
        // and per (machine, gran, n, candidate, thread pick) for fig 9.
        for spec in MachineSpec::evaluation_nodes() {
            let nt = thread_counts(&spec).len();
            assert_eq!(figure234_points(&spec, 128).len(), 4 * nt, "{}", spec.name);
            assert_eq!(figure1012_points(&spec).len(), 7 * nt, "{}", spec.name);
        }
        let per_machine: usize = [16, 32, 64, 128]
            .iter()
            .map(|&n| 2 * 2 * fig9_candidates(Granularity::OverBoxes, n).len())
            .sum();
        assert_eq!(figure9_points().len(), 2 * per_machine);
    }

    #[test]
    fn fig9_candidates_valid() {
        for gran in [Granularity::OverBoxes, Granularity::WithinBox] {
            for n in [16, 32, 64, 128] {
                for v in fig9_candidates(gran, n) {
                    assert!(v.valid_for_box(n), "{v} for n={n}");
                }
            }
        }
    }
}
