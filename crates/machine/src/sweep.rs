//! Design-space sweeps: rank every schedule variant on a machine.
//!
//! The paper's tables of "best performing schedule per machine" come
//! from exactly this exercise. [`rank_variants`] evaluates the full
//! (extended) variant space with the analytic traffic model — instant —
//! and returns the ranking; the top candidates can then be re-evaluated
//! with the simulator-backed model for confirmation.

use crate::analytic::analytic_pair_traffic;
use crate::engine::{SimPoint, SweepEngine};
use crate::model::{predict_time, predict_time_analytic, Prediction, Workload};
use crate::spec::MachineSpec;
use crate::traffic::{BoxTraffic, TrafficCache};
use pdesched_core::{Pipeline, Variant};

/// One ranked entry.
#[derive(Clone, Debug)]
pub struct RankedVariant {
    /// The schedule.
    pub variant: Variant,
    /// Its prediction at the evaluated thread count.
    pub prediction: Prediction,
}

/// Evaluate `variants` on `spec` at `threads` threads and return them
/// sorted fastest-first.
pub fn rank_variants(
    spec: &MachineSpec,
    variants: &[Variant],
    wl: Workload,
    threads: usize,
) -> Vec<RankedVariant> {
    let mut out: Vec<RankedVariant> = variants
        .iter()
        .map(|&variant| RankedVariant {
            variant,
            prediction: predict_time_analytic(spec, variant, wl, threads),
        })
        .collect();
    out.sort_by(|a, b| a.prediction.seconds.total_cmp(&b.prediction.seconds));
    out
}

/// Rank the full extended variant space for a box size at full cores.
pub fn rank_all(spec: &MachineSpec, box_n: i32) -> Vec<RankedVariant> {
    rank_all_at(spec, box_n, spec.cores())
}

/// [`rank_all`] at an explicit thread count — `machine::serve` ranks at
/// whatever thread count the client asked about, not just full cores.
pub fn rank_all_at(spec: &MachineSpec, box_n: i32, threads: usize) -> Vec<RankedVariant> {
    let wl = Workload::paper(box_n);
    let variants: Vec<Variant> =
        Variant::enumerate_extended(box_n).into_iter().filter(|v| v.valid_for_box(box_n)).collect();
    rank_variants(spec, &variants, wl, threads)
}

/// The fastest variant for a box size on a machine (analytic model), or
/// `None` when no enumerated variant is valid for the box size (e.g. a
/// box too small for every tile size).
pub fn best_variant(spec: &MachineSpec, box_n: i32) -> Option<RankedVariant> {
    rank_all(spec, box_n).into_iter().next()
}

/// The simulation points backing [`rank_top_measured`]'s confirmation
/// of the analytic top `k`. Exposed so a caller that wants supervised
/// prewarming (deadlines, cancellation, resume reporting) can push
/// exactly these points through its own [`SweepEngine::prewarm`] call
/// first; `rank_top_measured` then finds every trace cached.
pub fn top_measured_points(spec: &MachineSpec, box_n: i32, k: usize) -> Vec<SimPoint> {
    let threads = spec.cores();
    rank_all(spec, box_n)
        .into_iter()
        .take(k)
        .map(|r| SimPoint::for_prediction(spec, r.variant, box_n, threads))
        .collect()
}

/// Re-rank the analytic top `k` with the simulator-backed model, the
/// measurements prewarmed in parallel by `engine`. This is the paper's
/// two-stage recipe — screen the whole space instantly, confirm the
/// short list with real traces — with the confirmation fanned out over
/// the pool.
pub fn rank_top_measured(
    spec: &MachineSpec,
    box_n: i32,
    k: usize,
    cache: &TrafficCache,
    engine: &SweepEngine,
) -> Vec<RankedVariant> {
    let top: Vec<Variant> = rank_all(spec, box_n).into_iter().take(k).map(|r| r.variant).collect();
    let threads = spec.cores();
    let points: Vec<SimPoint> =
        top.iter().map(|&v| SimPoint::for_prediction(spec, v, box_n, threads)).collect();
    engine.prewarm(cache, &points);
    let wl = Workload::paper(box_n);
    let mut out: Vec<RankedVariant> = top
        .into_iter()
        .map(|variant| RankedVariant {
            variant,
            prediction: predict_time(spec, variant, wl, threads, cache),
        })
        .collect();
    out.sort_by(|a, b| a.prediction.seconds.total_cmp(&b.prediction.seconds));
    out
}

/// One schedule in the pass-pipeline search space: a hand-written
/// variant plus a pass spec (`""` = the hand lowering itself).
#[derive(Clone, Debug)]
pub struct ScheduleCandidate {
    /// The variant the pipeline starts from.
    pub variant: Variant,
    /// Comma-separated pass spec ([`Pipeline::parse`] grammar); empty
    /// for hand-written schedules.
    pub passes: String,
    /// Analytic pair-workload traffic (bytes per box) — the ranking
    /// score.
    pub analytic_bytes: u64,
}

/// A candidate the exact simulator confirmed.
#[derive(Clone, Debug)]
pub struct ConfirmedSchedule {
    /// The variant the pipeline starts from.
    pub variant: Variant,
    /// The pass spec (empty = hand-written).
    pub passes: String,
    /// The analytic score it was ranked by.
    pub analytic_bytes: u64,
    /// Simulator-measured pair-workload traffic, per box.
    pub traffic: BoxTraffic,
}

impl ConfirmedSchedule {
    /// `variant [+ passes]`, the display form.
    pub fn label(&self) -> String {
        if self.passes.is_empty() {
            self.variant.name()
        } else {
            format!("{} + [{}]", self.variant.name(), self.passes)
        }
    }
}

/// What [`search_schedules`] found for one `(machine, box size)` point.
#[derive(Clone, Debug)]
pub struct SearchReport {
    /// Machine display name.
    pub machine: String,
    /// Box edge length.
    pub box_n: i32,
    /// The per-thread LLC share the pair workload was measured through.
    pub llc_share: u64,
    /// Candidates ranked analytically (hand-written + discovered).
    pub candidates_ranked: usize,
    /// Every hand-written schedule shape, **simulator-confirmed** on the
    /// pair workload, sorted by measured traffic. The baseline the
    /// discovered frontier must beat is `handwritten[0]` — established
    /// by the simulator, not the model.
    pub handwritten: Vec<ConfirmedSchedule>,
    /// The analytic frontier of discovered (non-empty pipeline)
    /// schedules, simulator-confirmed, sorted by measured traffic.
    pub frontier: Vec<ConfirmedSchedule>,
}

impl SearchReport {
    /// The best hand-written schedule by *measured* pair traffic.
    pub fn best_handwritten(&self) -> &ConfirmedSchedule {
        &self.handwritten[0]
    }

    /// The best discovered schedule by measured pair traffic, if any
    /// discovered candidate survived confirmation.
    pub fn winner(&self) -> Option<&ConfirmedSchedule> {
        self.frontier.first()
    }

    /// Does the best discovered schedule move strictly less DRAM traffic
    /// than the best hand-written one — both simulator-measured?
    pub fn beats_handwritten(&self) -> bool {
        self.winner()
            .is_some_and(|w| w.traffic.dram_bytes < self.best_handwritten().traffic.dram_bytes)
    }
}

/// The hand-written schedule shapes of the pair-workload study: the
/// extended variant space, deduplicated by `(category, comp, intra,
/// tile)`. The pair workload runs serially per thread (tracing happens
/// at one thread), so the granularity axis collapses — `P >= Box` and
/// `P < Box` lower to the same serial plan.
fn handwritten_shapes(box_n: i32) -> Vec<Variant> {
    let mut seen = std::collections::HashSet::new();
    Variant::enumerate_extended(box_n)
        .into_iter()
        .filter(|v| v.valid_for_box(box_n))
        .filter(|v| seen.insert((v.category, v.comp, v.intra, v.tile)))
        .collect()
}

/// Non-enumerated tile edges the rechunk pass can reach (the paper
/// samples powers of two only).
const RECHUNK_TILES: [i32; 6] = [2, 3, 6, 12, 24, 48];

/// Interleave chunk depths the cross-box-fuse pass searches over.
const FUSE_CHUNKS: [i32; 3] = [2, 4, 8];

/// The discovered (non-empty pipeline) candidates the search considers
/// for one hand-written shape, analytically scored on a machine with
/// `llc_share` bytes of last-level cache per thread. `repro optimize`
/// uses the same enumeration, so what it confirms for a single variant
/// is exactly the slice of the full search space rooted at that shape.
pub fn candidate_pipelines(v: Variant, box_n: i32, llc_share: u64) -> Vec<ScheduleCandidate> {
    let mut discovered: Vec<ScheduleCandidate> = Vec::new();
    for chunk in FUSE_CHUNKS {
        if chunk < box_n {
            discovered.push(ScheduleCandidate {
                variant: v,
                passes: format!("cross-box-fuse:{chunk}"),
                analytic_bytes: analytic_pair_traffic(v, box_n, llc_share, true, chunk),
            });
        }
    }
    if v.category.tiled() {
        for t in RECHUNK_TILES {
            let rv = Variant { tile: Some(t), ..v };
            if rv.validate_for_box(box_n).is_err() || v.tile == Some(t) {
                continue;
            }
            discovered.push(ScheduleCandidate {
                variant: v,
                passes: format!("rechunk:{t}"),
                analytic_bytes: analytic_pair_traffic(rv, box_n, llc_share, false, 0),
            });
            for chunk in FUSE_CHUNKS {
                if chunk < box_n {
                    discovered.push(ScheduleCandidate {
                        variant: v,
                        passes: format!("rechunk:{t},cross-box-fuse:{chunk}"),
                        analytic_bytes: analytic_pair_traffic(rv, box_n, llc_share, true, chunk),
                    });
                }
            }
        }
    }
    discovered
}

/// Model-driven schedule search over the pass-pipeline space.
///
/// Candidates are every hand-written shape (empty pipeline) plus, per
/// shape: `cross-box-fuse:<chunk>` for each chunk depth, `rechunk:<t>`
/// for each valid non-enumerated tile (tiled categories), and the
/// combination of both. All candidates are ranked with
/// [`analytic_pair_traffic`] on the machine's per-core LLC share at full
/// socket occupancy — instant. The exact simulator then confirms
/// **every** hand-written shape (so the baseline is measured, not
/// modeled) and the top `frontier_k` discovered candidates, through
/// [`TrafficCache::get_pair`] so repeated searches hit the store.
/// Discovered candidates whose pipeline fails on this shape (a pass
/// precondition) are skipped at confirmation.
pub fn search_schedules(
    spec: &MachineSpec,
    box_n: i32,
    frontier_k: usize,
    cache: &TrafficCache,
) -> SearchReport {
    let hierarchy = spec.hierarchy_for(spec.cores_per_socket);
    let llc_share = hierarchy.last().map(|c| c.size as u64).unwrap_or(0);
    let shapes = handwritten_shapes(box_n);
    assert!(!shapes.is_empty(), "no hand-written variant is valid for a {box_n}^3 box");

    // Enumerate + rank analytically.
    let mut discovered: Vec<ScheduleCandidate> = Vec::new();
    for &v in &shapes {
        discovered.extend(candidate_pipelines(v, box_n, llc_share));
    }
    discovered.sort_by_key(|c| c.analytic_bytes);
    let candidates_ranked = shapes.len() + discovered.len();

    // Confirm with the exact simulator: every hand-written shape, then
    // the analytic frontier of the discovered space.
    let empty = Pipeline::empty();
    let mut handwritten: Vec<ConfirmedSchedule> = shapes
        .iter()
        .map(|&v| ConfirmedSchedule {
            variant: v,
            passes: String::new(),
            analytic_bytes: analytic_pair_traffic(v, box_n, llc_share, false, 0),
            traffic: cache
                .get_pair(v, box_n, &hierarchy, &empty)
                .expect("the empty pipeline cannot fail"),
        })
        .collect();
    handwritten.sort_by_key(|c| c.traffic.dram_bytes);

    let mut frontier: Vec<ConfirmedSchedule> = Vec::new();
    for cand in discovered.iter().take(frontier_k) {
        let pipeline = Pipeline::parse(&cand.passes).expect("search specs parse");
        // An Err is a pass precondition this shape cannot meet: drop
        // the candidate, the frontier just gets shorter.
        if let Ok(traffic) = cache.get_pair(cand.variant, box_n, &hierarchy, &pipeline) {
            frontier.push(ConfirmedSchedule {
                variant: cand.variant,
                passes: cand.passes.clone(),
                analytic_bytes: cand.analytic_bytes,
                traffic,
            });
        }
    }
    frontier.sort_by_key(|c| c.traffic.dram_bytes);

    SearchReport {
        machine: spec.name.to_string(),
        box_n,
        llc_share,
        candidates_ranked,
        handwritten,
        frontier,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdesched_core::{Category, Granularity};

    #[test]
    fn ranking_is_sorted_and_complete() {
        let spec = MachineSpec::ivy_bridge_node();
        let ranked = rank_all(&spec, 64);
        assert!(ranked.len() > 30);
        for w in ranked.windows(2) {
            assert!(w[0].prediction.seconds <= w[1].prediction.seconds);
        }
    }

    #[test]
    fn large_boxes_prefer_fused_or_tiled_schedules() {
        // The paper's conclusion as a sweep property: for 128^3 boxes at
        // full threads, the winner is never the plain series baseline.
        for spec in MachineSpec::evaluation_nodes() {
            let best = best_variant(&spec, 128).expect("non-empty variant space for 128^3");
            assert_ne!(best.variant.category, Category::Series, "{}: {}", spec.name, best.variant);
        }
    }

    #[test]
    fn measured_reranking_is_sorted_and_prewarmed() {
        let spec = MachineSpec::i5_desktop();
        let cache = TrafficCache::new();
        let engine = SweepEngine::new(2);
        let ranked = rank_top_measured(&spec, 16, 3, &cache, &engine);
        assert_eq!(ranked.len(), 3);
        for w in ranked.windows(2) {
            assert!(w[0].prediction.seconds <= w[1].prediction.seconds);
        }
        // Every prediction was answered from the prewarmed cache.
        let s = cache.stats();
        assert_eq!(s.misses as usize, cache.len());
        assert!(s.hits >= 3, "predictions must hit, got {s:?}");
    }

    #[test]
    fn schedule_search_confirms_and_ranks() {
        let spec = MachineSpec::i5_desktop();
        let cache = TrafficCache::new();
        let report = search_schedules(&spec, 8, 3, &cache);
        assert!(report.candidates_ranked > 0);
        assert!(!report.handwritten.is_empty());
        assert!(!report.frontier.is_empty() && report.frontier.len() <= 3);
        // Hand-written entries carry no passes; discovered entries do.
        assert!(report.handwritten.iter().all(|c| c.passes.is_empty()));
        assert!(report.frontier.iter().all(|c| !c.passes.is_empty()));
        // Both lists are sorted by simulator-confirmed traffic.
        for list in [&report.handwritten, &report.frontier] {
            for w in list.windows(2) {
                assert!(w[0].traffic.dram_bytes <= w[1].traffic.dram_bytes);
            }
        }
        assert_eq!(
            report.best_handwritten().traffic.dram_bytes,
            report.handwritten[0].traffic.dram_bytes
        );
        // Every confirmation was memoized under a pair key.
        assert!(cache.len() >= report.handwritten.len() + report.frontier.len());
        // Labels render with pass provenance.
        let w = report.winner().expect("non-empty frontier");
        assert!(w.label().contains('['), "{}", w.label());
    }

    /// The repo's one result beyond the paper, pinned to the byte: on
    /// the modeled i5 at N=24 a pass-discovered pipeline moves less
    /// simulator-measured pair traffic than every hand-written shape.
    #[test]
    fn search_winner_still_beats_the_best_hand_schedule() {
        let report = search_schedules(&MachineSpec::i5_desktop(), 24, 4, &TrafficCache::new());
        assert_eq!(report.candidates_ranked, 408);
        let hand = report.best_handwritten();
        assert_eq!(hand.label(), "Shift-Fuse-CLI: P>=Box");
        assert_eq!(hand.traffic.dram_bytes, 2_002_568);
        let winner = report.winner().expect("discovered frontier is non-empty");
        assert_eq!(winner.label(), "Shift-Fuse-CLI: P>=Box + [cross-box-fuse:4]");
        assert_eq!(winner.traffic.dram_bytes, 1_920_200);
        assert!(report.beats_handwritten());
    }

    #[test]
    fn small_boxes_prefer_over_box_granularity() {
        // For 16^3 boxes there is too little intra-box work: the winner
        // parallelizes over boxes.
        for spec in MachineSpec::evaluation_nodes() {
            let best = best_variant(&spec, 16).expect("non-empty variant space for 16^3");
            assert_eq!(
                best.variant.gran,
                Granularity::OverBoxes,
                "{}: {}",
                spec.name,
                best.variant
            );
        }
    }
}
