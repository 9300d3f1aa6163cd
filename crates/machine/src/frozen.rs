//! Frozen fronts: names kept only because `benchmark/` imports them;
//! ROADMAP item 1 drops the import, and then they go. Each runs the
//! one producer, the plan interpreter, into the fast simulator; new
//! code calls [`crate::traffic::measure`]. Two more surfaces are kept
//! for the same reason where they are parsed: `ServeConfig::engine_threads`
//! and `repro serve --threads`.

use crate::traffic::{measure_box_traffic, BoxTraffic};
use pdesched_cachesim::CacheConfig;
use pdesched_core::Variant;

/// [`measure_box_traffic`] under the name of the retired symbolic
/// engine. Kept only because `benchmark/` imports it; ROADMAP item 1
/// drops the import.
pub fn measure_box_traffic_symbolic(
    variant: Variant,
    n: i32,
    configs: &[CacheConfig],
) -> BoxTraffic {
    measure_box_traffic(variant, n, configs)
}

/// [`measure_box_traffic`]; `threads` is ignored. Kept only because
/// `benchmark/` imports it; ROADMAP item 1 drops the import.
pub fn measure_box_traffic_parallel(
    variant: Variant,
    n: i32,
    configs: &[CacheConfig],
    _threads: usize,
) -> (BoxTraffic, OneShard) {
    (measure_box_traffic(variant, n, configs), OneShard)
}

/// What [`measure_box_traffic_parallel`] returns beside the traffic:
/// the one shard every measurement runs on. Kept only because
/// `benchmark/` imports it; ROADMAP item 1 drops the import.
#[derive(Clone, Copy, Debug)]
pub struct OneShard;

impl OneShard {
    /// Total work over the busiest shard's: 1.0, the serial sink.
    pub fn balance(&self) -> f64 {
        1.0
    }
}

/// The retired symbolic engine's plan analysis. Kept only because
/// `benchmark/` imports it; ROADMAP item 1 drops the import.
pub mod symbolic {
    use pdesched_core::Variant;

    /// What the analysis claims about one point: nothing, since no
    /// symbolic emitter exists.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct SymbolicAnalysis;

    impl SymbolicAnalysis {
        /// Whether the symbolic emitters would produce the point's
        /// stream: never.
        pub fn fully_claimed(&self) -> bool {
            false
        }
    }

    /// The analysis of `(variant, n)`, which claims no phase.
    pub fn analyze(_variant: Variant, _n: i32) -> SymbolicAnalysis {
        SymbolicAnalysis
    }
}
