//! A multi-level, set-associative, write-back cache simulator.
//!
//! The paper's entire performance argument rests on DRAM traffic: a
//! schedule scales until its per-thread bandwidth demand saturates the
//! socket. The authors measured bandwidth with VTune on an i5-3570K
//! desktop; we measure it by replaying each schedule's exact memory
//! access stream (the `Mem` hooks of `pdesched-core`) through this
//! simulator configured with the target machine's cache hierarchy.
//!
//! Model:
//! * levels are ordered L1 first, LLC last — in constructor slices,
//!   in `Stats::levels`, and in `dirty_lines_by_level` (each level of
//!   which is a set of lines, returned sorted: way order is layout),
//! * per-level set-associative arrays with true-LRU replacement,
//! * write-back, write-allocate at every level,
//! * non-inclusive fill: a miss fills every level on the path,
//! * dirty victims are inserted one level down (recursively), and
//!   victims of the last level write back to DRAM,
//! * DRAM traffic is counted in whole lines, reads and writebacks
//!   separately,
//! * the last level only receives (demand probes and pushed-down
//!   victims) and is never read back, so one access stream can be
//!   accounted against several alternative last levels at once
//!   ([`Hierarchy::fan_out`]).
//!
//! The simulator is deliberately *not* cycle-accurate — only traffic and
//! hit ratios matter for the bandwidth model (see `pdesched-machine`).

pub mod config;
pub mod level;
mod packed;
pub mod shard;
pub mod sim;

pub use config::CacheConfig;
pub use level::CacheLevel;
pub use shard::{max_shards, merge_stats, shard_configs, shard_count, ShardedHierarchy};
pub use sim::{Hierarchy, LevelStats, Stats};
