//! Machine models and the execution-time model that regenerates the
//! paper's figures.
//!
//! # Why a model?
//!
//! The paper's evaluation ran on three multicore nodes (24-core AMD
//! Magny-Cours, 20-core Intel Ivy Bridge, 16-core Intel Sandy Bridge)
//! and measured bandwidth with VTune on a 4-core Ivy Bridge desktop.
//! None of that hardware is available here (the reproduction host has a
//! single core), so the *scaling* dimension of every figure is
//! reproduced with a performance model whose inputs are **measured**, not
//! assumed:
//!
//! 1. Each schedule variant executes for real (see `pdesched-core`) with
//!    its memory hooks streaming into the cache simulator configured
//!    with the target machine's hierarchy — giving the schedule's exact
//!    DRAM traffic and hit ratios ([`traffic`]).
//! 2. Exact operation counts come from `pdesched_kernels::ops`
//!    (validated against instrumented runs).
//! 3. [`model`] combines them: execution time is the max of the compute
//!    time (operations / effective per-core rate × available parallelism
//!    of the schedule) and the memory time (traffic / available
//!    bandwidth under socket-level contention), plus wavefront ramp-up
//!    and barrier costs.
//!
//! The paper's own analysis (Section VI-B) explains every result with
//! exactly these quantities, so the model reproduces the *shapes*: which
//! schedule wins, where scaling saturates, and where the crossovers lie.
//! Absolute seconds are calibrated per machine from the paper's
//! single-thread baseline times (constants documented in [`spec`] and in
//! EXPERIMENTS.md).

pub mod adapter;
pub mod analytic;
pub mod engine;
pub mod fault;
pub mod figures;
mod frozen;
pub mod journal;
pub mod json;
pub mod model;
pub mod serve;
pub mod spec;
pub mod sweep;
pub mod traffic;

pub use adapter::TraceMem;
pub use engine::{PointFailure, PrewarmReport, SimPoint, SkippedPoint, SweepBudget, SweepEngine};
pub use fault::FaultHook;
pub use frozen::{measure_box_traffic_parallel, measure_box_traffic_symbolic, symbolic};
pub use journal::PriorSweep;
pub use model::{predict_time, predict_time_with_traffic, Prediction, Workload};
pub use serve::{ServeConfig, ServeFaultAction, ServeHook, ServeStats, Server};
pub use spec::MachineSpec;
pub use sweep::{
    candidate_pipelines, search_schedules, ConfirmedSchedule, ScheduleCandidate, SearchReport,
};
pub use traffic::{
    measure, measure_box_traffic, pair_store_key, store_key, store_key_with_passes, BoxTraffic,
    Boxes, CacheStats, Engine, Point, StoreReader, StoreView, TrafficCache,
};
