//! Parallel single-point measurement: the set-sharded sink of
//! [`crate::traffic::measure`], running one measurement's miss
//! machinery across worker threads, bit-identical to the serial sink.
//!
//! DESIGN.md §11 shows every bit-exact serial engine is bound by the
//! same floor — the L1-miss fills and victim scans that cannot be
//! summarized away. This module attacks the floor sideways: the
//! hierarchy decomposes into independent *set-shards*
//! (`pdesched_cachesim::shard`, exactness argument in DESIGN.md §13),
//! so the stream can be split by line residue and each shard's share
//! replayed on its own thread against a private sub-hierarchy.
//!
//! Shape: a pipeline with one producer and `K` shard workers.
//!
//! * The **producer** is whichever serial front half `measure` picked
//!   — the symbolic emitters walking the plan (claimed plans: cheap, no
//!   data, no FP) or the plan interpreter behind [`SplitMem`] (the
//!   trace splitter, so the parallel path is *total*). The router packs
//!   each `(line, reps, write)` rep into a `u64` and routes it to
//!   `shard = line mod K`, buffered into chunks on bounded channels.
//! * Each **worker** owns one set-shard of the fan-out hierarchy (the
//!   front and every last level scaled to `sets / K`) and replays its
//!   chunks in producer order, which is the serial engine's order
//!   restricted to that residue class — the only order the shard's
//!   statistics can depend on.
//! * Integer counters **merge** order-independently, per last level,
//!   after the workers flush; hit ratios are divided only from the
//!   merged sums, so even the f64 bit patterns equal the serial
//!   engine's.
//!
//! Cancellation rides the existing ambient `par::cancel` token: the
//! producer hits the per-phase checkpoints (`emit_plan`,
//! `plan::execute`), its `Cancelled` unwind drops the channels, the
//! workers drain and exit, and the payload is re-raised after joining —
//! so a point deadline tripping a child token cancels the whole
//! pipeline. A worker panic surfaces the same way (the producer's send
//! fails, workers are joined, the original payload is re-raised).

use crate::symbolic::LineSink;
use crate::traffic::{measure, BoxTraffic, Engine, Point};
use pdesched_cachesim::{merge_stats, shard_configs, CacheConfig, Hierarchy, Stats};
use pdesched_core::{Mem, Variant};
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, SyncSender};

/// Bits of a packed op spent on the repetition count.
const REP_BITS: u32 = 20;
/// Largest repetition count one packed op carries; larger reps split
/// into several ops, which is exact (`line_rep(a + b)` ≡
/// `line_rep(a); line_rep(b)` — the second call finds the line at the
/// front of its L1 set).
const REP_MAX: usize = (1 << REP_BITS) - 1;
/// Ops per chunk (32 Ki ops = 256 KiB): big enough to amortize channel
/// synchronization, small enough to keep workers streaming.
const CHUNK_OPS: usize = 1 << 15;
/// Chunks in flight per shard before the producer blocks.
const CHANNEL_DEPTH: usize = 4;

/// Provenance of one [`measure`] call: which producer ran and how the
/// sink distributed its work.
#[derive(Clone, Debug)]
pub struct ParallelStats {
    /// Shard workers used (power of two ≤ requested threads, capped by
    /// the smallest level's set count); 1 for the serial sink.
    pub nshards: usize,
    /// Packed rep ops routed to each shard (`[0]` for the serial sink,
    /// which routes nothing).
    pub shard_ops: Vec<u64>,
    /// Whether the producer was the symbolic emitter (claimed plan) or
    /// the plan interpreter.
    pub used_symbolic: bool,
}

impl ParallelStats {
    /// The shard-balance bound: total ops over the largest shard's ops.
    /// This is the host-independent ceiling on replay-side speedup —
    /// `K` perfectly balanced shards score `K`. Deterministic, so
    /// `tests/parallel_point.rs` puts a floor under it where a wall
    /// clock would measure the host, not the split.
    pub fn balance(&self) -> f64 {
        let total: u64 = self.shard_ops.iter().sum();
        let max = self.shard_ops.iter().copied().max().unwrap_or(0);
        if max == 0 {
            self.nshards as f64
        } else {
            total as f64 / max as f64
        }
    }
}

/// The producer-side sink: packs each rep and routes it to its shard's
/// channel, chunked. Dropping it (or flushing short chunks at stream
/// end) closes nothing — channel handles are owned by the caller so
/// worker shutdown is explicit.
pub(crate) struct ShardRouter<'a> {
    mask: u64,
    kbits: u32,
    line: usize,
    line_shift: u32,
    bufs: Vec<Vec<u64>>,
    ops: Vec<u64>,
    txs: &'a [SyncSender<Vec<u64>>],
}

impl<'a> ShardRouter<'a> {
    fn new(line: usize, txs: &'a [SyncSender<Vec<u64>>]) -> Self {
        let nshards = txs.len();
        assert!(nshards.is_power_of_two());
        ShardRouter {
            mask: (nshards - 1) as u64,
            kbits: nshards.trailing_zeros(),
            line,
            line_shift: line.trailing_zeros(),
            bufs: (0..nshards).map(|_| Vec::with_capacity(CHUNK_OPS)).collect(),
            ops: vec![0; nshards],
            txs,
        }
    }

    #[inline]
    fn push(&mut self, shard: usize, op: u64) {
        let buf = &mut self.bufs[shard];
        buf.push(op);
        self.ops[shard] += 1;
        if buf.len() >= CHUNK_OPS {
            let full = std::mem::replace(buf, Vec::with_capacity(CHUNK_OPS));
            if self.txs[shard].send(full).is_err() {
                // The worker died (panicked); unwind so the pipeline
                // joins it and re-raises the real payload.
                panic!("shard {shard} replay worker terminated early");
            }
        }
    }

    /// Send every partial chunk. Called once at stream end.
    fn finish(&mut self) {
        for shard in 0..self.bufs.len() {
            let buf = std::mem::take(&mut self.bufs[shard]);
            if !buf.is_empty() && self.txs[shard].send(buf).is_err() {
                panic!("shard {shard} replay worker terminated early");
            }
        }
    }

    /// The per-line decomposition of `Hierarchy::run`, routed: each
    /// spanned line becomes one rep op with that line's element count.
    fn access_run(&mut self, addr: usize, elems: usize, write: bool) {
        let mut a = addr;
        let mut rem = elems;
        while rem > 0 {
            let line_end = (a & !(self.line - 1)) + self.line;
            let k = rem.min((line_end - a).div_ceil(8));
            LineSink::line_rep(self, (a >> self.line_shift) as u64, k, write);
            a += k * 8;
            rem -= k;
        }
    }
}

impl LineSink for ShardRouter<'_> {
    #[inline]
    fn line_rep(&mut self, line: u64, mut reps: usize, write: bool) {
        debug_assert!(reps > 0);
        let shard = (line & self.mask) as usize;
        let local = line >> self.kbits;
        debug_assert!(local < 1 << (63 - REP_BITS), "line index overflows packed op");
        let head = (local << (REP_BITS + 1)) | (write as u64);
        while reps > REP_MAX {
            self.push(shard, head | ((REP_MAX as u64) << 1));
            reps -= REP_MAX;
        }
        self.push(shard, head | ((reps as u64) << 1));
    }
}

/// [`Mem`] adapter feeding the real traced execution into the router —
/// the trace splitter that makes the parallel path total for variants
/// the symbolic analysis leaves unclaimed.
///
/// Same `UnsafeCell` pattern (and safety argument) as
/// [`crate::adapter::TraceMem`]: `Mem` hooks take `&self` because
/// executors share the recorder, but `measure` executes one-thread
/// plans on the calling thread, so accesses are serialized by
/// construction.
pub(crate) struct SplitMem<'r, 'a> {
    router: UnsafeCell<&'r mut ShardRouter<'a>>,
}

unsafe impl Sync for SplitMem<'_, '_> {}

impl<'r, 'a> SplitMem<'r, 'a> {
    pub(crate) fn new(router: &'r mut ShardRouter<'a>) -> Self {
        SplitMem { router: UnsafeCell::new(router) }
    }

    #[allow(clippy::mut_from_ref)]
    #[inline(always)]
    fn rt(&self) -> &mut ShardRouter<'static> {
        // Safety: single-threaded tracing (see type docs); the lifetime
        // collapse stays inside this private accessor.
        unsafe { &mut *(*self.router.get() as *mut ShardRouter<'_>).cast::<ShardRouter<'_>>() }
    }
}

impl Mem for SplitMem<'_, '_> {
    #[inline(always)]
    fn r(&self, addr: usize) {
        self.rt().access_run(addr, 1, false);
    }
    #[inline(always)]
    fn w(&self, addr: usize) {
        self.rt().access_run(addr, 1, true);
    }
    #[inline(always)]
    fn r_run(&self, addr: usize, elems: usize) {
        self.rt().access_run(addr, elems, false);
    }
    #[inline(always)]
    fn w_run(&self, addr: usize, elems: usize) {
        self.rt().access_run(addr, elems, true);
    }
}

/// Run `produce` against a router feeding `nshards` replay workers,
/// each a set-shard of the fan-out hierarchy `front` over `lasts`;
/// returns the merged statistics of every last level (after per-worker
/// flush), the per-shard op counts, and the producer's result.
pub(crate) fn parallel_replay<R>(
    front: &[CacheConfig],
    lasts: &[CacheConfig],
    nshards: usize,
    produce: impl FnOnce(&mut ShardRouter<'_>) -> R,
) -> (Vec<Stats>, Vec<u64>, R) {
    let (front, lasts) = (shard_configs(front, nshards), shard_configs(lasts, nshards));
    std::thread::scope(|s| {
        let mut txs = Vec::with_capacity(nshards);
        let mut handles = Vec::with_capacity(nshards);
        for _ in 0..nshards {
            let (tx, rx) = sync_channel::<Vec<u64>>(CHANNEL_DEPTH);
            txs.push(tx);
            let (front, lasts) = (&front, &lasts);
            handles.push(s.spawn(move || {
                let mut h = Hierarchy::fan_out(front, lasts);
                while let Ok(chunk) = rx.recv() {
                    for &op in &chunk {
                        h.line_rep(
                            op >> (REP_BITS + 1),
                            ((op >> 1) & REP_MAX as u64) as usize,
                            op & 1 == 1,
                        );
                    }
                }
                h.flush();
                (0..h.tails()).map(|i| h.tail_stats(i)).collect::<Vec<Stats>>()
            }));
        }
        let mut router = ShardRouter::new(lasts[0].line, &txs);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let r = produce(&mut router);
            router.finish();
            r
        }));
        let ops = std::mem::take(&mut router.ops);
        // Close the channels: workers drain what was sent and exit.
        drop(router);
        drop(txs);
        let mut parts = Vec::with_capacity(nshards);
        let mut worker_panic = None;
        for h in handles {
            match h.join() {
                Ok(stats) => parts.push(stats),
                Err(p) => worker_panic = Some(p),
            }
        }
        // A worker panic is the root cause (the producer's failure, if
        // any, is the send into the dead channel); re-raise it first.
        // Otherwise re-raise the producer's own unwind — including an
        // orderly `Cancelled`, whose payload type must survive for the
        // sweep engine's downcast.
        if let Some(p) = worker_panic {
            resume_unwind(p);
        }
        let r = match result {
            Ok(r) => r,
            Err(p) => resume_unwind(p),
        };
        let merged =
            (0..lasts.len()).map(|i| merge_stats(parts.iter().map(|tails| &tails[i]))).collect();
        (merged, ops, r)
    })
}

/// [`measure`] for the hand lowering of one box under
/// [`Engine::Symbolic`] with `threads` workers, panicking where
/// `measure` refuses. Frozen for `benchmark/`, which cannot change in
/// the PR that introduced `measure`; new code calls `measure`.
pub fn measure_box_traffic_parallel(
    variant: Variant,
    n: i32,
    configs: &[CacheConfig],
    threads: usize,
) -> (BoxTraffic, ParallelStats) {
    let (t, ps) = measure(&Point::hand(variant, n, configs), Engine::Symbolic { threads })
        .unwrap_or_else(|e| panic!("{e}"));
    (t[0], ps)
}

/// Largest useful thread count for one point on `configs` — the
/// smallest level's set count (further threads would have no shard).
pub fn max_point_threads(configs: &[CacheConfig]) -> usize {
    pdesched_cachesim::max_shards(configs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdesched_par::cancel::{self, CancelToken};

    /// A tripped ambient token cancels the pipeline at a producer
    /// checkpoint and the `Cancelled` payload survives the worker join.
    #[test]
    fn cancellation_unwinds_cleanly() {
        let configs = vec![CacheConfig::new(8 * 1024, 4), CacheConfig::new(64 * 1024, 8)];
        let token = CancelToken::new();
        token.trip("test");
        let _g = cancel::set_current(Some(token));
        let r = catch_unwind(AssertUnwindSafe(|| {
            measure(&Point::hand(Variant::baseline(), 8, &configs), Engine::Symbolic { threads: 4 })
        }));
        let payload = r.expect_err("tripped token must cancel the measurement");
        assert!(
            payload.downcast_ref::<pdesched_par::Cancelled>().is_some(),
            "payload must stay a Cancelled"
        );
    }
}
