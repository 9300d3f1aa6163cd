//! DRAM-traffic measurement: run a schedule for real, replay its access
//! stream through the cache simulator, report bytes moved.
//!
//! The persistent measurement store is built for unattended multi-hour
//! sweeps, so it is crash-safe end to end: every entry line carries a
//! checksum (a torn or bit-rotted line is detected, quarantined, and
//! counted — never silently dropped or, worse, served), every whole-file
//! rewrite goes through tmp-file + atomic rename, append failures are
//! counted instead of swallowed (and optionally retried with bounded
//! exponential backoff, see [`TrafficCache::set_append_retry`]), and an
//! `flock(2)`-held pid lock file guarantees a single writer per store so
//! two concurrent `repro` runs cannot interleave appends (the second run
//! degrades to read-only memoization; the kernel releases a crashed
//! writer's lock atomically, so stale-lock takeover cannot double-grant).
//! A process holds a store in memory once — see [`TrafficCache`] — as
//! the file's bytes, read once, plus a flat index over them
//! ([`StoreView`]). Every check runs at load: each line is validated as
//! UTF-8 on its own, checksummed and fully decoded, so one bad byte
//! costs its line, never the store, and a lookup checks nothing.

use crate::adapter::TraceMem;
use crate::fault::FaultHook;
use pdesched_cachesim::{CacheConfig, Hierarchy, Stats};
use pdesched_core::plan::{self, Plan, Stream};
use pdesched_core::{plan_for_optimized, Mem, Pipeline, PipelineError, Variant};
use pdesched_kernels::{GHOST, NCOMP};
use pdesched_mesh::{trace_addr, FArrayBox, IBox, IntVect};
use pdesched_par::Cancelled;
use std::any::Any;
use std::collections::HashMap;
use std::io::Write;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// On-disk store schema version. Bump whenever anything that feeds a
/// measurement changes shape — the key format, the traced kernel, the
/// simulator's replacement policy — and every stale store self-discards
/// instead of serving wrong numbers. (v3: per-line checksums; v4:
/// provenance-tagged entries. v3 stores are *migrated*, not discarded:
/// the simulator is unchanged, so v3 measurements stay valid and are
/// rewritten with a `sim` tag.)
pub const STORE_VERSION: u32 = 4;

/// The v3 header, still accepted on read (see [`STORE_VERSION`]).
const V3_HEADER: &str = "# pdesched-traffic-store v3";

/// The provenance tag the writer records on every entry line: the plan
/// interpreter is the one producer.
const SIM_TAG: &str = "sim";

/// The tags a v4 line may carry: `sim`, and `sym` and `hyb` of two
/// retired engines pinned bit-identical to the simulator, whose lines
/// therefore still load. Any other tag is a corrupt line.
const LOADABLE_TAGS: [&str; 3] = [SIM_TAG, "sym", "hyb"];

/// Measured traffic for one exemplar update of one box.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoxTraffic {
    /// Total DRAM bytes (line fetches + writebacks, including the final
    /// flush of dirty lines).
    pub dram_bytes: u64,
    /// 8-byte loads issued by the schedule.
    pub reads: u64,
    /// 8-byte stores issued by the schedule.
    pub writes: u64,
    /// L1 hit ratio.
    pub l1_hit: f64,
    /// Last-level hit ratio (of the accesses that reached it).
    pub llc_hit: f64,
}

/// Which traced workload a [`Point`] asks about.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Boxes {
    /// One `n^3` box in steady state.
    Single,
    /// Two adjacent `n^3` boxes sharing a ghost halo in `x`, updated
    /// from one `phi0` covering their union. This is the workload where
    /// cross-box phase fusion is visible: sequential execution (the
    /// default) fetches the shared halo lines once per box, while an
    /// interleaved plan (`interleave > 1`, produced by the
    /// `cross-box-fuse` pass) revisits them at chunk distance, short
    /// enough to still find them in the LLC.
    Pair,
}

/// One measurement question: DRAM traffic of `variant`, transformed by
/// `pipeline`, updating `boxes` of edge `n` through the cache levels
/// `front` (L1 first) and then — one answer each — every last level in
/// `lasts`. Member `i` is the hierarchy `front ++ [lasts[i]]`; the
/// members share the access stream and everything the front does with
/// it, which is why a thread sweep (same private L1/L2, one LLC share
/// per thread count) is one point, not one per thread count. Everything
/// a number depends on and nothing about how it is produced — that is
/// [`Engine`].
#[derive(Clone, Copy)]
pub struct Point<'a> {
    pub variant: Variant,
    pub n: i32,
    /// The levels every member shares; empty for one-level hierarchies
    /// (which therefore have exactly one member).
    pub front: &'a [CacheConfig],
    pub lasts: &'a [CacheConfig],
    pub pipeline: &'a Pipeline,
    pub boxes: Boxes,
}

/// The empty pipeline, for points that outlive no caller's pipeline.
static HAND_LOWERING: Pipeline = Pipeline::empty();

impl<'a> Point<'a> {
    /// The one-member point of the whole hierarchy `configs` (L1 first,
    /// LLC last).
    pub fn new(
        variant: Variant,
        n: i32,
        configs: &'a [CacheConfig],
        pipeline: &'a Pipeline,
        boxes: Boxes,
    ) -> Self {
        let (front, lasts) = configs.split_at(configs.len().saturating_sub(1));
        Point { variant, n, front, lasts, pipeline, boxes }
    }

    /// The hand lowering of `variant` (no passes) on one box.
    pub fn hand(variant: Variant, n: i32, configs: &'a [CacheConfig]) -> Self {
        Point::new(variant, n, configs, &HAND_LOWERING, Boxes::Single)
    }

    /// Member `i`'s whole hierarchy, L1 first.
    pub fn configs(&self, i: usize) -> Vec<CacheConfig> {
        self.front.iter().chain(std::iter::once(&self.lasts[i])).copied().collect()
    }

    /// Member `i`'s memoization key: [`store_key_with_passes`] for a
    /// single box, [`pair_store_key`] for the pair workload — the key
    /// the member has when measured alone.
    pub fn key(&self, i: usize) -> String {
        let configs = self.configs(i);
        match self.boxes {
            Boxes::Single => store_key_with_passes(self.variant, self.n, &configs, self.pipeline),
            Boxes::Pair => pair_store_key(self.variant, self.n, &configs, self.pipeline),
        }
    }

    /// The identity of the access stream every member replays: the
    /// [`Stream`] of the serial plan [`measure`] lowers. Points with
    /// equal streams and workloads measure alike on equal hierarchies,
    /// whatever their variant labels and pipelines. Fails where
    /// `measure` would: an invalid variant or a refused pipeline.
    pub fn stream(&self) -> Result<Stream, PipelineError> {
        self.variant.validate_for_box(self.n).map_err(PipelineError::Invalid)?;
        Ok(plan_for_optimized(self.variant, IntVect::splat(self.n), 1, self.pipeline)?.stream())
    }
}

/// Which sink [`measure`] replays the plan interpreter's stream into.
/// Both return the same bits for the same [`Point`]
/// (`tests/engine_matrix.rs`); they differ in cost only. [`TrafficCache`]
/// measures with [`Engine::Simulate`]. Both run on the calling thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The plan interpreter into [`Hierarchy::reference`]: per-element
    /// probes over plain stamped levels, no run batching. Slow; the
    /// oracle the fast simulator is checked against.
    Reference,
    /// The plan interpreter into the fast simulator.
    Simulate,
}

/// How many boxes one measurement streams through before dividing the
/// counters: amortizes cold-start (first touch of the reusable
/// temporaries) and the final flush. Cheap small boxes get more
/// repetitions; large boxes stream through the caches anyway, so one
/// pass is already steady state. The division must match the
/// allocation pattern exactly.
pub(crate) fn box_reps(n: i32) -> usize {
    if n <= 32 {
        4
    } else if n <= 64 {
        2
    } else {
        1
    }
}

/// The plan-interpreter producer: execute `plan` for real over
/// [`box_reps`] box sets with every access reported to `mem`. Returns
/// the number of boxes updated, which is what the sink's counters are
/// divided by.
///
/// A thread in the real computation streams through many boxes, so the
/// relevant quantity is the *per-box increment* once the caches are in
/// steady state: the first set warms the temporary buffers (which the
/// allocator reuses at the same addresses), and the increment naturally
/// includes the writeback of the previous box's dirty output lines.
fn drive<M: Mem>(plan: &Plan, n: i32, boxes: Boxes, mem: &M) -> usize {
    // Deterministic trace layout: every buffer below (and every
    // temporary inside the runs) gets its virtual address from this
    // thread's allocation order, so the stream is a pure function of
    // (plan, n, boxes) — identical on any thread of any run.
    trace_addr::reset();
    let first = IBox::cube(n);
    let cells = match boxes {
        Boxes::Single => vec![first],
        Boxes::Pair => vec![first, first.shifted(IntVect::new(n, 0, 0))],
    };
    let source = IBox::new(first.lo(), cells[cells.len() - 1].hi()).grown(GHOST);
    let mut sets: Vec<(FArrayBox, Vec<FArrayBox>)> = (0..box_reps(n))
        .map(|i| {
            let mut phi0 = FArrayBox::new(source, NCOMP);
            phi0.fill_synthetic(97 + i as u64);
            (phi0, cells.iter().map(|&c| FArrayBox::new(c, NCOMP)).collect())
        })
        .collect();
    // Rewind the scratch region between sets: each run's temporaries
    // occupy the same virtual addresses (a real allocator hands the
    // just-freed blocks back), so the warm-up set really does heat them.
    let scratch = trace_addr::mark();
    for (phi0, phi1) in &mut sets {
        trace_addr::rewind(scratch);
        match &mut phi1[..] {
            [a, b] if plan.interleave > 1 => {
                plan::execute_pair(plan, phi0, a, b, cells[0], cells[1], mem);
            }
            outs => {
                for (out, &c) in outs.iter_mut().zip(&cells) {
                    plan::execute(plan, phi0, out, c, mem);
                }
            }
        }
    }
    sets.len() * cells.len()
}

/// The one `Stats → BoxTraffic` conversion: counters per box, hit
/// ratios from the undivided sums.
fn box_traffic(s: &Stats, line: usize, boxes: usize) -> BoxTraffic {
    let boxes = boxes as u64;
    BoxTraffic {
        dram_bytes: s.dram_bytes(line) / boxes,
        reads: s.reads / boxes,
        writes: s.writes / boxes,
        l1_hit: s.levels[0].hit_ratio(),
        llc_hit: s.levels[s.levels.len() - 1].hit_ratio(),
    }
}

/// Measure `point` under `engine`: per-box steady-state DRAM traffic of
/// every member (one [`BoxTraffic`] per entry of `point.lasts`, in
/// order).
///
/// **Producer:** the plan interpreter ([`drive`]), run once whatever
/// the number of members. **Sink:** one [`Hierarchy::reference`] per
/// member for [`Engine::Reference`] (the oracle shares nothing), else
/// the fan-out hierarchy [`Hierarchy::fan_out`]`(front, lasts)`. Both
/// run on the calling thread: a sweep-pool worker, a serve flight or
/// the caller.
///
/// Fails — measuring nothing — if the variant cannot run on the box or
/// the pipeline fails (a pass precondition or the plan verifier).
pub fn measure(point: &Point<'_>, engine: Engine) -> Result<Vec<BoxTraffic>, PipelineError> {
    let Point { variant, n, front, lasts, pipeline, boxes } = *point;
    if engine == Engine::Reference && lasts.len() > 1 {
        let mut members = Vec::with_capacity(lasts.len());
        for i in 0..lasts.len() {
            members.extend(measure(&Point { lasts: &lasts[i..=i], ..*point }, engine)?);
        }
        return Ok(members);
    }
    variant.validate_for_box(n).map_err(PipelineError::Invalid)?;
    // Lower + transform *before* any trace reset: plan verification may
    // draw trace addresses of its own, and the measurement layout must
    // start from a clean slate either way.
    let plan = plan_for_optimized(variant, IntVect::splat(n), 1, pipeline)?;
    let geometry: Vec<CacheConfig> = front.iter().chain(lasts).copied().collect();
    let trace = TraceMem::new(match engine {
        Engine::Reference => Hierarchy::reference(&geometry),
        Engine::Simulate => Hierarchy::fan_out(front, lasts),
    });
    let boxes_run = drive(&plan, n, boxes, &trace);
    let sim = trace.finish();
    let line = geometry[0].line;
    Ok((0..lasts.len()).map(|i| box_traffic(&sim.tail_stats(i), line, boxes_run)).collect())
}

/// [`measure`] for the hand lowering of one box on the fast
/// simulator, panicking where `measure` refuses.
pub fn measure_box_traffic(variant: Variant, n: i32, configs: &[CacheConfig]) -> BoxTraffic {
    let members = measure(&Point::hand(variant, n, configs), Engine::Simulate);
    members.unwrap_or_else(|e| panic!("{e}"))[0]
}

/// What [`TrafficCache::fetch`] has for one member of a point: its
/// number, or the payload of the fault-hook panic that kept it from
/// being measured.
pub(crate) type MemberResult = Result<BoxTraffic, Box<dyn Any + Send>>;

/// Every member this process produced, by access stream: per stream,
/// the (workload, whole hierarchy) it was measured on and its number.
type StreamMap = HashMap<Stream, Vec<(Boxes, Vec<CacheConfig>, BoxTraffic)>>;

/// Hit/miss and store-health counters of a [`TrafficCache`] at one
/// instant.
///
/// `misses` counts keys not held when asked; a warm store therefore
/// proves itself by keeping `misses` at zero across a whole figure run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from memory (including store-loaded entries).
    pub hits: u64,
    /// Lookups of a key the cache did not hold. Each was produced,
    /// shared from a stream measured under another key
    /// ([`CacheStats::shared_points`]), failed by the fault hook, or
    /// refused (invalid variant, pipeline error).
    pub misses: u64,
    /// Store lines that failed checksum or shape validation (torn
    /// appends, bit rot) in the snapshot the cache serves. The writer
    /// quarantined them next to the store on load; they are never
    /// silently dropped.
    pub corrupt_lines: u64,
    /// Store appends that failed (I/O error or injected fault) after
    /// exhausting any configured retries. The measurement stays
    /// available in memory; only persistence is lost.
    pub store_errors: u64,
    /// Append retry attempts made under [`TrafficCache::set_append_retry`]
    /// (an append that succeeds on its first try contributes zero).
    pub retried_appends: u64,
    /// Producer passes run to completion: how many times a schedule's
    /// access stream was actually generated and simulated. A sweep's
    /// points that replay one stream and differ only in the last cache
    /// level share one pass ([`crate::SweepEngine::prewarm`]), so
    /// `misses / passes` is the fan-out the sweep achieved; single
    /// lookups are passes of one.
    pub passes: u64,
    /// Members recorded from a stream this cache had measured under
    /// another key ([`Plan::stream`]): a miss answered without running
    /// a producer.
    pub shared_points: u64,
}

/// A memoizing cache of per-box traffic measurements: figure generation
/// asks for the same (variant, box size, hierarchy) many times across
/// thread counts and machines because the scaled LLC shares quantize to
/// a few distinct sizes. With a store path, measurements persist across
/// processes (a 128^3 trace costs ~10 s of simulation; the store makes
/// figure regeneration instant after the first run).
///
/// The store is a line-oriented text file with a `v{STORE_VERSION}`
/// header; a version mismatch discards the stale contents rather than
/// serving measurements taken under a different key schema or simulator.
/// See the module docs for the crash-safety guarantees.
///
/// In memory the cache is two disjoint parts: the store as its
/// [`StoreReader`] snapshot (one loader walks the file, one parser
/// reads its lines), and `fresh` — what this process measured since,
/// each also appended to the file iff the cache is the store's writer.
/// Every lookup is "view, then fresh". The writer never re-reads its own
/// appends; a read-only cache follows an external writer through the
/// reader's refresh, which drops from `fresh` whatever the store now
/// holds; compaction writes the union.
#[derive(Default)]
pub struct TrafficCache {
    /// The backing store and its in-memory image; `None` = in-memory
    /// cache.
    reader: Option<StoreReader>,
    /// Measured by this process and absent from the reader's view.
    fresh: Mutex<StoreMap>,
    /// What this process produced, by stream: the members a later miss
    /// can be recorded from without running a producer.
    streams: Mutex<StreamMap>,
    /// Lock file this cache owns; appends only happen when it does.
    owned_lock: Option<PathBuf>,
    /// Open handle holding the exclusive `flock` on `owned_lock`; kept
    /// alive for the cache's lifetime so the kernel releases the lock
    /// exactly when this writer is gone (drop, exit, or crash).
    lock_file: Option<std::fs::File>,
    hits: AtomicU64,
    misses: AtomicU64,
    store_errors: AtomicU64,
    retried_appends: AtomicU64,
    passes: AtomicU64,
    shared_points: AtomicU64,
    appends: AtomicU64,
    /// Transient-append retry budget (see `set_append_retry`): max
    /// retries per append, and the initial backoff in microseconds.
    retry_max: AtomicU32,
    retry_backoff_us: AtomicU64,
    fault: Option<Arc<dyn FaultHook>>,
}

/// The memoization key. Everything a measurement depends on is spelled
/// out: the full schedule variant, the box size, the ghost radius (a
/// kernel-wide constant today, but part of the measured working set), and
/// each cache level's geometry — which is how the *machine and thread
/// count* enter, via `MachineSpec::hierarchy_for(threads_on_socket)`.
///
/// Public because the key is also the unit of request coalescing in
/// [`crate::serve`] and what external tools join store lines on.
pub fn store_key(variant: Variant, n: i32, configs: &[CacheConfig]) -> String {
    use std::fmt::Write;
    let mut k = format!(
        "{:?}/{:?}/{:?}/{:?}/{:?}/n{}/g{}",
        variant.category, variant.gran, variant.comp, variant.intra, variant.tile, n, GHOST
    );
    for c in configs {
        let _ = write!(k, "/{}-{}-{}", c.size, c.assoc, c.line);
    }
    k
}

/// [`store_key`] with the pass pipeline's provenance appended. The empty
/// pipeline produces the **byte-identical** plain key: a warm store
/// written before the pass pipeline existed stays valid, and pass-free
/// lookups share entries with [`TrafficCache::get`]. A non-empty
/// pipeline appends `/p[<pass-key>]` — the comma-joined pass names, the
/// same string [`pdesched_core::plan::Plan::pass_key`] stamps on the
/// transformed plan.
pub fn store_key_with_passes(
    variant: Variant,
    n: i32,
    configs: &[CacheConfig],
    pipeline: &Pipeline,
) -> String {
    let mut k = store_key(variant, n, configs);
    if !pipeline.is_empty() {
        use std::fmt::Write;
        let _ = write!(k, "/p[{}]", pipeline.key());
    }
    k
}

/// The key of a pair-workload measurement ([`Boxes::Pair`]):
/// the single-box key with a `/pair` component, then the pass suffix.
/// Distinct from every single-box key, so pair and single-box numbers
/// can never be served for one another.
pub fn pair_store_key(
    variant: Variant,
    n: i32,
    configs: &[CacheConfig],
    pipeline: &Pipeline,
) -> String {
    let mut k = store_key(variant, n, configs);
    k.push_str("/pair");
    if !pipeline.is_empty() {
        use std::fmt::Write;
        let _ = write!(k, "/p[{}]", pipeline.key());
    }
    k
}

pub(crate) fn store_header() -> String {
    format!("# pdesched-traffic-store v{STORE_VERSION}")
}

/// Measurements by store key: what a [`TrafficCache`] measured beyond
/// its store snapshot.
pub(crate) type StoreMap = HashMap<String, BoxTraffic>;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit: the store's line checksum (tiny, dependency-free, and
/// plenty to detect torn appends and bit rot — this is integrity
/// against crashes, not an adversary).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(FNV_OFFSET, bytes)
}

/// FNV-1a continued from state `h` over `bytes`.
fn fnv1a64_from(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// [`fnv1a64`] of four byte strings at once. Each FNV-1a step waits on
/// the previous step's multiply; stepping four strings in lockstep over
/// their common length lets four independent multiplies overlap (~0.3 ms
/// less per warm `repro --fast fig2` on a 5,000-entry store, 2-vCPU
/// host). The longer lanes then finish alone.
fn fnv1a64_x4(lanes: [&[u8]; 4]) -> [u64; 4] {
    let common = lanes.iter().map(|l| l.len()).min().unwrap_or(0);
    let [a, b, c, d] = lanes.map(|l| &l[..common]);
    let mut h = [FNV_OFFSET; 4];
    for (((&a, &b), &c), &d) in a.iter().zip(b).zip(c).zip(d) {
        for (h, byte) in h.iter_mut().zip([a, b, c, d]) {
            *h = (*h ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
    }
    std::array::from_fn(|i| fnv1a64_from(h[i], &lanes[i][common..]))
}

/// Serialize one entry as its store line: key, the `sim` provenance tag,
/// payload fields, then the payload's checksum as the final field.
pub(crate) fn entry_line(key: &str, t: &BoxTraffic) -> String {
    let payload = format!(
        "{key} {SIM_TAG} {} {} {} {} {}",
        t.dram_bytes, t.reads, t.writes, t.l1_hit, t.llc_hit
    );
    let sum = fnv1a64(payload.as_bytes());
    format!("{payload} {sum:016x}")
}

/// `text` cut at its last space, which neither side keeps. After the
/// key a store line's fields are 3 to 18 bytes long: a plain byte scan
/// from the right reaches the space before `memchr` has set up.
fn split_at_last_space(text: &str) -> Option<(&str, &str)> {
    let at = text.bytes().rposition(|b| b == b' ')?;
    Some((&text[..at], &text[at + 1..]))
}

/// Parse and verify one store line in the grammar [`entry_line`] writes
/// — `key tag d r w l1 llc sum`, the fields separated by one ASCII space
/// each — given the line cut at its last space into `payload` and
/// `sum_hex`, and `payload_sum`, the [`fnv1a64`] of `payload`. `None`
/// means corrupt: torn, edited or bit-rotted (the checksum covers the
/// exact payload bytes), or spaced any other way (a tab, two spaces, a
/// leading or trailing space, whitespace in the key). The fields are
/// cut from the right; the key is what is left, so it must hold no
/// space. A v4 line is `tagged` with one of the [`LOADABLE_TAGS`]; a v3
/// line has no tag field. The key is borrowed from the line.
pub(crate) fn parse_entry<'a>(
    payload: &'a str,
    sum_hex: &str,
    payload_sum: u64,
    tagged: bool,
) -> Option<(&'a str, BoxTraffic)> {
    if u64::from_str_radix(sum_hex, 16).ok()? != payload_sum {
        return None;
    }
    let (rest, llc) = split_at_last_space(payload)?;
    let (rest, l1) = split_at_last_space(rest)?;
    let (rest, w) = split_at_last_space(rest)?;
    let (rest, r) = split_at_last_space(rest)?;
    let (mut key, d) = split_at_last_space(rest)?;
    if tagged {
        let (rest, tag) = split_at_last_space(key)?;
        if !LOADABLE_TAGS.contains(&tag) {
            return None;
        }
        key = rest;
    }
    if !plain_key(key) {
        return None;
    }
    Some((
        key,
        BoxTraffic {
            dram_bytes: d.parse().ok()?,
            reads: r.parse().ok()?,
            writes: w.parse().ok()?,
            l1_hit: l1.parse().ok()?,
            llc_hit: llc.parse().ok()?,
        },
    ))
}

/// Whether `key` can stand as a store key: not empty, and no whitespace
/// in it. The numeric fields' parsers and the tag compare refuse
/// whitespace themselves; the key is the one free-form field. Keys are
/// ASCII past the space, `!` to DEL, which one branch-free fold over the
/// bytes confirms (shifted down by `!`, those are exactly the bytes below
/// 0x5f); anything else gets the full Unicode reading.
fn plain_key(key: &str) -> bool {
    let top = key.bytes().fold(0, |top, b| top.max(b.wrapping_sub(b'!')));
    !key.is_empty() && (top < 0x5f || !key.contains(char::is_whitespace))
}

/// The single-writer lock file guarding `store`.
fn lock_path_for(store: &Path) -> PathBuf {
    let mut s = store.as_os_str().to_os_string();
    s.push(".lock");
    PathBuf::from(s)
}

/// The quarantine sidecar corrupt lines are preserved in.
fn quarantine_path_for(store: &Path) -> PathBuf {
    let mut s = store.as_os_str().to_os_string();
    s.push(".quarantine");
    PathBuf::from(s)
}

#[cfg(target_os = "linux")]
pub(crate) fn pid_alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

#[cfg(not(target_os = "linux"))]
pub(crate) fn pid_alive(_pid: u32) -> bool {
    // No portable liveness probe: assume the holder is alive (the safe
    // direction — we degrade to read-only instead of double-writing).
    true
}

/// Try to become the store's single writer; `Some(file)` holds the lock
/// for as long as it stays open.
///
/// The lock is an exclusive non-blocking `flock(2)` on the pid file.
/// The kernel releases it atomically when the holder's handle closes —
/// clean drop, `process::exit`, or `kill -9` alike — so taking over a
/// crashed writer's lock cannot double-grant: any number of processes
/// may conclude the lock is stale, but only one can win the flock. The
/// recorded pid remains as a content gate for locks written by other
/// protocols: with the flock held, an empty file (what a clean drop
/// leaves), our own pid, or a dead pid means the store is free; a live
/// foreign pid or unreadable content is respected (read-only). The file
/// is never unlinked — unlinking would reopen the unlink/flock race
/// where a later writer locks a directory entry that no longer exists.
#[cfg(unix)]
fn try_acquire_lock(lock: &Path) -> Option<std::fs::File> {
    use std::io::{Read, Seek};
    use std::os::unix::io::AsRawFd;
    const LOCK_EX: i32 = 2;
    const LOCK_NB: i32 = 4;
    extern "C" {
        fn flock(fd: i32, operation: i32) -> i32;
    }
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(lock)
        .ok()?;
    if unsafe { flock(f.as_raw_fd(), LOCK_EX | LOCK_NB) } != 0 {
        return None; // a live writer holds the flock
    }
    let mut content = String::new();
    f.read_to_string(&mut content).ok()?;
    let content = content.trim();
    let own = std::process::id();
    let free = content.is_empty()
        || content.parse::<u32>().map(|pid| pid == own || !pid_alive(pid)).unwrap_or(false);
    if !free {
        return None; // live foreign pid or unreadable content: respect it
    }
    f.set_len(0).ok()?;
    f.seek(std::io::SeekFrom::Start(0)).ok()?;
    write!(f, "{own}").ok()?;
    Some(f)
}

/// Fallback single-writer protocol without `flock`: O_EXCL creation of
/// the pid file, dead-holder locks removed and re-raced (the retried
/// `create_new` re-serializes concurrent stealers), lock removed on
/// drop. Compiled on every platform (and public) so the flock-less
/// protocol stays testable from Linux CI even though only non-unix
/// builds route [`TrafficCache`] through it.
///
/// The steal path is where the old protocol raced: two stealers could
/// both observe a dead holder, one `remove_file` + `create_new` pair
/// could delete the *other stealer's* freshly created lock, and both
/// would believe they won. `create_new` alone cannot arbitrate that,
/// because the unlink makes "the file I created" and "the file at the
/// path" different inodes. So after writing our pid we re-read the
/// *path* and keep the lock only if the content is exactly our pid:
/// whoever's create survived at the directory entry wins, every other
/// stealer observes a foreign pid (or an empty not-yet-written file)
/// and concedes. Conceding never removes the file — it is the winner's.
pub fn try_acquire_lock_fallback(lock: &Path) -> Option<std::fs::File> {
    let own = std::process::id();
    for attempt in 0..2 {
        match std::fs::OpenOptions::new().write(true).create_new(true).open(lock) {
            Ok(mut f) => {
                write!(f, "{own}").ok()?;
                f.flush().ok()?;
                // Re-verify through the directory entry, not our fd: if
                // a concurrent stealer unlinked our file and created its
                // own, the path now holds *its* pid and our fd points at
                // an orphaned inode.
                let content = std::fs::read_to_string(lock).ok()?;
                if content.trim().parse::<u32>() == Ok(own) {
                    return Some(f);
                }
                return None;
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists && attempt == 0 => {
                let holder =
                    std::fs::read_to_string(lock).ok().and_then(|s| s.trim().parse::<u32>().ok());
                match holder {
                    Some(pid) if pid == own || !pid_alive(pid) => {
                        let _ = std::fs::remove_file(lock);
                    }
                    _ => return None,
                }
            }
            Err(_) => return None,
        }
    }
    None
}

#[cfg(not(unix))]
fn try_acquire_lock(lock: &Path) -> Option<std::fs::File> {
    try_acquire_lock_fallback(lock)
}

/// Atomically replace `path` with header + `entries` (sorted by key for
/// reproducible bytes): write a tmp file, then rename over the target,
/// so a crash mid-rewrite leaves either the old or the new store —
/// never a half-written one. Because the keys are sorted and the line
/// format is canonical, the bytes are a pure function of the entry set:
/// a compacted store is byte-stable regardless of the order its entries
/// were appended in. Every entry is written with the `sim` tag, so a
/// rewrite records a loaded `sym` or `hyb` line as `sim`.
pub(crate) fn write_store_atomic<'a>(
    path: &Path,
    entries: impl Iterator<Item = (&'a str, &'a BoxTraffic)>,
) -> std::io::Result<()> {
    let mut entries: Vec<_> = entries.collect();
    entries.sort_unstable_by_key(|&(k, _)| k);
    let mut text = store_header();
    text.push('\n');
    for (k, t) in entries {
        text.push_str(&entry_line(k, t));
        text.push('\n');
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// The change stamp of a store file: `(mtime nanos, length)`. Two
/// stats returning the same stamp mean the file almost certainly has
/// the same bytes (appends grow the length; compaction rewrites both);
/// a changed stamp is the cue to re-snapshot. A missing file stamps as
/// `(0, 0)`.
pub(crate) fn store_stamp(path: &Path) -> (u64, u64) {
    let Ok(meta) = std::fs::metadata(path) else {
        return (0, 0);
    };
    let mtime = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    (mtime, meta.len())
}

/// The one store loader: a lock-free read of the file as a generation-0
/// [`StoreView`] stamped `stamp`. Accepts the current and the v3 grammar
/// (v3 measurements are still valid — the simulator is unchanged, only
/// the line format grew a provenance tag); a missing or wrong-version
/// file reads as empty. It never repairs, quarantines, or locks — the
/// file may belong to another process (an append can tear mid-line under
/// the reader; the torn tail shows up as one corrupt line and the next
/// read sees it whole). What a writer does about the damage is
/// [`TrafficCache::with_store`]'s business.
///
/// The file is read once, as bytes, and split into lines exactly as
/// [`str::lines`] splits text. Each line is checked as UTF-8 on its own,
/// so a bit-rotted byte costs its one line (a corrupt line like any
/// other), never the file. Only a line that does not start with a
/// printable ASCII byte pays for the Unicode blank-line test. Every
/// other line's last space is found once: the payload before it is
/// checksummed — four lines at a time, [`fnv1a64_x4`] — and the line is
/// decoded by [`parse_entry`] here, at load, so nothing is left to check
/// when a lookup comes. A key seen twice keeps its last line's value.
/// The index is sized once, from the file's newline count.
fn load_store(path: &Path, stamp: (u64, u64)) -> StoreView {
    let mut view = StoreView {
        generation: 0,
        stamp,
        bytes: Vec::new(),
        index: Index::with_capacity(0),
        corrupt_lines: 0,
        corrupt: Vec::new(),
        current: false,
    };
    let Ok(bytes) = std::fs::read(path) else {
        return view;
    };
    let mut lines = line_ranges(&bytes);
    let header = lines.next().map(|(start, end)| &bytes[start..end]);
    view.current = header == Some(store_header().as_bytes());
    if !view.current && header != Some(V3_HEADER.as_bytes()) {
        return view;
    }
    // Every line but the last ends at a newline, and the header's pays
    // for a last line without one: no more entries than newlines.
    view.index = Index::with_capacity(newlines(&bytes));
    // A file that is UTF-8 as a whole is UTF-8 line by line (no
    // multibyte character holds a `\n` or `\r` byte), and one check of
    // it is cheaper than one per line; a file that is not has its lines
    // checked one by one.
    let whole = std::str::from_utf8(&bytes).ok();
    // Blank lines dropped. A line goes on cut at its last space into
    // payload and checksum, or uncut when it is not UTF-8 or has no space.
    let mut lines = lines.filter_map(|(start, end)| {
        let line = &bytes[start..end];
        let text = whole.map_or_else(|| std::str::from_utf8(line).ok(), |w| Some(&w[start..end]));
        let blank = !line.first().is_some_and(u8::is_ascii_graphic)
            && text.is_some_and(|t| t.trim().is_empty());
        (!blank).then(|| ((start, end), text.and_then(split_at_last_space)))
    });
    loop {
        let quad: [_; 4] = std::array::from_fn(|_| lines.next());
        if quad[0].is_none() {
            break;
        }
        // Past the last line, and on a line with no payload, a lane sums
        // nothing.
        let sums = fnv1a64_x4(quad.map(|line| match line {
            Some((_, Some((payload, _)))) => payload.as_bytes(),
            _ => &[],
        }));
        for (line, sum) in quad.into_iter().zip(sums) {
            let Some((range, cut)) = line else { break };
            match cut
                .and_then(|(payload, sum_hex)| parse_entry(payload, sum_hex, sum, view.current))
            {
                Some((key, t)) => {
                    // The key is a subslice of `bytes`; keep its range.
                    let start = key.as_ptr() as usize - bytes.as_ptr() as usize;
                    view.index.insert(&bytes, (start, start + key.len()), t);
                }
                None => view.corrupt.push(range),
            }
        }
    }
    drop(lines); // it borrows `bytes`, which the view takes next
    view.corrupt_lines = view.corrupt.len() as u64;
    view.bytes = bytes;
    view
}

/// How many `\n` bytes `bytes` holds. Counted in a `u8` per run of at
/// most 255 bytes, which the compiler turns into wide compares; a
/// `usize` count per byte runs ten times slower.
fn newlines(bytes: &[u8]) -> usize {
    let run = |run: &[u8]| run.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n'));
    bytes.chunks(255).map(|r| usize::from(run(r))).sum()
}

/// The lines of `bytes` as `(start, end)` ranges, split exactly as
/// [`str::lines`] splits text: at each `\n`, which a line loses along
/// with one `\r` before it; a final `\n` starts no empty last line.
fn line_ranges(bytes: &[u8]) -> impl Iterator<Item = (usize, usize)> + '_ {
    use std::io::BufRead;
    let (mut rest, mut start) = (bytes, 0);
    std::iter::from_fn(move || {
        // On a slice `skip_until` is a `memchr`, and cannot fail.
        let len = rest.skip_until(b'\n').ok().filter(|&len| len > 0)?;
        let line_start = start;
        start += len;
        let line = &bytes[line_start..start];
        let line = match line.strip_suffix(b"\n") {
            Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
            None => line,
        };
        Some((line_start, line_start + line.len()))
    })
}

/// A word-at-a-time (FxHash-style) hash of a store key: one multiply per
/// eight bytes. The keys are this program's own, read from its own
/// store, so nothing crafts collisions against it and a keyed hash
/// (the `HashMap` default) would only cost time.
fn key_hash(key: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let step =
        |h: u64, word: [u8; 8]| (h.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(K);
    let mut words = key.chunks_exact(8);
    let h = words
        .by_ref()
        .fold(key.len() as u64, |h, w| step(h, w.try_into().expect("chunks_exact yields 8 bytes")));
    let mut tail = [0; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    step(h, tail)
}

/// One intact entry of a [`StoreView`]: where its key sits in the view's
/// bytes, the key's [`key_hash`], and the decoded value.
#[derive(Debug)]
struct Entry {
    hash: u64,
    key: (usize, usize),
    value: BoxTraffic,
}

/// A [`StoreView`]'s lookup table: the entries in the order their keys
/// first appear, and an open-addressing (linear probing) table of
/// positions in `entries`, at most half full. No entry owns a heap
/// allocation: keys are ranges of the view's bytes. Both are sized once,
/// for the most entries the file can hold, and never regrow. (Entries
/// sorted by key for a binary search would need no table, but sorting
/// 5,000 keys costs a warm `repro --fast fig2` ~0.6 ms more on a 2-vCPU
/// host.)
#[derive(Debug)]
struct Index {
    entries: Vec<Entry>,
    /// A power of two many slots, each [`Index::EMPTY`] or a position
    /// in `entries`.
    slots: Vec<u32>,
}

impl Index {
    const EMPTY: u32 = u32::MAX;

    /// An empty index with room for `capacity` keys, its table at least
    /// twice as many slots.
    fn with_capacity(capacity: usize) -> Index {
        assert!(capacity < Self::EMPTY as usize, "over 2^32 - 2 store entries");
        Index {
            entries: Vec::with_capacity(capacity),
            slots: vec![Self::EMPTY; (2 * capacity).next_power_of_two()],
        }
    }

    /// The first slot probed for `hash`, its high half: the multiply
    /// that ends [`key_hash`] mixes every input bit into those.
    fn home(&self, hash: u64) -> usize {
        (hash >> 32) as usize & (self.slots.len() - 1)
    }

    /// Where `key` is: `Ok(position in entries)`, or `Err(the empty
    /// slot it would take)`.
    fn probe(&self, bytes: &[u8], key: &[u8], hash: u64) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(hash);
        loop {
            let at = self.slots[slot];
            // `EMPTY` is past every position.
            let Some(e) = self.entries.get(at as usize) else {
                return Err(slot);
            };
            if e.hash == hash && &bytes[e.key.0..e.key.1] == key {
                return Ok(at);
            }
            slot = (slot + 1) & mask;
        }
    }

    fn get(&self, bytes: &[u8], key: &[u8]) -> Option<BoxTraffic> {
        let at = self.probe(bytes, key, key_hash(key)).ok()?;
        Some(self.entries[at as usize].value)
    }

    /// Hold `value` under the key at `key` in `bytes`, replacing what
    /// an earlier line gave the same key. A new key must fit the
    /// capacity the index was made with.
    fn insert(&mut self, bytes: &[u8], key: (usize, usize), value: BoxTraffic) {
        let key_bytes = &bytes[key.0..key.1];
        let hash = key_hash(key_bytes);
        match self.probe(bytes, key_bytes, hash) {
            Ok(at) => self.entries[at as usize].value = value,
            Err(slot) => {
                // At most half full, every probe soon meets an empty
                // slot; a full table would leave a miss none to stop at.
                let full = 2 * (self.entries.len() + 1) > self.slots.len();
                assert!(!full, "store index over capacity");
                self.slots[slot] = self.entries.len() as u32;
                self.entries.push(Entry { hash, key, value });
            }
        }
    }
}

/// One immutable, generation-stamped snapshot of a store file, produced
/// by [`StoreReader`]. Holders read it without any lock — file, flock,
/// or mutex — for as long as they keep the `Arc`; a concurrent writer's
/// append or compaction lands in the *next* view, never mutates this
/// one.
///
/// A view is the file's bytes, read once, plus a flat index over them:
/// per intact entry the range of its key in those bytes, the key's hash
/// and the decoded measurement. No entry owns a heap allocation. Every
/// check — UTF-8 (per line), checksum, every field — ran at load, so a
/// lookup is a hash, a probe and one key compare.
#[derive(Debug)]
pub struct StoreView {
    /// Monotonic reload counter: bumped every time the reader observed
    /// a changed store file and re-read it. Two views with the same
    /// generation are the same object; readers comparing generations
    /// can tell "same store state" from "reloaded behind my back".
    pub generation: u64,
    /// The file stamp ([`store_stamp`]) this view was read at.
    stamp: (u64, u64),
    /// The file as read (empty when it is missing or foreign).
    bytes: Vec<u8>,
    index: Index,
    /// Lines that failed UTF-8, checksum or field validation in this
    /// snapshot — a torn in-flight append shows up here (and is absent
    /// from the index) until the next reload sees it whole.
    pub corrupt_lines: u64,
    /// Those lines, as ranges of `bytes`, for the writer to quarantine
    /// byte for byte.
    corrupt: Vec<(usize, usize)>,
    /// Whether the file carried the current header. Otherwise it is
    /// missing or foreign (read as empty) or v3 (its entries are in
    /// the index), and a writer owes it a rewrite.
    current: bool,
}

impl StoreView {
    /// Look up an entry by its store key.
    pub fn get(&self, key: &str) -> Option<BoxTraffic> {
        self.index.get(&self.bytes, key.as_bytes())
    }

    /// Number of intact entries in this snapshot.
    pub fn len(&self) -> usize {
        self.index.entries.len()
    }

    /// True when the snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.index.entries.is_empty()
    }

    /// The entries of this snapshot, for callers that need to iterate
    /// (compaction, tests comparing whole generations; lookups go
    /// through [`StoreView::get`]).
    pub fn entries(&self) -> impl Iterator<Item = (&str, &BoxTraffic)> {
        self.index.entries.iter().map(|e| {
            let key = std::str::from_utf8(&self.bytes[e.key.0..e.key.1]);
            (key.expect("keys are cut from lines checked as UTF-8 at load"), &e.value)
        })
    }
}

/// A lock-free warm-read path over a store file: an immutable in-memory
/// snapshot ([`StoreView`]) behind an `Arc`, atomically swapped for a
/// fresh one when [`StoreReader::refresh`] observes the file's stamp
/// change (another writer appended or compacted). Readers clone the
/// `Arc` and never touch the store's flock — this is how N concurrent
/// servers/readers share one store with exactly one writer. A
/// [`TrafficCache`] over a store holds its durable entries as one of
/// these, so a standalone reader and a cache see a file identically.
///
/// Each snapshot is one read of the whole file into a view's byte
/// buffer, and one walk of it that checks every line (UTF-8 per line,
/// checksum, every field) and indexes the intact ones; nothing is
/// decoded later. Opening and a changed-file refresh cost that walk, an
/// unchanged refresh one `stat(2)`.
///
/// Torn reads cannot escape: a snapshot taken mid-append sees the
/// incomplete tail line fail its checksum and drops it (counted in
/// [`StoreView::corrupt_lines`]), and a snapshot racing a compaction
/// sees either the old file or the atomically renamed new one — never a
/// mix. Every view is therefore bit-exact some committed store state.
pub struct StoreReader {
    path: PathBuf,
    state: Mutex<Arc<StoreView>>,
}

impl StoreReader {
    /// Open a reader over `path`, taking the initial snapshot (an
    /// absent or wrong-version file reads as an empty generation-0
    /// view).
    pub fn open(path: impl Into<PathBuf>) -> StoreReader {
        let path = path.into();
        // Stamp before reading: a write landing in between leaves a
        // stale stamp behind, which the next refresh corrects.
        let view = load_store(&path, store_stamp(&path));
        StoreReader { path, state: Mutex::new(Arc::new(view)) }
    }

    /// The store file this reader snapshots.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The current view (cheap: one mutex-guarded `Arc` clone, no I/O).
    pub fn view(&self) -> Arc<StoreView> {
        Arc::clone(&self.state.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Re-stat the store file and, if its stamp changed since the
    /// current view, read a fresh snapshot and atomically swap it in
    /// (generation + 1). Returns the now-current view either way.
    /// Cheap when nothing changed: one `stat(2)`.
    pub fn refresh(&self) -> Arc<StoreView> {
        let stamp = store_stamp(&self.path);
        {
            let cur = self.state.lock().unwrap_or_else(|e| e.into_inner());
            if cur.stamp == stamp {
                return Arc::clone(&cur);
            }
        }
        // Read outside the lock (snapshots can be slow); last swap wins,
        // which is fine — both candidates are committed states, and the
        // next refresh converges on the newest stamp.
        let mut fresh = load_store(&self.path, stamp);
        let mut cur = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if cur.stamp != stamp {
            fresh.generation = cur.generation + 1;
            *cur = Arc::new(fresh);
        }
        Arc::clone(&cur)
    }
}

impl TrafficCache {
    /// Empty in-memory cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache backed by a line-oriented text file; existing entries are
    /// loaded, new measurements appended.
    ///
    /// * A missing, headerless, or wrong-version file is discarded and
    ///   atomically re-initialized with the current [`STORE_VERSION`]
    ///   header. Exception: a v3 store (the pre-provenance format) is
    ///   migrated in place — its entries are loaded, tagged `sim`, and
    ///   the file is rewritten with the v4 header.
    /// * Lines failing their checksum or UTF-8 (torn appends from a crash
    ///   or `kill -9`, bit rot) are copied byte for byte to
    ///   `<path>.quarantine`, counted in [`CacheStats::corrupt_lines`],
    ///   and the store is compacted to the intact entries via tmp-file +
    ///   rename.
    /// * A `<path>.lock` pid file held under an exclusive `flock(2)`
    ///   makes this cache the store's single writer. If another live
    ///   process holds it, this cache loads the entries but runs
    ///   read-only (no appends, no repair); a dead holder's lock is
    ///   taken over atomically (the kernel releases a crashed writer's
    ///   flock, so two waiting processes can never both steal it).
    pub fn with_store(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let lock = lock_path_for(&path);
        let lock_file = try_acquire_lock(&lock);
        let reader = StoreReader::open(path);
        let view = reader.view();
        let mut cache = TrafficCache::new();
        if lock_file.is_some() && !(view.current && view.corrupt.is_empty()) {
            // Preserve the damaged lines, then rewrite the store as its
            // intact entries under the current header — which compacts
            // a damaged store, migrates a v3 one and re-initializes a
            // missing or foreign one — so the next load is clean.
            if !view.corrupt.is_empty() {
                if let Ok(mut q) = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(quarantine_path_for(reader.path()))
                {
                    for &(start, end) in &view.corrupt {
                        let _ = q.write_all(&[&view.bytes[start..end], b"\n"].concat());
                    }
                }
            }
            if write_store_atomic(reader.path(), view.entries()).is_err() {
                cache.store_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        cache.reader = Some(reader);
        cache.owned_lock = lock_file.is_some().then_some(lock);
        cache.lock_file = lock_file;
        cache
    }

    /// Install fault-injection hooks (see [`crate::fault::FaultHook`]).
    pub fn with_fault_hook(mut self, hook: Arc<dyn FaultHook>) -> Self {
        self.fault = Some(hook);
        self
    }

    /// Whether this cache lost the single-writer race for its store: it
    /// serves the loaded entries and memoizes in memory, but appends
    /// nothing.
    pub fn store_read_only(&self) -> bool {
        self.reader.is_some() && self.owned_lock.is_none()
    }

    /// Follow an external writer: [`StoreReader::refresh`] on this
    /// cache's snapshot. A reload drops from the fresh map whatever the
    /// store now holds (the store wins — it is the durable truth, and
    /// the numbers are deterministic anyway); in-memory-only
    /// measurements it does not hold are kept. Returns `true` iff the
    /// snapshot was reloaded ([`TrafficCache::store_generation`] counts).
    ///
    /// Only meaningful for a cache that is *not* the store's writer: a
    /// long-lived read-only reader (the second `repro` of a pair, a
    /// degraded server) would otherwise serve its load-time view
    /// forever. The writer is the single source of the file's changes,
    /// so a writing cache returns `false` without stat-ing.
    pub fn refresh_if_compacted(&self) -> bool {
        let Some(reader) = self.reader.as_ref().filter(|_| self.owned_lock.is_none()) else {
            return false;
        };
        let before = reader.view().generation;
        let view = reader.refresh();
        let reloaded = view.generation != before;
        if reloaded {
            self.fresh_lock().retain(|k, _| view.get(k).is_none());
        }
        reloaded
    }

    /// The generation of the store snapshot this cache serves: how many
    /// external reloads [`TrafficCache::refresh_if_compacted`] has
    /// performed (0 = still the load-time view, or no store).
    pub fn store_generation(&self) -> u64 {
        self.reader.as_ref().map_or(0, |r| r.view().generation)
    }

    /// The backing store path, if any.
    pub fn store_path(&self) -> Option<&Path> {
        self.reader.as_ref().map(StoreReader::path)
    }

    /// The fresh-map lock, surviving poisoning: a panic in some other
    /// holder (e.g. an injected measurement fault caught mid-insert by a
    /// test) must not cascade into every later lookup.
    fn fresh_lock(&self) -> MutexGuard<'_, StoreMap> {
        self.fresh.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The one lookup — the store snapshot, then the fresh map: the
    /// measurement held under a store key, if any. No simulation, no
    /// counter update, no I/O; `repro serve` answers its warm path with
    /// this.
    pub fn peek(&self, key: &str) -> Option<BoxTraffic> {
        let stored = self.reader.as_ref().and_then(|r| r.view().get(key));
        stored.or_else(|| self.fresh_lock().get(key).copied())
    }

    /// Measured (or memoized) traffic of the hand lowering on one box.
    ///
    /// A failed store append degrades to in-memory memoization and
    /// bumps [`CacheStats::store_errors`]. Panics if the variant cannot
    /// run on the box.
    pub fn get(&self, variant: Variant, n: i32, configs: &[CacheConfig]) -> BoxTraffic {
        self.fetch_one(&Point::hand(variant, n, configs)).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The one lookup-or-measure path behind every `get*` and every
    /// sweep pass, over the members of `points` in order. Each member is
    /// served from memory if held; the missing ones each count a miss and
    /// give the fault hook its turn (consecutive indices, the member's
    /// own key). A missing member whose (stream, workload, hierarchy)
    /// this cache has already produced under another key is recorded
    /// from it and counts in [`CacheStats::shared_points`]. The rest are
    /// grouped by (stream, workload, front): one [`measure`] per group,
    /// over the group's distinct last levels on [`Engine::Simulate`],
    /// answers them all. Every number is recorded under its member's own
    /// key.
    ///
    /// A hook that panics fails its own member only (`Err` with the
    /// panic payload; the rest is still measured) — except a
    /// [`Cancelled`] unwind, which like any unwind out of `measure`
    /// itself propagates. Invalid variants and pipeline errors are
    /// returned before anything is recorded, and never cached.
    pub(crate) fn fetch(&self, points: &[Point<'_>]) -> Result<Vec<MemberResult>, PipelineError> {
        // Every member of every point, flattened: (point, member).
        let members: Vec<(usize, usize)> = points
            .iter()
            .enumerate()
            .flat_map(|(p, point)| (0..point.lasts.len()).map(move |i| (p, i)))
            .collect();
        let keys: Vec<String> = members.iter().map(|&(p, i)| points[p].key(i)).collect();
        let mut results: Vec<Option<MemberResult>> =
            keys.iter().map(|k| self.peek(k).map(Ok)).collect();
        let held = results.iter().flatten().count();
        self.hits.fetch_add(held as u64, Ordering::Relaxed);
        let mut missing: Vec<usize> = (0..keys.len()).filter(|&m| results[m].is_none()).collect();
        let first_index = self.misses.fetch_add(missing.len() as u64, Ordering::Relaxed);
        if let Some(hook) = &self.fault {
            let mut sim_index = first_index;
            missing.retain(|&m| {
                let turn = catch_unwind(AssertUnwindSafe(|| {
                    hook.before_simulation(sim_index, &keys[m]);
                }));
                sim_index += 1;
                match turn {
                    Ok(()) => true,
                    Err(payload) if payload.is::<Cancelled>() => resume_unwind(payload),
                    Err(payload) => {
                        results[m] = Some(Err(payload));
                        false
                    }
                }
            });
        }
        // The stream of every point with a missing member: the only
        // place a point can be refused, so a refusal records nothing.
        let mut streams: Vec<Option<Stream>> = vec![None; points.len()];
        for &m in &missing {
            let p = members[m].0;
            if streams[p].is_none() {
                streams[p] = Some(points[p].stream()?);
            }
        }
        let stream = |p: usize| streams[p].as_ref().expect("stream of a point with a miss");

        // Share what this cache already produced; group the rest into
        // producer runs.
        struct Run {
            /// The point whose variant and pipeline the producer runs.
            point: usize,
            /// The run's distinct last levels.
            lasts: Vec<CacheConfig>,
            /// (member, index into `lasts`).
            members: Vec<(usize, usize)>,
        }
        let mut runs: Vec<Run> = Vec::new();
        for m in missing {
            let (p, i) = members[m];
            let point = &points[p];
            let configs = point.configs(i);
            if let Some(t) = self.produced(stream(p), point.boxes, &configs) {
                self.shared_points.fetch_add(1, Ordering::Relaxed);
                self.record(keys[m].clone(), t);
                results[m] = Some(Ok(t));
                continue;
            }
            let run = match runs.iter().position(|r| {
                let rep = &points[r.point];
                rep.boxes == point.boxes && rep.front == point.front && stream(r.point) == stream(p)
            }) {
                Some(r) => &mut runs[r],
                None => {
                    runs.push(Run { point: p, lasts: Vec::new(), members: Vec::new() });
                    runs.last_mut().expect("just pushed")
                }
            };
            let last = point.lasts[i];
            let slot = run.lasts.iter().position(|&l| l == last).unwrap_or_else(|| {
                run.lasts.push(last);
                run.lasts.len() - 1
            });
            run.members.push((m, slot));
        }

        for Run { point: p, lasts, members: wanted } in runs {
            let point = &points[p];
            let measured = measure(&Point { lasts: &lasts, ..*point }, Engine::Simulate)?;
            self.passes.fetch_add(1, Ordering::Relaxed);
            {
                let mut held = self.streams.lock().unwrap_or_else(|e| e.into_inner());
                let held = held.entry(stream(p).clone()).or_default();
                for (last, t) in lasts.iter().zip(&measured) {
                    let configs = point.front.iter().chain([last]).copied().collect();
                    held.push((point.boxes, configs, *t));
                }
            }
            // The first member of each last level is the one produced;
            // any other replays its stream under another key.
            let mut first = vec![true; lasts.len()];
            for (m, slot) in wanted {
                if !std::mem::replace(&mut first[slot], false) {
                    self.shared_points.fetch_add(1, Ordering::Relaxed);
                }
                self.record(keys[m].clone(), measured[slot]);
                results[m] = Some(Ok(measured[slot]));
            }
        }
        Ok(results.into_iter().map(|m| m.expect("held, hook-failed, shared or measured")).collect())
    }

    /// The member this cache produced for `stream` on `boxes` through
    /// the whole hierarchy `configs`, if any.
    fn produced(
        &self,
        stream: &Stream,
        boxes: Boxes,
        configs: &[CacheConfig],
    ) -> Option<BoxTraffic> {
        let held = self.streams.lock().unwrap_or_else(|e| e.into_inner());
        held.get(stream)?.iter().find(|(b, c, _)| *b == boxes && c == configs).map(|&(_, _, t)| t)
    }

    /// [`TrafficCache::fetch`] for a point of one member, with a
    /// fault-hook panic handed on to the caller.
    fn fetch_one(&self, point: &Point<'_>) -> Result<BoxTraffic, PipelineError> {
        match self.fetch(std::slice::from_ref(point))?.pop().expect("a point has a member") {
            Ok(t) => Ok(t),
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Memoize a fresh measurement and append it to the store (if this
    /// cache owns the writer lock), with the configured retry budget.
    fn record(&self, key: String, t: BoxTraffic) {
        {
            // A refresh since the lookup missed may have brought the
            // key in with the store; then the store's entry stands.
            let mut fresh = self.fresh_lock();
            if self.reader.as_ref().is_some_and(|r| r.view().get(&key).is_some()) {
                return;
            }
            fresh.insert(key.clone(), t);
        }
        if let (Some(path), true) = (self.store_path(), self.owned_lock.is_some()) {
            // Line and newline go out in ONE `write` on the O_APPEND
            // handle: the kernel places each such write whole, so sweep
            // threads finishing together cannot interleave into a merged
            // line.
            let line = entry_line(&key, &t) + "\n";
            let max_retries = self.retry_max.load(Ordering::Relaxed);
            let backoff_us = self.retry_backoff_us.load(Ordering::Relaxed);
            let mut appended = false;
            for attempt in 0..=max_retries {
                if attempt > 0 {
                    self.retried_appends.fetch_add(1, Ordering::Relaxed);
                    // Bounded exponential backoff: backoff · 2^(attempt-1),
                    // with the exponent capped so the sleep can't overflow
                    // into an effectively unbounded stall.
                    let delay = backoff_us.saturating_mul(1u64 << (attempt - 1).min(10));
                    std::thread::sleep(Duration::from_micros(delay));
                }
                let append_index = self.appends.fetch_add(1, Ordering::Relaxed);
                let injected = self.fault.as_ref().is_some_and(|h| h.fail_append(append_index));
                appended = !injected
                    && std::fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(path)
                        .and_then(|mut f| f.write_all(line.as_bytes()))
                        .is_ok();
                if appended {
                    break;
                }
            }
            if !appended {
                self.store_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Measured (or memoized) traffic of `variant` transformed by a pass
    /// `pipeline`.
    ///
    /// The empty pipeline shares [`TrafficCache::get`]'s key, entry and
    /// counters, so pass-free callers share the warm store. Non-empty
    /// pipelines key under [`store_key_with_passes`]'s `/p[...]`-suffixed
    /// key. Which engine answers a miss is [`measure`]'s decision; an
    /// invalid variant, a pass precondition or a verifier rejection is
    /// returned, never cached.
    pub fn get_optimized(
        &self,
        variant: Variant,
        n: i32,
        configs: &[CacheConfig],
        pipeline: &Pipeline,
    ) -> Result<BoxTraffic, PipelineError> {
        self.fetch_one(&Point::new(variant, n, configs, pipeline, Boxes::Single))
    }

    /// Measured (or memoized) per-box traffic of the two-box pair
    /// workload ([`Boxes::Pair`]), keyed under [`pair_store_key`].
    pub fn get_pair(
        &self,
        variant: Variant,
        n: i32,
        configs: &[CacheConfig],
        pipeline: &Pipeline,
    ) -> Result<BoxTraffic, PipelineError> {
        self.fetch_one(&Point::new(variant, n, configs, pipeline, Boxes::Pair))
    }

    /// Retry transient store-append failures: up to `max_retries` extra
    /// attempts per entry, sleeping `backoff · 2^attempt` (bounded)
    /// between attempts. Off by default (`max_retries == 0`) so fault
    /// accounting stays exact for callers that want one attempt = one
    /// outcome; the sweep engine turns it on from its
    /// `SweepBudget`. Attempts that ultimately fail are still counted in
    /// [`CacheStats::store_errors`]; the retries themselves show up in
    /// [`CacheStats::retried_appends`].
    pub fn set_append_retry(&self, max_retries: u32, backoff: Duration) {
        self.retry_max.store(max_retries, Ordering::Relaxed);
        self.retry_backoff_us
            .store(backoff.as_micros().min(u128::from(u64::MAX)) as u64, Ordering::Relaxed);
    }

    /// Best-effort `fsync` of the backing store, if this cache is its
    /// writer. Called on signal-triggered shutdown so every appended
    /// measurement is durable before the process exits.
    pub fn flush_store(&self) {
        if let (Some(path), true) = (self.store_path(), self.owned_lock.is_some()) {
            if let Ok(f) = std::fs::File::open(path) {
                let _ = f.sync_all();
            }
        }
    }

    /// Rewrite the backing store to its canonical compacted form — the
    /// union of the loaded snapshot and the fresh map, sorted by key,
    /// atomic tmp+rename — if this cache is its writer.
    /// The canonical bytes are a pure function of the entry set —
    /// `repro serve` compacts on drain so two stores holding the same
    /// measurements compare bit-identical (`serve_storm.sh` relies on
    /// this). Returns whether a rewrite happened; read-only and
    /// in-memory caches no-op. Callers must quiesce concurrent
    /// `get`/`get_optimized` calls first (the server drains inflight
    /// requests before compacting): an append racing the rename could
    /// land on the doomed pre-rename inode and be lost from disk until
    /// the next compaction.
    pub fn compact_store(&self) -> bool {
        let Some(reader) = self.reader.as_ref().filter(|_| self.owned_lock.is_some()) else {
            return false;
        };
        let (view, fresh) = (reader.view(), self.fresh_lock());
        let union = view.entries().chain(fresh.iter().map(|(k, v)| (k.as_str(), v)));
        if write_store_atomic(reader.path(), union).is_err() {
            self.store_errors.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Whether a measurement for this point is already held (no
    /// simulation, no counter update) — the sweep engine uses this to
    /// schedule only the genuinely missing points.
    pub fn contains(&self, variant: Variant, n: i32, configs: &[CacheConfig]) -> bool {
        self.peek(&store_key(variant, n, configs)).is_some()
    }

    /// Hit/miss and store-health counters since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt_lines: self.reader.as_ref().map_or(0, |r| r.view().corrupt_lines),
            store_errors: self.store_errors.load(Ordering::Relaxed),
            retried_appends: self.retried_appends.load(Ordering::Relaxed),
            passes: self.passes.load(Ordering::Relaxed),
            shared_points: self.shared_points.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct measurements held: the store snapshot's plus
    /// the fresh ones (the two never share a key).
    pub fn len(&self) -> usize {
        self.reader.as_ref().map_or(0, |r| r.view().len()) + self.fresh_lock().len()
    }

    /// True when nothing is held, loaded or measured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for TrafficCache {
    fn drop(&mut self) {
        // Unix: closing `lock_file` releases the exclusive flock (the
        // kernel also does this on crash or `process::exit`); the lock
        // file itself is deliberately never unlinked — see
        // `try_acquire_lock`. Our pid is erased first, while the flock
        // is still held: this process may live on, and a live pid left
        // in the file would read as a foreign-protocol holder and keep
        // the store read-only for every other process. The fallback
        // protocol has no flock, so its lock must be removed here and
        // staleness pid-checked on acquisition.
        if let Some(f) = self.lock_file.take() {
            let _ = f.set_len(0);
        }
        #[cfg(not(unix))]
        if let Some(lock) = &self.owned_lock {
            let _ = std::fs::remove_file(lock);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdesched_core::{CompLoop, Granularity, IntraTile};
    use pdesched_kernels::ops::compulsory_bytes;
    use pdesched_testkit::TempDir;

    fn small_hierarchy() -> Vec<CacheConfig> {
        // Deliberately tiny so a 16^3 box does not fit: 8 KiB L1,
        // 64 KiB L2.
        vec![CacheConfig::new(8 * 1024, 4), CacheConfig::new(64 * 1024, 8)]
    }

    fn big_hierarchy() -> Vec<CacheConfig> {
        // Everything fits: 16 MiB LLC.
        vec![CacheConfig::new(32 * 1024, 8), CacheConfig::new(16 * 1024 * 1024, 16)]
    }

    #[test]
    fn resident_box_moves_only_compulsory_traffic() {
        // When the whole working set fits in cache, every schedule moves
        // exactly the compulsory bytes (phi0 in, phi1 in+out) — modulo
        // line-granularity rounding at box edges.
        let n = 12;
        let lower = compulsory_bytes(n, GHOST);
        for variant in [Variant::baseline(), Variant::shift_fuse()] {
            let t = measure_box_traffic(variant, n, &big_hierarchy());
            assert!(t.dram_bytes >= lower, "{variant}: {} < compulsory {lower}", t.dram_bytes);
            // Amortized cold-start of the temporaries and line-granule
            // rounding leave a modest residual above compulsory. The
            // deterministic trace layout keeps each temporary in its own
            // line-aligned region (a real allocator lets consecutive
            // reallocations alias), so the residual includes each
            // region's cold fill and final flush once.
            assert!(
                (t.dram_bytes as f64) < lower as f64 * 1.5,
                "{variant}: {} >> compulsory {lower}",
                t.dram_bytes
            );
        }
    }

    #[test]
    fn fused_moves_less_than_series_when_tight() {
        let n = 16;
        let base = measure_box_traffic(Variant::baseline(), n, &small_hierarchy());
        let fused = measure_box_traffic(Variant::shift_fuse(), n, &small_hierarchy());
        assert!(
            fused.dram_bytes < base.dram_bytes,
            "fused {} !< series {}",
            fused.dram_bytes,
            base.dram_bytes
        );
    }

    #[test]
    fn overlapped_tiles_moves_less_than_series_when_tight() {
        let n = 16;
        let base = measure_box_traffic(Variant::baseline(), n, &small_hierarchy());
        let ot = measure_box_traffic(
            Variant::overlapped(IntraTile::ShiftFuse, 4, Granularity::WithinBox),
            n,
            &small_hierarchy(),
        );
        assert!(ot.dram_bytes < base.dram_bytes);
    }

    #[test]
    fn traffic_cache_persists_to_store() {
        let dir = TempDir::new("store");
        let path = dir.file("traffic.txt");
        let cfg = big_hierarchy();
        let a = {
            let cache = TrafficCache::with_store(&path);
            assert!(!cache.store_read_only(), "sole writer must own the lock");
            cache.get(Variant::baseline(), 8, &cfg)
        };
        // A fresh cache reads the stored value without re-measuring.
        let cache2 = TrafficCache::with_store(&path);
        assert_eq!(cache2.len(), 1);
        let b = cache2.get(Variant::baseline(), 8, &cfg);
        assert_eq!(a, b);
        assert_eq!(cache2.stats().corrupt_lines, 0);
    }

    #[test]
    fn stale_store_version_is_discarded() {
        let dir = TempDir::new("stale");
        let path = dir.file("traffic.txt");
        let cfg = big_hierarchy();
        // Simulate a store written by an older schema: wrong header, plus
        // an entry whose key matches the *current* format. It must not be
        // trusted.
        let key = store_key(Variant::baseline(), 8, &cfg);
        std::fs::write(&path, format!("# pdesched-traffic-store v1\n{key} 1 1 1 0.5 0.5\n"))
            .unwrap();
        let cache = TrafficCache::with_store(&path);
        assert!(cache.is_empty(), "stale-version entries must be dropped");
        let t = cache.get(Variant::baseline(), 8, &cfg);
        assert_ne!(t.dram_bytes, 1, "must re-measure, not echo the stale line");
        // The file is re-initialized with the current header and the
        // fresh measurement.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(&store_header()), "store must carry the current version header");
        drop(cache);
        let reload = TrafficCache::with_store(&path);
        assert_eq!(reload.len(), 1);
        assert_eq!(reload.get(Variant::baseline(), 8, &cfg), t);
    }

    /// [`parse_entry`] with the line's checksum taken by plain
    /// [`fnv1a64`]: the one-line-at-a-time reading of a store line.
    fn parse(line: &str, tagged: bool) -> Option<(&str, BoxTraffic)> {
        let (payload, sum_hex) = split_at_last_space(line)?;
        parse_entry(payload, sum_hex, fnv1a64(payload.as_bytes()), tagged)
    }

    /// The reference decoder, independent of [`parse_entry`]: the
    /// payload is everything before the line's last space, split at any
    /// run of Unicode whitespace, and every field parsed by std. It is
    /// the loader's decoder before the loader read the writers' grammar
    /// alone, so it also takes lines no writer spaces that way.
    fn reference_parse(line: &str, tagged: bool) -> Option<(&str, BoxTraffic)> {
        let payload = line.rsplit_once(' ').map_or(line, |(payload, _)| payload);
        let sum_hex = line[payload.len()..].strip_prefix(' ')?;
        if u64::from_str_radix(sum_hex, 16).ok()? != fnv1a64(payload.as_bytes()) {
            return None;
        }
        let mut it = payload.split_whitespace();
        let key = it.next()?;
        if tagged && !LOADABLE_TAGS.contains(&it.next()?) {
            return None;
        }
        let (d, r, w, l1, llc) = (it.next()?, it.next()?, it.next()?, it.next()?, it.next()?);
        if it.next().is_some() {
            return None;
        }
        Some((
            key,
            BoxTraffic {
                dram_bytes: d.parse().ok()?,
                reads: r.parse().ok()?,
                writes: w.parse().ok()?,
                l1_hit: l1.parse().ok()?,
                llc_hit: llc.parse().ok()?,
            },
        ))
    }

    /// Whether a line's payload is spaced as the writers space it: its
    /// whitespace-separated fields joined by single spaces give it back.
    fn writer_spaced(line: &str) -> bool {
        let payload = line.rsplit_once(' ').map_or(line, |(payload, _)| payload);
        payload.split_whitespace().collect::<Vec<_>>().join(" ") == payload
    }

    /// A checksum-valid line whose payload is `respace` applied to the
    /// v4 payload of `key`, `t` and `tag`.
    fn respaced_line(
        key: &str,
        t: &BoxTraffic,
        tag: &str,
        respace: impl Fn(&str) -> String,
    ) -> String {
        let canonical = tagged_line(key, t, tag);
        let payload = respace(canonical.rsplit_once(' ').unwrap().0);
        format!("{payload} {:016x}", fnv1a64(payload.as_bytes()))
    }

    #[test]
    fn other_whitespace_between_fields_is_corrupt() {
        let t = BoxTraffic { dram_bytes: 123, reads: 45, writes: 6, l1_hit: 0.875, llc_hit: 0.5 };
        let tab = respaced_line("k/tab", &t, "sim", |p| p.replacen(' ', "\t", 1));
        let double = respaced_line("k/double", &t, "sim", |p| p.replacen(' ', "  ", 1));
        let trailing = respaced_line("k/trailing", &t, "sim", |p| format!("{p} "));
        let leading = respaced_line("k/leading", &t, "sim", |p| format!(" {p}"));
        // Whitespace inside the key: the reference splits it and counts
        // a field too many; the loader keeps the fields and refuses the
        // key.
        let inner = |ws: &str| {
            let payload = format!("k{ws}x {} {} {} {} {}", 1, 2, 3, 0.5, 0.25);
            format!("{payload} {:016x}", fnv1a64(payload.as_bytes()))
        };
        for line in [&tab, &double, &trailing, &leading] {
            assert!(reference_parse(line, true).is_some(), "the reference takes {line:?}");
            assert!(!writer_spaced(line), "{line:?}");
            assert_eq!(parse(line, true), None, "{line:?}");
        }
        for ws in ["\t", "\u{a0}", "\u{3000}"] {
            let line = inner(ws);
            assert_eq!(reference_parse(&line, false), None, "{line:?}");
            assert_eq!(parse(&line, false), None, "{line:?}");
        }
        // A key of printable non-whitespace bytes, ASCII or not, stands.
        for key in ["k\u{1}x", "kéy", "k\u{7f}"] {
            let payload = format!("{key} sim 1 2 3 0.5 0.25");
            let line = format!("{payload} {:016x}", fnv1a64(payload.as_bytes()));
            assert_eq!(parse(&line, true), reference_parse(&line, true), "{line:?}");
            assert_eq!(parse(&line, true).map(|(k, _)| k), Some(key), "{line:?}");
        }
    }

    /// A checksummed v4 line carrying `tag`, as the writer of a retired
    /// engine recorded it.
    fn tagged_line(key: &str, t: &BoxTraffic, tag: &str) -> String {
        let payload = format!(
            "{key} {tag} {} {} {} {} {}",
            t.dram_bytes, t.reads, t.writes, t.l1_hit, t.llc_hit
        );
        format!("{payload} {:016x}", fnv1a64(payload.as_bytes()))
    }

    #[test]
    fn checksummed_lines_roundtrip() {
        let t = BoxTraffic { dram_bytes: 123, reads: 45, writes: 6, l1_hit: 0.875, llc_hit: 0.5 };
        let line = entry_line("some/key/n8/g2", &t);
        assert_eq!(line, tagged_line("some/key/n8/g2", &t, "sim"), "the writer tags `sim`");
        let (k, back) = parse(&line, true).expect("own line must verify");
        assert_eq!(k, "some/key/n8/g2");
        assert_eq!(back, t);
        // Lines tagged by the two retired engines still verify and load;
        // any other tag is a corrupt line.
        for tag in ["sym", "hyb"] {
            assert_eq!(parse(&tagged_line(k, &t, tag), true), Some((k, t)), "{tag}");
        }
        assert_eq!(parse(&tagged_line(k, &t, "xyz"), true), None);
        // Told the wrong grammar, a line has one field too many or too
        // few: a v3 reader never takes a tag for a number.
        assert!(parse(&line, false).is_none());
        // Any single-byte mutation must fail verification.
        for i in 0..line.len() {
            let mut bytes = line.clone().into_bytes();
            bytes[i] ^= 0x01;
            if let Ok(s) = String::from_utf8(bytes) {
                assert!(parse(&s, true).is_none(), "flip at {i} must be caught");
            }
        }
        // Truncations (torn appends) must fail verification too.
        for cut in 0..line.len() {
            assert!(parse(&line[..cut], true).is_none(), "truncation at {cut} must be caught");
        }
    }

    #[test]
    fn four_lane_checksum_is_fnv1a() {
        // The published FNV-1a 64 vectors pin the stored checksum itself.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        pdesched_testkit::check(0x4a4e, 400, |rng| {
            // Unequal lengths in 0..300; about one lane in eight empty.
            let lanes: [Vec<u8>; 4] = std::array::from_fn(|_| {
                let len = if rng.range_usize(0, 8) == 0 { 0 } else { rng.range_usize(0, 300) };
                (0..len).map(|_| rng.next_u64() as u8).collect()
            });
            let sums = fnv1a64_x4(lanes.each_ref().map(Vec::as_slice));
            for (lane, sum) in lanes.iter().zip(sums) {
                assert_eq!(sum, fnv1a64(lane), "lane of {} bytes", lane.len());
            }
        });
    }

    /// A v3 line: the v4 payload without its provenance tag.
    fn v3_line(key: &str, t: &BoxTraffic) -> String {
        let payload =
            format!("{key} {} {} {} {} {}", t.dram_bytes, t.reads, t.writes, t.l1_hit, t.llc_hit);
        format!("{payload} {:016x}", fnv1a64(payload.as_bytes()))
    }

    #[test]
    fn v3_store_migrates_to_v4_with_sim_provenance() {
        let dir = TempDir::new("migrate");
        let path = dir.file("traffic.txt");
        let cfg = big_hierarchy();
        // A genuine v3 store: v3 header, entry lines in the tagless v3
        // grammar with valid checksums. Its measurements are still
        // correct, so migration must preserve them — no re-measuring.
        let key = store_key(Variant::baseline(), 8, &cfg);
        let t = BoxTraffic { dram_bytes: 77, reads: 5, writes: 3, l1_hit: 0.5, llc_hit: 0.25 };
        std::fs::write(&path, format!("{V3_HEADER}\n{}\n", v3_line(&key, &t))).unwrap();
        let cache = TrafficCache::with_store(&path);
        assert_eq!(cache.get(Variant::baseline(), 8, &cfg), t);
        assert_eq!(cache.stats().misses, 0, "migration must not re-measure");
        // The file itself was rewritten in the v4 format.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(&store_header()), "{text}");
        assert!(text.contains(" sim "), "migrated entries carry the sim tag: {text}");
    }

    /// The writer's cache and a bare reader go through one loader: fed
    /// the same file they hold the same entries and count the same
    /// corrupt lines, and whatever the writer found, it leaves a file
    /// that loads clean.
    #[test]
    fn writer_and_reader_load_every_store_shape_alike() {
        let t = |d| BoxTraffic { dram_bytes: d, reads: 5, writes: 3, l1_hit: 0.5, llc_hit: 0.25 };
        // Entries as the two retired engines tagged them.
        let (a, b) = (tagged_line("k/a", &t(1), "sym"), tagged_line("k/b", &t(2), "hyb"));
        let head = store_header();
        let torn = &b.as_bytes()[..b.len() / 2];
        // `b` with one byte bit-rotted past ASCII: not UTF-8.
        let mut rotted = b.clone().into_bytes();
        rotted[2] = 0xff;
        fn file(lines: &[&[u8]]) -> Vec<u8> {
            lines.iter().flat_map(|l| [*l, b"\n"]).flatten().copied().collect()
        }
        // (name, file bytes or missing, entries held, the damaged lines)
        type Shape<'a> = (&'a str, Option<Vec<u8>>, usize, Vec<&'a [u8]>);
        let shapes: [Shape; 7] = [
            ("clean v4", Some(format!("{head}\n{a}\n{b}\n").into()), 2, vec![]),
            (
                "v3",
                Some(format!("{V3_HEADER}\n{}\n{a}\n", v3_line("k/a", &t(1))).into()),
                1,
                vec![a.as_bytes()],
            ),
            (
                "torn tail",
                Some([format!("{head}\n{a}\n").as_bytes(), torn].concat()),
                1,
                vec![torn],
            ),
            (
                "corrupt interior",
                Some(format!("{head}\n{a}\nnot an entry\n\n{b}\n").into()),
                2,
                vec![b"not an entry"],
            ),
            ("not UTF-8", Some(file(&[head.as_bytes(), a.as_bytes(), &rotted])), 1, vec![&rotted]),
            (
                "foreign header",
                Some(format!("# pdesched-traffic-store v1\n{a}\n").into()),
                0,
                vec![],
            ),
            ("missing", None, 0, vec![]),
        ];
        for (name, bytes, entries, damage) in shapes {
            let dir = TempDir::new("shapes");
            let path = dir.file("traffic.txt");
            if let Some(bytes) = &bytes {
                std::fs::write(&path, bytes).unwrap();
            }
            // The reader first: the writer repairs the file it opens.
            let view = StoreReader::open(&path).view();
            let cache = TrafficCache::with_store(&path);
            assert!(!cache.store_read_only(), "{name}");
            let corrupt = damage.len() as u64;
            assert_eq!((view.len(), view.corrupt_lines), (entries, corrupt), "{name}: reader");
            assert_eq!((cache.len(), cache.stats().corrupt_lines), (entries, corrupt), "{name}");
            for (key, entry) in view.entries() {
                assert_eq!(cache.peek(key), Some(*entry), "{name}: {key}");
            }
            assert_eq!(
                std::fs::read(quarantine_path_for(&path)).ok(),
                (!damage.is_empty()).then(|| file(&damage)),
                "{name}: exactly the damage is quarantined, byte for byte"
            );
            drop(cache);
            let reload = TrafficCache::with_store(&path);
            assert_eq!((reload.len(), reload.stats().corrupt_lines), (entries, 0), "{name}");
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(text.starts_with(&head), "{name}: {text}");
            // A rewrite records every entry as `sim`.
            assert!(reload.compact_store(), "{name}");
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(!text.contains(" sym ") && !text.contains(" hyb "), "{name}: {text}");
            assert_eq!(text.matches(" sim ").count(), entries, "{name}: {text}");
        }
    }

    /// The loader against the plainest reading of a store: split the
    /// text with `str::lines` and fold the reference decoder over the
    /// lines one at a time, checksums by plain [`fnv1a64`], the last
    /// line of a key winning, a line not spaced as the writers space it
    /// corrupt. The seeded ~5,000-line stores carry every damage a store
    /// meets, and every canonical line decodes to the reference's bits.
    #[test]
    fn view_matches_a_line_by_line_oracle() {
        use std::fmt::Write as _;
        type Held = HashMap<String, BoxTraffic>;
        fn oracle(bytes: &[u8]) -> (Held, u64) {
            let text = String::from_utf8_lossy(bytes);
            let mut lines = text.lines();
            let tagged = match lines.next() {
                Some(h) if h == store_header() => true,
                Some(V3_HEADER) => false,
                _ => return (Held::new(), 0),
            };
            let (mut held, mut corrupt) = (Held::new(), 0);
            for line in lines.filter(|l| !l.trim().is_empty()) {
                // A byte that is not UTF-8 reads as U+FFFD, which no
                // generated line holds otherwise.
                let intact = writer_spaced(line) && !line.contains('\u{fffd}');
                match reference_parse(line, tagged).filter(|_| intact) {
                    Some((k, t)) => {
                        held.insert(k.to_string(), t);
                    }
                    None => corrupt += 1,
                }
            }
            (held, corrupt)
        }
        type Bits = (u64, u64, u64, u64, u64);
        let bits = |t: BoxTraffic| -> Bits {
            (t.dram_bytes, t.reads, t.writes, t.l1_hit.to_bits(), t.llc_hit.to_bits())
        };

        let mut rng = pdesched_testkit::Rng::new(0x10ad);
        let value = |rng: &mut pdesched_testkit::Rng| {
            let mut ratio = || (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let (l1_hit, llc_hit) = (ratio(), ratio());
            let tag = LOADABLE_TAGS[rng.range_usize(0, LOADABLE_TAGS.len())];
            let t = BoxTraffic {
                dram_bytes: rng.next_u64() >> rng.range_usize(0, 64),
                reads: rng.next_u64() >> 24,
                writes: rng.range_usize(0, 1 << 20) as u64,
                l1_hit,
                llc_hit,
            };
            (t, tag)
        };
        // One to four cache levels: keys of every length mod 8.
        let keys: Vec<String> = (0..5000)
            .map(|i| {
                let mut k = format!("Series/Box/Outside/n{}/g2/i{i}", rng.range_usize(1, 513));
                for _ in 0..rng.range_usize(1, 5) {
                    let _ = write!(
                        k,
                        "/{}-{}-64",
                        1 << rng.range_usize(10, 25),
                        rng.range_usize(1, 17)
                    );
                }
                k
            })
            .collect();
        let mut lines: Vec<Vec<u8>> = keys
            .iter()
            .map(|k| {
                let (t, tag) = value(&mut rng);
                tagged_line(k, &t, tag).into()
            })
            .collect();
        // Every canonical line decodes as the reference decodes it.
        let same_bits = |line: &str, tagged: bool| {
            let ours = parse(line, tagged).map(|(k, t)| (k, bits(t)));
            assert!(ours.is_some(), "{line}");
            assert_eq!(ours, reference_parse(line, tagged).map(|(k, t)| (k, bits(t))), "{line}");
        };
        for line in &lines {
            same_bits(std::str::from_utf8(line).unwrap(), true);
        }
        // The damage. A later line for a held key with a different
        // value; another whose copy is corrupt, so the first stands.
        let (t, tag) = value(&mut rng);
        let duplicate = (keys[300].clone(), t);
        lines.push(tagged_line(&keys[300], &t, tag).into());
        // A flipped digit: the last of the payload, llc_hit's.
        let flip_digit = |line: &mut Vec<u8>| {
            let at = line.len() - 18;
            line[at] = b'0' + (line[at] - b'0' + 1) % 10;
        };
        let mut bad_copy = lines[301].clone();
        flip_digit(&mut bad_copy);
        lines.push(bad_copy);
        flip_digit(&mut lines[100]);
        // Bytes that are not UTF-8: in a key, in a checksum.
        lines[200][5] = 0xff;
        let end = lines[201].len() - 3;
        lines[201][end] = 0x80;
        // A tagless (v3) line under the v4 header.
        lines.push(v3_line("tagless/k", &value(&mut rng).0).into());
        // Checksum-valid lines spaced as no writer spaces them, under
        // keys of their own: the reference decoder takes each of them.
        let respaced = [
            respaced_line("tab/k", &t, tag, |p| p.replacen(' ', "\t", 1)),
            respaced_line("double/k", &t, tag, |p| {
                let (head, last) = p.rsplit_once(' ').unwrap();
                format!("{head}  {last}")
            }),
            respaced_line("trailing/k", &t, tag, |p| format!("{p} ")),
        ];
        for line in &respaced {
            assert!(reference_parse(line, true).is_some(), "{line:?}");
            lines.push(line.clone().into());
        }
        // Damaged: the bad copy, the digit, two non-UTF-8 lines, the
        // tagless line, the three respaced lines and the torn tail below.
        let damaged = 9;
        // Blank lines, scattered.
        for blank in ["", "   ", "\t"] {
            let at = rng.range_usize(0, lines.len());
            lines.insert(at, blank.into());
        }
        let mut v4 = format!("{}\n", store_header()).into_bytes();
        for line in &lines {
            v4.extend_from_slice(line);
            // CRLF endings on one line in seven.
            v4.extend_from_slice(if rng.range_usize(0, 7) == 0 { b"\r\n" } else { b"\n" });
        }
        // A torn tail: half a line, no newline.
        let tail = entry_line("torn/k", &value(&mut rng).0);
        v4.extend_from_slice(&tail.as_bytes()[..tail.len() / 2]);
        // A v3 store with a v4 line among its v3 ones.
        let mut v3 = format!("{V3_HEADER}\n").into_bytes();
        for (i, key) in keys[..50].iter().enumerate() {
            let line = if i == 25 {
                entry_line(key, &value(&mut rng).0)
            } else {
                let line = v3_line(key, &value(&mut rng).0);
                same_bits(&line, false);
                line
            };
            v3.extend_from_slice(format!("{line}\n").as_bytes());
        }

        for (name, bytes, held_len, corrupt_lines) in
            // Three keys' only lines are damaged.
            [("v4", v4, keys.len() - 3, damaged), ("v3", v3, 49, 1)]
        {
            let (held, corrupt) = oracle(&bytes);
            // The oracle read what was written, so the comparison bites.
            assert_eq!((held.len(), corrupt), (held_len, corrupt_lines as u64), "{name}: oracle");
            let dir = TempDir::new("oracle");
            let path = dir.file("traffic.txt");
            std::fs::write(&path, &bytes).unwrap();
            // The reader first: the writer repairs the file it opens.
            let view = StoreReader::open(&path).view();
            let cache = TrafficCache::with_store(&path);
            assert_eq!((view.len(), view.corrupt_lines), (held.len(), corrupt), "{name}: reader");
            if name == "v4" {
                let quarantined = std::fs::read(quarantine_path_for(&path)).unwrap();
                let quarantined = String::from_utf8_lossy(&quarantined);
                for line in &respaced {
                    assert!(quarantined.lines().any(|q| q == line), "{line:?} is quarantined");
                }
            }
            assert_eq!((cache.len(), cache.stats().corrupt_lines), (held.len(), corrupt), "{name}");
            let listed: HashMap<&str, Bits> = view.entries().map(|(k, v)| (k, bits(*v))).collect();
            assert_eq!(listed.len(), held.len(), "{name}: entries() lists each key once");
            for (key, &v) in &held {
                assert_eq!(listed.get(key.as_str()), Some(&bits(v)), "{name}: {key}");
                assert_eq!(view.get(key).map(bits), Some(bits(v)), "{name}: {key}");
                assert_eq!(cache.peek(key).map(bits), Some(bits(v)), "{name}: {key}");
                // Every one-byte change of a key reads what the oracle
                // holds under the changed key: nothing, nearly always.
                let mut near = key.clone().into_bytes();
                for i in 0..near.len() {
                    for flip in [0x01, 0x20] {
                        near[i] ^= flip;
                        let near_key = std::str::from_utf8(&near).unwrap();
                        let want = held.get(near_key).copied().map(bits);
                        assert_eq!(view.get(near_key).map(bits), want, "{name}: {near_key}");
                        assert_eq!(cache.peek(near_key).map(bits), want, "{name}: {near_key}");
                        near[i] ^= flip;
                    }
                }
                for near_key in [&key[..key.len() - 1], format!("{key}0").as_str()] {
                    let want = held.get(near_key).copied().map(bits);
                    assert_eq!(view.get(near_key).map(bits), want, "{name}: {near_key}");
                }
            }
            if name == "v4" {
                let (key, v) = &duplicate;
                assert_eq!(view.get(key).map(bits), Some(bits(*v)), "the last line of a key wins");
                assert_eq!(view.get(&keys[301]), held.get(&keys[301]).copied());
            }
            drop(cache);
            let reload = StoreReader::open(&path).view();
            assert_eq!((reload.len(), reload.corrupt_lines), (held.len(), 0), "{name}: repaired");
            for (key, &v) in &held {
                assert_eq!(reload.get(key).map(bits), Some(bits(v)), "{name}: repaired {key}");
            }
        }
    }

    /// The index is sized once, from the file's newlines: a store of far
    /// more and far shorter lines than a long-lived one's — 20,000
    /// minimal v3 lines, blank lines and a repeated key among them, the
    /// last line without its newline — holds every key, the last line
    /// of the repeated one winning.
    #[test]
    fn index_sized_once_holds_a_dense_store() {
        let t = |d| BoxTraffic { dram_bytes: d, reads: 0, writes: 0, l1_hit: 0.0, llc_hit: 0.0 };
        let mut lines = vec![V3_HEADER.to_string()];
        for i in 0..20_000 {
            lines.push(v3_line(&i.to_string(), &t(i)));
            if i % 7 == 0 {
                lines.push(String::new());
            }
            if i % 1000 == 999 {
                lines.push(v3_line("k", &t(i)));
            }
        }
        assert_eq!(lines[1], "0 0 0 0 0 0 260bea95cf789f77", "a minimal line");
        let dir = TempDir::new("dense");
        let path = dir.file("traffic.txt");
        std::fs::write(&path, lines.join("\n")).unwrap();
        let view = StoreReader::open(&path).view();
        assert_eq!((view.len(), view.corrupt_lines), (20_001, 0));
        for i in 0..20_000 {
            assert_eq!(view.get(&i.to_string()), Some(t(i)), "{i}");
        }
        assert_eq!(view.get("k"), Some(t(19_999)), "the last line of a key wins");
        assert_eq!(view.get("20000"), None);
        // No blank line and no final newline: exactly one entry per
        // newline, the tightest fit.
        std::fs::write(&path, [lines[0].as_str(), &lines[1], &lines[3]].join("\n")).unwrap();
        let view = StoreReader::open(&path).view();
        assert_eq!((view.len(), view.get("1")), (2, Some(t(1))));
    }

    #[test]
    fn peek_touches_no_counter_and_no_file() {
        let dir = TempDir::new("peek");
        let path = dir.file("traffic.txt");
        let cfg = big_hierarchy();
        let key = |v| store_key(v, 8, &cfg);
        let stored = {
            let cache = TrafficCache::with_store(&path);
            cache.get(Variant::baseline(), 8, &cfg)
        };
        let cache = TrafficCache::with_store(&path);
        let local = cache.get(Variant::shift_fuse(), 8, &cfg);
        let (stats, bytes) = (cache.stats(), std::fs::read(&path).unwrap());
        assert_eq!((stats.misses, stats.passes), (1, 1));
        // Held by the store snapshot, measured by this process, absent.
        assert_eq!(cache.peek(&key(Variant::baseline())), Some(stored));
        assert_eq!(cache.peek(&key(Variant::shift_fuse())), Some(local));
        let wavefront = Variant::blocked_wavefront(CompLoop::Outside, 4);
        assert_eq!(cache.peek(&key(wavefront)), None);
        assert_eq!(cache.stats(), stats, "peek is counter-free");
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "peek never writes");
        assert_eq!(cache.len(), 2, "store entry and fresh entry, each counted once");
    }

    #[cfg(unix)]
    #[test]
    fn dropped_cache_leaves_no_pid_in_the_lock_file() {
        let dir = TempDir::new("lockdrop");
        let path = dir.file("traffic.txt");
        let lock = lock_path_for(&path);
        let cache = TrafficCache::with_store(&path);
        assert!(!cache.store_read_only());
        assert_eq!(std::fs::read_to_string(&lock).unwrap(), std::process::id().to_string());
        drop(cache);
        // This process lives on; its pid must not stay behind as a
        // holder nobody can tell from a foreign-protocol writer.
        assert_eq!(std::fs::read_to_string(&lock).unwrap(), "");
        // The content gate itself stays: a live foreign pid written
        // under no flock (another protocol's lock) is still respected.
        std::fs::write(&lock, std::os::unix::process::parent_id().to_string()).unwrap();
        assert!(TrafficCache::with_store(&path).store_read_only());
    }

    #[test]
    fn corrupt_lines_are_quarantined_and_counted() {
        let dir = TempDir::new("corrupt");
        let path = dir.file("traffic.txt");
        let cfg = big_hierarchy();
        {
            let cache = TrafficCache::with_store(&path);
            cache.get(Variant::baseline(), 8, &cfg);
        }
        // Damage the store: one garbage line, plus a torn copy of a
        // valid line (a crash mid-append).
        let good = std::fs::read_to_string(&path).unwrap();
        let torn = good.lines().nth(1).unwrap();
        let torn = &torn[..torn.len() / 2];
        std::fs::write(&path, format!("{good}not a valid entry line\n{torn}")).unwrap();
        let cache = TrafficCache::with_store(&path);
        assert_eq!(cache.len(), 1, "the intact entry must survive");
        assert_eq!(cache.stats().corrupt_lines, 2);
        // Quarantine holds the damage; the store itself is compacted.
        let q = std::fs::read_to_string(quarantine_path_for(&path)).unwrap();
        assert!(q.contains("not a valid entry line") && q.contains(torn));
        drop(cache);
        let reload = TrafficCache::with_store(&path);
        assert_eq!((reload.len(), reload.stats().corrupt_lines), (1, 0));
    }

    #[test]
    fn hit_miss_counters_track_lookups() {
        let cache = TrafficCache::new();
        let cfg = big_hierarchy();
        assert_eq!(cache.stats(), CacheStats::default());
        cache.get(Variant::baseline(), 8, &cfg);
        let one_pass = CacheStats { misses: 1, passes: 1, ..Default::default() };
        assert_eq!(cache.stats(), one_pass);
        cache.get(Variant::baseline(), 8, &cfg);
        cache.get(Variant::baseline(), 8, &cfg);
        assert_eq!(cache.stats(), CacheStats { hits: 2, ..one_pass });
        // `contains` probes without perturbing the counters.
        assert!(cache.contains(Variant::baseline(), 8, &cfg));
        assert!(!cache.contains(Variant::shift_fuse(), 8, &cfg));
        assert_eq!(cache.stats(), CacheStats { hits: 2, ..one_pass });
    }

    #[test]
    fn key_distinguishes_hierarchies() {
        let cache = TrafficCache::new();
        cache.get(Variant::baseline(), 8, &big_hierarchy());
        cache.get(Variant::baseline(), 8, &small_hierarchy());
        assert_eq!(cache.len(), 2, "different hierarchies are different points");
    }

    #[test]
    fn traffic_cache_memoizes() {
        let cache = TrafficCache::new();
        let cfg = big_hierarchy();
        let a = cache.get(Variant::baseline(), 8, &cfg);
        let b = cache.get(Variant::baseline(), 8, &cfg);
        assert_eq!(a, b);
        assert_eq!(cache.len(), 1);
        let _ = cache.get(Variant::shift_fuse(), 8, &cfg);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn wavefront_traffic_close_to_fused() {
        // Blocked wavefront = fused + co-dimension caches, but cube
        // tiles cut spatial locality (Section IV-C: "using cube tiles
        // simultaneously reduces the spatial locality"): 4^3 tiles are
        // half a cache line wide, so boundary lines are fetched by both
        // neighbors. Expect more traffic than plain fused, bounded by
        // ~3x.
        let n = 16;
        let fused = measure_box_traffic(Variant::shift_fuse(), n, &small_hierarchy());
        let wf = measure_box_traffic(
            Variant::blocked_wavefront(CompLoop::Outside, 4),
            n,
            &small_hierarchy(),
        );
        assert!(wf.dram_bytes > fused.dram_bytes, "tiling should cost spatial locality here");
        assert!(wf.dram_bytes < fused.dram_bytes * 3);
    }

    #[test]
    fn pass_free_store_keys_are_byte_identical() {
        // The compatibility contract: an empty pipeline must produce the
        // exact pre-pipeline key (existing stores stay valid), and any
        // non-empty pipeline gets its own suffix.
        let cfg = small_hierarchy();
        let v = Variant::shift_fuse();
        assert_eq!(store_key_with_passes(v, 8, &cfg, &Pipeline::empty()), store_key(v, 8, &cfg));
        let pipe = Pipeline::parse("cross-box-fuse:2").unwrap();
        let k = store_key_with_passes(v, 8, &cfg, &pipe);
        assert!(k.ends_with("/p[cross-box-fuse:2]"), "{k}");
        assert!(k.starts_with(&store_key(v, 8, &cfg)), "{k}");
        // Pair keys never collide with single-box keys.
        let pk = pair_store_key(v, 8, &cfg, &Pipeline::empty());
        assert_ne!(pk, store_key(v, 8, &cfg));
        assert!(pk.contains("/pair"), "{pk}");
    }

    #[test]
    fn cross_box_fusion_saves_shared_halo_traffic() {
        // The headline mechanism at unit scale: two x-adjacent boxes
        // share a 2-ghost halo slab of phi0. Sequential execution
        // refetches it (the LLC is smaller than one box's stream);
        // chunk-interleaved execution revisits it at chunk distance.
        let n = 12;
        let cfg = vec![CacheConfig::new(8 * 1024, 4), CacheConfig::new(256 * 1024, 16)];
        let v = Variant { comp: CompLoop::Inside, ..Variant::shift_fuse() };
        let pair = |pipeline: &Pipeline| {
            let point = Point::new(v, n, &cfg, pipeline, Boxes::Pair);
            measure(&point, Engine::Simulate).unwrap()[0]
        };
        let seq = pair(&Pipeline::empty());
        let fused = pair(&Pipeline::parse("cross-box-fuse:2").unwrap());
        assert!(
            fused.dram_bytes < seq.dram_bytes,
            "interleaved {} !< sequential {}",
            fused.dram_bytes,
            seq.dram_bytes
        );
    }

    #[test]
    fn get_pair_persists_under_pair_keys() {
        let dir = TempDir::new("pair-store");
        let path = dir.file("traffic.txt");
        let cfg = big_hierarchy();
        let v = Variant::shift_fuse();
        let pipe = Pipeline::parse("cross-box-fuse:2").unwrap();
        let a = {
            let cache = TrafficCache::with_store(&path);
            let seq = cache.get_pair(v, 8, &cfg, &Pipeline::empty()).unwrap();
            let il = cache.get_pair(v, 8, &cfg, &pipe).unwrap();
            assert_ne!(cache.get(v, 8, &cfg), seq, "pair and single-box entries must not collide");
            assert_eq!(cache.len(), 3);
            (seq, il)
        };
        // A fresh cache reloads all three entries from the store.
        let cache2 = TrafficCache::with_store(&path);
        assert_eq!(cache2.len(), 3);
        assert_eq!(cache2.get_pair(v, 8, &cfg, &Pipeline::empty()).unwrap(), a.0);
        assert_eq!(cache2.get_pair(v, 8, &cfg, &pipe).unwrap(), a.1);
        assert_eq!(cache2.stats().misses, 0);
    }

    /// Sweep threads finishing points together append concurrently; an
    /// entry written as two `write`s (payload, newline) tore into a
    /// merged line about once in fifty cold `fig2` passes.
    #[test]
    fn concurrent_appends_never_tear() {
        const THREADS: usize = 4;
        const KEYS: usize = 500;
        let dir = TempDir::new("append-race");
        let path = dir.file("traffic.txt");
        let key = |t: usize, k: usize| format!("race/t{t}/k{k}");
        let traffic = |t: usize, k: usize| BoxTraffic {
            dram_bytes: (t * KEYS + k) as u64,
            reads: k as u64,
            writes: t as u64,
            l1_hit: 0.5,
            llc_hit: 0.25,
        };
        {
            let cache = TrafficCache::with_store(&path);
            let start = std::sync::Barrier::new(THREADS);
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    let (cache, start) = (&cache, &start);
                    s.spawn(move || {
                        start.wait();
                        for k in 0..KEYS {
                            cache.record(key(t, k), traffic(t, k));
                        }
                    });
                }
            });
            assert_eq!(cache.stats().store_errors, 0);
        }
        let reload = TrafficCache::with_store(&path);
        assert_eq!(reload.stats().corrupt_lines, 0, "an append tore");
        assert_eq!(reload.len(), THREADS * KEYS);
        for t in 0..THREADS {
            for k in 0..KEYS {
                assert_eq!(reload.peek(&key(t, k)), Some(traffic(t, k)), "t{t} k{k}");
            }
        }
    }
}
