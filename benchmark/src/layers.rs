//! The per-layer pass (`--trace 1`): each layer's public functions are
//! called from here, timed and wrapped in a span, on inputs sized so the
//! whole pass takes about half a minute. Layers are measured from
//! outside — nothing in `crates/` is instrumented.
//!
//! Multi-variant metrics are geometric means over the four named
//! schedules at n = 64 on the goldens' stress hierarchy (8 KiB 4-way L1,
//! 64 KiB 8-way LLC); the per-variant rows go to `trace.json`. The three
//! traffic engines are asserted bit-identical on every variant.

use crate::gen::{self, Request};
use crate::proc;
use crate::stats::{geomean, median, quantile};
use crate::trace::{Tracer, VariantRow};
use crate::workloads::{check_reply, entry_count, record_exchange, Checks, Conn, Ctx};
use pdesched_cachesim::{CacheConfig, Hierarchy};
use pdesched_core::plan::{self, lower};
use pdesched_core::{CompLoop, Granularity, Mem, NoMem, Pipeline, Variant};
use pdesched_machine::model::{predict_time_with_traffic, prediction_hierarchy, Workload};
use pdesched_machine::{
    analytic, figures, measure_box_traffic, measure_box_traffic_parallel,
    measure_box_traffic_symbolic, store_key, sweep, symbolic, MachineSpec, ServeConfig, Server,
    SimPoint, StoreReader, SweepEngine, TrafficCache,
};
use pdesched_mesh::IntVect;
use pdesched_par::SpmdPool;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const N: i32 = 64;

fn stress_hierarchy() -> Vec<CacheConfig> {
    vec![CacheConfig::new(8 * 1024, 4), CacheConfig::new(64 * 1024, 8)]
}

pub struct Layers {
    /// `(metric, value)`; units come from the contract table.
    pub metrics: Vec<(&'static str, f64)>,
    pub rows: Vec<VariantRow>,
    pub checks: Checks,
}

impl Layers {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn check(&mut self, ok: bool, what: &str) {
        self.checks.op(if ok { Ok(()) } else { Err(what.to_string()) });
    }
}

/// The cheapest `Mem` that still observes every access: two counters
/// bumped with a plain load and store (`core`'s `CountingMem` pays an
/// atomic read-modify-write per access, which would be most of the
/// number). Exact only on one thread, which is how plans are traced.
#[derive(Default)]
struct Tally {
    reads: AtomicU64,
    writes: AtomicU64,
}

impl Tally {
    fn bump(counter: &AtomicU64, by: usize) {
        counter.store(counter.load(Ordering::Relaxed) + by as u64, Ordering::Relaxed);
    }
}

impl Mem for Tally {
    #[inline(always)]
    fn r(&self, _addr: usize) {
        Tally::bump(&self.reads, 1);
    }
    #[inline(always)]
    fn w(&self, _addr: usize) {
        Tally::bump(&self.writes, 1);
    }
    #[inline(always)]
    fn r_run(&self, _addr: usize, elems: usize) {
        Tally::bump(&self.reads, elems);
    }
    #[inline(always)]
    fn w_run(&self, _addr: usize, elems: usize) {
        Tally::bump(&self.writes, elems);
    }
}

/// Seconds per call of `f`: the `q`-quantile over `samples` batches of
/// `reps` calls.
fn per_call_q<R>(q: f64, samples: usize, reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                black_box(f());
            }
            t0.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    quantile(&times, q)
}

/// Median seconds per call of `f` over `samples` batches of `reps`.
fn per_call<R>(samples: usize, reps: usize, f: impl FnMut() -> R) -> f64 {
    per_call_q(0.5, samples, reps, f)
}

pub fn run(ctx: &Ctx) -> Layers {
    ctx.tracer.set_workload("layers");
    let mut out = Layers { metrics: Vec::new(), rows: Vec::new(), checks: Checks::default() };
    plan_layer(ctx, &mut out);
    points_and_engines(ctx, &mut out);
    cachesim_layer(ctx, &mut out);
    sweep_engine_and_figures(ctx, &mut out);
    store_layer(ctx, &mut out);
    model_layers(ctx, &mut out);
    serve_layer(ctx, &mut out);
    par_layer(ctx, &mut out);
    // (`--store`: even `table1` opens its store, by default under `target/`.)
    let store = ctx.scratch.join("start.txt").to_string_lossy().into_owned();
    let starts: Vec<f64> = (0..20)
        .map(|_| proc::run_repro(ctx.repro, &["--store", &store, "table1"]).wall_ms)
        .collect();
    out.put("proc.start_ms", median(&starts));
    out
}

fn rows(out: &mut Layers, metric: &'static str, unit: &'static str, per: &[(&str, f64)]) -> f64 {
    for (variant, value) in per {
        out.rows.push(VariantRow { metric, variant: variant.to_string(), value: *value, unit });
    }
    geomean(&per.iter().map(|p| p.1).collect::<Vec<_>>())
}

/// `core::plan`: lowering, pass application + verification, cache hit.
fn plan_layer(ctx: &Ctx, out: &mut Layers) {
    let span = ctx.tracer.begin(0, "plan", "core::plan");
    let size = IntVect::splat(N);
    let lowered: Vec<(&str, f64)> = gen::named_variants()
        .into_iter()
        .map(|(name, v)| (name, 1e6 * per_call(5, 2000, || lower(v, size, ctx.threads))))
        .collect();
    let v = rows(out, "plan.lower_us", "us", &lowered);
    out.put("plan.lower_us", v);

    // The four pinned (variant, threads, pipeline) combinations of
    // BENCH_passes.json, at n = 32.
    let series_nt = Variant { gran: Granularity::WithinBox, ..Variant::baseline() };
    let fuse_cli = Variant { comp: CompLoop::Inside, ..Variant::shift_fuse() };
    let bwf = Variant::blocked_wavefront(CompLoop::Inside, 4);
    let applied: Vec<(&str, f64)> = [
        ("series_nt4 [elide-barriers,fuse-phases]", series_nt, 4, "elide-barriers,fuse-phases"),
        ("fuse_cli [cross-box-fuse:4]", fuse_cli, 1, "cross-box-fuse:4"),
        ("bwf_cli4 [elide-barriers]", bwf, 2, "elide-barriers"),
        ("bwf_cli4 [rechunk:6]", bwf, 2, "rechunk:6"),
    ]
    .into_iter()
    .map(|(label, v, threads, spec)| {
        let pipe = Pipeline::parse(spec).expect("pinned pass spec parses");
        let secs = per_call(5, 200, || {
            pipe.apply(lower(v, IntVect::splat(32), threads)).expect("pinned pipeline applies")
        });
        (label, 1e6 * secs)
    })
    .collect();
    let v = rows(out, "plan.apply_verify_us", "us", &applied);
    out.put("plan.apply_verify_us", v);

    black_box(plan::plan_for(Variant::baseline(), size, ctx.threads));
    let hit = per_call(5, 20_000, || plan::plan_for(Variant::baseline(), size, ctx.threads));
    out.put("plan.cache_hit_ns", 1e9 * hit);
    ctx.tracer.end(span, 0);
}

/// One `point` span per named variant — `plan.lower` → `interp.emit` →
/// `traffic.measure` — then the same point through the symbolic and the
/// parallel engine, asserted bit-identical.
fn points_and_engines(ctx: &Ctx, out: &mut Layers) {
    let cfg = stress_hierarchy();
    let (mut emit, mut native, mut sim, mut sym, mut par, mut balance) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut claimed, mut dram_sum) = (0usize, 0u64);
    for (name, variant) in gen::named_variants() {
        let point = ctx.tracer.begin(0, "point", "point");
        let (plan, _) = ctx
            .tracer
            .time(point, "plan.lower", "core::plan", 1, || lower(variant, IntVect::splat(N), 1));
        let (mut phi0, mut phi1, cells) = pdesched_bench::box_pair(N, 97);
        let tally = Tally::default();
        let (_, secs) = ctx.tracer.time(point, "interp.emit", "core::plan::interp", 1, || {
            plan::execute(&plan, &phi0, &mut phi1, cells, &tally);
        });
        let emitted = tally.reads.load(Ordering::Relaxed) + tally.writes.load(Ordering::Relaxed);
        emit.push((name, 1e9 * secs / emitted as f64));

        let (t, secs) = ctx.tracer.time(point, "traffic.measure", "machine::traffic", 1, || {
            measure_box_traffic(variant, N, &cfg)
        });
        // Two boxes per call at n = 64 (`box_reps`); the counters are per box.
        let accesses = 2.0 * (t.reads + t.writes) as f64;
        sim.push((name, 1e9 * secs / accesses));
        dram_sum += t.dram_bytes;
        ctx.tracer.end(point, accesses as u64);

        let (ts, secs) = ctx.tracer.time(0, "symbolic.measure", "machine::symbolic", 1, || {
            measure_box_traffic_symbolic(variant, N, &cfg)
        });
        sym.push((name, 1e9 * secs / accesses));
        claimed += symbolic::analyze(variant, N).fully_claimed() as usize;
        let ((tp, ps), secs) =
            ctx.tracer.time(0, "parallel.measure", "machine::parallel", 1, || {
                measure_box_traffic_parallel(variant, N, &cfg, ctx.threads)
            });
        par.push((name, 1e9 * secs / accesses));
        balance.push((name, ps.balance()));
        out.check(t == ts && t == tp, &format!("{name}: the three traffic engines disagree"));
        out.check(emitted == t.reads + t.writes, &format!("{name}: emitted accesses != simulated"));

        // The same schedule for real (no tracing), T threads inside the
        // box where the schedule allows it.
        let within = Variant { gran: Granularity::WithinBox, ..variant };
        let v = if within.valid_for_box(N) { within } else { variant };
        phi0.fill_synthetic(98);
        let secs = per_call(3, 1, || {
            pdesched_core::run_box(v, &phi0, &mut phi1, cells, ctx.threads, &NoMem)
        });
        native.push((name, 1e9 * secs / (N as f64).powi(3)));
    }
    let n = gen::named_variants().len() as f64;
    for (metric, unit, per) in [
        ("interp.emit_ns_per_access", "ns", &emit),
        ("interp.native_ns_per_cell", "ns", &native),
        ("traffic.sim_ns_per_access", "ns", &sim),
        ("symbolic.ns_per_access", "ns", &sym),
        ("parallel.ns_per_access", "ns", &par),
        ("parallel.shard_balance", "ratio", &balance),
    ] {
        let v = rows(out, metric, unit, per);
        out.put(metric, v);
    }
    out.put("symbolic.claimed_share", claimed as f64 / n);
    out.put("traffic.dram_bytes_sum", dram_sum as f64);
}

/// `cachesim`: a stream that always hits L1, and one that always goes
/// to DRAM (asserted: one line fetched per access).
fn cachesim_layer(ctx: &Ctx, out: &mut Layers) {
    let cfg = stress_hierarchy();
    let span = ctx.tracer.begin(0, "cachesim", "cachesim");
    // Hits: 8-byte reads over half of L1, again and again.
    let words = cfg[0].size / 2 / 8;
    let mut h = Hierarchy::new(&cfg);
    let sweep = |h: &mut Hierarchy| {
        for w in 0..words {
            h.read(black_box(w * 8));
        }
    };
    sweep(&mut h);
    let before = h.stats().dram_lines_read;
    let secs = per_call(5, 400, || sweep(&mut h));
    out.check(h.stats().dram_lines_read == before, "cachesim hit stream reached DRAM");
    out.put("cachesim.hit_ns", 1e9 * secs / words as f64);

    // Misses: one read per line over four times the LLC, cyclically, so
    // LRU has always evicted a line before it comes round again.
    let lines = 4 * cfg[1].size / 64;
    let mut h = Hierarchy::new(&cfg);
    let (samples, reps) = (5, 40);
    let secs = per_call(samples, reps, || {
        for l in 0..lines {
            h.read(black_box(l * 64));
        }
    });
    let accesses = (samples * reps * lines) as u64;
    out.check(h.stats().dram_lines_read == accesses, "cachesim miss stream hit a cache");
    out.put("cachesim.miss_ns", 1e9 * secs / lines as f64);
    ctx.tracer.end(span, accesses);
}

/// `machine::engine` and `machine::figures` on the 16 points of
/// `fig2 --fast`: each point alone (the serial reference time), the
/// pool's prewarm untraced and traced, then figure generation and
/// rendering from the warm cache.
fn sweep_engine_and_figures(ctx: &Ctx, out: &mut Layers) {
    let spec = MachineSpec::evaluation_nodes().remove(0);
    let mut points: Vec<SimPoint> = Vec::new();
    for p in figures::figure234_points(&spec, N) {
        if !points.contains(&p) {
            points.push(p);
        }
    }
    let serial = ctx.tracer.begin(0, "engine.serial_points", "machine::engine");
    let mut serial_secs = 0.0;
    for p in &points {
        let (_, secs) = ctx.tracer.time(serial, "traffic.measure", "machine::traffic", 1, || {
            measure_box_traffic(p.variant, p.n, &p.configs)
        });
        serial_secs += secs;
    }
    ctx.tracer.end(serial, points.len() as u64);

    // The replay of `figs_cold` in-process: store-backed cache, pool of
    // T, figure, render.
    let replay = |tracer: &Tracer, tag: &str| {
        let store = ctx.scratch.join(format!("engine-{tag}.txt"));
        let t0 = Instant::now();
        let pass = tracer.begin(0, "figs_cold.replay", "replay");
        let cache = TrafficCache::with_store(&store);
        let engine = SweepEngine::new(ctx.threads).with_heartbeat(None);
        let (report, prewarm) = tracer.time(pass, "engine.prewarm", "machine::engine", 16, || {
            engine.prewarm(&cache, &points)
        });
        let (fig, _) = tracer.time(pass, "figures.generate", "machine::figures", 1, || {
            figures::figure234_sized(&spec, &cache, "fig2", N)
        });
        let (text, _) = tracer
            .time(pass, "figures.render", "render", 1, || pdesched_bench::render_figure(&fig));
        tracer.end(pass, 1);
        (t0.elapsed().as_secs_f64(), prewarm, report.measured, text, cache, fig)
    };
    let untraced = Tracer::new(false);
    let (plain_secs, prewarm, measured, text, cache, fig) = replay(&untraced, "plain");
    out.check(measured == points.len(), "engine.prewarm did not measure all 16 points");
    out.check(
        text.as_bytes() == ctx.goldens.figs_stdout,
        "in-process fig2 differs from golden/figs_fast.txt",
    );
    out.put("engine.prewarm_points_per_s", points.len() as f64 / prewarm);
    out.put("engine.parallel_efficiency", serial_secs / (ctx.threads as f64 * prewarm));
    let generate = per_call(5, 1, || figures::figure234_sized(&spec, &cache, "fig2", N));
    out.put("figures.generate_ms", 1e3 * generate);
    out.put("figures.render_ms", 1e3 * per_call(5, 20, || pdesched_bench::render_figure(&fig)));
    drop(cache);
    let before = ctx.tracer.spans().len();
    let (traced_secs, ..) = replay(ctx.tracer, "traced");
    let recorded = ctx.tracer.spans().len() - before;
    // What the spans cost the traced replay. Two 4 s replays of the same
    // work differ by several percent either way, tracing or not, so the
    // difference of a traced and an untraced one only measures the host;
    // what resolves is the recorder itself, switched on and off around
    // an empty closure, times the spans the replay recorded.
    let recorder = Tracer::new(true);
    let span_secs = |t: &Tracer| per_call(5, 2000, || t.time(0, "span", "harness", 0, || ()));
    let per_span = (span_secs(&recorder) - span_secs(&untraced)).max(0.0);
    out.put("trace.overhead_share", recorded as f64 * per_span / traced_secs);
    out.rows.push(VariantRow {
        metric: "trace.overhead_share",
        variant: "traced / untraced replay - 1 (one pair: host noise)".to_string(),
        value: traced_secs / plain_secs - 1.0,
        unit: "share",
    });
}

/// The store half of `machine::traffic`, at 5,000 entries.
fn store_layer(ctx: &Ctx, out: &mut Layers) {
    let span = ctx.tracer.begin(0, "store", "machine::traffic(store)");
    let path = ctx.scratch.join("layer-store.txt");
    let mut cfgs = gen::filler_configs(ctx.seed, gen::FILLER_ENTRIES + 8);
    let extra = cfgs.split_off(gen::FILLER_ENTRIES);
    let point = Variant::baseline();
    // An append is what a cold `get` costs on a store-backed cache beyond
    // the same `get` on an in-memory one. The two are timed in turns,
    // 500 distinct keys a turn, and the median of the ten differences
    // taken: one difference of two 5,000-key fills came out negative.
    const TURN: usize = 500;
    let fill = |cache: &TrafficCache, turn: &[Vec<CacheConfig>]| {
        let t0 = Instant::now();
        for cfg in turn {
            cache.get(point, gen::FILLER_N, cfg);
        }
        t0.elapsed().as_secs_f64()
    };
    let (backed, in_memory) = (TrafficCache::with_store(&path), TrafficCache::new());
    let appends: Vec<f64> = cfgs
        .chunks(TURN)
        .map(|turn| {
            let (stored, _) = ctx.tracer.time(
                span,
                "store.append",
                "machine::traffic(store)",
                turn.len() as u64,
                || fill(&backed, turn),
            );
            1e6 * (stored - fill(&in_memory, turn)) / turn.len() as f64
        })
        .collect();
    out.put("store.append_us", median(&appends));
    drop(backed);

    let load = per_call(5, 1, || TrafficCache::with_store(&path).len());
    out.put("store.load_ms", 1e3 * load);
    let open = per_call(5, 1, || StoreReader::open(&path).view().len());
    out.put("store.snapshot_open_ms", 1e3 * open);

    let writer = TrafficCache::with_store(&path);
    let reader = StoreReader::open(&path);
    out.check(reader.view().len() == cfgs.len(), "snapshot does not hold the 5,000 entries");
    out.put("store.refresh_unchanged_us", 1e6 * per_call(5, 1000, || reader.refresh().generation));
    let mut changed = Vec::new();
    for cfg in &extra[..5] {
        writer.get(point, gen::FILLER_N, cfg);
        let (view, secs) =
            ctx.tracer.time(span, "store.refresh_changed", "machine::traffic(store)", 1, || {
                reader.refresh()
            });
        out.check(
            view.get(&store_key(point, gen::FILLER_N, cfg)).is_some(),
            "refresh missed an append",
        );
        changed.push(1e3 * secs);
    }
    out.put("store.refresh_changed_ms", median(&changed));

    let keys: Vec<String> = cfgs.iter().map(|c| store_key(point, gen::FILLER_N, c)).collect();
    let view = reader.view();
    let get = per_call(5, 4, || keys.iter().filter(|k| view.get(k).is_some()).count());
    out.put("store.view_get_ns", 1e9 * get / keys.len() as f64);
    let (compact, _) = ctx.tracer.time(span, "store.compact", "machine::traffic(store)", 3, || {
        per_call(3, 1, || writer.compact_store())
    });
    out.put("store.compact_ms", 1e3 * compact);
    ctx.tracer.end(span, 0);
}

/// `machine::sweep`, `model`, `analytic`: what a warm `serve` reply
/// computes besides the lookup.
fn model_layers(ctx: &Ctx, out: &mut Layers) {
    let plain: Vec<Request> =
        gen::warm_requests().into_iter().filter(|r| r.passes.is_empty()).collect();
    let mut rank = Vec::new();
    for req in &plain {
        let spec = gen::machine_spec(req.machine);
        let (ranked, secs) = ctx.tracer.time(0, "sweep.rank_all", "machine::sweep", 1, || {
            sweep::rank_all_at(&spec, req.n, req.threads)
        });
        black_box(ranked);
        rank.push(1e6 * secs);
    }
    out.put("sweep.rank_all_us", median(&rank));

    let spec = MachineSpec::i5_desktop();
    let wl = Workload::paper(16);
    let share = prediction_hierarchy(&spec, 4)[2].size as u64;
    let variants: Vec<Variant> = gen::named_variants().into_iter().map(|(_, v)| v).collect();
    let predict = per_call(5, 2000, || {
        variants
            .iter()
            .map(|&v| predict_time_with_traffic(&spec, v, wl, 4, black_box(1 << 20)).seconds)
            .sum::<f64>()
    });
    out.put("model.predict_ns", 1e9 * predict / variants.len() as f64);
    let traffic = per_call(5, 2000, || {
        variants
            .iter()
            .map(|&v| analytic::analytic_box_traffic(v, black_box(16), share))
            .sum::<u64>()
    });
    out.put("analytic.box_traffic_ns", 1e9 * traffic / variants.len() as f64);
}

/// `machine::serve`, in-process, seen from the client side.
fn serve_layer(ctx: &Ctx, out: &mut Layers) {
    let span = ctx.tracer.begin(0, "serve", "machine::serve");
    let store = ctx.scratch.join("layer-serve.txt");
    let server = Server::start(ServeConfig {
        store: Some(store.clone()),
        engine_threads: ctx.threads,
        ..Default::default()
    })
    .expect("bind an ephemeral loopback port");
    let port = server.local_addr().port();
    let requests: Vec<Request> =
        gen::warm_requests().into_iter().filter(|r| r.n == 8 && r.passes.is_empty()).collect();

    // A used connection: every n = 8 request once (cold), reply sizes.
    let mut used = Conn::open(port).expect("connect");
    let mut bytes = Vec::new();
    for req in &requests {
        let x = used.ask(&req.line()).expect("ask");
        out.checks.op(check_reply(ctx.goldens, &req.line(), &x.reply, None));
        bytes.push(x.reply.len() as f64 + 1.0);
    }
    out.put("serve.response_bytes", bytes.iter().sum::<f64>() / bytes.len() as f64);

    // Fresh connections: connect, and the first (warm) reply on each.
    let (mut connect, mut first) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let mut conn = Conn::open(port).expect("connect");
        connect.push(conn.connect_ms);
        let x = conn.ask(&requests[0].line()).expect("ask");
        out.checks.op(check_reply(ctx.goldens, &requests[0].line(), &x.reply, Some("warm")));
        record_exchange(ctx.tracer, span, &x);
        first.push(x.ms());
    }
    out.put("serve.connect_ms", median(&connect));
    out.put("serve.first_reply_ms", median(&first));

    // The wire floor: the cheapest possible round trip (a request the
    // server rejects while parsing) on a connection that is in use.
    let floor: Vec<f64> = (0..20)
        .map(|_| {
            let x = used.ask("garbage").expect("ask");
            record_exchange(ctx.tracer, span, &x);
            x.ms()
        })
        .collect();
    out.put("serve.wire_floor_ms", median(&floor));

    // A herd: T clients ask for the same cold point at once; one flight
    // simulates, the others coalesce onto it.
    let herd = Request { machine: "i5", n: 16, threads: 4, top: 1, passes: "" };
    let before = server.stats().coalesced;
    let gate = std::sync::Barrier::new(ctx.threads);
    let failures: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..ctx.threads)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = Conn::open(port).expect("connect");
                    gate.wait();
                    let x = conn.ask(&herd.line()).expect("ask");
                    !x.reply.contains("\"ok\":true") as usize
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("herd client")).sum()
    });
    out.check(failures == 0, "a herd client was not answered");
    let coalesced = (server.stats().coalesced - before) as f64 / ctx.threads as f64;
    out.put("serve.coalesced_share", coalesced);

    drop(used);
    let (_, drain) = ctx.tracer.time(span, "serve.drain", "machine::serve", 1, || server.drain());
    out.put("serve.drain_ms", 1e3 * drain);
    drop(server);
    let keys = gen::distinct_keys(requests.iter().chain([&herd]));
    out.put("serve.sims_per_key", entry_count(&store) as f64 / keys as f64);
    ctx.tracer.end(span, 0);
}

/// `par`: what a region and a barrier cost at T threads.
fn par_layer(ctx: &Ctx, out: &mut Layers) {
    let span = ctx.tracer.begin(0, "par", "par");
    // Lower quartiles: with T threads on T cores one descheduled thread
    // turns a microsecond barrier into a time slice. (They do not remove
    // the two placements the guest scheduler chooses between for seconds
    // at a time — README, *Noise*: pool threads on one core, region ~8 us
    // and barrier ~70 us; on two, region ~45 us and barrier ~0.7 us.)
    let pool = SpmdPool::new(ctx.threads);
    let region = per_call_q(0.25, 12, 200, || pool.run(|_| {}));
    out.put("par.region_us", 1e6 * region);
    const BARRIERS: usize = 500;
    let with_barriers = per_call_q(0.25, 12, 1, || {
        pool.run(|c| {
            for _ in 0..BARRIERS {
                c.barrier();
            }
        })
    });
    out.put("par.barrier_ns", 1e9 * (with_barriers - region).max(0.0) / BARRIERS as f64);
    ctx.tracer.end(span, 0);
}
