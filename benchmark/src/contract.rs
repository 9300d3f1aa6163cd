//! The benchmark's contract: workload names, metric names, units and
//! directions. `BENCHMARK.json` states them for the driver; this table
//! states them for the harness; [`check`] refuses to run when the two
//! disagree, so neither can drift alone.

use crate::json::{self, Value};

pub const WORKLOADS: [&str; 4] = ["figs_cold", "figs_warm", "serve_warm", "serve_cold"];

/// `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

pub const END_TO_END: [MetricDef; 4] = [
    ("setup_s", "s", "lower"),
    ("p25_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

/// One measured metric, as it is printed and as it goes into the result
/// object and `trace.json`.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Per-layer metrics with the value DESIGN.md derives for them, where it
/// derives one (`""` otherwise); printed side by side.
pub const PER_LAYER: [(MetricDef, &str); 42] = [
    (("plan.lower_us", "us", "lower"), ""),
    (("plan.apply_verify_us", "us", "lower"), ""),
    (("plan.cache_hit_ns", "ns", "lower"), ""),
    (("interp.emit_ns_per_access", "ns", "lower"), "~2.1 ns compute+dispatch floor (DESIGN 9)"),
    (("interp.native_ns_per_cell", "ns", "lower"), ""),
    (("cachesim.hit_ns", "ns", "lower"), "~2 ns hot-path hit (DESIGN 9)"),
    (("cachesim.miss_ns", "ns", "lower"), "~57 ns miss machinery (DESIGN 9)"),
    (("traffic.sim_ns_per_access", "ns", "lower"), "~7 ns per access (DESIGN 11)"),
    (("symbolic.ns_per_access", "ns", "lower"), "0.7-1.0x the simulator (DESIGN 11)"),
    (("symbolic.claimed_share", "share", "higher"), "0.75: bwf_cli4 falls back (DESIGN 11)"),
    (("parallel.ns_per_access", "ns", "lower"), "above serial below T cores (DESIGN 13)"),
    (("parallel.shard_balance", "ratio", "higher"), "~K shards (DESIGN 13)"),
    (("traffic.dram_bytes_sum", "B", "lower"), "exact; identical on every run"),
    (("engine.prewarm_points_per_s", "1/s", "higher"), ""),
    (("engine.parallel_efficiency", "share", "higher"), "1.0 = perfect scaling on T cores"),
    (("store.load_ms", "ms", "lower"), ""),
    (("store.snapshot_open_ms", "ms", "lower"), ""),
    (("store.refresh_unchanged_us", "us", "lower"), "one stat(2) (DESIGN 15)"),
    (("store.refresh_changed_ms", "ms", "lower"), "~ store.snapshot_open_ms"),
    (("store.view_get_ns", "ns", "lower"), ""),
    (("store.compact_ms", "ms", "lower"), ""),
    (("store.append_us", "us", "lower"), ""),
    (("sweep.rank_all_us", "us", "lower"), ""),
    (("model.predict_ns", "ns", "lower"), ""),
    (("analytic.box_traffic_ns", "ns", "lower"), ""),
    (("figures.generate_ms", "ms", "lower"), ""),
    (("figures.render_ms", "ms", "lower"), ""),
    (("serve.connect_ms", "ms", "lower"), ""),
    (("serve.first_reply_ms", "ms", "lower"), "no delayed ACK yet: << wire floor"),
    (("serve.wire_floor_ms", "ms", "lower"), "~44 ms: Nagle + delayed ACK (README finding)"),
    (("serve.coalesced_share", "share", "higher"), "1 - 1/T (DESIGN 15)"),
    (("serve.sims_per_key", "count", "lower"), "exactly 1 (DESIGN 15)"),
    (("serve.response_bytes", "B", "lower"), ""),
    (("serve.drain_ms", "ms", "lower"), ""),
    (("par.region_us", "us", "lower"), ""),
    (("par.barrier_ns", "ns", "lower"), ""),
    (("proc.start_ms", "ms", "lower"), ""),
    (("proc.cpu_ms_per_op", "ms", "lower"), ""),
    (("client.p50_ms", "ms", "lower"), ""),
    (("client.p95_ms", "ms", "lower"), ""),
    (("client.wait_share", "share", "lower"), ""),
    (("trace.overhead_share", "share", "lower"), "~0: spans wrap whole layer calls"),
];

/// Layer metrics that are exact counts: `--compare` fails when two sets
/// of runs disagree on one.
pub const EXACT_COUNTS: [&str; 2] = ["traffic.dram_bytes_sum", "serve.sims_per_key"];

/// A [`MetricDef`] read from `BENCHMARK.json`.
type OwnedDef = (String, String, String);

fn defs(v: &Value, key: &str) -> Result<Vec<OwnedDef>, String> {
    let field = |e: &Value, f: &str| {
        e.get(f).and_then(Value::as_str).map(str::to_string).ok_or(format!("{key}: missing {f}"))
    };
    v.get(key)
        .and_then(Value::as_arr)
        .ok_or(format!("BENCHMARK.json: no array \"{key}\""))?
        .iter()
        .map(|e| Ok((field(e, "name")?, field(e, "unit")?, field(e, "better")?)))
        .collect()
}

/// Compare `BENCHMARK.json` with the tables above: workload names,
/// metric names, units and directions, in order.
pub fn check(benchmark_json: &str) -> Result<(), String> {
    let v = json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names: Vec<String> = v
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no array \"workloads\"")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
        .collect();
    if names != WORKLOADS {
        return Err(format!("workloads differ: BENCHMARK.json {names:?}, harness {WORKLOADS:?}"));
    }
    let own = |d: &MetricDef| (d.0.to_string(), d.1.to_string(), d.2.to_string());
    let tables: [(&str, Vec<OwnedDef>); 2] = [
        ("end_to_end", END_TO_END.iter().map(own).collect()),
        ("per_layer", PER_LAYER.iter().map(|(d, _)| own(d)).collect()),
    ];
    for (key, mine) in tables {
        let theirs = defs(&v, key)?;
        if let Some(i) = (0..mine.len().max(theirs.len())).find(|&i| mine.get(i) != theirs.get(i)) {
            return Err(format!(
                "{key}[{i}] differs: BENCHMARK.json {:?}, harness {:?}",
                theirs.get(i),
                mine.get(i)
            ));
        }
    }
    Ok(())
}

/// The `bound` of an end-to-end metric as `BENCHMARK.json` fixes it.
pub fn bounds(benchmark_json: &str) -> Result<Vec<(String, f64)>, String> {
    let v = json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    v.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no array \"end_to_end\"")?
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Value::as_str).ok_or("end_to_end: missing name")?;
            let bound =
                e.get("bound").and_then(Value::as_f64).ok_or("end_to_end: missing bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> String {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repo root")
    }

    #[test]
    fn committed_benchmark_json_agrees_with_the_harness() {
        check(&committed()).unwrap();
        assert_eq!(bounds(&committed()).unwrap().len(), END_TO_END.len());
    }

    #[test]
    fn refuses_a_renamed_workload_metric_or_unit() {
        let good = committed();
        for (from, to) in [
            ("\"figs_warm\"", "\"figs_hot\""),
            ("\"p25_ms\"", "\"p50_ms\""),
            (
                "\"unit\": \"1/s\", \"better\": \"higher\", \"bound\"",
                "\"unit\": \"ops/s\", \"better\": \"higher\", \"bound\"",
            ),
            ("\"cachesim.miss_ns\", \"unit\": \"ns\"", "\"cachesim.miss_ns\", \"unit\": \"us\""),
        ] {
            assert!(good.contains(from), "fixture drifted: {from}");
            let err = check(&good.replacen(from, to, 1)).unwrap_err();
            assert!(err.contains("differ"), "{err}");
        }
    }
}
