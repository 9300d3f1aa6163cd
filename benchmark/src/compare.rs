//! `--compare A.json B.json`: two `--runs K --out FILE` sets side by
//! side. One row per (end-to-end metric, workload): both medians, both
//! run-to-run spreads (IQR / median, the driver's formula) and a
//! verdict — `regressed` when B's median is worse than A's by more than
//! the metric's bound, `unresolved` when either spread is wider than
//! the bound (the comparison then proves nothing), else `ok`. Layer
//! metrics are listed without a verdict, except the exact counts, which
//! must agree. A set in which a run found a torn store append (README
//! finding 5) is refused: the program left a corrupt store behind, and
//! no table of timings should read `ok` over that.

use crate::contract::{self, END_TO_END, EXACT_COUNTS, PER_LAYER, WORKLOADS};
use crate::json::{self, Value};
use crate::stats::{iqr_share, median_interp};
use std::collections::BTreeMap;

/// `(workload, metric) -> values in run order`, split by `trace`.
type Table = BTreeMap<(String, String), Vec<f64>>;

/// One `--runs K --out FILE` set: end-to-end values, layer values, how
/// many store appends its runs found torn, and the steal share (%) of
/// each untraced run's timed phase.
struct Set {
    e2e: Table,
    layers: Table,
    torn_appends: f64,
    steal_pct: Vec<f64>,
}

fn load(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_set(path, &text)
}

fn parse_set(path: &str, text: &str) -> Result<Set, String> {
    let doc = json::parse(text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc.get("runs").and_then(Value::as_arr).ok_or(format!("{path}: no \"runs\""))?;
    let (mut e2e, mut layers, mut torn_appends) = (Table::new(), Table::new(), 0.0);
    let mut steal_pct = Vec::new();
    for run in runs {
        torn_appends += run.get("torn_appends").and_then(Value::as_f64).unwrap_or(0.0);
        if run.get("trace").and_then(Value::as_f64) == Some(0.0) {
            steal_pct.extend(run.get("steal_pct").and_then(Value::as_f64));
        }
        let workload = run.get("workload").and_then(Value::as_str).unwrap_or("?").to_string();
        let traced = run.get("trace").and_then(Value::as_f64) == Some(1.0);
        let Some(Value::Obj(metrics)) = run.get("result").and_then(|r| r.get("metrics")) else {
            continue;
        };
        for (name, m) in metrics {
            let Some(v) = m.get("value").and_then(Value::as_f64) else { continue };
            // Only the replay's view depends on the workload a traced
            // pass was asked for; the layer timings are one population.
            let of_replay = name.starts_with("client.") || name == "proc.cpu_ms_per_op";
            let (table, row) = match (traced, of_replay) {
                (false, _) => (&mut e2e, workload.clone()),
                (true, true) => (&mut layers, workload.clone()),
                (true, false) => (&mut layers, "layers".to_string()),
            };
            table.entry((row, name.clone())).or_default().push(v);
        }
    }
    Ok(Set { e2e, layers, torn_appends, steal_pct })
}

pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// The rule of one row. `better` is `"lower"` or `"higher"`.
pub fn verdict(a: &[f64], b: &[f64], better: &str, bound: f64) -> Verdict {
    let wide = |v: &[f64]| iqr_share(v).is_some_and(|s| s > bound);
    let (ma, mb) = (median_interp(a), median_interp(b));
    let worse = if better == "lower" { (mb - ma) / ma } else { (ma - mb) / ma };
    if worse > bound {
        Verdict::Regressed
    } else if wide(a) || wide(b) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Print the comparison; `Ok(true)` when every row is `ok` and every
/// exact count agrees.
pub fn run(a_path: &str, b_path: &str, benchmark_json: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let (a_e2e, a_layers, b_e2e, b_layers) = (&a.e2e, &a.layers, &b.e2e, &b.layers);
    let bounds: BTreeMap<String, f64> = contract::bounds(benchmark_json)?.into_iter().collect();
    let mut clean = true;
    let pct = |v: Option<f64>| v.map_or("    n/a".to_string(), |s| format!("{:6.2}%", 100.0 * s));
    println!("A = {a_path}\nB = {b_path}");
    println!(
        "{:<12} {:<12} {:>12} {:>12} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "B/A", "spread A", "spread B"
    );
    for workload in WORKLOADS {
        for (metric, _unit, better) in END_TO_END {
            let key = (workload.to_string(), metric.to_string());
            let (Some(a), Some(b)) = (a_e2e.get(&key), b_e2e.get(&key)) else {
                println!("{workload:<12} {metric:<12} missing from one set");
                clean = false;
                continue;
            };
            let bound = bounds.get(metric).copied().unwrap_or(0.10);
            let word = match verdict(a, b, better, bound) {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            };
            clean &= word == "ok";
            let (ma, mb) = (median_interp(a), median_interp(b));
            println!(
                "{workload:<12} {metric:<12} {ma:>12.4} {mb:>12.4} {:>8.3} {:>8} {:>8}  {word} \
                 (bound {bound}, n={}/{})",
                mb / ma,
                pct(iqr_share(a)),
                pct(iqr_share(b)),
                a.len(),
                b.len()
            );
        }
    }
    // Where an `unresolved` comes from, as far as the guest can see it.
    for (name, set) in [("A", &a), ("B", &b)] {
        if !set.steal_pct.is_empty() {
            let s = crate::stats::sorted(&set.steal_pct);
            println!(
                "steal share of the timed phases, {name}: median {:.2}%, max {:.2}%, {} of {} runs \
                 above 2%",
                median_interp(&s),
                s[s.len() - 1],
                s.iter().filter(|&&p| p > 2.0).count(),
                s.len()
            );
        }
    }
    println!("\ntorn store appends (must be 0): A {}, B {}", a.torn_appends, b.torn_appends);
    clean &= a.torn_appends == 0.0 && b.torn_appends == 0.0;
    println!("\nlayer metrics (traced pass; never gated, exact counts must agree):");
    for ((workload, metric), a) in a_layers {
        let Some(b) = b_layers.get(&(workload.clone(), metric.clone())) else { continue };
        let unit = PER_LAYER.iter().find(|(d, _)| d.0 == metric.as_str()).map_or("", |(d, _)| d.1);
        let (ma, mb) = (median_interp(a), median_interp(b));
        let exact = EXACT_COUNTS.contains(&metric.as_str());
        let note = match (exact, ma == mb) {
            (true, true) => "  exact count agrees",
            (true, false) => {
                clean = false;
                "  EXACT COUNT DIFFERS"
            }
            _ => "",
        };
        // (A share of 1e-7 must not print as 0.0000.)
        let show = |v: f64| if v.abs() >= 1e-3 { format!("{v:.4}") } else { format!("{v:.3e}") };
        println!("{workload:<12} {metric:<28} {:>16} {:>16} {unit:<6}{note}", show(ma), show(mb));
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_rules() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [112.0, 113.0, 111.0, 112.5, 111.5];
        let noisy = [80.0, 100.0, 120.0, 90.0, 115.0];
        assert!(matches!(verdict(&steady, &steady, "lower", 0.1), Verdict::Ok));
        assert!(matches!(verdict(&steady, &slower, "lower", 0.1), Verdict::Regressed));
        // Slower is better for nobody, but a higher-is-better metric
        // going up is no regression.
        assert!(matches!(verdict(&steady, &slower, "higher", 0.1), Verdict::Ok));
        assert!(matches!(verdict(&slower, &steady, "higher", 0.1), Verdict::Regressed));
        assert!(matches!(verdict(&steady, &noisy, "lower", 0.1), Verdict::Unresolved));
    }

    #[test]
    fn a_set_remembers_its_torn_appends() {
        let run = |torn: u32| {
            format!(
                "{{\"workload\": \"figs_cold\", \"seed\": 1, \"trace\": 0, \
                 \"torn_appends\": {torn}, \"result\": {{\"metrics\": \
                 {{\"p25_ms\": {{\"value\": 4000.5, \"unit\": \"ms\"}}}}}}}}"
            )
        };
        let doc = format!("{{\"host\": \"h\", \"runs\": [{}, {}]}}", run(0), run(2));
        let set = parse_set("inline", &doc).unwrap();
        assert_eq!(set.torn_appends, 2.0);
        assert!(set.steal_pct.is_empty());
        assert_eq!(set.e2e[&("figs_cold".to_string(), "p25_ms".to_string())], [4000.5, 4000.5]);
        assert!(set.layers.is_empty());
    }
}
