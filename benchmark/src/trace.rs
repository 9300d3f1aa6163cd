//! The span recorder of the traced pass (`--trace 1`).
//!
//! Spans are recorded from the harness's side of each call into a layer
//! — the program under test is not instrumented — kept in memory, and
//! written to `benchmark/out/trace.json` when the run ends. End-to-end
//! metrics are never measured with a recorder switched on: a disabled
//! [`Tracer`] still times the closure it wraps (the layer metrics are
//! those durations) but stores nothing.

use crate::contract::Metric;
use crate::json::{num, quote};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    /// 1-based; `parent == 0` means a root span.
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub layer: &'static str,
    pub workload: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span (accesses, entries, bytes… per `name`).
    pub count: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: Mutex<(&'static str, Vec<Span>)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), state: Mutex::new(("", Vec::new())) }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, (&'static str, Vec<Span>)> {
        // A panicking client thread must not hide the spans recorded so far.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Label every span begun from now on with `workload`.
    pub fn set_workload(&self, workload: &'static str) {
        self.lock().0 = workload;
    }

    /// Open a span; returns its id (0 when recording is off).
    pub fn begin(&self, parent: u32, name: &'static str, layer: &'static str) -> u32 {
        if !self.enabled {
            return 0;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let mut st = self.lock();
        let id = st.1.len() as u32 + 1;
        let workload = st.0;
        st.1.push(Span { id, parent, name, layer, workload, start_ns: now, end_ns: now, count: 0 });
        id
    }

    pub fn end(&self, id: u32, count: u64) {
        if id == 0 {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let mut st = self.lock();
        let span = &mut st.1[id as usize - 1];
        span.end_ns = now;
        span.count = count;
    }

    /// Record a span whose endpoints were measured by the caller (the
    /// client loop takes its own timestamps either way).
    pub fn record(
        &self,
        parent: u32,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        end: Instant,
        count: u64,
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let mut st = self.lock();
        let id = st.1.len() as u32 + 1;
        let workload = st.0;
        st.1.push(Span {
            id,
            parent,
            name,
            layer,
            workload,
            start_ns: ns(start),
            end_ns: ns(end),
            count,
        });
        id
    }

    /// Time `f` as one span; returns its result and its seconds.
    pub fn time<R>(
        &self,
        parent: u32,
        name: &'static str,
        layer: &'static str,
        count: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.begin(parent, name, layer);
        let t0 = Instant::now();
        let r = f();
        let secs = t0.elapsed().as_secs_f64();
        self.end(id, count);
        (r, secs)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().1.clone()
    }
}

/// Self time per (workload, layer): each span's duration minus the part
/// of it its children cover (children of one span may overlap — T
/// clients under one pass — so the covered part is a union), summed;
/// plus the span count. One derived row per workload that has `point`
/// spans: `cachesim` = Σ `traffic.measure` − Σ `interp.emit`, because
/// the simulator runs inside `measure_box_traffic` interleaved with the
/// emission and cannot be wrapped from outside.
pub fn self_times(spans: &[Span]) -> BTreeMap<(&'static str, String), (u64, u64)> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<(&'static str, String), (u64, u64)> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let e = out.entry((s.workload, s.layer.to_string())).or_default();
        e.0 += (s.end_ns - s.start_ns).saturating_sub(covered);
        e.1 += 1;
    }
    let mut derived: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let d = derived.entry(s.workload).or_default();
        match s.name {
            "traffic.measure" => {
                d.0 += s.end_ns - s.start_ns;
                d.2 += 1;
            }
            "interp.emit" => d.1 += s.end_ns - s.start_ns,
            _ => {}
        }
    }
    for (workload, (measure, emit, n)) in derived {
        if n > 0 {
            out.insert(
                (workload, "cachesim (derived: traffic.measure - interp.emit)".to_string()),
                (measure.saturating_sub(emit), n),
            );
        }
    }
    out
}

/// One per-variant row behind a geometric-mean metric.
pub struct VariantRow {
    pub metric: &'static str,
    pub variant: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Render `trace.json`.
pub fn render(host: &str, spans: &[Span], rows: &[VariantRow], metrics: &[Metric]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("\"host\": {},\n", quote(host)));
    out.push_str("\"metrics\": {");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        out.push_str(&format!(
            "{sep}  {}: {{\"value\": {}, \"unit\": {}}}",
            quote(m.name),
            num(m.value),
            quote(m.unit)
        ));
    }
    out.push_str("\n},\n\"per_variant\": [");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        out.push_str(&format!(
            "{sep}  {{\"metric\": {}, \"variant\": {}, \"value\": {}, \"unit\": {}}}",
            quote(r.metric),
            quote(&r.variant),
            num(r.value),
            quote(r.unit)
        ));
    }
    out.push_str("\n],\n\"self_time\": [");
    for (i, ((workload, layer), (ns, n))) in self_times(spans).iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        out.push_str(&format!(
            "{sep}  {{\"workload\": {}, \"layer\": {}, \"self_ns\": {ns}, \"spans\": {n}}}",
            quote(workload),
            quote(layer)
        ));
    }
    out.push_str("\n],\n\"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        out.push_str(&format!(
            "{sep}  {{\"id\": {}, \"parent\": {}, \"name\": {}, \"layer\": {}, \"workload\": {}, \
             \"start_ns\": {}, \"end_ns\": {}, \"count\": {}}}",
            s.id,
            s.parent,
            quote(s.name),
            quote(s.layer),
            quote(s.workload),
            s.start_ns,
            s.end_ns,
            s.count
        ));
    }
    out.push_str("\n]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "x", layer, workload: "w", start_ns, end_ns, count: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100 with overlapping children 10..40 and 30..60 and a
        // child sticking out past the parent's end: covered 10..60 + 90..100.
        let spans = [
            span(1, 0, "outer", 0, 100),
            span(2, 1, "inner", 10, 40),
            span(3, 1, "inner", 30, 60),
            span(4, 1, "inner", 90, 120),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&("w", "outer".to_string())], (40, 1));
        assert_eq!(st[&("w", "inner".to_string())], (30 + 30 + 30, 3));
    }

    #[test]
    fn disabled_tracer_times_but_stores_nothing() {
        let t = Tracer::new(false);
        let (v, secs) = t.time(0, "a", "l", 1, || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
