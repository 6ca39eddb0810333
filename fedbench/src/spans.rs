//! In-memory span recorder for traced runs.
//!
//! Each span has a name, start, end, parent and the id of the op (trace)
//! it belongs to. Spans are kept in memory while the run measures and
//! written as JSONL when it ends. A disabled tracer records nothing and
//! costs one branch per call, so the traced and untraced phases run the
//! same loop code.

use crate::measure::process_cpu_ns;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub trace: u64,
    pub thread: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Process CPU consumed during the span, when requested.
    pub cpu_ns: Option<u64>,
    /// Work items the span processed (e.g. inference rows), when counted.
    pub items: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle for an open span.
#[must_use]
pub struct Open(Option<(usize, Option<u64>)>);

/// Span recorder of one thread.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u32,
    trace: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer::new(false, Instant::now(), 0)
    }

    /// A recording tracer; `epoch` is shared by the threads of one run.
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Self {
        Tracer {
            on,
            epoch,
            thread,
            trace: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off between ops (never with a span open).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    /// Sets the op (trace) id stamped on spans opened from now on.
    pub fn set_trace(&mut self, trace: u64) {
        self.trace = trace;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span. With `cpu`, the span
    /// also records the process CPU it spans.
    pub fn begin(&mut self, name: &'static str, cpu: bool) -> Open {
        if !self.on {
            return Open(None);
        }
        let cpu0 = cpu.then(process_cpu_ns);
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            trace: self.trace,
            thread: self.thread,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            cpu_ns: None,
            items: 0,
        });
        self.stack.push(idx);
        Open(Some((idx, cpu0)))
    }

    /// Closes a span opened by [`Tracer::begin`], recording `items`.
    pub fn end_items(&mut self, open: Open, items: u64) {
        let Some((idx, cpu0)) = open.0 else {
            return;
        };
        let end = self.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans must close innermost-first");
        let span = &mut self.spans[idx];
        span.end_ns = end;
        span.cpu_ns = cpu0.map(|c| process_cpu_ns() - c);
        span.items = items;
    }

    pub fn end(&mut self, open: Open) {
        self.end_items(open, 0);
    }

    /// Runs `f` inside a span named `name`.
    pub fn wrap<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, false);
        let out = f();
        self.end(open);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name aggregates of a traced phase.
#[derive(Debug, Default, Clone)]
pub struct LayerStats {
    pub durations_ns: Vec<u64>,
    pub self_ns: u64,
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub items: u64,
}

impl LayerStats {
    /// Median span duration in milliseconds (0 when the layer never ran).
    pub fn p50_ms(&self) -> f64 {
        if self.durations_ns.is_empty() {
            return 0.0;
        }
        let d: Vec<f64> = self.durations_ns.iter().map(|&n| n as f64 * 1e-6).collect();
        crate::measure::median(&d)
    }

    /// Process CPU per wall second while the layer ran.
    pub fn cpu_per_wall(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.cpu_ns as f64 / self.wall_ns as f64
        }
    }
}

/// The analysed trace of one phase.
pub struct Analysis {
    pub layers: BTreeMap<&'static str, LayerStats>,
    /// Summed duration of the root (op) spans: the measured wall time the
    /// shares are taken against (per load-generator thread, summed).
    pub op_wall_ns: u64,
}

impl Analysis {
    /// Self time of spans a workload names as layers, summed, as a share of
    /// the op wall time.
    pub fn coverage(&self) -> f64 {
        let named: u64 = self
            .layers
            .iter()
            .filter(|(name, _)| !is_root(name))
            .map(|(_, s)| s.self_ns)
            .sum();
        named as f64 / self.op_wall_ns.max(1) as f64
    }

    /// A layer's self time as a share of the op wall time.
    pub fn share(&self, name: &str) -> f64 {
        self.layers
            .get(name)
            .map_or(0.0, |s| s.self_ns as f64 / self.op_wall_ns.max(1) as f64)
    }

    pub fn layer(&self, name: &str) -> LayerStats {
        self.layers.get(name).cloned().unwrap_or_default()
    }
}

/// Root spans are named `<workload>.op`; everything under them is a layer.
fn is_root(name: &str) -> bool {
    name.ends_with(".op")
}

/// Aggregates the spans of every thread of a phase. Self time is a span's
/// duration minus the part its children cover.
pub fn analyse(threads: &[Vec<Span>]) -> Analysis {
    let mut layers: BTreeMap<&'static str, LayerStats> = BTreeMap::new();
    let mut op_wall_ns = 0;
    for spans in threads {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let e = layers.entry(s.name).or_default();
            e.durations_ns.push(s.dur_ns());
            e.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
            e.wall_ns += s.dur_ns();
            e.cpu_ns += s.cpu_ns.unwrap_or(0);
            e.items += s.items;
            if s.parent.is_none() && is_root(s.name) {
                op_wall_ns += s.dur_ns();
            }
        }
    }
    Analysis { layers, op_wall_ns }
}

/// Writes spans as JSON lines. Parents are rewritten to global span ids
/// (`thread`, index) so spans of several threads can share one file.
pub fn write_jsonl(path: &std::path::Path, threads: &[Vec<Span>]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let file =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for spans in threads {
        for (i, s) in spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or("null".to_string(), |p| format!("\"{}.{p}\"", s.thread));
            writeln!(
                out,
                "{{\"id\":\"{}.{i}\",\"parent\":{parent},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.thread, s.trace, s.name, s.start_ns, s.end_ns
            )
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
    }
    out.flush()
        .map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_coverage_excludes_the_root() {
        let mk = |name, parent, start_ns, end_ns| Span {
            name,
            trace: 0,
            thread: 0,
            parent,
            start_ns,
            end_ns,
            cpu_ns: None,
            items: 0,
        };
        let spans = vec![
            mk("w.op", None, 0, 100),
            mk("a", Some(0), 0, 60),
            mk("b", Some(1), 10, 30),
            mk("c", Some(0), 60, 90),
        ];
        let a = analyse(&[spans]);
        assert_eq!(a.op_wall_ns, 100);
        assert_eq!(a.layer("a").self_ns, 40);
        assert_eq!(a.layer("b").self_ns, 20);
        assert_eq!(a.layer("w.op").self_ns, 10);
        assert!((a.coverage() - 0.9).abs() < 1e-12);
        assert!((a.share("c") - 0.3).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let o = t.begin("x", true);
        t.end(o);
        assert_eq!(t.wrap("y", || 7), 7);
        assert!(t.into_spans().is_empty());
    }
}
