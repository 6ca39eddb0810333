//! fedbench: the end-to-end benchmark of the three fedfreq pipelines.
//!
//! ```text
//! cargo run --release --offline --manifest-path fedbench/Cargo.toml -- \
//!     --workload <train_testbed|fleet_ctrl_1e5|serve_2conn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; with
//! `--trace 0` the metrics are the end-to-end metrics of `BENCHMARK.json`,
//! with `--trace 1` its per-layer metrics, taken from spans the harness
//! records around calls into the `fl-*` crates. The line before it carries
//! the host facts of the run. Spans of a traced run are written to
//! `.bench_out/`. See `fedbench/README.md` for what each workload measures.

mod fleet;
mod measure;
mod serve;
mod spans;
mod train;

use measure::{percentile, Clocks, Phase};
use serde_json::Value;
use spans::{analyse, Analysis, Span};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Minimum samples beyond the reported tail percentile.
pub const MIN_TAIL_BEYOND: usize = 10;
/// Minimum share of a traced run's op wall time the named spans must cover.
pub const MIN_COVERAGE: f64 = 0.95;
/// Where runs write spans and temporary files, relative to the repository root.
pub const OUT_DIR: &str = ".bench_out";

/// Parsed command line.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or_else(|| format!("unknown argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key, value.clone());
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} outside (0, 120]"));
    }
    Ok(RunArgs {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// What a workload run produced.
pub struct Outcome {
    /// Tail percentile this workload reports (fixed per workload).
    pub tail_q: f64,
    /// Load-generator threads and connections.
    pub threads: usize,
    pub connections: usize,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Failed correctness checks; any makes the run fail.
    pub failures: Vec<String>,
    /// Spans of the traced phase, one vector per thread.
    pub spans: Vec<Vec<Span>>,
    /// Extra facts for the host line.
    pub facts: BTreeMap<String, Value>,
}

impl Outcome {
    pub fn new(tail_q: f64, threads: usize, connections: usize) -> Outcome {
        Outcome {
            tail_q,
            threads,
            connections,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            failures: Vec::new(),
            spans: Vec::new(),
            facts: BTreeMap::new(),
        }
    }

    pub fn fact(&mut self, key: &str, value: f64) {
        self.facts.insert(key.to_string(), Value::Number(value));
    }

    /// The end-to-end metrics of an untraced run: per-op latency from
    /// `phase`, throughput from `ops` ops completed under `clocks`.
    pub fn end_to_end(
        &mut self,
        setup_s: f64,
        phase: &Phase,
        (ops, clocks): (usize, Clocks),
        peak_rss_mib: f64,
        cost_ratio: f64,
    ) {
        self.attempted = phase.attempted();
        self.failed = phase.failed;
        if phase.latencies_ms.is_empty() || ops == 0 {
            self.failures.push("no op completed".to_string());
            return;
        }
        let mut sorted = phase.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let (p50, _) = percentile(&sorted, 0.5);
        let (tail, beyond) = percentile(&sorted, self.tail_q);
        if let Err(e) = check_tail(self.tail_q, beyond) {
            self.failures.push(e);
        }
        self.fact("tail_percentile", self.tail_q * 100.0);
        self.fact("tail_samples", sorted.len() as f64);
        self.fact("tail_beyond", beyond as f64);
        self.fact("measured_wall_s", clocks.wall_s);
        self.fact("host_steal_frac", clocks.steal_frac);
        // Not a gated metric: on serve_2conn it spreads ~15% between runs.
        self.fact("cpu_ms_per_op", clocks.cpu_s * 1e3 / ops as f64);
        for (key, q) in [("p90_ms", 0.9), ("p99_ms", 0.99), ("p999_ms", 0.999)] {
            self.fact(key, percentile(&sorted, q).0);
        }
        self.metrics = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("ops_per_s", ops as f64 / clocks.wall_s, "1/s"),
            Metric::new("latency_p50_ms", p50, "ms"),
            Metric::new("latency_tail_ms", tail, "ms"),
            Metric::new("peak_rss_mib", peak_rss_mib, "MiB"),
            Metric::new("cost_vs_maxfreq", cost_ratio, "ratio"),
        ];
    }

    /// The per-layer metrics of a traced phase: the workload's own (from
    /// `layers`) plus the tracing overhead (traced ops against the untraced
    /// ops interleaved with them) and the share of the traced ops' wall
    /// time the named spans cover.
    pub fn per_layer(
        &mut self,
        spans: Vec<Vec<Span>>,
        phase: &Phase,
        layers: fn(&Analysis) -> Vec<Metric>,
    ) {
        let analysis = analyse(&spans);
        let coverage = analysis.coverage();
        if let Err(e) = check_coverage(coverage) {
            self.failures.push(e);
        }
        self.metrics = layers(&analysis);
        // 1 − traced ops/s ÷ untraced ops/s, ops/s being 1 / mean latency.
        self.metrics.push(Metric::new(
            "trace.overhead_frac",
            1.0 - phase.mean_latency_ms(false) / phase.mean_latency_ms(true),
            "ratio",
        ));
        self.metrics
            .push(Metric::new("trace.coverage", coverage, "ratio"));
        self.attempted = phase.attempted();
        self.failed = phase.failed;
        self.spans = spans;
    }
}

/// The tail percentile must have at least [`MIN_TAIL_BEYOND`] samples
/// beyond it, or it is only a re-labelled median.
pub fn check_tail(q: f64, beyond: usize) -> Result<(), String> {
    if beyond < MIN_TAIL_BEYOND {
        return Err(format!(
            "tail p{} has {beyond} samples beyond it, need {MIN_TAIL_BEYOND}",
            q * 100.0
        ));
    }
    Ok(())
}

/// The named spans of a traced run must cover [`MIN_COVERAGE`] of its wall
/// time, or the per-layer breakdown misses where the time went.
pub fn check_coverage(coverage: f64) -> Result<(), String> {
    if coverage.is_nan() || coverage < MIN_COVERAGE {
        return Err(format!(
            "named spans cover {:.1}% of traced wall time, need {:.0}%",
            coverage * 100.0,
            MIN_COVERAGE * 100.0
        ));
    }
    Ok(())
}

/// Metric declarations of one kind (`end_to_end` or `per_layer`) in
/// `BENCHMARK.json`: name → unit.
pub fn declared_metrics(bench: &Value, kind: &str) -> Result<BTreeMap<String, String>, String> {
    let Some(Value::Array(items)) = object_get(bench, kind) else {
        return Err(format!("BENCHMARK.json has no {kind} list"));
    };
    items
        .iter()
        .map(|m| {
            let name = object_get(m, "name").and_then(Value::as_str);
            let unit = object_get(m, "unit").and_then(Value::as_str);
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("BENCHMARK.json {kind} entry lacks name or unit")),
            }
        })
        .collect()
}

fn object_get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(map) => map.get(key),
        _ => None,
    }
}

/// Every reported metric must be declared with the same unit. A run
/// reports every declared metric: end-to-end runs must produce each one,
/// and per-layer metrics of layers a workload never calls are reported
/// as 0 (the layer did no work on this workload).
pub fn reconcile(
    metrics: &mut Vec<Metric>,
    declared: &BTreeMap<String, String>,
    fill_missing: bool,
) -> Vec<String> {
    let mut failures = Vec::new();
    for m in metrics.iter() {
        match declared.get(&m.name) {
            None => failures.push(format!("metric {} is not listed in BENCHMARK.json", m.name)),
            Some(unit) if *unit != m.unit => failures.push(format!(
                "metric {} has unit {}, BENCHMARK.json says {unit}",
                m.name, m.unit
            )),
            Some(_) => {}
        }
        if !m.value.is_finite() {
            failures.push(format!("metric {} is not finite", m.name));
        }
    }
    for (name, unit) in declared {
        if metrics.iter().any(|m| &m.name == name) {
            continue;
        }
        if fill_missing {
            metrics.push(Metric::new(name, 0.0, unit));
        } else {
            failures.push(format!("declared metric {name} was not measured"));
        }
    }
    failures
}

fn host_name() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

fn run(args: &RunArgs, nproc: usize) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "train_testbed" => train::run(args),
        "fleet_ctrl_1e5" => fleet::run(args),
        "serve_2conn" => serve::run(args, nproc),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fedbench: {e}");
            std::process::exit(2);
        }
    };
    let bench = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json (run from the repository root): {e}"))
        .and_then(|t| serde_json::parse_value(&t).map_err(|e| format!("BENCHMARK.json: {e}")))
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("fedbench: {e}");
            std::process::exit(1);
        }
    };
    let kind = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let declared = match declared_metrics(&bench, kind) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("fedbench: {e}");
            std::process::exit(1);
        }
    };

    // Budget: one worker per core for the fl-pool crates.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("FL_WORKERS", nproc.to_string());

    let mut out = match run(&args, nproc) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fedbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let unlisted = reconcile(&mut out.metrics, &declared, args.trace);
    out.failures.extend(unlisted);

    let mut facts = std::mem::take(&mut out.facts);
    if args.trace {
        let path: PathBuf =
            Path::new(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match spans::write_jsonl(&path, &out.spans) {
            Ok(()) => {
                facts.insert(
                    "spans_file".into(),
                    Value::String(path.display().to_string()),
                );
            }
            Err(e) => out.failures.push(e),
        }
    }
    for f in &out.failures {
        eprintln!("fedbench: check failed: {f}");
    }
    // A failed check counts as a failed op.
    let failed = out.failed + out.failures.len();
    let attempted = out.attempted.max(failed).max(1);
    let correct = out.failures.is_empty() && out.failed == 0;

    facts.insert("workload".into(), Value::String(args.workload.clone()));
    facts.insert("seed".into(), Value::Number(args.seed as f64));
    facts.insert("trace".into(), Value::Bool(args.trace));
    facts.insert("nproc".into(), Value::Number(nproc as f64));
    facts.insert("fl_workers".into(), Value::Number(nproc as f64));
    facts.insert("host".into(), Value::String(host_name()));
    facts.insert("threads".into(), Value::Number(out.threads as f64));
    facts.insert("connections".into(), Value::Number(out.connections as f64));
    let mut host_line = BTreeMap::new();
    host_line.insert("host_facts".to_string(), Value::Object(facts));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(host_line)).unwrap_or_default()
    );

    let metrics: BTreeMap<String, Value> = out
        .metrics
        .iter()
        .map(|m| {
            let mut entry = BTreeMap::new();
            entry.insert("value".to_string(), Value::Number(m.value));
            entry.insert("unit".to_string(), Value::String(m.unit.clone()));
            (m.name.clone(), Value::Object(entry))
        })
        .collect();
    let mut result = BTreeMap::new();
    result.insert("correct".to_string(), Value::Bool(correct));
    result.insert("attempted".to_string(), Value::Number(attempted as f64));
    result.insert("failed".to_string(), Value::Number(failed as f64));
    result.insert("metrics".to_string(), Value::Object(metrics));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(result)).unwrap_or_default()
    );
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench() -> Value {
        serde_json::parse_value(
            r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
                "per_layer": [{"name": "a.ms_p50", "unit": "ms", "better": "lower"}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn a_tail_with_fewer_than_ten_samples_beyond_fails() {
        assert!(check_tail(0.9, 9).is_err());
        assert!(check_tail(0.9, 10).is_ok());
        // 26 samples at p90: the tail is the 24th, two beyond — refused.
        let v: Vec<f64> = (0..26).map(f64::from).collect();
        let (_, beyond) = percentile(&v, 0.9);
        assert!(check_tail(0.9, beyond).is_err());
    }

    #[test]
    fn an_unlisted_metric_fails() {
        let declared = declared_metrics(&bench(), "end_to_end").unwrap();
        let mut ms = vec![
            Metric::new("setup_s", 0.01, "s"),
            Metric::new("latency_p99_ms", 1.0, "ms"),
        ];
        let failures = reconcile(&mut ms, &declared, false);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("latency_p99_ms"));
    }

    #[test]
    fn a_wrong_unit_or_missing_end_to_end_metric_fails() {
        let declared = declared_metrics(&bench(), "end_to_end").unwrap();
        let mut wrong = vec![Metric::new("setup_s", 10.0, "ms")];
        assert_eq!(reconcile(&mut wrong, &declared, false).len(), 1);
        let mut none = Vec::new();
        assert_eq!(reconcile(&mut none, &declared, false).len(), 1);
    }

    #[test]
    fn per_layer_metrics_of_unused_layers_read_zero() {
        let declared = declared_metrics(&bench(), "per_layer").unwrap();
        let mut ms = Vec::new();
        assert!(reconcile(&mut ms, &declared, true).is_empty());
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].value, 0.0);
    }

    #[test]
    fn low_span_coverage_fails() {
        assert!(check_coverage(0.94).is_err());
        assert!(check_coverage(f64::NAN).is_err());
        assert!(check_coverage(0.95).is_ok());
    }

    #[test]
    fn the_committed_benchmark_declares_what_the_workloads_report() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let bench = serde_json::parse_value(&text).unwrap();
        let e2e = declared_metrics(&bench, "end_to_end").unwrap();
        for name in [
            "setup_s",
            "ops_per_s",
            "latency_p50_ms",
            "latency_tail_ms",
            "peak_rss_mib",
            "cost_vs_maxfreq",
        ] {
            assert!(e2e.contains_key(name), "{name} missing from end_to_end");
        }
        assert_eq!(e2e.len(), 6);
        assert!(declared_metrics(&bench, "per_layer").unwrap().len() >= 30);
    }

    #[test]
    fn arguments_are_strict() {
        let ok: Vec<String> = [
            "--workload",
            "x",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = parse_args(&ok).unwrap();
        assert!(a.trace && a.seed == 3 && a.seconds == 2.0);
        let mut bad = ok.clone();
        bad[7] = "yes".into();
        assert!(parse_args(&bad).is_err());
        assert!(parse_args(&ok[..6]).is_err());
        let mut unknown = ok.clone();
        unknown.push("--threads".into());
        unknown.push("4".into());
        assert!(parse_args(&unknown).is_err());
    }
}
