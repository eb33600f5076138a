//! Metric names, the measured window every workload returns, and the
//! output: a human-readable table and, as the last line, one JSON object.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use openmeta_obs::{marshal_counters, MetricsRegistry, STAGE_HISTOGRAM};
use openmeta_pbio::pool::{BufferPool, PoolStats};

use crate::procfs::ProcSample;
use crate::stats;
use crate::trace::{self, Recorder};

/// End-to-end metrics, reported by untraced runs (`--trace 0`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("goodput_mb_s", "MB/s"),
    ("latency_p50_ms", "ms"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
];

/// Spans the benchmark records around its calls into the crates.  Each
/// reports `.p50_us`, `.p99_us` and `.busy_share`.
pub const SPANS: [&str; 15] = [
    "op",
    "xmit.load_url",
    "xmit.revalidate",
    "xmit.bind_all",
    "xmit.publish_format",
    "pbio.server.resolve",
    "pbio.encode_first",
    "xmit.send.small",
    "xmit.send.large",
    "xmit.recv.small",
    "xmit.recv.large",
    "xmit.recv.convert",
    "echo.publish",
    "echo.recv.identity",
    "echo.recv.projected",
];

/// The program's own `openmeta_stage_duration_ns{stage}` series, read
/// only as exact sum and count: `.mean_us` and `.per_op`.
pub const STAGES: [&str; 9] = [
    "discovery.fetch",
    "discovery.parse",
    "binding.bind",
    "transport.send",
    "transport.recv",
    "marshal.encode",
    "marshal.decode",
    "channel.publish",
    "channel.fanout",
];

/// Counter-derived per-layer metrics.  A ratio is listed with its base.
pub const COUNTERS: [(&str, &str); 23] = [
    ("pbio.plan_cache.miss_per_op", "count/op"),
    ("net.accepted_per_op", "count/op"),
    ("ohttp.pool.reuse_ratio", "ratio"),
    ("ohttp.pool.requests", "count"),
    ("xmit.schema_cache.hit_ratio", "ratio"),
    ("xmit.schema_cache.loads", "count"),
    ("pbio.marshal.allocs_per_op", "count/op"),
    ("pbio.marshal.bytes_copied_per_op", "B/op"),
    ("pbio.buffer_pool.reuse_ratio", "ratio"),
    ("pbio.buffer_pool.gets", "count"),
    ("echo.encodes_per_event", "count/op"),
    ("echo.events", "count"),
    ("echo.queue_depth_max", "count"),
    ("echo.deliver.identity.p50_us", "us"),
    ("echo.deliver.identity.p99_us", "us"),
    ("echo.deliver.projected.p50_us", "us"),
    ("echo.deliver.projected.p99_us", "us"),
    ("gen_late_ms_p99", "ms"),
    ("proc.syscr_per_op", "count/op"),
    ("proc.syscw_per_op", "count/op"),
    ("proc.wchar_bytes_per_op", "B/op"),
    ("proc.ctx_switches_per_op", "count/op"),
    ("proc.threads_max", "count"),
];

/// Whole-run per-layer metrics.
pub const RUN_LEVEL: [(&str, &str); 3] =
    [("latency_p99_ms", "ms"), ("trace_overhead", "ratio"), ("error_rate", "ratio")];

/// Every per-layer metric name with its unit, in output order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for span in SPANS {
        out.push((format!("{span}.p50_us"), "us"));
        out.push((format!("{span}.p99_us"), "us"));
        out.push((format!("{span}.busy_share"), "ratio"));
    }
    for stage in STAGES {
        out.push((format!("stage.{stage}.mean_us"), "us"));
        out.push((format!("stage.{stage}.per_op"), "count/op"));
    }
    out.extend(COUNTERS.iter().chain(&RUN_LEVEL).map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Exact `(count, sum_ns)` of every stage series.
#[derive(Debug, Clone, Default)]
pub struct Stages(BTreeMap<String, (u64, u64)>);

impl Stages {
    pub fn read() -> Stages {
        let snap = MetricsRegistry::global().snapshot();
        Stages(
            snap.histograms
                .iter()
                .filter(|(k, _)| k.name == STAGE_HISTOGRAM)
                .filter_map(|(k, h)| {
                    let stage = k.labels.iter().find(|(l, _)| l == "stage")?;
                    Some((stage.1.clone(), (h.count, h.sum)))
                })
                .collect(),
        )
    }

    /// `(count, sum_ns)` of `stage` since `earlier`.
    pub fn delta(&self, earlier: &Stages, stage: &str) -> (u64, u64) {
        let (c1, s1) = self.0.get(stage).copied().unwrap_or_default();
        let (c0, s0) = earlier.0.get(stage).copied().unwrap_or_default();
        (c1.saturating_sub(c0), s1.saturating_sub(s0))
    }
}

/// The marshal path's global counters: encode allocations, bytes
/// copied, and the shared buffer pool.
#[derive(Debug, Clone, Copy)]
pub struct MarshalSample {
    allocs: u64,
    bytes_copied: u64,
    pool: PoolStats,
}

impl MarshalSample {
    pub fn read() -> MarshalSample {
        let c = marshal_counters();
        MarshalSample {
            allocs: c.alloc_total.get(),
            bytes_copied: c.bytes_copied_total.get(),
            pool: BufferPool::global().stats(),
        }
    }

    /// Per-op deltas since `earlier`, as per-layer metrics.
    pub fn per_op(&self, earlier: &MarshalSample, ops: u64) -> Vec<(&'static str, f64)> {
        let n = ops.max(1) as f64;
        let gets = self.pool.gets - earlier.pool.gets;
        let reuses = self.pool.reuses - earlier.pool.reuses;
        vec![
            ("pbio.marshal.allocs_per_op", (self.allocs - earlier.allocs) as f64 / n),
            (
                "pbio.marshal.bytes_copied_per_op",
                (self.bytes_copied - earlier.bytes_copied) as f64 / n,
            ),
            ("pbio.buffer_pool.reuse_ratio", ratio(reuses, gets)),
            ("pbio.buffer_pool.gets", gets as f64),
        ]
    }
}

/// `num / den`, 0 with no base.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// How a window's latency samples become `latency_p50_ms`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyFigure {
    /// The median sample.
    Median,
    /// The mean of the fastest [`FAST_SHARE`] of the samples.
    FastMean,
}

/// Share of the samples a [`LatencyFigure::FastMean`] averages.
pub const FAST_SHARE: f64 = 0.99;

/// One timed window of a workload.
pub struct Window {
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed_s: f64,
    /// Latency samples, ms: one per op, or per record averaged over a
    /// block of records (empty where the workload has none).
    pub latencies_ms: Vec<f64>,
    /// Record payload bytes delivered.
    pub payload_bytes: u64,
    /// How `latencies_ms` is summarised.
    pub latency_figure: LatencyFigure,
    pub proc_before: ProcSample,
    pub proc_after: ProcSample,
    pub stages_before: Stages,
    pub stages_after: Stages,
    /// Span recorders of the window's threads (recording nothing when
    /// untraced).
    pub recorders: Vec<Recorder>,
    /// Workload-specific per-layer metrics (names from [`COUNTERS`]).
    pub layer: Vec<(&'static str, f64)>,
    /// First few failure descriptions.
    pub errors: Vec<String>,
}

impl Window {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.elapsed_s
    }
}

/// Keep at most this many failure messages.
pub const MAX_ERRORS: usize = 8;

/// Note a failure, keeping the first few messages.
pub fn note_error(errors: &mut Vec<String>, msg: impl FnOnce() -> String) {
    if errors.len() < MAX_ERRORS {
        errors.push(msg());
    }
}

/// A metric ready to print.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count and the like, for the human-readable table.
    pub note: String,
}

/// Everything one run prints.
pub struct Output {
    pub workload: String,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub e2e: Vec<Metric>,
    pub layer: Vec<Metric>,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, note: String) -> Metric {
    Metric { name: name.into(), value, unit, note }
}

/// End-to-end metrics of an untraced window.
pub fn end_to_end(setups_s: &[f64], w: &Window, peak_rss_kb: u64) -> Vec<Metric> {
    let lat = stats::sorted(w.latencies_ms.clone());
    let (latency, basis) = match w.latency_figure {
        LatencyFigure::Median => (stats::median(&lat), "median"),
        LatencyFigure::FastMean => (stats::low_mean(&lat, FAST_SHARE), "mean of the fastest 99%"),
    };
    let tail = stats::tail(&lat, 0.99);
    let setups = stats::sorted(setups_s.to_vec());
    let cpu_s = w.proc_before.cpu_s_until(&w.proc_after);
    vec![
        metric(
            "setup_s",
            stats::median(&setups).unwrap_or(0.0),
            "s",
            format!("median of {:.4?}", setups_s),
        ),
        metric("ops_per_s", w.ops_per_s(), "1/s", format!("{} ops in {:.3} s", w.ops, w.elapsed_s)),
        metric(
            "goodput_mb_s",
            w.payload_bytes as f64 / w.elapsed_s / 1e6,
            "MB/s",
            format!("{} payload bytes", w.payload_bytes),
        ),
        metric(
            "latency_p50_ms",
            latency.unwrap_or(0.0),
            "ms",
            format!("{basis} of n={}; {}", lat.len(), describe_tail(tail)),
        ),
        metric(
            "cpu_us_per_op",
            cpu_s * 1e6 / w.ops.max(1) as f64,
            "us",
            format!("{cpu_s:.2} CPU s"),
        ),
        metric("peak_rss_mb", peak_rss_kb as f64 * 1024.0 / 1e6, "MB", "VmHWM".to_string()),
    ]
}

/// "p99 = …" with the quantile actually supported.
fn describe_tail(tail: Option<stats::Quantile>) -> String {
    tail.map_or("too few samples for a tail".to_string(), |t| {
        format!("p{:.2} = {:.6} of n={}", t.q * 100.0, t.value, t.n)
    })
}

/// Per-layer metrics of a traced window; `untraced_ops_per_s` comes from
/// the same run's untraced window.
pub fn per_layer(w: &Window, untraced_ops_per_s: f64, error_rate: f64) -> Vec<Metric> {
    let mut values: BTreeMap<String, (f64, String)> = BTreeMap::new();
    let window_ns = w.elapsed_s * 1e9;
    let recorders: Vec<&Recorder> = w.recorders.iter().collect();
    for (name, s) in trace::summarize(&recorders, window_ns) {
        let tail = s
            .p99
            .map_or("too few samples".to_string(), |t| format!("p{:.2} of n={}", t.q * 100.0, t.n));
        values.insert(format!("{name}.p50_us"), (s.p50_us, format!("n={}", s.n)));
        values.insert(format!("{name}.p99_us"), (s.p99.map_or(0.0, |t| t.value), tail));
        values.insert(format!("{name}.busy_share"), (s.busy_share, String::new()));
    }
    let ops = w.ops.max(1) as f64;
    for stage in STAGES {
        let (count, sum_ns) = w.stages_after.delta(&w.stages_before, stage);
        let mean_us = if count == 0 { 0.0 } else { sum_ns as f64 / count as f64 / 1e3 };
        values.insert(format!("stage.{stage}.mean_us"), (mean_us, format!("count={count}")));
        values.insert(format!("stage.{stage}.per_op"), (count as f64 / ops, String::new()));
    }
    let latency_tail = stats::tail(&stats::sorted(w.latencies_ms.clone()), 0.99);
    let (a, b) = (&w.proc_before, &w.proc_after);
    let per_op = |x: u64, y: u64| y.saturating_sub(x) as f64 / ops;
    for (name, v) in [
        ("proc.syscr_per_op", per_op(a.syscr, b.syscr)),
        ("proc.syscw_per_op", per_op(a.syscw, b.syscw)),
        ("proc.wchar_bytes_per_op", per_op(a.wchar, b.wchar)),
        ("proc.ctx_switches_per_op", per_op(a.ctx_switches, b.ctx_switches)),
        ("proc.threads_max", a.threads.max(b.threads) as f64),
        ("latency_p99_ms", latency_tail.map_or(0.0, |t| t.value)),
        ("trace_overhead", 1.0 - w.ops_per_s() / untraced_ops_per_s),
        ("error_rate", error_rate),
    ] {
        values.insert(name.to_string(), (v, String::new()));
    }
    if let Some(entry) = values.get_mut("latency_p99_ms") {
        entry.1 = describe_tail(latency_tail);
    }
    for &(name, v) in &w.layer {
        values.insert(name.to_string(), (v, String::new()));
    }
    per_layer_names()
        .into_iter()
        .map(|(name, unit)| match values.remove(&name) {
            Some((v, note)) => metric(name, v, unit, note),
            None => metric(name, 0.0, unit, "not on this workload's path".to_string()),
        })
        .collect()
}

/// JSON number text for a finite value.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Output {
    /// Whether every output check passed and every metric is a number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.e2e.iter().chain(&self.layer).all(|m| m.value.is_finite())
    }

    /// The human-readable table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {}  trace {}  attempted {}  failed {}",
            self.workload, self.trace as u8, self.attempted, self.failed
        );
        for e in &self.errors {
            let _ = writeln!(out, "  FAILED CHECK: {e}");
        }
        for (title, list) in [("end-to-end", &self.e2e), ("per-layer", &self.layer)] {
            if list.is_empty() {
                continue;
            }
            let _ = writeln!(out, "{title}:");
            for m in list {
                let _ =
                    writeln!(out, "  {:<36} {:>16.6} {:<8} {}", m.name, m.value, m.unit, m.note);
            }
        }
        out
    }

    /// The result line: end-to-end metrics untraced, per-layer traced.
    pub fn json(&self) -> String {
        let list = if self.trace { &self.layer } else { &self.e2e };
        let metrics: Vec<String> = list
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    number(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_valid() {
        let names = per_layer_names();
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in &names {
            assert!(n.len() <= 64 && seen.insert(n.clone()), "{n}");
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
            assert!(u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)), "{u}");
        }
        assert!(names.len() <= 128);
    }

    fn window() -> Window {
        Window {
            ops: 4,
            attempted: 4,
            failed: 0,
            elapsed_s: 2.0,
            latencies_ms: vec![1.0, 2.0, 3.0, 4.0],
            payload_bytes: 4_000_000,
            latency_figure: LatencyFigure::Median,
            proc_before: ProcSample::default(),
            proc_after: ProcSample::default(),
            stages_before: Stages::default(),
            stages_after: Stages::default(),
            recorders: Vec::new(),
            layer: vec![("echo.events", 4.0)],
            errors: Vec::new(),
        }
    }

    #[test]
    fn reports_exactly_the_metrics_benchmark_json_declares() {
        let json = include_str!("../../BENCHMARK.json");
        let e2e = end_to_end(&[0.5, 0.2, 0.3], &window(), 1000);
        let names: Vec<(&str, &str)> = e2e.iter().map(|m| (m.name.as_str(), m.unit)).collect();
        assert_eq!(names, END_TO_END);
        assert_eq!(e2e[0].value, 0.3, "median set-up");
        assert_eq!(e2e[1].value, 2.0, "window-total rate");
        assert_eq!(e2e[2].value, 2.0, "window-total goodput");
        assert_eq!(e2e[3].value, 2.0, "median latency");
        let fast = Window {
            latencies_ms: vec![10.0, 1.0, 4.0, 1.0],
            latency_figure: LatencyFigure::FastMean,
            ..window()
        };
        assert_eq!(end_to_end(&[0.3], &fast, 1000)[3].value, 2.0, "mean of the fastest 3 of 4");
        let layer = per_layer(&window(), 4.0, 0.0);
        assert_eq!(layer.len(), per_layer_names().len());
        let declared = json.matches("\"name\": ").count();
        assert_eq!(declared, 3 + END_TO_END.len() + layer.len(), "workloads + metrics");
        for (name, unit) in
            END_TO_END.iter().copied().chain(layer.iter().map(|m| (m.name.as_str(), m.unit)))
        {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {name} in {unit}");
        }
    }

    #[test]
    fn json_escapes_and_never_prints_non_numbers() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(1.25), "1.25");
    }
}
