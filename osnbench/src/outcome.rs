//! What a run measured: checks, metric samples, and the JSON written
//! at the end (the result line, a one-line spread summary, and the
//! detail file with every sample).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use crate::spans::{Recorder, Span};
use crate::stats::{self, Summary};

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("record_events_per_s", "1/s"),
    ("analyze_events_per_s", "1/s"),
    ("store_bytes_per_event", "B"),
    ("catalog_qps", "1/s"),
    ("point_p90_ms", "ms"),
    ("bulk_p50_ms", "ms"),
    ("bulk_p90_ms", "ms"),
    ("cluster_ranks_per_s", "1/s"),
];

/// Catalog endpoints measured one by one in the traced run.
pub const ENDPOINTS: [&str; 8] = [
    "runs",
    "report",
    "slice",
    "slice_class",
    "histogram",
    "compare",
    "stats",
    "paraver",
];

macro_rules! endpoint_metrics {
    ($($ep:literal),*) => {
        [$(
            (concat!("catalog.", $ep, ".client_p50_ms"), "ms"),
            (concat!("catalog.", $ep, ".server_ms"), "ms"),
            (concat!("catalog.", $ep, ".wait_ms"), "ms"),
            (concat!("catalog.", $ep, ".bytes"), "B"),
            (concat!("catalog.", $ep, ".errors"), "count"),
        )*]
    };
}

const ENDPOINT_METRICS: [(&str, &str); 40] = endpoint_metrics!(
    "runs",
    "report",
    "slice",
    "slice_class",
    "histogram",
    "compare",
    "stats",
    "paraver"
);

const LAYER_METRICS: &[(&str, &str)] = &[
    ("kernel.sim_ms", "ms"),
    ("kernel.untraced_sim_ms", "ms"),
    ("kernel.loop_events", "count"),
    ("kernel.events_per_s", "1/s"),
    ("trace.probe_ms", "ms"),
    ("trace.spill_ms", "ms"),
    ("trace.events", "count"),
    ("trace.lost", "count"),
    ("store.write_ms", "ms"),
    ("store.write_mb_per_s", "MB/s"),
    ("store.bytes", "B"),
    ("store.chunks", "count"),
    ("store.open_ms", "ms"),
    ("store.decode_ms", "ms"),
    ("store.decode_events_per_s", "1/s"),
    ("store.peak_resident_chunks", "count"),
    ("store.decode_errors", "count"),
    ("analysis.analyze_ms", "ms"),
    ("analysis.self_ms", "ms"),
    ("analysis.instances", "count"),
    ("core.report_build_ms", "ms"),
    ("core.serialize_ms", "ms"),
    ("core.report_bytes", "B"),
    ("catalog.slice.lib_ms", "ms"),
    ("catalog.slice.serialize_ms", "ms"),
    ("catalog.slice.chunks_decoded", "count"),
    ("catalog.scan_ms", "ms"),
    ("cluster.mech_nodes", "count"),
    ("cluster.synthetic_nodes", "count"),
    ("cluster.node_sim_ms", "ms"),
    ("cluster.couple_ms", "ms"),
    ("cluster.worker_speedup", "x"),
    ("cluster.tier_validation_err", "ratio"),
    ("ftq.snapshot_p50_us", "us"),
    ("ftq.snapshot_p99_us", "us"),
    ("ftq.gaps", "count"),
    ("ftq.quanta", "count"),
    ("ftq.overhead_frac", "ratio"),
    ("ftq.classified_frac", "ratio"),
    ("ftq.sample_errors", "count"),
    ("ftq.write_ms", "ms"),
    ("ftq.probe_us_per_gap", "us"),
    ("bench.coverage_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.host_speed", "ratio"),
    ("bench.host_total_speed", "ratio"),
];

/// Every per-layer metric (`--trace 1`): the layer list with the
/// per-endpoint catalog metrics after it.
pub fn per_layer() -> Vec<(&'static str, &'static str)> {
    LAYER_METRICS
        .iter()
        .chain(ENDPOINT_METRICS.iter())
        .copied()
        .collect()
}

/// Per-run state shared by the workloads.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for stores, removed when the run ends.
    pub work: PathBuf,
    pub out: Outcome,
    /// Every span of the run, written out at the end.
    pub spans: Recorder,
}

impl Ctx {
    /// A fresh recorder on the run's clock; hand it back with [`Ctx::keep`].
    pub fn recorder(&self, thread: u32) -> Recorder {
        self.spans.fork(thread)
    }

    pub fn keep(&mut self, rec: Recorder) {
        self.spans.absorb(rec);
    }

    /// An input seed for `label`, derived from the run's seed.
    pub fn derive(&self, label: u64) -> u64 {
        derive(self.seed, label)
    }
}

/// splitmix64 of `seed` mixed with `label`.
pub fn derive(seed: u64, label: u64) -> u64 {
    let mut z = seed ^ label.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub struct Metric {
    pub value: f64,
    /// The per-unit values the value summarizes.
    pub samples: Vec<f64>,
    /// For a percentile: which one, and how many samples lie beyond it.
    pub percentile: Option<(f64, usize)>,
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, Metric>,
}

impl Outcome {
    /// Count one checked operation; a false `ok` fails it.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Count one operation that failed outright.
    pub fn fail(&mut self, what: String) {
        self.check(false, || what);
    }

    pub fn value(&mut self, name: &str, value: f64) {
        self.set(name, value, vec![value], None);
    }

    /// A ratio of totals, with the per-unit ratios it summarizes.
    pub fn ratio(&mut self, name: &str, value: f64, samples: Vec<f64>) {
        self.set(name, value, samples, None);
    }

    /// The median of per-unit `samples`.
    pub fn median(&mut self, name: &str, samples: Vec<f64>) {
        if samples.is_empty() {
            return;
        }
        let value = stats::median(&stats::sorted(&samples));
        self.set(name, value, samples, None);
    }

    /// The nearest-rank `p`th percentile of `samples`; too few samples
    /// beyond it fails the run.
    pub fn percentile(&mut self, name: &str, samples: Vec<f64>, p: f64) {
        if samples.is_empty() {
            return;
        }
        let value = stats::percentile(&stats::sorted(&samples), p);
        let beyond = stats::beyond(samples.len(), p);
        self.check(beyond >= stats::MIN_TAIL, || {
            format!(
                "{name}: {} samples leave {beyond} beyond p{p}",
                samples.len()
            )
        });
        self.set(name, value, samples, Some((p, beyond)));
    }

    /// Multiply a metric's value and samples by `factor`, if it was
    /// measured.
    pub fn scale(&mut self, name: &str, factor: f64) {
        if let Some(m) = self.metrics.get_mut(name) {
            m.value *= factor;
            for s in &mut m.samples {
                *s *= factor;
            }
        }
    }

    fn set(&mut self, name: &str, value: f64, samples: Vec<f64>, percentile: Option<(f64, usize)>) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                samples,
                percentile,
            },
        );
    }

    /// Build the output for the metrics `expected`: a missing or
    /// non-finite one makes the run incorrect.
    pub fn finish(mut self, expected: &[(&str, &str)], info: &RunInfo) -> Report {
        let mut complete = true;
        for (name, _) in expected {
            let why = match self.metrics.get(*name) {
                Some(m) if m.value.is_finite() => continue,
                Some(_) => "is not finite",
                None => "was not measured",
            };
            complete = false;
            self.failures.push(format!("metric {name} {why}"));
        }
        let correct = self.failed == 0 && complete;

        let mut result = String::new();
        let _ = write!(
            result,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for (name, unit) in expected {
            let Some(m) = self.metrics.get(*name).filter(|m| m.value.is_finite()) else {
                continue;
            };
            let sep = if first { "" } else { ", " };
            first = false;
            let _ = write!(
                result,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.value
            );
        }
        result.push_str("}}");

        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let schedstat = crate::layers::schedstat_readable();
        let failed_share = stats::failed_share(self.attempted, self.failed);
        let mut spread = String::new();
        let mut detail_metrics = String::new();
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let unit = unit_of(name);
            let s = Summary::of(&m.samples).expect("metrics hold at least one sample");
            let pct = match m.percentile {
                Some((p, beyond)) => {
                    let supported =
                        stats::highest_supported(s.n).map_or("null".to_string(), |h| h.to_string());
                    format!(", \"percentile\": {p}, \"beyond\": {beyond}, \"highest_supported\": {supported}")
                }
                None => String::new(),
            };
            let _ = write!(
                spread,
                "{sep}\"{name}\": {{\"value\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}{pct}}}",
                num(m.value),
                num(s.median),
                num(s.q1),
                num(s.q3),
                s.n
            );
            let samples: Vec<String> = m.samples.iter().map(|v| num(*v)).collect();
            let _ = write!(
                detail_metrics,
                "{sep}\n    \"{name}\": {{\"unit\": \"{unit}\", \"value\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}{pct}, \"samples\": [{}]}}",
                num(m.value),
                num(s.median),
                num(s.q1),
                num(s.q3),
                s.n,
                samples.join(", ")
            );
        }
        let head = format!(
            "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"schedstat_readable\": {schedstat}, \"wall_s\": {}, \"attempted\": {}, \"failed\": {}, \"failed_share\": {failed_share}",
            info.workload,
            info.seed,
            info.seconds,
            info.trace,
            num(info.wall_s),
            self.attempted,
            self.failed
        );
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", escape(f)))
            .collect();
        let summary = format!("{{{head}, \"spread\": {{{spread}}}}}");
        let detail = format!(
            "{{{head},\n  \"failures\": [{}],\n  \"metrics\": {{{detail_metrics}\n  }}\n}}\n",
            failures.join(", ")
        );
        Report {
            result,
            summary,
            detail,
            failures: self.failures,
        }
    }
}

/// Statistics written to the summary and detail file but not gated.
const REPORTED_ONLY: &[(&str, &str)] = &[("point_p50_ms", "ms"), ("point_p99_ms", "ms")];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(REPORTED_ONLY.iter())
        .chain(LAYER_METRICS.iter())
        .chain(ENDPOINT_METRICS.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| *u)
}

/// A JSON number (non-finite values become `null`).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

pub struct RunInfo<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub wall_s: f64,
}

pub struct Report {
    /// The result line (last line of standard output).
    pub result: String,
    /// One-line spread summary printed before it.
    pub summary: String,
    /// Detail file: every metric with all its samples.
    pub detail: String,
    pub failures: Vec<String>,
}

/// The span file: one object per span.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "  {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"unit\": {}, \"thread\": {}}}{sep}",
            s.name, s.start_ns, s.end_ns, s.unit, s.thread
        );
    }
    out.push_str("]\n");
    out
}
