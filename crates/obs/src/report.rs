//! Run reports: the immutable snapshot of counters + spans, with a stable
//! versioned JSON rendering and a human-readable trace tree.
//!
//! The JSON layout is the `cnc-metrics` schema, documented in DESIGN.md
//! §Observability. One report serializes as:
//!
//! ```json
//! {
//!   "enabled": true,
//!   "counters": {"kernel.scalar_ops": 123, ...},
//!   "spans": [{"name": "prepare", "start_ns": 0, "dur_ns": 42,
//!              "items": 0, "children": [...]}],
//!   "spans_dropped": 0
//! }
//! ```
//!
//! Top-level files produced by `cnc run --metrics` wrap a list of reports as
//! `{"schema": "cnc-metrics", "version": 1, "runs": [...]}` — see the CLI.
//! Counters with value zero are omitted; consumers must treat a missing key
//! as zero. Removing or renaming a counter, or changing the span-object
//! shape, bumps [`SCHEMA_VERSION`]; adding counters does not.

use crate::context::ObsContext;
use crate::metrics::{Counter, CounterSnapshot};
use crate::span::SpanNode;

/// The schema identifier emitted at the top level of metrics files.
pub const SCHEMA_NAME: &str = "cnc-metrics";

/// Current schema version. Bumped on any backward-incompatible change
/// (counter removal/rename, span-shape change); additions keep it.
pub const SCHEMA_VERSION: u32 = 1;

/// Immutable observability snapshot for one run.
///
/// Every `RunOutput` carries one. When the run executed without an installed
/// [`ObsContext`] the report is [`disabled`](RunReport::disabled): empty and
/// flagged `enabled: false`, so downstream consumers can tell "nothing
/// happened" from "nothing was measured".
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Whether an observability context was active during the run.
    pub enabled: bool,
    /// Final counter values.
    pub counters: CounterSnapshot,
    /// Root spans of the recorded tree.
    pub spans: Vec<SpanNode>,
    /// Spans discarded because the recorder hit its capacity bound.
    pub spans_dropped: u64,
}

impl RunReport {
    /// The report attached to runs executed without an installed context.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Snapshot a live context into a report.
    pub fn from_context(ctx: &ObsContext) -> Self {
        Self {
            enabled: true,
            counters: ctx.counters(),
            spans: ctx.recorder().tree(),
            spans_dropped: ctx.recorder().dropped(),
        }
    }

    /// The value of one counter (zero when the report is disabled).
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c)
    }

    /// Render this report as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        self.write_json(&mut out);
        out
    }

    /// Append this report's JSON object to `out`.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"enabled\":");
        out.push_str(if self.enabled { "true" } else { "false" });
        out.push_str(",\"counters\":{");
        let mut first = true;
        for (c, v) in self.counters.nonzero() {
            if !first {
                out.push(',');
            }
            first = false;
            json_string(out, c.name());
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"spans\":[");
        for (i, node) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_span_json(out, node);
        }
        out.push_str("],\"spans_dropped\":");
        out.push_str(&self.spans_dropped.to_string());
        out.push('}');
    }

    /// Render the span tree as an indented human-readable listing
    /// (the `--trace` output). Durations are shown in the most readable
    /// unit; `items` annotates spans that carry a work count.
    pub fn render_trace(&self) -> String {
        let mut out = String::new();
        if !self.enabled {
            out.push_str("(trace disabled: no observability context was active)\n");
            return out;
        }
        if self.spans.is_empty() {
            out.push_str("(no spans recorded)\n");
        }
        for node in &self.spans {
            render_node(&mut out, node, 0);
        }
        if self.spans_dropped > 0 {
            out.push_str(&format!(
                "({} spans dropped at capacity)\n",
                self.spans_dropped
            ));
        }
        out
    }
}

fn render_node(out: &mut String, node: &SpanNode, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str(node.name);
    out.push_str("  ");
    out.push_str(&fmt_dur(node.dur_ns));
    if node.items > 0 {
        out.push_str(&format!("  [{} items]", node.items));
    }
    // Collapse large fan-out (per-task spans): show the first few children
    // verbatim, then summarize the rest so the trace stays readable.
    const SHOWN: usize = 8;
    out.push('\n');
    for child in node.children.iter().take(SHOWN) {
        render_node(out, child, depth + 1);
    }
    if node.children.len() > SHOWN {
        let rest = &node.children[SHOWN..];
        let total_ns: u64 = rest.iter().map(|c| c.dur_ns).sum();
        for _ in 0..=depth {
            out.push_str("  ");
        }
        out.push_str(&format!(
            "… {} more spans  {} total\n",
            rest.len(),
            fmt_dur(total_ns)
        ));
    }
}

fn fmt_dur(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn write_span_json(out: &mut String, node: &SpanNode) {
    out.push_str("{\"name\":");
    json_string(out, node.name);
    out.push_str(&format!(
        ",\"start_ns\":{},\"dur_ns\":{},\"items\":{},\"children\":[",
        node.start_ns, node.dur_ns, node.items
    ));
    for (i, child) in node.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_span_json(out, child);
    }
    out.push_str("]}");
}

/// Incremental writer for a top-level `cnc-metrics` file:
/// `{"schema": "cnc-metrics", "version": 1, "runs": [...]}`.
///
/// Each run entry is an object of caller-provided identifying fields
/// (dataset, platform, …) plus a `"report"` key holding the
/// [`RunReport`] JSON. Shared by `cnc run --metrics` and
/// `repro --metrics` so both emit the same schema.
#[derive(Debug)]
pub struct MetricsFile {
    out: String,
    runs: usize,
    fields_in_run: usize,
    in_run: bool,
}

impl Default for MetricsFile {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsFile {
    /// Start a metrics file (writes the schema/version header).
    pub fn new() -> Self {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"schema\":");
        json_string(&mut out, SCHEMA_NAME);
        out.push_str(&format!(",\"version\":{SCHEMA_VERSION},\"runs\":["));
        Self {
            out,
            runs: 0,
            fields_in_run: 0,
            in_run: false,
        }
    }

    /// Open the next run entry.
    pub fn begin_run(&mut self) {
        assert!(!self.in_run, "begin_run while a run is open");
        if self.runs > 0 {
            self.out.push(',');
        }
        self.out.push('{');
        self.runs += 1;
        self.fields_in_run = 0;
        self.in_run = true;
    }

    fn key(&mut self, key: &str) {
        assert!(self.in_run, "field outside begin_run/end_run");
        if self.fields_in_run > 0 {
            self.out.push(',');
        }
        self.fields_in_run += 1;
        json_string(&mut self.out, key);
        self.out.push(':');
    }

    /// Add a string field to the open run entry.
    pub fn field_str(&mut self, key: &str, value: &str) {
        self.key(key);
        json_string(&mut self.out, value);
    }

    /// Add a raw JSON fragment (number, bool, `null`, array) field.
    pub fn field_raw(&mut self, key: &str, json_fragment: &str) {
        self.key(key);
        self.out.push_str(json_fragment);
    }

    /// Close the open run entry with its `"report"` payload.
    pub fn end_run(&mut self, report: &RunReport) {
        self.key("report");
        report.write_json(&mut self.out);
        self.out.push('}');
        self.in_run = false;
    }

    /// Finish the file and return the JSON text (with trailing newline).
    pub fn finish(mut self) -> String {
        assert!(!self.in_run, "finish with a run still open");
        self.out.push_str("]}\n");
        self.out
    }
}

/// Append `s` to `out` as a JSON string literal with full escaping.
pub fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn disabled_report_serializes_flagged() {
        let r = RunReport::disabled();
        let json = r.to_json();
        assert_eq!(
            json,
            "{\"enabled\":false,\"counters\":{},\"spans\":[],\"spans_dropped\":0}"
        );
        assert!(r.render_trace().contains("trace disabled"));
    }

    #[test]
    fn live_context_round_trips_counters_and_spans() {
        let ctx = Arc::new(ObsContext::new());
        {
            let _g = ctx.install();
            let _outer = ctx.span("prepare");
            let _inner = ctx.span("csr_build");
            ctx.add(Counter::PrepareGraphBuilds, 1);
            ctx.add(Counter::KernelScalarOps, 99);
        }
        let r = RunReport::from_context(&ctx);
        assert!(r.enabled);
        assert_eq!(r.counter(Counter::PrepareGraphBuilds), 1);
        let json = r.to_json();
        assert!(json.contains("\"prepare.graph_builds\":1"));
        assert!(json.contains("\"kernel.scalar_ops\":99"));
        assert!(json.contains("\"name\":\"prepare\""));
        // csr_build is nested inside prepare's children array.
        let prepare_at = json.find("\"name\":\"prepare\"").expect("prepare span");
        let child_at = json.find("\"name\":\"csr_build\"").expect("child span");
        assert!(child_at > prepare_at);
        let trace = r.render_trace();
        assert!(trace.contains("prepare"));
        assert!(trace.contains("  csr_build"));
    }

    #[test]
    fn json_string_escapes_specials() {
        let mut s = String::new();
        json_string(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn metrics_file_wraps_runs_in_versioned_envelope() {
        let mut f = MetricsFile::new();
        f.begin_run();
        f.field_str("dataset", "lj-s");
        f.field_raw("wall_seconds", "0.25");
        f.field_raw("modeled_seconds", "null");
        f.end_run(&RunReport::disabled());
        f.begin_run();
        f.field_str("dataset", "or-s");
        f.end_run(&RunReport::disabled());
        let json = f.finish();
        assert!(json.starts_with("{\"schema\":\"cnc-metrics\",\"version\":1,\"runs\":["));
        assert!(json.ends_with("]}\n"));
        assert!(json.contains(
            "{\"dataset\":\"lj-s\",\"wall_seconds\":0.25,\"modeled_seconds\":null,\"report\":{"
        ));
        assert!(json.contains("{\"dataset\":\"or-s\",\"report\":{"));
    }

    #[test]
    fn zero_counters_are_omitted() {
        let ctx = ObsContext::new();
        ctx.add(Counter::GpuFaults, 0);
        ctx.add(Counter::GpuBlocks, 2);
        let r = RunReport::from_context(&ctx);
        let json = r.to_json();
        assert!(!json.contains("gpu.faults"));
        assert!(json.contains("\"gpu.blocks\":2"));
    }
}
