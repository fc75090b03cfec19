//! Report export: CSV writers for model reports and the exporter for
//! recorded traces.
//!
//! Figure-style analyses usually end in a plotting tool; these writers
//! serialise a [`ModelReport`] (or a technique-ladder comparison) into
//! machine-readable CSV without adding any dependencies. Free-form fields
//! (layer names, model names, partition labels) are RFC-4180-quoted, so a
//! name containing a comma, quote or newline cannot shift columns.
//!
//! [`TraceExport`] serialises [`LayerTrace`] recordings from
//! [`crate::observe`]: a Chrome trace-event JSON timeline loadable in
//! Perfetto / `chrome://tracing`, and CSV summaries of the derived
//! metrics. It only serialises what a trace already holds — the capped
//! per-core tracks ([`crate::tracks`]) and the run metrics — and never
//! sees an event stream. See `docs/observability.md` for the event
//! taxonomy and formats.

use crate::observe::LayerTrace;
use crate::pipeline::ModelReport;
use crate::tracks::decimate;
use igo_tensor::TensorClass;
use std::borrow::Cow;
use std::fmt::Write as _;

/// RFC-4180 field quoting: a field containing a comma, double quote or
/// newline is wrapped in double quotes with embedded quotes doubled; any
/// other field passes through unchanged.
fn csv_field(raw: &str) -> Cow<'_, str> {
    if raw.contains([',', '"', '\n', '\r']) {
        Cow::Owned(format!("\"{}\"", raw.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(raw)
    }
}

/// Per-layer CSV of one report: one row per distinct layer with cycles
/// and per-class backward traffic.
///
/// Columns: `layer,multiplicity,fwd_cycles,bwd_cycles,order,partition,`
/// then one `read_<class>` and `write_<class>` pair per tensor class.
pub fn layers_csv(report: &ModelReport) -> String {
    let mut out = String::new();
    out.push_str("layer,multiplicity,fwd_cycles,bwd_cycles,order,partition");
    for class in TensorClass::ALL {
        let _ = write!(out, ",read_{0},write_{0}", class.label());
    }
    out.push('\n');
    for layer in &report.layers {
        let partition = layer
            .decision
            .partition
            .map(|(s, p)| format!("{s} x{p}"))
            .unwrap_or_else(|| "-".to_owned());
        let _ = write!(
            out,
            "{},{},{},{},{:?},{}",
            csv_field(&layer.name),
            layer.multiplicity,
            layer.forward.cycles,
            layer.backward.cycles,
            layer.decision.order,
            csv_field(&partition)
        );
        for class in TensorClass::ALL {
            let _ = write!(
                out,
                ",{},{}",
                layer.backward.traffic.read(class),
                layer.backward.traffic.write(class)
            );
        }
        out.push('\n');
    }
    out
}

/// Error from [`ladder_csv`]: a row's variant list disagrees with the
/// header derived from the first row, which would silently shift columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LadderMismatch {
    /// Model name of the offending row.
    pub model: String,
    /// Technique labels the header (first row) declares.
    pub expected: Vec<String>,
    /// Technique labels the offending row actually carries.
    pub found: Vec<String>,
}

impl core::fmt::Display for LadderMismatch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "ladder row for {} has variants {:?}, header expects {:?}",
            self.model, self.found, self.expected
        )
    }
}

impl std::error::Error for LadderMismatch {}

/// Ladder CSV: one row per model with the normalised time of each
/// non-baseline report against the first (baseline) report.
///
/// `reports` groups runs per model: `(baseline, variants)`. Every row must
/// carry the same technique ladder as the first row (the header source);
/// a mismatching row returns [`LadderMismatch`] instead of silently
/// writing misaligned columns.
pub fn ladder_csv(rows: &[(&ModelReport, Vec<&ModelReport>)]) -> Result<String, LadderMismatch> {
    let mut out = String::new();
    out.push_str("model,config");
    let header: Vec<&str> = match rows.first() {
        Some((_, variants)) => variants.iter().map(|v| v.technique.label()).collect(),
        None => Vec::new(),
    };
    for label in &header {
        let _ = write!(out, ",{}", csv_field(label));
    }
    out.push('\n');
    for (base, variants) in rows {
        let found: Vec<&str> = variants.iter().map(|v| v.technique.label()).collect();
        if found != header {
            return Err(LadderMismatch {
                model: base.model.clone(),
                expected: header.iter().map(|s| s.to_string()).collect(),
                found: found.iter().map(|s| s.to_string()).collect(),
            });
        }
        let _ = write!(
            out,
            "{},{}",
            csv_field(&base.model),
            csv_field(&base.config)
        );
        for v in variants {
            let _ = write!(out, ",{:.6}", v.normalized_to(base));
        }
        out.push('\n');
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Trace exporters
// ---------------------------------------------------------------------------

/// One Chrome trace event, serialised manually (no JSON dependency).
#[derive(Debug)]
struct ChromeEvent {
    ts: u64,
    dur: Option<u64>,
    ph: char,
    pid: usize,
    tid: usize,
    name: String,
    /// `(key, raw-JSON value)` pairs for the `args` object.
    args: Vec<(&'static str, String)>,
}

/// JSON string literal (quoted, escaped).
fn json_str(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 2);
    out.push('"');
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Convert one recorded layer into Chrome trace events, appended to
/// `events` under process id `pid`.
///
/// Layout: one *process* per layer, two *threads* per core — `core*2` is
/// the compute timeline (tile-GEMM slices and dX/dW phase begin/end
/// markers), `core*2+1` is the memory timeline (transfer/stream/flush
/// slices, barrier instants) — plus an SPM-occupancy counter track per
/// core. Merged slice counts and byte totals are kept in `args`.
fn push_layer_chrome_events(events: &mut Vec<ChromeEvent>, pid: usize, layer: &LayerTrace) {
    events.push(ChromeEvent {
        ts: 0,
        dur: None,
        ph: 'M',
        pid,
        tid: 0,
        name: "process_name".to_string(),
        args: vec![(
            "name",
            json_str(&format!("{} [{}]", layer.name, layer.technique.label())),
        )],
    });
    for core in &layer.cores {
        let tid_compute = core.core * 2;
        let tid_memory = core.core * 2 + 1;
        for (tid, label) in [(tid_compute, "compute"), (tid_memory, "memory")] {
            events.push(ChromeEvent {
                ts: 0,
                dur: None,
                ph: 'M',
                pid,
                tid,
                name: "thread_name".to_string(),
                args: vec![("name", json_str(&format!("core{} {label}", core.core)))],
            });
        }
        let tracks = &core.tracks;
        for s in &tracks.compute {
            events.push(ChromeEvent {
                ts: s.ts,
                dur: Some(s.dur),
                ph: 'X',
                pid,
                tid: tid_compute,
                name: s.name(),
                args: vec![
                    ("ops", s.ops.to_string()),
                    ("busy_cycles", s.extra.to_string()),
                ],
            });
        }
        for s in &tracks.memory {
            events.push(ChromeEvent {
                ts: s.ts,
                dur: Some(s.dur),
                ph: 'X',
                pid,
                tid: tid_memory,
                name: s.name(),
                args: vec![("ops", s.ops.to_string()), ("bytes", s.extra.to_string())],
            });
        }
        for s in &tracks.phases {
            for (ph, ts) in [('B', s.ts), ('E', s.ts + s.dur)] {
                events.push(ChromeEvent {
                    ts,
                    dur: None,
                    ph,
                    pid,
                    tid: tid_compute,
                    name: s.name(),
                    args: Vec::new(),
                });
            }
        }
        for &(cycle, occupancy) in &tracks.occupancy {
            events.push(ChromeEvent {
                ts: cycle,
                dur: None,
                ph: 'C',
                pid,
                tid: tid_memory,
                name: format!("SPM core{}", core.core),
                args: vec![("bytes", occupancy.to_string())],
            });
        }
        for &cycle in &tracks.barriers {
            events.push(ChromeEvent {
                ts: cycle,
                dur: None,
                ph: 'i',
                pid,
                tid: tid_memory,
                name: "barrier".to_string(),
                args: Vec::new(),
            });
        }
    }
}

/// Render the collected events as the Chrome trace JSON object format.
fn render_chrome_json(mut events: Vec<ChromeEvent>) -> String {
    // Stable sort: equal timestamps keep emission order, so an `E` at the
    // same cycle as the next phase's `B` stays before it.
    events.sort_by_key(|e| e.ts);

    let mut out = String::new();
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":");
        out.push_str(&json_str(&e.name));
        let _ = write!(
            out,
            ",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{}",
            e.ph, e.ts, e.pid, e.tid
        );
        if let Some(dur) = e.dur {
            let _ = write!(out, ",\"dur\":{dur}");
        }
        if !e.args.is_empty() {
            out.push_str(",\"args\":{");
            for (j, (k, v)) in e.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{k}\":{v}");
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// The finished export artifacts of a trace run.
#[derive(Debug, Clone)]
pub struct TraceArtifacts {
    /// Chrome trace-event JSON (Perfetto / `chrome://tracing`).
    pub trace_json: String,
    /// Per-(layer, core, class) metrics CSV.
    pub metrics_csv: String,
    /// dY reuse-ratio-over-time CSV.
    pub dy_reuse_csv: String,
    /// Per-dY-tile reuse CSV.
    pub dy_tiles_csv: String,
}

/// Incremental trace exporter: feed recorded layers one at a time with
/// [`TraceExport::add_layer`], then [`TraceExport::finish`].
///
/// Between layers it holds the serialised CSV rows and the Chrome events
/// of every layer added so far (events are sorted by timestamp only in
/// `finish`). Both are bounded per (layer, core) by the track caps and
/// `max_reuse_points`, except `dy_tiles.csv`, which has one row per dY
/// tile.
#[derive(Debug)]
pub struct TraceExport {
    max_reuse_points: usize,
    layers: usize,
    events: Vec<ChromeEvent>,
    metrics: String,
    reuse: String,
    tiles: String,
}

/// Default per-(layer, core) row cap of the dY reuse time-series CSV.
pub const DEFAULT_REUSE_POINTS: usize = 512;

impl TraceExport {
    /// Start an export; each (layer, core) dY time series is decimated to
    /// at most `max_reuse_points` CSV rows (the final point always kept).
    pub fn new(max_reuse_points: usize) -> Self {
        let mut metrics =
            String::from("layer,core,capacity,high_water,class,accesses,hits,misses,cold");
        for i in 0..igo_npu_sim::REUSE_BUCKETS {
            let _ = write!(metrics, ",d2^{i}");
        }
        metrics.push('\n');
        Self {
            max_reuse_points: max_reuse_points.max(1),
            layers: 0,
            events: Vec::new(),
            metrics,
            reuse: String::from("layer,core,cycle,dy_accesses,dy_hits,ratio\n"),
            tiles: String::from("layer,core,row,col,bytes,accesses,hits,reuse_ratio\n"),
        }
    }

    /// Fold one recorded layer into every export artifact.
    pub fn add_layer(&mut self, layer: &LayerTrace) {
        push_layer_chrome_events(&mut self.events, self.layers, layer);
        self.layers += 1;
        for core in &layer.cores {
            for class in TensorClass::ALL {
                let m = core.metrics.class(class);
                if m.accesses == 0 {
                    continue;
                }
                let _ = write!(
                    self.metrics,
                    "{},{},{},{},{},{},{},{},{}",
                    csv_field(&layer.name),
                    core.core,
                    core.metrics.capacity,
                    core.metrics.occupancy_high_water,
                    class.label(),
                    m.accesses,
                    m.hits,
                    m.misses(),
                    m.histogram.cold
                );
                for bucket in m.histogram.buckets {
                    let _ = write!(self.metrics, ",{bucket}");
                }
                self.metrics.push('\n');
            }
            for p in decimate(&core.metrics.dy_timeline, self.max_reuse_points) {
                let _ = writeln!(
                    self.reuse,
                    "{},{},{},{},{},{:.6}",
                    csv_field(&layer.name),
                    core.core,
                    p.cycle,
                    p.accesses,
                    p.hits,
                    p.ratio()
                );
            }
            for t in &core.metrics.dy_tiles {
                let _ = writeln!(
                    self.tiles,
                    "{},{},{},{},{},{},{},{:.6}",
                    csv_field(&layer.name),
                    core.core,
                    t.key.coord.r,
                    t.key.coord.c,
                    t.bytes,
                    t.accesses,
                    t.hits,
                    t.reuse_ratio()
                );
            }
        }
    }

    /// Render the final artifacts.
    pub fn finish(self) -> TraceArtifacts {
        TraceArtifacts {
            trace_json: render_chrome_json(self.events),
            metrics_csv: self.metrics,
            dy_reuse_csv: self.reuse,
            dy_tiles_csv: self.tiles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::simulate_model;
    use crate::technique::Technique;
    use igo_npu_sim::NpuConfig;
    use igo_workloads::{zoo, ModelId};

    fn reports() -> (ModelReport, ModelReport) {
        let config = NpuConfig::large_single_core();
        let model = zoo::model(ModelId::Ncf, 8);
        (
            simulate_model(&model, &config, Technique::Baseline),
            simulate_model(&model, &config, Technique::Rearrangement),
        )
    }

    /// Minimal RFC-4180 parser for round-trip checks: splits one CSV text
    /// into records of unescaped fields.
    fn parse_csv(text: &str) -> Vec<Vec<String>> {
        let mut rows = Vec::new();
        let mut row: Vec<String> = Vec::new();
        let mut field = String::new();
        let mut quoted = false;
        let mut chars = text.chars().peekable();
        while let Some(c) = chars.next() {
            if quoted {
                match c {
                    '"' if chars.peek() == Some(&'"') => {
                        chars.next();
                        field.push('"');
                    }
                    '"' => quoted = false,
                    _ => field.push(c),
                }
            } else {
                match c {
                    '"' => quoted = true,
                    ',' => row.push(std::mem::take(&mut field)),
                    '\n' => {
                        row.push(std::mem::take(&mut field));
                        rows.push(std::mem::take(&mut row));
                    }
                    '\r' => {}
                    _ => field.push(c),
                }
            }
        }
        if !field.is_empty() || !row.is_empty() {
            row.push(field);
            rows.push(row);
        }
        rows
    }

    #[test]
    fn layers_csv_has_row_per_layer_plus_header() {
        let (base, _) = reports();
        let csv = layers_csv(&base);
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), base.layers.len() + 1);
        assert!(lines[0].starts_with("layer,multiplicity"));
        assert!(lines[0].contains("read_dY"));
        // Every data row has the same number of fields as the header.
        let fields = lines[0].split(',').count();
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), fields, "{line}");
        }
    }

    #[test]
    fn ladder_csv_normalises_against_baseline() {
        let (base, rearr) = reports();
        let csv = ladder_csv(&[(&base, vec![&rearr])]).expect("uniform ladder");
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].ends_with("+Rearrangement"));
        let value: f64 = lines[1].split(',').nth(2).unwrap().parse().unwrap();
        assert!((0.1..2.0).contains(&value));
    }

    #[test]
    fn ladder_csv_rejects_mismatched_variant_sets() {
        let (base, rearr) = reports();
        let rows: Vec<(&ModelReport, Vec<&ModelReport>)> =
            vec![(&base, vec![&rearr]), (&base, vec![])];
        let err = ladder_csv(&rows).expect_err("row 2 drops the variant");
        assert_eq!(err.expected, vec!["+Rearrangement".to_string()]);
        assert!(err.found.is_empty());
        assert!(err.to_string().contains("header expects"));
    }

    #[test]
    fn layers_csv_quotes_hostile_names_round_trip() {
        let (mut base, _) = reports();
        let hostile = [
            "conv1,expansion",
            "say \"hi\"",
            "multi\nline",
            "comma, \"and\" quote",
        ];
        for (layer, name) in base.layers.iter_mut().zip(hostile) {
            layer.name = name.to_string();
        }
        let csv = layers_csv(&base);
        let rows = parse_csv(&csv);
        let header_fields = rows[0].len();
        assert_eq!(rows.len(), base.layers.len() + 1);
        for (row, layer) in rows[1..].iter().zip(&base.layers) {
            assert_eq!(row.len(), header_fields, "{row:?}");
            assert_eq!(row[0], layer.name, "name must survive the round trip");
            assert_eq!(row[1], layer.multiplicity.to_string());
        }
    }

    #[test]
    fn ladder_csv_quotes_hostile_model_names_round_trip() {
        let (mut base, rearr) = reports();
        base.model = "ncf, batch=8".to_string();
        base.config = "server \"1-core\"".to_string();
        let csv = ladder_csv(&[(&base, vec![&rearr])]).expect("uniform ladder");
        let rows = parse_csv(&csv);
        assert_eq!(rows[1][0], base.model);
        assert_eq!(rows[1][1], base.config);
        assert_eq!(rows[1].len(), rows[0].len());
    }
}
