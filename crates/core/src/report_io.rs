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
//! per-core tracks ([`crate::tracks`]) and the run metrics with their
//! capped dY series — and never sees an event stream. Chrome events are
//! kept as 48-byte records (label indices and numbers; layer and thread
//! names sit in one table) until `finish` orders them in place, by
//! timestamp and then emission order, and renders them into one output
//! string reserved up front. See `docs/observability.md` for the event
//! taxonomy and formats.

use crate::observe::LayerTrace;
use crate::pipeline::ModelReport;
use crate::tracks::{Slice, TrackTag};
use igo_npu_sim::{decimate, DY_SERIES_CAP};
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

/// Every static `name` a Chrome event can carry; an event stores its
/// index. [`SPM`] is rendered with the event's core appended.
const LABELS: [&str; 10] = [
    "process_name",
    "thread_name",
    "barrier",
    "SPM core",
    "dX",
    "dW",
    "other",
    "xfer",
    "stream",
    "flush",
];
const PROCESS_NAME: u8 = 0;
const THREAD_NAME: u8 = 1;
const BARRIER: u8 = 2;
const SPM: u8 = 3;

/// The [`LABELS`] index of a track tag's label.
fn label_index<T: TrackTag>(tag: T) -> u8 {
    let label = tag.label();
    LABELS
        .iter()
        .position(|&l| l == label)
        .expect("every track tag's label is in LABELS") as u8
}

/// What a Chrome event's `args` object holds, read from its payloads
/// `a` and `b`.
#[derive(Debug, Clone, Copy)]
enum Args {
    None,
    /// `{"name": …}` of a metadata event: the exporter's name table at
    /// index `a`.
    Name,
    /// `{"ops": a, "busy_cycles": b}` of a compute slice.
    Compute,
    /// `{"ops": a, "bytes": b}` of a memory slice.
    Memory,
    /// `{"bytes": a}` of core `b`'s occupancy counter sample.
    Bytes,
}

/// One Chrome trace event: a 48-byte record that owns no heap memory.
/// Layer and thread names live in the exporter's name table and labels in
/// [`LABELS`]; everything else is a number, serialised manually (no JSON
/// dependency) when the trace is rendered.
#[derive(Debug, Clone, Copy)]
struct ChromeEvent {
    ts: u64,
    /// Rendered for complete (`X`) events only.
    dur: u64,
    a: u64,
    b: u64,
    pid: u32,
    tid: u32,
    /// Emission order: the tie-break among equal timestamps.
    seq: u32,
    ph: u8,
    label: u8,
    /// A coalesced slice that merged slices with different tags: its
    /// name gets a `+` suffix.
    mixed: bool,
    args: Args,
}

/// A trace id as the `u32` an event stores. Layer, core and event counts
/// stay far below 2³²: every event is a resident 48-byte record.
fn id32(n: usize) -> u32 {
    u32::try_from(n).expect("trace ids fit in u32")
}

impl ChromeEvent {
    /// An event whose `args` are `args` over the payloads `(a, b)`; its
    /// `seq` is set when the trace is rendered.
    fn new(
        ph: u8,
        ts: u64,
        pid: usize,
        tid: usize,
        label: u8,
        (args, a, b): (Args, u64, u64),
    ) -> Self {
        Self {
            ts,
            dur: 0,
            a,
            b,
            pid: id32(pid),
            tid: id32(tid),
            seq: 0,
            ph,
            label,
            mixed: false,
            args,
        }
    }

    /// A complete (`X`) event for a timeline slice.
    fn slice<T: TrackTag>(pid: usize, tid: usize, s: &Slice<T>, args: Args) -> Self {
        Self {
            dur: s.dur,
            mixed: s.mixed,
            ..Self::new(
                b'X',
                s.ts,
                pid,
                tid,
                label_index(s.tag),
                (args, s.ops, s.extra),
            )
        }
    }
}

/// Append `raw` as a JSON string literal (quoted, escaped).
fn push_json_str(out: &mut String, raw: &str) {
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
}

/// Convert one recorded layer into Chrome trace events, appended to
/// `events` under process id `pid`; the layer's process and thread names
/// are appended to `names`.
///
/// Layout: one *process* per layer, two *threads* per core — `core*2` is
/// the compute timeline (tile-GEMM slices and dX/dW phase begin/end
/// markers), `core*2+1` is the memory timeline (transfer/stream/flush
/// slices, barrier instants) — plus an SPM-occupancy counter track per
/// core. Merged slice counts and byte totals are kept in `args`.
fn push_layer_chrome_events(
    events: &mut Vec<ChromeEvent>,
    names: &mut Vec<String>,
    pid: usize,
    layer: &LayerTrace,
) {
    let mut name_event = |events: &mut Vec<ChromeEvent>, tid, label, name: String| {
        let args = (Args::Name, names.len() as u64, 0);
        events.push(ChromeEvent::new(b'M', 0, pid, tid, label, args));
        names.push(name);
    };
    name_event(
        events,
        0,
        PROCESS_NAME,
        format!("{} [{}]", layer.name, layer.technique.label()),
    );
    for core in &layer.cores {
        let tid_compute = core.core * 2;
        let tid_memory = core.core * 2 + 1;
        for (tid, label) in [(tid_compute, "compute"), (tid_memory, "memory")] {
            name_event(
                events,
                tid,
                THREAD_NAME,
                format!("core{} {label}", core.core),
            );
        }
        let tracks = &core.tracks;
        events.extend(
            tracks
                .compute
                .iter()
                .map(|s| ChromeEvent::slice(pid, tid_compute, s, Args::Compute)),
        );
        events.extend(
            tracks
                .memory
                .iter()
                .map(|s| ChromeEvent::slice(pid, tid_memory, s, Args::Memory)),
        );
        for s in &tracks.phases {
            let label = label_index(s.tag);
            for (ph, ts) in [(b'B', s.ts), (b'E', s.ts + s.dur)] {
                let e = ChromeEvent::new(ph, ts, pid, tid_compute, label, (Args::None, 0, 0));
                events.push(ChromeEvent {
                    mixed: s.mixed,
                    ..e
                });
            }
        }
        events.extend(tracks.occupancy.iter().map(|&(cycle, bytes)| {
            let args = (Args::Bytes, bytes, core.core as u64);
            ChromeEvent::new(b'C', cycle, pid, tid_memory, SPM, args)
        }));
        events.extend(tracks.barriers.iter().map(|&cycle| {
            let args = (Args::None, 0, 0);
            ChromeEvent::new(b'i', cycle, pid, tid_memory, BARRIER, args)
        }));
    }
}

/// Rendered bytes reserved per event: a rendered event averages 85–89
/// bytes on the edge traces of faster-rcnn, resnet50 and bert-tiny, so
/// the output rarely has to grow.
const BYTES_PER_EVENT: usize = 100;

/// Render the collected events as the Chrome trace JSON object format,
/// looking metadata names up in `names`.
fn render_chrome_json(mut events: Vec<ChromeEvent>, names: &[String]) -> String {
    // Equal timestamps keep emission order, so an `E` at the same cycle as
    // the next phase's `B` stays before it. Sorting by `(ts, seq)` gives
    // that stable order in place, without a stable sort's scratch copy.
    for (seq, e) in events.iter_mut().enumerate() {
        e.seq = id32(seq);
    }
    events.sort_unstable_by_key(|e| (e.ts, e.seq));

    let names_len: usize = names.iter().map(String::len).sum();
    let mut out = String::with_capacity(events.len() * BYTES_PER_EVENT + names_len + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":\"");
        // Static labels need no JSON escaping.
        out.push_str(LABELS[e.label as usize]);
        if e.label == SPM {
            let _ = write!(out, "{}", e.b);
        }
        if e.mixed {
            out.push('+');
        }
        let _ = write!(
            out,
            "\",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{}",
            e.ph as char, e.ts, e.pid, e.tid
        );
        if e.ph == b'X' {
            let _ = write!(out, ",\"dur\":{}", e.dur);
        }
        let (a, b) = (e.a, e.b);
        match e.args {
            Args::None => {}
            Args::Name => {
                out.push_str(",\"args\":{\"name\":");
                push_json_str(&mut out, &names[a as usize]);
                out.push('}');
            }
            Args::Compute => {
                let _ = write!(out, ",\"args\":{{\"ops\":{a},\"busy_cycles\":{b}}}");
            }
            Args::Memory => {
                let _ = write!(out, ",\"args\":{{\"ops\":{a},\"bytes\":{b}}}");
            }
            Args::Bytes => {
                let _ = write!(out, ",\"args\":{{\"bytes\":{a}}}");
            }
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
/// of every layer added so far (events are ordered by timestamp only in
/// `finish`, with an in-place sort that allocates nothing). Both are
/// bounded per (layer, core) by the track caps and the dY series cap,
/// except `dy_tiles.csv`, which has one row per dY tile. A Chrome event
/// is a 48-byte record; the only strings it refers to, the layer and
/// thread names, sit in one table.
#[derive(Debug)]
pub struct TraceExport {
    max_reuse_points: usize,
    layers: usize,
    events: Vec<ChromeEvent>,
    names: Vec<String>,
    metrics: String,
    reuse: String,
    tiles: String,
}

/// Default per-(layer, core) row cap of the dY reuse time-series CSV: the
/// cap the recorder already applies to the dY series.
pub const DEFAULT_REUSE_POINTS: usize = DY_SERIES_CAP;

impl TraceExport {
    /// Start an export writing at most `max_reuse_points` dY reuse CSV rows
    /// per (layer, core), plus the final point.
    ///
    /// A recorded dY series is already decimated to [`DY_SERIES_CAP`]
    /// points plus the final one ([`igo_npu_sim::MetricsFold`]). A value at
    /// or above that cap, such as [`DEFAULT_REUSE_POINTS`], writes the
    /// stored series unchanged; a smaller value thins it further with the
    /// same even-stride decimation.
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
            names: Vec::new(),
            metrics,
            reuse: String::from("layer,core,cycle,dy_accesses,dy_hits,ratio\n"),
            tiles: String::from("layer,core,row,col,bytes,accesses,hits,reuse_ratio\n"),
        }
    }

    /// Fold one recorded layer into every export artifact.
    pub fn add_layer(&mut self, layer: &LayerTrace) {
        push_layer_chrome_events(&mut self.events, &mut self.names, self.layers, layer);
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
            let series = &core.metrics.dy_timeline;
            let thinned = (self.max_reuse_points < DY_SERIES_CAP)
                .then(|| decimate(series, self.max_reuse_points));
            for p in thinned.as_deref().unwrap_or(series) {
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
            trace_json: render_chrome_json(self.events, &self.names),
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
    use crate::tracks::MemKind;
    use igo_npu_sim::{NpuConfig, Phase};
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
    fn reuse_rows_follow_max_reuse_points() {
        let context = crate::SimContext::new(crate::SimOptions::sequential());
        let trace = context.trace_layer(
            "layer",
            igo_tensor::GemmShape::new(1024, 512, 512),
            1.0,
            &NpuConfig::small_edge(),
            Technique::Interleaving,
            false,
        );
        let metrics = &trace.cores[0].metrics;
        let stored = &metrics.dy_timeline;
        // The recorder already capped the series.
        assert!(metrics.class(TensorClass::OutGrad).accesses > DY_SERIES_CAP as u64);
        assert!((17..=DY_SERIES_CAP + 1).contains(&stored.len()));
        let reuse_rows = |max| {
            let mut export = TraceExport::new(max);
            export.add_layer(&trace);
            export.finish().dy_reuse_csv
        };
        // At or above the cap the stored series is written unchanged.
        let full = reuse_rows(DEFAULT_REUSE_POINTS);
        assert_eq!(full.lines().count(), 1 + stored.len());
        assert_eq!(reuse_rows(10 * DEFAULT_REUSE_POINTS), full);
        // Below it, the stored series is thinned further, last point kept.
        let thin = reuse_rows(16);
        assert_eq!(thin.lines().count(), 1 + decimate(stored, 16).len());
        assert_eq!(thin.lines().last(), full.lines().last());
    }

    #[test]
    fn chrome_events_stay_compact() {
        assert!(std::mem::size_of::<ChromeEvent>() <= 48);
    }

    #[test]
    fn every_track_tag_has_a_label() {
        for phase in [Phase::Dx, Phase::Dw, Phase::Other] {
            assert_eq!(LABELS[label_index(phase) as usize], phase.label());
        }
        for kind in [MemKind::Xfer, MemKind::Stream, MemKind::Flush] {
            assert_eq!(LABELS[label_index(kind) as usize], kind.label());
        }
    }

    /// Events with equal timestamps, across layers (pids) and threads
    /// (tids), render in emission order: a phase's `E` stays before the
    /// next phase's `B` on the same cycle.
    #[test]
    fn equal_timestamps_render_in_emission_order() {
        let none = (Args::None, 0, 0);
        let dx = label_index(Phase::Dx);
        let dw = label_index(Phase::Dw);
        let slice = Slice {
            ts: 10,
            dur: 4,
            tag: MemKind::Xfer,
            mixed: true,
            ops: 2,
            extra: 96,
        };
        let events = vec![
            ChromeEvent::new(b'M', 0, 1, 0, PROCESS_NAME, (Args::Name, 1, 0)),
            ChromeEvent::new(b'E', 10, 1, 2, dw, none),
            ChromeEvent::new(b'B', 0, 0, 0, dx, none),
            ChromeEvent::new(b'E', 10, 0, 0, dx, none),
            ChromeEvent::slice(1, 3, &slice, Args::Memory),
            ChromeEvent::new(b'B', 10, 0, 0, dw, none),
            ChromeEvent::new(b'C', 10, 0, 7, SPM, (Args::Bytes, 64, 3)),
            ChromeEvent::new(b'i', 10, 1, 3, BARRIER, none),
            ChromeEvent::new(b'M', 0, 0, 0, PROCESS_NAME, (Args::Name, 0, 0)),
        ];
        let names = ["layer0".to_owned(), "layer1".to_owned()];
        let json = render_chrome_json(events, &names);
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(
            lines[1..lines.len() - 1],
            [
                r#"{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"layer1"}},"#,
                r#"{"name":"dX","ph":"B","ts":0,"pid":0,"tid":0},"#,
                r#"{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"layer0"}},"#,
                r#"{"name":"dW","ph":"E","ts":10,"pid":1,"tid":2},"#,
                r#"{"name":"dX","ph":"E","ts":10,"pid":0,"tid":0},"#,
                r#"{"name":"xfer+","ph":"X","ts":10,"pid":1,"tid":3,"dur":4,"args":{"ops":2,"bytes":96}},"#,
                r#"{"name":"dW","ph":"B","ts":10,"pid":0,"tid":0},"#,
                r#"{"name":"SPM core3","ph":"C","ts":10,"pid":0,"tid":7,"args":{"bytes":64}},"#,
                r#"{"name":"barrier","ph":"i","ts":10,"pid":1,"tid":3}"#,
            ]
        );

        // Enough ties that the sort cannot fall back to an insertion sort:
        // within each timestamp, tids (the emission order) still ascend.
        let events: Vec<ChromeEvent> = (0..500)
            .map(|i| ChromeEvent::new(b'i', (i * 7 % 3) as u64, 0, i, BARRIER, none))
            .collect();
        let json = render_chrome_json(events, &[]);
        let order: Vec<(u64, usize)> = json
            .lines()
            .filter_map(|l| {
                let field = |key: &str| l.split(key).nth(1)?.split([',', '}']).next();
                Some((
                    field("\"ts\":")?.parse().ok()?,
                    field("\"tid\":")?.parse().ok()?,
                ))
            })
            .collect();
        let mut expected = order.clone();
        expected.sort_unstable();
        assert_eq!(order.len(), 500);
        assert_eq!(order, expected);
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
