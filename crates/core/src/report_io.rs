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
//! capped dY series — and never sees an event stream. It borrows the
//! layers and writes each artifact into any [`io::Write`], holding nothing
//! per event: each track is already in timestamp order, so the timeline
//! is a k-way merge of the layers' tracks, rendered as it is merged. See
//! `docs/observability.md` for the event taxonomy and formats.

use crate::observe::{CoreTrace, LayerTrace};
use crate::pipeline::ModelReport;
use crate::tracks::{Slice, TrackTag};
use igo_npu_sim::{decimate, Phase, DY_SERIES_CAP};
use igo_tensor::TensorClass;
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::fmt::Write as _;
use std::io;

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
    /// `{"name": …}` of a metadata event: its layer's process name, or
    /// the name of its thread.
    Name,
    /// `{"ops": a, "busy_cycles": b}` of a compute slice.
    Compute,
    /// `{"ops": a, "bytes": b}` of a memory slice.
    Memory,
    /// `{"bytes": a}` of core `b`'s occupancy counter sample.
    Bytes,
}

/// One Chrome trace event, built from a track entry when it is rendered.
/// Labels live in [`LABELS`] and names are read from the layer the `pid`
/// indexes; everything else is a number, serialised manually (no JSON
/// dependency).
#[derive(Debug, Clone, Copy)]
struct ChromeEvent {
    ts: u64,
    /// Rendered for complete (`X`) events only.
    dur: u64,
    a: u64,
    b: u64,
    /// The layer's index in the export.
    pid: usize,
    /// `core * 2` for a core's compute thread, `core * 2 + 1` for its
    /// memory thread.
    tid: usize,
    ph: u8,
    label: u8,
    /// A coalesced slice that merged slices with different tags: its
    /// name gets a `+` suffix.
    mixed: bool,
    args: Args,
}

impl ChromeEvent {
    /// An event whose `args` are `args` over the payloads `(a, b)`.
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
            pid,
            tid,
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

    /// The `B` (`end` false) or `E` (`end` true) event of a phase span.
    fn phase(pid: usize, tid: usize, s: &Slice<Phase>, end: bool) -> Self {
        let (ph, ts) = if end {
            (b'E', s.ts + s.dur)
        } else {
            (b'B', s.ts)
        };
        Self {
            mixed: s.mixed,
            ..Self::new(ph, ts, pid, tid, label_index(s.tag), (Args::None, 0, 0))
        }
    }
}

/// Write the characters of `raw` escaped for a JSON string literal.
fn write_json_escaped(out: &mut impl io::Write, raw: &str) -> io::Result<()> {
    for c in raw.chars() {
        match c {
            '"' => out.write_all(b"\\\"")?,
            '\\' => out.write_all(b"\\\\")?,
            '\n' => out.write_all(b"\\n")?,
            '\r' => out.write_all(b"\\r")?,
            '\t' => out.write_all(b"\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_all(c.encode_utf8(&mut [0; 4]).as_bytes())?,
        }
    }
    Ok(())
}

/// Write `v` in decimal, byte for byte as `write!(out, "{v}")` does,
/// without going through `core::fmt`: `trace.json` is mostly integers.
fn write_u64(out: &mut impl io::Write, mut v: u64) -> io::Result<()> {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.write_all(&digits[start..])
}

/// Write `key` and then `v` as a JSON member (`key` carries the leading
/// separator and the colon).
fn write_member(out: &mut impl io::Write, key: &[u8], v: u64) -> io::Result<()> {
    out.write_all(key)?;
    write_u64(out, v)
}

/// Write one event as a Chrome trace-event JSON object, reading metadata
/// names from `layers`.
fn write_event(
    out: &mut impl io::Write,
    e: &ChromeEvent,
    layers: &[&LayerTrace],
) -> io::Result<()> {
    // Static labels need no JSON escaping.
    out.write_all(b"\n{\"name\":\"")?;
    out.write_all(LABELS[e.label as usize].as_bytes())?;
    if e.label == SPM {
        write_u64(out, e.b)?;
    }
    if e.mixed {
        out.write_all(b"+")?;
    }
    out.write_all(b"\",\"ph\":\"")?;
    out.write_all(&[e.ph])?;
    write_member(out, b"\",\"ts\":", e.ts)?;
    write_member(out, b",\"pid\":", e.pid as u64)?;
    write_member(out, b",\"tid\":", e.tid as u64)?;
    if e.ph == b'X' {
        write_member(out, b",\"dur\":", e.dur)?;
    }
    let (a, b) = (e.a, e.b);
    match e.args {
        Args::None => {}
        Args::Name if e.label == PROCESS_NAME => {
            let layer = layers[e.pid];
            out.write_all(b",\"args\":{\"name\":\"")?;
            write_json_escaped(out, &layer.name)?;
            out.write_all(b" [")?;
            write_json_escaped(out, layer.technique.label())?;
            out.write_all(b"]\"}")?;
        }
        Args::Name => {
            let thread = if e.tid.is_multiple_of(2) {
                "compute"
            } else {
                "memory"
            };
            write!(out, ",\"args\":{{\"name\":\"core{} {thread}\"}}", e.tid / 2)?;
        }
        Args::Compute => {
            write_member(out, b",\"args\":{\"ops\":", a)?;
            write_member(out, b",\"busy_cycles\":", b)?;
            out.write_all(b"}")?;
        }
        Args::Memory => {
            write_member(out, b",\"args\":{\"ops\":", a)?;
            write_member(out, b",\"bytes\":", b)?;
            out.write_all(b"}")?;
        }
        Args::Bytes => {
            write_member(out, b",\"args\":{\"bytes\":", a)?;
            out.write_all(b"}")?;
        }
    }
    out.write_all(b"}")
}

/// Write `events`, in the order given, as the Chrome trace JSON object
/// format.
fn write_chrome_json(
    out: &mut impl io::Write,
    events: impl IntoIterator<Item = ChromeEvent>,
    layers: &[&LayerTrace],
) -> io::Result<()> {
    out.write_all(b"{\"traceEvents\":[")?;
    for (i, e) in events.into_iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write_event(out, &e, layers)?;
    }
    out.write_all(b"\n],\"displayTimeUnit\":\"ms\"}\n")
}

/// One of a core's tracks, as a timestamp-ordered run of Chrome events.
#[derive(Debug, Clone, Copy)]
enum Track {
    /// The compute and memory thread names.
    Threads,
    Compute,
    Memory,
    /// Each phase span's `B` and `E`.
    Phases,
    Occupancy,
    Barriers,
}

impl Track {
    /// A core's tracks in emission order.
    const ALL: [Track; 6] = [
        Track::Threads,
        Track::Compute,
        Track::Memory,
        Track::Phases,
        Track::Occupancy,
        Track::Barriers,
    ];
}

/// One source of the merge: a timestamp-ordered run of one layer's Chrome
/// events, rendered on demand from the track it reads.
///
/// Layout: one *process* per layer, two *threads* per core — `core*2` is
/// the compute timeline (tile-GEMM slices and dX/dW phase begin/end
/// markers), `core*2+1` is the memory timeline (transfer/stream/flush
/// slices, barrier instants) — plus an SPM-occupancy counter track per
/// core. Merged slice counts and byte totals are kept in `args`.
#[derive(Debug, Clone, Copy)]
struct Source<'a> {
    pid: usize,
    /// `None` for the layer's process name.
    core: Option<(&'a CoreTrace, Track)>,
}

impl Source<'_> {
    /// Every source of `layers` in emission order: each layer's process
    /// name, then each core's tracks in [`Track::ALL`] order.
    fn of_layers<'a>(layers: &[&'a LayerTrace]) -> Vec<Source<'a>> {
        let mut sources = Vec::new();
        for (pid, layer) in layers.iter().enumerate() {
            sources.push(Source { pid, core: None });
            for core in &layer.cores {
                for track in Track::ALL {
                    sources.push(Source {
                        pid,
                        core: Some((core, track)),
                    });
                }
            }
        }
        sources
    }

    fn len(&self) -> usize {
        let Some((core, track)) = self.core else {
            return 1;
        };
        let t = &core.tracks;
        match track {
            Track::Threads => 2,
            Track::Compute => t.compute.len(),
            Track::Memory => t.memory.len(),
            Track::Phases => 2 * t.phases.len(),
            Track::Occupancy => t.occupancy.len(),
            Track::Barriers => t.barriers.len(),
        }
    }

    /// The source's `i`-th event.
    fn event(&self, i: usize) -> ChromeEvent {
        let pid = self.pid;
        let Some((core, track)) = self.core else {
            return ChromeEvent::new(b'M', 0, pid, 0, PROCESS_NAME, (Args::Name, 0, 0));
        };
        let (compute, memory) = (core.core * 2, core.core * 2 + 1);
        let t = &core.tracks;
        match track {
            Track::Threads => {
                ChromeEvent::new(b'M', 0, pid, compute + i, THREAD_NAME, (Args::Name, 0, 0))
            }
            Track::Compute => ChromeEvent::slice(pid, compute, &t.compute[i], Args::Compute),
            Track::Memory => ChromeEvent::slice(pid, memory, &t.memory[i], Args::Memory),
            Track::Phases => ChromeEvent::phase(pid, compute, &t.phases[i / 2], i % 2 == 1),
            Track::Occupancy => {
                let (cycle, bytes) = t.occupancy[i];
                let args = (Args::Bytes, bytes, core.core as u64);
                ChromeEvent::new(b'C', cycle, pid, memory, SPM, args)
            }
            Track::Barriers => {
                let args = (Args::None, 0, 0);
                ChromeEvent::new(b'i', t.barriers[i], pid, memory, BARRIER, args)
            }
        }
    }
}

/// The Chrome events of a set of layers in timestamp order: a k-way merge
/// of their [`Source`]s, each already in timestamp order. Equal
/// timestamps come in emission order (source index, then position), so
/// an `E` at the same cycle as the next phase's `B` stays before it. It
/// holds one cursor per source and nothing per event.
struct Merge<'a> {
    /// The non-empty sources, in emission order.
    sources: Vec<Source<'a>>,
    /// Each source's position and event at its cursor.
    heads: Vec<(usize, ChromeEvent)>,
    /// `(timestamp, source)` of each unfinished source's head.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl<'a> Merge<'a> {
    fn new(layers: &[&'a LayerTrace]) -> Self {
        let mut sources = Source::of_layers(layers);
        sources.retain(|s| s.len() > 0);
        let heads: Vec<_> = sources.iter().map(|s| (0, s.event(0))).collect();
        let heap = heads
            .iter()
            .enumerate()
            .map(|(k, (_, e))| Reverse((e.ts, k)))
            .collect();
        Self {
            sources,
            heads,
            heap,
        }
    }
}

impl Iterator for Merge<'_> {
    type Item = ChromeEvent;

    fn next(&mut self) -> Option<ChromeEvent> {
        let mut top = self.heap.peek_mut()?;
        let Reverse((ts, k)) = *top;
        let source = &self.sources[k];
        let (pos, head) = &mut self.heads[k];
        *pos += 1;
        if *pos == source.len() {
            PeekMut::pop(top);
            return Some(*head);
        }
        let event = std::mem::replace(head, source.event(*pos));
        debug_assert!(head.ts >= ts, "a merged source goes back in time");
        *top = Reverse((head.ts, k));
        Some(event)
    }
}

/// One file a trace export writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// Chrome trace-event JSON (Perfetto / `chrome://tracing`).
    TraceJson,
    /// Per-(layer, core, class) metrics CSV.
    MetricsCsv,
    /// dY reuse-ratio-over-time CSV.
    DyReuseCsv,
    /// Per-dY-tile reuse CSV.
    DyTilesCsv,
}

impl Artifact {
    /// Every artifact, in [`TraceArtifacts`] field order.
    pub const ALL: [Artifact; 4] = [
        Artifact::TraceJson,
        Artifact::MetricsCsv,
        Artifact::DyReuseCsv,
        Artifact::DyTilesCsv,
    ];

    /// The artifact's file name.
    pub fn file_name(self) -> &'static str {
        match self {
            Artifact::TraceJson => "trace.json",
            Artifact::MetricsCsv => "metrics.csv",
            Artifact::DyReuseCsv => "dy_reuse.csv",
            Artifact::DyTilesCsv => "dy_tiles.csv",
        }
    }
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

/// Trace exporter: add recorded layers in order with
/// [`TraceExport::add_layer`], then write each [`Artifact`] into any
/// [`io::Write`] with [`TraceExport::write`], or render all four into
/// strings with [`TraceExport::finish`].
///
/// The export borrows the layers and renders every artifact straight from
/// them, so it holds nothing per event: `trace.json` is a merge of the
/// layers' capped tracks, which are already in timestamp order. Each
/// track is bounded per (layer, core) by its cap and the dY series by its
/// cap; `dy_tiles.csv` has one row per dY tile.
#[derive(Debug)]
pub struct TraceExport<'a> {
    max_reuse_points: usize,
    layers: Vec<&'a LayerTrace>,
}

/// Default per-(layer, core) row cap of the dY reuse time-series CSV: the
/// cap the recorder already applies to the dY series.
pub const DEFAULT_REUSE_POINTS: usize = DY_SERIES_CAP;

impl<'a> TraceExport<'a> {
    /// Start an export writing at most `max_reuse_points` dY reuse CSV rows
    /// per (layer, core), plus the final point.
    ///
    /// A recorded dY series is already decimated to [`DY_SERIES_CAP`]
    /// points plus the final one ([`igo_npu_sim::MetricsFold`]). A value at
    /// or above that cap, such as [`DEFAULT_REUSE_POINTS`], writes the
    /// stored series unchanged; a smaller value thins it further with the
    /// same even-stride decimation.
    pub fn new(max_reuse_points: usize) -> Self {
        Self {
            max_reuse_points: max_reuse_points.max(1),
            layers: Vec::new(),
        }
    }

    /// Add the next recorded layer to the export.
    pub fn add_layer(&mut self, layer: &'a LayerTrace) {
        self.layers.push(layer);
    }

    /// Write `artifact` of every layer added so far into `out`.
    pub fn write(&self, artifact: Artifact, out: &mut impl io::Write) -> io::Result<()> {
        match artifact {
            Artifact::TraceJson => write_chrome_json(out, Merge::new(&self.layers), &self.layers),
            Artifact::MetricsCsv => self.write_metrics(out),
            Artifact::DyReuseCsv => self.write_dy_reuse(out),
            Artifact::DyTilesCsv => self.write_dy_tiles(out),
        }
    }

    fn write_metrics(&self, out: &mut impl io::Write) -> io::Result<()> {
        out.write_all(b"layer,core,capacity,high_water,class,accesses,hits,misses,cold")?;
        for i in 0..igo_npu_sim::REUSE_BUCKETS {
            write!(out, ",d2^{i}")?;
        }
        out.write_all(b"\n")?;
        for layer in &self.layers {
            for core in &layer.cores {
                for class in TensorClass::ALL {
                    let m = core.metrics.class(class);
                    if m.accesses == 0 {
                        continue;
                    }
                    write!(
                        out,
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
                    )?;
                    for bucket in m.histogram.buckets {
                        write!(out, ",{bucket}")?;
                    }
                    out.write_all(b"\n")?;
                }
            }
        }
        Ok(())
    }

    fn write_dy_reuse(&self, out: &mut impl io::Write) -> io::Result<()> {
        out.write_all(b"layer,core,cycle,dy_accesses,dy_hits,ratio\n")?;
        for layer in &self.layers {
            for core in &layer.cores {
                let series = &core.metrics.dy_timeline;
                let thinned = (self.max_reuse_points < DY_SERIES_CAP)
                    .then(|| decimate(series, self.max_reuse_points));
                for p in thinned.as_deref().unwrap_or(series) {
                    writeln!(
                        out,
                        "{},{},{},{},{},{:.6}",
                        csv_field(&layer.name),
                        core.core,
                        p.cycle,
                        p.accesses,
                        p.hits,
                        p.ratio()
                    )?;
                }
            }
        }
        Ok(())
    }

    fn write_dy_tiles(&self, out: &mut impl io::Write) -> io::Result<()> {
        out.write_all(b"layer,core,row,col,bytes,accesses,hits,reuse_ratio\n")?;
        for layer in &self.layers {
            for core in &layer.cores {
                for t in &core.metrics.dy_tiles {
                    writeln!(
                        out,
                        "{},{},{},{},{},{},{},{:.6}",
                        csv_field(&layer.name),
                        core.core,
                        t.key.coord.r,
                        t.key.coord.c,
                        t.bytes,
                        t.accesses,
                        t.hits,
                        t.reuse_ratio()
                    )?;
                }
            }
        }
        Ok(())
    }

    /// Render `artifact` into a string.
    fn render(&self, artifact: Artifact) -> String {
        let mut out = Vec::new();
        self.write(artifact, &mut out)
            .expect("writing into memory cannot fail");
        String::from_utf8(out).expect("the artifacts are UTF-8")
    }

    /// Render every artifact into a string.
    pub fn finish(self) -> TraceArtifacts {
        let [trace_json, metrics_csv, dy_reuse_csv, dy_tiles_csv] =
            Artifact::ALL.map(|a| self.render(a));
        TraceArtifacts {
            trace_json,
            metrics_csv,
            dy_reuse_csv,
            dy_tiles_csv,
        }
    }
}

/// The merge's test oracle, a sort-based renderer: every event of every
/// layer collected in emission order, stably sorted by timestamp, then
/// written.
#[cfg(test)]
fn sorted_chrome_json(layers: &[&LayerTrace]) -> String {
    let mut events = Vec::new();
    for (pid, layer) in layers.iter().enumerate() {
        push_layer_chrome_events(&mut events, pid, layer);
    }
    events.sort_by_key(|e| e.ts);
    let mut out = Vec::new();
    write_chrome_json(&mut out, events, layers).expect("writing into memory cannot fail");
    String::from_utf8(out).expect("the trace is UTF-8")
}

/// Append one recorded layer's Chrome events to `events` under process id
/// `pid`, in emission order.
#[cfg(test)]
fn push_layer_chrome_events(events: &mut Vec<ChromeEvent>, pid: usize, layer: &LayerTrace) {
    let name = (Args::Name, 0, 0);
    events.push(ChromeEvent::new(b'M', 0, pid, 0, PROCESS_NAME, name));
    for core in &layer.cores {
        let tid_compute = core.core * 2;
        let tid_memory = core.core * 2 + 1;
        for tid in [tid_compute, tid_memory] {
            events.push(ChromeEvent::new(b'M', 0, pid, tid, THREAD_NAME, name));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{simulate_model, LayerDecision};
    use crate::schedule::BackwardOrder;
    use crate::technique::Technique;
    use crate::tracks::{CoreTracks, MemKind};
    use igo_npu_sim::{NpuConfig, RunMetrics, SimReport};
    use igo_tensor::rng::SplitMix64;
    use igo_workloads::{zoo, ModelId};

    #[test]
    fn integers_write_as_fmt_writes_them() {
        let mut rng = SplitMix64::new(10);
        let edges = [0, 1, 9, 10, 99, 100, 999_999, u64::MAX - 1, u64::MAX];
        let random = (0..10_000).map(|i| rng.next_u64() >> (i % 64));
        for v in edges.into_iter().chain(random) {
            let mut out = Vec::new();
            write_u64(&mut out, v).unwrap();
            assert_eq!(out, v.to_string().into_bytes());
        }
    }

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
    fn every_track_tag_has_a_label() {
        for phase in [Phase::Dx, Phase::Dw, Phase::Other] {
            assert_eq!(LABELS[label_index(phase) as usize], phase.label());
        }
        for kind in [MemKind::Xfer, MemKind::Stream, MemKind::Flush] {
            assert_eq!(LABELS[label_index(kind) as usize], kind.label());
        }
    }

    /// A recorded layer named `name` whose cores hold `tracks`, and
    /// nothing else the Chrome trace reads.
    fn layer_of_tracks(name: &str, tracks: Vec<CoreTracks>) -> LayerTrace {
        LayerTrace {
            name: name.to_owned(),
            gemm: igo_tensor::GemmShape::new(1, 1, 1),
            technique: Technique::Interleaving,
            decision: LayerDecision {
                order: BackwardOrder::Interleaved,
                partition: None,
            },
            report: SimReport::default(),
            capacity: 0,
            cores: tracks
                .into_iter()
                .enumerate()
                .map(|(core, tracks)| CoreTrace {
                    core,
                    schedule: String::new(),
                    event_count: 0,
                    metrics: RunMetrics::default(),
                    tracks,
                    report: SimReport::default(),
                })
                .collect(),
        }
    }

    /// The merged `trace.json` of `layers`, checked byte for byte against
    /// the sort-based oracle.
    fn merged_chrome_json(layers: &[LayerTrace]) -> String {
        let mut export = TraceExport::new(DEFAULT_REUSE_POINTS);
        for layer in layers {
            export.add_layer(layer);
        }
        let merged = export.render(Artifact::TraceJson);
        assert_eq!(merged, sorted_chrome_json(&export.layers));
        merged
    }

    fn phase(ts: u64, dur: u64, tag: Phase) -> Slice<Phase> {
        Slice {
            ts,
            dur,
            tag,
            mixed: false,
            ops: 1,
            extra: 0,
        }
    }

    /// Events with equal timestamps, across layers (pids), cores and
    /// threads (tids), render in emission order: a phase's `E` stays
    /// before the next phase's `B` on the same cycle, and a core's thread
    /// names come after the earlier core's events at cycle 0.
    #[test]
    fn equal_timestamps_render_in_emission_order() {
        let layer0 = CoreTracks {
            phases: vec![phase(0, 10, Phase::Dx), phase(10, 5, Phase::Dw)],
            occupancy: vec![(10, 64)],
            ..CoreTracks::default()
        };
        let layer1_core0 = CoreTracks {
            memory: vec![Slice {
                ts: 10,
                dur: 4,
                tag: MemKind::Xfer,
                mixed: true,
                ops: 2,
                extra: 96,
            }],
            occupancy: vec![(0, 32)],
            barriers: vec![10],
            ..CoreTracks::default()
        };
        let layer1_core1 = CoreTracks {
            phases: vec![phase(0, 10, Phase::Dw)],
            ..CoreTracks::default()
        };
        let json = merged_chrome_json(&[
            layer_of_tracks("layer0", vec![layer0]),
            layer_of_tracks("layer\"1\"", vec![layer1_core0, layer1_core1]),
        ]);
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines[0], r#"{"traceEvents":["#);
        assert_eq!(
            lines[1..lines.len() - 1],
            [
                r#"{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"layer0 [Interleaving]"}},"#,
                r#"{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"core0 compute"}},"#,
                r#"{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":1,"args":{"name":"core0 memory"}},"#,
                r#"{"name":"dX","ph":"B","ts":0,"pid":0,"tid":0},"#,
                r#"{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"layer\"1\" [Interleaving]"}},"#,
                r#"{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"core0 compute"}},"#,
                r#"{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"core0 memory"}},"#,
                r#"{"name":"SPM core0","ph":"C","ts":0,"pid":1,"tid":1,"args":{"bytes":32}},"#,
                r#"{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":2,"args":{"name":"core1 compute"}},"#,
                r#"{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":3,"args":{"name":"core1 memory"}},"#,
                r#"{"name":"dW","ph":"B","ts":0,"pid":1,"tid":2},"#,
                r#"{"name":"dX","ph":"E","ts":10,"pid":0,"tid":0},"#,
                r#"{"name":"dW","ph":"B","ts":10,"pid":0,"tid":0},"#,
                r#"{"name":"SPM core0","ph":"C","ts":10,"pid":0,"tid":1,"args":{"bytes":64}},"#,
                r#"{"name":"xfer+","ph":"X","ts":10,"pid":1,"tid":1,"dur":4,"args":{"ops":2,"bytes":96}},"#,
                r#"{"name":"barrier","ph":"i","ts":10,"pid":1,"tid":1},"#,
                r#"{"name":"dW","ph":"E","ts":10,"pid":1,"tid":2},"#,
                r#"{"name":"dW","ph":"E","ts":15,"pid":0,"tid":0}"#,
            ]
        );
        assert_eq!(lines[lines.len() - 1], r#"],"displayTimeUnit":"ms"}"#);
    }

    /// The merge equals the oracle on recorded traces with equal
    /// timestamps across layers and cores: `serverx4` layers partitioned
    /// over four identical cores and `edge` layers, among them chained
    /// sequential partitions.
    #[test]
    fn merged_render_equals_sorted_oracle_on_recorded_traces() {
        let context = crate::SimContext::new(crate::SimOptions::sequential());
        let server = NpuConfig::large_server(4);
        let edge = NpuConfig::small_edge();
        let layers = [
            ("fc1", (512, 256, 256), &server, Technique::DataPartitioning),
            ("fc2", (768, 512, 384), &server, Technique::DataPartitioning),
            ("conv", (512, 312, 1200), &edge, Technique::DataPartitioning),
            ("fc3", (300, 200, 180), &edge, Technique::Rearrangement),
        ]
        .map(|(name, (m, k, n), config, technique)| {
            let gemm = igo_tensor::GemmShape::new(m, k, n);
            context.trace_layer(name, gemm, 1.0, config, technique, false)
        });
        assert!(layers[..2]
            .iter()
            .all(|l| l.cores.len() == 4 && l.decision.partition.is_some()));
        assert!(layers[2].cores.len() == 1 && layers[2].decision.partition.is_some());
        let json = merged_chrome_json(&layers);
        // Ties past cycle 0 between different threads, which only the
        // emission-order tie-break orders.
        let stamps: Vec<(&str, &str)> = json
            .lines()
            .filter_map(|l| {
                let field = |key: &str| l.split(key).nth(1)?.split([',', '}']).next();
                Some((field("\"ts\":")?, field("\"tid\":")?))
            })
            .collect();
        assert!(stamps
            .windows(2)
            .any(|w| w[0].0 == w[1].0 && w[0].0 != "0" && w[0].1 != w[1].1));
    }

    /// A track of `len` timestamps that never decrease, with many ties.
    fn stamps(rng: &mut SplitMix64, len: usize) -> Vec<u64> {
        let mut ts = 0;
        (0..len)
            .map(|_| {
                ts += rng.range_u64(0, 3);
                ts
            })
            .collect()
    }

    /// Up to six random slices tagged from `tags`, in timestamp order.
    fn random_slices<T: TrackTag>(rng: &mut SplitMix64, tags: &[T]) -> Vec<Slice<T>> {
        let len = rng.index(7);
        stamps(rng, len)
            .into_iter()
            .map(|ts| Slice {
                ts,
                dur: rng.range_u64(0, 4),
                tag: tags[rng.index(tags.len())],
                mixed: rng.range_u64(0, 2) == 1,
                ops: rng.range_u64(1, 9),
                extra: rng.next_u64() >> rng.range_u64(0, 64),
            })
            .collect()
    }

    /// Random tracks of one core, each up to six entries long.
    fn random_tracks(rng: &mut SplitMix64) -> CoreTracks {
        let tags = [Phase::Dx, Phase::Dw, Phase::Other];
        let compute = random_slices(rng, &tags);
        let memory = random_slices(rng, &[MemKind::Xfer, MemKind::Stream, MemKind::Flush]);
        // Phase spans follow each other: the next begins at or after the
        // previous end.
        let mut end = 0;
        let phases = (0..rng.index(7))
            .map(|_| {
                let s = Slice {
                    mixed: rng.range_u64(0, 2) == 1,
                    ..phase(
                        end + rng.range_u64(0, 2),
                        rng.range_u64(0, 3),
                        tags[rng.index(3)],
                    )
                };
                end = s.ts + s.dur;
                s
            })
            .collect();
        let len = rng.index(7);
        let occupancy = stamps(rng, len)
            .into_iter()
            .map(|ts| (ts, rng.range_u64(0, 1 << 20)))
            .collect();
        let len = rng.index(7);
        CoreTracks {
            compute,
            memory,
            phases,
            occupancy,
            barriers: stamps(rng, len),
        }
    }

    /// The merge equals the oracle on seeded random track sets: up to
    /// three layers of up to three cores, on timestamps drawn from a few
    /// cycles, under names that need JSON escaping.
    #[test]
    fn merged_render_equals_sorted_oracle_on_random_tracks() {
        for seed in 0..300 {
            let mut rng = SplitMix64::new(seed);
            let layers: Vec<LayerTrace> = (0..rng.range_u64(1, 4))
                .map(|l| {
                    let cores = (0..rng.index(4)).map(|_| random_tracks(&mut rng)).collect();
                    layer_of_tracks(&format!("l{l},\"\\\n\u{1}é"), cores)
                })
                .collect();
            let json = merged_chrome_json(&layers);
            assert!(
                json.ends_with("\n],\"displayTimeUnit\":\"ms\"}\n"),
                "seed {seed}"
            );
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
