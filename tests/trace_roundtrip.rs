//! Round-trip checks of the trace exporter.
//!
//! The Chrome trace-event JSON emitted by `TraceExport` must be
//! (a) valid JSON, (b) globally sorted by timestamp — Perfetto rejects
//! files whose `ts` go backwards in array order — and (c) balanced in its
//! duration ("B"/"E") phase events per thread. The derived metrics must
//! account for every SPM access: each class's reuse-distance histogram
//! totals exactly `hits + misses` as counted by the engine's own cache.
//! The exact bytes of all four artifacts are pinned by content hashes.
//!
//! The JSON validator below is a deliberately tiny recursive-descent
//! parser (the workspace is dependency-free by design) — it accepts the
//! JSON the exporter can produce, and rejects structural damage.

use igo_core::{
    LayerTrace, SimContext, SimOptions, Technique, TraceArtifacts, TraceExport,
    DEFAULT_REUSE_POINTS,
};
use igo_npu_sim::NpuConfig;
use igo_tensor::{GemmShape, TensorClass};
use igo_workloads::{zoo, ModelId};

// ---------------------------------------------------------------------
// Minimal JSON parser (validation + the few lookups the tests need).
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn parse(text: &'a str) -> Result<Json, String> {
        let mut p = Parser::new(text);
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at offset {}, found {:?}",
                b as char,
                self.pos,
                self.bytes.get(self.pos).map(|&c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at {}", self.pos))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.pos))
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (the input came from a String,
                    // so boundaries are valid).
                    let s =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let ch = s.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

/// Export `traces` in order through one [`TraceExport`].
fn export(traces: &[LayerTrace]) -> TraceArtifacts {
    let mut export = TraceExport::new(DEFAULT_REUSE_POINTS);
    for trace in traces {
        export.add_layer(trace);
    }
    export.finish()
}

fn chrome_trace_json(traces: &[LayerTrace]) -> String {
    export(traces).trace_json
}

fn sample_traces() -> Vec<LayerTrace> {
    let context = SimContext::new(SimOptions::sequential());
    vec![
        context.trace_layer(
            "conv,\"quoted\"",
            GemmShape::new(300, 200, 180),
            1.0,
            &NpuConfig::small_edge(),
            Technique::Rearrangement,
            false,
        ),
        context.trace_layer(
            "fc",
            GemmShape::new(512, 256, 256),
            1.0,
            &NpuConfig::large_server(2),
            Technique::Interleaving,
            false,
        ),
    ]
}

#[test]
fn chrome_trace_round_trips_as_valid_json() {
    let traces = sample_traces();
    let json = chrome_trace_json(&traces);
    let doc = Parser::parse(&json).expect("exporter must emit valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(
        events.len() > traces.len() * 4,
        "trace is suspiciously empty"
    );
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    for e in events {
        assert!(e.get("ph").is_some(), "event without phase: {e:?}");
        assert!(e.get("ts").and_then(Json::as_num).is_some());
        assert!(e.get("pid").and_then(Json::as_num).is_some());
        assert!(e.get("tid").and_then(Json::as_num).is_some());
    }
}

#[test]
fn chrome_trace_timestamps_are_monotonic() {
    let json = chrome_trace_json(&sample_traces());
    let doc = Parser::parse(&json).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let mut last = f64::NEG_INFINITY;
    for e in events {
        let ts = e.get("ts").and_then(Json::as_num).unwrap();
        assert!(
            ts >= last,
            "timestamps must be non-decreasing in array order ({ts} after {last})"
        );
        last = ts;
    }
}

#[test]
fn chrome_trace_phase_events_are_balanced() {
    let json = chrome_trace_json(&sample_traces());
    let doc = Parser::parse(&json).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    // Per (pid, tid): every "E" closes an open "B", and nothing stays open.
    let mut depth: std::collections::HashMap<(u64, u64), i64> = std::collections::HashMap::new();
    let mut saw_phases = false;
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).unwrap();
        if ph != "B" && ph != "E" {
            continue;
        }
        saw_phases = true;
        let key = (
            e.get("pid").and_then(Json::as_num).unwrap() as u64,
            e.get("tid").and_then(Json::as_num).unwrap() as u64,
        );
        let d = depth.entry(key).or_insert(0);
        if ph == "B" {
            *d += 1;
        } else {
            *d -= 1;
            assert!(*d >= 0, "E without matching B on thread {key:?}");
        }
    }
    assert!(saw_phases, "trace must contain dX/dW phase events");
    for (key, d) in depth {
        assert_eq!(d, 0, "unclosed B event(s) on thread {key:?}");
    }
}

/// Every SPM access the engine's cache counted must land in exactly one
/// reuse-distance histogram bucket: per class and in total, histogram
/// totals equal `hits + misses` from the engine's own cache statistics.
#[test]
fn reuse_histograms_account_for_every_cache_access() {
    let trace = SimContext::new(SimOptions::sequential()).trace_layer(
        "layer",
        GemmShape::new(384, 256, 320),
        1.0,
        &NpuConfig::small_edge(),
        Technique::Interleaving,
        false,
    );
    for core in &trace.cores {
        let mut histogram_total = 0;
        let mut hits = 0;
        for class in TensorClass::ALL {
            let m = core.metrics.class(class);
            assert_eq!(
                m.histogram.total(),
                m.accesses,
                "{}: histogram must bucket every access",
                class.label()
            );
            assert!(m.hits <= m.accesses);
            histogram_total += m.histogram.total();
            hits += m.hits;
        }
        // The engine's report carries the cache's own hit/miss counters;
        // the recorder-derived histograms must agree with them exactly.
        assert_eq!(
            histogram_total,
            core.report.spm_accesses(),
            "histogram total != cache hits + misses"
        );
        assert_eq!(hits, core.report.spm_hits, "hit count diverged");
    }
}

// ---------------------------------------------------------------------
// Content pin
// ---------------------------------------------------------------------

/// 64-bit FNV-1a: a dependency-free content hash for the pinned artifacts.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Hash all four export artifacts of `traces`, in `TraceArtifacts` field
/// order.
fn artifact_hashes(traces: &[LayerTrace]) -> [u64; 4] {
    let a = export(traces);
    [
        fnv1a(&a.trace_json),
        fnv1a(&a.metrics_csv),
        fnv1a(&a.dy_reuse_csv),
        fnv1a(&a.dy_tiles_csv),
    ]
}

/// Pins the exact bytes of every artifact (the benchmark's golden digest
/// pins only byte counts). Covers chained sequential partitions on a
/// single core (bert-tiny on `edge` under data partitioning) and a
/// multi-core layer on `serverx2`. A change that is meant to alter the
/// exported traces must update these hashes.
#[test]
fn trace_artifacts_content_is_pinned() {
    let context = SimContext::new(SimOptions::sequential());
    let edge = NpuConfig::small_edge();
    let model = zoo::model(ModelId::BertTiny, edge.default_batch());
    let traces = context.trace_model(&model, &edge, Technique::DataPartitioning);
    assert!(
        traces.iter().any(|t| t.decision.partition.is_some()),
        "the edge trace must exercise chained sequential partitions"
    );
    assert_eq!(
        artifact_hashes(&traces),
        [
            0x45881a1b72d60a72,
            0xcdc84b5b8ec737e0,
            0x626d023902978e62,
            0xa2bd8fc4244ed77d,
        ],
        "bert-tiny on edge: trace.json, metrics.csv, dy_reuse.csv, dy_tiles.csv"
    );

    let server = NpuConfig::large_server(2);
    let layer = context.trace_layer(
        "768x512x384",
        GemmShape::new(768, 512, 384),
        1.0,
        &server,
        Technique::Interleaving,
        false,
    );
    assert_eq!(layer.cores.len(), 2);
    assert_eq!(
        artifact_hashes(std::slice::from_ref(&layer)),
        [
            0x176ef02afbff15bc,
            0x62a1894bae3aba92,
            0x7a5e58bc296921e6,
            0xf11d2cf5bc8ea469,
        ],
        "768x512x384 on serverx2: trace.json, metrics.csv, dy_reuse.csv, dy_tiles.csv"
    );
}
