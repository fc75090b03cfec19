//! In-memory spans and counters recorded around calls into the simulator.
//!
//! Spans nest (one thread, strictly LIFO), so a layer's self time is its
//! spans' total duration minus the durations of their direct children.
//! Nothing is written while the run is measured; [`Tracer::write_jsonl`]
//! dumps the spans once the run is over.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call: layer name, what was called, start and end in
/// seconds since the tracer started, and the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub what: String,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            enabled: true,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// A tracer that records nothing: the untraced repetitions pass one
    /// so the measured calls run the same code with tracing off.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    /// Open a span of `layer`, labelled `what`, nested in the innermost
    /// open span. Close it with [`Tracer::exit`].
    pub fn enter(&mut self, layer: &'static str, what: impl Into<String>) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            what: what.into(),
            start_s: self.t0.elapsed().as_secs_f64(),
            end_s: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_s = self.t0.elapsed().as_secs_f64();
    }

    /// Add `n` to the counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if !self.enabled {
            return;
        }
        *self.counts.entry(name).or_insert(0) += n;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per layer, in seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_time = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end_s - s.start_s;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            *out.entry(s.layer).or_insert(0.0) += (s.end_s - s.start_s - children).max(0.0);
        }
        out
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, mut w: impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"layer\":\"{}\",\"what\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9},\"parent\":{parent}}}",
                s.layer,
                s.what.replace('\\', "\\\\").replace('"', "\\\""),
                s.start_s,
                s.end_s
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut t = Tracer::new();
        let outer = t.enter("outer", "a");
        std::thread::sleep(std::time::Duration::from_millis(4));
        let inner = t.enter("inner", "b");
        std::thread::sleep(std::time::Duration::from_millis(8));
        t.exit(inner);
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        let st = t.self_times();
        let outer_total = spans[0].end_s - spans[0].start_s;
        let inner_total = spans[1].end_s - spans[1].start_s;
        assert!((st["outer"] - (outer_total - inner_total)).abs() < 1e-9);
        assert!((st["inner"] - inner_total).abs() < 1e-9);
        assert!(st["inner"] >= 0.008 && st["outer"] >= 0.004);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let id = t.enter("x", "y");
        t.count("x", 1);
        t.exit(id);
        assert!(t.spans().is_empty());
        assert_eq!(t.counter("x"), 0);
    }

    #[test]
    fn counters_accumulate() {
        let mut t = Tracer::new();
        t.count("x", 2);
        t.count("x", 3);
        assert_eq!(t.counter("x"), 5);
        assert_eq!(t.counter("missing"), 0);
    }
}
