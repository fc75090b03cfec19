//! Per-core timeline tracks folded from a recorded replay's event stream.
//!
//! The Chrome trace exporter ([`crate::report_io::TraceExport`]) draws
//! each core as a compute track (tile-GEMM slices, `dX`/`dW` phase spans),
//! a memory track (per-op transfer/stream/flush slices, barrier instants)
//! and an SPM-occupancy counter. `TrackBuilder` is the [`Recorder`] that
//! builds those tracks while the replay runs, so what a
//! [`crate::observe::CoreTrace`] keeps does not grow with the number of
//! events.
//!
//! A resnet50 layer can issue ~10⁵ tile-GEMMs, so raw per-event tracks
//! would export hundreds of megabytes. Adjacent slices are *coalesced*
//! (durations, op counts and byte counts are preserved in the merged
//! slice) and counter and barrier samples are *decimated* evenly. The
//! merge group size and the sampling stride depend on the final track
//! length, which the replayed stream fixes before the replay starts
//! ([`StreamShape`]): the builder applies the caps online, keeping exactly
//! what coalescing and [`igo_npu_sim::decimate`] would keep of the full
//! tracks. Memory slices are the one exception: an op contributes a slice
//! only when it moved bytes, which depends on hits, so each such op is
//! kept as a 24-byte record until the run ends, when the records stream
//! through the same online coalescing.

use igo_npu_sim::{AccessKind, Decimator, Phase, Recorder, StreamShape, TraceEvent};

/// Most compute or memory slices kept per core.
pub const SLICE_CAP: usize = 1000;
/// Most `dX`/`dW` phase spans kept per core.
pub const PHASE_CAP: usize = 400;
/// Most SPM-occupancy counter samples kept per core.
pub const COUNTER_CAP: usize = 600;
/// Most barrier instants kept per core.
pub const BARRIER_CAP: usize = 200;

/// What a memory-timeline slice did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemKind {
    /// Tile fetches and write-backs of one GEMM op.
    Xfer,
    /// A pure data-movement op.
    Stream,
    /// Write-backs alone: a barrier or end-of-run flush.
    Flush,
}

/// A slice tag with a stable display label.
pub trait TrackTag: Copy + Eq {
    /// The label the exporter names the slice by.
    fn label(self) -> &'static str;
}

impl TrackTag for Phase {
    fn label(self) -> &'static str {
        Phase::label(self)
    }
}

impl TrackTag for MemKind {
    fn label(self) -> &'static str {
        match self {
            MemKind::Xfer => "xfer",
            MemKind::Stream => "stream",
            MemKind::Flush => "flush",
        }
    }
}

/// One timeline slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice<T> {
    /// Start cycle.
    pub ts: u64,
    /// Duration in cycles.
    pub dur: u64,
    /// What the slice (or its first merged slice) did.
    pub tag: T,
    /// Whether coalescing merged slices with different tags.
    pub mixed: bool,
    /// Engine ops merged into this slice.
    pub ops: u64,
    /// Payload: busy compute cycles, or bytes moved.
    pub extra: u64,
}

impl<T: TrackTag> Slice<T> {
    fn new(ts: u64, dur: u64, tag: T, extra: u64) -> Self {
        Self {
            ts,
            dur,
            tag,
            mixed: false,
            ops: 1,
            extra,
        }
    }
}

/// Merge `slices` down to at most `max` by grouping adjacent runs. The
/// merged slice spans from the first slice's start to the last slice's
/// end and sums `ops`/`extra`, so nothing is silently dropped. The
/// builder caps its tracks with [`Coalescer`]; this is its test oracle.
#[cfg(test)]
fn coalesce<T: TrackTag>(slices: Vec<Slice<T>>, max: usize) -> Vec<Slice<T>> {
    if slices.len() <= max {
        return slices;
    }
    let group = slices.len().div_ceil(max);
    slices
        .chunks(group)
        .map(|chunk| {
            let first = chunk[0];
            let last = chunk.last().expect("chunks are non-empty");
            Slice {
                ts: first.ts,
                dur: (last.ts + last.dur).saturating_sub(first.ts),
                tag: first.tag,
                mixed: chunk.iter().any(|s| s.mixed || s.tag != first.tag),
                ops: chunk.iter().map(|s| s.ops).sum(),
                extra: chunk.iter().map(|s| s.extra).sum(),
            }
        })
        .collect()
}

/// `coalesce` applied while a track of known length arrives: pushing
/// the `len` slices one by one and then calling [`Coalescer::finish`]
/// yields exactly `coalesce(slices, max)`, holding at most `max` merged
/// slices and one open group at any time.
struct Coalescer<T> {
    group: u64,
    /// The group being merged: its slice so far, the end cycle of its
    /// latest member, and its member count.
    open: Option<(Slice<T>, u64, u64)>,
    out: Vec<Slice<T>>,
}

impl<T: TrackTag> Coalescer<T> {
    fn new(len: u64, max: usize) -> Self {
        let max = max as u64;
        Self {
            group: if len <= max { 1 } else { len.div_ceil(max) },
            open: None,
            out: Vec::with_capacity(len.min(max) as usize),
        }
    }

    fn push(&mut self, s: Slice<T>) {
        let end = s.ts + s.dur;
        let members = match &mut self.open {
            None => {
                self.open = Some((s, end, 1));
                1
            }
            Some((merged, last_end, members)) => {
                merged.mixed |= s.mixed || s.tag != merged.tag;
                merged.ops += s.ops;
                merged.extra += s.extra;
                *last_end = end;
                *members += 1;
                *members
            }
        };
        if members == self.group {
            self.close();
        }
    }

    fn close(&mut self) {
        if let Some((mut merged, end, _)) = self.open.take() {
            merged.dur = end.saturating_sub(merged.ts);
            self.out.push(merged);
        }
    }

    fn finish(mut self) -> Vec<Slice<T>> {
        self.close();
        self.out
    }
}

/// One core's timeline tracks, built while its replay records; each
/// track is no longer than its cap.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreTracks {
    /// Tile-GEMM slices, tagged by sub-stream (at most [`SLICE_CAP`]).
    pub compute: Vec<Slice<Phase>>,
    /// Per-op memory slices (at most [`SLICE_CAP`]).
    pub memory: Vec<Slice<MemKind>>,
    /// `dX`/`dW`/other phase spans (at most [`PHASE_CAP`]).
    pub phases: Vec<Slice<Phase>>,
    /// `(cycle, resident bytes)` after SPM accesses (at most
    /// [`COUNTER_CAP`] + 1: decimation keeps the last sample).
    pub occupancy: Vec<(u64, u64)>,
    /// Barrier cycles (at most [`BARRIER_CAP`] + 1).
    pub barriers: Vec<u64>,
}

/// Memory-side aggregation of the op whose events are arriving.
#[derive(Default)]
struct MemAgg {
    start: u64,
    fetch: u64,
    bursts: u32,
    writeback: u64,
    stream: u64,
    accesses: bool,
    streamed: bool,
}

impl MemAgg {
    /// The memory slice this op contributes, if it moved bytes.
    fn into_raw(self) -> Option<RawMem> {
        let (kind, bytes) = if self.streamed {
            (MemKind::Stream, self.stream)
        } else if self.accesses {
            (MemKind::Xfer, self.fetch + self.writeback)
        } else {
            (MemKind::Flush, self.writeback)
        };
        (bytes > 0).then_some(RawMem {
            ts: self.start,
            bytes,
            bursts: self.bursts,
            kind,
        })
    }
}

/// One op's memory slice as the builder holds it until the run ends: 24
/// bytes, against 40 for a [`Slice`]. Nothing is packed lossily. The
/// duration is not stored but recomputed by [`RawMem::slice`] from
/// `bytes` and `bursts`, with the same expression (and so the same
/// floating-point result) the slice would have been stamped with. A
/// slice's op count is always 1 and it is never mixed. `bursts` counts
/// the op's fetched accesses, and an op has fewer accesses than the
/// replay's stream positions, which stay below
/// [`igo_npu_sim::REPLAY_ID_LIMIT`] (`u32::MAX`), so it fits in a `u32`.
#[derive(Debug, Clone, Copy)]
struct RawMem {
    ts: u64,
    bytes: u64,
    bursts: u32,
    kind: MemKind,
}

impl RawMem {
    /// The slice, sized with the engine's own cost model (`bytes /
    /// bandwidth + bursts × latency`; one burst unless an `Xfer` fetched
    /// several).
    fn slice(self, bytes_per_cycle: f64, burst_latency: u64) -> Slice<MemKind> {
        let bursts = match self.kind {
            MemKind::Xfer => u64::from(self.bursts.max(1)),
            MemKind::Stream | MemKind::Flush => 1,
        };
        let dur = self.bytes as f64 / bytes_per_cycle + (bursts * burst_latency) as f64;
        Slice::new(self.ts, dur.round() as u64, self.kind, self.bytes)
    }
}

/// A [`Recorder`] that folds one core's event stream into its
/// [`CoreTracks`].
///
/// Sized by the run's [`StreamShape`], it coalesces compute slices and
/// phase spans and decimates occupancy and barrier samples as they
/// arrive, so those tracks never exceed their caps. Memory slices are
/// held as one 24-byte [`RawMem`] per op that moved bytes and coalesced
/// by [`TrackBuilder::finish`].
pub(crate) struct TrackBuilder {
    bytes_per_cycle: f64,
    burst_latency: u64,
    compute: Coalescer<Phase>,
    memory: Vec<RawMem>,
    phases: Coalescer<Phase>,
    occupancy: Decimator<(u64, u64)>,
    barriers: Decimator<u64>,
    open_phase: Option<(Phase, u64)>,
    /// The op whose memory events `agg` is collecting.
    cur_op: Option<u32>,
    agg: MemAgg,
}

impl TrackBuilder {
    /// A builder for a core with the engine's DRAM bandwidth (bytes per
    /// cycle) and per-burst latency, used to size memory slices, whose
    /// replay emits `shape`'s events.
    pub(crate) fn new(bytes_per_cycle: f64, burst_latency: u64, shape: StreamShape) -> Self {
        Self {
            bytes_per_cycle,
            burst_latency,
            compute: Coalescer::new(shape.gemm_ops, SLICE_CAP),
            memory: Vec::new(),
            phases: Coalescer::new(shape.phase_spans, PHASE_CAP),
            occupancy: Decimator::new(shape.accesses, COUNTER_CAP),
            barriers: Decimator::new(shape.barriers, BARRIER_CAP),
            open_phase: None,
            cur_op: None,
            agg: MemAgg::default(),
        }
    }

    /// Close the previous op's memory slice when `op` starts a new one.
    fn mem_event(&mut self, op: u32, cycle: u64) {
        if self.cur_op == Some(op) {
            return;
        }
        self.flush_mem();
        self.cur_op = Some(op);
        self.agg = MemAgg {
            start: cycle,
            ..MemAgg::default()
        };
    }

    fn flush_mem(&mut self) {
        if self.cur_op.is_some() {
            let agg = std::mem::take(&mut self.agg);
            self.memory.extend(agg.into_raw());
        }
    }

    /// End the run: close the last memory slice and group, coalesce the
    /// memory slices, and keep each decimated track's last sample.
    pub(crate) fn finish(mut self) -> CoreTracks {
        self.flush_mem();
        let mut memory = Coalescer::new(self.memory.len() as u64, SLICE_CAP);
        for raw in self.memory {
            memory.push(raw.slice(self.bytes_per_cycle, self.burst_latency));
        }
        CoreTracks {
            compute: self.compute.finish(),
            memory: memory.finish(),
            phases: self.phases.finish(),
            occupancy: self.occupancy.finish(),
            barriers: self.barriers.finish(),
        }
    }
}

impl Recorder for TrackBuilder {
    fn record(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Access {
                op,
                bytes,
                kind,
                cycle,
                occupancy,
                ..
            } => {
                self.mem_event(op, cycle);
                self.agg.accesses = true;
                if kind == AccessKind::Fetch {
                    self.agg.fetch += bytes;
                    self.agg.bursts += 1;
                }
                self.occupancy.push((cycle, occupancy));
            }
            TraceEvent::WriteBack {
                op, bytes, cycle, ..
            } => {
                self.mem_event(op, cycle);
                self.agg.writeback += bytes;
            }
            TraceEvent::StreamIo {
                op,
                read_bytes,
                write_bytes,
                cycle,
                ..
            } => {
                self.mem_event(op, cycle);
                self.agg.streamed = true;
                self.agg.stream += read_bytes + write_bytes;
            }
            TraceEvent::GemmIssue {
                start,
                cycles,
                phase,
                ..
            } => self.compute.push(Slice::new(start, cycles, phase, cycles)),
            TraceEvent::PhaseBegin { phase, cycle, .. } => {
                self.open_phase = Some((phase, cycle));
            }
            TraceEvent::PhaseEnd { cycle, .. } => {
                if let Some((phase, begin)) = self.open_phase.take() {
                    self.phases
                        .push(Slice::new(begin, cycle.saturating_sub(begin), phase, 0));
                }
            }
            TraceEvent::Barrier { cycle, .. } => self.barriers.push(cycle),
        }
    }
}

/// Assert that `tracks` keeps exactly what capping the full tracks of the
/// recorded run `events` when the run ends would keep. Memory slices are
/// left out: they are capped when the run ends either way.
#[cfg(test)]
pub(crate) fn assert_matches_finish_time_caps(events: &[TraceEvent], tracks: &CoreTracks) {
    use igo_npu_sim::decimate;
    let (mut compute, mut phases, mut occupancy, mut barriers) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut open = None;
    for &event in events {
        match event {
            TraceEvent::GemmIssue {
                start,
                cycles,
                phase,
                ..
            } => compute.push(Slice::new(start, cycles, phase, cycles)),
            TraceEvent::PhaseBegin { phase, cycle, .. } => open = Some((phase, cycle)),
            TraceEvent::PhaseEnd { cycle, .. } => {
                let (phase, begin) = open.take().expect("a phase ends after it begins");
                phases.push(Slice::new(begin, cycle.saturating_sub(begin), phase, 0));
            }
            TraceEvent::Access {
                cycle,
                occupancy: bytes,
                ..
            } => occupancy.push((cycle, bytes)),
            TraceEvent::Barrier { cycle, .. } => barriers.push(cycle),
            TraceEvent::WriteBack { .. } | TraceEvent::StreamIo { .. } => {}
        }
    }
    assert_eq!(tracks.compute, coalesce(compute, SLICE_CAP), "compute");
    assert_eq!(tracks.phases, coalesce(phases, PHASE_CAP), "phases");
    assert_eq!(
        tracks.occupancy,
        decimate(&occupancy, COUNTER_CAP),
        "occupancy"
    );
    assert_eq!(
        tracks.barriers,
        decimate(&barriers, BARRIER_CAP),
        "barriers"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use igo_npu_sim::{decimate, TensorId, TileKey};
    use igo_tensor::{TensorClass, TileCoord};

    fn gemm(start: u64, phase: Phase) -> Slice<Phase> {
        Slice::new(start, 10, phase, 10)
    }

    fn key() -> TileKey {
        TileKey {
            tensor: TensorId::from_raw(0),
            coord: TileCoord::new(0, 0),
        }
    }

    #[test]
    fn coalesce_preserves_totals_and_marks_mixed_groups() {
        let slices = vec![
            gemm(0, Phase::Dx),
            gemm(10, Phase::Dx),
            gemm(20, Phase::Dx),
            gemm(30, Phase::Dw),
        ];
        let merged = coalesce(slices, 2);
        assert_eq!(merged.len(), 2);
        assert_eq!((merged[0].tag, merged[0].mixed), (Phase::Dx, false));
        assert_eq!((merged[1].tag, merged[1].mixed), (Phase::Dx, true));
        assert_eq!((merged[1].ts, merged[1].dur), (20, 20));
        assert_eq!(merged.iter().map(|s| s.ops).sum::<u64>(), 4);
        assert_eq!(merged.iter().map(|s| s.extra).sum::<u64>(), 40);
    }

    #[test]
    fn decimate_keeps_the_last_sample() {
        let values: Vec<u64> = (0..10).collect();
        assert_eq!(decimate(&values, 4), vec![0, 3, 6, 9]);
        assert_eq!(decimate(&values, 3), vec![0, 4, 8, 9]);
        assert_eq!(decimate(&values, 20), values);
    }

    /// A synthetic run of `n` steps, each a GEMM that switches phase, one
    /// access and one barrier: every capped track is `n` entries long.
    fn synthetic_run(n: u64) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        let mut prev = None;
        for i in 0..n {
            let (op, ts) = (i as u32, i * 10);
            let phase = if i % 2 == 0 { Phase::Dx } else { Phase::Dw };
            if let Some(prev) = prev {
                events.push(TraceEvent::PhaseEnd {
                    op,
                    phase: prev,
                    cycle: ts,
                });
            }
            prev = Some(phase);
            events.push(TraceEvent::PhaseBegin {
                op,
                phase,
                cycle: ts,
            });
            events.push(TraceEvent::GemmIssue {
                op,
                start: ts,
                cycles: 3 + i % 5,
                phase,
            });
            events.push(TraceEvent::Access {
                op,
                key: key(),
                class: TensorClass::OutGrad,
                bytes: 64,
                kind: AccessKind::Fetch,
                cycle: ts,
                occupancy: (i * 37) % 11,
            });
            events.push(TraceEvent::Barrier { op, cycle: ts + 9 });
        }
        if let Some(prev) = prev {
            events.push(TraceEvent::PhaseEnd {
                op: n as u32,
                phase: prev,
                cycle: n * 10,
            });
        }
        events
    }

    #[test]
    fn sized_builder_keeps_what_finish_time_caps_keep() {
        let caps = [SLICE_CAP, PHASE_CAP, COUNTER_CAP, BARRIER_CAP];
        for n in caps
            .map(|c| c as u64)
            .iter()
            .flat_map(|&c| [c - 1, c, c + 1, 2 * c, 2 * c + 1])
        {
            let events = synthetic_run(n);
            let shape = StreamShape::of_events(&events);
            assert_eq!(
                (
                    shape.gemm_ops,
                    shape.phase_spans,
                    shape.accesses,
                    shape.barriers
                ),
                (n, n, n, n)
            );
            let mut b = TrackBuilder::new(2.0, 5, shape);
            for &e in &events {
                b.record(e);
                // Bounded while the run lasts, not only once it ends.
                assert!(b.compute.out.len() <= SLICE_CAP, "n {n}");
                assert!(b.phases.out.len() <= PHASE_CAP, "n {n}");
                assert!(b.occupancy.len() <= COUNTER_CAP, "n {n}");
                assert!(b.barriers.len() <= BARRIER_CAP, "n {n}");
            }
            assert_matches_finish_time_caps(&events, &b.finish());
        }
    }

    #[test]
    fn raw_memory_slices_stay_compact() {
        assert!(std::mem::size_of::<RawMem>() <= 24);
    }

    /// Over 2 × [`SLICE_CAP`] memory slices of every kind, with several
    /// fetch bursts, zero-byte ops between them and a last slice of
    /// `u64::MAX` bytes: the builder keeps exactly `coalesce` of the full
    /// per-op slices.
    #[test]
    fn packed_memory_slices_coalesce_like_full_slices() {
        let (bytes_per_cycle, latency) = (2.0, 5);
        let mut b = TrackBuilder::new(bytes_per_cycle, latency, StreamShape::default());
        let mut full = Vec::new();
        let slice = |ts, kind, bytes: u64, bursts: u64| {
            let dur = bytes as f64 / bytes_per_cycle + (bursts * latency) as f64;
            Slice::new(ts, dur.round() as u64, kind, bytes)
        };
        let access = |op, kind, cycle| TraceEvent::Access {
            op,
            key: key(),
            class: TensorClass::OutGrad,
            bytes: 64,
            kind,
            cycle,
            occupancy: 0,
        };
        let wb = |op, bytes, cycle| TraceEvent::WriteBack {
            op,
            key: key(),
            class: TensorClass::InGrad,
            bytes,
            spill: true,
            cycle,
        };
        // Four slices per five ops, so every kind ends some merge group.
        let ops = 2 * SLICE_CAP as u32 + 625;
        for op in 0..ops {
            let ts = u64::from(op) * 7;
            match op % 5 {
                0 | 4 => {
                    // An Xfer of 1-3 fetch bursts, a hit and a write-back.
                    let bursts = u64::from(op % 3) + 1;
                    for _ in 0..bursts {
                        b.record(access(op, AccessKind::Fetch, ts));
                    }
                    b.record(access(op, AccessKind::Hit, ts));
                    b.record(wb(op, 100 + u64::from(op), ts));
                    full.push(slice(
                        ts,
                        MemKind::Xfer,
                        64 * bursts + 100 + u64::from(op),
                        bursts,
                    ));
                }
                1 => {
                    // An op that only hit: no slice.
                    b.record(access(op, AccessKind::Hit, ts));
                }
                2 => {
                    b.record(TraceEvent::StreamIo {
                        op,
                        class: TensorClass::WGrad,
                        read_bytes: u64::from(op),
                        write_bytes: 3,
                        cycle: ts,
                    });
                    full.push(slice(ts, MemKind::Stream, u64::from(op) + 3, 1));
                }
                _ => {
                    b.record(wb(op, 1 << (op % 40), ts));
                    full.push(slice(ts, MemKind::Flush, 1 << (op % 40), 1));
                }
            }
        }
        // Alone in the last merge group, so no sum overflows.
        let ts = u64::from(ops) * 7;
        b.record(wb(ops, u64::MAX, ts));
        full.push(slice(ts, MemKind::Flush, u64::MAX, 1));
        assert!(full.len() > 2 * SLICE_CAP);
        assert_eq!(full.len() % full.len().div_ceil(SLICE_CAP), 1);
        assert_eq!(b.finish().memory, coalesce(full, SLICE_CAP));
    }

    #[test]
    fn memory_slices_aggregate_per_op() {
        let mut b = TrackBuilder::new(2.0, 5, StreamShape::default());
        let wb = |op, bytes, cycle| TraceEvent::WriteBack {
            op,
            key: key(),
            class: TensorClass::InGrad,
            bytes,
            spill: false,
            cycle,
        };
        b.record(wb(0, 10, 100));
        b.record(wb(0, 10, 100));
        b.record(wb(1, 0, 200)); // zero bytes: no slice
        b.record(TraceEvent::StreamIo {
            op: 2,
            class: TensorClass::WGrad,
            read_bytes: 4,
            write_bytes: 4,
            cycle: 300,
        });
        let t = b.finish();
        assert_eq!(t.memory.len(), 2);
        assert_eq!(t.memory[0].tag, MemKind::Flush);
        assert_eq!((t.memory[0].ts, t.memory[0].dur), (100, 15));
        assert_eq!(t.memory[0].extra, 20);
        assert_eq!(t.memory[1].tag, MemKind::Stream);
        assert_eq!(t.memory[1].dur, 9);
    }
}
