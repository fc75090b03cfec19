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
//! length, which is known before the replay starts, so the builder
//! applies the caps online, keeping exactly what coalescing and
//! [`igo_npu_sim::decimate`] would keep of the full tracks, and holding
//! no more than each track's cap at any time. The replayed stream fixes
//! every length but one ([`StreamShape`]). An op contributes a memory
//! slice only when it moved bytes, which depends on hits, so the memory
//! track is sized by the replay itself: every replay counts the ops that
//! moved bytes ([`igo_npu_sim::AnalyticReport::moved_ops`]), and the
//! selection loop's replay of the winning candidate hands that count to
//! the trace (the replay is deterministic, so the recorded replay moves
//! bytes in the same ops). A test-only recorder (`MemorySlices`) counts
//! the same slices from an event stream as the oracle.

use igo_npu_sim::{round_cycles, AccessKind, Decimator, Phase, Recorder, StreamShape, TraceEvent};

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
    len: u64,
    pushed: u64,
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
            len,
            pushed: 0,
            group: if len <= max { 1 } else { len.div_ceil(max) },
            open: None,
            out: Vec::with_capacity(len.min(max) as usize),
        }
    }

    #[inline]
    fn push(&mut self, s: Slice<T>) {
        self.pushed += 1;
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
        debug_assert_eq!(self.pushed, self.len, "a track's length was mis-sized");
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

/// Memory-side aggregation of one op's events.
#[derive(Default)]
struct MemAgg {
    start: u64,
    fetch: u64,
    bursts: u64,
    writeback: u64,
    stream: u64,
    accesses: bool,
    streamed: bool,
}

impl MemAgg {
    /// What the op's memory slice did and the bytes it moved; an op that
    /// moved no bytes contributes no slice.
    fn kind_bytes(&self) -> (MemKind, u64) {
        if self.streamed {
            (MemKind::Stream, self.stream)
        } else if self.accesses {
            (MemKind::Xfer, self.fetch + self.writeback)
        } else {
            (MemKind::Flush, self.writeback)
        }
    }

    /// Whether the op moved bytes, and so contributes a memory slice.
    #[cfg(test)]
    fn moved(&self) -> bool {
        self.kind_bytes().1 > 0
    }

    /// The op's memory slice, if it moved bytes, sized with the engine's
    /// cost model (`bytes / bandwidth + bursts × latency`; one burst
    /// unless an `Xfer` fetched several).
    #[inline]
    fn slice(&self, bytes_per_cycle: f64, burst_latency: u64) -> Option<Slice<MemKind>> {
        let (kind, bytes) = self.kind_bytes();
        let bursts = match kind {
            MemKind::Xfer => self.bursts.max(1),
            MemKind::Stream | MemKind::Flush => 1,
        };
        let dur = bytes as f64 / bytes_per_cycle + (bursts * burst_latency) as f64;
        (bytes > 0).then(|| Slice::new(self.start, round_cycles(dur), kind, bytes))
    }
}

/// The per-op aggregation of a replay's memory-side events (accesses,
/// write-backs, stream I/O), which arrive grouped by op.
#[derive(Default)]
struct MemOps {
    /// The op whose events `agg` is collecting.
    cur_op: Option<u32>,
    agg: MemAgg,
}

impl MemOps {
    /// Fold `event` in, handing the previous op's aggregate to `closed`
    /// when `event` is the first memory-side event of a new op.
    #[inline]
    fn fold(&mut self, event: &TraceEvent, closed: impl FnOnce(&MemAgg)) {
        let (op, cycle) = match *event {
            TraceEvent::Access { op, cycle, .. }
            | TraceEvent::WriteBack { op, cycle, .. }
            | TraceEvent::StreamIo { op, cycle, .. } => (op, cycle),
            _ => return,
        };
        if self.cur_op != Some(op) {
            if self.cur_op.replace(op).is_some() {
                closed(&self.agg);
            }
            self.agg = MemAgg {
                start: cycle,
                ..MemAgg::default()
            };
        }
        let agg = &mut self.agg;
        match *event {
            TraceEvent::Access { bytes, kind, .. } => {
                agg.accesses = true;
                if kind == AccessKind::Fetch {
                    agg.fetch += bytes;
                    agg.bursts += 1;
                }
            }
            TraceEvent::WriteBack { bytes, .. } => agg.writeback += bytes,
            TraceEvent::StreamIo {
                read_bytes,
                write_bytes,
                ..
            } => {
                agg.streamed = true;
                agg.stream += read_bytes + write_bytes;
            }
            _ => unreachable!("only memory-side events reach here"),
        }
    }

    /// End the run, handing the last op's aggregate to `closed`.
    fn finish(&mut self, closed: impl FnOnce(&MemAgg)) {
        if self.cur_op.take().is_some() {
            closed(&self.agg);
        }
    }
}

/// A [`Recorder`] that counts the memory slices a [`TrackBuilder`] would
/// keep of the same replay before capping: one per op that moved bytes.
/// The oracle for the replay's own count
/// ([`igo_npu_sim::AnalyticReport::moved_ops`]), which sizes the builder.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct MemorySlices {
    ops: MemOps,
    count: u64,
}

#[cfg(test)]
impl MemorySlices {
    /// The number of memory slices the replay recorded.
    pub(crate) fn finish(mut self) -> u64 {
        let count = &mut self.count;
        self.ops.finish(|a| *count += u64::from(a.moved()));
        self.count
    }
}

#[cfg(test)]
impl Recorder for MemorySlices {
    fn record(&mut self, event: TraceEvent) {
        let count = &mut self.count;
        self.ops.fold(&event, |a| *count += u64::from(a.moved()));
    }
}

/// The memory slices a replay that emitted `events` records
/// ([`MemorySlices`]).
#[cfg(test)]
pub(crate) fn memory_slices(events: &[TraceEvent]) -> u64 {
    let mut count = MemorySlices::default();
    for &e in events {
        count.record(e);
    }
    count.finish()
}

/// A core's memory track: each op's memory slice, sized with the engine's
/// DRAM bandwidth (bytes per cycle) and per-burst latency, coalesced.
struct MemTrack {
    bytes_per_cycle: f64,
    burst_latency: u64,
    slices: Coalescer<MemKind>,
}

impl MemTrack {
    /// Add the slice of the op `agg` aggregated, if it moved bytes.
    #[inline]
    fn push(&mut self, agg: &MemAgg) {
        if let Some(s) = agg.slice(self.bytes_per_cycle, self.burst_latency) {
            self.slices.push(s);
        }
    }
}

/// A [`Recorder`] that folds one core's event stream into its
/// [`CoreTracks`].
///
/// Sized by the run's [`StreamShape`] and its memory-slice count (the
/// replay's moved ops), it coalesces slices and phase spans and decimates
/// occupancy and barrier samples as they arrive, so no track ever exceeds
/// its cap.
pub(crate) struct TrackBuilder {
    compute: Coalescer<Phase>,
    memory: MemTrack,
    phases: Coalescer<Phase>,
    occupancy: Decimator<(u64, u64)>,
    barriers: Decimator<u64>,
    open_phase: Option<(Phase, u64)>,
    mem_ops: MemOps,
}

impl TrackBuilder {
    /// A builder for a core with the engine's DRAM bandwidth (bytes per
    /// cycle) and per-burst latency, used to size memory slices, whose
    /// replay emits `shape`'s events and `memory_slices` memory slices.
    pub(crate) fn new(
        bytes_per_cycle: f64,
        burst_latency: u64,
        shape: StreamShape,
        memory_slices: u64,
    ) -> Self {
        Self {
            compute: Coalescer::new(shape.gemm_ops, SLICE_CAP),
            memory: MemTrack {
                bytes_per_cycle,
                burst_latency,
                slices: Coalescer::new(memory_slices, SLICE_CAP),
            },
            phases: Coalescer::new(shape.phase_spans, PHASE_CAP),
            occupancy: Decimator::new(shape.accesses, COUNTER_CAP),
            barriers: Decimator::new(shape.barriers, BARRIER_CAP),
            open_phase: None,
            mem_ops: MemOps::default(),
        }
    }

    /// End the run: close the last memory slice and every open group, and
    /// keep each decimated track's last sample.
    pub(crate) fn finish(mut self) -> CoreTracks {
        self.mem_ops.finish(|a| self.memory.push(a));
        CoreTracks {
            compute: self.compute.finish(),
            memory: self.memory.slices.finish(),
            phases: self.phases.finish(),
            occupancy: self.occupancy.finish(),
            barriers: self.barriers.finish(),
        }
    }
}

impl Recorder for TrackBuilder {
    fn record(&mut self, event: TraceEvent) {
        self.mem_ops.fold(&event, |a| self.memory.push(a));
        match event {
            TraceEvent::Access {
                cycle, occupancy, ..
            } => self.occupancy.push((cycle, occupancy)),
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
            TraceEvent::WriteBack { .. } | TraceEvent::StreamIo { .. } => {}
        }
    }
}

/// Assert that `tracks` keeps exactly what capping the full tracks of the
/// recorded run `events` when the run ends would keep, with memory slices
/// sized by `bytes_per_cycle` and `burst_latency`.
#[cfg(test)]
pub(crate) fn assert_matches_finish_time_caps(
    events: &[TraceEvent],
    tracks: &CoreTracks,
    bytes_per_cycle: f64,
    burst_latency: u64,
) {
    use igo_npu_sim::decimate;
    let (mut compute, mut memory, mut phases, mut occupancy, mut barriers) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut open = None;
    let mut mem_ops = MemOps::default();
    for &event in events {
        mem_ops.fold(&event, |a| {
            memory.extend(a.slice(bytes_per_cycle, burst_latency));
        });
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
    mem_ops.finish(|a| memory.extend(a.slice(bytes_per_cycle, burst_latency)));
    assert_eq!(tracks.compute, coalesce(compute, SLICE_CAP), "compute");
    assert_eq!(tracks.memory, coalesce(memory, SLICE_CAP), "memory");
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
                id: 0,
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
                    shape.barriers,
                    memory_slices(&events)
                ),
                (n, n, n, n, n)
            );
            let mut b = TrackBuilder::new(2.0, 5, shape, n);
            for &e in &events {
                b.record(e);
                // Bounded while the run lasts, not only once it ends.
                assert!(b.compute.out.len() <= SLICE_CAP, "n {n}");
                assert!(b.memory.slices.out.len() <= SLICE_CAP, "n {n}");
                assert!(b.phases.out.len() <= PHASE_CAP, "n {n}");
                assert!(b.occupancy.len() <= COUNTER_CAP, "n {n}");
                assert!(b.barriers.len() <= BARRIER_CAP, "n {n}");
            }
            assert_matches_finish_time_caps(&events, &b.finish(), 2.0, 5);
        }
    }

    /// Over 2 × [`SLICE_CAP`] memory slices of every kind, with several
    /// fetch bursts, zero-byte ops between them and a last slice of
    /// `u64::MAX` bytes: the counting recorder counts every slice, and
    /// the builder sized by that count keeps exactly `coalesce` of the
    /// full per-op slices, never holding more than the cap.
    #[test]
    fn packed_memory_slices_coalesce_like_full_slices() {
        let (bytes_per_cycle, latency) = (2.0, 5);
        let mut events = Vec::new();
        let mut full = Vec::new();
        let slice = |ts, kind, bytes: u64, bursts: u64| {
            let dur = bytes as f64 / bytes_per_cycle + (bursts * latency) as f64;
            Slice::new(ts, dur.round() as u64, kind, bytes)
        };
        let access = |op, kind, cycle| TraceEvent::Access {
            op,
            id: 0,
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
                        events.push(access(op, AccessKind::Fetch, ts));
                    }
                    events.push(access(op, AccessKind::Hit, ts));
                    events.push(wb(op, 100 + u64::from(op), ts));
                    full.push(slice(
                        ts,
                        MemKind::Xfer,
                        64 * bursts + 100 + u64::from(op),
                        bursts,
                    ));
                }
                1 => {
                    // An op that only hit: no slice.
                    events.push(access(op, AccessKind::Hit, ts));
                }
                2 => {
                    events.push(TraceEvent::StreamIo {
                        op,
                        class: TensorClass::WGrad,
                        read_bytes: u64::from(op),
                        write_bytes: 3,
                        cycle: ts,
                    });
                    full.push(slice(ts, MemKind::Stream, u64::from(op) + 3, 1));
                }
                _ => {
                    events.push(wb(op, 1 << (op % 40), ts));
                    full.push(slice(ts, MemKind::Flush, 1 << (op % 40), 1));
                }
            }
        }
        // Alone in the last merge group, so no sum overflows.
        let ts = u64::from(ops) * 7;
        events.push(wb(ops, u64::MAX, ts));
        full.push(slice(ts, MemKind::Flush, u64::MAX, 1));
        assert!(full.len() > 2 * SLICE_CAP);
        assert_eq!(full.len() % full.len().div_ceil(SLICE_CAP), 1);

        let count = memory_slices(&events);
        assert_eq!(count, full.len() as u64);
        let mut b = TrackBuilder::new(bytes_per_cycle, latency, StreamShape::default(), count);
        for &e in &events {
            b.record(e);
            assert!(b.memory.slices.out.len() <= SLICE_CAP);
        }
        assert_eq!(b.finish().memory, coalesce(full, SLICE_CAP));
    }

    #[test]
    fn memory_slices_aggregate_per_op() {
        let wb = |op, bytes, cycle| TraceEvent::WriteBack {
            op,
            key: key(),
            class: TensorClass::InGrad,
            bytes,
            spill: false,
            cycle,
        };
        let events = [
            wb(0, 10, 100),
            wb(0, 10, 100),
            wb(1, 0, 200), // zero bytes: no slice
            TraceEvent::StreamIo {
                op: 2,
                class: TensorClass::WGrad,
                read_bytes: 4,
                write_bytes: 4,
                cycle: 300,
            },
        ];
        assert_eq!(memory_slices(&events), 2);
        let mut b = TrackBuilder::new(2.0, 5, StreamShape::default(), 2);
        for e in events {
            b.record(e);
        }
        let t = b.finish();
        assert_eq!(t.memory.len(), 2);
        assert_eq!(t.memory[0].tag, MemKind::Flush);
        assert_eq!((t.memory[0].ts, t.memory[0].dur), (100, 15));
        assert_eq!(t.memory[0].extra, 20);
        assert_eq!(t.memory[1].tag, MemKind::Stream);
        assert_eq!(t.memory[1].dur, 9);
    }
}
