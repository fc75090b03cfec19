//! Per-core timeline tracks folded from a recorded replay's event stream.
//!
//! The Chrome trace exporter ([`crate::report_io::TraceExport`]) draws
//! each core as a compute track (tile-GEMM slices, `dX`/`dW` phase spans),
//! a memory track (per-op transfer/stream/flush slices, barrier instants)
//! and an SPM-occupancy counter. `TrackBuilder` is the [`Recorder`] that
//! builds those tracks while the replay runs; `TrackBuilder::finish`
//! then caps them so what a [`crate::observe::CoreTrace`] keeps does not
//! grow with the number of events.
//!
//! A resnet50 layer can issue ~10⁵ tile-GEMMs, so raw per-event tracks
//! would export hundreds of megabytes. Adjacent slices are *coalesced*
//! (durations, op counts and byte counts are preserved in the merged
//! slice) and counter and barrier samples are *decimated* evenly. The
//! caps apply per core once its run ends, because the merge group size
//! depends on the final track length.

use igo_npu_sim::{AccessKind, Phase, Recorder, TraceEvent};

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

    /// Display name: the tag's label, suffixed `+` when mixed.
    pub fn name(&self) -> String {
        let label = self.tag.label();
        if self.mixed {
            format!("{label}+")
        } else {
            label.to_string()
        }
    }
}

/// Merge `slices` down to at most `max` by grouping adjacent runs. The
/// merged slice spans from the first slice's start to the last slice's
/// end and sums `ops`/`extra`, so nothing is silently dropped.
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

/// Keep at most `max` evenly-strided samples, always retaining the last.
pub(crate) fn decimate<T: Copy + PartialEq>(values: &[T], max: usize) -> Vec<T> {
    if values.len() <= max {
        return values.to_vec();
    }
    let stride = values.len().div_ceil(max);
    let mut out: Vec<T> = values.iter().copied().step_by(stride).collect();
    if let Some(&last) = values.last() {
        if out.last() != Some(&last) {
            out.push(last);
        }
    }
    out
}

/// One core's timeline tracks, built while its replay records; once
/// the run ends each track is no longer than its cap.
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
    bursts: u64,
    writeback: u64,
    stream: u64,
    accesses: bool,
    streamed: bool,
}

impl MemAgg {
    /// The memory slice this op contributes, reconstructed with the
    /// engine's own cost model (`bytes / bandwidth + bursts × latency`).
    fn into_slice(self, bytes_per_cycle: f64, burst_latency: u64) -> Option<Slice<MemKind>> {
        let (kind, bytes, dur) = if self.streamed {
            let b = self.stream;
            (
                MemKind::Stream,
                b,
                b as f64 / bytes_per_cycle + burst_latency as f64,
            )
        } else if self.accesses {
            let b = self.fetch + self.writeback;
            (
                MemKind::Xfer,
                b,
                b as f64 / bytes_per_cycle + (self.bursts.max(1) * burst_latency) as f64,
            )
        } else {
            let b = self.writeback;
            (
                MemKind::Flush,
                b,
                b as f64 / bytes_per_cycle + burst_latency as f64,
            )
        };
        if bytes == 0 {
            return None;
        }
        Some(Slice::new(self.start, dur.round() as u64, kind, bytes))
    }
}

/// A [`Recorder`] that folds one core's event stream into its
/// [`CoreTracks`].
///
/// While the run lasts the tracks hold one entry per GEMM, memory op,
/// phase span, access and barrier (compact tagged records, not events);
/// [`TrackBuilder::finish`] applies the caps.
pub(crate) struct TrackBuilder {
    bytes_per_cycle: f64,
    burst_latency: u64,
    tracks: CoreTracks,
    open_phase: Option<(Phase, u64)>,
    /// The op whose memory events `agg` is collecting.
    cur_op: Option<u32>,
    agg: MemAgg,
}

impl TrackBuilder {
    /// A builder for a core with the engine's DRAM bandwidth (bytes per
    /// cycle) and per-burst latency, used to size memory slices.
    pub(crate) fn new(bytes_per_cycle: f64, burst_latency: u64) -> Self {
        Self {
            bytes_per_cycle,
            burst_latency,
            tracks: CoreTracks::default(),
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
            if let Some(s) = agg.into_slice(self.bytes_per_cycle, self.burst_latency) {
                self.tracks.memory.push(s);
            }
        }
    }

    /// End the run: close the last memory slice and cap every track.
    pub(crate) fn finish(mut self) -> CoreTracks {
        self.flush_mem();
        let t = self.tracks;
        CoreTracks {
            compute: coalesce(t.compute, SLICE_CAP),
            memory: coalesce(t.memory, SLICE_CAP),
            phases: coalesce(t.phases, PHASE_CAP),
            occupancy: decimate(&t.occupancy, COUNTER_CAP),
            barriers: decimate(&t.barriers, BARRIER_CAP),
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
                self.tracks.occupancy.push((cycle, occupancy));
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
            } => self
                .tracks
                .compute
                .push(Slice::new(start, cycles, phase, cycles)),
            TraceEvent::PhaseBegin { phase, cycle, .. } => {
                self.open_phase = Some((phase, cycle));
            }
            TraceEvent::PhaseEnd { cycle, .. } => {
                if let Some((phase, begin)) = self.open_phase.take() {
                    self.tracks.phases.push(Slice::new(
                        begin,
                        cycle.saturating_sub(begin),
                        phase,
                        0,
                    ));
                }
            }
            TraceEvent::Barrier { cycle, .. } => self.tracks.barriers.push(cycle),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igo_npu_sim::{TensorId, TileKey};
    use igo_tensor::TileCoord;

    fn gemm(start: u64, phase: Phase) -> Slice<Phase> {
        Slice::new(start, 10, phase, 10)
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
        assert_eq!(merged[0].name(), "dX");
        assert_eq!(merged[1].name(), "dX+");
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

    #[test]
    fn memory_slices_aggregate_per_op() {
        let mut b = TrackBuilder::new(2.0, 5);
        let wb = |op, bytes, cycle| TraceEvent::WriteBack {
            op,
            key: TileKey {
                tensor: TensorId::from_raw(0),
                coord: TileCoord::new(0, 0),
            },
            class: igo_tensor::TensorClass::InGrad,
            bytes,
            spill: false,
            cycle,
        };
        b.record(wb(0, 10, 100));
        b.record(wb(0, 10, 100));
        b.record(wb(1, 0, 200)); // zero bytes: no slice
        b.record(TraceEvent::StreamIo {
            op: 2,
            class: igo_tensor::TensorClass::WGrad,
            read_bytes: 4,
            write_bytes: 4,
            cycle: 300,
        });
        let t = b.finish();
        assert_eq!(t.memory.len(), 2);
        assert_eq!(t.memory[0].name(), "flush");
        assert_eq!((t.memory[0].ts, t.memory[0].dur), (100, 15));
        assert_eq!(t.memory[0].extra, 20);
        assert_eq!(t.memory[1].name(), "stream");
        assert_eq!(t.memory[1].dur, 9);
    }
}
