//! Cycle-stamped event recording for analytic replays.
//!
//! A run's reports are end-of-run aggregates; the paper's argument,
//! however, is about *when* a `dY` tile is resident versus refetched. The
//! [`Recorder`] trait lets a run emit its tile-level timeline — fetches,
//! hits, accumulator materialisations, spills, write-backs, tile-GEMM
//! issues, and the phase transitions between the interleaved `dX`/`dW`
//! sub-streams — without costing the simulate-and-select hot loop
//! anything when recording is off.
//!
//! The hook lives in one place, [`crate::replay_recorded`] — the one
//! replay, generic over its input, which evaluates candidates, produces
//! the reported numbers and runs [`crate::Engine::run`].
//! Zero-cost-when-off is structural, not a promise: the replay is generic
//! over `R: Recorder`, every recording site is guarded by
//! `if R::ENABLED { ... }`, and [`NullRecorder`] sets the associated
//! `const ENABLED: bool` to `false` — so the monomorphised default path
//! contains no recording code at all.
//!
//! [`MetricsFold`] is a recorder that derives the per-run summary
//! instruments online, as the replay emits events, without storing the
//! stream: the SPM occupancy high-water mark, per-class reuse-distance
//! histograms, and the dY reuse ratio over time resolved per tile (the
//! paper's Figure 5 quantity, per tile instead of summed).
//! [`RunMetrics::from_events`] is the same fold over an already recorded
//! slice. [`EventLog`], which stores every event, is for checks that
//! compare the raw stream against an independent model.
//!
//! How many events of each kind a replay emits is fixed by its input
//! alone ([`StreamShape`]: counted by [`StreamShape::of_input`], or given
//! in closed form by the input's generator), so a recorder can size its
//! caps before the run starts. [`Decimator`] uses that to
//! keep exactly the samples [`decimate`] would keep of the full series,
//! without ever holding the full series: the fold's dY series is capped
//! at [`DY_SERIES_CAP`] points (+ the last) while the run lasts.

use crate::analytic::{GemmAccesses, OpVisitor, ReplayInput};
use crate::trace::{StreamOp, TileKey};
use igo_tensor::TensorClass;
use std::ops::ControlFlow;

/// Which interleaved backward sub-stream a tile-GEMM belongs to, judged by
/// its accumulator's tensor class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Accumulating into `dX` (input gradient).
    Dx,
    /// Accumulating into `dW` (weight gradient).
    Dw,
    /// Anything else (forward ops, reductions, accumulator-free ops).
    Other,
}

impl Phase {
    /// Classify an op by its accumulator class (`None` for no accumulator).
    pub fn of_accumulator(class: Option<TensorClass>) -> Phase {
        match class {
            Some(TensorClass::InGrad) => Phase::Dx,
            Some(TensorClass::WGrad) => Phase::Dw,
            _ => Phase::Other,
        }
    }

    /// Stable display label.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Dx => "dX",
            Phase::Dw => "dW",
            Phase::Other => "other",
        }
    }
}

/// What an SPM tile access did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// The tile was already resident: no DRAM traffic.
    Hit,
    /// The tile was fetched from DRAM (operand miss, or re-fetch of a
    /// previously spilled accumulator).
    Fetch,
    /// A fresh accumulator tile materialised in SPM (or wrote through on a
    /// bypass) with no DRAM read.
    Materialize,
}

/// One cycle-stamped replay event, at a point of the replayed schedule.
///
/// `op` is the index of the originating [`crate::ScheduleOp`] in the
/// schedule's op stream. Memory-side events (`Access`, `WriteBack`,
/// `StreamIo`) are stamped with the op's *memory-timeline start* cycle;
/// compute-side events (`GemmIssue`, `PhaseBegin`/`PhaseEnd`) with the
/// compute-timeline issue cycle. Cycle stamps are rounded to integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A tile access resolved against the SPM residency model.
    Access {
        /// Originating op index.
        op: u32,
        /// Dense id of the tile touched: ids number the replayed input's
        /// tiles in [`TileKey`] order ([`crate::ReplayInput::key_of`]
        /// names the tile).
        id: u32,
        /// Traffic class of the tile's tensor.
        class: TensorClass,
        /// Clipped tile size in bytes.
        bytes: u64,
        /// Hit / fetch / materialise.
        kind: AccessKind,
        /// Memory-timeline cycle at which the op's transfers start.
        cycle: u64,
        /// Bytes resident in SPM immediately after this access.
        occupancy: u64,
    },
    /// A dirty tile written back to DRAM.
    WriteBack {
        /// Originating op index (the evicting access's op, or the barrier /
        /// end-of-run flush op).
        op: u32,
        /// The tile written back.
        key: TileKey,
        /// Traffic class of the tile's tensor.
        class: TensorClass,
        /// Bytes written.
        bytes: u64,
        /// `true` for a capacity spill (the tile may be re-fetched later),
        /// `false` for a flush at a kernel boundary or end of run.
        spill: bool,
        /// Memory-timeline cycle of the write.
        cycle: u64,
    },
    /// A tile-GEMM issued on the systolic array.
    GemmIssue {
        /// Originating op index.
        op: u32,
        /// Compute-timeline cycle the GEMM starts.
        start: u64,
        /// Systolic cycles the GEMM occupies.
        cycles: u64,
        /// Which backward sub-stream the op belongs to.
        phase: Phase,
    },
    /// A pure data-movement op (reduction, element-wise pass).
    StreamIo {
        /// Originating op index.
        op: u32,
        /// Traffic class.
        class: TensorClass,
        /// Bytes read from DRAM.
        read_bytes: u64,
        /// Bytes written to DRAM.
        write_bytes: u64,
        /// Memory-timeline start cycle.
        cycle: u64,
    },
    /// The run entered a new phase (first GEMM of a sub-stream).
    PhaseBegin {
        /// Op index of the first op in the phase.
        op: u32,
        /// The phase entered.
        phase: Phase,
        /// Compute-timeline cycle.
        cycle: u64,
    },
    /// The run left a phase (every `PhaseBegin` gets a matching end).
    PhaseEnd {
        /// Op index of the op after the phase (or the last op at run end).
        op: u32,
        /// The phase left.
        phase: Phase,
        /// Compute-timeline cycle.
        cycle: u64,
    },
    /// A kernel boundary was crossed: residency dropped, timelines synced.
    Barrier {
        /// The barrier op's index.
        op: u32,
        /// Memory-timeline cycle after the sync.
        cycle: u64,
    },
}

impl TraceEvent {
    /// The event's cycle stamp (memory- or compute-timeline as documented
    /// per variant).
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::Access { cycle, .. }
            | TraceEvent::WriteBack { cycle, .. }
            | TraceEvent::StreamIo { cycle, .. }
            | TraceEvent::PhaseBegin { cycle, .. }
            | TraceEvent::PhaseEnd { cycle, .. }
            | TraceEvent::Barrier { cycle, .. } => cycle,
            TraceEvent::GemmIssue { start, .. } => start,
        }
    }
}

/// `x.round() as u64`, the rounding of every cycle stamp, without a call
/// into the C library's `round` (which `f64::round` is on targets without
/// SSE4.1). For `0 <= x < 2⁵³` the integer part is exact and so is the
/// fraction left after subtracting it; larger values are integers, and
/// negative, NaN and out-of-range values saturate as the cast does.
#[inline]
pub fn round_cycles(x: f64) -> u64 {
    let whole = x as u64;
    whole.saturating_add(u64::from(x - whole as f64 >= 0.5))
}

/// How many events of each kind a replay of one stream emits.
///
/// The counts depend on the stream alone, not on which accesses hit, so
/// [`StreamShape::of_input`] knows them before the replay starts and
/// [`StreamShape::of_events`] recounts them from a recorded run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamShape {
    /// Tile GEMM ops: one [`TraceEvent::GemmIssue`] each.
    pub gemm_ops: u64,
    /// Tile accesses: one [`TraceEvent::Access`] each.
    pub accesses: u64,
    /// Kernel boundaries: one [`TraceEvent::Barrier`] each.
    pub barriers: u64,
    /// Tile accesses of `dY` ([`TensorClass::OutGrad`]) tiles.
    pub dy_accesses: u64,
    /// Phase spans: one [`TraceEvent::PhaseBegin`] and one
    /// [`TraceEvent::PhaseEnd`] each.
    pub phase_spans: u64,
    /// One past the largest dense tile id accessed (0 with no access).
    pub id_end: u32,
    /// The dense ids of the `dY` tiles accessed lie in
    /// `dy_id_start..dy_id_end` (both 0 with no `dY` access).
    pub dy_id_start: u32,
    /// One past the largest `dY` tile id accessed.
    pub dy_id_end: u32,
}

impl StreamShape {
    /// Count the events a replay of `input` emits, in one pass over its ops
    /// that replays nothing: the oracle for a shape known in closed form. A
    /// GEMM's phase is judged, as in the replay, by the class of its
    /// accumulator.
    pub fn of_input<I: ReplayInput + ?Sized>(input: &I) -> Self {
        let mut count = ShapeCount::default();
        let _ = input.drive(&mut count);
        count.shape
    }

    /// Count the shape of an already recorded run.
    pub fn of_events(events: &[TraceEvent]) -> Self {
        let mut shape = Self::default();
        for event in events {
            match *event {
                TraceEvent::Access { id, class, .. } => shape.access(id, class),
                TraceEvent::GemmIssue { .. } => shape.gemm_ops += 1,
                TraceEvent::Barrier { .. } => shape.barriers += 1,
                TraceEvent::PhaseBegin { .. } => shape.phase_spans += 1,
                TraceEvent::WriteBack { .. }
                | TraceEvent::StreamIo { .. }
                | TraceEvent::PhaseEnd { .. } => {}
            }
        }
        shape
    }

    /// Count one access of tile `id` of `class`.
    #[inline]
    fn access(&mut self, id: u32, class: TensorClass) {
        self.accesses += 1;
        self.id_end = self.id_end.max(id + 1);
        if class == TensorClass::OutGrad {
            self.dy_id_start = if self.dy_accesses == 0 {
                id
            } else {
                self.dy_id_start.min(id)
            };
            self.dy_accesses += 1;
            self.dy_id_end = self.dy_id_end.max(id + 1);
        }
    }
}

/// The [`OpVisitor`] behind [`StreamShape::of_input`].
#[derive(Default)]
struct ShapeCount {
    shape: StreamShape,
    phase: Option<Phase>,
}

impl OpVisitor for ShapeCount {
    fn gemm(&mut self, op: GemmAccesses<'_>) -> ControlFlow<()> {
        let acc = op.accesses.last().filter(|_| op.acc).map(|a| a.class);
        let phase = Phase::of_accumulator(acc);
        if self.phase != Some(phase) {
            self.shape.phase_spans += 1;
            self.phase = Some(phase);
        }
        self.shape.gemm_ops += 1;
        for a in op.accesses {
            self.shape.access(a.id, a.class);
        }
        ControlFlow::Continue(())
    }

    fn stream(&mut self, _: &StreamOp) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }

    fn barrier(&mut self) -> ControlFlow<()> {
        self.shape.barriers += 1;
        ControlFlow::Continue(())
    }
}

/// Keep at most `max` evenly-strided samples of `values` (every
/// `⌈len / max⌉`-th, starting with the first), plus the last sample when
/// the stride skipped it; a series of at most `max` samples is kept whole.
pub fn decimate<T: Copy + PartialEq>(values: &[T], max: usize) -> Vec<T> {
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

/// [`decimate`] applied while a series of known length arrives: pushing
/// the `len` samples one by one and then calling [`Decimator::finish`]
/// yields exactly `decimate(&samples, max)`, holding at most `max`
/// samples until `finish` adds the last.
#[derive(Debug, Clone)]
pub struct Decimator<T> {
    stride: u64,
    /// Samples to skip before the next kept one.
    skip: u64,
    kept: Vec<T>,
    last: Option<T>,
}

impl<T: Copy + PartialEq> Decimator<T> {
    /// A decimator for a series of `len` samples capped at `max` (at
    /// least 1).
    pub fn new(len: u64, max: usize) -> Self {
        let max = max.max(1) as u64;
        let stride = if len <= max { 1 } else { len.div_ceil(max) };
        Self {
            stride,
            skip: 0,
            kept: Vec::with_capacity(len.min(max + 1) as usize),
            last: None,
        }
    }

    /// Offer the next sample: every `stride`-th is kept, counted down
    /// rather than divided out.
    #[inline]
    pub fn push(&mut self, value: T) {
        if self.skip == 0 {
            self.kept.push(value);
            self.skip = self.stride;
        }
        self.skip -= 1;
        self.last = Some(value);
    }

    /// Samples kept so far (at most `max`; [`Decimator::finish`] may add
    /// the last one offered).
    pub fn len(&self) -> usize {
        self.kept.len()
    }

    /// Whether no sample has been kept yet.
    pub fn is_empty(&self) -> bool {
        self.kept.is_empty()
    }

    /// The decimated series: the kept samples plus the last one offered,
    /// when the stride skipped it.
    pub fn finish(mut self) -> Vec<T> {
        if let Some(last) = self.last {
            if self.kept.last() != Some(&last) {
                self.kept.push(last);
            }
        }
        self.kept
    }
}

/// Sink for replay events.
///
/// Implementations with `ENABLED == false` guarantee the replay skips
/// every recording site at compile time (the guards are
/// `if R::ENABLED { ... }` on an associated `const`).
pub trait Recorder {
    /// Whether the replay should emit events at all. Recording sites are
    /// compiled out when this is `false`.
    const ENABLED: bool = true;

    /// Receive one event. Called only when [`Recorder::ENABLED`] is true.
    fn record(&mut self, event: TraceEvent);
}

/// The default no-op recorder: compiles the replay down to the exact
/// unrecorded hot path ([`Recorder::ENABLED`] is `false`).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    const ENABLED: bool = false;

    fn record(&mut self, _event: TraceEvent) {}
}

/// A recorder that stores every event in order.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    /// The recorded events, in emission order.
    pub events: Vec<TraceEvent>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Recorder for EventLog {
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// Two recorders fed the same stream, in order: `(a, b)` records into `a`
/// then `b`.
impl<A: Recorder, B: Recorder> Recorder for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn record(&mut self, event: TraceEvent) {
        if A::ENABLED {
            self.0.record(event);
        }
        if B::ENABLED {
            self.1.record(event);
        }
    }
}

/// Number of log₂ reuse-distance buckets ([1,2), [2,4), ... with the last
/// bucket absorbing everything ≥ 2¹⁵).
pub const REUSE_BUCKETS: usize = 16;

/// Histogram of tile reuse distances, in *access count* (how many tile
/// accesses separate two touches of the same tile, in stream order).
///
/// Every access lands in exactly one bucket: a first-ever touch of a tile
/// is `cold`; a repeat at distance `d ≥ 1` lands in bucket `⌊log₂ d⌋`
/// (clamped to the last bucket). Hence `total() == accesses == hits +
/// misses` for the recorded run — the conservation the trace tests pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReuseHistogram {
    /// First-ever accesses (no prior touch to measure a distance from).
    pub cold: u64,
    /// `buckets[i]` counts repeats with `⌊log₂ distance⌋ == i` (last
    /// bucket clamps).
    pub buckets: [u64; REUSE_BUCKETS],
}

impl ReuseHistogram {
    fn add(&mut self, distance: u64) {
        let idx = (distance.max(1).ilog2() as usize).min(REUSE_BUCKETS - 1);
        self.buckets[idx] += 1;
    }

    /// All accesses accounted for: cold plus every distance bucket.
    pub fn total(&self) -> u64 {
        self.cold + self.buckets.iter().sum::<u64>()
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &ReuseHistogram) {
        self.cold += other.cold;
        for (a, b) in self.buckets.iter_mut().zip(other.buckets) {
            *a += b;
        }
    }
}

/// Per-tensor-class access metrics derived from a recorded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassMetrics {
    /// Tile accesses of this class.
    pub accesses: u64,
    /// Accesses that hit in SPM.
    pub hits: u64,
    /// Reuse-distance histogram over this class's accesses.
    pub histogram: ReuseHistogram,
}

impl ClassMetrics {
    /// Misses (`accesses - hits`).
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }
}

/// One point of the dY reuse-ratio time series: the cumulative hit ratio
/// of `dY` (OutGrad) tile accesses up to `cycle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DyReusePoint {
    /// Memory-timeline cycle of the access.
    pub cycle: u64,
    /// Cumulative dY accesses so far (including this one).
    pub accesses: u64,
    /// Cumulative dY hits so far.
    pub hits: u64,
}

impl DyReusePoint {
    /// The cumulative reuse (hit) ratio at this point.
    pub fn ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// Per-tile access statistics (reported for `dY`, the paper's subject).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileStats {
    /// The tile.
    pub key: TileKey,
    /// Clipped tile size in bytes (last observed).
    pub bytes: u64,
    /// Accesses to this tile.
    pub accesses: u64,
    /// Accesses that hit in SPM.
    pub hits: u64,
}

impl TileStats {
    /// Per-tile reuse ratio: hits over accesses.
    pub fn reuse_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// Derived metrics of one recorded run.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Residency capacity the run was recorded against, in bytes.
    pub capacity: u64,
    /// Highest SPM residency observed after any access, in bytes.
    pub occupancy_high_water: u64,
    /// Per-class metrics, indexed like [`TensorClass::ALL`].
    pub per_class: [ClassMetrics; 7],
    /// Cumulative dY reuse ratio over (memory-timeline) time: the
    /// one-point-per-dY-access series decimated to the fold's cap
    /// ([`DY_SERIES_CAP`] for traces and [`RunMetrics::from_events`]),
    /// plus the last point, which counts every dY access.
    pub dy_timeline: Vec<DyReusePoint>,
    /// Per-dY-tile access statistics, sorted by tile key.
    pub dy_tiles: Vec<TileStats>,
}

impl RunMetrics {
    /// Compute the metrics of a recorded run with residency `capacity`,
    /// whose dense tile ids `key_of` names.
    pub fn from_events(
        events: &[TraceEvent],
        capacity: u64,
        key_of: impl Fn(u32) -> TileKey,
    ) -> Self {
        let shape = StreamShape::of_events(events);
        let mut fold = MetricsFold::new(capacity, &shape, DY_SERIES_CAP, key_of);
        for &event in events {
            fold.record(event);
        }
        fold.finish()
    }

    /// Metrics for one class.
    pub fn class(&self, class: TensorClass) -> &ClassMetrics {
        &self.per_class[class.index()]
    }

    /// Total tile accesses across all classes.
    pub fn total_accesses(&self) -> u64 {
        self.per_class.iter().map(|c| c.accesses).sum()
    }

    /// Total SPM hits across all classes.
    pub fn total_hits(&self) -> u64 {
        self.per_class.iter().map(|c| c.hits).sum()
    }

    /// Final cumulative dY reuse ratio (0 when the run touches no dY).
    pub fn dy_reuse_ratio(&self) -> f64 {
        self.dy_timeline.last().map_or(0.0, DyReusePoint::ratio)
    }
}

/// Per-`dY`-tile fold state: the tile, its bytes (last observed) and its
/// access counters.
#[derive(Debug, Clone, Copy)]
struct DyTile {
    key: TileKey,
    bytes: u64,
    accesses: u64,
    hits: u64,
}

/// "Not accessed yet" in [`MetricsFold`]'s last-seen positions.
const UNSEEN: u64 = u64::MAX;

/// Most points a traced run's dY series keeps, on top of its last point.
pub const DY_SERIES_CAP: usize = 512;

/// A recorder that folds each `Access` event into [`RunMetrics`] as it
/// arrives, so a run's metrics never need its event stream stored.
///
/// Its state is the metrics themselves, each tile's last access position
/// (for reuse distances) in one vector indexed by dense tile id, and
/// counters for the `dY` ids only, all sized by the run's
/// [`StreamShape`] before it starts, so an access costs no hashing and no
/// growth. That is bounded by the tile grids the run touches. The dY
/// series is decimated while it arrives ([`Decimator`]), which needs the
/// run's dY access count up front, so it never holds more than its cap
/// plus one points.
#[derive(Debug, Clone)]
pub struct MetricsFold {
    out: RunMetrics,
    /// Global access counter: reuse distances are measured in accesses
    /// across all classes, the stream the SPM actually sees.
    position: u64,
    /// Position of each tile's latest access, by dense id ([`UNSEEN`]
    /// before its first).
    last_seen: Vec<u64>,
    /// First `dY` tile id: `dy[i]` is tile `dy_start + i`.
    dy_start: u32,
    dy: Vec<DyTile>,
    dy_series: Decimator<DyReusePoint>,
}

impl MetricsFold {
    /// An empty fold for a run with residency `capacity` bytes that will
    /// emit the accesses `shape` counts ([`StreamShape::of_input`]),
    /// keeping at most `max_points` dY series points plus the last
    /// (traces use [`DY_SERIES_CAP`]); `key_of` names the tile behind a
    /// dense id ([`crate::ReplayInput::key_of`]), and is asked for the dY
    /// ids only.
    pub fn new(
        capacity: u64,
        shape: &StreamShape,
        max_points: usize,
        key_of: impl Fn(u32) -> TileKey,
    ) -> Self {
        let dy = (shape.dy_id_start..shape.dy_id_end)
            .map(|id| DyTile {
                key: key_of(id),
                bytes: 0,
                accesses: 0,
                hits: 0,
            })
            .collect();
        Self {
            out: RunMetrics {
                capacity,
                ..RunMetrics::default()
            },
            position: 0,
            last_seen: vec![UNSEEN; shape.id_end as usize],
            dy_start: shape.dy_id_start,
            dy,
            dy_series: Decimator::new(shape.dy_accesses, max_points),
        }
    }

    /// The metrics of every event recorded so far; `dy_tiles` sorted by
    /// tile key.
    pub fn finish(self) -> RunMetrics {
        let mut out = self.out;
        out.dy_timeline = self.dy_series.finish();
        // Dense ids number tiles in key order.
        out.dy_tiles = self
            .dy
            .iter()
            .filter(|t| t.accesses > 0)
            .map(|t| TileStats {
                key: t.key,
                bytes: t.bytes,
                accesses: t.accesses,
                hits: t.hits,
            })
            .collect();
        out
    }
}

impl Recorder for MetricsFold {
    #[inline(always)]
    fn record(&mut self, event: TraceEvent) {
        let TraceEvent::Access {
            id,
            class,
            bytes,
            kind,
            cycle,
            occupancy,
            ..
        } = event
        else {
            return;
        };
        let out = &mut self.out;
        out.occupancy_high_water = out.occupancy_high_water.max(occupancy);
        let hit = kind == AccessKind::Hit;
        let cm = &mut out.per_class[class.index()];
        cm.accesses += 1;
        cm.hits += u64::from(hit);
        let last = std::mem::replace(&mut self.last_seen[id as usize], self.position);
        if last == UNSEEN {
            cm.histogram.cold += 1;
        } else {
            cm.histogram.add(self.position - last);
        }
        self.position += 1;
        if class == TensorClass::OutGrad {
            let tile = &mut self.dy[(id - self.dy_start) as usize];
            tile.bytes = bytes;
            tile.accesses += 1;
            tile.hits += u64::from(hit);
            self.dy_series.push(DyReusePoint {
                cycle,
                accesses: cm.accesses,
                hits: cm.hits,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TensorId;
    use igo_tensor::TileCoord;

    /// The tile behind dense id `id` in a registry of one-row tensors of
    /// 100 tiles each.
    fn key_of(id: u32) -> TileKey {
        TileKey {
            tensor: TensorId::from_raw(id / 100),
            coord: TileCoord::new(0, id % 100),
        }
    }

    /// An access of tile `(0, c)` of tensor `t` (see [`key_of`]).
    fn access(t: u32, c: u32, class: TensorClass, kind: AccessKind, occ: u64) -> TraceEvent {
        TraceEvent::Access {
            op: 0,
            id: 100 * t + c,
            class,
            bytes: 100,
            kind,
            cycle: 0,
            occupancy: occ,
        }
    }

    #[test]
    fn round_cycles_equals_round() {
        let mut rng = igo_tensor::SplitMix64::new(7);
        let edges = [
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            0.499_999_999_999_999_94,
            1.0 - f64::EPSILON / 2.0,
            4_503_599_627_370_495.5,
            9_007_199_254_740_993.0,
            1e19,
            2e19,
            -0.5,
            -1.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let random = (0..100_000).map(|i| {
            let x = rng.next_f64() * 2f64.powi(i % 70);
            if i % 3 == 0 {
                x.floor() + 0.5
            } else {
                x
            }
        });
        for x in edges.into_iter().chain(random) {
            assert_eq!(round_cycles(x), x.round() as u64, "{x:e}");
        }
    }

    #[test]
    fn histogram_buckets_by_log2_distance() {
        let mut h = ReuseHistogram::default();
        h.add(1); // bucket 0
        h.add(2); // bucket 1
        h.add(3); // bucket 1
        h.add(4); // bucket 2
        h.add(1 << 20); // clamped to the last bucket
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[REUSE_BUCKETS - 1], 1);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn metrics_account_every_access_once() {
        use AccessKind::{Fetch, Hit};
        use TensorClass::{OutGrad, Weight};
        let events = vec![
            access(0, 0, OutGrad, Fetch, 100),
            access(1, 0, Weight, Fetch, 200),
            access(0, 0, OutGrad, Hit, 200), // distance 2
            access(0, 1, OutGrad, Fetch, 300),
            access(0, 0, OutGrad, Hit, 300), // distance 2
        ];
        let m = RunMetrics::from_events(&events, 1000, key_of);
        assert_eq!(m.total_accesses(), 5);
        assert_eq!(m.total_hits(), 2);
        assert_eq!(m.occupancy_high_water, 300);
        let dy = m.class(OutGrad);
        assert_eq!(dy.accesses, 4);
        assert_eq!(dy.hits, 2);
        assert_eq!(dy.misses(), 2);
        // cold(0,0) + cold(0,1) + two distance-2 repeats.
        assert_eq!(dy.histogram.cold, 2);
        assert_eq!(dy.histogram.buckets[1], 2);
        assert_eq!(dy.histogram.total(), dy.accesses);
        let total_hist: u64 = m.per_class.iter().map(|c| c.histogram.total()).sum();
        assert_eq!(total_hist, m.total_accesses());
    }

    #[test]
    fn dy_timeline_is_cumulative_and_per_tile_stats_sorted() {
        use AccessKind::{Fetch, Hit};
        let events = vec![
            access(0, 1, TensorClass::OutGrad, Fetch, 100),
            access(0, 0, TensorClass::OutGrad, Fetch, 200),
            access(0, 1, TensorClass::OutGrad, Hit, 200),
        ];
        let m = RunMetrics::from_events(&events, 1000, key_of);
        assert_eq!(m.dy_timeline.len(), 3);
        let last = m.dy_timeline.last().unwrap();
        assert_eq!((last.accesses, last.hits), (3, 1));
        assert!((m.dy_reuse_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.dy_tiles.len(), 2);
        assert!(m.dy_tiles[0].key < m.dy_tiles[1].key, "sorted by key");
        let t1 = m.dy_tiles.iter().find(|t| t.key.coord.c == 1).unwrap();
        assert_eq!((t1.accesses, t1.hits), (2, 1));
        assert!((t1.reuse_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn decimator_keeps_what_decimate_keeps() {
        for max in [1usize, 2, 3, 7] {
            for len in 0..=3 * max as u64 + 2 {
                let values: Vec<u64> = (0..len).collect();
                let mut d = Decimator::new(len, max);
                for &v in &values {
                    d.push(v);
                    assert!(d.len() <= max, "max {max}, len {len}");
                }
                assert_eq!(d.finish(), decimate(&values, max), "max {max}, len {len}");
            }
        }
        // Like `decimate`, a last sample equal to the last kept one is not
        // repeated.
        let flat = [5u64; 10];
        let mut d = Decimator::new(10, 3);
        flat.iter().for_each(|&v| d.push(v));
        assert_eq!(d.finish(), decimate(&flat, 3));
    }

    #[test]
    fn dy_series_stays_capped_while_the_run_lasts() {
        use AccessKind::{Fetch, Hit};
        let n = 5 * DY_SERIES_CAP as u32 + 3;
        let events: Vec<TraceEvent> = (0..n)
            .map(|i| {
                let kind = if i % 3 == 0 { Fetch } else { Hit };
                access(0, i % 7, TensorClass::OutGrad, kind, 100)
            })
            .collect();
        let mut fold = MetricsFold::new(
            1000,
            &StreamShape::of_events(&events),
            DY_SERIES_CAP,
            key_of,
        );
        let mut full = Vec::new();
        let mut hits = 0;
        for (i, &e) in events.iter().enumerate() {
            fold.record(e);
            assert!(fold.dy_series.len() <= DY_SERIES_CAP);
            hits += u64::from(i % 3 != 0);
            full.push(DyReusePoint {
                cycle: 0,
                accesses: i as u64 + 1,
                hits,
            });
        }
        let m = fold.finish();
        assert!(m.dy_timeline.len() <= DY_SERIES_CAP + 1);
        assert_eq!(m.dy_timeline, decimate(&full, DY_SERIES_CAP));
        let last = m.dy_timeline.last().unwrap();
        assert_eq!((last.accesses, last.hits), (u64::from(n), hits));
        assert_eq!(
            m.dy_timeline,
            RunMetrics::from_events(&events, 1000, key_of).dy_timeline
        );
    }

    #[test]
    fn phase_classification_follows_accumulator_class() {
        assert_eq!(Phase::of_accumulator(Some(TensorClass::InGrad)), Phase::Dx);
        assert_eq!(Phase::of_accumulator(Some(TensorClass::WGrad)), Phase::Dw);
        assert_eq!(
            Phase::of_accumulator(Some(TensorClass::Ofmap)),
            Phase::Other
        );
        assert_eq!(Phase::of_accumulator(None), Phase::Other);
        assert_eq!(Phase::Dx.label(), "dX");
    }

    #[test]
    fn null_recorder_is_disabled() {
        // Read through a function so the flags are checked as the replay's
        // generic code sees them (and clippy accepts the runtime assert).
        fn enabled<R: Recorder>() -> bool {
            R::ENABLED
        }
        assert!(!enabled::<NullRecorder>());
        assert!(enabled::<EventLog>());
        assert!(enabled::<(NullRecorder, MetricsFold)>());
        assert!(!enabled::<(NullRecorder, NullRecorder)>());
    }

    #[test]
    fn tee_feeds_both_recorders() {
        use AccessKind::{Fetch, Hit};
        let events = vec![
            access(0, 0, TensorClass::OutGrad, Fetch, 100),
            access(1, 0, TensorClass::Weight, Fetch, 200),
            access(0, 0, TensorClass::OutGrad, Hit, 200),
        ];
        let shape = StreamShape::of_events(&events);
        let mut tee = (
            EventLog::new(),
            MetricsFold::new(1000, &shape, DY_SERIES_CAP, key_of),
        );
        for &e in &events {
            tee.record(e);
        }
        assert_eq!(tee.0.events, events, "the tee forwards every event");
        let streamed = tee.1.finish();
        let sliced = RunMetrics::from_events(&events, 1000, key_of);
        assert_eq!(streamed.per_class, sliced.per_class);
        assert_eq!(streamed.dy_timeline, sliced.dy_timeline);
        assert_eq!(streamed.dy_tiles, sliced.dy_tiles);
        assert_eq!(streamed.occupancy_high_water, 200);
    }
}
