//! The simulator's one timeline: the collected-stream replay, plus the
//! closed-form bounds that prune candidates before it runs.
//!
//! Design-space sweeps dominate simulator usage (SCALE-Sim ships an
//! analytical estimation mode next to its cycle-accurate one for exactly
//! this reason), and much of a cycle simulation's cost is *mechanical*:
//! materialising a [`crate::Schedule`] (one heap-allocated
//! [`crate::TileOp`] per tile GEMM) and interning every tile access through
//! a hash map. This module avoids that overhead in two tiers:
//!
//! * **Exact — allocation-free replay.** The replay runs
//!   any [`ReplayInput`]: a stream whose ops, dense tile ids (numbered in
//!   `TileKey` order, so the id alone breaks victim ties in
//!   `(next_use, TileKey)` order), bytes, next uses and per-region sums
//!   ([`RegionSum`]) come either from a generator that derives them from
//!   each candidate's loop nests (`core::generate`, what candidate
//!   selection and traces replay) or from an [`AnalyticCollector`], which
//!   serves [`Engine::run`], the ladder and multi-core replays, and the
//!   audit's oracle for the generator. The collector implements
//!   [`ScheduleSink`], so any op stream collects into flat buffers: each
//!   access is one 8-byte `{id, next_use}` record, linked to
//!   its tile's next access in the same barrier region as the stream is
//!   collected, each op one 8-byte record, with GEMM shapes and stream ops
//!   interned in side tables. [`replay_input`] advances the memory and
//!   compute timelines of the [`Engine`]'s machine model (see
//!   [`crate::engine`]) over a residency model — Belady's OPT
//!   (`ReplayOptCache`, a victim index sized by the residents) or, for
//!   the LRU ablation, [`crate::SpmCache`] keyed by dense id — in one
//!   forward pass, and stops its input when a cutoff proves the run
//!   dominated. [`Engine::run`] is [`AnalyticCollector::from_schedule`]
//!   plus this replay, and `core::audit` checks it against an
//!   independent shadow (the `BTreeMap`-based [`crate::OptCache`] with its
//!   own next-use scan and timelines).
//!   [`replay_recorded`] is the same loop with an event [`Recorder`]
//!   attached — the only recorder hook in the workspace — and with
//!   [`NullRecorder`] it compiles to the unrecorded replay; traces run it
//!   on the generator too.
//!
//! * **Lower bound — closed form, no emission at all.** For
//!   candidate pruning, [`BoundAccum`] assembles an admissible lower bound
//!   directly from grid extents: exact compute cycles / MAC / op counts
//!   (the tile-cycle sum is separable over the three grid axes, see
//!   [`compute_sum`]), compulsory per-class DRAM traffic (each distinct
//!   tile whose first touch in a barrier-delimited region is a clean read
//!   must be fetched; every accumulator is written back at least once), a
//!   per-burst latency floor, and optional *capacity window* terms (for any
//!   contiguous access window, bytes touched beyond the SPM capacity must
//!   be transferred — the partial-result spill floor of the fused orders).
//!   Every field is provably on the optimistic side of the exact report;
//!   the audit asserts admissibility case by case.
//!
//! The per-order composition of these pieces (which tensors live in which
//! region, fused-sweep window geometry, partitioned-candidate merging)
//! lives in `igo-core`'s `bound` module, next to the loop orders it
//! mirrors (`igo-core`'s `generate` module).

use crate::engine::{Engine, Replacement};
use crate::recorder::{round_cycles, AccessKind, NullRecorder, Phase, Recorder, TraceEvent};
use crate::spm::SpmCache;
use crate::stats::{SimReport, Traffic};
use crate::trace::{Schedule, ScheduleOp, ScheduleSink, StreamOp, TensorId, TileKey, TileOpSpec};
use igo_tensor::{DataType, GemmShape, TensorClass, TileCoord, TileGrid};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};

/// A completed replay: the report, bit-identical to [`Engine::run`] on
/// the same op stream, plus the ops that moved bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticReport {
    /// The simulation report.
    pub report: SimReport,
    /// Ops that moved DRAM bytes: tile GEMMs that fetched or wrote back,
    /// stream ops with bytes, and flushes that wrote back. A recorded
    /// replay draws one memory slice per such op, so this sizes a trace's
    /// memory track.
    pub moved_ops: u64,
}

/// Process-wide count of analytic replays, the twin of
/// [`crate::engine_run_count`]: a replay (of a generated or collected
/// stream) that did *not* come from [`Engine::run`].
static ANALYTIC_RUNS: AtomicU64 = AtomicU64::new(0);

/// Total [`replay_recorded`] invocations (and so of its unrecorded
/// wrappers) so far in this process.
pub fn analytic_run_count() -> u64 {
    ANALYTIC_RUNS.load(Ordering::Relaxed)
}

/// "Not used again" sentinel of the linked next uses.
pub const NO_USE: u32 = u32::MAX;

/// Access bytes of a tile not yet accessed.
const UNSET_BYTES: u32 = u32::MAX;

/// One recorded tile access, packed to 8 bytes so replay streams a cache
/// line per eight accesses: the dense tile id and the stream position of
/// the tile's next access in the same barrier region, linked while the
/// stream is collected. The id alone orders victims: a sealed registry
/// numbers tiles in [`TileKey`] order (see [`AnalyticCollector`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct AccessRec {
    /// Dense tile id (`base + r·cols + c`).
    pub(crate) id: u32,
    /// Position of the tile's next access before the next barrier, or
    /// [`NO_USE`].
    next_use: u32,
}

/// One recorded schedule op; operands live in the collector's side tables.
#[derive(Debug, Clone, Copy)]
enum OpRec {
    /// A tile GEMM with `accesses` consecutive entries in the access stream,
    /// computing `AnalyticCollector::shapes[shape]`. With `acc`, the last
    /// entry is the accumulator — the op's one dirty access.
    Gemm {
        accesses: u16,
        acc: bool,
        shape: u32,
    },
    /// Pure data movement: `AnalyticCollector::streams[idx]`.
    Stream(u32),
    /// Kernel boundary: the next access opens a new barrier region.
    Barrier,
}

/// A dense tile's access bytes, and where collection last saw it.
#[derive(Debug, Clone, Copy)]
struct TileMeta {
    /// Access bytes, fixed by the tile's first access ([`UNSET_BYTES`]
    /// before it).
    bytes: u32,
    /// One past the position of the tile's latest access (0: none yet) —
    /// the entry whose next use the tile's next access links.
    last: u32,
    /// One past the position of the tile's latest dirty access.
    last_dirty: u32,
}

/// One barrier region's sums, accumulated while it is collected: what the
/// replay needs of a region before its first access.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionSum {
    /// Distinct-tile bytes. A region whose footprint fits the residency
    /// never evicts, so its accesses skip the victim index.
    pub footprint: u64,
    /// Admissible DRAM floor in bytes: every clean first touch fetches its
    /// bytes (residency is dropped at each barrier), and every ever-dirty
    /// tile is written back at least once (by eviction, admission bypass
    /// or the barrier flush).
    pub floor_bytes: u64,
    /// One burst per clean first touch.
    pub floor_bursts: u64,
}

/// Exclusive upper limit on both the tile ids and the stream positions one
/// collector can hold: the replay indexes tiles and positions with `u32`,
/// and reserves `u32::MAX` for its "no further use" sentinel.
/// A layer whose tile registry or access stream would reach it cannot be
/// replayed.
pub const REPLAY_ID_LIMIT: u64 = u32::MAX as u64;

/// Per-tensor entry of the dense tile-id registry.
#[derive(Debug, Clone, Copy)]
struct TensorEntry {
    /// First dense id; assigned when the registry is sealed.
    base: u32,
    cols: u32,
    tiles: u32,
    class: TensorClass,
}

/// A [`ScheduleSink`] that records the op stream into flat buffers for
/// [`AnalyticCollector::replay`], with no per-op heap allocation.
///
/// Tensors must be registered (with their tile-grid extents) before the
/// first op is emitted; the schedule builders know every grid they touch,
/// so registration is a handful of calls per layer. The first op seals the
/// registry: it numbers the tensors' tiles in ascending [`TensorId`] order,
/// then row-major, so dense-id order is [`TileKey`] order — the order the
/// replay's victim tie-breaks and flush events need.
///
/// Each access is one 8-byte record: its tile id and its next use.
/// Collection links next uses as it goes — an access closes the link of its
/// tile's previous access in the same barrier region — and sums each
/// region's footprint and DRAM floor ([`RegionSum`]), so a replay starts
/// without a pass over the stream. A tile's access bytes are a property of
/// the tile (every builder emits one size per tile), kept once per tile;
/// the dirty flag is the op's: its accumulator is its last access.
#[derive(Debug, Default)]
pub struct AnalyticCollector {
    /// Registry by raw tensor id.
    tensors: Vec<Option<TensorEntry>>,
    /// Tiles registered so far.
    registered: u64,
    /// `(base, raw tensor id)` of every tensor with tiles, ascending;
    /// filled when the registry is sealed.
    bases: Vec<(u32, u32)>,
    sealed: bool,
    /// Dense id → traffic class; filled when the registry is sealed.
    dense_class: Vec<TensorClass>,
    /// Dense id → bytes and collection-time link state.
    tiles: Vec<TileMeta>,
    stream: Vec<AccessRec>,
    ops: Vec<OpRec>,
    /// Distinct tile-GEMM shapes, indexed by [`OpRec::Gemm`], each with
    /// the number of ops computing it.
    shapes: Vec<(GemmShape, u64)>,
    /// Stream ops, indexed by [`OpRec::Stream`].
    streams: Vec<StreamOp>,
    /// One per barrier region, the last one open.
    regions: Vec<RegionSum>,
    /// Stream position of the open region's first access.
    region_start: u32,
}

impl AnalyticCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop all recorded state but keep the allocations (hot-loop reuse).
    pub fn clear(&mut self) {
        self.tensors.clear();
        self.registered = 0;
        self.bases.clear();
        self.sealed = false;
        self.dense_class.clear();
        self.tiles.clear();
        self.stream.clear();
        self.ops.clear();
        self.shapes.clear();
        self.streams.clear();
        self.regions.clear();
        self.region_start = 0;
    }

    /// Number of recorded schedule ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of registered tile ids.
    pub fn tile_count(&self) -> usize {
        self.registered as usize
    }

    /// Number of recorded tile accesses.
    pub fn stream_len(&self) -> usize {
        self.stream.len()
    }

    /// Bytes held by the buffers that grow with the stream: the access
    /// and op records.
    pub fn stream_bytes(&self) -> usize {
        self.stream.len() * std::mem::size_of::<AccessRec>()
            + self.ops.len() * std::mem::size_of::<OpRec>()
    }

    /// Each access's linked next use: the position of its tile's next
    /// access before the next barrier, if any.
    pub fn next_uses(&self) -> impl ExactSizeIterator<Item = Option<usize>> + '_ {
        self.stream
            .iter()
            .map(|a| (a.next_use != NO_USE).then_some(a.next_use as usize))
    }

    /// The barrier regions' sums, in stream order (none before the first
    /// op).
    pub fn regions(&self) -> &[RegionSum] {
        &self.regions
    }

    /// Register `tensor` with the extents of `grid` so its tiles map to
    /// dense ids. Re-registering the same tensor is a checked no-op;
    /// registering tensors that are never touched is harmless.
    ///
    /// # Panics
    ///
    /// Panics once the first op has been emitted: that op sealed the
    /// registry.
    pub fn register_tensor(&mut self, tensor: TensorId, class: TensorClass, grid: &TileGrid) {
        self.register_extent(tensor, class, grid.rows(), grid.cols());
    }

    /// Register `tensor` as a `rows × cols` tile grid.
    fn register_extent(&mut self, tensor: TensorId, class: TensorClass, rows: u32, cols: u32) {
        assert!(
            !self.sealed,
            "tensor registered after the collector's first op; register every grid first"
        );
        let raw = tensor.raw() as usize;
        if self.tensors.len() <= raw {
            self.tensors.resize(raw + 1, None);
        }
        if let Some(entry) = &self.tensors[raw] {
            debug_assert_eq!(entry.cols, cols, "re-registration must agree");
            return;
        }
        let tiles = rows as u64 * cols as u64;
        assert!(
            self.registered + tiles < REPLAY_ID_LIMIT,
            "tile registry overflows the dense id space"
        );
        self.registered += tiles;
        self.tensors[raw] = Some(TensorEntry {
            base: 0,
            cols,
            tiles: tiles as u32,
            class,
        });
    }

    /// Seal the registry before the first op: number every registered
    /// tensor's tiles in ascending tensor-id order, and open the first
    /// barrier region.
    #[inline]
    fn seal(&mut self) {
        if self.sealed {
            return;
        }
        self.sealed = true;
        self.regions.push(RegionSum::default());
        let unseen = TileMeta {
            bytes: UNSET_BYTES,
            last: 0,
            last_dirty: 0,
        };
        self.tiles.resize(self.registered as usize, unseen);
        let mut base = 0u32;
        for (raw, entry) in self.tensors.iter_mut().enumerate() {
            if let Some(entry) = entry {
                entry.base = base;
                if entry.tiles > 0 {
                    self.bases.push((base, raw as u32));
                }
                base += entry.tiles;
                self.dense_class
                    .extend(std::iter::repeat_n(entry.class, entry.tiles as usize));
            }
        }
    }

    /// Collect a materialised [`Schedule`]: one pass registers each tensor
    /// as the grid spanned by its largest tile row and column, a second
    /// re-emits the ops. Replaying the result is [`Engine::run`] on
    /// `schedule`.
    ///
    /// # Panics
    ///
    /// Panics on a tile access of 2 GiB or more, a tile accessed with two
    /// byte counts, a tile op with 2^16 or more accesses, or a tile
    /// registry reaching [`REPLAY_ID_LIMIT`].
    pub fn from_schedule(schedule: &Schedule) -> Self {
        let mut extents: Vec<Option<(u32, u32)>> = vec![None; schedule.num_tensors()];
        for op in schedule.ops() {
            if let ScheduleOp::Gemm(g) = op {
                for a in g.reads.iter().chain(&g.acc) {
                    let (r, c) = (a.key.coord.r, a.key.coord.c);
                    let e = extents[a.key.tensor.raw() as usize].get_or_insert((r, c));
                    *e = (e.0.max(r), e.1.max(c));
                }
            }
        }
        let mut collector = Self::new();
        for (raw, extent) in extents.iter().enumerate() {
            if let Some((r, c)) = *extent {
                let tensor = TensorId::from_raw(raw as u32);
                collector.register_extent(tensor, schedule.class_of(tensor), r + 1, c + 1);
            }
        }
        collector.seal();
        for op in schedule.ops() {
            match op {
                ScheduleOp::Gemm(g) => {
                    for a in &g.reads {
                        collector.push_access(a.key.tensor, a.key.coord, a.bytes, false);
                    }
                    if let Some(a) = &g.acc {
                        collector.push_access(a.key.tensor, a.key.coord, a.bytes, true);
                    }
                    let accesses = u16::try_from(g.reads.len() + usize::from(g.acc.is_some()))
                        .expect("a tile op has fewer than 2^16 accesses");
                    collector.push_gemm(accesses, g.acc.is_some(), g.compute);
                }
                ScheduleOp::Stream(s) => collector.stream(*s),
                ScheduleOp::Barrier => collector.barrier(),
            }
        }
        collector
    }

    /// The tile behind dense id `id` of a sealed registry.
    fn key_of_id(&self, id: u32) -> TileKey {
        let i = self.bases.partition_point(|&(base, _)| base <= id);
        let (base, raw) = self.bases[i - 1];
        let cols = self.tensors[raw as usize]
            .expect("sealed tensors are registered")
            .cols;
        let offset = id - base;
        TileKey {
            tensor: TensorId::from_raw(raw),
            coord: TileCoord::new(offset / cols, offset % cols),
        }
    }

    /// Record one access: close the link of the tile's previous access in
    /// this region, or count a first touch into the region's sums.
    #[inline]
    fn push_access(&mut self, tensor: TensorId, coord: TileCoord, bytes: u64, dirty: bool) {
        let entry = self.tensors[tensor.raw() as usize]
            .as_ref()
            .expect("tensor touched before registration");
        assert!(bytes < 1 << 31, "tile access exceeds 2 GiB");
        let (id, bytes) = (entry.base + coord.r * entry.cols + coord.c, bytes as u32);
        let pos = self.stream.len() as u32;
        let tile = &mut self.tiles[id as usize];
        if tile.bytes != bytes {
            assert_eq!(tile.bytes, UNSET_BYTES, "a tile's access bytes change");
            tile.bytes = bytes;
        }
        let region = self
            .regions
            .last_mut()
            .expect("a sealed registry has a region");
        if tile.last > self.region_start {
            self.stream[tile.last as usize - 1].next_use = pos;
        } else {
            region.footprint += bytes as u64;
            if !dirty {
                region.floor_bytes += bytes as u64;
                region.floor_bursts += 1;
            }
        }
        tile.last = pos + 1;
        if dirty {
            if tile.last_dirty <= self.region_start {
                region.floor_bytes += bytes as u64;
            }
            tile.last_dirty = pos + 1;
        }
        self.stream.push(AccessRec {
            id,
            next_use: NO_USE,
        });
    }

    /// Record a tile GEMM whose `accesses` entries were just pushed, the
    /// last of them its accumulator if `acc`. Consecutive ops share a
    /// handful of tile shapes, and the common ones come first, so a
    /// front-to-back scan finds them at once.
    #[inline]
    fn push_gemm(&mut self, accesses: u16, acc: bool, compute: GemmShape) {
        let shape = match self.shapes.iter().position(|s| s.0 == compute) {
            Some(i) => i,
            None => {
                self.shapes.push((compute, 0));
                self.shapes.len() - 1
            }
        };
        self.shapes[shape].1 += 1;
        self.ops.push(OpRec::Gemm {
            accesses,
            acc,
            shape: shape as u32,
        });
    }
}

impl ScheduleSink for AnalyticCollector {
    fn gemm(&mut self, op: &TileOpSpec) {
        self.seal();
        let mut accesses = 0u16;
        for r in op.reads.iter().flatten() {
            self.push_access(r.tensor, r.coord, r.bytes, false);
            accesses += 1;
        }
        if let Some(a) = &op.acc {
            self.push_access(a.tensor, a.coord, a.bytes, true);
            accesses += 1;
        }
        self.push_gemm(accesses, op.acc.is_some(), op.compute);
    }

    fn stream(&mut self, op: StreamOp) {
        self.seal();
        self.ops.push(OpRec::Stream(self.streams.len() as u32));
        self.streams.push(op);
    }

    fn barrier(&mut self) {
        self.seal();
        self.region_start = self.stream.len() as u32;
        self.regions.push(RegionSum::default());
        self.ops.push(OpRec::Barrier);
    }
}

/// One tile access of a replayed tile GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Dense tile id; ids number tiles in [`TileKey`] order.
    pub id: u32,
    /// The tile's access bytes (one size per tile).
    pub bytes: u32,
    /// The tile's traffic class.
    pub class: TensorClass,
    /// Stream position of the tile's next access before the next barrier,
    /// or [`NO_USE`]. Positions count tile accesses only.
    pub next_use: u32,
}

impl Default for Access {
    fn default() -> Self {
        Self {
            id: 0,
            bytes: 0,
            class: TensorClass::Ifmap,
            next_use: NO_USE,
        }
    }
}

/// One replayed tile GEMM.
#[derive(Debug, Clone, Copy)]
pub struct GemmAccesses<'a> {
    /// The op's tile accesses in stream order; with `acc`, the last one is
    /// the accumulator, the op's one dirty access.
    pub accesses: &'a [Access],
    /// Whether the op accumulates into its last access.
    pub acc: bool,
    /// Index of the op's tile-GEMM shape in [`ReplayInput::shapes`].
    pub shape: u32,
}

/// The receiving end of [`ReplayInput::drive`]: the replay's timeline.
pub trait OpVisitor {
    /// One tile GEMM. `Break` stops the stream.
    fn gemm(&mut self, op: GemmAccesses<'_>) -> ControlFlow<()>;

    /// One pure data-movement op.
    fn stream(&mut self, op: &StreamOp) -> ControlFlow<()>;

    /// A kernel boundary.
    fn barrier(&mut self) -> ControlFlow<()>;
}

/// A stream the replay can run: an [`AnalyticCollector`]'s recorded ops, or
/// a generator that derives every op, id and next use from its loop nests
/// (`core::generate`). Everything the replay needs before the first access
/// — tiles, shapes with their op counts, region sums — comes up front;
/// the ops come through [`Self::drive`], which stops when the visitor
/// breaks.
pub trait ReplayInput {
    /// One past the largest dense tile id.
    fn tile_count(&self) -> usize;

    /// The traffic class of tile `id`.
    fn class_of(&self, id: u32) -> TensorClass;

    /// The tile behind dense id `id`.
    fn key_of(&self, id: u32) -> TileKey;

    /// The distinct tile-GEMM shapes ops index, each with the number of
    /// ops computing it.
    fn shapes(&self) -> &[(GemmShape, u64)];

    /// The barrier regions' sums, in stream order.
    fn regions(&self) -> &[RegionSum];

    /// Feed every op to `visitor` in stream order, stopping at its first
    /// `Break`.
    fn drive<V: OpVisitor>(&self, visitor: &mut V) -> ControlFlow<()>;
}

impl ReplayInput for AnalyticCollector {
    fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    fn class_of(&self, id: u32) -> TensorClass {
        self.dense_class[id as usize]
    }

    fn key_of(&self, id: u32) -> TileKey {
        AnalyticCollector::key_of_id(self, id)
    }

    fn shapes(&self) -> &[(GemmShape, u64)] {
        &self.shapes
    }

    fn regions(&self) -> &[RegionSum] {
        &self.regions
    }

    fn drive<V: OpVisitor>(&self, visitor: &mut V) -> ControlFlow<()> {
        assert!(
            (self.stream.len() as u64) < REPLAY_ID_LIMIT,
            "access stream overflows the u32 position space"
        );
        let mut buf: Vec<Access> = Vec::new();
        let mut pos = 0usize;
        for op in &self.ops {
            match *op {
                OpRec::Gemm {
                    accesses,
                    acc,
                    shape,
                } => {
                    let end = pos + accesses as usize;
                    buf.clear();
                    buf.extend(self.stream[pos..end].iter().map(|a| Access {
                        id: a.id,
                        bytes: self.tiles[a.id as usize].bytes,
                        class: self.dense_class[a.id as usize],
                        next_use: a.next_use,
                    }));
                    pos = end;
                    visitor.gemm(GemmAccesses {
                        accesses: &buf,
                        acc,
                        shape,
                    })?;
                }
                OpRec::Stream(idx) => visitor.stream(&self.streams[idx as usize])?,
                OpRec::Barrier => visitor.barrier()?,
            }
        }
        ControlFlow::Continue(())
    }
}

/// Per-tile replacement state, packed to 8 bytes: the slot array is the
/// replay loop's only randomly-indexed memory that grows with the layer,
/// so its footprint bounds the loop's cache behaviour.
#[derive(Debug, Clone, Copy, Default)]
struct ReplaySlot {
    bytes: u32,
    /// [`RESIDENT`], [`DIRTY`] and [`SPILLED`] flags over the index of the
    /// tile's victim-index entry (while it is resident in a region that
    /// can evict).
    state: u32,
}

const RESIDENT: u32 = 1 << 31;
const DIRTY: u32 = 1 << 30;
const SPILLED: u32 = 1 << 29;
const ENTRY: u32 = SPILLED - 1;

impl ReplaySlot {
    #[inline]
    fn has(&self, flag: u32) -> bool {
        self.state & flag != 0
    }

    #[inline]
    fn entry(&self) -> usize {
        (self.state & ENTRY) as usize
    }

    /// Admit the tile with `bytes`, dirty or clean, keeping its spill
    /// history.
    #[inline]
    fn admit(&mut self, bytes: u32, dirty: bool) {
        self.bytes = bytes;
        self.state = (self.state & SPILLED) | RESIDENT | if dirty { DIRTY } else { 0 };
    }
}

/// The SPM residency model the replay's timeline runs on, statically
/// dispatched like [`Recorder`]: [`ReplayOptCache`] (Belady, the default)
/// or [`crate::SpmCache`] keyed by dense tile id (the LRU ablation).
/// Tiles are the dense ids of the replayed [`ReplayInput`]; dirty tiles an
/// access evicts or a flush writes back land in `writebacks` as
/// `(id, bytes)`.
pub(crate) trait Residency {
    /// Prepare for a run over `num_tiles` dense ids with `capacity` bytes
    /// of residency.
    fn reset(&mut self, capacity: u64, num_tiles: usize);

    /// Access tile `a.id` (`dirty` marks accumulator touches), whose next
    /// use in the barrier region is `a.next_use`. Returns the bytes fetched
    /// from DRAM.
    fn access(&mut self, a: &Access, dirty: bool, writebacks: &mut Vec<(u32, u64)>) -> u64;

    /// [`Self::access`] in a barrier region whose distinct-tile footprint
    /// fits in capacity, where no eviction can fire.
    #[inline]
    fn access_unbounded(
        &mut self,
        a: &Access,
        dirty: bool,
        writebacks: &mut Vec<(u32, u64)>,
    ) -> u64 {
        self.access(a, dirty, writebacks)
    }

    /// Write every dirty resident back; they stay resident but clean.
    fn flush(&mut self, writebacks: &mut Vec<(u32, u64)>);

    /// Drop all residency and forget spill history (kernel boundary).
    fn clear(&mut self);

    /// Hits so far.
    fn hits(&self) -> u64;

    /// Misses so far.
    fn misses(&self) -> u64;

    /// Bytes currently resident.
    fn used(&self) -> u64;
}

/// A victim key: the resident maximising `(next_use, id)` is the victim,
/// and with ids numbered in `TileKey` order that is [`crate::OptCache`]'s
/// `(next_use, key)` maximum. Keys are distinct (ids are), and never zero,
/// the free-entry mark, since a next use is a later position.
#[inline]
fn victim_key(next_use: u32, id: u32) -> u64 {
    (next_use as u64) << 32 | id as u64
}

/// Entries per block of the victim index.
const BLOCK: usize = 16;

/// The largest of `keys` other than `except` (0 if none): a branch-free
/// pass whose four independent running maxima shorten the dependency
/// chain. Keys are distinct, so masking `except` drops one entry at most.
#[inline]
fn max_key_except(keys: &[u64], except: u64) -> u64 {
    let mut max = [0u64; 4];
    let quads = keys.chunks_exact(4);
    for &k in quads.remainder() {
        max[0] = max[0].max(if k == except { 0 } else { k });
    }
    for quad in quads {
        for (max, &k) in max.iter_mut().zip(quad) {
            *max = (*max).max(if k == except { 0 } else { k });
        }
    }
    max[0].max(max[1]).max(max[2].max(max[3]))
}

/// A set of dense ids that yields its largest member: one bit per id,
/// and above that one bit per nonzero word of the level below, up to a
/// single word. Inserting or removing an id touches one word per level
/// and stops at the first level whose word was (or stays) nonzero. The
/// maximum is cached: an insert above it replaces it, and removing it
/// takes the next one from the removed id's own bottom word, walking the
/// levels down from the top word only when that word empties.
#[derive(Debug, Default)]
struct IdMaxSet {
    /// `levels[0]` holds one bit per id, `levels[k + 1]` one bit per word
    /// of `levels[k]`; the last level is one word.
    levels: Vec<Vec<u64>>,
    /// The largest member.
    max: Option<u32>,
}

impl IdMaxSet {
    /// Empty the set and size it for ids below `ids`.
    fn reset(&mut self, ids: usize) {
        let mut depth = 0;
        let mut words = ids.max(1).div_ceil(64);
        loop {
            if self.levels.len() == depth {
                self.levels.push(Vec::new());
            }
            let level = &mut self.levels[depth];
            level.clear();
            level.resize(words, 0);
            depth += 1;
            if words == 1 {
                break;
            }
            words = words.div_ceil(64);
        }
        self.levels.truncate(depth);
        self.max = None;
    }

    /// Empty the set, keeping its size.
    fn clear(&mut self) {
        for level in &mut self.levels {
            level.fill(0);
        }
        self.max = None;
    }

    /// Add `id`, which must not be a member.
    #[inline]
    fn insert(&mut self, id: u32) {
        if self.max.is_none_or(|max| id > max) {
            self.max = Some(id);
        }
        let mut at = id as usize;
        for level in &mut self.levels {
            let word = &mut level[at / 64];
            let was = *word;
            *word = was | 1 << (at % 64);
            if was != 0 {
                return;
            }
            at /= 64;
        }
    }

    /// Remove `id`, a member.
    #[inline]
    fn remove(&mut self, id: u32) {
        let mut at = id as usize;
        for (depth, level) in self.levels.iter_mut().enumerate() {
            let word = &mut level[at / 64];
            *word &= !(1 << (at % 64));
            if *word != 0 {
                if depth == 0 && self.max == Some(id) {
                    // The next maximum shares the removed id's word.
                    self.max = Some((at / 64 * 64 + 63 - word.leading_zeros() as usize) as u32);
                    return;
                }
                break;
            }
            at /= 64;
        }
        if self.max == Some(id) {
            self.max = self.walk();
        }
    }

    /// The largest member, if any.
    #[inline]
    fn max(&self) -> Option<u32> {
        debug_assert_eq!(self.max, self.walk(), "cached maximum");
        self.max
    }

    /// The largest member, found by following the highest set bit down
    /// from the top word.
    fn walk(&self) -> Option<u32> {
        let top = self.levels.last()?;
        if top[0] == 0 {
            return None;
        }
        let mut at = 0;
        for level in self.levels.iter().rev() {
            at = at * 64 + 63 - level[at].leading_zeros() as usize;
        }
        Some(at as u32)
    }

    /// Bytes of the bit levels.
    fn bytes(&self) -> usize {
        self.levels.iter().map(Vec::capacity).sum::<usize>() * std::mem::size_of::<u64>()
    }
}

/// Belady replacement over an index sized by the residents and the tile
/// grid, not by the stream: its decisions are those of
/// [`crate::OptCache`], the `BTreeMap` model the audit shadows every run
/// with.
///
/// Residents with no further use in their region ([`NO_USE`]) outrank
/// every other as victims, max id (so max tile key) first, and sit in a
/// max-set of ids (one bit per tile). Every other resident of a region
/// that can evict holds one entry of `keys`, and `block_max` caches the
/// largest key of every [`BLOCK`] entries. A hit raises its tile's key in
/// place — the hit position was the tile's registered next use and its
/// new next use lies further on — so the block maximum only grows: two
/// stores. An admission fills a free entry the same way. The largest key
/// of all, `top`, is cached too: a raise keeps it, and only freeing the
/// entry that holds it (evicting a keyed victim, or that tile's last use)
/// leaves it stale, so the next victim query scans the block maxima once
/// and a bypass that keeps the victim scans nothing. Freeing an entry
/// rescans its block for the block's new maximum. Victim selection —
/// including the bypass rule — is therefore `OptCache`'s.
#[derive(Debug, Default)]
pub(crate) struct ReplayOptCache {
    capacity: u64,
    used: u64,
    slots: Vec<ReplaySlot>,
    /// Ids of residents with no further use in their region.
    dead: IdMaxSet,
    /// One [`victim_key`] per entry, in whole blocks; 0 marks a free
    /// entry.
    keys: Vec<u64>,
    /// The largest key of each block of `keys`.
    block_max: Vec<u64>,
    /// Free entries of `keys`.
    free: Vec<u32>,
    /// The largest key of `keys` (0 if none), or [`STALE`].
    top: u64,
    hits: u64,
    misses: u64,
}

/// The mark of a stale [`ReplayOptCache::top`]: above every key, since a
/// key's next use is never [`NO_USE`].
const STALE: u64 = u64::MAX;

impl ReplayOptCache {
    /// Set entry `at` to `key`, which is above its previous key. A stale
    /// `top` stays stale, as no key exceeds [`STALE`].
    #[inline]
    fn raise(&mut self, at: usize, key: u64) {
        debug_assert!(key > self.keys[at], "a next use lies past the last");
        self.keys[at] = key;
        let block = &mut self.block_max[at / BLOCK];
        if key > *block {
            *block = key;
        }
        if key > self.top {
            self.top = key;
        }
    }

    /// Register tile `id`, just admitted or hit, under its next use
    /// (inlined into `access` for the reason given there).
    #[inline(always)]
    fn insert(&mut self, next_use: u32, id: u32) {
        if next_use == NO_USE {
            self.dead.insert(id);
            return;
        }
        let at = match self.free.pop() {
            Some(at) => at as usize,
            None => {
                // Open a whole block; its other entries are free, lowest
                // first.
                let at = self.keys.len();
                self.keys.resize(at + BLOCK, 0);
                self.block_max.push(0);
                self.free.extend((at as u32 + 1..(at + BLOCK) as u32).rev());
                at
            }
        };
        let slot = &mut self.slots[id as usize];
        slot.state = (slot.state & !ENTRY) | at as u32;
        self.raise(at, victim_key(next_use, id));
    }

    /// Free entry `at` of block `block`, whose other entries' largest key
    /// is `rest`. Keys are distinct, so `top` goes stale exactly when this
    /// entry holds it.
    #[inline]
    fn free_entry(&mut self, at: usize, rest: u64) {
        if self.keys[at] == self.top {
            self.top = STALE;
        }
        self.keys[at] = 0;
        self.block_max[at / BLOCK] = rest;
        self.free.push(at as u32);
    }

    /// The largest key of entry `at`'s block other than its own.
    #[inline(always)]
    fn rest_of_block(&self, at: usize) -> u64 {
        let first = at / BLOCK * BLOCK;
        max_key_except(&self.keys[first..first + BLOCK], self.keys[at])
    }

    /// The victim's next use and id. The caller must ensure a resident
    /// exists (`used > 0`). Scans the block maxima only when `top` is
    /// stale.
    #[inline(always)]
    fn victim(&mut self) -> (u32, u32) {
        if let Some(id) = self.dead.max() {
            return (NO_USE, id);
        }
        if self.top == STALE {
            self.top = max_key_except(&self.block_max, 0);
        }
        debug_assert_eq!(
            self.top,
            max_key_except(&self.block_max, 0),
            "cached top key"
        );
        let key = self.top;
        debug_assert!(key > 0, "used > 0 implies a resident victim");
        ((key >> 32) as u32, key as u32)
    }

    /// Evict the victim `(next_use, id)` [`Self::victim`] named.
    #[inline(always)]
    fn evict(&mut self, next_use: u32, id: u32, writebacks: &mut Vec<(u32, u64)>) {
        if next_use == NO_USE {
            self.dead.remove(id);
        } else {
            let at = self.slots[id as usize].entry();
            debug_assert_eq!(self.keys[at], victim_key(next_use, id), "victim entry");
            self.free_entry(at, self.rest_of_block(at));
        }
        let victim = &mut self.slots[id as usize];
        debug_assert!(victim.has(RESIDENT), "victim index/slot state out of sync");
        self.used -= victim.bytes as u64;
        if victim.has(DIRTY) {
            writebacks.push((id, victim.bytes as u64));
            victim.state |= SPILLED;
        }
        victim.state &= SPILLED;
    }
}

/// OPT residency: with ids numbered in `TileKey` order, every access,
/// flush and clear decides as [`crate::OptCache`] does.
impl Residency for ReplayOptCache {
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    fn reset(&mut self, capacity: u64, num_tiles: usize) {
        assert!(capacity > 0, "SPM residency capacity must be positive");
        self.capacity = capacity;
        self.used = 0;
        self.slots.clear();
        self.slots.resize(num_tiles, ReplaySlot::default());
        self.dead.reset(num_tiles);
        self.keys.clear();
        self.block_max.clear();
        self.free.clear();
        self.top = 0;
        self.hits = 0;
        self.misses = 0;
    }

    // `#[inline]` here and on `access_unbounded`: the replay is also
    // instantiated in other crates, so these per-access calls are exported
    // and would otherwise not be inlined into the unrecorded loop either.
    // `always` on this one: once the generated stream is replayed both
    // with and without a recorder in one crate, LLVM's cost model stopped
    // inlining this body into the unrecorded loop, which cost `sweep zoo`
    // about 9% of its CPU time.
    #[inline(always)]
    fn access(&mut self, a: &Access, dirty: bool, writebacks: &mut Vec<(u32, u64)>) -> u64 {
        let (id, next_use, bytes) = (a.id, a.next_use, a.bytes);
        let slot = &mut self.slots[id as usize];
        if slot.has(RESIDENT) {
            // A tile's bytes are constant across accesses, so a hit leaves
            // `used` unchanged and the capacity invariant (`used <=
            // capacity` after every access) cannot break here. This access
            // *was* the tile's registered next use, so its key grows.
            if dirty {
                slot.state |= DIRTY;
            }
            self.hits += 1;
            let at = slot.entry();
            // Only a registered tile can be hit: a dead one has no further
            // use in its region.
            debug_assert!(
                self.keys.get(at).is_some_and(|&k| k != 0 && k as u32 == id),
                "hit on a tile with no registered next use"
            );
            if next_use == NO_USE {
                // The tile's last use: it leaves the entries for the dead.
                let key = self.keys[at];
                let rest = if self.block_max[at / BLOCK] == key {
                    self.rest_of_block(at)
                } else {
                    self.block_max[at / BLOCK]
                };
                self.free_entry(at, rest);
                self.dead.insert(id);
            } else {
                self.raise(at, victim_key(next_use, id));
            }
            return 0;
        }

        self.misses += 1;
        let fetched = if dirty && !slot.has(SPILLED) {
            0
        } else {
            bytes as u64
        };

        let mut admitted = bytes as u64 <= self.capacity;
        while admitted && self.used + bytes as u64 > self.capacity {
            let (victim_next, victim_id) = self.victim();
            if victim_next <= next_use {
                admitted = false;
                break;
            }
            self.evict(victim_next, victim_id, writebacks);
        }

        if admitted {
            self.slots[id as usize].admit(bytes, dirty);
            self.used += bytes as u64;
            self.insert(next_use, id);
        } else if dirty {
            writebacks.push((id, bytes as u64));
            self.slots[id as usize].state |= SPILLED;
        }
        fetched
    }

    /// Specialised to a barrier region whose distinct-tile footprint fits
    /// in `capacity`: no eviction can ever fire (residency grows
    /// monotonically and tops out at the footprint), so the next uses,
    /// the victim index, and all capacity checks are dead weight — a first
    /// touch admits unconditionally and every later touch is a hit. The
    /// index is left untouched; the barrier `clear` that ends the region
    /// resets it before any bounded-path access can observe it. `used`
    /// still grows with each admission, so recorded occupancy is right in
    /// regions that fit.
    #[inline]
    fn access_unbounded(
        &mut self,
        a: &Access,
        dirty: bool,
        _writebacks: &mut Vec<(u32, u64)>,
    ) -> u64 {
        let slot = &mut self.slots[a.id as usize];
        if slot.has(RESIDENT) {
            if dirty {
                slot.state |= DIRTY;
            }
            self.hits += 1;
            0
        } else {
            self.misses += 1;
            let fetched = if dirty && !slot.has(SPILLED) {
                0
            } else {
                a.bytes as u64
            };
            slot.admit(a.bytes, dirty);
            self.used += a.bytes as u64;
            fetched
        }
    }

    fn clear(&mut self) {
        // Every resident's last access in the region had no next use, so
        // no registration may survive the barrier.
        debug_assert!(
            self.block_max.iter().all(|&m| m == 0),
            "a next-use registration survives a barrier"
        );
        self.slots.fill(ReplaySlot::default());
        self.dead.clear();
        self.keys.clear();
        self.block_max.clear();
        self.free.clear();
        self.top = 0;
        self.used = 0;
    }

    /// Write-backs come in dense-id order, which is tile-key order.
    fn flush(&mut self, writebacks: &mut Vec<(u32, u64)>) {
        for (id, slot) in self.slots.iter_mut().enumerate() {
            if slot.state & (RESIDENT | DIRTY) == RESIDENT | DIRTY {
                writebacks.push((id as u32, slot.bytes as u64));
                slot.state = (slot.state & !DIRTY) | SPILLED;
            }
        }
    }

    fn hits(&self) -> u64 {
        self.hits
    }

    fn misses(&self) -> u64 {
        self.misses
    }

    fn used(&self) -> u64 {
        self.used
    }
}

/// Reusable replay working memory: the timeline's buffers and the OPT
/// residency state.
#[derive(Debug, Default)]
pub struct AnalyticScratch {
    timeline: TimelineScratch,
    opt: ReplayOptCache,
}

/// The residency-independent buffers of one replay.
#[derive(Debug, Default)]
struct TimelineScratch {
    writebacks: Vec<(u32, u64)>,
    /// `region_mem_suffix[i]` = summed floor mem-time of regions after `i`.
    region_mem_suffix: Vec<f64>,
    /// Systolic cycles and MACs of each of the input's tile-GEMM shapes.
    shape_costs: Vec<(u64, u64)>,
}

impl AnalyticScratch {
    /// A fresh scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes of the OPT replay's victim index, which grows with the
    /// residents of the replayed streams (one bit per tile for the dead).
    pub fn victim_bytes(&self) -> usize {
        (self.opt.keys.capacity() + self.opt.block_max.capacity()) * std::mem::size_of::<u64>()
            + self.opt.free.capacity() * std::mem::size_of::<u32>()
            + self.opt.dead.bytes()
    }
}

/// Replay `input` against `engine`'s machine model (systolic array,
/// bandwidth, burst latency, residency and replacement policy) with an
/// optional cycle `cutoff`: returns `None` as soon as the replayed stream
/// provably exceeds `cutoff` cycles, which lets candidate selection abandon
/// dominated candidates mid-replay, and stops the input there.
///
/// The abort test is conservative in both directions of the timeline
/// race: `mem_free` only grows, and the compute timeline must still
/// serialise every remaining tile GEMM (their exact cycle total is
/// pre-summed), so `max(mem_free, compute_free + remaining)` never exceeds
/// the final cycle count. A one-cycle guard band absorbs the float rounding
/// of the `compute_free + remaining` sum, so `None` is returned only when
/// the true cycles strictly exceed `cutoff` — a completed replay is
/// bit-identical to an uncut one. Counts one analytic run
/// ([`analytic_run_count`]).
pub fn replay_input<I: ReplayInput + ?Sized>(
    input: &I,
    engine: &Engine,
    scratch: &mut AnalyticScratch,
    cutoff: Option<u64>,
) -> Option<AnalyticReport> {
    replay_recorded(input, engine, scratch, cutoff, &mut NullRecorder)
}

/// [`replay_input`] with an event [`Recorder`] attached: the one place a
/// recorder hooks into a run.
///
/// The events carry op indices of the materialised schedule and the
/// timelines' cycle stamps; under OPT, flush write-backs come in
/// tile-key order. The report is bit-identical to the unrecorded replay:
/// recording sites only observe the timelines and the residency model,
/// never steer them. Every site sits under `if R::ENABLED`, so with
/// [`NullRecorder`] this compiles to the unrecorded loop. A recorder can
/// be sized before the run by its [`crate::StreamShape`]. Counts one
/// analytic run ([`analytic_run_count`]).
pub fn replay_recorded<I: ReplayInput + ?Sized, R: Recorder>(
    input: &I,
    engine: &Engine,
    scratch: &mut AnalyticScratch,
    cutoff: Option<u64>,
    recorder: &mut R,
) -> Option<AnalyticReport> {
    ANALYTIC_RUNS.fetch_add(1, Ordering::Relaxed);
    run_timeline(input, engine, scratch, cutoff, recorder)
}

/// [`replay_recorded`] without the run count — the body of every replay,
/// [`Engine::run`]'s too. Picks the residency model for `engine`'s
/// replacement policy.
pub(crate) fn run_timeline<I: ReplayInput + ?Sized, R: Recorder>(
    input: &I,
    engine: &Engine,
    scratch: &mut AnalyticScratch,
    cutoff: Option<u64>,
    recorder: &mut R,
) -> Option<AnalyticReport> {
    let timeline = &mut scratch.timeline;
    match engine.replacement() {
        Replacement::Opt => {
            timeline_run(input, engine, timeline, &mut scratch.opt, cutoff, recorder)
        }
        Replacement::Lru => {
            let mut lru = SpmCache::<u32>::new(engine.residency_bytes());
            timeline_run(input, engine, timeline, &mut lru, cutoff, recorder)
        }
    }
}

/// The replay's state while its input drives it: the two timelines, the
/// report's counters and the residency model.
struct Timeline<'a, I: ?Sized, C, R> {
    input: &'a I,
    cache: &'a mut C,
    recorder: &'a mut R,
    writebacks: &'a mut Vec<(u32, u64)>,
    region_mem_suffix: &'a [f64],
    shape_costs: &'a [(u64, u64)],
    capacity: u64,
    bytes_per_cycle: f64,
    burst_latency: u64,
    /// `cutoff + 1` when bounded.
    cutoff_plus: Option<f64>,
    /// Exact cycles the compute timeline still owes (bounded replays only).
    remaining_compute: u64,
    traffic: Traffic,
    mem_free: f64,
    compute_free: f64,
    compute_cycles_total: u64,
    mem_busy_total: f64,
    gemm_ops: u64,
    macs: u64,
    spm_bytes_touched: u64,
    /// Ops that moved DRAM bytes ([`AnalyticReport::moved_ops`]).
    moved_ops: u64,
    /// Index of the next op, counting stream ops and barriers.
    op_idx: u32,
    region: usize,
    region_fits: bool,
    /// Phase tracking (recording only): which interleaved sub-stream
    /// (dX / dW / other) the compute timeline is currently in.
    cur_phase: Option<Phase>,
}

impl<I: ReplayInput + ?Sized, C: Residency, R: Recorder> Timeline<'_, I, C, R> {
    /// Whether region `region`'s distinct-tile footprint fits in SPM
    /// (enabling the no-eviction access path).
    fn fits(&self, region: usize) -> bool {
        self.input
            .regions()
            .get(region)
            .is_none_or(|r| r.footprint <= self.capacity)
    }

    /// Write the drained `writebacks` of a flush back, stamped `op` in
    /// recorded events.
    fn pay_flush(&mut self, op: u32) {
        if self.writebacks.is_empty() {
            return;
        }
        if R::ENABLED {
            let cycle = round_cycles(self.mem_free);
            for &(id, bytes) in self.writebacks.iter() {
                self.recorder.record(TraceEvent::WriteBack {
                    op,
                    key: self.input.key_of(id),
                    class: self.input.class_of(id),
                    bytes,
                    spill: false,
                    cycle,
                });
            }
        }
        let mut bytes = 0u64;
        for (vid, vbytes) in self.writebacks.drain(..) {
            self.traffic.add_write(self.input.class_of(vid), vbytes);
            bytes += vbytes;
        }
        self.moved_ops += u64::from(bytes > 0);
        let mem_time = bytes as f64 / self.bytes_per_cycle + self.burst_latency as f64;
        self.mem_free += mem_time;
        self.mem_busy_total += mem_time;
    }

    /// Pay the spills an op's accesses left in `writebacks` as write
    /// traffic, stamped `op` at `cycle` in recorded events; returns their
    /// bytes.
    #[inline(always)]
    fn drain_spills(&mut self, op: u32, cycle: u64) -> u64 {
        let mut bytes = 0;
        for (vid, vbytes) in self.writebacks.drain(..) {
            let class = self.input.class_of(vid);
            self.traffic.add_write(class, vbytes);
            bytes += vbytes;
            if R::ENABLED {
                self.recorder.record(TraceEvent::WriteBack {
                    op,
                    key: self.input.key_of(vid),
                    class,
                    bytes: vbytes,
                    spill: true,
                    cycle,
                });
            }
        }
        bytes
    }
}

impl<I: ReplayInput + ?Sized, C: Residency, R: Recorder> OpVisitor for Timeline<'_, I, C, R> {
    /// Forced inline: otherwise each instantiation keeps an out-of-line
    /// copy called once per op.
    #[inline(always)]
    fn gemm(&mut self, op: GemmAccesses<'_>) -> ControlFlow<()> {
        let op_idx = self.op_idx;
        self.op_idx += 1;
        // Memory-timeline cycle the op's transfers start at — the stamp of
        // every memory-side event of this op.
        let op_mem_start = if R::ENABLED {
            round_cycles(self.mem_free)
        } else {
            0
        };
        let mut fetched = 0u64;
        let mut writeback = 0u64;
        let mut bursts = 0u64;
        let mut touched = 0u64;
        let last = op.accesses.len().wrapping_sub(1);
        for (n, a) in op.accesses.iter().enumerate() {
            let dirty = op.acc && n == last;
            touched += a.bytes as u64;
            let hits_before = if R::ENABLED { self.cache.hits() } else { 0 };
            let got = if self.region_fits {
                self.cache.access_unbounded(a, dirty, self.writebacks)
            } else {
                self.cache.access(a, dirty, self.writebacks)
            };
            if got > 0 {
                self.traffic.add_read(a.class, got);
                fetched += got;
                bursts += 1;
            }
            if R::ENABLED {
                let kind = if self.cache.hits() > hits_before {
                    AccessKind::Hit
                } else if got > 0 {
                    AccessKind::Fetch
                } else {
                    AccessKind::Materialize
                };
                self.recorder.record(TraceEvent::Access {
                    op: op_idx,
                    id: a.id,
                    class: a.class,
                    bytes: a.bytes as u64,
                    kind,
                    cycle: op_mem_start,
                    occupancy: self.cache.used(),
                });
            }
            // A recorded run reports each access's spills right after it;
            // an unrecorded one pays the op's spills once, below.
            if R::ENABLED && !self.writebacks.is_empty() {
                writeback += self.drain_spills(op_idx, op_mem_start);
            }
        }
        self.spm_bytes_touched += touched;
        if !R::ENABLED && !self.writebacks.is_empty() {
            writeback += self.drain_spills(op_idx, op_mem_start);
        }

        let move_bytes = fetched + writeback;
        if move_bytes > 0 {
            let mem_time = move_bytes as f64 / self.bytes_per_cycle
                + (bursts.max(1) * self.burst_latency) as f64;
            self.mem_free += mem_time;
            self.mem_busy_total += mem_time;
            self.moved_ops += 1;
        }

        let (cycles, macs) = self.shape_costs[op.shape as usize];
        let data_ready = if move_bytes > 0 { self.mem_free } else { 0.0 };
        // `f64::max` without its NaN handling: no NaN reaches here.
        let issue = if data_ready > self.compute_free {
            data_ready
        } else {
            self.compute_free
        };
        self.compute_free = issue + cycles as f64;
        if R::ENABLED {
            let acc_class = op.acc.then(|| op.accesses[last].class);
            let phase = Phase::of_accumulator(acc_class);
            let issue_cycle = round_cycles(issue);
            if self.cur_phase != Some(phase) {
                if let Some(prev) = self.cur_phase {
                    self.recorder.record(TraceEvent::PhaseEnd {
                        op: op_idx,
                        phase: prev,
                        cycle: issue_cycle,
                    });
                }
                self.recorder.record(TraceEvent::PhaseBegin {
                    op: op_idx,
                    phase,
                    cycle: issue_cycle,
                });
                self.cur_phase = Some(phase);
            }
            self.recorder.record(TraceEvent::GemmIssue {
                op: op_idx,
                start: issue_cycle,
                cycles,
                phase,
            });
        }
        self.compute_cycles_total += cycles;
        self.gemm_ops += 1;
        self.macs += macs;
        if let Some(limit) = self.cutoff_plus {
            self.remaining_compute -= cycles;
            if self.mem_free + self.region_mem_suffix[self.region] >= limit
                || self.compute_free + self.remaining_compute as f64 >= limit
            {
                return ControlFlow::Break(());
            }
        }
        ControlFlow::Continue(())
    }

    fn stream(&mut self, s: &StreamOp) -> ControlFlow<()> {
        let op_idx = self.op_idx;
        self.op_idx += 1;
        if R::ENABLED {
            self.recorder.record(TraceEvent::StreamIo {
                op: op_idx,
                class: s.class,
                read_bytes: s.read_bytes,
                write_bytes: s.write_bytes,
                cycle: round_cycles(self.mem_free),
            });
        }
        if s.read_bytes > 0 {
            self.traffic.add_read(s.class, s.read_bytes);
        }
        if s.write_bytes > 0 {
            self.traffic.add_write(s.class, s.write_bytes);
        }
        let bytes = s.read_bytes + s.write_bytes;
        if bytes > 0 {
            let mem_time = bytes as f64 / self.bytes_per_cycle + self.burst_latency as f64;
            self.mem_free += mem_time;
            self.mem_busy_total += mem_time;
            self.moved_ops += 1;
        }
        ControlFlow::Continue(())
    }

    fn barrier(&mut self) -> ControlFlow<()> {
        let op_idx = self.op_idx;
        self.op_idx += 1;
        self.cache.flush(self.writebacks);
        self.pay_flush(op_idx);
        self.cache.clear();
        self.mem_free = self.mem_free.max(self.compute_free);
        if R::ENABLED {
            self.recorder.record(TraceEvent::Barrier {
                op: op_idx,
                cycle: round_cycles(self.mem_free),
            });
        }
        self.region += 1;
        self.region_fits = self.fits(self.region);
        ControlFlow::Continue(())
    }
}

/// The replay loop over residency model `cache`, monomorphised per model
/// so the OPT loop pays nothing for the LRU ablation.
fn timeline_run<I: ReplayInput + ?Sized, R: Recorder, C: Residency>(
    input: &I,
    engine: &Engine,
    scratch: &mut TimelineScratch,
    cache: &mut C,
    cutoff: Option<u64>,
    recorder: &mut R,
) -> Option<AnalyticReport> {
    let TimelineScratch {
        writebacks,
        region_mem_suffix,
        shape_costs,
    } = scratch;
    writebacks.clear();
    let bytes_per_cycle = engine.bytes_per_cycle();
    let burst_latency = engine.burst_latency();
    shape_costs.clear();
    shape_costs.extend(
        input
            .shapes()
            .iter()
            .map(|&(s, _)| (engine.systolic().tile_cycles(s), s.macs())),
    );

    // Exact cycles the compute timeline still owes — the admissible floor
    // behind the early abort — and the per-region DRAM floor suffix sums
    // (both only needed when bounded).
    let cutoff_plus = cutoff.map(|c| (c + 1) as f64);
    let mut remaining_compute = 0u64;
    region_mem_suffix.clear();
    if let Some(limit) = cutoff_plus {
        for (&(_, count), &(cycles, _)) in input.shapes().iter().zip(shape_costs.iter()) {
            remaining_compute += count * cycles;
        }
        // region_mem_suffix[i] = floor mem-time of regions strictly after
        // i; the running total over all regions is a pre-replay floor that
        // can reject the candidate before any cache work.
        let regions = input.regions();
        region_mem_suffix.resize(regions.len(), 0.0);
        let mut acc = 0.0f64;
        for (i, r) in regions.iter().enumerate().rev() {
            region_mem_suffix[i] = acc;
            acc += r.floor_bytes as f64 / bytes_per_cycle + (r.floor_bursts * burst_latency) as f64;
        }
        if acc >= limit || remaining_compute as f64 >= limit {
            return None;
        }
    }

    cache.reset(engine.residency_bytes(), input.tile_count());
    let mut t = Timeline {
        input,
        cache,
        recorder,
        writebacks,
        region_mem_suffix,
        shape_costs,
        capacity: engine.residency_bytes(),
        bytes_per_cycle,
        burst_latency,
        cutoff_plus,
        remaining_compute,
        traffic: Traffic::new(),
        mem_free: 0.0,
        compute_free: 0.0,
        compute_cycles_total: 0,
        mem_busy_total: 0.0,
        gemm_ops: 0,
        macs: 0,
        spm_bytes_touched: 0,
        moved_ops: 0,
        op_idx: 0,
        region: 0,
        region_fits: false,
        cur_phase: None,
    };
    t.region_fits = t.fits(0);
    if input.drive(&mut t).is_break() {
        return None;
    }

    // Final flush of remaining dirty accumulators. Recorded events
    // attribute it to a synthetic op index one past the last op.
    let end_op = t.op_idx;
    t.cache.flush(t.writebacks);
    t.pay_flush(end_op);
    if R::ENABLED {
        if let Some(prev) = t.cur_phase {
            t.recorder.record(TraceEvent::PhaseEnd {
                op: end_op,
                phase: prev,
                cycle: round_cycles(t.compute_free),
            });
        }
    }

    Some(AnalyticReport {
        report: SimReport {
            cycles: t.mem_free.max(t.compute_free).ceil() as u64,
            compute_cycles: t.compute_cycles_total,
            mem_cycles: t.mem_busy_total.ceil() as u64,
            traffic: t.traffic,
            spm_hits: t.cache.hits(),
            spm_misses: t.cache.misses(),
            gemm_ops: t.gemm_ops,
            macs: t.macs,
            spm_bytes_touched: t.spm_bytes_touched,
        },
        moved_ops: t.moved_ops,
    })
}

impl AnalyticCollector {
    /// Replay the collected op stream against `engine`'s machine model
    /// and return the report: it is [`Engine::run`]'s report on the materialised [`crate::Schedule`].
    pub fn replay(&self, engine: &Engine, scratch: &mut AnalyticScratch) -> AnalyticReport {
        self.replay_bounded(engine, scratch, None)
            .expect("unbounded replay always completes")
    }

    /// [`replay_input`] on this collector.
    pub fn replay_bounded(
        &self,
        engine: &Engine,
        scratch: &mut AnalyticScratch,
        cutoff: Option<u64>,
    ) -> Option<AnalyticReport> {
        replay_input(self, engine, scratch, cutoff)
    }
}

/// Working memory for [`replay_ladder`]: one reused [`AnalyticScratch`].
#[derive(Debug, Default)]
pub struct LadderScratch {
    replay: AnalyticScratch,
}

impl LadderScratch {
    /// A fresh scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Replay one collected schedule at each SPM residency of `capacities`:
/// one [`AnalyticCollector::replay_bounded`] per rung, on `engine`'s
/// machine (systolic array, bandwidth, burst latency) with that rung's
/// residency and `cutoffs` entry. Each rung counts as one analytic run.
///
/// The benchmark's exactness probe (`igobench`) is the only caller; the
/// pipeline replays each configuration on its own.
///
/// # Panics
///
/// Panics if `cutoffs` and `capacities` differ in length, or if a
/// capacity is zero.
pub fn replay_ladder(
    collector: &AnalyticCollector,
    engine: &Engine,
    capacities: &[u64],
    cutoffs: &[Option<u64>],
    scratch: &mut LadderScratch,
) -> Vec<Option<AnalyticReport>> {
    assert_eq!(cutoffs.len(), capacities.len(), "one cutoff per rung");
    capacities
        .iter()
        .zip(cutoffs)
        .map(|(&capacity, &cutoff)| {
            let rung = Engine::with_params(
                *engine.systolic(),
                engine.bytes_per_cycle(),
                engine.burst_latency(),
                capacity,
            );
            collector.replay_bounded(&rung, &mut scratch.replay, cutoff)
        })
        .collect()
}

/// Closed-form byte/tile totals of one tensor's tile grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridSum {
    /// Distinct tiles in the grid.
    pub tiles: u64,
    /// Total bytes across all tiles (after any density scaling).
    pub bytes: u64,
}

/// Closed-form [`GridSum`] of `grid` at `dtype`: the four corner cases
/// (full/edge row × full/edge column) cover every tile, so the sum is four
/// multiplications regardless of grid size. `density` applies the raw-layout
/// scaling `max(ceil(bytes · d), 4)` per tile, matching the builders.
pub fn grid_sum(grid: &TileGrid, dtype: DataType, density: Option<f64>) -> GridSum {
    let (rows, cols) = (grid.rows(), grid.cols());
    let scale = |raw: u64| -> u64 {
        match density {
            Some(d) => ((raw as f64 * d).ceil() as u64).max(4),
            None => raw,
        }
    };
    let corner = |r: u32, c: u32| scale(grid.tile_bytes(TileCoord::new(r, c), dtype));
    let (fr, fc) = (rows as u64 - 1, cols as u64 - 1);
    let bytes = fr * fc * corner(0, 0)
        + fr * corner(0, cols - 1)
        + fc * corner(rows - 1, 0)
        + corner(rows - 1, cols - 1);
    GridSum {
        tiles: grid.num_tiles(),
        bytes,
    }
}

/// One grid axis for [`compute_sum`]: `count` tiles of extent `full`, the
/// last of extent `last` (equal to `full` when the axis divides evenly).
#[derive(Debug, Clone, Copy)]
pub struct Axis {
    /// Tile count along the axis (≥ 1).
    pub count: u64,
    /// Extent of every tile but the last.
    pub full: u64,
    /// Extent of the last tile.
    pub last: u64,
}

impl Axis {
    /// Sum `f` over all tiles of the axis.
    fn sum(&self, f: impl Fn(u64) -> u64) -> u64 {
        (self.count - 1) * f(self.full) + f(self.last)
    }
}

/// Exact total systolic cycles of the `count_m × count_k × count_n` tile
/// GEMM family whose per-op shape is `(m_i, k_j, n_l)`: the tile-cycle
/// formula `⌈k/R⌉·⌈n/C⌉·max(m,R)` is a product of per-axis factors, so the
/// triple sum factorises into three axis sums.
pub fn compute_sum(engine: &Engine, m: Axis, k: Axis, n: Axis) -> u64 {
    let pe = engine.systolic().pe();
    let (rows, cols) = (pe.rows as u64, pe.cols as u64);
    m.sum(|v| v.max(rows)) * k.sum(|v| v.div_ceil(rows)) * n.sum(|v| v.div_ceil(cols))
}

/// Accumulates the closed-form lower-bound terms of one candidate
/// execution; [`BoundAccum::finish`] assembles the admissible report:
/// cycles, traffic and miss count never exceed the exact report's, the hit
/// count never falls below it, and compute cycles, op and MAC counts are
/// exact.
#[derive(Debug, Clone, Default)]
pub struct BoundAccum {
    /// Exact serial compute cycles.
    pub compute_cycles: u64,
    /// Compulsory per-class traffic (reads: clean first touches per
    /// region; writes: accumulator totals).
    pub traffic: Traffic,
    /// Memory-channel bytes floor (≥ compulsory; may include capacity
    /// window terms that cannot be attributed to a class).
    pub mem_bytes: u64,
    /// Guaranteed fetch bursts (distinct clean first touches per region)
    /// plus non-empty stream ops — each costs one burst latency.
    pub bursts: u64,
    /// Extra cycles serialised after the overlapped timelines (e.g.
    /// cross-partition reductions, added exactly as the pipeline does).
    pub serial_cycles: u64,
    /// Compulsory-miss floor (every distinct tile per region).
    pub misses: u64,
    /// Exact total tile accesses.
    pub accesses: u64,
    /// Exact tile-GEMM count.
    pub gemm_ops: u64,
    /// Exact MAC count.
    pub macs: u64,
    /// Exact SPM bytes touched (sum of all access bytes).
    pub spm_bytes_touched: u64,
}

impl BoundAccum {
    /// Merge another accumulator (independent schedule parts executed
    /// back-to-back on one core).
    pub fn merge(&mut self, other: &BoundAccum) {
        self.compute_cycles += other.compute_cycles;
        self.traffic.merge(&other.traffic);
        self.mem_bytes += other.mem_bytes;
        self.bursts += other.bursts;
        self.serial_cycles += other.serial_cycles;
        self.misses += other.misses;
        self.accesses += other.accesses;
        self.gemm_ops += other.gemm_ops;
        self.macs += other.macs;
        self.spm_bytes_touched += other.spm_bytes_touched;
    }

    /// The memory-channel cycle floor.
    fn mem_cycles(&self, engine: &Engine) -> u64 {
        (self.mem_bytes as f64 / engine.bytes_per_cycle()
            + (self.bursts * engine.burst_latency()) as f64)
            .ceil() as u64
    }

    /// The cycle lower bound alone (for candidate pruning).
    pub fn cycles(&self, engine: &Engine) -> u64 {
        self.compute_cycles.max(self.mem_cycles(engine)) + self.serial_cycles
    }

    /// Assemble the admissible report.
    pub fn finish(&self, engine: &Engine) -> SimReport {
        SimReport {
            cycles: self.cycles(engine),
            compute_cycles: self.compute_cycles,
            mem_cycles: self.mem_cycles(engine),
            traffic: self.traffic,
            spm_hits: self.accesses - self.misses,
            spm_misses: self.misses,
            gemm_ops: self.gemm_ops,
            macs: self.macs,
            spm_bytes_touched: self.spm_bytes_touched,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PeArray;
    use crate::SystolicModel;

    fn engine() -> Engine {
        Engine::with_params(SystolicModel::new(PeArray::new(16, 16)), 16.0, 10, 4000)
    }

    /// The max-set yields what a binary heap yields, under random
    /// inserts, max removals, removals of arbitrary members and clears,
    /// over id spaces of one to four bit levels (up to 64³ + 1 ids). Its
    /// cached maximum is checked against a walk of the levels after every
    /// step, and the streams reach each way the cache is refilled: from
    /// the removed maximum's own word, by the level walk when that word
    /// empties, and to nothing when the set empties.
    #[test]
    fn id_max_set_matches_a_binary_heap() {
        use std::collections::{BTreeSet, BinaryHeap};
        let mut rng = igo_tensor::SplitMix64::new(0x1d_5e7);
        let mut set = IdMaxSet::default();
        // Max removals whose next maximum shares the removed id's word,
        // lies in another word, or does not exist.
        let (mut same_word, mut walked, mut emptied) = (0, 0, 0);
        for ids in [1usize, 63, 64, 65, 4095, 4097, 64 * 64 * 64 + 1] {
            set.reset(ids);
            let mut heap = BinaryHeap::new();
            let mut members = BTreeSet::new();
            for step in 0..20_000 {
                match rng.index(10) {
                    0..=4 => {
                        let id = rng.index(ids) as u32;
                        if members.insert(id) {
                            set.insert(id);
                            heap.push(id);
                        }
                    }
                    5..=7 => {
                        let want = heap.pop();
                        assert_eq!(set.max(), want, "ids {ids}, step {step}");
                        if let Some(id) = want {
                            set.remove(id);
                            members.remove(&id);
                            match heap.peek() {
                                Some(&next) if next / 64 == id / 64 => same_word += 1,
                                Some(_) => walked += 1,
                                None => emptied += 1,
                            }
                        }
                    }
                    8 => {
                        // Remove an arbitrary member, as a rebuilt heap.
                        if let Some(&id) = members.iter().nth(rng.index(members.len().max(1))) {
                            set.remove(id);
                            members.remove(&id);
                            heap = members.iter().copied().collect();
                        }
                    }
                    _ if step % 997 == 0 => {
                        set.clear();
                        heap.clear();
                        members.clear();
                    }
                    _ => {}
                }
                assert_eq!(set.max, set.walk(), "cached max, ids {ids}, step {step}");
                assert_eq!(set.max(), heap.peek().copied(), "ids {ids}, step {step}");
            }
            // Drain what is left, maximum first, down to the empty set.
            while let Some(id) = heap.pop() {
                assert_eq!(set.max(), Some(id), "draining ids {ids}");
                set.remove(id);
                assert_eq!(set.max, set.walk(), "cached max, draining ids {ids}");
            }
            assert_eq!(set.max(), None, "drained ids {ids}");
        }
        assert!(
            same_word > 0 && walked > 0 && emptied > 0,
            "same word {same_word}, walked {walked}, emptied {emptied}"
        );
    }

    /// The replay's OPT residency decides as [`crate::OptCache`], the
    /// audit's oracle, access by access, on seeded streams with true next
    /// uses: tiles of mixed sizes (some above capacity), accumulators and
    /// stray dirty touches, last uses ([`NO_USE`]) in hits and admissions,
    /// bypasses, mid-region flushes and region clears, and regions that
    /// fit on the unbounded path. Each access must fetch the same bytes,
    /// hit or miss alike, write back the same tiles in the same order and
    /// leave the same bytes resident; each flush writes back the same
    /// tiles, in id order.
    #[test]
    fn replay_residency_decides_as_the_oracle() {
        use crate::trace::TensorId;
        use crate::OptCache;
        use igo_tensor::TileCoord;
        // Ids number tiles in key order, as a registry numbers them.
        let key = |id: u32| TileKey {
            tensor: TensorId::from_raw(0),
            coord: TileCoord::new(0, id),
        };
        let mut rng = igo_tensor::SplitMix64::new(0x0b7_d1ff);
        let mut fast = ReplayOptCache::default();
        let mut writebacks = Vec::new();
        // How often each decision came up, so the streams provably reach
        // every path.
        let (mut last_hits, mut dead_admits, mut bypasses, mut evictions, mut spills) =
            (0, 0, 0, 0, 0);
        let mut unbounded = 0;
        for case in 0..300 {
            let tiles = 1 + rng.index(40);
            let capacity = rng.range_u64(1, 12) * 64;
            let bytes: Vec<u32> = (0..tiles)
                .map(|_| match rng.index(10) {
                    0 => (capacity + rng.range_u64(1, 3) * 64) as u32,
                    _ => rng.range_u64(1, 5) as u32 * 64,
                })
                .collect();
            let accumulator: Vec<bool> = (0..tiles).map(|_| rng.index(4) == 0).collect();
            fast.reset(capacity, tiles);
            let mut oracle = OptCache::new(capacity);
            let mut pos = 0u32;
            for region in 0..1 + rng.index(4) {
                let label = format!("case {case}, region {region}");
                // A region draws from a window of the tiles, so some
                // regions fit in capacity.
                let window = 1 + rng.index(tiles);
                let stream: Vec<u32> = (0..rng.index(300))
                    .map(|_| rng.index(window) as u32)
                    .collect();
                let mut next = vec![NO_USE; stream.len()];
                let mut later = vec![NO_USE; tiles];
                for (i, &id) in stream.iter().enumerate().rev() {
                    next[i] = std::mem::replace(&mut later[id as usize], pos + i as u32);
                }
                let mut distinct: Vec<u32> = stream.clone();
                distinct.sort_unstable();
                distinct.dedup();
                let footprint: u64 = distinct.iter().map(|&id| bytes[id as usize] as u64).sum();
                let fits = footprint <= capacity && rng.index(2) == 0;
                unbounded += u64::from(fits);
                for (i, &id) in stream.iter().enumerate() {
                    let a = Access {
                        id,
                        bytes: bytes[id as usize],
                        class: TensorClass::Ifmap,
                        next_use: next[i],
                    };
                    let dirty = accumulator[id as usize] || rng.index(16) == 0;
                    let (hits, used) = (fast.hits(), fast.used());
                    writebacks.clear();
                    let got = if fits {
                        fast.access_unbounded(&a, dirty, &mut writebacks)
                    } else {
                        fast.access(&a, dirty, &mut writebacks)
                    };
                    let oracle_next = if a.next_use == NO_USE {
                        usize::MAX
                    } else {
                        a.next_use as usize
                    };
                    let out = oracle.access(key(id), a.bytes as u64, dirty, oracle_next);
                    let at = format!("{label}, access {i} of tile {id}");
                    assert_eq!(got, out.fetched_bytes, "fetched bytes, {at}");
                    assert_eq!(fast.hits() > hits, out.hit, "hit, {at}");
                    let fast_writebacks: Vec<_> =
                        writebacks.iter().map(|&(id, b)| (key(id), b)).collect();
                    assert_eq!(fast_writebacks, out.writebacks, "write-backs, {at}");
                    assert_eq!(fast.used(), oracle.used(), "used, {at}");
                    let resident = oracle.contains(&key(id));
                    last_hits += u64::from(out.hit && a.next_use == NO_USE);
                    dead_admits += u64::from(!out.hit && resident && a.next_use == NO_USE);
                    bypasses += u64::from(!resident && a.bytes as u64 <= capacity);
                    evictions +=
                        u64::from(!out.hit && resident && used + a.bytes as u64 > capacity);
                    spills += u64::from(!out.writebacks.is_empty());
                    if rng.index(64) == 0 {
                        writebacks.clear();
                        fast.flush(&mut writebacks);
                        let mut flushed = oracle.flush();
                        flushed.sort_unstable();
                        let fast_flushed: Vec<_> =
                            writebacks.iter().map(|&(id, b)| (key(id), b)).collect();
                        assert_eq!(fast_flushed, flushed, "flush, {at}");
                    }
                }
                writebacks.clear();
                fast.flush(&mut writebacks);
                let mut flushed = oracle.flush();
                flushed.sort_unstable();
                let fast_flushed: Vec<_> = writebacks.iter().map(|&(id, b)| (key(id), b)).collect();
                assert_eq!(fast_flushed, flushed, "region-end flush, {label}");
                fast.clear();
                oracle.clear();
                pos += stream.len() as u32;
            }
        }
        for (what, n) in [
            ("last-use hits", last_hits),
            ("last-use admissions", dead_admits),
            ("bypasses", bypasses),
            ("evicting admissions", evictions),
            ("accesses that wrote back", spills),
            ("unbounded regions", unbounded),
        ] {
            assert!(n > 0, "no {what}");
        }
    }

    /// Emit the same op stream into a Schedule and a collector; the replay
    /// must match the engine bit for bit.
    #[test]
    fn replay_matches_engine_on_handwritten_stream() {
        let mut s = Schedule::new("t");
        let dy = s.add_tensor(TensorClass::OutGrad, "dY");
        let dx = s.add_tensor(TensorClass::InGrad, "dX");
        let mut c = AnalyticCollector::new();
        let grid = TileGrid::new(
            igo_tensor::MatrixDims::new(64, 64),
            igo_tensor::TileShape::square(16),
        );
        c.register_tensor(dy, TensorClass::OutGrad, &grid);
        c.register_tensor(dx, TensorClass::InGrad, &grid);

        let shape = GemmShape::new(16, 16, 16);
        let mut ops: Vec<TileOpSpec> = Vec::new();
        for i in 0..4u32 {
            for j in 0..4u32 {
                ops.push(
                    TileOpSpec::new(shape)
                        .read(dy, TileCoord::new(i, j), 1024)
                        .accumulate(dx, TileCoord::new(j, i), 1024),
                );
            }
        }
        // A barrier in the middle exercises flush/clear and a second region.
        for (n, op) in ops.iter().enumerate() {
            if n == 7 {
                ScheduleSink::barrier(&mut s);
                c.barrier();
            }
            ScheduleSink::gemm(&mut s, op);
            c.gemm(op);
        }

        let e = engine();
        let expected = e.run(&s);
        let got = c.replay(&e, &mut AnalyticScratch::new());
        assert_eq!(got.report, expected);
    }

    #[test]
    fn replay_counts_are_tracked() {
        let before = analytic_run_count();
        let c = AnalyticCollector::new();
        let _ = c.replay(&engine(), &mut AnalyticScratch::new());
        assert!(analytic_run_count() > before);
    }

    #[test]
    fn grid_sum_matches_exhaustive_iteration() {
        let grid = TileGrid::new(
            igo_tensor::MatrixDims::new(130, 65),
            igo_tensor::TileShape::square(16),
        );
        let dtype = DataType::F32;
        for density in [None, Some(0.37)] {
            let mut bytes = 0u64;
            for r in 0..grid.rows() {
                for c in 0..grid.cols() {
                    let raw = grid.tile_bytes(TileCoord::new(r, c), dtype);
                    bytes += match density {
                        Some(d) => ((raw as f64 * d).ceil() as u64).max(4),
                        None => raw,
                    };
                }
            }
            let s = grid_sum(&grid, dtype, density);
            assert_eq!(s.bytes, bytes);
            assert_eq!(s.tiles, grid.num_tiles());
        }
    }

    #[test]
    fn compute_sum_matches_per_op_totals() {
        let e = engine();
        // 3x2x2 tile family with ragged edges in every axis.
        let m = Axis {
            count: 3,
            full: 16,
            last: 5,
        };
        let k = Axis {
            count: 2,
            full: 16,
            last: 9,
        };
        let n = Axis {
            count: 2,
            full: 16,
            last: 1,
        };
        let mut expected = 0u64;
        for mi in [16u64, 16, 5] {
            for kj in [16u64, 9] {
                for nl in [16u64, 1] {
                    expected += e.systolic().tile_cycles(GemmShape::new(mi, kj, nl));
                }
            }
        }
        assert_eq!(compute_sum(&e, m, k, n), expected);
    }

    /// A stream with reuse, accumulators and a mid-stream barrier, emitted
    /// into both a [`Schedule`] and a collector: enough structure to exercise
    /// hits, evictions, bypass, spills, write-backs and the flush paths at
    /// small residencies.
    fn ladder_demo() -> (Schedule, AnalyticCollector) {
        let mut s = Schedule::new("ladder");
        let dy = s.add_tensor(TensorClass::OutGrad, "dY");
        let dx = s.add_tensor(TensorClass::InGrad, "dX");
        let w = s.add_tensor(TensorClass::Weight, "W");
        let mut c = AnalyticCollector::new();
        let grid = TileGrid::new(
            igo_tensor::MatrixDims::new(96, 96),
            igo_tensor::TileShape::square(16),
        );
        for (t, class) in [
            (dy, TensorClass::OutGrad),
            (dx, TensorClass::InGrad),
            (w, TensorClass::Weight),
        ] {
            c.register_tensor(t, class, &grid);
        }
        let shape = GemmShape::new(16, 16, 16);
        for n in 0..36u32 {
            let (i, j) = (n / 6, n % 6);
            let op = TileOpSpec::new(shape)
                .read(dy, TileCoord::new(i, j), 1024)
                .read(w, TileCoord::new(j, (i + j) % 6), 1024)
                .accumulate(dx, TileCoord::new(j, i), 1024);
            if n == 20 {
                ScheduleSink::barrier(&mut s);
                c.barrier();
            }
            ScheduleSink::gemm(&mut s, &op);
            c.gemm(&op);
        }
        (s, c)
    }

    fn rung(capacity: u64) -> Engine {
        Engine::with_params(SystolicModel::new(PeArray::new(16, 16)), 16.0, 10, capacity)
    }

    /// From "almost nothing stays resident" to "everything fits".
    const LADDER_CAPS: [u64; 5] = [2048, 3 * 1024, 7 * 1024, 40 * 1024, 1 << 20];

    #[test]
    fn ladder_shim_matches_solo_replay_at_every_rung() {
        let (_, c) = ladder_demo();
        let got = replay_ladder(
            &c,
            &engine(),
            &LADDER_CAPS,
            &[None; 5],
            &mut LadderScratch::new(),
        );
        assert_eq!(got.len(), LADDER_CAPS.len());
        let mut scratch = AnalyticScratch::new();
        for (&cap, got) in LADDER_CAPS.iter().zip(&got) {
            let solo = c.replay(&rung(cap), &mut scratch);
            let got = got.expect("an uncut rung completes");
            assert_eq!(got.report, solo.report, "rung {cap} vs solo replay");
        }
    }

    #[test]
    fn ladder_shim_matches_engine_at_every_rung() {
        let (s, c) = ladder_demo();
        let got = replay_ladder(
            &c,
            &engine(),
            &LADDER_CAPS,
            &[None; 5],
            &mut LadderScratch::new(),
        );
        for (&cap, got) in LADDER_CAPS.iter().zip(&got) {
            assert_eq!(
                got.unwrap().report,
                rung(cap).run(&s),
                "rung {cap} vs engine"
            );
        }
    }

    /// The recorded replay at every rung: recording leaves the report
    /// untouched, the input's shape is the recorded one, every access
    /// is recorded once, write-back events carry
    /// the report's write traffic, and occupancy stays within capacity —
    /// equal, in a region that fits, to the running sum of admitted bytes.
    #[test]
    fn recorded_replay_is_exact_and_conserves_at_every_rung() {
        use crate::recorder::EventLog;
        let (s, c) = ladder_demo();
        let mut scratch = AnalyticScratch::new();
        let (mut fitting, mut spilling) = (0, 0);
        for &cap in &LADDER_CAPS {
            let e = rung(cap);
            let mut log = EventLog::new();
            let recorded = replay_recorded(&c, &e, &mut scratch, None, &mut log)
                .expect("an uncut replay completes")
                .report;
            assert_eq!(recorded, c.replay(&e, &mut scratch).report, "rung {cap}");
            assert_eq!(recorded, e.run(&s), "rung {cap} vs engine");
            // The shape predicted from the stream is the one recorded,
            // whatever hits and spills the rung makes.
            assert_eq!(
                crate::StreamShape::of_input(&c),
                crate::StreamShape::of_events(&log.events),
                "rung {cap}"
            );

            let accesses = log
                .events
                .iter()
                .filter(|ev| matches!(ev, TraceEvent::Access { .. }));
            assert_eq!(
                accesses.count() as u64,
                recorded.spm_accesses(),
                "rung {cap}"
            );
            let written: u64 = log
                .events
                .iter()
                .map(|ev| match ev {
                    TraceEvent::WriteBack { bytes, .. } => *bytes,
                    _ => 0,
                })
                .sum();
            assert_eq!(written, recorded.traffic.write_total(), "rung {cap}");

            // Per barrier region: (distinct-tile footprint, accesses as
            // (bytes, kind, occupancy)).
            let mut regions = vec![(Vec::new(), Vec::new())];
            for ev in &log.events {
                match *ev {
                    TraceEvent::Access {
                        id,
                        bytes,
                        kind,
                        occupancy,
                        ..
                    } => {
                        let (tiles, accesses) = regions.last_mut().unwrap();
                        if !tiles.iter().any(|&(t, _)| t == id) {
                            tiles.push((id, bytes));
                        }
                        accesses.push((bytes, kind, occupancy));
                    }
                    TraceEvent::Barrier { .. } => regions.push((Vec::new(), Vec::new())),
                    _ => {}
                }
            }
            for (tiles, accesses) in &regions {
                let footprint: u64 = tiles.iter().map(|&(_, b)| b).sum();
                let mut admitted = 0;
                for &(bytes, kind, occupancy) in accesses {
                    assert!(occupancy <= cap, "rung {cap}: {occupancy} resident");
                    if footprint <= cap {
                        if kind != AccessKind::Hit {
                            admitted += bytes;
                        }
                        assert_eq!(occupancy, admitted, "rung {cap}: fitting region");
                    }
                }
                if footprint <= cap {
                    fitting += 1;
                } else {
                    spilling += 1;
                }
            }
        }
        assert!(
            fitting > 0 && spilling > 0,
            "{fitting} fitting, {spilling} spilling"
        );
    }

    /// The stream's records stay small: a new field must not silently
    /// regrow every collected access or op.
    #[test]
    fn stream_records_stay_compact() {
        assert_eq!(std::mem::size_of::<AccessRec>(), 8);
        assert!(std::mem::size_of::<OpRec>() <= 8);
    }

    /// The replay's former next-use back-scan, kept as the reference for
    /// what the collector links while collecting. One backward pass over
    /// the flattened schedule (barriers cut reuse) yields each access's
    /// next use — positions count accesses only — and, per barrier region,
    /// the distinct-tile footprint and the DRAM floor: clean first-touch
    /// bytes and bursts, plus one write-back per ever-dirty tile.
    fn back_scan(schedule: &Schedule) -> (Vec<Option<usize>>, Vec<RegionSum>) {
        let mut slots: Vec<Option<(TileKey, u64, bool)>> = Vec::new();
        for op in schedule.ops() {
            match op {
                ScheduleOp::Gemm(g) => {
                    slots.extend(g.reads.iter().map(|r| Some((r.key, r.bytes, false))));
                    slots.extend(g.acc.iter().map(|a| Some((a.key, a.bytes, true))));
                }
                ScheduleOp::Barrier => slots.push(None),
                ScheduleOp::Stream(_) => {}
            }
        }
        let mut pos = slots.iter().flatten().count();
        let mut next_use = vec![None; pos];
        let mut regions = Vec::new();
        // Per tile sighted in the current region: its latest-seen (so
        // forward-earliest) position, bytes, and dirtiness flags — bit 0 =
        // the forward-earliest access is dirty, bit 1 = any access is.
        let mut seen: std::collections::HashMap<TileKey, (usize, u64, u8)> = Default::default();
        let mut end_region = |seen: &mut std::collections::HashMap<_, (usize, u64, u8)>| {
            let mut sum = RegionSum::default();
            for (_, (_, bytes, flags)) in seen.drain() {
                sum.footprint += bytes;
                if flags & 1 == 0 {
                    sum.floor_bytes += bytes;
                    sum.floor_bursts += 1;
                }
                if flags & 2 != 0 {
                    sum.floor_bytes += bytes;
                }
            }
            regions.push(sum);
        };
        for slot in slots.iter().rev() {
            let Some((key, bytes, dirty)) = *slot else {
                end_region(&mut seen);
                continue;
            };
            pos -= 1;
            let dirty = u8::from(dirty);
            let entry = seen.entry(key).or_insert((usize::MAX, bytes, 0));
            if entry.0 != usize::MAX {
                next_use[pos] = Some(entry.0);
            }
            *entry = (pos, bytes, dirty | (entry.2 & 2) | (dirty << 1));
        }
        end_region(&mut seen);
        regions.reverse();
        (next_use, regions)
    }

    /// Assert that `schedule`'s collector links next uses and sums regions
    /// as the back-scan does.
    fn assert_links_match_back_scan(schedule: &Schedule) {
        let c = AnalyticCollector::from_schedule(schedule);
        let (next_use, regions) = back_scan(schedule);
        assert_eq!(c.next_uses().collect::<Vec<_>>(), next_use);
        assert_eq!(c.regions(), regions);
    }

    #[test]
    fn collected_links_match_the_back_scan() {
        assert_links_match_back_scan(&ladder_demo().0);

        // Leading, repeated and trailing barriers; tiles reused within and
        // across regions; a tile read clean then accumulated, and one
        // accumulated then read; stream ops between accesses.
        let mut s = Schedule::new("links");
        let dy = s.add_tensor(TensorClass::OutGrad, "dY");
        let w = s.add_tensor(TensorClass::Weight, "W");
        let dx = s.add_tensor(TensorClass::InGrad, "dX");
        let shape = GemmShape::new(16, 16, 16);
        let io = StreamOp {
            class: TensorClass::WGrad,
            read_bytes: 4096,
            write_bytes: 1024,
        };
        ScheduleSink::barrier(&mut s);
        for n in 0..24u32 {
            let (i, j) = (n % 4, n / 6);
            let op = TileOpSpec::new(shape)
                .read(dy, TileCoord::new(i, j), 1024)
                .read(w, TileCoord::new(j, 0), 2048)
                .accumulate(dx, TileCoord::new(i, 0), 512);
            ScheduleSink::gemm(&mut s, &op);
            match n {
                5 => ScheduleSink::stream(&mut s, io),
                9 | 16 => {
                    ScheduleSink::barrier(&mut s);
                    ScheduleSink::barrier(&mut s);
                }
                12 => ScheduleSink::gemm(
                    &mut s,
                    &TileOpSpec::new(shape)
                        .read(dx, TileCoord::new(1, 0), 512)
                        .accumulate(dy, TileCoord::new(0, 0), 1024),
                ),
                _ => {}
            }
        }
        ScheduleSink::stream(&mut s, io);
        ScheduleSink::barrier(&mut s);
        assert_links_match_back_scan(&s);

        // No ops at all: one empty region.
        assert_links_match_back_scan(&Schedule::new("empty"));
    }

    #[test]
    #[should_panic(expected = "a tile's access bytes change")]
    fn a_tile_whose_bytes_change_is_rejected() {
        let mut s = Schedule::new("bytes");
        let dy = s.add_tensor(TensorClass::OutGrad, "dY");
        let shape = GemmShape::new(16, 16, 16);
        for bytes in [1024, 1024, 512] {
            ScheduleSink::gemm(
                &mut s,
                &TileOpSpec::new(shape).read(dy, TileCoord::new(0, 0), bytes),
            );
        }
        AnalyticCollector::from_schedule(&s);
    }

    #[test]
    #[should_panic(expected = "registered after the collector's first op")]
    fn registering_after_the_first_op_panics() {
        let grid = TileGrid::new(
            igo_tensor::MatrixDims::new(32, 32),
            igo_tensor::TileShape::square(16),
        );
        let (a, b) = (TensorId::from_raw(0), TensorId::from_raw(1));
        let mut c = AnalyticCollector::new();
        c.register_tensor(a, TensorClass::OutGrad, &grid);
        c.gemm(&TileOpSpec::new(GemmShape::new(16, 16, 16)).read(a, TileCoord::new(0, 0), 1024));
        c.register_tensor(b, TensorClass::Weight, &grid);
    }

    /// Tensors registered out of raw-id order, as the layer builders do
    /// (dY = 5 before X = 0), with many residents that have no further use
    /// competing for eviction. A first sweep leaves dead clean dY and X
    /// reads and dead dirty dX accumulators; a second sweep hits one
    /// resident W tile and opens fresh dW accumulators, so each of its ops
    /// moves memory only if its victim is a dirty tile. The replay matches
    /// the engine only if victim ties break in `TileKey` order (dY, then
    /// dW, then dX, then X) rather than in registration order.
    #[test]
    fn victim_ties_follow_tile_keys_whatever_the_registration_order() {
        let mut s = Schedule::new("ties");
        let ids: Vec<TensorId> = [
            (TensorClass::Ifmap, "X"),
            (TensorClass::Weight, "W"),
            (TensorClass::Ofmap, "Y"),
            (TensorClass::InGrad, "dX"),
            (TensorClass::WGrad, "dW"),
            (TensorClass::OutGrad, "dY"),
        ]
        .into_iter()
        .map(|(class, name)| s.add_tensor(class, name))
        .collect();
        let (x, w, dx, dw, dy) = (ids[0], ids[1], ids[3], ids[4], ids[5]);
        let grid = TileGrid::new(
            igo_tensor::MatrixDims::new(96, 96),
            igo_tensor::TileShape::square(16),
        );
        let mut c = AnalyticCollector::new();
        for (t, class) in [
            (dy, TensorClass::OutGrad),
            (w, TensorClass::Weight),
            (x, TensorClass::Ifmap),
            (dx, TensorClass::InGrad),
            (dw, TensorClass::WGrad),
        ] {
            c.register_tensor(t, class, &grid);
        }
        let shape = GemmShape::new(16, 16, 16);
        let mut emit = |op: TileOpSpec| {
            ScheduleSink::gemm(&mut s, &op);
            c.gemm(&op);
        };
        for n in 0..12u32 {
            let at = TileCoord::new(n / 6, n % 6);
            emit(
                TileOpSpec::new(shape)
                    .read(dy, at, 1024)
                    .read(x, at, 2048)
                    .accumulate(dx, at, 1024),
            );
        }
        for n in 0..24u32 {
            emit(
                TileOpSpec::new(shape)
                    .read(w, TileCoord::new(0, 0), 1024)
                    .accumulate(dw, TileCoord::new(n / 6, n % 6), 1024),
            );
        }
        let mut scratch = AnalyticScratch::new();
        for &cap in &LADDER_CAPS {
            let e = rung(cap);
            assert_eq!(c.replay(&e, &mut scratch).report, e.run(&s), "rung {cap}");
        }
    }

    /// A collector rebuilt from a materialised schedule replays exactly
    /// like the one the same ops were emitted into.
    #[test]
    fn collector_from_schedule_matches_emitted_collector() {
        let (s, c) = ladder_demo();
        let rebuilt = AnalyticCollector::from_schedule(&s);
        assert_eq!(rebuilt.stream_len(), c.stream_len());
        let mut scratch = AnalyticScratch::new();
        for &cap in &LADDER_CAPS {
            let e = rung(cap);
            assert_eq!(
                rebuilt.replay(&e, &mut scratch).report,
                c.replay(&e, &mut scratch).report,
                "rung {cap}"
            );
        }
    }

    /// Any cutoff vector must behave exactly like one solo bounded replay
    /// per rung: no cutoff, a cutoff at the true cycle count (accepted) and
    /// one cycle below it, plus looser, tighter and mixed cutoffs.
    #[test]
    fn ladder_shim_rejects_only_provably_worse_rungs() {
        let (_, c) = ladder_demo();
        let mut scratch = AnalyticScratch::new();
        let cycles: Vec<u64> = LADDER_CAPS
            .iter()
            .map(|&cap| c.replay(&rung(cap), &mut scratch).report.cycles)
            .collect();
        let cutoffs: Vec<Vec<Option<u64>>> = vec![
            vec![None; 5],
            cycles.iter().map(|&cy| Some(cy)).collect(),
            cycles.iter().map(|&cy| Some(cy - 1)).collect(),
            cycles.iter().map(|&cy| Some(cy / 2)).collect(),
            cycles.iter().map(|&cy| Some(cy * 2)).collect(),
            vec![Some(1), None, Some(cycles[2]), Some(cycles[3] - 1), None],
            vec![Some(0); 5],
        ];
        let mut ladder = LadderScratch::new();
        for cuts in &cutoffs {
            let got = replay_ladder(&c, &engine(), &LADDER_CAPS, cuts, &mut ladder);
            for ((&cap, &cut), got) in LADDER_CAPS.iter().zip(cuts).zip(got) {
                let solo = c.replay_bounded(&rung(cap), &mut scratch, cut);
                assert_eq!(got, solo, "rung {cap} cutoff {cut:?}");
            }
        }
        let at_cycles = replay_ladder(&c, &engine(), &LADDER_CAPS, &cutoffs[1], &mut ladder);
        assert!(
            at_cycles.iter().all(Option::is_some),
            "cutoff = cycles accepts"
        );
        let dead = replay_ladder(&c, &engine(), &LADDER_CAPS, &cutoffs[6], &mut ladder);
        assert!(dead.iter().all(Option::is_none), "a zero cutoff rejects");
    }
}
