//! Double-buffered tile-stream execution engine.
//!
//! The engine walks a [`Schedule`] op by op, resolving each named tile
//! access against an SPM residency model to obtain the actual DRAM
//! traffic, and advances two timelines:
//!
//! * the **memory timeline** — the DRAM channel transfers each op's misses
//!   (and eviction write-backs) serially, in op order, running freely
//!   ahead of compute. This is the standard perfect-double-buffering
//!   assumption of SCALE-Sim-class simulators: the prefetch half of the
//!   SPM keeps the channel busy whenever there is future work.
//! * the **compute timeline** — the systolic array executes tile GEMMs
//!   serially; an op starts when its data has landed and the previous op
//!   has finished.
//!
//! The makespan is the later finish time of the two timelines.
//!
//! Because an NPU scratchpad is *compiler-managed* and the whole schedule
//! is known ahead of time, the default residency model is Belady's OPT
//! ([`crate::opt::OptCache`]) over the schedule's access stream. LRU
//! ([`crate::SpmCache`]) is available as an ablation via
//! [`Engine::with_replacement`].
//!
//! The engine is the independent, unrecorded reference: the selection
//! loop and tracing both run the analytic replay
//! ([`crate::AnalyticCollector`]), which carries the recorder hook, and
//! the audit and the golden digests compare that replay against
//! [`Engine::run`].

use crate::config::NpuConfig;
use crate::opt::DenseOptCache;
use crate::spm::SpmCache;
use crate::stats::{SimReport, Traffic};
use crate::systolic::SystolicModel;
use crate::trace::{Schedule, ScheduleOp, TileKey};
use igo_tensor::TensorClass;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// SPM residency policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Replacement {
    /// Belady's optimal replacement — the compiler-managed-SPM model
    /// (default).
    #[default]
    Opt,
    /// Least-recently-used — a hardware-cache-style ablation.
    Lru,
}

/// Process-wide count of `Engine` runs, for the `--timing` self-measurement
/// harness (how many full schedule simulations the sweep actually executed,
/// after memoization and pruning).
static ENGINE_RUNS: AtomicU64 = AtomicU64::new(0);

/// Total `Engine::run`/`run_with_scratch` invocations so far in this
/// process. Monotonic; sample before and after a workload to attribute runs.
pub fn engine_run_count() -> u64 {
    ENGINE_RUNS.load(Ordering::Relaxed)
}

/// Sentinel id marking a kernel boundary in the flattened access stream.
const BARRIER_ID: u32 = u32::MAX;

/// Reusable engine working memory: the flattened access stream, the interned
/// tile-id table, the next-use oracle and the residency model's slot
/// storage. One scratch serves any number of `run_with_scratch` calls;
/// buffers are cleared, not reallocated, between runs, which removes every
/// per-run heap allocation from the simulate-and-select hot loop.
#[derive(Default)]
pub struct EngineScratch {
    /// TileKey → dense id, built once per run.
    intern: HashMap<TileKey, u32>,
    /// Dense id → TileKey (for replacement-order tie-breaking).
    keys: Vec<TileKey>,
    /// Dense id → traffic class, memoized from the schedule's tensor table.
    classes: Vec<TensorClass>,
    /// Flattened accesses: `(dense id, bytes, dirty)`; barriers appear as
    /// `(BARRIER_ID, 0, false)` sentinels.
    stream: Vec<(u32, u64, bool)>,
    /// Stream position of each op's first access.
    op_access_start: Vec<usize>,
    /// Per-access position of the next access to the same tile.
    next_use: Vec<usize>,
    /// Dense id → latest stream position seen (next-use back-scan state).
    last_seen: Vec<usize>,
    /// Eviction write-back landing buffer, drained after every access.
    writebacks: Vec<(u32, u64)>,
    /// Reusable Belady replacement state.
    opt: DenseOptCache,
}

impl EngineScratch {
    /// A fresh scratch. Equivalent to `EngineScratch::default()`.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Executes schedules on one NPU core.
#[derive(Debug, Clone)]
pub struct Engine {
    systolic: SystolicModel,
    bytes_per_cycle: f64,
    burst_latency: u64,
    residency_bytes: u64,
    replacement: Replacement,
}

impl Engine {
    /// Engine for one core of `config` (per-core SPM slice and bandwidth
    /// share), with OPT replacement.
    pub fn new(config: &NpuConfig) -> Self {
        Self {
            systolic: SystolicModel::new(config.pe),
            bytes_per_cycle: config.dram_bytes_per_cycle_per_core(),
            burst_latency: config.dram.burst_latency_cycles,
            residency_bytes: config.residency_bytes_per_core().max(1),
            replacement: Replacement::Opt,
        }
    }

    /// Engine with explicit parameters (used by sweeps and tests).
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth or residency is non-positive.
    pub fn with_params(
        systolic: SystolicModel,
        bytes_per_cycle: f64,
        burst_latency: u64,
        residency_bytes: u64,
    ) -> Self {
        assert!(bytes_per_cycle > 0.0, "bandwidth must be positive");
        assert!(residency_bytes > 0, "residency must be positive");
        Self {
            systolic,
            bytes_per_cycle,
            burst_latency,
            residency_bytes,
            replacement: Replacement::Opt,
        }
    }

    /// Switch the residency model (LRU is the hardware-cache ablation).
    #[must_use]
    pub fn with_replacement(mut self, replacement: Replacement) -> Self {
        self.replacement = replacement;
        self
    }

    /// The compute model in use.
    pub fn systolic(&self) -> &SystolicModel {
        &self.systolic
    }

    /// SPM residency bytes this engine simulates.
    pub fn residency_bytes(&self) -> u64 {
        self.residency_bytes
    }

    /// DRAM bandwidth in bytes per cycle (per core). Exposed so external
    /// checkers can recompute memory-timeline costs independently.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.bytes_per_cycle
    }

    /// Per-burst DRAM latency in cycles.
    pub fn burst_latency(&self) -> u64 {
        self.burst_latency
    }

    /// The residency replacement policy in use.
    pub fn replacement(&self) -> Replacement {
        self.replacement
    }

    /// Run `schedule` on a cold SPM and report. Convenience wrapper that
    /// allocates a fresh [`EngineScratch`]; hot loops should hold one
    /// scratch and call [`Engine::run_with_scratch`].
    pub fn run(&self, schedule: &Schedule) -> SimReport {
        let mut scratch = EngineScratch::new();
        self.run_with_scratch(schedule, &mut scratch)
    }

    /// Run `schedule` on a cold SPM, reusing `scratch`'s buffers.
    pub fn run_with_scratch(&self, schedule: &Schedule, scratch: &mut EngineScratch) -> SimReport {
        ENGINE_RUNS.fetch_add(1, Ordering::Relaxed);
        let EngineScratch {
            intern,
            keys,
            classes,
            stream,
            op_access_start,
            next_use,
            last_seen,
            writebacks,
            opt,
        } = scratch;
        intern.clear();
        keys.clear();
        classes.clear();
        stream.clear();
        op_access_start.clear();
        writebacks.clear();

        // Pre-pass: flatten the access stream, interning each distinct tile
        // to a dense id (one hash lookup per access; every later pass is
        // pure array indexing), and record each op's first access slot.
        // Barriers appear as sentinels: reuse never crosses a kernel
        // boundary.
        {
            let mut intern_id = |key: TileKey| -> u32 {
                *intern.entry(key).or_insert_with(|| {
                    let id = keys.len() as u32;
                    keys.push(key);
                    classes.push(schedule.class_of(key.tensor));
                    id
                })
            };
            for op in schedule.ops() {
                op_access_start.push(stream.len());
                match op {
                    ScheduleOp::Gemm(g) => {
                        for r in &g.reads {
                            stream.push((intern_id(r.key), r.bytes, false));
                        }
                        if let Some(a) = &g.acc {
                            stream.push((intern_id(a.key), a.bytes, true));
                        }
                    }
                    ScheduleOp::Barrier => stream.push((BARRIER_ID, 0, false)),
                    ScheduleOp::Stream(_) => {}
                }
            }
        }

        // Next-use oracle: for every access, the position of the next
        // access to the same tile (the knowledge a compiler has when
        // allocating SPM) — a dense back-scan over interned ids.
        next_use.clear();
        next_use.resize(stream.len(), usize::MAX);
        last_seen.clear();
        last_seen.resize(keys.len(), usize::MAX);
        for pos in (0..stream.len()).rev() {
            let (id, _, _) = stream[pos];
            if id == BARRIER_ID {
                last_seen.fill(usize::MAX);
            } else {
                let later = last_seen[id as usize];
                if later != usize::MAX {
                    next_use[pos] = later;
                }
                last_seen[id as usize] = pos;
            }
        }

        let mut lru = match self.replacement {
            Replacement::Opt => {
                opt.reset(self.residency_bytes, keys.len());
                None
            }
            Replacement::Lru => Some(SpmCache::new(self.residency_bytes)),
        };

        let mut traffic = Traffic::new();
        let mut mem_free: f64 = 0.0;
        let mut compute_free: f64 = 0.0;
        let mut compute_cycles_total: u64 = 0;
        let mut mem_busy_total: f64 = 0.0;
        let mut gemm_ops: u64 = 0;
        let mut macs: u64 = 0;
        let mut spm_bytes_touched: u64 = 0;

        for (op_idx, op) in schedule.ops().iter().enumerate() {
            match op {
                ScheduleOp::Gemm(g) => {
                    let start = op_access_start[op_idx];
                    let mut fetched = 0u64;
                    let mut writeback = 0u64;
                    let mut bursts = 0u64;
                    let n_accesses = g.reads.len() + usize::from(g.acc.is_some());
                    for pos in start..start + n_accesses {
                        let (id, bytes, dirty) = stream[pos];
                        debug_assert_ne!(id, BARRIER_ID, "gemm slots are never barriers");
                        spm_bytes_touched += bytes;
                        let got = match &mut lru {
                            None => opt.access(
                                id,
                                keys[id as usize],
                                bytes,
                                dirty,
                                next_use[pos],
                                writebacks,
                            ),
                            Some(c) => {
                                let key = keys[id as usize];
                                let out = if dirty {
                                    c.accumulate(key, bytes)
                                } else {
                                    c.read(key, bytes)
                                };
                                writebacks
                                    .extend(out.writebacks.iter().map(|(k, b)| (intern[k], *b)));
                                out.fetched_bytes
                            }
                        };
                        if got > 0 {
                            traffic.add_read(classes[id as usize], got);
                            fetched += got;
                            bursts += 1;
                        }
                        for (vid, vbytes) in writebacks.drain(..) {
                            traffic.add_write(classes[vid as usize], vbytes);
                            writeback += vbytes;
                        }
                    }

                    // Memory timeline: free-running, serial in op order.
                    let move_bytes = fetched + writeback;
                    if move_bytes > 0 {
                        let mem_time = move_bytes as f64 / self.bytes_per_cycle
                            + (bursts.max(1) * self.burst_latency) as f64;
                        mem_free += mem_time;
                        mem_busy_total += mem_time;
                    }

                    // Compute timeline: wait for the array and, if this op
                    // needed transfers, for its data.
                    let cycles = self.systolic.tile_cycles(g.compute);
                    let data_ready = if move_bytes > 0 { mem_free } else { 0.0 };
                    let issue = compute_free.max(data_ready);
                    compute_free = issue + cycles as f64;
                    compute_cycles_total += cycles;
                    gemm_ops += 1;
                    macs += g.macs();
                }
                ScheduleOp::Stream(s) => {
                    if s.read_bytes > 0 {
                        traffic.add_read(s.class, s.read_bytes);
                    }
                    if s.write_bytes > 0 {
                        traffic.add_write(s.class, s.write_bytes);
                    }
                    let bytes = s.read_bytes + s.write_bytes;
                    if bytes > 0 {
                        let mem_time =
                            bytes as f64 / self.bytes_per_cycle + self.burst_latency as f64;
                        mem_free += mem_time;
                        mem_busy_total += mem_time;
                    }
                }
                ScheduleOp::Barrier => {
                    // Kernel boundary: flush dirty results, drop residency.
                    // The next kernel cannot start its loads before the
                    // previous kernel's compute has finished.
                    match &mut lru {
                        None => opt.flush(writebacks),
                        Some(c) => {
                            writebacks.extend(c.flush().into_iter().map(|(k, b)| (intern[&k], b)))
                        }
                    }
                    if !writebacks.is_empty() {
                        let mut bytes = 0u64;
                        for (vid, vbytes) in writebacks.drain(..) {
                            traffic.add_write(classes[vid as usize], vbytes);
                            bytes += vbytes;
                        }
                        let mem_time =
                            bytes as f64 / self.bytes_per_cycle + self.burst_latency as f64;
                        mem_free += mem_time;
                        mem_busy_total += mem_time;
                    }
                    match &mut lru {
                        None => opt.clear(),
                        Some(c) => c.clear(),
                    }
                    mem_free = mem_free.max(compute_free);
                }
            }
        }

        // Flush remaining dirty results (final accumulator tiles) to DRAM.
        match &mut lru {
            None => opt.flush(writebacks),
            Some(c) => writebacks.extend(c.flush().into_iter().map(|(k, b)| (intern[&k], b))),
        }
        if !writebacks.is_empty() {
            let mut bytes = 0u64;
            for (vid, vbytes) in writebacks.drain(..) {
                traffic.add_write(classes[vid as usize], vbytes);
                bytes += vbytes;
            }
            let mem_time = bytes as f64 / self.bytes_per_cycle + self.burst_latency as f64;
            mem_free += mem_time;
            mem_busy_total += mem_time;
        }
        let (spm_hits, spm_misses) = match &lru {
            None => (opt.hits(), opt.misses()),
            Some(c) => (c.hits(), c.misses()),
        };
        SimReport {
            cycles: mem_free.max(compute_free).ceil() as u64,
            compute_cycles: compute_cycles_total,
            mem_cycles: mem_busy_total.ceil() as u64,
            traffic,
            spm_hits,
            spm_misses,
            gemm_ops,
            macs,
            spm_bytes_touched,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{StreamOp, TileOp};
    use igo_tensor::{GemmShape, TensorClass, TileCoord};

    fn tiny_engine(residency: u64) -> Engine {
        Engine::with_params(
            SystolicModel::new(crate::config::PeArray::new(16, 16)),
            16.0, // bytes per cycle
            10,   // burst latency
            residency,
        )
    }

    #[test]
    fn single_op_timing() {
        let e = tiny_engine(10_000);
        let mut s = Schedule::new("one");
        let dy = s.add_tensor(TensorClass::OutGrad, "dY");
        s.push_gemm(TileOp::new(GemmShape::new(16, 16, 16)).read(dy, TileCoord::new(0, 0), 1600));
        let r = e.run(&s);
        // mem: 1600/16 + 10 = 110 cycles; compute: one 16-row fold.
        assert_eq!(r.mem_cycles, 110);
        assert_eq!(r.compute_cycles, 16);
        assert_eq!(r.cycles, 110 + 16);
        assert_eq!(r.traffic.read(TensorClass::OutGrad), 1600);
        assert_eq!(r.gemm_ops, 1);
    }

    #[test]
    fn repeated_reads_hit_spm() {
        let e = tiny_engine(10_000);
        let mut s = Schedule::new("reuse");
        let dy = s.add_tensor(TensorClass::OutGrad, "dY");
        for _ in 0..5 {
            s.push_gemm(TileOp::new(GemmShape::new(16, 16, 16)).read(
                dy,
                TileCoord::new(0, 0),
                1600,
            ));
        }
        let r = e.run(&s);
        assert_eq!(r.traffic.read_total(), 1600, "only the first read misses");
        assert_eq!(r.spm_hits, 4);
        assert_eq!(r.spm_misses, 1);
    }

    #[test]
    fn opt_retains_loop_working_set() {
        // Loop over 3 tiles with room for 2: OPT keeps hitting on part of
        // the working set instead of missing every access like LRU.
        let mut s = Schedule::new("loop");
        let dy = s.add_tensor(TensorClass::OutGrad, "dY");
        for round in 0..10 {
            let j = round % 3;
            s.push_gemm(TileOp::new(GemmShape::new(16, 16, 16)).read(
                dy,
                TileCoord::new(0, j),
                1600,
            ));
        }
        let opt = tiny_engine(3300).run(&s);
        let lru = tiny_engine(3300).with_replacement(Replacement::Lru).run(&s);
        assert!(opt.spm_hits > 0);
        assert_eq!(lru.spm_hits, 0, "LRU thrashes the cyclic pattern");
        assert!(opt.traffic.read_total() < lru.traffic.read_total());
    }

    #[test]
    fn accumulator_flush_charged_to_result_class() {
        let e = tiny_engine(10_000);
        let mut s = Schedule::new("acc");
        let dy = s.add_tensor(TensorClass::OutGrad, "dY");
        let dx = s.add_tensor(TensorClass::InGrad, "dX");
        for j in 0..4 {
            s.push_gemm(
                TileOp::new(GemmShape::new(16, 16, 16))
                    .read(dy, TileCoord::new(0, j), 1600)
                    .accumulate(dx, TileCoord::new(0, 0), 1600),
            );
        }
        let r = e.run(&s);
        assert_eq!(r.traffic.write(TensorClass::InGrad), 1600);
        assert_eq!(r.traffic.write_total(), 1600);
        assert_eq!(r.traffic.read(TensorClass::InGrad), 0);
    }

    #[test]
    fn memory_runs_ahead_of_compute() {
        // Two ops: with a free-running memory pipeline the second load
        // overlaps the first compute entirely.
        let e = tiny_engine(10_000);
        let mut s = Schedule::new("dbuf");
        let dy = s.add_tensor(TensorClass::OutGrad, "dY");
        for j in 0..2 {
            s.push_gemm(TileOp::new(GemmShape::new(16, 16, 16)).read(
                dy,
                TileCoord::new(0, j),
                1600,
            ));
        }
        let r = e.run(&s);
        // mem: 110 + 110 = 220; compute starts at 220 (data-bound), +16.
        assert_eq!(r.cycles, 220 + 16);
    }

    #[test]
    fn compute_bound_when_data_resident() {
        let e = tiny_engine(10_000);
        let mut s = Schedule::new("cb");
        let dy = s.add_tensor(TensorClass::OutGrad, "dY");
        for _ in 0..10 {
            s.push_gemm(TileOp::new(GemmShape::new(512, 16, 16)).read(
                dy,
                TileCoord::new(0, 0),
                1600,
            ));
        }
        let r = e.run(&s);
        // One 110-cycle load, then 10 x 512-cycle GEMMs back-to-back.
        assert_eq!(r.cycles, 110 + 10 * 512);
    }

    #[test]
    fn memory_bound_schedule_tracks_traffic() {
        let e = Engine::with_params(
            SystolicModel::new(crate::config::PeArray::new(16, 16)),
            1.0,
            0,
            1 << 20,
        );
        let mut s = Schedule::new("mb");
        let dy = s.add_tensor(TensorClass::OutGrad, "dY");
        for j in 0..10 {
            s.push_gemm(TileOp::new(GemmShape::new(16, 16, 16)).read(
                dy,
                TileCoord::new(0, j),
                1600,
            ));
        }
        let r = e.run(&s);
        assert!(r.cycles >= 16_000, "must at least stream all bytes");
        assert!(r.memory_boundedness() > 0.95);
    }

    #[test]
    fn stream_ops_cost_bandwidth() {
        let e = tiny_engine(10_000);
        let mut s = Schedule::new("stream");
        s.push_stream(StreamOp {
            class: TensorClass::WGrad,
            read_bytes: 800,
            write_bytes: 800,
        });
        let r = e.run(&s);
        assert_eq!(r.traffic.read(TensorClass::WGrad), 800);
        assert_eq!(r.traffic.write(TensorClass::WGrad), 800);
        assert_eq!(r.cycles, 1600 / 16 + 10);
    }

    #[test]
    fn empty_schedule_is_free() {
        let e = tiny_engine(1000);
        let r = e.run(&Schedule::new("empty"));
        assert_eq!(r.cycles, 0);
        assert_eq!(r.traffic.total(), 0);
    }

    #[test]
    fn opt_pins_accumulator_and_streams_operands() {
        // Residency of one tile: the reused dirty dW accumulator is worth
        // keeping; the never-reused dY tiles are bypassed. The compiler-
        // managed SPM gets this right where LRU would thrash.
        let e = tiny_engine(1600);
        let mut s = Schedule::new("spill");
        let dy = s.add_tensor(TensorClass::OutGrad, "dY");
        let dw = s.add_tensor(TensorClass::WGrad, "dW");
        for j in 0..2 {
            s.push_gemm(
                TileOp::new(GemmShape::new(16, 16, 16))
                    .read(dy, TileCoord::new(0, j), 1600)
                    .accumulate(dw, TileCoord::new(0, 0), 1600),
            );
        }
        let r = e.run(&s);
        // Both dY tiles are fetched; dW is written exactly once, at flush,
        // and never re-fetched.
        assert_eq!(r.traffic.read(TensorClass::OutGrad), 2 * 1600);
        assert_eq!(r.traffic.write(TensorClass::WGrad), 1600);
        assert_eq!(r.traffic.read(TensorClass::WGrad), 0);
    }

    #[test]
    fn lru_and_opt_agree_on_compulsory_misses() {
        // A scan with no reuse: both models fetch everything exactly once.
        let mut s = Schedule::new("scan");
        let dy = s.add_tensor(TensorClass::OutGrad, "dY");
        for j in 0..20 {
            s.push_gemm(TileOp::new(GemmShape::new(16, 16, 16)).read(
                dy,
                TileCoord::new(0, j),
                1600,
            ));
        }
        let opt = tiny_engine(5000).run(&s);
        let lru = tiny_engine(5000).with_replacement(Replacement::Lru).run(&s);
        assert_eq!(opt.traffic.read_total(), 20 * 1600);
        assert_eq!(lru.traffic.read_total(), 20 * 1600);
    }
}
