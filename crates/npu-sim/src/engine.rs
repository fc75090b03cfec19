//! The NPU core's machine model: a double-buffered tile-stream engine.
//!
//! An [`Engine`] holds one core's parameters — systolic array, DRAM
//! bandwidth share, per-burst latency, SPM residency and replacement
//! policy. The workspace's one timeline is the replay
//! ([`crate::replay_input`]) of a stream on an engine; the pipeline, traces
//! and the LRU ablation feed it the layer's loop-nest generators.
//! [`Engine::run`] is the entry for a materialised [`Schedule`], which it
//! collects into an [`AnalyticCollector`] and replays; the audit, the
//! tests and the examples use it.
//! The replay resolves each named tile access against an SPM residency
//! model to obtain the actual DRAM traffic, and advances two timelines:
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
//! over the schedule's access stream. LRU
//! ([`crate::SpmCache`]) is available as an ablation via
//! [`Engine::with_replacement`]: any replay on such an engine, a generated
//! stream's included, runs the LRU residency.
//!
//! The audit keeps an independent oracle: `core::audit` shadows every
//! decided schedule with the `BTreeMap`-based [`crate::OptCache`] and its
//! own two timelines, and compares the result with [`Engine::run`].

use crate::analytic::{run_timeline, AnalyticCollector, AnalyticScratch};
use crate::config::NpuConfig;
use crate::recorder::NullRecorder;
use crate::stats::SimReport;
use crate::systolic::SystolicModel;
use crate::trace::Schedule;
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

/// Process-wide count of [`Engine::run`] calls, for the `--timing`
/// self-measurement harness. No product path runs the engine: candidate
/// selection, forward passes and traces replay generated streams (counted
/// by [`crate::analytic_run_count`]), so `igo-sim sweep`, `ladder` and
/// `layer` report `engine_runs: 0`. The audit, the tests and the examples
/// are its callers.
static ENGINE_RUNS: AtomicU64 = AtomicU64::new(0);

/// Total [`Engine::run`] invocations so far in this process. Monotonic;
/// sample before and after a workload to attribute runs.
pub fn engine_run_count() -> u64 {
    ENGINE_RUNS.load(Ordering::Relaxed)
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

    /// Run `schedule` on a cold SPM and report: collect it with
    /// [`AnalyticCollector::from_schedule`] and replay it. Counts one
    /// engine run ([`engine_run_count`]) and no analytic run.
    ///
    /// # Panics
    ///
    /// Panics if `schedule` exceeds the collector's limits: a tile access
    /// of 2 GiB or more, a tile accessed with two byte counts, a tile op
    /// with 2^16 or more accesses, or a tile
    /// registry (each tensor spans the grid up to its largest tile row and
    /// column) or access stream reaching [`crate::REPLAY_ID_LIMIT`]. Tiles
    /// are PE-array sized, so every schedule the builders emit is far
    /// inside them.
    pub fn run(&self, schedule: &Schedule) -> SimReport {
        ENGINE_RUNS.fetch_add(1, Ordering::Relaxed);
        let collector = AnalyticCollector::from_schedule(schedule);
        run_timeline(
            &collector,
            self,
            &mut AnalyticScratch::new(),
            None,
            &mut NullRecorder,
        )
        .expect("unbounded replay always completes")
        .report
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
