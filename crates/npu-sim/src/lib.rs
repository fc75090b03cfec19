//! Cycle-level NPU simulator substrate for the IGO reproduction.
//!
//! The paper evaluates its dataflow transformations on "a cycle-level
//! simulator for DNN training on NPUs, building upon SCALE-Sim" (§6.1). The
//! authors' simulator is not public, so this crate implements that class of
//! simulator from scratch with the modelling assumptions the paper states:
//!
//! * all layers execute as **tiled GEMMs** (convolutions after im2col);
//! * operands are staged in a software-managed **scratchpad memory (SPM)**
//!   with **double buffering** — half the SPM holds live tiles while the
//!   other half receives prefetches, so a tile survives in SPM only if its
//!   reuse distance fits in half the capacity (§4.2);
//! * compute is a **weight-stationary systolic array**;
//! * off-chip **DRAM** is a flat-bandwidth channel with a per-burst latency.
//!
//! The interface between schedulers and the machine is a [`Schedule`]: a
//! stream of tile operations, each naming the operand tiles it reads, an
//! optional accumulator tile it read-modify-writes, and the tile-GEMM it
//! performs. The paper's *baseline*, *interleaved*, *dXmajor* / *dWmajor*
//! and *partitioned* dataflows are all just different streams over the same
//! machine — exactly the paper's claim that the techniques are pure code
//! transformations "requiring no modifications to the hardware design".
//!
//! # Example
//!
//! ```
//! use igo_npu_sim::{Engine, NpuConfig, Schedule, TileOp};
//! use igo_tensor::{GemmShape, TensorClass, TileCoord};
//!
//! let config = NpuConfig::large_single_core();
//! let mut schedule = Schedule::new("demo");
//! let dy = schedule.add_tensor(TensorClass::OutGrad, "dY");
//! let w = schedule.add_tensor(TensorClass::Weight, "W");
//! let dx = schedule.add_tensor(TensorClass::InGrad, "dX");
//! let t = TileCoord::new(0, 0);
//! let tile_bytes = 128 * 128 * 4;
//! schedule.push_gemm(
//!     TileOp::new(GemmShape::new(128, 128, 128))
//!         .read(dy, t, tile_bytes)
//!         .read(w, t, tile_bytes)
//!         .accumulate(dx, t, tile_bytes),
//! );
//! let report = Engine::new(&config).run(&schedule);
//! assert!(report.cycles > 0);
//! assert_eq!(report.traffic.read_total(), 2 * tile_bytes);
//! ```

pub mod analytic;
pub mod config;
pub mod energy;
pub mod engine;
pub mod multicore;
pub mod opt;
pub mod recorder;
pub mod spm;
pub mod stats;
pub mod systolic;
pub mod trace;

pub use analytic::{
    analytic_run_count, compute_sum, grid_sum, replay_input, replay_ladder, replay_recorded,
    Access, AnalyticCollector, AnalyticReport, AnalyticScratch, Axis, BoundAccum, GemmAccesses,
    GridSum, LadderScratch, OpVisitor, RegionSum, ReplayInput, NO_USE, REPLAY_ID_LIMIT,
};
pub use config::{DramConfig, NpuConfig, PeArray};
pub use energy::{EnergyModel, EnergyReport};
pub use engine::{engine_run_count, Engine, Replacement};
pub use multicore::{
    reduction_cycles, replay_multicore, replay_multicore_bounded,
    replay_sequential_partitions_bounded, sequential_combined, MultiCoreReport,
};
pub use opt::OptCache;
pub use recorder::{
    decimate, round_cycles, AccessKind, ClassMetrics, Decimator, DyReusePoint, EventLog,
    MetricsFold, NullRecorder, Phase, Recorder, ReuseHistogram, RunMetrics, StreamShape, TileStats,
    TraceEvent, DY_SERIES_CAP, REUSE_BUCKETS,
};
pub use spm::SpmCache;
pub use stats::{SimReport, Traffic};
pub use systolic::SystolicModel;
pub use trace::{
    Schedule, ScheduleOp, ScheduleSink, StreamOp, TensorId, TileAccessSpec, TileKey, TileOp,
    TileOpSpec,
};
