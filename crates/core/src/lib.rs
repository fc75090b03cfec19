//! # igo-core — the interleaved gradient order
//!
//! The primary contribution of the reproduced paper: a dataflow
//! transformation stack for the backward pass of DNN training on NPUs.
//!
//! 1. **Interleaving** ([`schedule::BackwardOrder::Interleaved`], §4.2):
//!    fuse the independent `dX` and `dW` tile streams so the shared output
//!    gradient `dY` is fetched once while resident in SPM.
//! 2. **Rearrangement** ([`select::select_order`], §4.3): pick the common
//!    `dY` traversal — plain interleaving, dXmajor, or dWmajor — statically
//!    from the tensor dimensions (Algorithm 1).
//! 3. **Data partitioning** ([`partition`], §5): split the fused GEMM pair
//!    along M / N / K for single-core sequencing or multi-core
//!    distribution, selecting the scheme per layer by simulation oracle or
//!    by the KNN predictor ([`partition_select`]).
//!
//! [`SimContext::model`] drives a whole training step (forward +
//! backward) of any [`igo_workloads::Model`] under any
//! [`technique::Technique`] and reports cycles and per-class DRAM traffic.
//! A [`SimContext`] carries the run's [`SimOptions`] and its memo; one
//! built with [`SimContext::new`] shares nothing with any other, while
//! [`simulate_model`] and the other free functions run on
//! [`SimContext::shared`], the one process memo.
//!
//! # Example
//!
//! ```
//! use igo_core::{simulate_model, Technique};
//! use igo_npu_sim::NpuConfig;
//! use igo_workloads::{zoo, ModelId};
//!
//! let config = NpuConfig::large_single_core();
//! let model = zoo::model(ModelId::Ncf, config.default_batch());
//! let base = simulate_model(&model, &config, Technique::Baseline);
//! let ours = simulate_model(&model, &config, Technique::DataPartitioning);
//! assert!(ours.total_cycles() <= base.total_cycles());
//! ```

pub mod audit;
pub mod bound;
pub mod exec;
pub mod generate;
pub mod observe;
pub mod parallel;
pub mod partition;
pub mod partition_select;
pub mod pipeline;
pub mod report_io;
pub mod schedule;
pub mod select;
pub mod simcache;
pub mod technique;
pub mod tiling;
pub mod tracks;

pub use audit::{
    audit_case, check_merge_schedule, check_report_conservation, run_audit, AuditCase,
    AuditSummary, Violation,
};
pub use bound::{
    backward_emission_bound, multicore_candidate_bound, plain_candidate_bound, replay_extent,
    sequential_candidate_bound,
};
pub use exec::{execute_backward, execute_partitioned, DenseLayer, ExecutedGradients};
pub use observe::{trace_model, CoreTrace, LayerTrace};
pub use parallel::{
    default_workers, parallel_map_workers, threads_override, MAX_WORKERS, THREADS_ENV,
};
pub use partition::PartitionScheme;
pub use pipeline::{
    rearranged_order, simulate_model, simulate_model_ladder, simulate_model_with, LayerDecision,
    LayerOutcome, ModelReport, SimContext, SimOptions, TrainingPhase,
};
pub use report_io::{
    ladder_csv, layers_csv, Artifact, LadderMismatch, TraceArtifacts, TraceExport,
    DEFAULT_REUSE_POINTS,
};
pub use schedule::{BackwardBuilder, BackwardOrder, LayerTensors};
pub use select::select_order;
pub use simcache::{
    sim_cache_len, sim_cache_stats, sim_profile_cache_len, CacheStats, ConfigFingerprint,
    DEFAULT_CACHE_CAP,
};
pub use technique::Technique;
pub use tiling::TilePolicy;
