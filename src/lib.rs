//! # igo — Interleaved Gradient Order
//!
//! A full reproduction of *"Improving Data Reuse in NPU On-chip Memory with
//! Interleaved Gradient Order for DNN Training"* (MICRO 2023): a cycle-level
//! NPU training simulator plus the paper's dataflow-transformation stack.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`tensor`] — shape algebra, im2col, tile grids, traversal orders.
//! * [`sim`] — the cycle-level NPU simulator substrate (systolic array,
//!   SPM, DRAM, double-buffered engine, multi-core).
//! * [`workloads`] — the Table-4 model zoo.
//! * [`core`] — the paper's contribution: interleaving, rearrangement
//!   (Algorithm 1), data partitioning with KNN selection, and the
//!   end-to-end training-step pipeline.
//! * [`knn`] — the K-nearest-neighbour classifier used by §5.
//! * [`gpu`] — the GPU analytical substrate for Figures 3 and 17.
//!
//! # Quickstart
//!
//! ```
//! use igo::prelude::*;
//!
//! let config = NpuConfig::large_single_core();
//! let model = zoo::model(ModelId::Resnet50, config.default_batch());
//! let baseline = simulate_model(&model, &config, Technique::Baseline);
//! let ours = simulate_model(&model, &config, Technique::DataPartitioning);
//! assert!(ours.total_cycles() < baseline.total_cycles());
//! ```

pub use igo_core as core;
pub use igo_gpu_sim as gpu;
pub use igo_knn as knn;
pub use igo_npu_sim as sim;
pub use igo_tensor as tensor;
pub use igo_workloads as workloads;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use igo_core::{
        simulate_model, ModelReport, SimContext, SimOptions, Technique, TrainingPhase,
    };
    pub use igo_npu_sim::{NpuConfig, SimReport};
    pub use igo_tensor::{ConvShape, DataType, GemmShape, TensorClass};
    pub use igo_workloads::{zoo, Layer, Model, ModelId};
}
