//! Data partitioning for the rearranged gradient order (paper §5).
//!
//! A layer's fused backward GEMM pair can be split along any of the three
//! GEMM dimensions; the split decides which tensor is shared by all
//! partitions and which gradient needs a cross-partition reduction
//! (Figure 11):
//!
//! | Scheme | Splits | Shared | Reduction |
//! |---|---|---|---|
//! | weight-sharing (a) | `M` (batch) | `W` | `dW` partials |
//! | dY-sharing (b) | `N` | `X` | `dX` partials |
//! | ifmap-sharing (c) | `K` | `dY` | none |
//!
//! Shared tensors keep the *parent* tensor id, so on a single core the
//! sequentially executed partitions genuinely re-hit the shared tiles in
//! SPM, while split tensors get fresh per-partition ids (their tiles are
//! different data). Reductions are modelled as a bandwidth-cost
//! [`StreamOp`]: read all `P` partial tensors, write the combined result.

use crate::pipeline::LayerDecision;
use crate::schedule::{BackwardBuilder, BackwardOrder, LayerTensors};
use crate::tiling::TilePolicy;
use igo_npu_sim::{NpuConfig, Schedule, StreamOp, TensorId};
use igo_tensor::{DataType, GemmDim, GemmShape, TensorClass};

/// The three partitioning schemes of Figure 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PartitionScheme {
    /// Split `M` (batch): conventional data parallelism; `W` shared, `dW`
    /// reduced.
    WeightSharing,
    /// Split `N`: `X` shared (duplicated per core), `dX` reduced.
    DySharing,
    /// Split `K`: `dY` shared (duplicated per core), no reduction.
    IfmapSharing,
}

impl PartitionScheme {
    /// All schemes, in Figure 11 order.
    pub const ALL: [PartitionScheme; 3] = [
        PartitionScheme::WeightSharing,
        PartitionScheme::DySharing,
        PartitionScheme::IfmapSharing,
    ];

    /// The GEMM dimension this scheme splits.
    pub fn split_dim(self) -> GemmDim {
        match self {
            PartitionScheme::WeightSharing => GemmDim::M,
            PartitionScheme::DySharing => GemmDim::N,
            PartitionScheme::IfmapSharing => GemmDim::K,
        }
    }

    /// Name of partition `p`'s stream under this scheme.
    pub fn part_name(self, p: usize) -> String {
        format!("{}[{p}]", self.label())
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            PartitionScheme::WeightSharing => "weight-sharing(M)",
            PartitionScheme::DySharing => "dY-sharing(N)",
            PartitionScheme::IfmapSharing => "ifmap-sharing(K)",
        }
    }
}

impl core::fmt::Display for PartitionScheme {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// A partitioned backward pass, ready to run sequentially (single core) or
/// one-per-core (multi-core).
#[derive(Debug, Clone)]
pub struct PartitionedBackward {
    /// One schedule per partition. All partitions share one complete
    /// tensor table (compatible forks), so they can also be chained
    /// sequentially with residency intact.
    pub schedules: Vec<Schedule>,
    /// Cross-partition reduction cost, if the scheme needs one.
    pub reduction: Option<StreamOp>,
    /// The scheme used.
    pub scheme: PartitionScheme,
    /// Tensor bindings of each partition (shared roles keep the parent
    /// ids). Used by the numerical executor to map partition tiles back
    /// onto the layer's data.
    pub part_tensors: Vec<LayerTensors>,
    /// The per-partition sub-GEMMs, in order.
    pub sub_gemms: Vec<igo_tensor::GemmShape>,
}

/// Build the partitioned backward pass of one layer.
///
/// `proto` must be a schedule holding the parent layer's tensors
/// (`tensors`); each partition schedule is a fork of it. `order` is the
/// per-partition emission order (partitioning composes with interleaving /
/// rearrangement — the paper's third step "relies on the results from the
/// first two").
///
/// # Panics
///
/// Panics if `parts == 0`.
#[allow(clippy::too_many_arguments)]
pub fn partition_backward(
    proto: &Schedule,
    tensors: LayerTensors,
    gemm: GemmShape,
    policy: TilePolicy,
    scheme: PartitionScheme,
    parts: u64,
    order: BackwardOrder,
    is_first: bool,
) -> PartitionedBackward {
    partition_backward_ex(
        proto, tensors, gemm, 1.0, policy, scheme, parts, order, is_first,
    )
}

/// [`partition_backward`] with an explicit ifmap density (raw-layout
/// `X`/`dX` traffic scaling for convolution layers).
#[allow(clippy::too_many_arguments)]
pub fn partition_backward_ex(
    proto: &Schedule,
    tensors: LayerTensors,
    gemm: GemmShape,
    ifmap_density: f64,
    policy: TilePolicy,
    scheme: PartitionScheme,
    parts: u64,
    order: BackwardOrder,
    is_first: bool,
) -> PartitionedBackward {
    // Phase 1: register every partition's split tensors in one master
    // fork, so all partition schedules share a single complete tensor
    // table (required for sequential chaining).
    let mut master = proto.fork(format!("{}-master", scheme.label()));
    let plan = plan_partition_backward(
        &mut |class, name| master.add_tensor(class, name),
        tensors,
        gemm,
        ifmap_density,
        policy.dtype,
        scheme,
        parts,
        is_first,
    );

    // Phase 2: emit each partition into its own fork of the master.
    let mut schedules = Vec::with_capacity(plan.sub_gemms.len());
    for (p, (sub, t)) in plan.sub_gemms.iter().zip(&plan.part_tensors).enumerate() {
        let mut s = master.fork(scheme.part_name(p));
        let builder = BackwardBuilder::new(*sub, policy, *t).with_ifmap_density(ifmap_density);
        builder.emit(order, is_first, &mut s);
        schedules.push(s);
    }

    PartitionedBackward {
        schedules,
        reduction: plan.reduction,
        scheme,
        part_tensors: plan.part_tensors,
        sub_gemms: plan.sub_gemms,
    }
}

/// A partitioned backward pass before any schedule is emitted: the
/// per-partition sub-GEMMs and tensor bindings plus the reduction cost.
/// This is all the selection loop needs — it emits each partition
/// through a [`BackwardBuilder`] into an analytic collector instead of a
/// [`Schedule`], skipping the tensor-table forks entirely.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    /// The per-partition sub-GEMMs, in order.
    pub sub_gemms: Vec<GemmShape>,
    /// Tensor bindings of each partition (shared roles keep parent ids).
    pub part_tensors: Vec<LayerTensors>,
    /// Cross-partition reduction cost, if the scheme needs one.
    pub reduction: Option<StreamOp>,
}

/// Split `gemm` under `scheme` and bind each partition's tensors, minting
/// fresh ids through `alloc`. Split tensors get fresh per-partition
/// identities; the shared tensor keeps the parent id (its grid is
/// untouched by the split, so parent coordinates remain valid).
///
/// # Panics
///
/// Panics if `parts == 0`.
#[allow(clippy::too_many_arguments)]
pub fn plan_partition_backward(
    alloc: &mut dyn FnMut(TensorClass, String) -> TensorId,
    tensors: LayerTensors,
    gemm: GemmShape,
    ifmap_density: f64,
    dtype: DataType,
    scheme: PartitionScheme,
    parts: u64,
    is_first: bool,
) -> PartitionPlan {
    assert!(parts > 0, "need at least one partition");
    let sub_gemms = gemm.split(scheme.split_dim(), parts);
    let actual_parts = sub_gemms.len() as u64;

    let part_tensors: Vec<LayerTensors> = (0..sub_gemms.len())
        .map(|p| match scheme {
            PartitionScheme::WeightSharing => LayerTensors {
                x: alloc(TensorClass::Ifmap, format!("X[{p}]")),
                w: tensors.w,
                y: alloc(TensorClass::Ofmap, format!("Y[{p}]")),
                dx: alloc(TensorClass::InGrad, format!("dX[{p}]")),
                dw: alloc(TensorClass::WGrad, format!("dW_part[{p}]")),
                dy: alloc(TensorClass::OutGrad, format!("dY[{p}]")),
            },
            PartitionScheme::DySharing => LayerTensors {
                x: tensors.x,
                w: alloc(TensorClass::Weight, format!("W[{p}]")),
                y: alloc(TensorClass::Ofmap, format!("Y[{p}]")),
                dx: alloc(TensorClass::InGrad, format!("dX_part[{p}]")),
                dw: alloc(TensorClass::WGrad, format!("dW[{p}]")),
                dy: alloc(TensorClass::OutGrad, format!("dY[{p}]")),
            },
            PartitionScheme::IfmapSharing => LayerTensors {
                x: alloc(TensorClass::Ifmap, format!("X[{p}]")),
                w: alloc(TensorClass::Weight, format!("W[{p}]")),
                y: alloc(TensorClass::Ofmap, format!("Y[{p}]")),
                dx: alloc(TensorClass::InGrad, format!("dX[{p}]")),
                dw: alloc(TensorClass::WGrad, format!("dW[{p}]")),
                dy: tensors.dy,
            },
        })
        .collect();

    // Reduction: read P partial tensors, write the combined one.
    let reduction = match scheme {
        PartitionScheme::WeightSharing => {
            let dw_bytes = gemm.dw_dims().bytes(dtype);
            Some(StreamOp {
                class: TensorClass::WGrad,
                read_bytes: actual_parts * dw_bytes,
                write_bytes: dw_bytes,
            })
        }
        // A first layer computes no dX, so dY-sharing needs no reduction
        // there.
        PartitionScheme::DySharing if !is_first => {
            let dx_bytes = ((gemm.dx_dims().bytes(dtype) as f64 * ifmap_density).ceil()) as u64;
            Some(StreamOp {
                class: TensorClass::InGrad,
                read_bytes: actual_parts * dx_bytes,
                write_bytes: dx_bytes,
            })
        }
        _ => None,
    };

    PartitionPlan {
        sub_gemms,
        part_tensors,
        reduction,
    }
}

/// A layer's backward decision rebuilt as materialised schedules, in the
/// execution shape the pipeline evaluates it in. Only the audit
/// ([`crate::audit`]) builds these: it costs each core's stream on its
/// own shadow and through [`igo_npu_sim::Engine::run`], and compares the
/// results with the pipeline's generator replays.
#[derive(Debug, Clone)]
pub enum DecidedBackward {
    /// One schedule on one core.
    Single(Schedule),
    /// Partition segments chained on one core as one concatenated stream
    /// (residency crosses segment boundaries), then a reduction.
    Sequential {
        /// The partition schedules, in order.
        segments: Vec<Schedule>,
        /// Cross-partition reduction cost, if the scheme needs one.
        reduction: Option<StreamOp>,
    },
    /// One schedule per core, then a reduction.
    Multicore {
        /// One schedule per core.
        per_core: Vec<Schedule>,
        /// Cross-partition reduction cost, if the scheme needs one.
        reduction: Option<StreamOp>,
    },
}

impl DecidedBackward {
    /// Rebuild the execution `decision` describes for a layer named `name`
    /// on `config`: one schedule on a single core, the conventional batch
    /// (weight-sharing) split across cores, or the decided partitioning —
    /// chained on a single core, one partition per core otherwise.
    pub fn rebuild(
        name: &str,
        gemm: GemmShape,
        density: f64,
        config: &NpuConfig,
        decision: LayerDecision,
        is_first: bool,
    ) -> Self {
        let policy = TilePolicy::for_config(config);
        let mut proto = Schedule::new(name);
        let tensors = LayerTensors::register(&mut proto, name);
        let (scheme, parts) = match decision.partition {
            None if config.cores == 1 => {
                let mut s = proto.fork(name);
                BackwardBuilder::new(gemm, policy, tensors)
                    .with_ifmap_density(density)
                    .emit(decision.order, is_first, &mut s);
                return Self::Single(s);
            }
            None => (PartitionScheme::WeightSharing, config.cores as u64),
            Some(partition) => partition,
        };
        let p = partition_backward_ex(
            &proto,
            tensors,
            gemm,
            density,
            policy,
            scheme,
            parts,
            decision.order,
            is_first,
        );
        if config.cores == 1 {
            Self::Sequential {
                segments: p.schedules,
                reduction: p.reduction,
            }
        } else {
            Self::Multicore {
                per_core: p.schedules,
                reduction: p.reduction,
            }
        }
    }

    /// The number of schedules (partitions or cores) the execution holds.
    pub fn parts(&self) -> usize {
        match self {
            Self::Single(_) => 1,
            Self::Sequential { segments, .. } => segments.len(),
            Self::Multicore { per_core, .. } => per_core.len(),
        }
    }

    /// The stream each core's engine executes: chained segments are
    /// concatenated into one schedule (each dropped once appended).
    pub fn into_core_streams(self) -> Vec<Schedule> {
        match self {
            Self::Single(s) => vec![s],
            Self::Sequential { segments, .. } => {
                let mut segments = segments.into_iter();
                let mut combined = segments.next().expect("a partition has segments");
                for s in segments {
                    combined.append_compatible(&s);
                }
                vec![combined]
            }
            Self::Multicore { per_core, .. } => per_core,
        }
    }
}

/// Plan a batch-split (M) forward pass: one sub-GEMM per partition, `W`
/// shared, no reduction, with fresh per-partition ids minted through
/// `alloc` (gradients untouched). This is how both the baseline and the
/// transformed multi-core runs execute the forward pass (the paper's
/// techniques only change the backward pass).
///
/// # Panics
///
/// Panics if `parts == 0`.
pub fn plan_partition_forward(
    alloc: &mut dyn FnMut(TensorClass, String) -> TensorId,
    tensors: LayerTensors,
    gemm: GemmShape,
    parts: u64,
) -> (Vec<GemmShape>, Vec<LayerTensors>) {
    assert!(parts > 0, "need at least one partition");
    let sub_gemms = gemm.split(GemmDim::M, parts);
    let part_tensors: Vec<LayerTensors> = (0..sub_gemms.len())
        .map(|p| LayerTensors {
            x: alloc(TensorClass::Ifmap, format!("X[{p}]")),
            w: tensors.w,
            y: alloc(TensorClass::Ofmap, format!("Y[{p}]")),
            dx: tensors.dx,
            dw: tensors.dw,
            dy: tensors.dy,
        })
        .collect();
    (sub_gemms, part_tensors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use igo_npu_sim::NpuConfig;

    fn setup(_gemm: GemmShape) -> (Schedule, LayerTensors, TilePolicy) {
        let mut proto = Schedule::new("proto");
        let tensors = LayerTensors::register(&mut proto, "l");
        let policy = TilePolicy::for_config(&NpuConfig::large_single_core());
        (proto, tensors, policy)
    }

    #[test]
    fn partitions_preserve_total_macs() {
        let gemm = GemmShape::new(512, 384, 640);
        let (proto, tensors, policy) = setup(gemm);
        for scheme in PartitionScheme::ALL {
            for parts in [2u64, 4] {
                let p = partition_backward(
                    &proto,
                    tensors,
                    gemm,
                    policy,
                    scheme,
                    parts,
                    BackwardOrder::Interleaved,
                    false,
                );
                let macs: u64 = p.schedules.iter().map(|s| s.total_macs()).sum();
                assert_eq!(macs, gemm.backward_macs(), "{scheme} x{parts}");
            }
        }
    }

    #[test]
    fn reduction_matches_scheme() {
        let gemm = GemmShape::new(256, 256, 256);
        let (proto, tensors, policy) = setup(gemm);
        let ws = partition_backward(
            &proto,
            tensors,
            gemm,
            policy,
            PartitionScheme::WeightSharing,
            2,
            BackwardOrder::Baseline,
            false,
        );
        let red = ws.reduction.unwrap();
        assert_eq!(red.class, TensorClass::WGrad);
        assert_eq!(red.read_bytes, 2 * 256 * 256 * 4);
        assert_eq!(red.write_bytes, 256 * 256 * 4);

        let dys = partition_backward(
            &proto,
            tensors,
            gemm,
            policy,
            PartitionScheme::DySharing,
            2,
            BackwardOrder::Baseline,
            false,
        );
        assert_eq!(dys.reduction.unwrap().class, TensorClass::InGrad);

        let ifm = partition_backward(
            &proto,
            tensors,
            gemm,
            policy,
            PartitionScheme::IfmapSharing,
            2,
            BackwardOrder::Baseline,
            false,
        );
        assert!(ifm.reduction.is_none(), "ifmap-sharing needs no reduction");
    }

    #[test]
    fn first_layer_dy_sharing_skips_reduction() {
        let gemm = GemmShape::new(256, 27, 64);
        let (proto, tensors, policy) = setup(gemm);
        let p = partition_backward(
            &proto,
            tensors,
            gemm,
            policy,
            PartitionScheme::DySharing,
            2,
            BackwardOrder::Interleaved,
            true,
        );
        assert!(p.reduction.is_none());
    }

    #[test]
    fn shared_tensor_keeps_parent_identity() {
        let gemm = GemmShape::new(512, 256, 512);
        let (proto, tensors, policy) = setup(gemm);
        // ifmap-sharing shares dY: every partition must read tiles of the
        // parent dY tensor.
        let p = partition_backward(
            &proto,
            tensors,
            gemm,
            policy,
            PartitionScheme::IfmapSharing,
            2,
            BackwardOrder::Interleaved,
            false,
        );
        for s in &p.schedules {
            let reads_parent_dy = s.ops().iter().any(|op| {
                let igo_npu_sim::ScheduleOp::Gemm(g) = op else {
                    return false;
                };
                g.reads.iter().any(|r| r.key.tensor == tensors.dy)
            });
            assert!(reads_parent_dy, "partition must read the shared dY");
        }
    }

    #[test]
    fn split_tensors_get_fresh_ids() {
        let gemm = GemmShape::new(512, 256, 512);
        let (proto, tensors, policy) = setup(gemm);
        // weight-sharing splits dY: no partition may touch the parent dY.
        let p = partition_backward(
            &proto,
            tensors,
            gemm,
            policy,
            PartitionScheme::WeightSharing,
            2,
            BackwardOrder::Interleaved,
            false,
        );
        for s in &p.schedules {
            let touches_parent_dy = s.ops().iter().any(|op| {
                let igo_npu_sim::ScheduleOp::Gemm(g) = op else {
                    return false;
                };
                g.reads.iter().any(|r| r.key.tensor == tensors.dy)
            });
            assert!(!touches_parent_dy, "split dY must use fresh ids");
        }
    }

    #[test]
    fn forward_partitions_cover_batch() {
        let gemm = GemmShape::new(1024, 256, 512);
        let (mut proto, tensors, _) = setup(gemm);
        let (subs, part_tensors) = plan_partition_forward(
            &mut |class, name| proto.add_tensor(class, name),
            tensors,
            gemm,
            4,
        );
        assert_eq!(subs.len(), 4);
        assert_eq!(part_tensors.len(), 4);
        let macs: u64 = subs.iter().map(|g| g.macs()).sum();
        assert_eq!(macs, gemm.macs());
        assert!(part_tensors.iter().all(|t| t.w == tensors.w), "W is shared");
    }

    #[test]
    fn single_partition_degenerates_gracefully() {
        let gemm = GemmShape::new(64, 64, 64);
        let (proto, tensors, policy) = setup(gemm);
        let p = partition_backward(
            &proto,
            tensors,
            gemm,
            policy,
            PartitionScheme::WeightSharing,
            1,
            BackwardOrder::Baseline,
            false,
        );
        assert_eq!(p.schedules.len(), 1);
    }
}
