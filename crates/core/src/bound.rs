//! Closed-form admissible lower bounds for backward-pass candidates.
//!
//! The schedule builders in [`crate::schedule`] emit, for every order
//! family, the *same multiset* of tile operations — only the traversal
//! order differs (plus the baseline's mid-stream barrier and the
//! ideal-reuse study's elided `dY` reads). That makes most report fields
//! computable in closed form from the tile grids alone, without emitting a
//! single op:
//!
//! * **compute cycles, MACs, op/access counts, SPM bytes touched** are
//!   order-independent and *exact* — the systolic tile-cycle formula is a
//!   product of per-axis factors, so the triple sum over the tile grid
//!   factorises ([`igo_npu_sim::compute_sum`]);
//! * **DRAM traffic** is bounded below by the *compulsory* traffic of each
//!   barrier-delimited region: every distinct tile whose first touch in a
//!   region is a clean read must be fetched at least once (the SPM is
//!   cleared at barriers), and every accumulator tile is written back at
//!   least once. Accumulator first touches materialise in SPM without a
//!   fetch, so they contribute misses but no read traffic;
//! * the fused sweeps additionally pay **partial-result spills** whenever a
//!   sweep window's working set exceeds the SPM: for any contiguous window
//!   of the access stream, at most `capacity` bytes can be resident when it
//!   starts, so `(distinct window bytes − capacity)` must be fetched during
//!   the window — summed over the disjoint `(K-chunk, sweep-block, j)`
//!   windows of the dXmajor nest (and the dWmajor mirror). Only tiles that
//!   can materialise for free (accumulators on their first region touch)
//!   are excluded.
//!
//! Every bound here is *admissible* with respect to [`Engine::run`] — the
//! audit fuzzes this field by field — which is what makes it safe for
//! candidate pruning: a candidate whose bound exceeds the incumbent's
//! simulated cycles can be discarded without emission or replay.

use crate::partition::{plan_partition_backward, PartitionScheme};
use crate::pipeline::SINGLE_CORE_PART_CANDIDATES;
use crate::schedule::{BackwardBuilder, BackwardOrder, LayerTensors};
use crate::tiling::TilePolicy;
use igo_npu_sim::{
    compute_sum, grid_sum, reduction_cycles, Axis, BoundAccum, Engine, GridSum, NpuConfig, TensorId,
};
use igo_tensor::{GemmShape, TensorClass, TileGrid};

/// Closed-form per-grid quantities of one layer (or one partition).
struct Grids {
    /// `dY` grid sums (no density).
    dy: GridSum,
    /// `W`/`dW` grid sums (no density).
    w: GridSum,
    /// `X`/`dX` grid sums at the raw-layout density.
    x: GridSum,
    mt: u64,
    kt: u64,
    nt: u64,
    /// Exact compute cycles of the full dX op family.
    dx_compute: u64,
    /// Exact compute cycles of the full dW op family.
    dw_compute: u64,
}

fn row_axis(grid: &TileGrid) -> Axis {
    let count = grid.rows();
    Axis {
        count: count as u64,
        full: grid.tile_dims(igo_tensor::TileCoord::new(0, 0)).rows,
        last: grid
            .tile_dims(igo_tensor::TileCoord::new(count - 1, 0))
            .rows,
    }
}

fn col_axis(grid: &TileGrid) -> Axis {
    let count = grid.cols();
    Axis {
        count: count as u64,
        full: grid.tile_dims(igo_tensor::TileCoord::new(0, 0)).cols,
        last: grid
            .tile_dims(igo_tensor::TileCoord::new(0, count - 1))
            .cols,
    }
}

fn grids(b: &BackwardBuilder, engine: &Engine) -> Grids {
    let dtype = b.policy().dtype;
    let (dy_g, x_g, w_g) = (b.dy_grid(), b.x_grid(), b.w_grid());
    Grids {
        dy: grid_sum(dy_g, dtype, None),
        w: grid_sum(w_g, dtype, None),
        x: grid_sum(x_g, dtype, Some(b.density())),
        mt: dy_g.rows() as u64,
        kt: x_g.cols() as u64,
        nt: dy_g.cols() as u64,
        // dX[i,kk] += dY[i,j]·Wᵀ[j,kk]: per-op shape (dy_rows_i, dy_cols_j,
        // dx_cols_kk), summed over the full (i, j, kk) grid.
        dx_compute: compute_sum(engine, row_axis(dy_g), col_axis(dy_g), col_axis(x_g)),
        // dW[kk,j] += Xᵀ[kk,i]·dY[i,j]: per-op shape (dw_rows_kk,
        // dy_rows_i, dw_cols_j).
        dw_compute: compute_sum(engine, row_axis(w_g), row_axis(dy_g), col_axis(w_g)),
    }
}

/// One barrier-delimited region's compulsory terms, accumulated into `acc`.
/// `reads` lists the distinct clean-read grids first touched here, `accs`
/// the accumulator grids (touched dirty: misses and write-backs, no reads).
fn region(acc: &mut BoundAccum, reads: &[(TensorClass, GridSum)], accs: &[(TensorClass, GridSum)]) {
    for (class, g) in reads {
        acc.traffic.add_read(*class, g.bytes);
        acc.mem_bytes += g.bytes;
        acc.bursts += g.tiles;
        acc.misses += g.tiles;
    }
    for (class, g) in accs {
        acc.traffic.add_write(*class, g.bytes);
        acc.mem_bytes += g.bytes;
        acc.misses += g.tiles;
    }
}

/// Admissible lower bound for one unpartitioned backward emission
/// (`builder.emit(order, is_first, …)`), against `engine`'s machine model.
pub fn backward_emission_bound(
    builder: &BackwardBuilder,
    order: BackwardOrder,
    is_first: bool,
    engine: &Engine,
) -> BoundAccum {
    let mut acc = BoundAccum::default();
    accumulate_backward(&mut acc, builder, order, is_first, engine, true);
    acc
}

/// Accumulate one backward emission's bound terms into `acc`.
///
/// `cold_regions` must be true when every region of this emission starts
/// with a cleared SPM (single emission, or any emission in a sequential
/// chain — the chain merges the trailing region with the next segment's
/// leading one, so per-segment compulsory terms would over-count the
/// *shared* tensor; callers handle that by deduplicating shared grids, see
/// [`sequential_candidate_bound`]). When false, only the order-independent
/// exact terms (compute, ops, MACs, SPM bytes) are accumulated.
fn accumulate_backward(
    acc: &mut BoundAccum,
    b: &BackwardBuilder,
    order: BackwardOrder,
    is_first: bool,
    engine: &Engine,
    cold_regions: bool,
) {
    let g = grids(b, engine);
    let gemm = b.gemm();
    let dy = (TensorClass::OutGrad, g.dy);
    let w = (TensorClass::Weight, g.w);
    let x = (TensorClass::Ifmap, g.x);
    let dx = (TensorClass::InGrad, g.x);
    let dw = (TensorClass::WGrad, g.w);
    let ops = g.mt * g.kt * g.nt;

    if is_first {
        // First layer: the dW pass only, elision never applied.
        acc.compute_cycles += g.dw_compute;
        acc.gemm_ops += ops;
        acc.macs += gemm.macs();
        acc.accesses += 3 * ops;
        acc.spm_bytes_touched += g.nt * g.x.bytes + g.kt * g.dy.bytes + g.mt * g.w.bytes;
        if cold_regions {
            region(acc, &[x, dy], &[dw]);
        }
        return;
    }

    let elide = order == BackwardOrder::IdealDyReuse;
    acc.compute_cycles += g.dx_compute + g.dw_compute;
    acc.gemm_ops += 2 * ops;
    acc.macs += gemm.backward_macs();
    acc.accesses += 3 * ops + if elide { 2 } else { 3 } * ops;
    // Every order emits the same op multiset: the dX family touches
    // kt·ΣdY + mt·ΣW + nt·ΣdX bytes, the dW family nt·ΣX (+ kt·ΣdY unless
    // elided) + mt·ΣdW.
    acc.spm_bytes_touched += g.kt * g.dy.bytes + g.mt * g.w.bytes + g.nt * g.x.bytes;
    acc.spm_bytes_touched += g.nt * g.x.bytes + g.mt * g.w.bytes;
    if !elide {
        acc.spm_bytes_touched += g.kt * g.dy.bytes;
    }
    if !cold_regions {
        return;
    }

    match order {
        BackwardOrder::Baseline => {
            region(acc, &[dy, w], &[dx]);
            region(acc, &[x, dy], &[dw]);
        }
        BackwardOrder::IdealDyReuse => {
            region(acc, &[dy, w], &[dx]);
            region(acc, &[x], &[dw]);
        }
        BackwardOrder::Interleaved => {
            region(acc, &[dy, w, x], &[dx, dw]);
        }
        BackwardOrder::DxMajor => {
            region(acc, &[dy, w, x], &[dx, dw]);
            acc.mem_bytes = acc
                .mem_bytes
                .max(fused_window_bytes(b, true, engine) + g.x.bytes + g.w.bytes);
        }
        BackwardOrder::DwMajor => {
            region(acc, &[dy, w, x], &[dx, dw]);
            acc.mem_bytes = acc
                .mem_bytes
                .max(fused_window_bytes(b, false, engine) + g.x.bytes + g.w.bytes);
        }
    }
}

/// The capacity-window fetch floor of one fused sweep: over the disjoint
/// `(K-chunk, sweep-block, sweep-position)` windows of the nest, bytes
/// touched beyond the SPM capacity must be fetched within the window.
/// Accumulator tiles first touched inside a window are excluded (they
/// materialise without a fetch). Returns total fetched bytes; write-backs
/// are accounted separately by the caller.
fn fused_window_bytes(b: &BackwardBuilder, dx_major: bool, engine: &Engine) -> u64 {
    let cap = engine.residency_bytes();
    let dtype = b.policy().dtype;
    let (mt, kt, nt) = (
        b.dy_grid().rows() as u64,
        b.x_grid().cols() as u64,
        b.dy_grid().cols() as u64,
    );
    let (kb, bs) = b.fused_blocks(dx_major);
    let (sweep, minor) = if dx_major { (mt, nt) } else { (nt, mt) };

    // Per-tile bytes by (edge_row, edge_col) corner.
    let tb = |grid: &TileGrid, er: bool, ec: bool, density: bool| -> u64 {
        let coord = igo_tensor::TileCoord::new(
            if er { grid.rows() - 1 } else { 0 },
            if ec { grid.cols() - 1 } else { 0 },
        );
        let raw = grid.tile_bytes(coord, dtype);
        if density {
            ((raw as f64 * b.density()).ceil() as u64).max(4)
        } else {
            raw
        }
    };
    // Bytes of a sub-rectangle of `grid` spanning `rf` full + `re` edge
    // rows and `cf` full + `ce` edge columns.
    let rect = |grid: &TileGrid, density: bool, rf: u64, re: u64, cf: u64, ce: u64| -> u64 {
        rf * cf * tb(grid, false, false, density)
            + rf * ce * tb(grid, false, true, density)
            + re * cf * tb(grid, true, false, density)
            + re * ce * tb(grid, true, true, density)
    };
    // Split a 1-D tile range `[lo, hi)` of an axis with `count` tiles into
    // (full, edge) tile counts — only the axis-last tile is clipped.
    let split = |lo: u64, hi: u64, count: u64| -> (u64, u64) {
        let edge = u64::from(hi == count);
        (hi - lo - edge, edge)
    };

    let mut total = 0u64;
    let mut k0 = 0;
    while k0 < kt {
        let k_end = (k0 + kb).min(kt);
        let (kf, ke) = split(k0, k_end, kt);
        let mut s0 = 0;
        let mut first_block = true;
        while s0 < sweep {
            let s_end = (s0 + bs).min(sweep);
            let (sf, se) = split(s0, s_end, sweep);
            // The minor-axis positions fall in three classes: the first
            // (the block's per-position accumulators materialise free
            // there), the interior fulls (which all share one working-set
            // value), and the clipped last. `pf`/`pe` say whether the
            // position's minor-axis tile is full or the grid edge.
            let classes = [
                // first position
                (1u64, u64::from(minor > 1), u64::from(minor == 1), true),
                // interior full positions
                (minor.saturating_sub(2), 1, 0, false),
                // last position (when distinct from the first)
                (u64::from(minor > 1), 0, 1, false),
            ];
            for (positions, pf, pe, is_first_pos) in classes {
                if positions == 0 {
                    continue;
                }
                let mut bytes = if dx_major {
                    // Window (chunk, i-block, j): dY[i∈B, j] + W[kk∈c, j]
                    // + X[i∈B, kk∈c] + dX[i∈B, kk∈c] (absent at j == 0)
                    // + dW[kk∈c, j] (absent in the chunk's first block).
                    rect(b.dy_grid(), false, sf, se, pf, pe)
                        + rect(b.w_grid(), false, kf, ke, pf, pe)
                        + rect(b.x_grid(), true, sf, se, kf, ke)
                } else {
                    // Window (chunk, j-block, i): dY[i, j∈B] + X[i, kk∈c]
                    // + W[kk∈c, j∈B] + dW[kk∈c, j∈B] (absent at i == 0)
                    // + dX[i, kk∈c] (absent in the chunk's first block).
                    rect(b.dy_grid(), false, pf, pe, sf, se)
                        + rect(b.x_grid(), true, pf, pe, kf, ke)
                        + rect(b.w_grid(), false, kf, ke, sf, se)
                };
                if !is_first_pos {
                    // The block's per-position accumulator re-enters the
                    // working set after its first touch.
                    bytes += if dx_major {
                        rect(b.x_grid(), true, sf, se, kf, ke)
                    } else {
                        rect(b.w_grid(), false, kf, ke, sf, se)
                    };
                }
                if !first_block {
                    // The chunk-wide accumulator was first touched in the
                    // chunk's first sweep block.
                    bytes += if dx_major {
                        rect(b.w_grid(), false, kf, ke, pf, pe)
                    } else {
                        rect(b.x_grid(), true, pf, pe, kf, ke)
                    };
                }
                total += positions * bytes.saturating_sub(cap);
            }
            first_block = false;
            s0 = s_end;
        }
        k0 = k_end;
    }
    total
}

/// Admissible cycle bound for a plain (unpartitioned) backward candidate.
pub fn plain_candidate_bound(
    builder: &BackwardBuilder,
    order: BackwardOrder,
    is_first: bool,
    engine: &Engine,
) -> u64 {
    backward_emission_bound(builder, order, is_first, engine).cycles(engine)
}

/// Admissible cycle bound for a single-core sequential-partition candidate
/// (the partitions' streams concatenate with *no* barrier between
/// segments, so SPM residency — in particular the scheme's shared tensor —
/// crosses partition boundaries).
///
/// Region structure of the concatenated stream: partition boundaries merge
/// the previous segment's trailing region with the next segment's leading
/// one. For the orders that carry a barrier (the baseline and the ideal-
/// reuse study, on a layer with a `dX` pass) that structure is exact:
/// `[dX₁] [dW₁ dX₂] … [dWₚ]`, every region opening on a cleared SPM, so
/// the bound sums each region's compulsory terms — the shared tensor is
/// cold again after every barrier, and counted once in a merged region
/// whose two halves both read it. For the other orders a chain is one
/// region, and the bound keeps only the terms that survive any merging: the
/// exact order-independent totals, the compulsory traffic of each
/// partition's *private* (split) tensors — their ids are fresh per
/// partition, so their first touches are compulsory in any region
/// structure — and the shared tensor's grid counted exactly once (it may
/// stay resident across every boundary). The per-region latency floor is
/// dropped for the shared tensor accordingly.
#[allow(clippy::too_many_arguments)]
pub fn sequential_candidate_bound(
    config: &NpuConfig,
    engine: &Engine,
    tensors: LayerTensors,
    gemm: GemmShape,
    density: f64,
    policy: TilePolicy,
    scheme: PartitionScheme,
    parts: u64,
    order: BackwardOrder,
    is_first: bool,
) -> u64 {
    let mut next = 100_000u32; // fresh ids; never collide with layer ids
    let mut alloc = |_class: TensorClass, _name: String| {
        next += 1;
        TensorId::from_raw(next)
    };
    let plan = plan_partition_backward(
        &mut alloc,
        tensors,
        gemm,
        density,
        policy.dtype,
        scheme,
        parts,
        is_first,
    );

    let shared = match scheme {
        PartitionScheme::WeightSharing => TensorClass::Weight,
        PartitionScheme::DySharing => TensorClass::Ifmap,
        PartitionScheme::IfmapSharing => TensorClass::OutGrad,
    };
    let mut acc = BoundAccum::default();
    if !is_first && matches!(order, BackwardOrder::Baseline | BackwardOrder::IdealDyReuse) {
        let parts = plan.sub_gemms.len();
        for (p, (sub, t)) in plan.sub_gemms.iter().zip(&plan.part_tensors).enumerate() {
            let b = BackwardBuilder::new(*sub, policy, *t).with_ifmap_density(density);
            accumulate_backward(&mut acc, &b, order, is_first, engine, false);
            let g = grids(&b, engine);
            let dy = (TensorClass::OutGrad, g.dy);
            // This partition's dX kernel closes the region its predecessor's
            // dW kernel opened (or opens the chain); its dW kernel opens the
            // next region. The dW kernel's dY reads (none under the ideal-
            // reuse elision) are already counted in that region when the
            // next partition's dX kernel reads the same shared dY.
            region(
                &mut acc,
                &[dy, (TensorClass::Weight, g.w)],
                &[(TensorClass::InGrad, g.x)],
            );
            let mut dw_reads = vec![(TensorClass::Ifmap, g.x)];
            let dy_counted_next = shared == TensorClass::OutGrad && p + 1 < parts;
            if order == BackwardOrder::Baseline && !dy_counted_next {
                dw_reads.push(dy);
            }
            region(&mut acc, &dw_reads, &[(TensorClass::WGrad, g.w)]);
        }
        acc.serial_cycles += reduction_cycles(config, plan.reduction);
        return acc.cycles(engine);
    }
    for (sub, t) in plan.sub_gemms.iter().zip(&plan.part_tensors) {
        let b = BackwardBuilder::new(*sub, policy, *t).with_ifmap_density(density);
        // Exact order-independent totals for every partition…
        accumulate_backward(&mut acc, &b, order, is_first, engine, false);
        // …plus compulsory traffic of the split tensors only. The dX-family
        // accumulator (dX) and dW-family accumulator (dW) are always
        // private; reads of a shared tensor are handled once below.
        let g = grids(&b, engine);
        let dy = (TensorClass::OutGrad, g.dy);
        let w = (TensorClass::Weight, g.w);
        let x = (TensorClass::Ifmap, g.x);
        let dx = (TensorClass::InGrad, g.x);
        let dw = (TensorClass::WGrad, g.w);
        let mut reads: Vec<(TensorClass, GridSum)> = Vec::new();
        let mut accs: Vec<(TensorClass, GridSum)> = Vec::new();
        if is_first {
            reads.push(x);
            reads.push(dy);
            accs.push(dw);
        } else {
            reads.push(dy);
            reads.push(w);
            reads.push(x);
            accs.push(dx);
            accs.push(dw);
        }
        // Drop the shared tensor from this partition's compulsory set — it
        // may stay resident across partition boundaries. (The `dY` reads
        // survive IdealDyReuse elision via the dX family, so they stay
        // compulsory whenever `dY` is private.)
        reads.retain(|(class, _)| *class != shared);
        region(&mut acc, &reads, &accs);
    }

    // The shared tensor's parent grid is read at least once overall —
    // except weight-sharing on a first layer, whose dW-only backward never
    // touches `W` at all.
    let dtype = policy.dtype;
    let tile = policy.tile;
    let shared_sum = match scheme {
        PartitionScheme::WeightSharing if is_first => None,
        PartitionScheme::WeightSharing => Some((
            TensorClass::Weight,
            grid_sum(&gemm.dw_grid(tile), dtype, None),
        )),
        PartitionScheme::DySharing => Some((
            TensorClass::Ifmap,
            grid_sum(&gemm.dx_grid(tile), dtype, Some(density)),
        )),
        PartitionScheme::IfmapSharing => Some((
            TensorClass::OutGrad,
            grid_sum(&gemm.dy_grid(tile), dtype, None),
        )),
    };
    if let Some(shared_sum) = shared_sum {
        region(&mut acc, &[shared_sum], &[]);
    }

    acc.serial_cycles += reduction_cycles(config, plan.reduction);
    acc.cycles(engine)
}

/// Admissible cycle bound for a multi-core partitioned candidate: the
/// slowest core's emission bound plus the exact reduction term — mirroring
/// [`igo_npu_sim::replay_multicore_bounded`]'s `max(core cycles) +
/// reduction` makespan.
#[allow(clippy::too_many_arguments)]
pub fn multicore_candidate_bound(
    config: &NpuConfig,
    engine: &Engine,
    tensors: LayerTensors,
    gemm: GemmShape,
    density: f64,
    policy: TilePolicy,
    scheme: PartitionScheme,
    parts: u64,
    order: BackwardOrder,
    is_first: bool,
) -> u64 {
    let mut next = 100_000u32;
    let mut alloc = |_class: TensorClass, _name: String| {
        next += 1;
        TensorId::from_raw(next)
    };
    let plan = plan_partition_backward(
        &mut alloc,
        tensors,
        gemm,
        density,
        policy.dtype,
        scheme,
        parts,
        is_first,
    );
    let slowest = plan
        .sub_gemms
        .iter()
        .zip(&plan.part_tensors)
        .map(|(sub, t)| {
            let b = BackwardBuilder::new(*sub, policy, *t).with_ifmap_density(density);
            backward_emission_bound(&b, order, is_first, engine).cycles(engine)
        })
        .max()
        .unwrap_or(0);
    slowest + reduction_cycles(config, plan.reduction)
}

/// Closed-form upper bound on the tile accesses of one analytic collector
/// of `gemm` on `config`, over its forward pass and every backward
/// candidate the pipeline can build, without building any. It bounds the collector's tile registry too, so a
/// layer whose bound is below [`igo_npu_sim::REPLAY_ID_LIMIT`] can index
/// every tile id and stream position of every replay.
///
/// With `P` the largest partition count one collector may chain (the
/// largest single-core part count, or the core count), each tile axis is
/// padded by `P` (a split adds at most one ragged tile per partition), so
/// with padded counts `Mt`, `Kt`, `Nt` a collector holds at most `6` accesses
/// per tile triple: `6·Mt·Kt·Nt`.
///
/// Registry: each of at most `P` segments registers the six `X`/`W`/`Y` and
/// gradient grids of its sub-GEMM, none larger than the layer's (shared
/// ones once, and a weight-sharing `dW_part[p]` is a full `Kt×Nt` grid), so
/// at most `2·P·(Mt·Kt + Kt·Nt + Mt·Nt)` tiles. Every padded count is at
/// least `P`, so `6·Mt·Kt·Nt` is at least that: the access bound dominates
/// the registry.
pub fn replay_extent(gemm: GemmShape, config: &NpuConfig) -> u64 {
    let side = TilePolicy::for_config(config).tile.rows as u128;
    let parts = SINGLE_CORE_PART_CANDIDATES
        .into_iter()
        .fold(config.cores as u64, u64::max) as u128;
    let tiles = |dim: u64| (dim as u128).div_ceil(side) + parts;
    let (mt, kt, nt) = (tiles(gemm.m()), tiles(gemm.k()), tiles(gemm.n()));
    u64::try_from(6 * mt * kt * nt).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use igo_npu_sim::Schedule;

    fn setup(gemm: GemmShape, config: &NpuConfig) -> (Schedule, BackwardBuilder, Engine) {
        let mut s = Schedule::new("bound-test");
        let tensors = LayerTensors::register(&mut s, "l");
        let policy = TilePolicy::for_config(config);
        let b = BackwardBuilder::new(gemm, policy, tensors);
        (s, b, Engine::new(config))
    }

    const ORDERS: [BackwardOrder; 5] = [
        BackwardOrder::Baseline,
        BackwardOrder::IdealDyReuse,
        BackwardOrder::Interleaved,
        BackwardOrder::DxMajor,
        BackwardOrder::DwMajor,
    ];

    #[test]
    fn emission_bound_is_admissible_per_field() {
        for config in [NpuConfig::small_edge(), NpuConfig::large_single_core()] {
            for gemm in [
                GemmShape::new(512, 384, 640),
                GemmShape::new(129, 257, 383),
                GemmShape::new(2048, 64, 4096),
            ] {
                for order in ORDERS {
                    for is_first in [false, true] {
                        let (proto, b, engine) = setup(gemm, &config);
                        let mut s = proto.fork("emit");
                        b.emit(order, is_first, &mut s);
                        let report = engine.run(&s);
                        let bound = backward_emission_bound(&b, order, is_first, &engine);
                        let a = bound.finish(&engine);
                        let label = format!("{order:?} first={is_first} {gemm:?}");
                        assert_eq!(a.compute_cycles, report.compute_cycles, "{label}");
                        assert_eq!(a.gemm_ops, report.gemm_ops, "{label}");
                        assert_eq!(a.macs, report.macs, "{label}");
                        assert_eq!(a.spm_bytes_touched, report.spm_bytes_touched, "{label}");
                        assert!(a.cycles <= report.cycles, "{label}");
                        assert!(a.mem_cycles <= report.mem_cycles, "{label}");
                        assert!(a.spm_misses <= report.spm_misses, "{label}");
                        assert!(a.spm_hits >= report.spm_hits, "{label}");
                        for class in igo_tensor::TensorClass::ALL {
                            assert!(
                                a.traffic.read(class) <= report.traffic.read(class),
                                "{label} read {class:?}"
                            );
                            assert!(
                                a.traffic.write(class) <= report.traffic.write(class),
                                "{label} write {class:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_window_term_tightens_spill_heavy_cases() {
        // A shape whose fused sweep cannot hold its accumulators: the
        // window term must push the bound above the compulsory floor while
        // staying admissible.
        let config = NpuConfig::small_edge();
        let gemm = GemmShape::new(4096, 1024, 1024);
        let (proto, b, engine) = setup(gemm, &config);
        let mut s = proto.fork("dxm");
        b.emit(BackwardOrder::DxMajor, false, &mut s);
        let report = engine.run(&s);
        let with_window = backward_emission_bound(&b, BackwardOrder::DxMajor, false, &engine);
        let compulsory = backward_emission_bound(&b, BackwardOrder::Interleaved, false, &engine);
        assert!(with_window.cycles(&engine) <= report.cycles);
        assert!(
            with_window.mem_bytes >= compulsory.mem_bytes,
            "window floor must not be weaker than compulsory"
        );
    }
}
