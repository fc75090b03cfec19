//! Backward- and forward-pass schedule builders.
//!
//! For a layer whose forward pass is `X(M,K) × W(K,N) → Y(M,N)`, the
//! backward pass computes (paper Eq. 1/2):
//!
//! ```text
//!   dX(M,K) = dY(M,N) × Wᵀ(N,K)
//!   dW(K,N) = Xᵀ(K,M) × dY(M,N)
//! ```
//!
//! All matrices are decomposed into square tiles (grid conventions:
//! `dY[i,j]` with `i` over M-tiles and `j` over N-tiles; `X/dX[i,kk]` with
//! `kk` over K-tiles; `W/dW[kk,j]`). A tile operation
//! `dx_op(i,kk,j)` performs `dX[i,kk] += dY[i,j]·Wᵀ[j,kk]`, and
//! `dw_op(kk,j,i)` performs `dW[kk,j] += Xᵀ[kk,i]·dY[i,j]`.
//!
//! [`BackwardBuilder`] emits the paper's schedule families over these ops:
//!
//! * [`BackwardBuilder::baseline`] — the two gradient GEMMs run
//!   *sequentially*, each with its own capacity-blocked loop nest (the
//!   tiling-optimised baseline of §6.1). `dY` is traversed row-major by the
//!   `dX` nest and column-major by the `dW` nest, so every `dY` tile is
//!   fetched (at least) twice.
//! * [`BackwardBuilder::interleaved`] — §4.2: the two streams interleaved
//!   tile-by-tile, each keeping its traditional traversal (Figure 10 a).
//! * [`BackwardBuilder::fused_dx_major`] — §4.3, Figure 10 b: one row-major
//!   sweep of `dY`; for each `dY` tile, first its `dX` contributions, then
//!   its `dW` contributions. `dW` accumulator columns are revisited once
//!   per M-block and spill if `dW` does not fit — the "intermediate
//!   results" traffic of the paper.
//! * [`BackwardBuilder::fused_dw_major`] — Figure 10 c, the column-major
//!   mirror: `dX` accumulator rows become the spill risk.
//! * [`BackwardBuilder::dw_only`] — the first layer of a model, which needs
//!   no input gradient (§6.2: interleaving "cannot be applied in the first
//!   layer since there is no need to compute dX").
//! * [`BackwardBuilder::baseline_ideal_dy_reuse`] — the Figure 6 potential
//!   study: the baseline with the `dW` pass's `dY` reads elided, as if the
//!   tiles were "hypothetically available without any external memory
//!   access" (§3.3).
//!
//! [`forward_schedule`] emits the (technique-independent) forward pass.

use crate::tiling::{Blocking, TilePolicy};
use igo_npu_sim::{Schedule, ScheduleSink, TensorId, TileAccessSpec, TileOpSpec};
use igo_tensor::{DataType, GemmShape, MatrixDims, TensorClass, TileCoord, TileGrid};

/// Tensor ids of one layer within a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerTensors {
    /// Input feature map `X(M,K)`.
    pub x: TensorId,
    /// Weights `W(K,N)`.
    pub w: TensorId,
    /// Output feature map `Y(M,N)` (forward only).
    pub y: TensorId,
    /// Input gradient `dX(M,K)`.
    pub dx: TensorId,
    /// Weight gradient `dW(K,N)`.
    pub dw: TensorId,
    /// Output gradient `dY(M,N)` — the shared operand.
    pub dy: TensorId,
}

impl LayerTensors {
    /// Register the six tensors of a layer called `name` in `schedule`.
    pub fn register(schedule: &mut Schedule, name: &str) -> Self {
        Self {
            x: schedule.add_tensor(TensorClass::Ifmap, format!("{name}.X")),
            w: schedule.add_tensor(TensorClass::Weight, format!("{name}.W")),
            y: schedule.add_tensor(TensorClass::Ofmap, format!("{name}.Y")),
            dx: schedule.add_tensor(TensorClass::InGrad, format!("{name}.dX")),
            dw: schedule.add_tensor(TensorClass::WGrad, format!("{name}.dW")),
            dy: schedule.add_tensor(TensorClass::OutGrad, format!("{name}.dY")),
        }
    }
}

/// Precomputed clipped tile dims/bytes of one grid: only the last row and
/// last column clip, so every tile falls into one of four variants — the
/// emission hot loops reduce per-access geometry to two edge compares and
/// a table lookup.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GridCosts {
    /// `dims[r_is_last][c_is_last]`.
    pub(crate) dims: [[MatrixDims; 2]; 2],
    /// Matching byte footprints (after any density scaling).
    pub(crate) bytes: [[u64; 2]; 2],
    pub(crate) last_row: u32,
    pub(crate) last_col: u32,
}

impl GridCosts {
    /// Tables for `grid` at `dtype`, with each variant's DRAM bytes mapped
    /// through `cost` (identity for dense tensors, the raw-layout density
    /// scaling for `X`/`dX`).
    pub(crate) fn new(grid: &TileGrid, dtype: DataType, cost: impl Fn(u64) -> u64) -> Self {
        let rr = [0, grid.rows() - 1];
        let cc = [0, grid.cols() - 1];
        let mut dims = [[MatrixDims::new(1, 1); 2]; 2];
        let mut bytes = [[0u64; 2]; 2];
        for (a, &r) in rr.iter().enumerate() {
            for (b, &c) in cc.iter().enumerate() {
                let d = grid.tile_dims(TileCoord::new(r, c));
                dims[a][b] = d;
                bytes[a][b] = cost(d.bytes(dtype));
            }
        }
        Self {
            dims,
            bytes,
            last_row: grid.rows() - 1,
            last_col: grid.cols() - 1,
        }
    }

    /// Clipped dims and bytes of the tile at `coord`.
    #[inline]
    fn at(&self, coord: TileCoord) -> (MatrixDims, u64) {
        let r = (coord.r == self.last_row) as usize;
        let c = (coord.c == self.last_col) as usize;
        (self.dims[r][c], self.bytes[r][c])
    }
}

/// Emits backward-pass schedules for one layer.
#[derive(Debug, Clone)]
pub struct BackwardBuilder {
    gemm: GemmShape,
    policy: TilePolicy,
    dy_grid: TileGrid,
    x_grid: TileGrid,
    w_grid: TileGrid,
    tensors: LayerTensors,
    pub(crate) elide_dw_dy_reads: bool,
    ifmap_density: f64,
    pub(crate) dy_costs: GridCosts,
    pub(crate) x_costs: GridCosts,
    pub(crate) w_costs: GridCosts,
}

impl BackwardBuilder {
    /// Builder for a layer with forward shape `gemm`, tiled per `policy`,
    /// touching the tensors `tensors` (registered in the target schedule).
    pub fn new(gemm: GemmShape, policy: TilePolicy, tensors: LayerTensors) -> Self {
        let dy_grid = gemm.dy_grid(policy.tile);
        let x_grid = gemm.dx_grid(policy.tile);
        let w_grid = gemm.dw_grid(policy.tile);
        Self {
            gemm,
            policy,
            dy_costs: GridCosts::new(&dy_grid, policy.dtype, |b| b),
            x_costs: GridCosts::new(&x_grid, policy.dtype, |b| b),
            w_costs: GridCosts::new(&w_grid, policy.dtype, |b| b),
            dy_grid,
            x_grid,
            w_grid,
            tensors,
            elide_dw_dy_reads: false,
            ifmap_density: 1.0,
        }
    }

    /// Set the raw-layout density of `X`/`dX` DRAM traffic (see
    /// [`igo_tensor::ConvShape::ifmap_density`]): tiles of the im2col-ed
    /// input and of the col2im-ed input gradient cost
    /// `density x im2col bytes` of DRAM traffic, because the tensor stored
    /// off-chip is the raw feature map and the replication happens while
    /// staging tiles.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < density <= 1`.
    #[must_use]
    pub fn with_ifmap_density(mut self, density: f64) -> Self {
        assert!(density > 0.0 && density <= 1.0, "density must be in (0,1]");
        self.ifmap_density = density;
        self.x_costs = GridCosts::new(&self.x_grid, self.policy.dtype, |b| {
            ((b as f64 * density).ceil() as u64).max(4)
        });
        self
    }

    /// Elide the `dW` pass's `dY` reads (the Figure 6 potential study).
    #[must_use]
    pub fn with_elided_dw_dy_reads(mut self) -> Self {
        self.elide_dw_dy_reads = true;
        self
    }

    /// The forward GEMM shape.
    pub fn gemm(&self) -> GemmShape {
        self.gemm
    }

    /// The tile policy this builder plans against.
    pub fn policy(&self) -> TilePolicy {
        self.policy
    }

    /// The layer's tensor ids.
    pub fn tensors(&self) -> LayerTensors {
        self.tensors
    }

    /// The `X`/`dX` raw-layout density factor.
    pub fn density(&self) -> f64 {
        self.ifmap_density
    }

    /// Tile grid over `Y`/`dY`.
    pub fn dy_grid(&self) -> &TileGrid {
        &self.dy_grid
    }

    /// Tile grid over `X`/`dX`.
    pub fn x_grid(&self) -> &TileGrid {
        &self.x_grid
    }

    /// Tile grid over `W`/`dW`.
    pub fn w_grid(&self) -> &TileGrid {
        &self.w_grid
    }

    /// Register this layer's tile grids with an analytic collector: the
    /// dense tile-id registry needs each touched tensor's grid extent
    /// before emission starts. `Y` shares the `dY` grid; registering
    /// tensors the emission never touches is harmless.
    pub fn register_grids(&self, collector: &mut igo_npu_sim::analytic::AnalyticCollector) {
        let t = self.tensors;
        collector.register_tensor(t.dy, TensorClass::OutGrad, &self.dy_grid);
        collector.register_tensor(t.w, TensorClass::Weight, &self.w_grid);
        collector.register_tensor(t.x, TensorClass::Ifmap, &self.x_grid);
        collector.register_tensor(t.dx, TensorClass::InGrad, &self.x_grid);
        collector.register_tensor(t.dw, TensorClass::WGrad, &self.w_grid);
        collector.register_tensor(t.y, TensorClass::Ofmap, &self.dy_grid);
    }

    /// M-tile count.
    pub(crate) fn mt(&self) -> u64 {
        self.dy_grid.rows() as u64
    }

    /// N-tile count.
    pub(crate) fn nt(&self) -> u64 {
        self.dy_grid.cols() as u64
    }

    /// K-tile count.
    pub(crate) fn kt(&self) -> u64 {
        self.x_grid.cols() as u64
    }

    /// Total tile ops in a full backward pass (`2·Mt·Kt·Nt`).
    pub fn backward_ops(&self) -> u64 {
        2 * self.mt() * self.kt() * self.nt()
    }

    /// `dX[i,kk] += dY[i,j] · Wᵀ[j,kk]`.
    fn dx_op(&self, i: u64, kk: u64, j: u64) -> TileOpSpec {
        let (i, kk, j) = (i as u32, kk as u32, j as u32);
        let dy_c = TileCoord::new(i, j);
        let w_c = TileCoord::new(kk, j);
        let dx_c = TileCoord::new(i, kk);
        let (dy_d, dy_b) = self.dy_costs.at(dy_c);
        let (_, w_b) = self.w_costs.at(w_c);
        let (dx_d, dx_b) = self.x_costs.at(dx_c);
        TileOpSpec {
            reads: [
                Some(TileAccessSpec {
                    tensor: self.tensors.dy,
                    coord: dy_c,
                    bytes: dy_b,
                }),
                Some(TileAccessSpec {
                    tensor: self.tensors.w,
                    coord: w_c,
                    bytes: w_b,
                }),
            ],
            acc: Some(TileAccessSpec {
                tensor: self.tensors.dx,
                coord: dx_c,
                bytes: dx_b,
            }),
            compute: GemmShape::new(dy_d.rows, dy_d.cols, dx_d.cols),
        }
    }

    /// `dW[kk,j] += Xᵀ[kk,i] · dY[i,j]`.
    fn dw_op(&self, kk: u64, j: u64, i: u64) -> TileOpSpec {
        let (i, kk, j) = (i as u32, kk as u32, j as u32);
        let dy_c = TileCoord::new(i, j);
        let x_c = TileCoord::new(i, kk);
        let dw_c = TileCoord::new(kk, j);
        let (dy_d, dy_b) = self.dy_costs.at(dy_c);
        let (_, x_b) = self.x_costs.at(x_c);
        let (dw_d, dw_b) = self.w_costs.at(dw_c);
        let dy_read = if self.elide_dw_dy_reads {
            None
        } else {
            Some(TileAccessSpec {
                tensor: self.tensors.dy,
                coord: dy_c,
                bytes: dy_b,
            })
        };
        TileOpSpec {
            reads: [
                Some(TileAccessSpec {
                    tensor: self.tensors.x,
                    coord: x_c,
                    bytes: x_b,
                }),
                dy_read,
            ],
            acc: Some(TileAccessSpec {
                tensor: self.tensors.dw,
                coord: dw_c,
                bytes: dw_b,
            }),
            compute: GemmShape::new(dw_d.rows, dy_d.rows, dw_d.cols),
        }
    }

    /// The blocking of the `dX` nest (row-major `dY` traversal) for a
    /// residency budget of `capacity` tiles.
    pub(crate) fn dx_blocking(&self, capacity: u64) -> Blocking {
        Blocking::choose(self.mt(), self.kt(), self.nt(), capacity)
    }

    /// Emit one super-block of the blocked `dX` nest straight into the
    /// sink (ops are built on the stack — emission never materialises an
    /// op list). The block's accumulators retire at its boundary.
    fn dx_emit_block<S: ScheduleSink>(
        &self,
        i0: u64,
        k0: u64,
        blocking: &Blocking,
        schedule: &mut S,
    ) {
        let (mt, kt, nt) = (self.mt(), self.kt(), self.nt());
        for j in 0..nt {
            for i in i0..(i0 + blocking.b_rows).min(mt) {
                for kk in k0..(k0 + blocking.b_cols).min(kt) {
                    schedule.gemm(&self.dx_op(i, kk, j));
                }
            }
        }
    }

    /// The blocking of the `dW` nest (column-major `dY` traversal).
    pub(crate) fn dw_blocking(&self, capacity: u64) -> Blocking {
        Blocking::choose(self.kt(), self.nt(), self.mt(), capacity)
    }

    /// Emit one super-block of the blocked `dW` nest straight into the
    /// sink.
    fn dw_emit_block<S: ScheduleSink>(
        &self,
        k0: u64,
        j0: u64,
        blocking: &Blocking,
        schedule: &mut S,
    ) {
        let (mt, kt, nt) = (self.mt(), self.kt(), self.nt());
        for i in 0..mt {
            for kk in k0..(k0 + blocking.b_rows).min(kt) {
                for j in j0..(j0 + blocking.b_cols).min(nt) {
                    schedule.gemm(&self.dw_op(kk, j, i));
                }
            }
        }
    }

    /// Baseline (§6.1): the `dX` kernel fully, a kernel boundary, then the
    /// `dW` kernel — two sequentially launched operations, XLA-style, each
    /// planning its blocking for the whole residency. The barrier is what
    /// makes the baseline fetch `dY` twice: data staged by the first
    /// kernel is gone when the second starts.
    pub fn baseline<S: ScheduleSink>(&self, schedule: &mut S) {
        let cap = self.policy.capacity_tiles;
        let bx = self.dx_blocking(cap);
        for (i0, k0) in bx.blocks(self.mt(), self.kt()) {
            self.dx_emit_block(i0, k0, &bx, schedule);
        }
        schedule.barrier();
        let bw = self.dw_blocking(cap);
        for (k0, j0) in bw.blocks(self.kt(), self.nt()) {
            self.dw_emit_block(k0, j0, &bw, schedule);
        }
    }

    /// The Figure 6 potential study: baseline order, `dW`'s `dY` reads
    /// elided.
    pub fn baseline_ideal_dy_reuse<S: ScheduleSink>(&self, schedule: &mut S) {
        let ideal = self.clone().with_elided_dw_dy_reads();
        ideal.baseline(schedule);
    }

    /// Interleaving only (§4.2, Figure 10 a): the two traditional streams
    /// fused into one kernel and interleaved chunk-by-chunk, each keeping
    /// its own traversal order.
    ///
    /// Interleaving happens at the granularity the double-buffered SPM
    /// supports — one blocked super-step of tile operations at a time —
    /// so the two streams' instantaneous working sets barely overlap and
    /// each keeps its full blocking efficiency. The benefit over the
    /// baseline is precisely the removed kernel barrier: `dY` tiles staged
    /// by the `dX` stream are still in SPM when the `dW` stream arrives,
    /// whenever capacity allows — limited, as the paper observes, because
    /// "the required dY tiles differ between computing dX and dW".
    pub fn interleaved<S: ScheduleSink>(&self, schedule: &mut S) {
        let cap = self.policy.capacity_tiles;
        // One super-step = one complete super-block of each stream's nest:
        // the working set retires exactly at block boundaries, so the two
        // streams barely interfere.
        let bx = self.dx_blocking(cap);
        let bw = self.dw_blocking(cap);
        let mut dx = bx.blocks(self.mt(), self.kt());
        let mut dw = bw.blocks(self.kt(), self.nt());
        loop {
            let mut emitted = false;
            if let Some((i0, k0)) = dx.next() {
                self.dx_emit_block(i0, k0, &bx, schedule);
                emitted = true;
            }
            if let Some((k0, j0)) = dw.next() {
                self.dw_emit_block(k0, j0, &bw, schedule);
                emitted = true;
            }
            if !emitted {
                break;
            }
        }
    }

    /// Block factors for the fused sweeps: a K-chunk of `kb` tiles and a
    /// sweep block of `b` dY tile-rows (dXmajor) or tile-columns
    /// (dWmajor). The instantaneous working set is
    /// `2·b·kb` (per-row dX + X slices) plus `2·kb` (W + dW column
    /// slices) plus the current dY tile; when the whole K extent does not
    /// fit, K is chunked and `dY` is re-swept once per chunk — the
    /// reduced-but-real reuse the paper's "added memory traffic" caveat
    /// describes.
    ///
    /// The pair is chosen by an analytic traffic model — exactly the kind
    /// of cost model the compiler pass hosting this transformation would
    /// evaluate: shrinking `kb` buys a wider sweep block (fewer re-reads of
    /// the non-dY operand and fewer partial-sum spills) at the price of
    /// more `dY` sweeps, which is free whenever `dY` itself is resident.
    pub(crate) fn fused_blocks(&self, dx_major: bool) -> (u64, u64) {
        let (mt, kt, nt) = (self.mt(), self.kt(), self.nt());
        let cap = self.policy.capacity_tiles;
        let dy_tiles = mt * nt;
        let x_tiles = mt * kt;
        let w_tiles = kt * nt;
        let sweep = if dx_major { mt } else { nt };
        // dXmajor holds dW columns hot per sweep block and re-reads W per
        // block; dWmajor is the mirror.
        let (stationary_tiles, spill_tiles) = if dx_major {
            (w_tiles, w_tiles) // re-read W per block; spill dW (same shape)
        } else {
            (x_tiles, x_tiles) // re-read X per block; spill dX (same shape)
        };

        let kb_max = (cap.saturating_sub(1) / 4).max(1).min(kt);
        let mut best = (1u64, 1u64);
        let mut best_cost = u128::MAX;
        for kb in 1..=kb_max {
            let b = (cap.saturating_sub(2 * kb + 1) / (2 * kb))
                .max(1)
                .min(sweep);
            let chunks = kt.div_ceil(kb);
            let blocks = sweep.div_ceil(b);
            let dy_reads = if dy_tiles + 4 * kb <= cap { 1 } else { chunks };
            let stationary_reads = if stationary_tiles <= cap / 2 {
                1
            } else {
                blocks
            };
            let spill = if spill_tiles <= cap / 2 {
                0
            } else {
                2 * (blocks - 1) as u128 * spill_tiles as u128
            };
            let cost = dy_reads as u128 * dy_tiles as u128
                + stationary_reads as u128 * stationary_tiles as u128
                + spill;
            if cost < best_cost || (cost == best_cost && kb > best.0) {
                best_cost = cost;
                best = (kb, b);
            }
        }
        best
    }

    /// Interleaving + dXmajor (§4.3, Figure 10 b): a row-major sweep of
    /// `dY`; both gradients consume each tile back-to-back.
    pub fn fused_dx_major<S: ScheduleSink>(&self, schedule: &mut S) {
        let (mt, kt, nt) = (self.mt(), self.kt(), self.nt());
        let (kb, bi) = self.fused_blocks(true);
        let mut k0 = 0;
        while k0 < kt {
            let k_end = (k0 + kb).min(kt);
            let mut i0 = 0;
            while i0 < mt {
                let i_end = (i0 + bi).min(mt);
                for j in 0..nt {
                    for i in i0..i_end {
                        for kk in k0..k_end {
                            schedule.gemm(&self.dx_op(i, kk, j));
                        }
                        for kk in k0..k_end {
                            schedule.gemm(&self.dw_op(kk, j, i));
                        }
                    }
                }
                i0 = i_end;
            }
            k0 = k_end;
        }
    }

    /// Interleaving + dWmajor (§4.3, Figure 10 c): a column-major sweep
    /// of `dY`.
    pub fn fused_dw_major<S: ScheduleSink>(&self, schedule: &mut S) {
        let (mt, kt, nt) = (self.mt(), self.kt(), self.nt());
        let (kb, bj) = self.fused_blocks(false);
        let mut k0 = 0;
        while k0 < kt {
            let k_end = (k0 + kb).min(kt);
            let mut j0 = 0;
            while j0 < nt {
                let j_end = (j0 + bj).min(nt);
                for i in 0..mt {
                    for j in j0..j_end {
                        for kk in k0..k_end {
                            schedule.gemm(&self.dw_op(kk, j, i));
                        }
                        for kk in k0..k_end {
                            schedule.gemm(&self.dx_op(i, kk, j));
                        }
                    }
                }
                j0 = j_end;
            }
            k0 = k_end;
        }
    }

    /// First-layer backward: the `dW` pass only.
    pub fn dw_only<S: ScheduleSink>(&self, schedule: &mut S) {
        let bw = self.dw_blocking(self.policy.capacity_tiles);
        for (k0, j0) in bw.blocks(self.kt(), self.nt()) {
            self.dw_emit_block(k0, j0, &bw, schedule);
        }
    }
}

/// The concrete backward emission orders (the union of the baseline modes
/// and the three Figure-10 interleaved orders).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackwardOrder {
    /// Sequential dX then dW.
    Baseline,
    /// Sequential with elided second `dY` reads (Figure 6 study).
    IdealDyReuse,
    /// Interleaved, traditional traversals (Figure 10 a).
    Interleaved,
    /// Fused row-major sweep (Figure 10 b).
    DxMajor,
    /// Fused column-major sweep (Figure 10 c).
    DwMajor,
}

impl From<igo_tensor::TraversalOrder> for BackwardOrder {
    fn from(order: igo_tensor::TraversalOrder) -> Self {
        match order {
            igo_tensor::TraversalOrder::Traditional => BackwardOrder::Interleaved,
            igo_tensor::TraversalOrder::DxMajor => BackwardOrder::DxMajor,
            igo_tensor::TraversalOrder::DwMajor => BackwardOrder::DwMajor,
        }
    }
}

impl BackwardBuilder {
    /// Emit the backward pass in the given order. A first layer always
    /// degenerates to the `dW`-only pass: with no `dX` to compute there is
    /// nothing to interleave.
    pub fn emit<S: ScheduleSink>(&self, order: BackwardOrder, is_first: bool, schedule: &mut S) {
        if is_first {
            self.dw_only(schedule);
            return;
        }
        match order {
            BackwardOrder::Baseline => self.baseline(schedule),
            BackwardOrder::IdealDyReuse => self.baseline_ideal_dy_reuse(schedule),
            BackwardOrder::Interleaved => self.interleaved(schedule),
            BackwardOrder::DxMajor => self.fused_dx_major(schedule),
            BackwardOrder::DwMajor => self.fused_dw_major(schedule),
        }
    }
}

/// Emit the forward pass `Y = X × W` with a capacity-blocked nest.
pub fn forward_schedule<S: ScheduleSink>(
    gemm: GemmShape,
    policy: TilePolicy,
    tensors: LayerTensors,
    ifmap_density: f64,
    schedule: &mut S,
) {
    assert!(
        ifmap_density > 0.0 && ifmap_density <= 1.0,
        "density must be in (0,1]"
    );
    let y_grid = gemm.dy_grid(policy.tile);
    let x_grid = gemm.dx_grid(policy.tile);
    let w_grid = gemm.dw_grid(policy.tile);
    let (mt, nt, kt) = (
        y_grid.rows() as u64,
        y_grid.cols() as u64,
        x_grid.cols() as u64,
    );
    let blocking = Blocking::choose(mt, nt, kt, policy.capacity_tiles);
    let y_costs = GridCosts::new(&y_grid, policy.dtype, |b| b);
    let x_costs = GridCosts::new(&x_grid, policy.dtype, |b| {
        ((b as f64 * ifmap_density).ceil() as u64).max(4)
    });
    let w_costs = GridCosts::new(&w_grid, policy.dtype, |b| b);
    for (i0, j0) in blocking.blocks(mt, nt) {
        for kk in 0..kt {
            for i in i0..(i0 + blocking.b_rows).min(mt) {
                for j in j0..(j0 + blocking.b_cols).min(nt) {
                    let (iu, ju, ku) = (i as u32, j as u32, kk as u32);
                    let y_c = TileCoord::new(iu, ju);
                    let x_c = TileCoord::new(iu, ku);
                    let w_c = TileCoord::new(ku, ju);
                    let (y_d, y_b) = y_costs.at(y_c);
                    let (x_d, x_b) = x_costs.at(x_c);
                    let (_, w_b) = w_costs.at(w_c);
                    schedule.gemm(&TileOpSpec {
                        reads: [
                            Some(TileAccessSpec {
                                tensor: tensors.x,
                                coord: x_c,
                                bytes: x_b,
                            }),
                            Some(TileAccessSpec {
                                tensor: tensors.w,
                                coord: w_c,
                                bytes: w_b,
                            }),
                        ],
                        acc: Some(TileAccessSpec {
                            tensor: tensors.y,
                            coord: y_c,
                            bytes: y_b,
                        }),
                        compute: GemmShape::new(y_d.rows, x_d.cols, y_d.cols),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igo_npu_sim::NpuConfig;

    fn setup(gemm: GemmShape) -> (Schedule, BackwardBuilder) {
        let mut s = Schedule::new("test");
        let tensors = LayerTensors::register(&mut s, "l1");
        let policy = TilePolicy::for_config(&NpuConfig::large_single_core());
        (s, BackwardBuilder::new(gemm, policy, tensors))
    }

    fn macs_of(s: &Schedule) -> u64 {
        s.total_macs()
    }

    #[test]
    fn all_backward_schedules_perform_identical_macs() {
        let gemm = GemmShape::new(500, 300, 700);
        let expected = gemm.backward_macs();
        let (proto, b) = setup(gemm);
        let mut variants: Vec<(&str, Schedule)> = Vec::new();
        for name in ["baseline", "interleaved", "dxmajor", "dwmajor"] {
            variants.push((name, proto.fork(name)));
        }
        b.baseline(&mut variants[0].1);
        b.interleaved(&mut variants[1].1);
        b.fused_dx_major(&mut variants[2].1);
        b.fused_dw_major(&mut variants[3].1);
        for (name, s) in &variants {
            assert_eq!(macs_of(s), expected, "{name} must not change the math");
        }
    }

    #[test]
    fn schedules_have_equal_op_counts() {
        let gemm = GemmShape::new(257, 129, 130);
        let (proto, b) = setup(gemm);
        let mut base = proto.fork("base");
        b.baseline(&mut base);
        let mut inter = proto.fork("inter");
        b.interleaved(&mut inter);
        let mut dxm = proto.fork("dxm");
        b.fused_dx_major(&mut dxm);
        // The baseline carries one extra op: the kernel barrier between
        // its two sequential GEMMs. Fused schedules have none.
        assert_eq!(base.len(), inter.len() + 1);
        assert_eq!(inter.len(), dxm.len());
        assert_eq!(inter.len() as u64, b.backward_ops());
    }

    #[test]
    fn interleaved_alternates_streams() {
        let gemm = GemmShape::new(4096, 1024, 1024);
        let (proto, b) = setup(gemm);
        let mut s = proto.fork("i");
        b.interleaved(&mut s);
        // The fused stream alternates super-blocks of the two gradient
        // computations: both accumulator classes appear, the stream
        // switches between them multiple times, and the very first dW op
        // arrives long before the baseline's midpoint barrier would.
        let classes: Vec<TensorClass> = s
            .ops()
            .iter()
            .map(|op| {
                let igo_npu_sim::ScheduleOp::Gemm(g) = op else {
                    panic!("no stream ops expected")
                };
                s.class_of(g.acc.expect("every op accumulates").key.tensor)
            })
            .collect();
        let switches = classes.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            switches >= 4,
            "expected block alternation, got {switches} switches"
        );
        let first_dw = classes
            .iter()
            .position(|&c| c == TensorClass::WGrad)
            .expect("dW ops present");
        assert!(
            first_dw < classes.len() / 4,
            "dW work must start early, got position {first_dw} of {}",
            classes.len()
        );
    }

    #[test]
    fn dx_major_consumes_each_dy_tile_contiguously() {
        let gemm = GemmShape::new(384, 256, 384);
        let (proto, b) = setup(gemm);
        let mut s = proto.fork("dxm");
        b.fused_dx_major(&mut s);
        // Collect the sequence of dY coords actually read; each distinct
        // coordinate must appear as one contiguous run (within one M-block
        // pass, which here covers all of M).
        let mut runs = Vec::new();
        let mut last = None;
        for op in s.ops() {
            let igo_npu_sim::ScheduleOp::Gemm(g) = op else {
                continue;
            };
            for r in &g.reads {
                if s.class_of(r.key.tensor) == TensorClass::OutGrad && last != Some(r.key.coord) {
                    runs.push(r.key.coord);
                    last = Some(r.key.coord);
                }
            }
        }
        let distinct: std::collections::HashSet<_> = runs.iter().collect();
        assert_eq!(
            runs.len(),
            distinct.len(),
            "each dY tile must be one contiguous run"
        );
    }

    #[test]
    fn ideal_reuse_elides_second_dy_read() {
        let gemm = GemmShape::new(256, 256, 256);
        let (proto, b) = setup(gemm);
        let mut base = proto.fork("b");
        b.baseline(&mut base);
        let mut ideal = proto.fork("i");
        b.baseline_ideal_dy_reuse(&mut ideal);
        assert!(ideal.named_read_bytes() < base.named_read_bytes());
        assert_eq!(macs_of(&ideal), macs_of(&base), "compute unchanged");
    }

    #[test]
    fn dw_only_skips_input_gradient() {
        let gemm = GemmShape::new(256, 128, 128);
        let (proto, b) = setup(gemm);
        let mut s = proto.fork("first");
        b.dw_only(&mut s);
        for op in s.ops() {
            let igo_npu_sim::ScheduleOp::Gemm(g) = op else {
                continue;
            };
            let acc = g.acc.unwrap().key.tensor;
            assert_eq!(s.class_of(acc), TensorClass::WGrad);
        }
        assert_eq!(macs_of(&s), gemm.macs());
    }

    #[test]
    fn forward_schedule_covers_output_once() {
        let gemm = GemmShape::new(300, 200, 100);
        let mut s = Schedule::new("fwd");
        let tensors = LayerTensors::register(&mut s, "l1");
        let policy = TilePolicy::for_config(&NpuConfig::large_single_core());
        forward_schedule(gemm, policy, tensors, 1.0, &mut s);
        assert_eq!(s.total_macs(), gemm.macs());
        // Every op accumulates into Y.
        let mut y_tiles = std::collections::HashSet::new();
        for op in s.ops() {
            let igo_npu_sim::ScheduleOp::Gemm(g) = op else {
                continue;
            };
            y_tiles.insert(g.acc.unwrap().key.coord);
        }
        let grid = gemm.dy_grid(policy.tile);
        assert_eq!(y_tiles.len() as u64, grid.num_tiles());
    }

    #[test]
    fn ragged_edges_preserve_mac_totals() {
        // Dimensions deliberately not multiples of the 128 tile.
        let gemm = GemmShape::new(129, 257, 383);
        let (proto, b) = setup(gemm);
        let mut s = proto.fork("ragged");
        b.baseline(&mut s);
        assert_eq!(macs_of(&s), gemm.backward_macs());
    }
}
