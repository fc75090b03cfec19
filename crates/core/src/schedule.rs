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
//! `kk` over K-tiles; `W/dW[kk,j]`). A `dX` tile op performs
//! `dX[i,kk] += dY[i,j]·Wᵀ[j,kk]`, and a `dW` tile op performs
//! `dW[kk,j] += Xᵀ[kk,i]·dY[i,j]`.
//!
//! [`BackwardBuilder`] holds one layer's grids, `X` density and blocking
//! policy, and [`BackwardBuilder::emit`] emits the paper's schedule
//! families ([`BackwardOrder`]) over these ops into any [`ScheduleSink`];
//! [`forward_schedule`] emits the (technique-independent) forward pass.
//! The loop orders themselves are written once, in
//! [`crate::generate::StreamGen`], which also derives every access's next
//! use for the replay: both functions write its ops.

use crate::generate::StreamGen;
use crate::tiling::{Blocking, TilePolicy};
use igo_npu_sim::{Schedule, ScheduleSink, TensorId};
use igo_tensor::{GemmShape, TensorClass, TileGrid};

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

/// Emits backward-pass schedules for one layer.
#[derive(Debug, Clone)]
pub struct BackwardBuilder {
    gemm: GemmShape,
    policy: TilePolicy,
    dy_grid: TileGrid,
    x_grid: TileGrid,
    w_grid: TileGrid,
    tensors: LayerTensors,
    ifmap_density: f64,
}

impl BackwardBuilder {
    /// Builder for a layer with forward shape `gemm`, tiled per `policy`,
    /// touching the tensors `tensors` (registered in the target schedule).
    pub fn new(gemm: GemmShape, policy: TilePolicy, tensors: LayerTensors) -> Self {
        Self {
            gemm,
            policy,
            dy_grid: gemm.dy_grid(policy.tile),
            x_grid: gemm.dx_grid(policy.tile),
            w_grid: gemm.dw_grid(policy.tile),
            tensors,
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

    /// The blocking of the `dX` nest (row-major `dY` traversal) for a
    /// residency budget of `capacity` tiles.
    pub(crate) fn dx_blocking(&self, capacity: u64) -> Blocking {
        Blocking::choose(self.mt(), self.kt(), self.nt(), capacity)
    }

    /// The blocking of the `dW` nest (column-major `dY` traversal).
    pub(crate) fn dw_blocking(&self, capacity: u64) -> Blocking {
        Blocking::choose(self.kt(), self.nt(), self.mt(), capacity)
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
}

/// The concrete backward emission orders (the union of the baseline modes
/// and the three Figure-10 interleaved orders). A first layer runs every
/// order as the `dW` pass alone (§6.2: interleaving "cannot be applied in
/// the first layer since there is no need to compute dX").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackwardOrder {
    /// Sequential (§6.1): the blocked `dX` kernel fully, a kernel
    /// boundary, then the blocked `dW` kernel — two sequentially launched
    /// operations, XLA-style, each planning its blocking for the whole
    /// residency. `dY` is traversed row-major by the `dX` nest and
    /// column-major by the `dW` nest, and the barrier drops what the first
    /// kernel staged, so every `dY` tile is fetched (at least) twice.
    Baseline,
    /// The Figure 6 potential study: the baseline with the `dW` pass's `dY`
    /// reads elided, as if the tiles were "hypothetically available
    /// without any external memory access" (§3.3).
    IdealDyReuse,
    /// Interleaving only (§4.2, Figure 10 a): the two traditional nests
    /// fused into one kernel and interleaved one blocked super-step at a
    /// time, each keeping its own traversal. The working sets retire at
    /// block boundaries, so the streams barely interfere; the gain over the
    /// baseline is the removed barrier — `dY` tiles the `dX` stream staged
    /// are still resident when the `dW` stream arrives, whenever capacity
    /// allows — limited, as the paper observes, because "the required dY
    /// tiles differ between computing dX and dW".
    Interleaved,
    /// Interleaving + dXmajor (§4.3, Figure 10 b): one row-major sweep of
    /// `dY`; for each `dY` tile, first its `dX` contributions, then its `dW`
    /// contributions. `dW` accumulator columns are revisited once per
    /// sweep block and spill if `dW` does not fit — the "intermediate
    /// results" traffic of the paper.
    DxMajor,
    /// Interleaving + dWmajor (Figure 10 c), the column-major mirror: `dX`
    /// accumulator rows become the spill risk.
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
    /// Emit the backward pass in the given order: the ops of
    /// [`StreamGen::backward`] on this builder. A first layer always
    /// degenerates to the `dW`-only pass: with no `dX` to compute there is
    /// nothing to interleave.
    pub fn emit<S: ScheduleSink>(&self, order: BackwardOrder, is_first: bool, schedule: &mut S) {
        StreamGen::backward(std::slice::from_ref(self), order, is_first).write(schedule);
    }
}

/// Emit the forward pass `Y = X × W` with a capacity-blocked nest: the ops
/// of [`StreamGen::forward`].
///
/// # Panics
///
/// Panics unless `0 < ifmap_density <= 1`.
pub fn forward_schedule<S: ScheduleSink>(
    gemm: GemmShape,
    policy: TilePolicy,
    tensors: LayerTensors,
    ifmap_density: f64,
    schedule: &mut S,
) {
    StreamGen::forward(gemm, policy, tensors, ifmap_density).write(schedule);
}

#[cfg(test)]
mod tests {
    use super::*;
    use igo_npu_sim::{NpuConfig, ScheduleOp};
    use igo_tensor::TileCoord;
    use std::collections::HashMap;

    fn setup(gemm: GemmShape) -> (Schedule, BackwardBuilder) {
        let mut s = Schedule::new("test");
        let tensors = LayerTensors::register(&mut s, "l1");
        let policy = TilePolicy::for_config(&NpuConfig::large_single_core());
        (s, BackwardBuilder::new(gemm, policy, tensors))
    }

    /// `b`'s backward pass in `order` on a fork of `proto`.
    fn emitted(proto: &Schedule, b: &BackwardBuilder, order: BackwardOrder) -> Schedule {
        let mut s = proto.fork(format!("{order:?}"));
        b.emit(order, false, &mut s);
        s
    }

    #[test]
    fn all_backward_schedules_perform_identical_macs() {
        let gemm = GemmShape::new(500, 300, 700);
        let (proto, b) = setup(gemm);
        for order in [
            BackwardOrder::Baseline,
            BackwardOrder::Interleaved,
            BackwardOrder::DxMajor,
            BackwardOrder::DwMajor,
        ] {
            assert_eq!(
                emitted(&proto, &b, order).total_macs(),
                gemm.backward_macs(),
                "{order:?} must not change the math"
            );
        }
    }

    #[test]
    fn schedules_have_equal_op_counts() {
        let gemm = GemmShape::new(257, 129, 130);
        let (proto, b) = setup(gemm);
        let base = emitted(&proto, &b, BackwardOrder::Baseline);
        let inter = emitted(&proto, &b, BackwardOrder::Interleaved);
        let dxm = emitted(&proto, &b, BackwardOrder::DxMajor);
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
        let s = emitted(&proto, &b, BackwardOrder::Interleaved);
        // The fused stream alternates super-blocks of the two gradient
        // computations: both accumulator classes appear, the stream
        // switches between them multiple times, and the very first dW op
        // arrives long before the baseline's midpoint barrier would.
        let classes: Vec<TensorClass> = s
            .ops()
            .iter()
            .map(|op| {
                let ScheduleOp::Gemm(g) = op else {
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
        let s = emitted(&proto, &b, BackwardOrder::DxMajor);
        // Collect the sequence of dY coords actually read; each distinct
        // coordinate must appear as one contiguous run (within one M-block
        // pass, which here covers all of M).
        let mut runs = Vec::new();
        let mut last = None;
        for op in s.ops() {
            let ScheduleOp::Gemm(g) = op else {
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
        let base = emitted(&proto, &b, BackwardOrder::Baseline);
        let ideal = emitted(&proto, &b, BackwardOrder::IdealDyReuse);
        assert!(ideal.named_read_bytes() < base.named_read_bytes());
        assert_eq!(ideal.total_macs(), base.total_macs(), "compute unchanged");
    }

    #[test]
    fn dw_only_skips_input_gradient() {
        let gemm = GemmShape::new(256, 128, 128);
        let (proto, b) = setup(gemm);
        let mut s = proto.fork("first");
        b.emit(BackwardOrder::DxMajor, true, &mut s);
        for op in s.ops() {
            let ScheduleOp::Gemm(g) = op else {
                continue;
            };
            let acc = g.acc.unwrap().key.tensor;
            assert_eq!(s.class_of(acc), TensorClass::WGrad);
        }
        assert_eq!(s.total_macs(), gemm.macs());
    }

    /// The forward nest computes every `Y[i,j] += X[i,kk]·W[kk,j]` of the
    /// full Mt×Kt×Nt product exactly once and nothing else, each op with
    /// its clipped tile shape and `X` priced at the density: on dimension
    /// 1, tile edges ±1, blocks that do not divide the grid, and density
    /// below 1.
    #[test]
    fn forward_schedule_covers_output_once() {
        let base = TilePolicy::for_config(&NpuConfig::small_edge());
        let t = base.tile.rows;
        let shapes = [
            (GemmShape::new(1, 1, 1), 1.0),
            (GemmShape::new(1, 2 * t + 1, 3), 1.0),
            (GemmShape::new(t - 1, t + 1, t), 0.37),
            (GemmShape::new(3 * t + 1, 2 * t - 1, 4 * t + 1), 0.37),
            (GemmShape::new(5 * t - 1, t, 3 * t + 1), 1.0),
        ];
        for (gemm, density) in shapes {
            // A small residency forces several output blocks.
            for capacity_tiles in [4, 7, base.capacity_tiles] {
                let policy = TilePolicy {
                    capacity_tiles,
                    ..base
                };
                let mut s = Schedule::new("fwd");
                let tensors = LayerTensors::register(&mut s, "l1");
                forward_schedule(gemm, policy, tensors, density, &mut s);
                let (y, x, w) = (
                    gemm.dy_grid(policy.tile),
                    gemm.dx_grid(policy.tile),
                    gemm.dw_grid(policy.tile),
                );
                let (mt, kt, nt) = (y.rows(), x.cols(), y.cols());
                let label = format!("{gemm} density {density} capacity {capacity_tiles}");
                let mut seen: HashMap<(TileCoord, TileCoord, TileCoord), u32> = HashMap::new();
                for op in s.ops() {
                    let ScheduleOp::Gemm(g) = op else {
                        panic!("{label}: the forward pass has no barriers or stream ops")
                    };
                    let [xr, wr] = [&g.reads[0], &g.reads[1]];
                    let acc = g.acc.expect("every forward op accumulates");
                    assert_eq!(
                        (xr.key.tensor, wr.key.tensor, acc.key.tensor),
                        (tensors.x, tensors.w, tensors.y),
                        "{label}"
                    );
                    let (yc, xc, wc) = (acc.key.coord, xr.key.coord, wr.key.coord);
                    *seen.entry((yc, xc, wc)).or_default() += 1;
                    let (yd, xd) = (y.tile_dims(yc), x.tile_dims(xc));
                    assert_eq!(
                        g.compute,
                        GemmShape::new(yd.rows, xd.cols, yd.cols),
                        "{label}"
                    );
                    let x_bytes = ((xd.bytes(policy.dtype) as f64 * density).ceil() as u64).max(4);
                    assert_eq!(xr.bytes, x_bytes, "{label}");
                    assert_eq!(wr.bytes, w.tile_dims(wc).bytes(policy.dtype), "{label}");
                    assert_eq!(acc.bytes, yd.bytes(policy.dtype), "{label}");
                }
                assert_eq!(
                    seen.len() as u64,
                    mt as u64 * kt as u64 * nt as u64,
                    "{label}"
                );
                for i in 0..mt {
                    for j in 0..nt {
                        for kk in 0..kt {
                            let triple = (
                                TileCoord::new(i, j),
                                TileCoord::new(i, kk),
                                TileCoord::new(kk, j),
                            );
                            assert_eq!(seen.get(&triple), Some(&1), "{label}: {triple:?}");
                        }
                    }
                }
                assert_eq!(s.total_macs(), gemm.macs(), "{label}");
            }
        }
    }

    #[test]
    fn ragged_edges_preserve_mac_totals() {
        // Dimensions deliberately not multiples of the 128 tile.
        let gemm = GemmShape::new(129, 257, 383);
        let (proto, b) = setup(gemm);
        let s = emitted(&proto, &b, BackwardOrder::Baseline);
        assert_eq!(s.total_macs(), gemm.backward_macs());
    }
}
