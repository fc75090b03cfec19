//! Every candidate's loop order, written once, with the next uses it
//! implies.
//!
//! Every candidate the pipeline replays is a blocked loop nest over the
//! tile grids of a [`BackwardBuilder`]: the two gradient nests (the
//! sequential baseline and its ideal-reuse variant), their interleaving
//! (§4.2), the two fused sweeps (§4.3), the first-layer `dW` pass and the
//! forward pass, alone, chained partition after partition on one core
//! (§5), or one partition per core. So each op's tile ids, bytes and shape
//! are arithmetic in the loop indices, and so is each access's *next use*
//! — the position of the tile's next access before the next barrier: the
//! next iteration of the innermost loop the tile does not depend on, or,
//! past the nest's last access of the tile, the tile's first access in the
//! next nest of the same barrier region. This is the reuse analysis
//! Unnikrishnan & Parhi's gradient-interleaved scheduler does for the
//! interleaved order.
//!
//! A [`StreamGen`] is the only place these loop orders are written. As a
//! [`ReplayInput`] it feeds the replay — selection, the forward pass and
//! traces — its ops with dense ids, bytes, shapes, next uses and region
//! sums, without materialising anything: memory is per tile, and a replay
//! that aborts at its cutoff stops generating there. Through
//! [`StreamGen::write`] it is also what [`BackwardBuilder::emit`] and
//! [`crate::schedule::forward_schedule`] emit into any
//! [`igo_npu_sim::ScheduleSink`]. An [`igo_npu_sim::AnalyticCollector`] fed
//! those ops links next uses and sums regions on its own; the audit's
//! `generator-links` check requires the generator's to equal them on
//! every candidate.

use crate::schedule::{BackwardBuilder, BackwardOrder, LayerTensors};
use crate::tiling::{Blocking, TilePolicy};
use igo_npu_sim::{
    Access, GemmAccesses, OpVisitor, Phase, RegionSum, ReplayInput, ScheduleSink, StreamOp,
    StreamShape, TensorId, TileKey, TileOpSpec, NO_USE, REPLAY_ID_LIMIT,
};
use igo_tensor::{DataType, GemmShape, TensorClass, TileCoord, TileGrid};
use std::ops::ControlFlow;

/// "No further access" in `u64` positions.
const NONE: u64 = u64::MAX;

/// One tensor of the dense tile-id registry.
#[derive(Debug, Clone, Copy)]
struct Entry {
    raw: u32,
    class: TensorClass,
    rows: u32,
    cols: u32,
    /// First dense id, assigned when the registry is sealed.
    base: u32,
    /// One past the last dense id, assigned with `base`.
    end: u32,
}

/// Most buckets of a registry's id → tensor table.
const ID_BUCKETS: u64 = 1024;

/// The dense tile-id registry, numbered as an `AnalyticCollector` numbers
/// it: every registered tensor's tiles in ascending tensor-id order, then
/// row-major, so id order is `TileKey` order.
#[derive(Debug, Clone, Default)]
struct Registry {
    entries: Vec<Entry>,
    tiles: u64,
    /// Ids `b << bucket_shift ..` of bucket `b` start in tensor
    /// `first_entry[b]`.
    first_entry: Vec<u16>,
    bucket_shift: u32,
}

impl Registry {
    fn register(&mut self, tensor: TensorId, class: TensorClass, grid: &TileGrid) {
        if self.entries.iter().any(|e| e.raw == tensor.raw()) {
            return;
        }
        self.entries.push(Entry {
            raw: tensor.raw(),
            class,
            rows: grid.rows(),
            cols: grid.cols(),
            base: 0,
            end: 0,
        });
    }

    /// Register `b`'s six grids, as [`BackwardBuilder::register_grids`]
    /// does.
    fn register_builder(&mut self, b: &BackwardBuilder) {
        let t = b.tensors();
        self.register(t.dy, TensorClass::OutGrad, b.dy_grid());
        self.register(t.w, TensorClass::Weight, b.w_grid());
        self.register(t.x, TensorClass::Ifmap, b.x_grid());
        self.register(t.dx, TensorClass::InGrad, b.x_grid());
        self.register(t.dw, TensorClass::WGrad, b.w_grid());
        self.register(t.y, TensorClass::Ofmap, b.dy_grid());
    }

    /// Number the tiles and build the id → tensor table.
    ///
    /// # Panics
    ///
    /// Panics if the registry reaches [`REPLAY_ID_LIMIT`].
    fn seal(&mut self) {
        self.entries.sort_by_key(|e| e.raw);
        assert!(self.entries.len() <= 1 << 16, "too many tensors");
        let mut base = 0u64;
        for e in &mut self.entries {
            e.base = base as u32;
            base += e.rows as u64 * e.cols as u64;
            assert!(
                base < REPLAY_ID_LIMIT,
                "tile registry overflows the dense id space"
            );
            e.end = base as u32;
        }
        self.tiles = base;
        // Buckets no wider than the smallest tensor hold at most one
        // tensor boundary, so a lookup reads the table and steps at most
        // once. A tensor far smaller than the rest widens them instead, to
        // keep the table small.
        let smallest = self
            .entries
            .iter()
            .map(|e| e.end - e.base)
            .filter(|&n| n > 0)
            .min();
        let mut shift = smallest.map_or(0, u32::ilog2);
        while self.tiles >> shift > ID_BUCKETS {
            shift += 1;
        }
        let mut i = 0;
        self.first_entry = (0..self.tiles.div_ceil(1 << shift))
            .map(|b| {
                while u64::from(self.entries[i].end) <= b << shift {
                    i += 1;
                }
                i as u16
            })
            .collect();
        self.bucket_shift = shift;
    }

    fn entry(&self, tensor: TensorId) -> &Entry {
        self.entries
            .iter()
            .find(|e| e.raw == tensor.raw())
            .expect("tensor touched before registration")
    }

    /// The tensor holding dense id `id`, in constant time for every
    /// registry whose smallest tensor spans at least 1/[`ID_BUCKETS`] of
    /// the ids.
    #[inline]
    fn entry_of_id(&self, id: u32) -> &Entry {
        let mut i = self.first_entry[(id >> self.bucket_shift) as usize] as usize;
        while id >= self.entries[i].end {
            i += 1;
        }
        &self.entries[i]
    }

    /// The operand view of `tensor` over `grid`: each tile's bytes at
    /// `dtype` mapped through `cost`. Only the last row and column clip, so
    /// four byte counts price every tile.
    fn operand(
        &self,
        tensor: TensorId,
        grid: &TileGrid,
        dtype: DataType,
        cost: impl Fn(u64) -> u64,
    ) -> Operand {
        let e = self.entry(tensor);
        let (last_row, last_col) = (grid.rows() - 1, grid.cols() - 1);
        let bytes = [0, last_row].map(|r| {
            [0, last_col].map(|c| {
                let b = cost(grid.tile_dims(TileCoord::new(r, c)).bytes(dtype));
                assert!(b < 1 << 31, "tile access exceeds 2 GiB");
                b as u32
            })
        });
        let (rows, cols) = (last_row as u64 + 1, last_col as u64 + 1);
        let b = |r: usize, c: usize| bytes[r][c] as u64;
        Operand {
            tensor,
            base: e.base,
            cols: e.cols,
            class: e.class,
            bytes,
            last_row,
            last_col,
            tiles: rows * cols,
            grid_bytes: (rows - 1) * (cols - 1) * b(0, 0)
                + (rows - 1) * b(0, 1)
                + (cols - 1) * b(1, 0)
                + b(1, 1),
        }
    }

    /// The six operands of `b`'s layer. `X` and `dX` tiles cost the raw
    /// layout's share of their bytes (see
    /// [`BackwardBuilder::with_ifmap_density`]), at least 4.
    fn operands(&self, b: &BackwardBuilder) -> Operands {
        let (t, dtype, density) = (b.tensors(), b.policy().dtype, b.density());
        let dense = |tensor, grid| self.operand(tensor, grid, dtype, |bytes| bytes);
        let raw = |tensor, grid| {
            self.operand(tensor, grid, dtype, |bytes| {
                ((bytes as f64 * density).ceil() as u64).max(4)
            })
        };
        Operands {
            x: raw(t.x, b.x_grid()),
            w: dense(t.w, b.w_grid()),
            y: dense(t.y, b.dy_grid()),
            dx: raw(t.dx, b.x_grid()),
            dw: dense(t.dw, b.w_grid()),
            dy: dense(t.dy, b.dy_grid()),
        }
    }
}

/// One layer's operands, by [`LayerTensors`] field.
#[derive(Debug, Clone, Copy)]
struct Operands {
    x: Operand,
    w: Operand,
    y: Operand,
    dx: Operand,
    dw: Operand,
    dy: Operand,
}

/// One tensor as a nest touches it.
#[derive(Debug, Clone, Copy)]
struct Operand {
    tensor: TensorId,
    base: u32,
    cols: u32,
    class: TensorClass,
    /// Access bytes by `[row is last][col is last]`.
    bytes: [[u32; 2]; 2],
    last_row: u32,
    last_col: u32,
    /// Tiles and bytes of the whole grid: every nest touches every tile of
    /// each of its operands.
    tiles: u64,
    grid_bytes: u64,
}

impl Operand {
    #[inline]
    fn access(&self, r: u32, c: u32, next_use: u64) -> Access {
        Access {
            id: self.base + r * self.cols + c,
            bytes: self.bytes[(r == self.last_row) as usize][(c == self.last_col) as usize],
            class: self.class,
            next_use: if next_use == NONE {
                NO_USE
            } else {
                next_use as u32
            },
        }
    }
}

/// Per-axis extents and tile counts, `[full, last]`, of one builder's M,
/// K and N axes.
#[derive(Debug, Clone, Copy)]
struct Axes {
    m: [(u64, u64); 2],
    k: [(u64, u64); 2],
    n: [(u64, u64); 2],
}

impl Axes {
    fn of(b: &BackwardBuilder) -> Self {
        let (dy, x) = (b.dy_grid(), b.x_grid());
        let (last_m, last_n, last_k) = (dy.rows() - 1, dy.cols() - 1, x.cols() - 1);
        let axis = |count: u32, ext: [u64; 2]| [(ext[0], count as u64), (ext[1], 1)];
        let dims = |grid: &TileGrid, r: u32, c: u32| grid.tile_dims(TileCoord::new(r, c));
        Self {
            m: axis(last_m, [0, last_m].map(|r| dims(dy, r, 0).rows)),
            n: axis(last_n, [0, last_n].map(|c| dims(dy, 0, c).cols)),
            k: axis(last_k, [0, last_k].map(|c| dims(x, 0, c).cols)),
        }
    }
}

/// The tile-GEMM families: `dX += dY·Wᵀ`, `dW += Xᵀ·dY` and `Y = X·W`.
#[derive(Debug, Clone, Copy)]
enum Family {
    Dx,
    Dw,
    Forward,
}

/// Add `family`'s eight edge variants to `shapes`, indexed by
/// `i_last·4 + j_last·2 + kk_last`, each with its op count; returns the
/// first index.
fn add_family(shapes: &mut Vec<(GemmShape, u64)>, axes: &Axes, family: Family) -> u32 {
    let base = shapes.len() as u32;
    for il in 0..2 {
        for jl in 0..2 {
            for kl in 0..2 {
                let ((m, mc), (n, nc), (k, kc)) = (axes.m[il], axes.n[jl], axes.k[kl]);
                let shape = match family {
                    Family::Dx => GemmShape::new(m, n, k),
                    Family::Dw => GemmShape::new(k, m, n),
                    Family::Forward => GemmShape::new(m, k, n),
                };
                shapes.push((shape, mc * nc * kc));
            }
        }
    }
    base
}

/// A blocked GEMM nest ([`Blocking`]): output blocks `(r, c)` row-major
/// over `rows × cols` tiles, then the reduction `red` over `depth`, then the
/// block's rows and columns. Each op reads its row operand (tile `(row,
/// red)`, or `(red, row)` when transposed) and its column operand (`(col,
/// red)`, or `(red, col)`) and accumulates into `(row, col)` — the `dX`
/// nest, the `dW` nest and the forward nest alike.
#[derive(Debug, Clone, Copy)]
struct Blocked {
    rows: u64,
    cols: u64,
    depth: u64,
    br: u64,
    bc: u64,
    nbr: u64,
    nbc: u64,
    l: Operand,
    l_t: bool,
    /// The column operand; `None` when its reads are elided.
    rt: Option<Operand>,
    rt_t: bool,
    o: Operand,
    /// Shape index of an op: `shape_base + Σ last-flag · stride` over
    /// (row, red, col).
    shape_base: u32,
    shape_stride: [u32; 3],
    /// Accesses per op.
    apo: u64,
}

impl Blocked {
    #[inline]
    fn height(&self, r: u64) -> u64 {
        self.br.min(self.rows - r * self.br)
    }

    #[inline]
    fn width(&self, c: u64) -> u64 {
        self.bc.min(self.cols - c * self.bc)
    }

    fn blocks(&self) -> u64 {
        self.nbr * self.nbc
    }

    fn ops(&self) -> u64 {
        self.rows * self.cols * self.depth
    }

    /// Op offset of block `(r, c)`: full block rows before it, then full
    /// blocks before it in its row.
    #[inline]
    fn block_off(&self, r: u64, c: u64) -> u64 {
        r * self.br * self.cols * self.depth + c * self.bc * self.height(r) * self.depth
    }

    /// Op offset of linear block `t` (the op count at `t == blocks()`).
    fn block_start(&self, t: u64) -> u64 {
        if t >= self.blocks() {
            self.ops()
        } else {
            self.block_off(t / self.nbc, t % self.nbc)
        }
    }

    /// The first access of `tensor`'s tile `(r, c)` in block `from` or
    /// later: `(block, op, slot)`.
    fn first_from(&self, tensor: TensorId, r: u32, c: u32, from: u64) -> Option<(u64, u64, u64)> {
        let (r, c) = (r as u64, c as u64);
        if tensor == self.l.tensor {
            let (row, red) = if self.l_t { (c, r) } else { (r, c) };
            let br = row / self.br;
            let t = from.max(br * self.nbc);
            if t >= (br + 1) * self.nbc {
                return None;
            }
            let bc = t % self.nbc;
            let (h, w) = (self.height(br), self.width(bc));
            let op = self.block_off(br, bc) + red * h * w + (row - br * self.br) * w;
            return Some((t, op, 0));
        }
        if self.rt.is_some_and(|rt| rt.tensor == tensor) {
            let (col, red) = if self.rt_t { (c, r) } else { (r, c) };
            let bc = col / self.bc;
            let br = if from > bc {
                (from - bc).div_ceil(self.nbc)
            } else {
                0
            };
            if br >= self.nbr {
                return None;
            }
            let (h, w) = (self.height(br), self.width(bc));
            let op = self.block_off(br, bc) + red * h * w + (col - bc * self.bc);
            return Some((br * self.nbc + bc, op, 1));
        }
        if tensor == self.o.tensor {
            let (br, bc) = (r / self.br, c / self.bc);
            let t = br * self.nbc + bc;
            if t < from {
                return None;
            }
            let w = self.width(bc);
            let op = self.block_off(br, bc) + (r - br * self.br) * w + (c - bc * self.bc);
            return Some((t, op, self.apo - 1));
        }
        None
    }

    /// Feed blocks `from..to` to `v`. `shift(block)` is what places the
    /// block's ops in the piece's op sequence (op + shift), which starts at
    /// access position `start`;
    /// `more(operand, r, c, block)` is the first access of that tile after
    /// block `block` outside this nest ([`NONE`] if none).
    #[allow(clippy::too_many_arguments)]
    fn drive<V: OpVisitor>(
        &self,
        from: u64,
        to: u64,
        start: u64,
        shift: impl Fn(u64) -> u64,
        more: impl Fn(&Operand, u32, u32, u64) -> u64,
        v: &mut V,
    ) -> ControlFlow<()> {
        let apo = self.apo;
        let pos = |shift: u64, op: u64, slot: u64| start + (op + shift) * apo + slot;
        let mut accesses = [Access::default(); 3];
        let rt_slot = 1;
        let o_slot = (apo - 1) as usize;
        for t in from..to {
            let (r, c) = (t / self.nbc, t % self.nbc);
            let (h, w) = (self.height(r), self.width(c));
            let (row0, col0) = (r * self.br, c * self.bc);
            let off = self.block_off(r, c);
            let here = shift(t);
            // Blocks holding each operand's next accesses past this one.
            let right = (c + 1 < self.nbc)
                .then(|| (shift(t + 1), self.block_off(r, c + 1), self.width(c + 1)));
            let below = (r + 1 < self.nbr).then(|| {
                (
                    shift(t + self.nbc),
                    self.block_off(r + 1, c),
                    self.height(r + 1),
                )
            });
            for red in 0..self.depth {
                let red_last = (red + 1 == self.depth) as u32;
                for dr in 0..h {
                    let row = row0 + dr;
                    let row_last = (row + 1 == self.rows) as u32;
                    for dc in 0..w {
                        let col = col0 + dc;
                        let op = off + red * h * w + dr * w + dc;
                        let (ru, cu, redu) = (row as u32, col as u32, red as u32);
                        let (lr, lc) = if self.l_t { (redu, ru) } else { (ru, redu) };
                        let l_next = if dc + 1 < w {
                            pos(here, op + 1, 0)
                        } else {
                            let within = right.map_or(NONE, |(shift2, off2, w2)| {
                                pos(shift2, off2 + red * h * w2 + dr * w2, 0)
                            });
                            within.min(more(&self.l, lr, lc, t))
                        };
                        accesses[0] = self.l.access(lr, lc, l_next);
                        if let Some(rt) = &self.rt {
                            let (rr, rc) = if self.rt_t { (redu, cu) } else { (cu, redu) };
                            let rt_next = if dr + 1 < h {
                                pos(here, op + w, rt_slot)
                            } else {
                                let within = below.map_or(NONE, |(shift2, off2, h2)| {
                                    pos(shift2, off2 + red * h2 * w + dc, rt_slot)
                                });
                                within.min(more(rt, rr, rc, t))
                            };
                            accesses[1] = rt.access(rr, rc, rt_next);
                        }
                        let o_next = if red + 1 < self.depth {
                            pos(here, op + h * w, o_slot as u64)
                        } else {
                            more(&self.o, ru, cu, t)
                        };
                        accesses[o_slot] = self.o.access(ru, cu, o_next);
                        let col_last = (col + 1 == self.cols) as u32;
                        let [s0, s1, s2] = self.shape_stride;
                        v.gemm(GemmAccesses {
                            accesses: &accesses[..apo as usize],
                            acc: true,
                            shape: self.shape_base + row_last * s0 + red_last * s1 + col_last * s2,
                        })?;
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }
}

/// The role of a fused-sweep operand: which of the sweep axis `S`, the
/// other output axis `O` and `K` its tile depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// `dY`: `(s, o)`, touched by both ops of every `(o, s)` group.
    So,
    /// `(s, k)`, touched by one phase.
    Sk,
    /// `(k, o)`, touched by one phase.
    Ok,
}

/// A fused sweep (§4.3): K-chunks of `kb`, sweep blocks of `b` along `S`,
/// then `o` over all of `O`, `s` within the block, then the two phases'
/// ops over the chunk's `kk`. DxMajor sweeps `S = M` with the `dX` op
/// first; DwMajor sweeps `S = N` with the `dW` op first.
#[derive(Debug, Clone, Copy)]
struct Fused {
    sn: u64,
    on: u64,
    kt: u64,
    kb: u64,
    b: u64,
    nchunks: u64,
    nsb: u64,
    /// `[phase][slot]` operands and roles.
    ops: [[(Operand, Role); 3]; 2],
    /// Roles' tiles are `(s, o)`, `(s, k)`, `(k, o)`; transposed in DwMajor.
    transposed: bool,
    /// Shape-table base of each phase's family, indexed by
    /// `i_last·4 + j_last·2 + kk_last`.
    shape_base: [u32; 2],
    /// The slot of `dY` in each phase's op.
    dy_slot: [u64; 2],
}

impl Fused {
    fn new(
        b: &BackwardBuilder,
        reg: &Registry,
        shapes: &mut Vec<(GemmShape, u64)>,
        dx_major: bool,
    ) -> Self {
        let (mt, kt, nt) = (b.mt(), b.kt(), b.nt());
        let (kb, bs) = b.fused_blocks(dx_major);
        let Operands {
            x, w, dx, dw, dy, ..
        } = reg.operands(b);
        let axes = Axes::of(b);
        let dx_shapes = add_family(shapes, &axes, Family::Dx);
        let dw_shapes = add_family(shapes, &axes, Family::Dw);
        let dx_op = [(dy, Role::So), (w, Role::Ok), (dx, Role::Sk)];
        let dw_op = [(x, Role::Sk), (dy, Role::So), (dw, Role::Ok)];
        let (sn, on) = if dx_major { (mt, nt) } else { (nt, mt) };
        let (ops, shape_base, dy_slot) = if dx_major {
            ([dx_op, dw_op], [dx_shapes, dw_shapes], [0, 1])
        } else {
            // DwMajor: S = N, so W/dW are (k, s) and X/dX are (o, k).
            let swap = |[a, b, c]: [(Operand, Role); 3]| {
                let flip = |(op, role)| {
                    let role = match role {
                        Role::Sk => Role::Ok,
                        Role::Ok => Role::Sk,
                        Role::So => Role::So,
                    };
                    (op, role)
                };
                [flip(a), flip(b), flip(c)]
            };
            ([swap(dw_op), swap(dx_op)], [dw_shapes, dx_shapes], [1, 0])
        };
        Self {
            sn,
            on,
            kt,
            kb,
            b: bs,
            nchunks: kt.div_ceil(kb),
            nsb: sn.div_ceil(bs),
            ops,
            transposed: !dx_major,
            shape_base,
            dy_slot,
        }
    }

    #[inline]
    fn chunk_width(&self, kc: u64) -> u64 {
        self.kb.min(self.kt - kc * self.kb)
    }

    #[inline]
    fn block_height(&self, sb: u64) -> u64 {
        self.b.min(self.sn - sb * self.b)
    }

    /// Op index of `(chunk, sweep block, o, ds, phase, dk)`.
    #[inline]
    fn op_at(&self, kc: u64, sb: u64, o: u64, ds: u64, phase: u64, dk: u64) -> u64 {
        let kw = self.chunk_width(kc);
        let h = self.block_height(sb);
        kc * self.kb * 2 * self.sn * self.on
            + sb * self.b * self.on * 2 * kw
            + o * h * 2 * kw
            + ds * 2 * kw
            + phase * kw
            + dk
    }

    /// A role's tile coordinates.
    #[inline]
    fn coords(&self, role: Role, s: u64, o: u64, k: u64) -> (u32, u32) {
        let (a, b) = match role {
            Role::So => (s, o),
            Role::Sk => (s, k),
            Role::Ok => (k, o),
        };
        if self.transposed {
            (b as u32, a as u32)
        } else {
            (a as u32, b as u32)
        }
    }

    /// The first access of `tensor`'s tile `(r, c)`: `(op, slot)`.
    fn first(&self, tensor: TensorId, r: u32, c: u32) -> Option<(u64, u64)> {
        for (phase, op) in self.ops.iter().enumerate() {
            for (slot, (operand, role)) in op.iter().enumerate() {
                if operand.tensor != tensor {
                    continue;
                }
                // The role's natural coordinates: (s, o), (s, k) or (k, o).
                let (u, w) = if self.transposed {
                    (c as u64, r as u64)
                } else {
                    (r as u64, c as u64)
                };
                let phase = phase as u64;
                let first = match role {
                    // dY's first access is in phase 0 of chunk 0.
                    Role::So => (
                        self.op_at(0, u / self.b, w, u % self.b, 0, 0),
                        self.dy_slot[0],
                    ),
                    Role::Sk => (
                        self.op_at(w / self.kb, u / self.b, 0, u % self.b, phase, w % self.kb),
                        slot as u64,
                    ),
                    Role::Ok => (
                        self.op_at(u / self.kb, 0, w, 0, phase, u % self.kb),
                        slot as u64,
                    ),
                };
                return Some(first);
            }
        }
        None
    }

    /// Feed the sweep to `v`, starting at access position `start`;
    /// `more(operand, r, c)` is the tile's first access after this nest.
    fn drive<V: OpVisitor>(
        &self,
        start: u64,
        more: impl Fn(&Operand, u32, u32) -> u64,
        v: &mut V,
    ) -> ControlFlow<()> {
        let pos = |op: u64, slot: u64| start + op * 3 + slot;
        let mut accesses = [Access::default(); 3];
        for kc in 0..self.nchunks {
            let kw = self.chunk_width(kc);
            let k0 = kc * self.kb;
            for sb in 0..self.nsb {
                let h = self.block_height(sb);
                let s0 = sb * self.b;
                for o in 0..self.on {
                    for ds in 0..h {
                        let s = s0 + ds;
                        let group = self.op_at(kc, sb, o, ds, 0, 0);
                        let (i, j) = if self.transposed { (o, s) } else { (s, o) };
                        let il = (i + 1 == if self.transposed { self.on } else { self.sn }) as u32;
                        let jl = (j + 1 == if self.transposed { self.sn } else { self.on }) as u32;
                        for phase in 0..2u64 {
                            for dk in 0..kw {
                                let k = k0 + dk;
                                let op = group + phase * kw + dk;
                                for (slot, (operand, role)) in
                                    self.ops[phase as usize].iter().enumerate()
                                {
                                    let (r, c) = self.coords(*role, s, o, k);
                                    let next = match role {
                                        Role::So => {
                                            if phase == 0 || dk + 1 < kw {
                                                let p2 = if dk + 1 < kw { phase } else { 1 };
                                                pos(op + 1, self.dy_slot[p2 as usize])
                                            } else if kc + 1 < self.nchunks {
                                                let op2 = self.op_at(kc + 1, sb, o, ds, 0, 0);
                                                pos(op2, self.dy_slot[0])
                                            } else {
                                                more(operand, r, c)
                                            }
                                        }
                                        Role::Sk => {
                                            if o + 1 < self.on {
                                                pos(op + h * 2 * kw, slot as u64)
                                            } else {
                                                more(operand, r, c)
                                            }
                                        }
                                        Role::Ok => {
                                            if ds + 1 < h {
                                                pos(op + 2 * kw, slot as u64)
                                            } else if sb + 1 < self.nsb {
                                                let op2 = self.op_at(kc, sb + 1, o, 0, phase, dk);
                                                pos(op2, slot as u64)
                                            } else {
                                                more(operand, r, c)
                                            }
                                        }
                                    };
                                    accesses[slot] = operand.access(r, c, next);
                                }
                                let kl = (k + 1 == self.kt) as u32;
                                v.gemm(GemmAccesses {
                                    accesses: &accesses,
                                    acc: true,
                                    shape: self.shape_base[phase as usize] + il * 4 + jl * 2 + kl,
                                })?;
                            }
                        }
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }
}

/// One nest of a stream: one builder's pass in one order.
#[derive(Debug, Clone, Copy)]
enum Nest {
    Blocked(Blocked),
    Fused(Fused),
    /// The interleaved order (§4.2): blocks of the `dX` and `dW` nests in
    /// alternation, `dY` shared between them.
    Interleaved(Blocked, Blocked),
}

/// A nest placed in the stream.
#[derive(Debug, Clone, Copy)]
struct Piece {
    nest: Nest,
    /// Access position of the piece's first access.
    start: u64,
    /// Whether a barrier precedes the piece.
    barrier: bool,
}

impl Piece {
    fn accesses(&self) -> u64 {
        self.slots().iter().map(|&(_, n, _)| n).sum()
    }

    /// The piece's operand slots `(operand, accesses, dirty)`: how many
    /// accesses each makes (every op accesses each slot of its nest once)
    /// and whether it is an accumulator.
    fn slots(&self) -> Vec<(Operand, u64, bool)> {
        let blocked = |b: &Blocked| {
            let mut v = vec![(b.l, b.ops(), false)];
            v.extend(b.rt.map(|rt| (rt, b.ops(), false)));
            v.push((b.o, b.ops(), true));
            v
        };
        match &self.nest {
            Nest::Blocked(b) => blocked(b),
            Nest::Fused(f) => {
                let per_phase = f.sn * f.on * f.kt;
                f.ops
                    .iter()
                    .flatten()
                    .enumerate()
                    .map(|(n, &(op, _))| (op, per_phase, n % 3 == 2))
                    .collect()
            }
            Nest::Interleaved(x, w) => {
                let mut v = blocked(x);
                v.extend(blocked(w));
                v
            }
        }
    }

    /// The phases of the piece's ops in stream order, as runs: the first
    /// op's phase, the last op's, and the number of runs. A GEMM's phase
    /// is its accumulator's ([`Phase::of_accumulator`]).
    fn phase_runs(&self) -> (Phase, Phase, u64) {
        let phase = |o: &Operand| Phase::of_accumulator(Some(o.class));
        match &self.nest {
            Nest::Blocked(b) => (phase(&b.o), phase(&b.o), 1),
            // Every (o, s) group runs its first phase's ops, then its
            // second's.
            Nest::Fused(f) => (
                phase(&f.ops[0][2].0),
                phase(&f.ops[1][2].0),
                2 * f.nchunks * f.sn * f.on,
            ),
            // `dX` block t, then `dW` block t; the longer nest's surplus
            // blocks run last, one run if they are `dX`'s, none more if
            // they are `dW`'s.
            Nest::Interleaved(x, w) => {
                let (px, pw) = (phase(&x.o), phase(&w.o));
                let (bx, bw) = (x.blocks(), w.blocks());
                let last = if bx > bw { px } else { pw };
                (px, last, 2 * bx.min(bw) + u64::from(bx > bw))
            }
        }
    }

    /// What places `dX`-nest block `t`'s ops in the interleaved order: the
    /// `dW` nest's ops in blocks before `t`, which run first.
    #[inline]
    fn dx_shift(w: &Blocked, t: u64) -> u64 {
        w.block_start(t.min(w.blocks()))
    }

    /// What places `dW`-nest block `t`'s ops in the interleaved order: the
    /// `dX` nest's ops in blocks up to `t`, which run first.
    #[inline]
    fn dw_shift(x: &Blocked, t: u64) -> u64 {
        x.block_start((t + 1).min(x.blocks()))
    }

    /// The first access of `tensor`'s tile `(r, c)` in this piece.
    fn first(&self, tensor: TensorId, r: u32, c: u32) -> u64 {
        match &self.nest {
            Nest::Blocked(b) => b
                .first_from(tensor, r, c, 0)
                .map_or(NONE, |(_, op, slot)| self.start + op * b.apo + slot),
            Nest::Fused(f) => f
                .first(tensor, r, c)
                .map_or(NONE, |(op, slot)| self.start + op * 3 + slot),
            Nest::Interleaved(x, w) => {
                let a = x.first_from(tensor, r, c, 0).map_or(NONE, |(t, op, slot)| {
                    self.start + (op + Self::dx_shift(w, t)) * 3 + slot
                });
                let b = w.first_from(tensor, r, c, 0).map_or(NONE, |(t, op, slot)| {
                    self.start + (op + Self::dw_shift(x, t)) * 3 + slot
                });
                a.min(b)
            }
        }
    }
}

/// A candidate's stream on one core, generated from its builders: the
/// [`ReplayInput`] the pipeline replays.
#[derive(Debug, Clone)]
pub struct StreamGen {
    registry: Registry,
    shapes: Vec<(GemmShape, u64)>,
    regions: Vec<RegionSum>,
    pieces: Vec<Piece>,
}

impl StreamGen {
    /// The backward stream of `builders` back-to-back in `order` (one
    /// builder for a plain candidate or one core's partition; several for
    /// partitions chained on one core, with no barrier between them). A
    /// first layer runs only the `dW` nest: with no `dX` to compute there
    /// is nothing to interleave.
    ///
    /// # Panics
    ///
    /// Panics if the tile registry or the stream reaches
    /// [`REPLAY_ID_LIMIT`].
    pub fn backward(builders: &[BackwardBuilder], order: BackwardOrder, is_first: bool) -> Self {
        let mut registry = Registry::default();
        for b in builders {
            registry.register_builder(b);
        }
        registry.seal();
        let mut shapes = Vec::new();
        let mut nests: Vec<(Nest, bool)> = Vec::new();
        for b in builders {
            let ops = registry.operands(b);
            let cap = b.policy().capacity_tiles;
            let (mt, kt, nt) = (b.mt(), b.kt(), b.nt());
            let axes = Axes::of(b);
            let dx_nest = |shapes: &mut Vec<_>| {
                let bx = b.dx_blocking(cap);
                Blocked {
                    rows: mt,
                    cols: kt,
                    depth: nt,
                    br: bx.b_rows,
                    bc: bx.b_cols,
                    nbr: mt.div_ceil(bx.b_rows),
                    nbc: kt.div_ceil(bx.b_cols),
                    l: ops.dy,
                    l_t: false,
                    rt: Some(ops.w),
                    rt_t: false,
                    o: ops.dx,
                    shape_base: add_family(shapes, &axes, Family::Dx),
                    // (row, red, col) = (i, j, kk).
                    shape_stride: [4, 2, 1],
                    apo: 3,
                }
            };
            let dw_nest = |shapes: &mut Vec<_>, elide: bool| {
                let bw = b.dw_blocking(cap);
                Blocked {
                    rows: kt,
                    cols: nt,
                    depth: mt,
                    br: bw.b_rows,
                    bc: bw.b_cols,
                    nbr: kt.div_ceil(bw.b_rows),
                    nbc: nt.div_ceil(bw.b_cols),
                    l: ops.x,
                    l_t: true,
                    rt: (!elide).then_some(ops.dy),
                    rt_t: true,
                    o: ops.dw,
                    shape_base: add_family(shapes, &axes, Family::Dw),
                    // (row, red, col) = (kk, i, j).
                    shape_stride: [1, 4, 2],
                    apo: if elide { 2 } else { 3 },
                }
            };
            if is_first {
                nests.push((Nest::Blocked(dw_nest(&mut shapes, false)), false));
                continue;
            }
            match order {
                BackwardOrder::Baseline | BackwardOrder::IdealDyReuse => {
                    let elide = order == BackwardOrder::IdealDyReuse;
                    nests.push((Nest::Blocked(dx_nest(&mut shapes)), false));
                    nests.push((Nest::Blocked(dw_nest(&mut shapes, elide)), true));
                }
                BackwardOrder::Interleaved => {
                    let x = dx_nest(&mut shapes);
                    let w = dw_nest(&mut shapes, false);
                    nests.push((Nest::Interleaved(x, w), false));
                }
                BackwardOrder::DxMajor | BackwardOrder::DwMajor => {
                    let dx_major = order == BackwardOrder::DxMajor;
                    let f = Fused::new(b, &registry, &mut shapes, dx_major);
                    nests.push((Nest::Fused(f), false));
                }
            }
        }
        Self::assemble(registry, shapes, nests)
    }

    /// The forward pass `Y = X × W` of one core's `gemm` on `tensors`: a
    /// capacity-blocked nest over `Y` tiles, the reduction innermost but
    /// one, with `X` tiles priced at `density` (see
    /// [`BackwardBuilder::with_ifmap_density`]).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < density <= 1`, or if the tile registry or the
    /// stream reaches [`REPLAY_ID_LIMIT`].
    pub fn forward(
        gemm: GemmShape,
        policy: TilePolicy,
        tensors: LayerTensors,
        density: f64,
    ) -> Self {
        let b = BackwardBuilder::new(gemm, policy, tensors).with_ifmap_density(density);
        let mut registry = Registry::default();
        registry.register_builder(&b);
        registry.seal();
        let (mt, kt, nt) = (b.mt(), b.kt(), b.nt());
        let blocking = Blocking::choose(mt, nt, kt, policy.capacity_tiles);
        let mut shapes = Vec::new();
        let axes = Axes::of(&b);
        let ops = registry.operands(&b);
        let nest = Blocked {
            rows: mt,
            cols: nt,
            depth: kt,
            br: blocking.b_rows,
            bc: blocking.b_cols,
            nbr: mt.div_ceil(blocking.b_rows),
            nbc: nt.div_ceil(blocking.b_cols),
            l: ops.x,
            l_t: false,
            rt: Some(ops.w),
            rt_t: true,
            o: ops.y,
            shape_base: add_family(&mut shapes, &axes, Family::Forward),
            // (row, red, col) = (i, kk, j).
            shape_stride: [4, 1, 2],
            apo: 3,
        };
        Self::assemble(registry, shapes, vec![(Nest::Blocked(nest), false)])
    }

    /// Place `nests` (each with whether a barrier precedes it) and sum
    /// their regions.
    fn assemble(
        registry: Registry,
        shapes: Vec<(GemmShape, u64)>,
        nests: Vec<(Nest, bool)>,
    ) -> Self {
        let mut pieces = Vec::with_capacity(nests.len());
        let mut start = 0u64;
        for (nest, barrier) in nests {
            let piece = Piece {
                nest,
                start,
                barrier,
            };
            start += piece.accesses();
            pieces.push(piece);
        }
        assert!(
            start < REPLAY_ID_LIMIT,
            "access stream overflows the u32 position space"
        );
        // Region sums: every nest touches each of its operands' whole
        // grids, accumulators only dirty, so a region's footprint is its
        // distinct grids' bytes and its floor is one fetch of each read
        // grid plus one write-back of each accumulated grid.
        let mut regions = vec![RegionSum::default()];
        let mut seen: Vec<TensorId> = Vec::new();
        for piece in &pieces {
            if piece.barrier {
                regions.push(RegionSum::default());
                seen.clear();
            }
            let sum = regions.last_mut().expect("a stream has a region");
            for (op, _, dirty) in piece.slots() {
                if seen.contains(&op.tensor) {
                    continue;
                }
                seen.push(op.tensor);
                sum.footprint += op.grid_bytes;
                sum.floor_bytes += op.grid_bytes;
                if !dirty {
                    sum.floor_bursts += op.tiles;
                }
            }
        }
        Self {
            registry,
            shapes,
            regions,
            pieces,
        }
    }

    /// Write the stream's ops into `sink`: each op reads its
    /// non-accumulator accesses and accumulates into its last, keyed by
    /// [`ReplayInput::key_of`], and each barrier stays a barrier. This is
    /// how [`BackwardBuilder::emit`] and
    /// [`crate::schedule::forward_schedule`] emit.
    pub fn write<S: ScheduleSink>(&self, sink: &mut S) {
        let _ = self.drive(&mut SinkWriter { gen: self, sink });
    }

    /// Total tile accesses of the stream.
    pub fn stream_len(&self) -> u64 {
        self.pieces.last().map_or(0, |p| p.start + p.accesses())
    }

    /// The [`StreamShape`] a replay of the stream emits, in closed form
    /// over its pieces: op and access counts from the nests, phase spans
    /// from the runs of their phases, and id ranges from the operands
    /// touched, since a nest touches every tile of each of its operands.
    /// [`StreamShape::of_input`] counts the same by driving the stream.
    pub fn shape(&self) -> StreamShape {
        let mut shape = StreamShape::default();
        let mut phase: Option<Phase> = None;
        for piece in &self.pieces {
            shape.barriers += u64::from(piece.barrier);
            let (first, last, runs) = piece.phase_runs();
            shape.phase_spans += runs - u64::from(phase == Some(first));
            phase = Some(last);
            for (op, accesses, _) in piece.slots() {
                shape.accesses += accesses;
                let end = op.base + op.tiles as u32;
                shape.id_end = shape.id_end.max(end);
                if op.class == TensorClass::OutGrad {
                    shape.dy_id_start = if shape.dy_accesses == 0 {
                        op.base
                    } else {
                        shape.dy_id_start.min(op.base)
                    };
                    shape.dy_id_end = shape.dy_id_end.max(end);
                    shape.dy_accesses += accesses;
                }
            }
        }
        shape.gemm_ops = self.shapes.iter().map(|&(_, ops)| ops).sum();
        shape
    }

    /// The first access of `operand`'s tile `(r, c)` in a piece after
    /// piece `k` of the same region.
    fn later(&self, k: usize, operand: &Operand, r: u32, c: u32) -> u64 {
        for piece in &self.pieces[k + 1..] {
            if piece.barrier {
                break;
            }
            let first = piece.first(operand.tensor, r, c);
            if first != NONE {
                return first;
            }
        }
        NONE
    }

    fn drive_piece<V: OpVisitor>(&self, k: usize, v: &mut V) -> ControlFlow<()> {
        let piece = &self.pieces[k];
        let later = |op: &Operand, r: u32, c: u32| {
            if k + 1 < self.pieces.len() {
                self.later(k, op, r, c)
            } else {
                NONE
            }
        };
        match &piece.nest {
            Nest::Blocked(b) => b.drive(
                0,
                b.blocks(),
                piece.start,
                |_| 0,
                |op, r, c, _| later(op, r, c),
                v,
            ),
            Nest::Fused(f) => f.drive(piece.start, later, v),
            Nest::Interleaved(x, w) => {
                let start = piece.start;
                let dy = x.l.tensor;
                // The first access of a dX-nest tile after block `t` in the
                // dW nest (which runs block `t` next), then past the piece.
                let x_more = |op: &Operand, r: u32, c: u32, t: u64| {
                    let other = if op.tensor == dy {
                        w.first_from(dy, r, c, t).map_or(NONE, |(t2, op2, slot)| {
                            start + (op2 + Piece::dw_shift(x, t2)) * 3 + slot
                        })
                    } else {
                        NONE
                    };
                    if other != NONE {
                        other
                    } else {
                        later(op, r, c)
                    }
                };
                let w_more = |op: &Operand, r: u32, c: u32, t: u64| {
                    let other = if op.tensor == dy {
                        x.first_from(dy, r, c, t + 1)
                            .map_or(NONE, |(t2, op2, slot)| {
                                start + (op2 + Piece::dx_shift(w, t2)) * 3 + slot
                            })
                    } else {
                        NONE
                    };
                    if other != NONE {
                        other
                    } else {
                        later(op, r, c)
                    }
                };
                for t in 0..x.blocks().max(w.blocks()) {
                    if t < x.blocks() {
                        x.drive(t, t + 1, start, |t| Piece::dx_shift(w, t), x_more, v)?;
                    }
                    if t < w.blocks() {
                        w.drive(t, t + 1, start, |t| Piece::dw_shift(x, t), w_more, v)?;
                    }
                }
                ControlFlow::Continue(())
            }
        }
    }
}

/// The [`OpVisitor`] behind [`StreamGen::write`].
struct SinkWriter<'a, S> {
    gen: &'a StreamGen,
    sink: &'a mut S,
}

impl<S: ScheduleSink> OpVisitor for SinkWriter<'_, S> {
    fn gemm(&mut self, op: GemmAccesses<'_>) -> ControlFlow<()> {
        let (acc, reads) = op
            .accesses
            .split_last()
            .filter(|_| op.acc)
            .expect("a generated op accumulates into its last access");
        let mut spec = TileOpSpec::new(self.gen.shapes[op.shape as usize].0);
        for a in reads {
            let key = self.gen.key_of(a.id);
            spec = spec.read(key.tensor, key.coord, a.bytes.into());
        }
        let key = self.gen.key_of(acc.id);
        self.sink
            .gemm(&spec.accumulate(key.tensor, key.coord, acc.bytes.into()));
        ControlFlow::Continue(())
    }

    fn stream(&mut self, op: &StreamOp) -> ControlFlow<()> {
        self.sink.stream(*op);
        ControlFlow::Continue(())
    }

    fn barrier(&mut self) -> ControlFlow<()> {
        self.sink.barrier();
        ControlFlow::Continue(())
    }
}

impl ReplayInput for StreamGen {
    fn tile_count(&self) -> usize {
        self.registry.tiles as usize
    }

    fn class_of(&self, id: u32) -> TensorClass {
        self.registry.entry_of_id(id).class
    }

    fn key_of(&self, id: u32) -> TileKey {
        let e = self.registry.entry_of_id(id);
        let offset = id - e.base;
        TileKey {
            tensor: TensorId::from_raw(e.raw),
            coord: TileCoord::new(offset / e.cols, offset % e.cols),
        }
    }

    fn shapes(&self) -> &[(GemmShape, u64)] {
        &self.shapes
    }

    fn regions(&self) -> &[RegionSum] {
        &self.regions
    }

    fn drive<V: OpVisitor>(&self, v: &mut V) -> ControlFlow<()> {
        for k in 0..self.pieces.len() {
            if self.pieces[k].barrier {
                v.barrier()?;
            }
            self.drive_piece(k, v)?;
        }
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igo_tensor::{MatrixDims, TileShape};

    /// A sealed registry of one tensor per `(rows, cols)` tile grid.
    fn registry(grids: &[(u64, u64)]) -> Registry {
        let mut registry = Registry::default();
        for (raw, &(rows, cols)) in grids.iter().enumerate().rev() {
            let grid = TileGrid::new(MatrixDims::new(rows, cols), TileShape::square(1));
            registry.register(
                TensorId::from_raw(raw as u32),
                TensorClass::ALL[raw % 7],
                &grid,
            );
        }
        registry.seal();
        registry
    }

    /// The table lookup names the tensor a search over the bases names,
    /// for every id: with buckets as narrow as the smallest tensor, and
    /// with buckets widened past tensors of a single tile.
    #[test]
    fn id_lookup_equals_search() {
        for grids in [
            vec![(1, 1)],
            vec![(64, 32), (16, 32), (64, 16), (64, 16), (16, 32), (64, 32)],
            vec![(3, 5), (7, 2), (1, 9)],
            vec![(512, 64), (1, 1), (1, 1), (300, 7), (1, 2), (512, 64)],
        ] {
            let r = registry(&grids);
            assert_eq!(r.tiles, grids.iter().map(|(a, b)| a * b).sum::<u64>());
            assert!(r.first_entry.len() as u64 <= ID_BUCKETS);
            for id in 0..r.tiles as u32 {
                let i = r.entries.partition_point(|e| e.base <= id) - 1;
                assert_eq!(r.entry_of_id(id).raw, r.entries[i].raw, "{grids:?} id {id}");
            }
        }
    }
}
