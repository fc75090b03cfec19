//! Shape algebra for the interleaved-gradient-order (IGO) simulator.
//!
//! This crate provides the *geometry* layer that every other IGO crate is
//! built on:
//!
//! * [`DataType`] — element widths (the paper's evaluation is fp32).
//! * [`GemmShape`] — a forward GEMM `X(M,K) × W(K,N) → Y(M,N)` together with
//!   the derived backward GEMMs for the input gradient
//!   `dX = dY × Wᵀ` and the weight gradient `dW = Xᵀ × dY`.
//! * [`ConvShape`] — a convolution layer and its im2col lowering to a GEMM,
//!   following the paper's assumption that *all* convolutions are executed as
//!   GEMMs after im2col (§6.1).
//! * [`TileGrid`] / [`TileCoord`] — decomposition of a matrix into SPM-sized
//!   tiles, including ragged edge tiles.
//! * [`Major`] — row-major / column-major tile traversal orders, the knob that
//!   the paper's *rearrangement* step (dXmajor / dWmajor, §4.3) turns.
//! * [`TensorClass`] — the five tensor roles of the backward pass
//!   (X, W, dX, dW, dY) plus forward roles, used for per-class DRAM traffic
//!   accounting (Figure 5 of the paper reports traffic *per class*).
//!
//! # Example
//!
//! ```
//! use igo_tensor::{GemmShape, TileShape};
//!
//! // A BERT-style feed-forward layer: (4096 x 1024) x (1024 x 4096).
//! let fwd = GemmShape::new(4096, 1024, 4096);
//! let dx = fwd.dx_gemm(); // dY(M,N) x W^T(N,K) -> dX(M,K)
//! let dw = fwd.dw_gemm(); // X^T(K,M) x dY(M,N) -> dW(K,N)
//! assert_eq!(dx.out_rows(), 4096);
//! assert_eq!(dw.out_cols(), 4096);
//!
//! // Decompose dY into 128x128 tiles.
//! let grid = fwd.dy_grid(TileShape::square(128));
//! assert_eq!(grid.num_tiles(), 32 * 32);
//! ```

pub mod conv;
pub mod dtype;
pub mod gemm;
pub mod rng;
pub mod tile;
pub mod traversal;

pub use conv::ConvShape;
pub use dtype::DataType;
pub use gemm::{GemmDim, GemmShape, MatrixDims};
pub use rng::SplitMix64;
pub use tile::{TileCoord, TileGrid, TileShape};
pub use traversal::{Major, TraversalOrder};

/// The role a tensor plays in a training step.
///
/// The backward pass of layer *i* touches five tensors (paper Table 1 and
/// §3.2): the operands `X`, `W` and `dY` (read from DRAM) and the results
/// `dX` and `dW` (written to DRAM). The forward pass touches `X`, `W` and
/// `Y`. `Partial` marks spilled intermediate accumulator tiles created by the
/// dXmajor / dWmajor reorderings (§4.3: "intermediate results ... stored in
/// the off-chip memory, resulting in an additional memory traffic").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TensorClass {
    /// Input feature map `X` (forward operand; backward operand of `dW`).
    Ifmap,
    /// Weights `W` (forward operand; backward operand of `dX`).
    Weight,
    /// Output feature map `Y` (forward result).
    Ofmap,
    /// Input gradient `dX` (backward result).
    InGrad,
    /// Weight gradient `dW` (backward result).
    WGrad,
    /// Output gradient `dY` (the shared backward operand this paper reuses).
    OutGrad,
    /// Spilled partial-sum tiles of a reordered accumulation.
    Partial,
}

impl TensorClass {
    /// All classes, in a stable order (useful for report tables).
    pub const ALL: [TensorClass; 7] = [
        TensorClass::Ifmap,
        TensorClass::Weight,
        TensorClass::Ofmap,
        TensorClass::InGrad,
        TensorClass::WGrad,
        TensorClass::OutGrad,
        TensorClass::Partial,
    ];

    /// Position of this class in [`TensorClass::ALL`], for per-class
    /// arrays.
    pub const fn index(self) -> usize {
        match self {
            TensorClass::Ifmap => 0,
            TensorClass::Weight => 1,
            TensorClass::Ofmap => 2,
            TensorClass::InGrad => 3,
            TensorClass::WGrad => 4,
            TensorClass::OutGrad => 5,
            TensorClass::Partial => 6,
        }
    }

    /// Short label used in printed tables (`X`, `W`, `Y`, `dX`, `dW`, `dY`, `P`).
    pub fn label(self) -> &'static str {
        match self {
            TensorClass::Ifmap => "X",
            TensorClass::Weight => "W",
            TensorClass::Ofmap => "Y",
            TensorClass::InGrad => "dX",
            TensorClass::WGrad => "dW",
            TensorClass::OutGrad => "dY",
            TensorClass::Partial => "P",
        }
    }

    /// Whether this class is a backward-pass *operand* (read-only input).
    pub fn is_backward_operand(self) -> bool {
        matches!(
            self,
            TensorClass::Ifmap | TensorClass::Weight | TensorClass::OutGrad
        )
    }

    /// Whether this class is a backward-pass *result* (written to DRAM).
    pub fn is_backward_result(self) -> bool {
        matches!(self, TensorClass::InGrad | TensorClass::WGrad)
    }
}

impl core::fmt::Display for TensorClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            TensorClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), TensorClass::ALL.len());
    }

    #[test]
    fn backward_roles_partition_correctly() {
        use TensorClass::*;
        for class in TensorClass::ALL {
            let operand = class.is_backward_operand();
            let result = class.is_backward_result();
            assert!(!(operand && result), "{class:?} cannot be both");
            if matches!(class, Ofmap | Partial) {
                assert!(!operand && !result);
            }
        }
        assert!(OutGrad.is_backward_operand());
        assert!(InGrad.is_backward_result());
        assert!(WGrad.is_backward_result());
    }

    #[test]
    fn index_is_position_in_all() {
        for (i, class) in TensorClass::ALL.into_iter().enumerate() {
            assert_eq!(class.index(), i, "{class:?}");
        }
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(TensorClass::OutGrad.to_string(), "dY");
    }
}
