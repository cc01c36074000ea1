//! Space-filling curves for Cartesian mesh coarsening and partitioning.
//!
//! Cart3D orders adaptively refined Cartesian cells along a space-filling
//! curve (Morton in 2-D illustrations, Peano-Hilbert preferred in 3-D). The
//! curve provides, essentially for free:
//!
//! * **reordering** for memory locality (a quicksort on curve keys);
//! * **coarsening** — consecutive same-size sibling cells along the curve
//!   collapse into their parent, building each coarse multigrid level in a
//!   single pass;
//! * **partitioning** — cutting the weighted curve into `P` contiguous
//!   segments yields compact, load-balanced subdomains whose
//!   surface-to-volume ratio tracks an idealised cubic partitioner
//!   (paper reference \[18\]).
//!
//! Keys are 63-bit: 21 bits per axis, supporting up to 2^21 cells per axis
//! (far beyond the 14 refinement levels used for the SSLV mesh).

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index loops mirror the stencil/block structure of the kernels
#![allow(clippy::neg_cmp_op_on_partial_ord)] // `!(x > 0.0)` deliberately catches NaNs

pub mod hilbert;
pub mod morton;
pub mod partition;

pub use hilbert::{hilbert_decode, hilbert_encode};
pub use morton::{morton_decode, morton_encode};
pub use partition::{split_weighted_curve, CurvePartition};

/// Maximum supported bits per axis for both curves.
pub const MAX_BITS: u32 = 21;

/// Which space-filling curve to use.
///
/// ```
/// use columbia_sfc::CurveKind;
/// let key = CurveKind::Hilbert.encode(3, 5, 7, 4);
/// assert_eq!(CurveKind::Hilbert.decode(key, 4), (3, 5, 7));
/// ```
///
/// The paper: "in 3D the Peano-Hilbert SFC is generally preferred" for its
/// better locality; Morton is cheaper to compute. Both are exposed so the
/// `ablation_sfc` bench can compare partition quality.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum CurveKind {
    /// Bit-interleaving Z-order curve.
    Morton,
    /// Peano-Hilbert curve (default, better locality).
    #[default]
    Hilbert,
}

impl CurveKind {
    /// Encode integer cell coordinates at `bits` of resolution into a curve key.
    #[inline]
    pub fn encode(self, x: u32, y: u32, z: u32, bits: u32) -> u64 {
        match self {
            CurveKind::Morton => morton_encode(x, y, z, bits),
            CurveKind::Hilbert => hilbert_encode(x, y, z, bits),
        }
    }

    /// Decode a curve key back to integer cell coordinates.
    #[inline]
    pub fn decode(self, key: u64, bits: u32) -> (u32, u32, u32) {
        match self {
            CurveKind::Morton => morton_decode(key, bits),
            CurveKind::Hilbert => hilbert_decode(key, bits),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_kinds_roundtrip_origin() {
        for kind in [CurveKind::Morton, CurveKind::Hilbert] {
            assert_eq!(kind.decode(kind.encode(0, 0, 0, 4), 4), (0, 0, 0));
        }
    }

    columbia_rt::props! {
        fn prop_kinds_roundtrip(kindsel in 0u32..2, x in 0u32..512, y in 0u32..512, z in 0u32..512) {
            let kind = if kindsel == 0 { CurveKind::Morton } else { CurveKind::Hilbert };
            let key = kind.encode(x, y, z, 9);
            assert_eq!(kind.decode(key, 9), (x, y, z));
        }
    }
}
