//! The `--kernels` roofline section's solver kernel: full
//! `RansLevel::smooth_sweep` passes on a wing mesh with plane-resident
//! state (**resident_sweep6**), at working-set sizes either side of the
//! `columbia-machine` cache model's L3 crossover.
//!
//! Every batched kernel the sweep runs keeps its parity oracle where it
//! lives: the `columbia_linalg::soa` tests against `BlockLu`,
//! `BlockTridiag` and `vecops::axpy`, and `tests/kernel_parity.rs` through
//! whole RANS sweeps and Euler RK steps. How fast the kernels run in the
//! solvers is `bench_e2e`'s business.

use columbia_machine::MachineConfig;
use columbia_rans::level::SolverParams;
use columbia_rans::state::NVARS;
use columbia_rans::RansLevel;
use columbia_rt::env::KernelKind;
use columbia_rt::fnv;

/// FNV-1a over the raw bits of a state array; the parity digest.
pub fn digest_states<const N: usize>(xs: &[[f64; N]]) -> u64 {
    xs.iter()
        .flatten()
        .fold(fnv::OFFSET, |h, v| fnv::word(h, v.to_bits()))
}

/// Roofline-predicted sustained GFLOP/s of one Columbia CPU at the given
/// working-set size (the machine model's logistic L3 transition).
pub fn predicted_gflops(working_set_bytes: f64) -> f64 {
    MachineConfig::columbia_vortex().effective_rate(working_set_bytes) / 1e9
}

/// Target point counts for `resident_sweep6`: one comfortably in-cache
/// size and one at the paper's per-CPU working set (~100k vertices,
/// tens of MB of level state — well past the L3 crossover).
pub const SWEEP_POINTS: [usize; 2] = [8_000, 100_000];
/// Smoothing sweeps per pass.
pub const SWEEP_PASSES: usize = 2;

/// A freshly initialised RANS level on the jitter-free wing mesh, batched
/// kernel path.
pub fn sweep_level(target_points: usize) -> RansLevel {
    let params = SolverParams {
        kernel: Some(KernelKind::Simd),
        ..crate::mach_half()
    };
    let mut lvl = RansLevel::new(crate::wing(target_points), params);
    lvl.apply_bcs();
    lvl
}

/// Rewind a level to its post-construction state so every pass starts
/// from identical inputs (and identical FP history).
pub fn sweep_reset(lvl: &mut RansLevel) {
    let fs = lvl.fs;
    lvl.u.fill_with(&fs);
    lvl.forcing.fill_zero();
    lvl.cfl_now = lvl.params.cfl_start.min(lvl.params.cfl);
    lvl.apply_bcs();
}

/// Plane-resident pass: [`SWEEP_PASSES`] smoothing sweeps straight on the
/// level's resident `SoaStates` planes. No conversions anywhere.
pub fn sweep_resident(lvl: &mut RansLevel) {
    for _ in 0..SWEEP_PASSES {
        lvl.smooth_sweep();
    }
}

/// Bytes one smoothing sweep touches: per vertex the four state fields,
/// the gradients, the 8-word primitive cache, the diagonal block and
/// lamsum; plus the edge list.
pub fn sweep_working_set_bytes(lvl: &RansLevel) -> u64 {
    let nv = lvl.mesh.nvertices() as u64;
    let ne = lvl.mesh.nedges() as u64;
    nv * ((4 * NVARS as u64 + 9 + 8 + NVARS as u64 * NVARS as u64 + 1) * 8) + ne * 40
}

/// Nominal FLOPs of one resident pass, measured off the level's own
/// counter (the sweep mixes too many phases for a closed form).
pub fn sweep_pass_flops(lvl: &mut RansLevel) -> u64 {
    sweep_reset(lvl);
    lvl.flops.take();
    sweep_resident(lvl);
    lvl.flops.take()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicted_rate_shows_the_cache_crossover() {
        let small = predicted_gflops(64.0 * 1024.0);
        let big = predicted_gflops(128.0 * 1024.0 * 1024.0);
        assert!(small > big, "in-cache rate must exceed streaming rate");
    }
}
