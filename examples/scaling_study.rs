//! The headline Columbia scaling study in one binary (condensed Figures
//! 14(b) + 16(b) + 21): the calibrated workloads priced by the study
//! driver of `columbia_machine::scaling` over both fabrics and both codes.
//!
//! ```text
//! cargo run --release --example scaling_study
//! ```

use columbia_bench::figures::speedup_table;
use columbia_machine::{
    paper_cart3d_25m, paper_nsu3d_72m, series, Fabric, MachineConfig, RunConfig, CART3D_CPU_COUNTS,
    NSU3D_CPU_COUNTS,
};

fn main() {
    let vortex = MachineConfig::columbia_vortex();
    println!("== NSU3D 72M-point 6-level W-cycle ==");
    let nsu3d = paper_nsu3d_72m();
    let rows = [
        ("NUMAlink, pure MPI", Fabric::NumaLink4, 1),
        ("NUMAlink, 2 OMP threads", Fabric::NumaLink4, 2),
        ("InfiniBand, 2 OMP threads", Fabric::InfiniBand, 2),
    ]
    .map(|(label, fabric, threads)| {
        series(label, &nsu3d, &vortex, &NSU3D_CPU_COUNTS, |n| {
            RunConfig::hybrid(n, fabric, threads)
        })
    });
    print!("{}", speedup_table(&rows, &NSU3D_CPU_COUNTS));
    println!(
        "paper: NUMAlink superlinear (2044 at 2008 CPUs); InfiniBand multigrid\n\
         collapses at high CPU counts.\n"
    );

    println!("== Cart3D 25M-cell SSLV 4-level W-cycle ==");
    let cart3d = paper_cart3d_25m();
    let rows = [
        ("NUMAlink, pure MPI", Fabric::NumaLink4),
        ("InfiniBand, pure MPI", Fabric::InfiniBand),
    ]
    .map(|(label, fabric)| {
        series(label, &cart3d, &vortex, &CART3D_CPU_COUNTS, |n| {
            RunConfig::mpi(n, fabric)
        })
    });
    print!("{}", speedup_table(&rows, &CART3D_CPU_COUNTS));
    println!(
        "paper: ~1585 at 2016 CPUs on NUMAlink; InfiniBand dips crossing the\n\
         2-node boundary at 508 CPUs and stops at the 1524-rank limit.\n"
    );

    println!("== outlook beyond 2048 CPUs (paper §VI) ==");
    // NUMAlink cannot span more than 4 nodes; InfiniBand requires hybrid
    // ranks. Priced: the 6-level profile above, rescaled to 1e9 points.
    let big = paper_nsu3d_72m().rescaled(1.0e9);
    let coarsest = big.levels[big.levels.len() - 1].points;
    println!("6-level profile rescaled to 1e9 points (coarsest level {coarsest:.1e} points):");
    let machine = columbia_machine::MachineConfig::columbia_full();
    for (label, run) in [
        (
            "1e9 pts, 2008 CPUs, NUMAlink",
            RunConfig::mpi(2008, Fabric::NumaLink4),
        ),
        (
            "1e9 pts, 4016 CPUs, InfiniBand + 4 OMP threads",
            RunConfig::hybrid(4016, Fabric::InfiniBand, 4),
        ),
    ] {
        match columbia_machine::simulate_cycle(&big, &machine, &run) {
            Ok(b) => println!(
                "{label:<48} {:>7.2} s/cycle  {:>6.2} TFLOP/s",
                b.seconds,
                b.flops_per_second() / 1e12
            ),
            Err(e) => println!("{label:<48} infeasible: {e}"),
        }
    }
    println!("paper (its own 7-level case, not the profile above): ~5-6 TFLOP/s on 4016 CPUs.");
}
