//! Load balance of the line-aware partitioner, recorded as exact counts.
//!
//! `partition_mesh_line_aware` partitions the line-contracted graph: every
//! implicit line is one heavy vertex. On the jitter-free wings the lines
//! are long and uniform, so the k-way partitioner cannot balance them, and
//! at large k it leaves parts empty and the largest part many times the
//! mean. This is why the paper-scale report rows state how many ranks own
//! work on each level. Nothing here is a tolerance: the suite asserts
//! today's empty-part count and largest-part size per (wing, k), so a
//! partitioner fix shows in review as a change to these numbers.

use columbia_bench::{mach_half, wing};
use columbia_rans::parallel::partition_mesh_line_aware;

/// `(k, empty parts, largest part)`.
type Imbalance = (usize, usize, usize);

/// Per wing `(target points, vertices, imbalance at each k)`. k = 8 is the
/// width of the `rans27k_r8_events` benchmark workload.
const WINGS: [(usize, usize, &[Imbalance]); 3] = [
    (
        27_000,
        27_000,
        &[(8, 0, 4_859), (16, 1, 3_160), (512, 73, 1_053)],
    ),
    (64_000, 64_000, &[(512, 110, 1_223)]),
    (100_000, 97_336, &[(4, 0, 55_016)]),
];

#[test]
fn line_aware_partition_imbalance_is_pinned() {
    let threshold = mach_half().line_threshold;
    for (points, nverts, cases) in WINGS {
        let mesh = wing(points);
        assert_eq!(mesh.nvertices(), nverts, "{points}-point wing");
        for &(k, empty, largest) in cases {
            let mut sizes = vec![0usize; k];
            for p in partition_mesh_line_aware(&mesh, k, threshold) {
                sizes[p as usize] += 1;
            }
            let got = (
                sizes.iter().filter(|&&s| s == 0).count(),
                sizes.iter().copied().max().unwrap(),
            );
            assert_eq!(
                got,
                (empty, largest),
                "(empty parts, largest part) of the {points}-point wing at k={k}; \
                 mean part {:.1}",
                nverts as f64 / k as f64
            );
        }
    }
}
