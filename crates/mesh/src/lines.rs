//! Implicit-line extraction for the line-implicit smoother.
//!
//! Paper §III: "Using a graph algorithm, the edges of the mesh which connect
//! closely coupled grid points (usually in the normal direction) in boundary
//! layer regions, are grouped together into a set of non-intersecting
//! lines." Coupling is measured as dual-face area over edge length (the
//! coefficient magnitude of the associated discrete operator); lines are
//! grown greedily from the most anisotropic vertices, always following the
//! strongest-coupled unused edge. In isotropic regions the line structure
//! degenerates to single points and the point-implicit scheme is recovered.

use crate::mesh::{UnstructuredMesh, VertexEdges};

/// A set of non-intersecting implicit lines over a mesh.
#[derive(Clone, Debug)]
pub struct LineSet {
    /// Lines with at least two vertices, in mesh order along the line.
    pub lines: Vec<Vec<u32>>,
    /// For each vertex: index into `lines`, or `u32::MAX` for singletons.
    pub vertex_line: Vec<u32>,
}

impl LineSet {
    /// Number of multi-vertex lines.
    pub fn nlines(&self) -> usize {
        self.lines.len()
    }

    /// A complete vertex cover: the extracted lines plus singleton "lines"
    /// for all remaining vertices. This is the input shape expected by
    /// [`columbia_partition::contract_lines`].
    pub fn covering_lines(&self) -> Vec<Vec<u32>> {
        let mut all = self.lines.clone();
        for (v, &l) in self.vertex_line.iter().enumerate() {
            if l == u32::MAX {
                all.push(vec![v as u32]);
            }
        }
        all
    }

    /// Longest line length (0 if none).
    pub fn max_len(&self) -> usize {
        self.lines.iter().map(|l| l.len()).max().unwrap_or(0)
    }
}

/// Extract implicit lines from `mesh`.
///
/// * `aniso_threshold` — minimum ratio of strongest to weakest edge coupling
///   at a vertex for it to participate in a line (typical: 10). Values this
///   large only occur in stretched boundary-layer regions.
pub fn extract_lines(mesh: &UnstructuredMesh, aniso_threshold: f64) -> LineSet {
    extract_lines_with(mesh, &mesh.vertex_edges(), aniso_threshold)
}

/// [`extract_lines`] over `ve`, the prebuilt adjacency of `mesh`.
pub fn extract_lines_with(
    mesh: &UnstructuredMesh,
    ve: &VertexEdges,
    aniso_threshold: f64,
) -> LineSet {
    let n = mesh.nvertices();
    // Edge coupling = dual face area / length.
    let coupling: Vec<f64> = mesh
        .edges
        .iter()
        .map(|e| e.normal.norm() / e.length)
        .collect();

    // Per-vertex anisotropy ratio.
    let mut ratio = vec![0.0f64; n];
    for v in 0..n {
        let mut cmax = 0.0f64;
        let mut cmin = f64::INFINITY;
        for r in ve.of(v) {
            let c = coupling[r.edge as usize];
            cmax = cmax.max(c);
            cmin = cmin.min(c);
        }
        ratio[v] = if cmin > 0.0 && cmin.is_finite() {
            cmax / cmin
        } else {
            0.0
        };
    }

    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| ratio[b as usize].partial_cmp(&ratio[a as usize]).unwrap());

    let mut vertex_line = vec![u32::MAX; n];
    let mut lines: Vec<Vec<u32>> = Vec::new();

    // Walk from `v` along strongest-coupled unassigned edges.
    let grow = |start: u32, vertex_line: &mut [u32], line_id: u32, ratio: &[f64]| -> Vec<u32> {
        let mut path = Vec::new();
        let mut v = start;
        loop {
            // Strongest edge at v.
            let mut cmax = 0.0f64;
            for r in ve.of(v as usize) {
                cmax = cmax.max(coupling[r.edge as usize]);
            }
            // Best unassigned, eligible continuation.
            let mut best: Option<(u32, f64)> = None;
            for r in ve.of(v as usize) {
                let u = r.other;
                let c = coupling[r.edge as usize];
                if vertex_line[u as usize] == u32::MAX
                    && ratio[u as usize] >= aniso_threshold
                    && c >= 0.5 * cmax
                {
                    match best {
                        Some((_, bc)) if bc >= c => {}
                        _ => best = Some((u, c)),
                    }
                }
            }
            match best {
                Some((u, _)) => {
                    vertex_line[u as usize] = line_id;
                    path.push(u);
                    v = u;
                }
                None => break,
            }
        }
        path
    };

    for &seed in &order {
        let s = seed as usize;
        if vertex_line[s] != u32::MAX || ratio[s] < aniso_threshold {
            continue;
        }
        let line_id = lines.len() as u32;
        vertex_line[s] = line_id;
        // Grow forward then backward from the seed.
        let fwd = grow(seed, &mut vertex_line, line_id, &ratio);
        let bwd = grow(seed, &mut vertex_line, line_id, &ratio);
        let mut line: Vec<u32> = bwd.into_iter().rev().collect();
        line.push(seed);
        line.extend(fwd);
        if line.len() >= 2 {
            lines.push(line);
        } else {
            // Degenerate: revert to singleton.
            vertex_line[s] = u32::MAX;
        }
    }

    LineSet { lines, vertex_line }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{isotropic_box_mesh, wing_mesh, WingMeshSpec};

    #[test]
    fn isotropic_mesh_yields_no_lines() {
        let m = isotropic_box_mesh(6, 6, 6);
        let ls = extract_lines(&m, 10.0);
        assert_eq!(ls.nlines(), 0);
        assert!(ls.vertex_line.iter().all(|&l| l == u32::MAX));
        assert_eq!(ls.covering_lines().len(), m.nvertices());
    }

    #[test]
    fn boundary_layer_grows_wall_normal_lines() {
        let spec = WingMeshSpec {
            jitter: 0.0,
            tet_diagonals: false,
            ..Default::default()
        };
        let m = wing_mesh(&spec);
        let ls = extract_lines(&m, 10.0);
        assert!(ls.nlines() > 0, "no lines found in stretched mesh");
        // Lines should reach through most of the BL block.
        assert!(
            ls.max_len() >= spec.nk_bl - 1,
            "lines too short: {} < {}",
            ls.max_len(),
            spec.nk_bl - 1
        );
        // Every wall vertex should sit in some line.
        let wall_covered = (0..m.nvertices())
            .filter(|&v| m.bc[v] == crate::mesh::BoundaryKind::Wall)
            .filter(|&v| ls.vertex_line[v] != u32::MAX)
            .count();
        let walls = spec.ni * spec.nj;
        assert!(
            wall_covered as f64 > 0.9 * walls as f64,
            "only {wall_covered}/{walls} wall vertices in lines"
        );
    }

    #[test]
    fn lines_are_disjoint_and_consistent() {
        let m = wing_mesh(&WingMeshSpec::default());
        let ls = extract_lines(&m, 10.0);
        let mut seen = vec![false; m.nvertices()];
        for (li, line) in ls.lines.iter().enumerate() {
            assert!(line.len() >= 2);
            for &v in line {
                assert!(!seen[v as usize], "vertex {v} in two lines");
                seen[v as usize] = true;
                assert_eq!(ls.vertex_line[v as usize], li as u32);
            }
        }
    }

    #[test]
    fn lines_follow_mesh_edges() {
        let spec = WingMeshSpec {
            jitter: 0.0,
            ..Default::default()
        };
        let m = wing_mesh(&spec);
        let ls = extract_lines(&m, 10.0);
        // Consecutive line vertices must share a mesh edge.
        use std::collections::HashSet;
        let mut eset = HashSet::new();
        for e in &m.edges {
            eset.insert((e.a.min(e.b), e.a.max(e.b)));
        }
        for line in &ls.lines {
            for w in line.windows(2) {
                let key = (w[0].min(w[1]), w[0].max(w[1]));
                assert!(eset.contains(&key), "line jumps over non-edge {key:?}");
            }
        }
    }

    #[test]
    fn covering_lines_partition_vertex_set() {
        let m = wing_mesh(&WingMeshSpec::default());
        let ls = extract_lines(&m, 10.0);
        let cover = ls.covering_lines();
        let mut count = vec![0usize; m.nvertices()];
        for line in &cover {
            for &v in line {
                count[v as usize] += 1;
            }
        }
        assert!(count.iter().all(|&c| c == 1));
    }
}
