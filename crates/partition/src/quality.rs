//! Partition quality metrics: edge cut, imbalance, and the
//! communication-graph degrees the machine model consumes. The exact halo
//! a partition makes is `columbia_comm::Decomposition`'s to count.

use crate::graph::Graph;

/// Quality measures of a k-way partition.
#[derive(Clone, Debug)]
pub struct PartitionQuality {
    /// Total weight of cut edges.
    pub edge_cut: f64,
    /// max part weight / mean part weight.
    pub imbalance: f64,
    /// Number of parts containing at least one vertex.
    pub nonempty_parts: usize,
    /// Per-part number of neighbouring parts (degree of the communication
    /// graph; the paper reports max degree 18 for the 72M-point fine grid).
    pub comm_degree: Vec<usize>,
}

impl PartitionQuality {
    /// Measure the quality of `part` (values in `0..k`) on `g`.
    pub fn measure(g: &Graph, part: &[u32], k: usize) -> Self {
        assert_eq!(part.len(), g.nvertices());
        let mut part_weights = vec![0.0f64; k];
        for (v, &p) in part.iter().enumerate() {
            part_weights[p as usize] += g.vwgt[v];
        }
        let mut edge_cut = 0.0;
        let mut neigh_stamp = vec![vec![]; k]; // neighbour part lists
        for v in 0..g.nvertices() {
            let pv = part[v];
            for (u, w) in g.neighbors_weighted(v) {
                let pu = part[u as usize];
                if pu != pv {
                    if (u as usize) > v {
                        edge_cut += w;
                    }
                    let np: &mut Vec<u32> = &mut neigh_stamp[pv as usize];
                    if !np.contains(&pu) {
                        np.push(pu);
                    }
                }
            }
        }
        let nonempty_parts = part_weights.iter().filter(|&&w| w > 0.0).count();
        let mean = g.total_vwgt() / k as f64;
        let imbalance = if mean > 0.0 {
            part_weights.iter().cloned().fold(0.0f64, f64::max) / mean
        } else {
            1.0
        };
        let comm_degree = neigh_stamp.iter().map(|v| v.len()).collect();
        PartitionQuality {
            edge_cut,
            imbalance,
            nonempty_parts,
            comm_degree,
        }
    }

    /// Maximum communication degree over parts.
    pub fn max_comm_degree(&self) -> usize {
        self.comm_degree.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::grid_graph;

    #[test]
    fn half_split_of_line_graph() {
        let g = grid_graph(4, 1, 1);
        let part = vec![0u32, 0, 1, 1];
        let q = PartitionQuality::measure(&g, &part, 2);
        assert_eq!(q.edge_cut, 1.0);
        assert_eq!(q.imbalance, 1.0);
        assert_eq!(q.nonempty_parts, 2);
        assert_eq!(q.comm_degree, vec![1, 1]);
    }

    #[test]
    fn empty_parts_counted() {
        let g = grid_graph(4, 1, 1);
        let part = vec![0u32, 0, 0, 0];
        let q = PartitionQuality::measure(&g, &part, 3);
        assert_eq!(q.nonempty_parts, 1);
        assert_eq!(q.edge_cut, 0.0);
        assert!((q.imbalance - 3.0).abs() < 1e-12);
    }

    #[test]
    fn comm_degree_on_strip() {
        // 3 parts in a row: middle part talks to both ends.
        let g = grid_graph(6, 1, 1);
        let part = vec![0u32, 0, 1, 1, 2, 2];
        let q = PartitionQuality::measure(&g, &part, 3);
        assert_eq!(q.comm_degree, vec![1, 2, 1]);
        assert_eq!(q.max_comm_degree(), 2);
    }
}
