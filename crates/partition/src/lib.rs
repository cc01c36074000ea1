//! Multilevel k-way graph partitioning — a from-scratch METIS substitute.
//!
//! NSU3D feeds the adjacency graph of every multigrid level to METIS
//! (Karypis & Kumar's multilevel scheme, paper reference \[10\]) and demands
//! two extra features reproduced here:
//!
//! * **implicit-line contraction** ([`lines`]) — the mesh's implicit solver
//!   lines are collapsed to single weighted vertices before partitioning so
//!   that no line is ever broken across a partition boundary;
//! * **inter-level matching** ([`levels`]) — coarse- and fine-level
//!   partitions are produced independently and then matched greedily by
//!   overlap, trading inter-level transfer locality for intra-level balance
//!   (the paper found intra-level optimality dominates).
//!
//! The partitioner itself is the classical multilevel scheme: heavy-edge
//! matching coarsens the graph ([`coarsen`]), a BFS region-growing heuristic
//! partitions the coarsest graph ([`initial`]), and boundary
//! Fiduccia-Mattheyses passes refine the projection back up ([`refine`]).

#![forbid(unsafe_code)]

pub mod coarsen;
pub mod graph;
pub mod initial;
pub mod kway;
pub mod levels;
pub mod lines;
pub mod quality;
pub mod refine;

pub use graph::Graph;
pub use kway::{partition_graph, PartitionConfig};
pub use levels::match_levels;
pub use lines::{contract_lines, expand_line_partition};
pub use quality::PartitionQuality;
