//! Graph substrate for the SCAN reproduction: a compressed-sparse-row
//! representation of simple undirected graphs (optionally weighted),
//! parallel construction from edge lists, synthetic workload generators
//! standing in for the paper's datasets (§7.1, Table 2), degree-ordered
//! orientation for triangle counting (§6.1), and binary/text I/O.
//!
//! Vertices are indexed by [`VertexId`] (`u32`), matching the paper's
//! assumption that vertex ids are integers in `[1, n]` (we use `[0, n)`).

pub mod builder;
pub mod codec;
pub mod csr;
pub mod directed;
pub mod generators;
pub mod intersect;
pub mod io;
pub mod metis;
pub mod patch;
pub mod stats;

pub use builder::{from_edges, from_weighted_edges};
pub use csr::{CsrGraph, VertexId};
pub use directed::DegreeOrderedDag;
