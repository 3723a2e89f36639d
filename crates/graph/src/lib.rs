//! Graph substrate for the adversarial wake-up reproduction.
//!
//! This crate provides everything the simulator and the wake-up algorithms
//! need to know about network topologies:
//!
//! * a compact, immutable [`Graph`] representation (CSR adjacency) with a
//!   validating [`GraphBuilder`],
//! * deterministic pseudo-random streams ([`rng`]) used by every randomized
//!   component in the workspace (so experiments reproduce bit-for-bit),
//! * standard generators ([`generators`]): paths, cycles, stars, complete and
//!   complete-bipartite graphs, grids, hypercubes, trees, G(n, p), random
//!   regular graphs, barbells and lollipops,
//! * the paper's lower-bound families ([`families`]): the KT0 class 𝒢 and the
//!   high-girth KT1 class 𝒢ₖ,
//! * graph algorithms ([`algo`]): BFS forests, DFS, connected components,
//!   exact diameter and girth, greedy (2k−1)-spanners, forest decompositions,
//!   and the paper's *awake distance* ρ_awk.
//!
//! # Example
//!
//! ```
//! use wakeup_graph::{generators, algo};
//!
//! let g = generators::cycle(8).expect("valid size");
//! assert_eq!(g.n(), 8);
//! assert_eq!(g.m(), 8);
//! let diameter = algo::diameter(&g).expect("connected");
//! assert_eq!(diameter, 4);
//! ```

// `deny` rather than `forbid`: the one sanctioned exception is the
// `SectionElem` marker impl for `NodeId` in `graph.rs` (no unsafe *code*,
// just a layout assertion the store's zero-copy views rely on).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod families;
pub mod generators;
pub mod graph;
pub mod io;
mod proptests;
pub mod rng;

pub use graph::{Graph, GraphBuilder, GraphError, NodeId};
