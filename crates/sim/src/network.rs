//! The [`Network`]: a topology bundled with the adversary's static choices.

use std::sync::{Arc, OnceLock};

use wakeup_graph::rng::Xoshiro256;
use wakeup_graph::{Graph, NodeId};

use wakeup_store::{Buf, SectionElem};

use crate::knowledge::{IdAssignment, KnowledgeMode, PortAssignment};

/// A network instance: graph topology plus the adversary's ID assignment and
/// port mappings, under a fixed knowledge mode.
///
/// Everything here is decided *before* the execution starts (the paper's
/// oblivious adversary): the engines never mutate a `Network`.
#[derive(Debug, Clone)]
pub struct Network {
    graph: Graph,
    ports: PortAssignment,
    ids: IdAssignment,
    mode: KnowledgeMode,
    /// Engine lookup tables, derived lazily on first engine construction and
    /// shared (via `Arc`) by every subsequent engine over this network —
    /// including clones, since cloning a populated cell clones the `Arc`.
    tables: OnceLock<Arc<NodeTables>>,
}

impl Network {
    /// A KT0 network with uniformly random, mutually independent port
    /// mappings (the distribution used by the Theorem 1 lower bound) and
    /// identity IDs.
    pub fn kt0(graph: Graph, seed: u64) -> Network {
        let mut rng = Xoshiro256::seed_from(seed);
        let ports = PortAssignment::random(&graph, &mut rng);
        let ids = IdAssignment::identity(graph.n());
        Network {
            graph,
            ports,
            ids,
            mode: KnowledgeMode::Kt0,
            tables: OnceLock::new(),
        }
    }

    /// A KT1 network with random IDs (a permutation of `0..n`, matching the
    /// Theorem 2 distribution) and canonical ports (ports are invisible to
    /// KT1 algorithms anyway).
    pub fn kt1(graph: Graph, seed: u64) -> Network {
        let mut rng = Xoshiro256::seed_from(seed);
        let n = graph.n();
        let ports = PortAssignment::canonical(&graph);
        let ids = IdAssignment::random_permutation(n, &mut rng);
        Network {
            graph,
            ports,
            ids,
            mode: KnowledgeMode::Kt1,
            tables: OnceLock::new(),
        }
    }

    /// Full control over every adversarial choice.
    pub fn with_parts(
        graph: Graph,
        ports: PortAssignment,
        ids: IdAssignment,
        mode: KnowledgeMode,
    ) -> Network {
        assert_eq!(ids.len(), graph.n(), "ID assignment must cover all nodes");
        Network {
            graph,
            ports,
            ids,
            mode,
            tables: OnceLock::new(),
        }
    }

    /// The topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The port mappings.
    pub fn ports(&self) -> &PortAssignment {
        &self.ports
    }

    /// The ID assignment.
    pub fn ids(&self) -> &IdAssignment {
        &self.ids
    }

    /// The knowledge mode.
    pub fn mode(&self) -> KnowledgeMode {
        self.mode
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Whether `from → to` is a directed channel of this network. Channels
    /// exist exactly over the graph's edges, in both directions — the fact
    /// the audit's edge-validity invariant checks recorded traffic against.
    #[cfg(feature = "audit")]
    pub fn is_channel(&self, from: NodeId, to: NodeId) -> bool {
        self.graph.has_edge(from, to)
    }

    /// Looks up the node with the given network ID (linear scan; intended
    /// for tests and report post-processing, not hot paths).
    pub fn node_with_id(&self, id: u64) -> Option<NodeId> {
        (0..self.n())
            .map(NodeId::new)
            .find(|&v| self.ids.id(v) == id)
    }

    /// The engine lookup tables, built on first use and cached. Concurrent
    /// first calls may race to build, but every caller observes the same
    /// winning `Arc` and the tables are a pure function of the network, so
    /// duplicates are merely discarded work.
    pub(crate) fn tables(&self) -> &Arc<NodeTables> {
        self.tables
            .get_or_init(|| Arc::new(NodeTables::build(self)))
    }

    /// Installs tables reloaded from the persistent artifact store, so the
    /// first engine over a baked network skips the derivation entirely. A
    /// no-op if the cell is already populated (the tables are a pure
    /// function of the network either way).
    pub(crate) fn preset_tables(&self, tables: NodeTables) {
        let _ = self.tables.set(Arc::new(tables));
    }
}

/// Two networks are equal when all adversarial choices agree: topology,
/// port mappings, ID assignment, and knowledge mode. The derived engine
/// tables are a pure function of those parts and are deliberately excluded
/// (a baked reload with pre-populated tables equals its cold-built twin).
impl PartialEq for Network {
    fn eq(&self, other: &Network) -> bool {
        self.graph == other.graph
            && self.ports == other.ports
            && self.ids == other.ids
            && self.mode == other.mode
    }
}

/// Borrowed-or-shared handle to a [`Network`], so the engines accept either
/// a plain reference (the classic entry points) or an `Arc` from an artifact
/// cache without cloning the topology in either case.
#[derive(Debug)]
pub(crate) enum NetHandle<'n> {
    /// Borrows a caller-owned network.
    Borrowed(&'n Network),
    /// Co-owns a cache-shared network (the `'static` case).
    Shared(Arc<Network>),
}

impl std::ops::Deref for NetHandle<'_> {
    type Target = Network;

    fn deref(&self) -> &Network {
        match self {
            NetHandle::Borrowed(net) => net,
            NetHandle::Shared(net) => net,
        }
    }
}

/// Engine-side lookup tables derived from a network (shared by both engines).
///
/// Besides the KT1 ID tables, this holds a *dense directed-edge index*: every
/// (node, port) pair gets a contiguous slot `edge_offset[v] + port - 1`, so
/// per-channel state (FIFO horizons, channel sequence numbers, port-usage
/// bits) lives in flat arrays instead of hash maps, and the receiver-side
/// port of every channel is precomputed instead of binary-searched per
/// delivery.
/// All buffers are flat and CSR-indexed by `edge_offset` — no per-node
/// `Vec`s. That keeps construction at a handful of allocations total
/// (the KT1 build used to pay ~2 heap allocations per node), and it is
/// what lets the persistent artifact store serve the large buffers as
/// zero-copy mmap views on reload (only the small KT1 `id_to_port`
/// pairing is copied, because a tuple has no store-viewable layout).
///
/// The fields are split hot/cold by access pattern: `edge_offset` and
/// `edge_hot` are touched once per *message* (every dispatch resolves
/// `(sender, port)` to the receiver and its reverse port), while
/// `neighbor_ids`/`id_to_port` are setup- and wake-time-only (KT1 node
/// initialization and ID-addressed sends). Interleaving the per-send pair
/// into [`EdgeHot`] means one cache line serves both lookups that used to
/// straddle two parallel arrays.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NodeTables {
    /// Degree prefix sums: node `v`'s directed-edge slots are
    /// `edge_offset[v] .. edge_offset[v + 1]` (length `n + 1`).
    pub edge_offset: Buf<usize>,
    /// `edge_hot[slot(v, p)]` = the per-send hot pair: the dense index of
    /// the neighbor reached from `v` via port `p` (the flat form of
    /// [`PortAssignment::neighbor`]) and the 1-based port at the
    /// *receiving* endpoint over which that neighbor sees `v` (the flat
    /// form of [`PortAssignment::port_to`]).
    pub edge_hot: Buf<EdgeHot>,
    /// Node `v`'s sorted neighbor IDs at `edge_offset[v]..edge_offset[v+1]`
    /// (fully empty under KT0); read via [`Self::neighbor_ids`].
    neighbor_ids: Buf<u64>,
    /// Node `v`'s sorted `(neighbor id, port)` pairs in the same ranges
    /// (fully empty under KT0 — KT0 contexts refuse ID addressing anyway);
    /// read via [`Self::id_to_port`].
    id_to_port: Vec<(u64, crate::knowledge::Port)>,
}

/// The per-directed-edge fields every message dispatch touches, interleaved
/// so one cache-line fetch resolves both. Stored by the artifact store as
/// one interleaved `u32` section (`to, rport, to, rport, …`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub(crate) struct EdgeHot {
    /// Dense index of the neighbor reached over this slot's port.
    pub to: u32,
    /// 1-based port at the receiving endpoint (the paper's `port_to`).
    pub rport: u32,
}

// Compile-time witnesses for the SectionElem layout contract below.
const _: () = assert!(std::mem::size_of::<EdgeHot>() == 8);
const _: () = assert!(std::mem::align_of::<EdgeHot>() == 4);

// SAFETY: `EdgeHot` is `repr(C)` over two `u32`s — 8 bytes, align 4, no
// padding or niches, and its in-memory little-endian representation is
// exactly the two interleaved `u32`s the store writes (asserted above).
#[allow(unsafe_code)]
unsafe impl SectionElem for EdgeHot {
    const WIDTH: u32 = 4;
    const ELEMS: usize = 2;
}

/// Node count below which [`NodeTables::build`] stays sequential: spawning
/// threads costs more than the fill saves.
const PARALLEL_BUILD_MIN_N: usize = 50_000;

impl NodeTables {
    pub(crate) fn build(net: &Network) -> NodeTables {
        let threads = if net.n() < PARALLEL_BUILD_MIN_N {
            1
        } else {
            crate::shard::threads_from_env()
        };
        Self::build_with_threads(net, threads)
    }

    /// Table construction with an explicit worker count. Every per-node
    /// output (sorted ID tables, directed-edge slots) depends only on that
    /// node's ports, so the node range is split into contiguous chunks whose
    /// output slices are disjoint — the result is byte-identical at any
    /// thread count, which the 1-vs-4-thread CI diff pins end to end.
    pub(crate) fn build_with_threads(net: &Network, threads: usize) -> NodeTables {
        let n = net.n();
        let mut edge_offset = Vec::with_capacity(n + 1);
        edge_offset.push(0usize);
        for v in 0..n {
            let deg = net.graph().degree(NodeId::new(v));
            edge_offset.push(edge_offset[v] + deg);
        }
        let dir_edges = edge_offset[n];
        let kt1 = net.mode() == KnowledgeMode::Kt1;
        let id_slots = if kt1 { dir_edges } else { 0 };
        let mut neighbor_ids = vec![0u64; id_slots];
        let mut id_to_port = vec![(0u64, crate::knowledge::Port::new(1)); id_slots];
        let mut edge_hot = vec![EdgeHot { to: 0, rport: 0 }; dir_edges];
        if threads <= 1 || n < 2 {
            fill_node_range(
                net,
                &edge_offset,
                0,
                n,
                &mut neighbor_ids,
                &mut id_to_port,
                &mut edge_hot,
            );
        } else {
            let chunk = n.div_ceil(threads.min(n));
            std::thread::scope(|scope| {
                let offsets = &edge_offset;
                let mut nb = neighbor_ids.as_mut_slice();
                let mut ip = id_to_port.as_mut_slice();
                let mut eh = edge_hot.as_mut_slice();
                let mut base = 0usize;
                while base < n {
                    let hi = (base + chunk).min(n);
                    let edges_here = offsets[hi] - offsets[base];
                    let ids_here = if kt1 { edges_here } else { 0 };
                    let (nb_head, nb_tail) = nb.split_at_mut(ids_here);
                    let (ip_head, ip_tail) = ip.split_at_mut(ids_here);
                    let (eh_head, eh_tail) = eh.split_at_mut(edges_here);
                    scope.spawn(move || {
                        fill_node_range(net, offsets, base, hi - base, nb_head, ip_head, eh_head);
                    });
                    nb = nb_tail;
                    ip = ip_tail;
                    eh = eh_tail;
                    base = hi;
                }
            });
        }
        NodeTables {
            edge_offset: edge_offset.into(),
            edge_hot: edge_hot.into(),
            neighbor_ids: neighbor_ids.into(),
            id_to_port,
        }
    }

    /// The directed-edge slot of `(v, port)`.
    #[inline]
    pub(crate) fn slot(&self, v: NodeId, port: crate::knowledge::Port) -> usize {
        self.edge_offset[v.index()] + port.index()
    }

    /// Total number of directed edges (= sum of degrees = 2m).
    pub(crate) fn directed_edges(&self) -> usize {
        *self.edge_offset.last().expect("offsets are non-empty")
    }

    /// Sorted neighbor IDs of node `v` (empty under KT0).
    #[inline]
    pub(crate) fn neighbor_ids(&self, v: usize) -> &[u64] {
        if self.neighbor_ids.is_empty() {
            return &[];
        }
        &self.neighbor_ids[self.edge_offset[v]..self.edge_offset[v + 1]]
    }

    /// Sorted `(neighbor id, port)` pairs of node `v` (empty under KT0).
    #[inline]
    pub(crate) fn id_to_port(&self, v: usize) -> &[(u64, crate::knowledge::Port)] {
        if self.id_to_port.is_empty() {
            return &[];
        }
        &self.id_to_port[self.edge_offset[v]..self.edge_offset[v + 1]]
    }

    /// The flat KT1 buffers `(neighbor_ids, id_to_port)`, consumed by the
    /// persistent artifact store (both empty under KT0).
    pub(crate) fn raw_id_tables(&self) -> (&[u64], &[(u64, crate::knowledge::Port)]) {
        (&self.neighbor_ids, &self.id_to_port)
    }

    /// Reassembles tables from store-loaded flat buffers (owned or
    /// zero-copy views). Structural consistency is debug-asserted; deeper
    /// invariants held when the artifact was baked from a valid build.
    pub(crate) fn from_raw_parts(
        edge_offset: Buf<usize>,
        edge_hot: Buf<EdgeHot>,
        neighbor_ids: Buf<u64>,
        id_to_port: Vec<(u64, crate::knowledge::Port)>,
    ) -> NodeTables {
        debug_assert!(!edge_offset.is_empty());
        let dir_edges = *edge_offset.last().unwrap();
        debug_assert_eq!(edge_hot.len(), dir_edges);
        debug_assert!(neighbor_ids.len() == dir_edges || neighbor_ids.is_empty());
        debug_assert_eq!(neighbor_ids.len(), id_to_port.len());
        NodeTables {
            edge_offset,
            edge_hot,
            neighbor_ids,
            id_to_port,
        }
    }
}

/// Fills the table rows for the `count` contiguous nodes starting at
/// `base`; the edge slices start at directed slot `edge_offset[base]` (the
/// ID slices are empty under KT0).
fn fill_node_range(
    net: &Network,
    edge_offset: &[usize],
    base: usize,
    count: usize,
    neighbor_ids: &mut [u64],
    id_to_port: &mut [(u64, crate::knowledge::Port)],
    edge_hot: &mut [EdgeHot],
) {
    let kt1 = net.mode() == KnowledgeMode::Kt1;
    let edge_base = edge_offset[base];
    for i in 0..count {
        let v = NodeId::new(base + i);
        let deg = net.graph().degree(v);
        let slot0 = edge_offset[base + i] - edge_base;
        if kt1 {
            let pairs = &mut id_to_port[slot0..slot0 + deg];
            for p in 1..=deg {
                let port = crate::knowledge::Port::new(p);
                let w = net.ports().neighbor(v, port);
                pairs[p - 1] = (net.ids().id(w), port);
            }
            pairs.sort_unstable_by_key(|&(id, _)| id);
            for (j, &(id, _)) in pairs.iter().enumerate() {
                neighbor_ids[slot0 + j] = id;
            }
        }
        for p in 1..=deg {
            let w = net.ports().neighbor(v, crate::knowledge::Port::new(p));
            let back = net
                .ports()
                .port_to(w, v)
                .expect("port maps are bijections onto neighbors");
            edge_hot[slot0 + p - 1] = EdgeHot {
                to: u32::try_from(w.index()).expect("node index fits u32"),
                rport: u32::try_from(back.number()).expect("port fits u32"),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wakeup_graph::generators;

    #[test]
    fn kt0_network_parts() {
        let net = Network::kt0(generators::cycle(6).unwrap(), 1);
        assert_eq!(net.mode(), KnowledgeMode::Kt0);
        assert_eq!(net.n(), 6);
        assert_eq!(net.ids().id(NodeId::new(2)), 2);
    }

    #[test]
    fn kt1_ids_are_permuted() {
        let net = Network::kt1(generators::path(40).unwrap(), 5);
        assert_eq!(net.mode(), KnowledgeMode::Kt1);
        let identity = (0..40).all(|v| net.ids().id(NodeId::new(v)) == v as u64);
        assert!(
            !identity,
            "a random permutation of 40 IDs should not be the identity"
        );
    }

    #[test]
    fn node_with_id_roundtrip() {
        let net = Network::kt1(generators::star(10).unwrap(), 3);
        for v in net.graph().nodes() {
            let id = net.ids().id(v);
            assert_eq!(net.node_with_id(id), Some(v));
        }
        assert_eq!(net.node_with_id(999), None);
    }

    #[test]
    fn parallel_table_build_is_byte_identical() {
        // The parallel fill must be indistinguishable from the sequential
        // one at every thread count, including counts that don't divide n.
        for kt1 in [false, true] {
            let g = generators::erdos_renyi_connected(97, 0.1, 11).unwrap();
            let net = if kt1 {
                Network::kt1(g, 11)
            } else {
                Network::kt0(g, 11)
            };
            let mode = net.mode();
            let seq = NodeTables::build_with_threads(&net, 1);
            for threads in [2usize, 3, 7, 128] {
                let par = NodeTables::build_with_threads(&net, threads);
                assert_eq!(seq, par, "{mode:?} {threads}");
            }
        }
    }

    #[test]
    fn parallel_table_build_is_byte_identical_for_new_families() {
        // Same guarantee over the scenario corpus's structured families:
        // the 4-regular torus (uniform degrees — even work split) and the
        // power-law family (hub nodes — maximally skewed work split).
        use wakeup_graph::families::{PowerLaw, Torus};
        let graphs = [
            Torus::new(6, 8).unwrap().graph().clone(),
            PowerLaw::new(80, 3, 5).unwrap().graph().clone(),
        ];
        for g in graphs {
            for kt1 in [false, true] {
                let net = if kt1 {
                    Network::kt1(g.clone(), 9)
                } else {
                    Network::kt0(g.clone(), 9)
                };
                let mode = net.mode();
                let seq = NodeTables::build_with_threads(&net, 1);
                for threads in [2usize, 3, 7, 128] {
                    let par = NodeTables::build_with_threads(&net, threads);
                    assert_eq!(seq, par, "{mode:?} {threads}");
                }
            }
        }
    }

    #[test]
    fn edge_index_matches_port_assignment() {
        // Random KT0 ports are the adversarial case: slots must agree with
        // the (permuted) port maps, not with neighbor order.
        for seed in 0..4 {
            let g = generators::erdos_renyi_connected(24, 0.25, seed).unwrap();
            let net = Network::kt0(g, seed);
            let tables = NodeTables::build(&net);
            assert_eq!(tables.edge_offset.len(), net.n() + 1);
            let m2: usize = net.graph().nodes().map(|v| net.graph().degree(v)).sum();
            assert_eq!(tables.directed_edges(), m2);
            assert_eq!(tables.edge_hot.len(), m2);
            for v in net.graph().nodes() {
                for p in 1..=net.graph().degree(v) {
                    let port = crate::knowledge::Port::new(p);
                    let slot = tables.slot(v, port);
                    assert!(
                        (tables.edge_offset[v.index()]..tables.edge_offset[v.index() + 1])
                            .contains(&slot)
                    );
                    let w = net.ports().neighbor(v, port);
                    assert_eq!(tables.edge_hot[slot].to as usize, w.index());
                    let back = net.ports().port_to(w, v).unwrap();
                    assert_eq!(tables.edge_hot[slot].rport as usize, back.number());
                    // The reverse slot maps back: following rport from w
                    // must reach v again.
                    let back_slot = tables.slot(w, back);
                    assert_eq!(tables.edge_hot[back_slot].to as usize, v.index());
                }
            }
        }
    }

    #[test]
    fn edge_index_slots_are_dense_and_disjoint() {
        let net = Network::kt1(generators::star(7).unwrap(), 2);
        let tables = NodeTables::build(&net);
        // Star: hub degree 6, leaves degree 1 => slots 0..6 hub, then one each.
        assert_eq!(&tables.edge_offset[..], &[0, 6, 7, 8, 9, 10, 11, 12]);
        let mut seen = std::collections::HashSet::new();
        for v in net.graph().nodes() {
            for p in 1..=net.graph().degree(v) {
                assert!(seen.insert(tables.slot(v, crate::knowledge::Port::new(p))));
            }
        }
        assert_eq!(seen.len(), tables.directed_edges());
    }

    #[test]
    #[should_panic(expected = "cover all nodes")]
    fn mismatched_ids_rejected() {
        let g = generators::path(3).unwrap();
        let ports = PortAssignment::canonical(&g);
        let ids = IdAssignment::identity(2);
        Network::with_parts(g, ports, ids, KnowledgeMode::Kt0);
    }
}
