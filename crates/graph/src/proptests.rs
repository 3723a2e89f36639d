//! Property-based tests over the graph substrate: CSR invariants,
//! algorithm cross-checks, and generator contracts on arbitrary inputs.

#![cfg(test)]

use proptest::prelude::*;

use crate::rng::Xoshiro256;
use crate::{algo, generators, Graph, GraphBuilder, NodeId};

/// Strategy: an arbitrary simple graph as (n, deduplicated edge list).
fn arbitrary_graph() -> impl Strategy<Value = Graph> {
    (2usize..50).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..120).prop_map(move |pairs| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in pairs {
                if u != v {
                    let _ = b.add_edge_if_absent(u, v);
                }
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_invariants(g in arbitrary_graph()) {
        // Degree sum = 2m.
        let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.m());
        // Neighbor lists are sorted, self-loop free, and symmetric.
        for v in g.nodes() {
            let nbrs = g.neighbors(v);
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
            for &w in nbrs {
                prop_assert!(w != v);
                prop_assert!(g.has_edge(w, v));
            }
        }
        // The canonical edge list agrees with adjacency.
        for &(u, v) in g.edges() {
            prop_assert!(u < v);
            prop_assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn bfs_distances_are_metric_like(g in arbitrary_graph(), s in 0usize..50) {
        let n = g.n();
        let source = NodeId::new(s % n);
        let d = algo::bfs_distances(&g, source);
        prop_assert_eq!(d[source.index()], 0);
        // Edge-wise 1-Lipschitz: reachable neighbors differ by at most 1.
        for &(u, v) in g.edges() {
            let (du, dv) = (d[u.index()], d[v.index()]);
            if du != algo::UNREACHABLE && dv != algo::UNREACHABLE {
                prop_assert!(du.abs_diff(dv) <= 1);
            } else {
                prop_assert_eq!(du, dv, "reachability is edge-closed");
            }
        }
    }

    #[test]
    fn components_partition_and_agree_with_bfs(g in arbitrary_graph()) {
        let (labels, k) = algo::connected_components(&g);
        prop_assert!(k >= 1 || g.n() == 0);
        for v in g.nodes() {
            let d = algo::bfs_distances(&g, v);
            for w in g.nodes() {
                let same = labels[v.index()] == labels[w.index()];
                let reachable = d[w.index()] != algo::UNREACHABLE;
                prop_assert_eq!(same, reachable);
            }
        }
    }

    #[test]
    fn girth_witnesses_are_consistent(g in arbitrary_graph()) {
        match algo::girth(&g) {
            None => {
                // A forest: m <= n - #components.
                let (_, k) = algo::connected_components(&g);
                prop_assert!(g.m() + k <= g.n());
            }
            Some(girth) => {
                prop_assert!(girth >= 3);
                // There must be at least `girth` edges.
                prop_assert!(g.m() >= girth);
            }
        }
    }

    #[test]
    fn spanner_stretch_universal(g in arbitrary_graph(), k in 1usize..4) {
        let s = algo::greedy_spanner(&g, k);
        prop_assert!(s.m() <= g.m());
        // Stretch on every edge of g (within components).
        for v in g.nodes() {
            let ds = algo::bfs_distances(&s, v);
            for &w in g.neighbors(v) {
                prop_assert!(ds[w.index()] != algo::UNREACHABLE, "spanner must span");
                prop_assert!(ds[w.index()] < 2 * k);
            }
        }
    }

    #[test]
    fn forest_decomposition_partitions_edges(g in arbitrary_graph()) {
        let forests = algo::forest_decomposition(&g);
        let total: usize = forests.iter().map(|f| f.edge_count()).sum();
        prop_assert_eq!(total, g.m());
        let degen = algo::degeneracy(&g).value;
        prop_assert!(forests.len() <= 2 * degen + 1, "{} forests, degeneracy {}", forests.len(), degen);
    }

    #[test]
    fn degeneracy_bounds(g in arbitrary_graph()) {
        let d = algo::degeneracy(&g);
        prop_assert!(d.value <= g.max_degree());
        // Average-degree lower bound: degeneracy >= avg_degree / 2.
        prop_assert!(
            (d.value as f64) >= g.average_degree() / 2.0 - 1e-9,
            "degeneracy {} below avg/2 = {}",
            d.value,
            g.average_degree() / 2.0
        );
        prop_assert_eq!(d.order.len(), g.n());
    }

    #[test]
    fn multi_source_bfs_is_min_of_singles(g in arbitrary_graph(), seed in 0u64..100) {
        let n = g.n();
        let mut rng = Xoshiro256::seed_from(seed);
        let count = 1 + rng.index(n.min(4));
        let sources: Vec<NodeId> = rng.sample_distinct(n, count).into_iter().map(NodeId::new).collect();
        let multi = algo::multi_source_bfs(&g, &sources);
        let singles: Vec<Vec<usize>> = sources.iter().map(|&s| algo::bfs_distances(&g, s)).collect();
        for v in g.nodes() {
            let expected = singles.iter().map(|d| d[v.index()]).min().unwrap();
            let got = if multi.reached(v) { multi.depth(v) } else { algo::UNREACHABLE };
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn edge_list_io_roundtrips(g in arbitrary_graph()) {
        let text = crate::io::to_edge_list(&g);
        let back = crate::io::parse_edge_list(&text).unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn random_generators_honor_their_contracts(n in 4usize..60, seed in 0u64..500) {
        let t = generators::random_tree(n, seed).unwrap();
        prop_assert_eq!(t.m(), n - 1);
        prop_assert!(algo::is_connected(&t));

        let g = generators::erdos_renyi_connected(n, 0.15, seed).unwrap();
        prop_assert!(algo::is_connected(&g));

        if n % 2 == 0 && n > 4 {
            let r = generators::random_regular(n, 3, seed).unwrap();
            prop_assert!(r.nodes().all(|v| r.degree(v) == 3));
        }
    }
}
