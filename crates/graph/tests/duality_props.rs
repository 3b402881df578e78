//! Property-based duality checks: for random graphs, the semiring
//! (array) formulation and the pointer-chasing (graph) formulation of
//! each algorithm must agree — Fig. 1 as a theorem, not a picture.

use graph::baseline::{bfs_queue, cc_union_find, dijkstra, triangles_wedge, AdjList};
use graph::bfs::{bfs_levels, bfs_parents};
use graph::cc::connected_components;
use graph::hyperalgo::{hyper_bfs, hyper_components, incidence_patterns};
use graph::hypergraph::{incidence_to_adjacency, incidence_to_adjacency_baseline, Hypergraph};
use graph::pattern::{pattern_u64, pattern_u8, symmetrize};
use graph::sssp::sssp;
use graph::triangles::triangle_count;
use hypersparse::{Coo, Dcsr, Ix};
use proptest::prelude::*;
use semiring::PlusTimes;

const N: Ix = 24;

fn edges() -> impl Strategy<Value = Vec<(Ix, Ix, f64)>> {
    proptest::collection::vec(
        (0..N, 0..N, 1u32..10).prop_map(|(a, b, w)| (a, b, w as f64)),
        0..80,
    )
}

fn mk(e: Vec<(Ix, Ix, f64)>) -> Dcsr<f64> {
    let mut c = Coo::new(N, N);
    // Dedup positions (keep first weight) so multigraph weights don't
    // accumulate — baselines assume simple graphs.
    let mut seen = std::collections::HashSet::new();
    for (a, b, w) in e {
        if a != b && seen.insert((a, b)) {
            c.push(a, b, w);
        }
    }
    c.build_dcsr(PlusTimes::<f64>::new())
}

fn sorted_unique(mut v: Vec<Ix>) -> Vec<Ix> {
    v.sort_unstable();
    v.dedup();
    v
}

/// Random hyper-multi-graphs over `N` vertices: ordinary edges, each
/// added once to three times (multi-edges, and self-loops when
/// `a == b`); hyperedges whose tail and head sets may share vertices
/// (self-incidence); and the last four vertices never incident.
fn hypergraphs() -> impl Strategy<Value = Hypergraph> {
    let members = || proptest::collection::vec(0..N - 4, 1..4);
    (
        proptest::collection::vec((0..N - 4, 0..N - 4, 1..4usize), 0..24),
        proptest::collection::vec((members(), members()), 0..6),
    )
        .prop_map(|(simple, hyper)| {
            let mut h = Hypergraph::new(N);
            for (a, b, copies) in simple {
                for _ in 0..copies {
                    h.add_edge(a, b, 1.0);
                }
            }
            for (srcs, dsts) in hyper {
                h.add_hyperedge(&sorted_unique(srcs), &sorted_unique(dsts), 1.0);
            }
            h
        })
}

proptest! {
    #[test]
    fn bfs_levels_match_queue_bfs(e in edges(), src in 0..N) {
        let g = mk(e);
        let lv = bfs_levels(&pattern_u8(&g), src);
        let q = bfs_queue(&AdjList::from_pattern(&g), src);
        let mut want: Vec<(Ix, u32)> = q
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l != u32::MAX)
            .map(|(v, &l)| (v as Ix, l))
            .collect();
        want.sort_by_key(|x| x.0);
        prop_assert_eq!(lv, want);
    }

    #[test]
    fn bfs_parents_are_consistent_with_levels(e in edges(), src in 0..N) {
        let g = mk(e);
        let levels: std::collections::HashMap<Ix, u32> =
            bfs_levels(&pattern_u8(&g), src).into_iter().collect();
        let parents = bfs_parents(&pattern_u64(&g), src);
        prop_assert_eq!(parents.len(), levels.len());
        for (v, p) in parents {
            if v == src {
                prop_assert_eq!(p, src);
            } else {
                prop_assert_eq!(levels[&p] + 1, levels[&v]);
                prop_assert!(g.get(p, v).is_some());
            }
        }
    }

    #[test]
    fn bellman_ford_matches_dijkstra(e in edges(), src in 0..N) {
        let g = mk(e);
        let d_bf = sssp(&g, src);
        let d_dij = dijkstra(&AdjList::from_weighted(&g), src);
        let reached: std::collections::HashSet<Ix> = d_bf.iter().map(|&(v, _)| v).collect();
        for (v, d) in &d_bf {
            prop_assert!((d - d_dij[*v as usize]).abs() < 1e-9);
        }
        for (v, &d) in d_dij.iter().enumerate() {
            prop_assert_eq!(d.is_finite(), reached.contains(&(v as Ix)));
        }
    }

    #[test]
    fn label_prop_matches_union_find(e in edges()) {
        let s = PlusTimes::<f64>::new();
        let g = symmetrize(&mk(e), s);
        let labels = connected_components(&pattern_u64(&g));
        let edge_list: Vec<(Ix, Ix)> = g.iter().map(|(r, c, _)| (r, c)).collect();
        let uf = cc_union_find(N as usize, &edge_list);
        for (v, comp) in labels {
            prop_assert_eq!(comp as usize, uf[v as usize]);
        }
    }

    #[test]
    fn masked_spgemm_matches_wedge_count(e in edges()) {
        let s = PlusTimes::<f64>::new();
        let g = symmetrize(&mk(e), s);
        prop_assert_eq!(triangle_count(&g), triangles_wedge(&AdjList::from_pattern(&g)));
    }

    #[test]
    fn incidence_projection_matches_hash_baseline(
        simple in edges(),
        hyper in proptest::collection::vec(
            (proptest::collection::vec(0..N, 1..4), proptest::collection::vec(0..N, 1..4)),
            0..6
        ),
    ) {
        let mut h = Hypergraph::new(N);
        for (a, b, w) in simple.into_iter().take(30) {
            h.add_edge(a, b, w);
        }
        for (srcs, dsts) in hyper {
            let srcs: Vec<Ix> = {
                let mut v = srcs;
                v.sort_unstable();
                v.dedup();
                v
            };
            let dsts: Vec<Ix> = {
                let mut v = dsts;
                v.sort_unstable();
                v.dedup();
                v
            };
            h.add_hyperedge(&srcs, &dsts, 1.0);
        }
        let s = PlusTimes::<f64>::new();
        let a = incidence_to_adjacency(&h.e_out(), &h.e_in(), s);
        let got: Vec<(Ix, Ix, f64)> = a.iter().map(|(i, j, &v)| (i, j, v)).collect();
        let want = incidence_to_adjacency_baseline(&h.e_out(), &h.e_in());
        prop_assert_eq!(got, want);
    }

    /// Fig. 2's traversal is Fig. 3's: hyper-BFS on the incidence
    /// arrays reaches every vertex at the level BFS on the projected
    /// adjacency's pattern does.
    #[test]
    fn hyper_bfs_matches_bfs_on_projection(h in hypergraphs(), src in 0..N) {
        let a = h.adjacency(PlusTimes::<f64>::new());
        prop_assert_eq!(
            hyper_bfs(&incidence_patterns(&h), src),
            bfs_levels(&pattern_u8(&a), src)
        );
    }

    /// Hyper-components label each incident vertex with the smallest
    /// vertex it shares a chain of hyperedges with, which is union-find's
    /// representative over hyperedge co-membership (tails and heads
    /// alike); vertices with no incidence get no label.
    #[test]
    fn hyper_components_match_union_find(h in hypergraphs()) {
        let (e_out, e_in) = (h.e_out(), h.e_in());
        let mut members: Vec<Vec<Ix>> = vec![Vec::new(); h.n_edges as usize];
        for (k, v, _) in e_out.iter().chain(e_in.iter()) {
            members[k as usize].push(v);
        }
        let co_membership: Vec<(Ix, Ix)> = members
            .iter()
            .flat_map(|m| m.iter().map(move |&v| (m[0], v)))
            .collect();
        let uf = cc_union_find(N as usize, &co_membership);
        let incident = sorted_unique(members.concat());
        let want: Vec<(Ix, Ix)> = incident.iter().map(|&v| (v, uf[v as usize] as Ix)).collect();
        prop_assert_eq!(hyper_components(&h), want);
    }
}
