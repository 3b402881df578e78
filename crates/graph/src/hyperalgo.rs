//! Algorithms directly on hypergraphs — traversal in the bipartite
//! vertex/edge incidence structure, no adjacency projection needed.
//!
//! A hyper-BFS step alternates two `vᵀE` products: vertices activate the
//! edges leaving them (`f ⊕.⊗ E_outᵀ`… transposed view), then active
//! edges deliver their full head-sets (`q ⊕.⊗ E_in`). This traverses a
//! hyperedge *once* even when it fans out to many heads, which the
//! projected adjacency cannot do — the practical payoff of Fig. 2's
//! incidence representation.

use hypersparse::ops::mxv::{vxm_ctx, vxm_opt_ctx};
use hypersparse::ops::transpose_ctx;
use hypersparse::{with_default_ctx, Dcsr, Ix, SparseVec};
use semiring::AnyPair;

use crate::frontier::Visited;
use crate::hypergraph::Hypergraph;

/// Pattern views of a hypergraph's incidence arrays in the any-pair
/// algebra (edge × vertex).
pub struct IncidencePatterns {
    /// `E_out` pattern, transposed to vertex × edge (tail incidence).
    pub out_t: Dcsr<u8>,
    /// `E_in` pattern, edge × vertex (head incidence).
    pub in_: Dcsr<u8>,
}

/// Build the traversal patterns once per hypergraph.
pub fn incidence_patterns(h: &Hypergraph) -> IncidencePatterns {
    IncidencePatterns {
        out_t: with_default_ctx(|ctx| transpose_ctx(ctx, &h.e_out().pattern(1u8))),
        in_: h.e_in().pattern(1u8),
    }
}

/// Hyper-BFS levels from `src`: each level is a vertex→edge→vertex double
/// hop. Returns `(vertex, level)` sorted by vertex.
pub fn hyper_bfs(p: &IncidencePatterns, src: Ix) -> Vec<(Ix, u32)> {
    let s = AnyPair;
    let mut visited = Visited::new(p.in_.ncols(), p.in_.nnz(), src, 0u32);
    let mut frontier = SparseVec::from_entries(p.out_t.nrows(), vec![(src, 1u8)], s);
    let mut level = 0u32;
    with_default_ctx(|ctx| {
        while !frontier.is_empty() {
            level += 1;
            // vertices → active out-edges → delivered head vertices, the
            // visited set masked off inside the head hop.
            let edges = vxm_ctx(ctx, &frontier, &p.out_t, s);
            let next = vxm_opt_ctx(ctx, &edges, &p.in_, None, Some(visited.mask()), s);
            visited.absorb(next.indices(), vec![level; next.nnz()]);
            frontier = next;
        }
    });
    visited.into_sorted()
}

/// Connected components of the *undirected reading* of a hypergraph
/// (vertices sharing any hyperedge, in either role, are connected).
/// Returns `(vertex, component)` with the component labelled by its
/// smallest vertex.
pub fn hyper_components(h: &Hypergraph) -> Vec<(Ix, Ix)> {
    // Union incidence (tail ∪ head), undirected: vertex—edge bipartite
    // connectivity via repeated min-label exchange.
    let s = semiring::MinFirst;
    let inc = {
        let mut c = hypersparse::Coo::new(h.n_edges.max(1), h.n_vertices);
        for (k, v, _) in h.e_out().iter() {
            c.push(k, v, 1u64);
        }
        for (k, v, _) in h.e_in().iter() {
            c.push(k, v, 1u64);
        }
        c.build_dcsr(s)
    };

    // Vertex labels (1-shifted); iterate v→e→v min-label exchange.
    let verts: Vec<Ix> = {
        let mut v: Vec<Ix> = inc.iter().map(|(_, c, _)| c).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let mut labels =
        SparseVec::from_entries(h.n_vertices, verts.iter().map(|&v| (v, v + 1)).collect(), s);
    with_default_ctx(|ctx| {
        let inc_t = transpose_ctx(ctx, &inc);
        loop {
            let edge_min = vxm_ctx(ctx, &labels, &inc_t, s); // per-edge min member label
            let back = vxm_ctx(ctx, &edge_min, &inc, s); // delivered to every member
            let next = labels.ewise_add(&back, s);
            if next == labels {
                break;
            }
            labels = next;
        }
    });
    labels.iter().map(|(v, &l)| (v, l - 1)).collect()
}

/// The size of each hyperedge (|tails| + |heads|) — the arity histogram
/// behind Fig. 2's hyper-edge illustration.
pub fn edge_arities(h: &Hypergraph) -> Vec<(Ix, usize)> {
    let e_out = h.e_out();
    let e_in = h.e_in();
    let mut arity: std::collections::BTreeMap<Ix, usize> = Default::default();
    for (k, cols, _) in e_out.iter_rows() {
        *arity.entry(k).or_insert(0) += cols.len();
    }
    for (k, cols, _) in e_in.iter_rows() {
        *arity.entry(k).or_insert(0) += cols.len();
    }
    arity.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs_levels;
    use crate::pattern::pattern_u8;

    /// Chain 0→1→2 plus a broadcast hyperedge {2}→{5,6,7}.
    fn h() -> Hypergraph {
        let mut h = Hypergraph::new(16);
        h.add_edge(0, 1, 1.0);
        h.add_edge(1, 2, 1.0);
        h.add_hyperedge(&[2], &[5, 6, 7], 1.0);
        h
    }

    #[test]
    fn hyper_bfs_crosses_hyperedges_in_one_hop() {
        let hg = h();
        let p = incidence_patterns(&hg);
        let lv = hyper_bfs(&p, 0);
        let get = |v: Ix| lv.iter().find(|&&(x, _)| x == v).map(|&(_, l)| l);
        assert_eq!(get(0), Some(0));
        assert_eq!(get(2), Some(2));
        // All three heads of the hyperedge arrive together at level 3.
        assert_eq!(get(5), Some(3));
        assert_eq!(get(6), Some(3));
        assert_eq!(get(7), Some(3));
    }

    #[test]
    fn hyper_bfs_agrees_with_projected_bfs_on_simple_graphs() {
        // Without hyperedges, incidence BFS ≡ adjacency BFS.
        let mut hg = Hypergraph::new(16);
        for (a, b) in [(0u64, 1u64), (1, 2), (2, 3), (0, 4), (4, 3)] {
            hg.add_edge(a, b, 1.0);
        }
        let p = incidence_patterns(&hg);
        let by_incidence = hyper_bfs(&p, 0);
        let adj = hg.adjacency(semiring::PlusTimes::<f64>::new());
        let by_adjacency = bfs_levels(&pattern_u8(&adj), 0);
        assert_eq!(by_incidence, by_adjacency);
    }

    #[test]
    fn components_bridge_through_hyperedges() {
        let mut hg = Hypergraph::new(16);
        hg.add_edge(0, 1, 1.0);
        hg.add_edge(3, 4, 1.0);
        // One hyperedge touching both groups merges them.
        hg.add_hyperedge(&[1, 3], &[9], 1.0);
        let comps = hyper_components(&hg);
        let get = |v: Ix| comps.iter().find(|&&(x, _)| x == v).map(|&(_, c)| c);
        assert_eq!(get(0), Some(0));
        assert_eq!(get(4), Some(0));
        assert_eq!(get(9), Some(0));
    }

    #[test]
    fn disconnected_pieces_stay_apart() {
        let mut hg = Hypergraph::new(16);
        hg.add_edge(0, 1, 1.0);
        hg.add_edge(5, 6, 1.0);
        let comps = hyper_components(&hg);
        let get = |v: Ix| comps.iter().find(|&&(x, _)| x == v).map(|&(_, c)| c);
        assert_eq!(get(1), Some(0));
        assert_eq!(get(6), Some(5));
    }

    #[test]
    fn arities_count_both_roles() {
        let hg = h();
        let ar = edge_arities(&hg);
        assert_eq!(ar, vec![(0, 2), (1, 2), (2, 4)]); // 1 tail + 3 heads
    }
}
