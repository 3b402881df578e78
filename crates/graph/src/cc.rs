//! Connected components by min-label propagation.
//!
//! Every vertex starts labelled with its own id; each sweep replaces a
//! label with the minimum over its neighbours' labels — a `vᵀA` over the
//! [`semiring::MinFirst`] operator bundle. At the fixpoint, every vertex
//! in a component carries the component's smallest vertex id.

use hypersparse::ops::mxv::vxm_opt_ctx;
use hypersparse::{with_default_ctx, Dcsr, Ix, OpCtx, SparseVec};
use semiring::MinFirst;

use crate::Graph;

/// Connected components of an *undirected* graph given as a symmetric
/// `u64` pattern (see [`crate::pattern::pattern_u64`] +
/// [`crate::pattern::symmetrize`]). Returns `(vertex, component)` pairs
/// sorted by vertex, where `component` is the smallest vertex id in the
/// component. Vertices with no incident edges are not represented.
pub fn connected_components(pat: &Dcsr<u64>) -> Vec<(Ix, Ix)> {
    with_default_ctx(|ctx| connected_components_ctx(ctx, &Graph::new(pat)))
}

/// [`connected_components`] over a [`Graph`] through an explicit
/// execution context.
pub fn connected_components_ctx(ctx: &OpCtx, g: &Graph<u64>) -> Vec<(Ix, Ix)> {
    let s = MinFirst;
    let pat = g.adjacency();
    let n = pat.nrows();

    // Initial labels: every incident vertex labels itself (1-shifted so
    // that 0 can be the "absent" zero of MinFirst).
    let mut verts: Vec<Ix> = pat.row_ids().to_vec();
    verts.extend(pat.iter().map(|(_, c, _)| c));
    verts.sort_unstable();
    verts.dedup();
    let mut labels = SparseVec::from_entries(n, verts.iter().map(|&v| (v, v + 1)).collect(), s);

    // The label vector is dense over incident vertices, so the first
    // sweep pushes every edge (paying for the transpose) and later
    // sweeps typically pull; ⊕ = min makes either direction
    // bit-identical.
    loop {
        let prop = vxm_opt_ctx(ctx, &labels, pat, g.transpose_for(ctx, &labels), None, s);
        let next = labels.ewise_add(&prop, s);
        if next == labels {
            break;
        }
        labels = next;
    }
    labels.iter().map(|(v, &l)| (v, l - 1)).collect()
}

/// Number of distinct components in a labelling.
pub fn count_components(labels: &[(Ix, Ix)]) -> usize {
    let mut ids: Vec<Ix> = labels.iter().map(|&(_, c)| c).collect();
    ids.sort_unstable();
    ids.dedup();
    ids.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{pattern_u64, symmetrize};
    use hypersparse::Coo;
    use semiring::PlusTimes;

    fn sym(edges: &[(Ix, Ix)], n: Ix) -> Dcsr<u64> {
        let mut c = Coo::new(n, n);
        for &(a, b) in edges {
            c.push(a, b, 1.0);
        }
        let w = c.build_dcsr(PlusTimes::<f64>::new());
        pattern_u64(&symmetrize(&w, PlusTimes::<f64>::new()))
    }

    #[test]
    fn two_components() {
        let g = sym(&[(0, 1), (1, 2), (4, 5)], 8);
        let labels = connected_components(&g);
        assert_eq!(labels, vec![(0, 0), (1, 0), (2, 0), (4, 4), (5, 4)]);
        assert_eq!(count_components(&labels), 2);
    }

    #[test]
    fn chain_collapses_to_min() {
        let g = sym(&[(5, 4), (4, 3), (3, 2), (2, 1), (1, 0)], 8);
        let labels = connected_components(&g);
        assert!(labels.iter().all(|&(_, c)| c == 0));
    }

    #[test]
    fn singleton_edges() {
        let g = sym(&[(6, 7)], 8);
        let labels = connected_components(&g);
        assert_eq!(labels, vec![(6, 6), (7, 6)]);
    }

    #[test]
    fn empty_graph() {
        let g = Dcsr::<u64>::empty(8, 8);
        assert!(connected_components(&g).is_empty());
    }
}
