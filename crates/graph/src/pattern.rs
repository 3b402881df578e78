//! Sparsity-pattern helpers.
//!
//! Topological algorithms (BFS, components, triangles) care only about
//! *which* entries exist — the paper notes the core of these operations
//! "is topological … determined by the presence of non-zero values …
//! and not the exact value itself", and therefore holds over any
//! semiring. These helpers strip a weighted matrix to its pattern in the
//! value set each algorithm's semiring wants.

use hypersparse::{Dcsr, OpCtx};
use semiring::traits::{Semiring, Value};

/// Pattern in `u8` (value 1 everywhere) for [`semiring::AnyPair`] BFS.
pub fn pattern_u8<T: Value>(m: &Dcsr<T>) -> Dcsr<u8> {
    m.pattern(1u8)
}

/// Pattern in `u64` (value 1 everywhere) for [`semiring::MinFirst`]
/// parent tracking and min-label propagation.
pub fn pattern_u64<T: Value>(m: &Dcsr<T>) -> Dcsr<u64> {
    m.pattern(1u64)
}

/// Pattern in `f64` (value 1 everywhere) for the `+.×` triangle and
/// PageRank kernels.
pub fn pattern_f64<T: Value>(m: &Dcsr<T>) -> Dcsr<f64> {
    m.pattern(1.0f64)
}

/// `A ⊕ Aᵀ` — make a digraph pattern undirected (self-loops dropped).
pub fn symmetrize<T: Value, S: Semiring<Value = T>>(m: &Dcsr<T>, s: S) -> Dcsr<T> {
    hypersparse::with_default_ctx(|ctx| symmetrize_ctx(ctx, m, s))
}

/// [`symmetrize`] through an explicit execution context.
pub fn symmetrize_ctx<T: Value, S: Semiring<Value = T>>(ctx: &OpCtx, m: &Dcsr<T>, s: S) -> Dcsr<T> {
    let t = hypersparse::ops::transpose_ctx(ctx, m);
    let sym = hypersparse::ops::ewise_add_ctx(ctx, m, &t, s);
    hypersparse::ops::select_ctx(ctx, &sym, |r, c, _| r != c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersparse::Coo;
    use semiring::PlusTimes;

    fn weighted() -> Dcsr<f64> {
        let mut c = Coo::new(4, 4);
        c.extend([(0, 1, 2.5), (1, 2, 3.5), (2, 2, 1.0)]);
        c.build_dcsr(PlusTimes::<f64>::new())
    }

    #[test]
    fn patterns_preserve_structure() {
        let w = weighted();
        let p8 = pattern_u8(&w);
        let p64 = pattern_u64(&w);
        assert_eq!(p8.nnz(), w.nnz());
        assert_eq!(p64.nnz(), w.nnz());
        assert_eq!(p8.get(0, 1), Some(&1u8));
        assert_eq!(p64.get(1, 2), Some(&1u64));
    }

    #[test]
    fn symmetrize_adds_reverse_edges_drops_loops() {
        let w = weighted();
        let s = symmetrize(&w, PlusTimes::<f64>::new());
        assert_eq!(s.get(1, 0), Some(&2.5));
        assert_eq!(s.get(0, 1), Some(&2.5));
        assert_eq!(s.get(2, 2), None); // self-loop removed
    }
}
