//! Breadth-first search as array multiplication — Fig. 1's duality.
//!
//! One BFS sweep is one `vᵀA` over the cheapest possible semiring
//! ([`semiring::AnyPair`]): the frontier vector is scattered along its
//! rows, visited vertices are masked off, and the survivors are the next
//! frontier. Parent tracking swaps in [`semiring::MinFirst`], whose ⊗
//! carries the *source* vertex id through each edge and whose ⊕ picks
//! the smallest — a deterministic BFS tree.
//!
//! # One-step vs two-step parent BFS
//!
//! "Algebraic Conditions on One-Step Breadth-First Search" observes
//! that the per-level work — next frontier *and* parent assignment —
//! collapses into a **single** masked `vᵀA` exactly when the semiring's
//! ⊕ is selective and order-free and its ⊗ carries the left (frontier)
//! operand; otherwise the product's values are blends that cannot be
//! trusted as parents and the level needs **two** products: a cheap
//! [`AnyPair`] reachability pass for the frontier plus a payload pass
//! for the folded values. [`parent_bfs_with`] does not hard-code a list
//! of good semirings — it reads [`Semiring::ONE_STEP`], which a
//! semiring declares in its own `impl` block and
//! `semiring/tests/onestep_laws.rs` holds to the verdict of
//! [`semiring::onestep::probe`], and picks [`BfsVariant::OneStep`] or
//! [`BfsVariant::TwoStep`] accordingly; the property suite in
//! `tests/onestep_props.rs` proves the two variants agree wherever the
//! conditions admit the fused form.

use std::time::Instant;

use hypersparse::ctx::OpCtx;
use hypersparse::metrics::Kernel;
use hypersparse::ops::mxv::{choose_direction, vxm_opt_ctx};
use hypersparse::ops::transpose_ctx;
use hypersparse::{with_default_ctx, Dcsr, Direction, Ix, SparseVec};
use semiring::{AnyPair, MinFirst, Semiring};

use crate::frontier::Visited;
use crate::pattern::pattern_u8;

/// Which per-level strategy [`parent_bfs_with`] selected for a
/// semiring — decided by the semiring's declared (and law-checked)
/// [`Semiring::ONE_STEP`], not by a type list.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BfsVariant {
    /// Every condition of `semiring::onestep` held: one masked `vᵀA`
    /// per level yields frontier and parent payloads simultaneously.
    OneStep,
    /// Some condition failed: each level runs an [`AnyPair`]
    /// reachability product plus a separate payload product.
    TwoStep,
}

/// BFS levels from `src` over a `u8` pattern (see
/// [`crate::pattern::pattern_u8`]). Returns `(vertex, level)` pairs
/// sorted by vertex, `src` at level 0; unreachable vertices are absent.
///
/// Each level is one fused masked expansion `(fᵀA) ⊙ ¬visited`
/// ([`vxm_opt_ctx`]) — direction-optimized once the frontier is
/// dense enough to justify building the transpose, which then persists
/// for the remaining levels.
pub fn bfs_levels(pat: &Dcsr<u8>, src: Ix) -> Vec<(Ix, u32)> {
    let s = AnyPair;
    let n = pat.nrows();
    let mut out: Vec<(Ix, u32)> = vec![(src, 0)];
    let mut visited = Visited::with_seed(src);
    let mut frontier = SparseVec::from_entries(n, vec![(src, 1u8)], s);
    let mut at: Option<Dcsr<u8>> = None;
    let mut level = 0u32;
    with_default_ctx(|ctx| {
        while !frontier.is_empty() {
            level += 1;
            if at.is_none() && choose_direction(&frontier, pat, true) == Direction::Pull {
                at = Some(transpose_ctx(ctx, pat));
            }
            // q = (fᵀ A) ⊙ ¬visited — the Fig. 1 array operation, masked
            // inside the kernel.
            let next = vxm_opt_ctx(
                ctx,
                &frontier,
                pat,
                at.as_ref(),
                Some(visited.as_slice()),
                s,
            );
            for (v, _) in next.iter() {
                out.push((v, level));
            }
            visited.absorb_sorted(next.indices());
            frontier = next;
        }
    });
    out.sort_by_key(|e| e.0);
    out
}

/// The fused **one-step** parent BFS: one masked `vᵀA` over `s` per
/// level, the product trusted verbatim as next frontier *and* parent
/// payloads. Sound only when [`Semiring::ONE_STEP`] holds for `S`;
/// exposed so the property suite can run it unconditionally and compare
/// against [`parent_bfs_two_step_ctx`].
///
/// Frontier vertices carry their own 1-shifted id (`v + 1`); returns
/// `(vertex, payload)` pairs sorted by vertex, `src` seeded with
/// `src + 1`.
pub fn parent_bfs_fused_ctx<S>(ctx: &OpCtx, pat: &Dcsr<u64>, src: Ix, s: S) -> Vec<(Ix, u64)>
where
    S: Semiring<Value = u64>,
{
    let n = pat.nrows();
    let mut out: Vec<(Ix, u64)> = vec![(src, src + 1)];
    let mut visited = Visited::with_seed(src);
    let mut frontier = SparseVec::from_entries(n, vec![(src, src + 1)], s);
    let mut at: Option<Dcsr<u64>> = None;
    while !frontier.is_empty() {
        if at.is_none() && choose_direction(&frontier, pat, true) == Direction::Pull {
            at = Some(transpose_ctx(ctx, pat));
        }
        let next = vxm_opt_ctx(
            ctx,
            &frontier,
            pat,
            at.as_ref(),
            Some(visited.as_slice()),
            s,
        );
        out.extend(next.iter().map(|(v, &payload)| (v, payload)));
        visited.absorb_sorted(next.indices());
        // Re-stamp the new frontier with its own ids for the next hop.
        frontier = SparseVec::from_entries(n, next.iter().map(|(v, _)| (v, v + 1)).collect(), s);
    }
    out.sort_by_key(|e| e.0);
    out
}

/// The **two-step** fallback: per level, an [`AnyPair`] product over the
/// `u8` shadow pattern decides reachability (always sound), and a
/// second product over `s` folds the payloads. A vertex the payload
/// product cancelled to the semiring `0` is still discovered — it
/// appears with payload `s.zero()` — which is exactly the case that
/// makes the fused variant unsound for non-selective ⊕.
pub fn parent_bfs_two_step_ctx<S>(ctx: &OpCtx, pat: &Dcsr<u64>, src: Ix, s: S) -> Vec<(Ix, u64)>
where
    S: Semiring<Value = u64>,
{
    let n = pat.nrows();
    let pat8 = pattern_u8(pat);
    let mut out: Vec<(Ix, u64)> = vec![(src, src + 1)];
    let mut visited = Visited::with_seed(src);
    let mut reach = SparseVec::from_entries(n, vec![(src, 1u8)], AnyPair);
    let mut stamped = SparseVec::from_entries(n, vec![(src, src + 1)], s);
    let mut at8: Option<Dcsr<u8>> = None;
    let mut at: Option<Dcsr<u64>> = None;
    while !reach.is_empty() {
        if at8.is_none() && choose_direction(&reach, &pat8, true) == Direction::Pull {
            at8 = Some(transpose_ctx(ctx, &pat8));
            at = Some(transpose_ctx(ctx, pat));
        }
        // Step 1: who is reachable this level (pattern algebra, exact).
        let next = vxm_opt_ctx(
            ctx,
            &reach,
            &pat8,
            at8.as_ref(),
            Some(visited.as_slice()),
            AnyPair,
        );
        // Step 2: what the semiring folds onto them.
        let vals = vxm_opt_ctx(ctx, &stamped, pat, at.as_ref(), Some(visited.as_slice()), s);
        for (v, _) in next.iter() {
            let payload = vals.get(&v).cloned().unwrap_or_else(|| s.zero());
            out.push((v, payload));
        }
        visited.absorb_sorted(next.indices());
        stamped = SparseVec::from_entries(n, next.iter().map(|(v, _)| (v, v + 1)).collect(), s);
        reach = next;
    }
    out.sort_by_key(|e| e.0);
    out
}

/// Parent-style BFS from `src` over a `u64` pattern, with the per-level
/// strategy **selected algebraically**: if `S` declares
/// [`Semiring::ONE_STEP`], each level is the single fused product of
/// [`parent_bfs_fused_ctx`]; otherwise the sound two-step fallback
/// runs. Returns the `(vertex, payload)` pairs plus the variant that
/// produced them, and records the whole traversal under
/// [`Kernel::BfsParent`].
pub fn parent_bfs_with<S>(pat: &Dcsr<u64>, src: Ix, s: S) -> (Vec<(Ix, u64)>, BfsVariant)
where
    S: Semiring<Value = u64>,
{
    with_default_ctx(|ctx| parent_bfs_with_ctx(ctx, pat, src, s))
}

/// [`parent_bfs_with`] against an explicit context.
pub fn parent_bfs_with_ctx<S>(
    ctx: &OpCtx,
    pat: &Dcsr<u64>,
    src: Ix,
    s: S,
) -> (Vec<(Ix, u64)>, BfsVariant)
where
    S: Semiring<Value = u64>,
{
    let start = Instant::now();
    let (out, variant) = if S::ONE_STEP {
        (parent_bfs_fused_ctx(ctx, pat, src, s), BfsVariant::OneStep)
    } else {
        (
            parent_bfs_two_step_ctx(ctx, pat, src, s),
            BfsVariant::TwoStep,
        )
    };
    ctx.metrics().record(
        Kernel::BfsParent,
        start.elapsed(),
        pat.nnz() as u64,
        out.len() as u64,
        out.len() as u64,
        (pat.bytes() + out.len() * std::mem::size_of::<(Ix, u64)>()) as u64,
    );
    (out, variant)
}

/// BFS tree from `src` over a `u64` pattern (see
/// [`crate::pattern::pattern_u64`]). Returns `(vertex, parent)` pairs
/// sorted by vertex; `src` maps to itself. Deterministic: each vertex's
/// parent is its smallest-id predecessor in the previous frontier.
///
/// This is [`parent_bfs_with`] over [`MinFirst`] — which declares
/// `ONE_STEP`, so every level is the fused one-step product — with
/// the 1-shifted payloads unshifted back to parent ids.
pub fn bfs_parents(pat: &Dcsr<u64>, src: Ix) -> Vec<(Ix, Ix)> {
    let (out, variant) = parent_bfs_with(pat, src, MinFirst);
    debug_assert_eq!(variant, BfsVariant::OneStep);
    out.into_iter().map(|(v, p)| (v, p - 1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{pattern_u64, pattern_u8};
    use hypersparse::Coo;
    use semiring::{MaxFirst, PlusTimes};

    /// 0→1→2→3, 0→2, plus an unreachable 5→6.
    fn g() -> Dcsr<f64> {
        let mut c = Coo::new(8, 8);
        c.extend([
            (0, 1, 1.0),
            (1, 2, 1.0),
            (2, 3, 1.0),
            (0, 2, 1.0),
            (5, 6, 1.0),
        ]);
        c.build_dcsr(PlusTimes::<f64>::new())
    }

    #[test]
    fn levels_match_hand_computation() {
        let levels = bfs_levels(&pattern_u8(&g()), 0);
        assert_eq!(levels, vec![(0, 0), (1, 1), (2, 1), (3, 2)]);
    }

    #[test]
    fn unreachable_vertices_absent() {
        let levels = bfs_levels(&pattern_u8(&g()), 0);
        assert!(!levels.iter().any(|&(v, _)| v == 5 || v == 6));
    }

    #[test]
    fn bfs_from_isolated_source() {
        let levels = bfs_levels(&pattern_u8(&g()), 7);
        assert_eq!(levels, vec![(7, 0)]);
    }

    #[test]
    fn parents_form_a_valid_tree() {
        let p = pattern_u64(&g());
        let parents = bfs_parents(&p, 0);
        let levels: std::collections::HashMap<Ix, u32> =
            bfs_levels(&pattern_u8(&g()), 0).into_iter().collect();
        for &(v, parent) in &parents {
            if v == 0 {
                assert_eq!(parent, 0);
                continue;
            }
            // Parent is one level shallower and has an edge to v.
            assert_eq!(levels[&parent] + 1, levels[&v]);
            assert!(p.get(parent, v).is_some());
        }
        assert_eq!(parents.len(), levels.len());
    }

    #[test]
    fn parent_choice_is_min_id() {
        // Both 0 and 1 reach 2 at the same level from a 2-vertex frontier.
        let mut c = Coo::new(4, 4);
        c.extend([(3, 0, 1.0), (3, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]);
        let g = c.build_dcsr(PlusTimes::<f64>::new());
        let parents = bfs_parents(&pattern_u64(&g), 3);
        let parent_of_2 = parents.iter().find(|&&(v, _)| v == 2).unwrap().1;
        assert_eq!(parent_of_2, 0); // min of {0, 1}
    }

    #[test]
    fn bfs_works_in_huge_key_space() {
        let n = 1u64 << 45;
        let mut c = Coo::new(n, n);
        c.extend([(7, 1 << 40, 1.0), (1 << 40, 3, 1.0)]);
        let g = c.build_dcsr(PlusTimes::<f64>::new());
        let levels = bfs_levels(&pattern_u8(&g), 7);
        assert_eq!(levels, vec![(3, 2), (7, 0), (1 << 40, 1)]);
    }

    #[test]
    fn declared_capability_drives_variant_selection() {
        let p = pattern_u64(&g());
        assert_eq!(parent_bfs_with(&p, 0, MinFirst).1, BfsVariant::OneStep);
        assert_eq!(
            parent_bfs_with(&p, 0, PlusTimes::<u64>::new()).1,
            BfsVariant::TwoStep
        );
    }

    #[test]
    fn max_first_picks_largest_parent() {
        let mut c = Coo::new(4, 4);
        c.extend([(3, 0, 1.0), (3, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]);
        let g = c.build_dcsr(PlusTimes::<f64>::new());
        let (out, variant) = parent_bfs_with(&pattern_u64(&g), 3, MaxFirst);
        assert_eq!(variant, BfsVariant::OneStep);
        let payload_of_2 = out.iter().find(|&&(v, _)| v == 2).unwrap().1;
        assert_eq!(payload_of_2 - 1, 1); // max of {0, 1}
    }

    #[test]
    fn two_step_discovers_cancelled_vertices() {
        // Same diamond: under a non-selective ⊕ the payload on vertex 2
        // is the ⊕-blend of both stamped parents, but reachability must
        // still come from the AnyPair pass, not the blended values.
        let mut c = Coo::new(4, 4);
        c.extend([(3, 0, 1.0), (3, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]);
        let g = c.build_dcsr(PlusTimes::<f64>::new());
        let (out, variant) = parent_bfs_with(&pattern_u64(&g), 3, PlusTimes::<u64>::new());
        assert_eq!(variant, BfsVariant::TwoStep);
        // (0+1) + (1+1) = 3 — a blended payload no single parent has.
        assert_eq!(out.iter().find(|&&(v, _)| v == 2).unwrap().1, 3);
        // All of 0, 1, 2 discovered exactly as reachability dictates.
        let vs: Vec<Ix> = out.iter().map(|&(v, _)| v).collect();
        assert_eq!(vs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn fused_equals_two_step_where_conditions_hold() {
        let p = pattern_u64(&g());
        let ctx = OpCtx::new();
        assert_eq!(
            parent_bfs_fused_ctx(&ctx, &p, 0, MinFirst),
            parent_bfs_two_step_ctx(&ctx, &p, 0, MinFirst)
        );
        assert_eq!(
            parent_bfs_fused_ctx(&ctx, &p, 0, MaxFirst),
            parent_bfs_two_step_ctx(&ctx, &p, 0, MaxFirst)
        );
    }

    #[test]
    fn parent_bfs_records_kernel_metrics() {
        let ctx = OpCtx::new();
        let p = pattern_u64(&g());
        let _ = parent_bfs_with_ctx(&ctx, &p, 0, MinFirst);
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.kernel(Kernel::BfsParent).calls, 1);
        assert_eq!(snap.kernel(Kernel::BfsParent).nnz_out, 4);
    }
}
