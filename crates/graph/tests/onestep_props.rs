//! Property-based verification of the algebraic BFS-variant selection.
//!
//! The contract of `graph::bfs::parent_bfs_with` is three-sided:
//!
//! 1. **Selection follows the declared capability** — the variant
//!    returned is `S::ONE_STEP`'s, which `semiring/tests/onestep_laws.rs`
//!    holds to what `semiring::onestep` predicts for every exported
//!    semiring, with no hard-coded list here;
//! 2. **Where the conditions hold, fused ≡ two-step** — on random
//!    graphs the one-step product and the two-step fallback produce
//!    bit-identical `(vertex, payload)` streams for every qualifying
//!    semiring (and under *both* parent orders, min and max, so
//!    agreement is not an artifact of one tie-break);
//! 3. **Where they fail, the fallback is still a BFS** — the two-step
//!    variant's discovered vertex set equals reachability-by-levels
//!    regardless of how badly the semiring blends payloads.

use graph::bfs::{
    bfs_levels, parent_bfs_fused_ctx, parent_bfs_two_step_ctx, parent_bfs_with, BfsVariant,
};
use graph::pattern::{pattern_u64, pattern_u8};
use hypersparse::ctx::OpCtx;
use hypersparse::{Coo, Dcsr, Ix};
use proptest::prelude::*;
use semiring::{MaxFirst, MaxMin, MinFirst, MinPlus, MinSecond, PlusTimes};

const N: Ix = 24;

fn edges() -> impl Strategy<Value = Vec<(Ix, Ix)>> {
    proptest::collection::vec((0..N, 0..N), 0..80)
}

fn mk(e: Vec<(Ix, Ix)>) -> Dcsr<f64> {
    let mut c = Coo::new(N, N);
    let mut seen = std::collections::HashSet::new();
    for (a, b) in e {
        if a != b && seen.insert((a, b)) {
            c.push(a, b, 1.0);
        }
    }
    c.build_dcsr(PlusTimes::<f64>::new())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // ---- 2: fused ≡ two-step for every qualifying semiring ----

    #[test]
    fn fused_equals_two_step_min_first(e in edges(), src in 0..N) {
        let p = pattern_u64(&mk(e));
        let ctx = OpCtx::new();
        prop_assert_eq!(
            parent_bfs_fused_ctx(&ctx, &p, src, MinFirst),
            parent_bfs_two_step_ctx(&ctx, &p, src, MinFirst)
        );
    }

    #[test]
    fn fused_equals_two_step_max_first(e in edges(), src in 0..N) {
        let p = pattern_u64(&mk(e));
        let ctx = OpCtx::new();
        prop_assert_eq!(
            parent_bfs_fused_ctx(&ctx, &p, src, MaxFirst),
            parent_bfs_two_step_ctx(&ctx, &p, src, MaxFirst)
        );
    }

    // ---- 3: the fallback preserves reachability under any algebra ----

    #[test]
    fn two_step_vertex_set_is_reachability(e in edges(), src in 0..N) {
        let g = mk(e);
        let want: Vec<Ix> = bfs_levels(&pattern_u8(&g), src)
            .into_iter()
            .map(|(v, _)| v)
            .collect();
        let p = pattern_u64(&g);
        let ctx = OpCtx::new();
        // Three differently broken algebras: blending ⊕ (PlusTimes),
        // id-mangling ⊗ (MinPlus), wrong-side ⊗ (MinSecond).
        let pt: Vec<Ix> = parent_bfs_two_step_ctx(&ctx, &p, src, PlusTimes::<u64>::new())
            .into_iter().map(|(v, _)| v).collect();
        prop_assert_eq!(&pt, &want);
        let mp: Vec<Ix> = parent_bfs_two_step_ctx(&ctx, &p, src, MinPlus::<u64>::new())
            .into_iter().map(|(v, _)| v).collect();
        prop_assert_eq!(&mp, &want);
        let ms: Vec<Ix> = parent_bfs_two_step_ctx(&ctx, &p, src, MinSecond)
            .into_iter().map(|(v, _)| v).collect();
        prop_assert_eq!(&ms, &want);
    }

    // ---- 1 (+2): the public entry point selects per the declared
    // capability, and its one-step output equals the fallback run by
    // hand ----

    #[test]
    fn selection_matches_declaration_and_agrees(e in edges(), src in 0..N) {
        let p = pattern_u64(&mk(e));
        let ctx = OpCtx::new();

        let (fused_out, v) = parent_bfs_with(&p, src, MinFirst);
        prop_assert_eq!(v, BfsVariant::OneStep);
        prop_assert_eq!(fused_out, parent_bfs_two_step_ctx(&ctx, &p, src, MinFirst));

        let (_, v) = parent_bfs_with(&p, src, PlusTimes::<u64>::new());
        prop_assert_eq!(v, BfsVariant::TwoStep);
        let (_, v) = parent_bfs_with(&p, src, MinSecond);
        prop_assert_eq!(v, BfsVariant::TwoStep);
        let (_, v) = parent_bfs_with(&p, src, MaxMin::<u64>::new());
        prop_assert_eq!(v, BfsVariant::TwoStep);
    }
}
