//! Property-based verification of the one-step BFS conditions.
//!
//! For every semiring of Table I (plus the graph-analytic auxiliaries)
//! the predicates of `semiring::onestep` are run over randomized samples
//! from the semiring's actual value set. The suite pins *both*
//! directions of the characterization: qualifying algebras satisfy every
//! condition on arbitrary samples, and each non-qualifying algebra
//! violates the specific condition the theory says it must. On top of
//! that, every capability a semiring *declares* in its `impl` block
//! (`ONE_STEP`, which `graph::bfs` dispatches on; `FLAT_ACC`, which the
//! `hypersparse` kernels dispatch on) is held to the algebra here, so a
//! wrong declaration fails CI instead of producing wrong answers.

use proptest::prelude::*;
use semiring::onestep::{
    add_idempotent, add_order_free, add_selective, mul_left_carrier, probe, zero_annihilates,
};
use semiring::{
    AnyPair, LorLand, MaxFirst, MaxMin, MaxPlus, MaxTimes, MinFirst, MinMax, MinPlus, MinSecond,
    MinTimes, PSet, Plain, PlusTimes, Semiring, UnionIntersect, XorAnd,
};

/// Assert every one-step condition on a sampled triple — the shape of
/// the check for qualifying semirings.
fn assert_all_conditions<S: Semiring>(s: &S, a: S::Value, b: S::Value, c: S::Value) {
    assert!(add_idempotent(s, a.clone()));
    assert!(add_selective(s, a.clone(), b.clone()));
    assert!(mul_left_carrier(s, a.clone(), b.clone()));
    assert!(zero_annihilates(s, a.clone()));
    assert!(add_order_free(s, a, b, c));
}

fn small_set() -> impl Strategy<Value = PSet> {
    prop_oneof![
        8 => proptest::collection::btree_set(0u64..32, 0..8).prop_map(PSet::Set),
        1 => Just(PSet::Universe),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- Qualifying algebras: every condition holds on any sample ----

    #[test]
    fn min_first_qualifies(a in 1u64..1 << 20, b in 1u64..1 << 20, c in 1u64..1 << 20) {
        assert_all_conditions(&MinFirst, a, b, c);
        prop_assert!(probe(&MinFirst, &[a, b, c]).qualifies());
    }

    #[test]
    fn max_first_qualifies(a in 1u64..1 << 20, b in 1u64..1 << 20, c in 1u64..1 << 20) {
        assert_all_conditions(&MaxFirst, a, b, c);
        prop_assert!(probe(&MaxFirst, &[a, b, c]).qualifies());
    }

    #[test]
    fn lor_land_qualifies(a in any::<bool>(), b in any::<bool>(), c in any::<bool>()) {
        assert_all_conditions(&LorLand, a, b, c);
        prop_assert!(probe(&LorLand, &[a, b, c]).qualifies());
    }

    #[test]
    fn any_pair_qualifies_over_flags(a in 0u8..2, b in 0u8..2, c in 0u8..2) {
        // AnyPair's value set is the flag domain {0, 1}; over it every
        // present product is 1 = the carried flag.
        assert_all_conditions(&AnyPair, a, b, c);
        prop_assert!(probe(&AnyPair, &[a, b, c]).qualifies());
    }

    // ---- Non-qualifying algebras: the predicted condition fails ----

    #[test]
    fn plus_times_blends(a in 1u64..1 << 20, b in 1u64..1 << 20, c in 1u64..1 << 20) {
        // + is not idempotent on any non-zero value.
        prop_assert!(!add_idempotent(&PlusTimes::<u64>::new(), a));
        let r = probe(&PlusTimes::<u64>::new(), &[a, b, c]);
        prop_assert!(!r.add_idempotent && !r.qualifies());
    }

    #[test]
    fn xor_and_blends(a in any::<bool>(), b in any::<bool>(), c in any::<bool>()) {
        // GF(2): 1 ⊕ 1 = 0 — idempotence fails on `true`. (A sample of
        // all-`false` is the trivial subalgebra {0} and genuinely
        // satisfies the conditions, so the probe must see `true`.)
        prop_assert!(!add_idempotent(&XorAnd, true));
        prop_assert!(!probe(&XorAnd, &[a, b, c, true]).qualifies());
    }

    #[test]
    fn tropical_mul_mangles_ids(a in 1u64..1 << 20, b in 1u64..1 << 20, c in 1u64..1 << 20) {
        // min.+ / max.+: ⊕ is selective but ⊗ = + rewrites the carried
        // value whenever the edge weight is non-zero(-algebra) ≠ 0.
        let mp = MinPlus::<u64>::new();
        prop_assert!(add_selective(&mp, a, b));
        prop_assert!(!mul_left_carrier(&mp, a, b) || a == mp.mul(a, b));
        let r = probe(&mp, &[a, b, c]);
        prop_assert!(!r.mul_left_carrier && !r.qualifies());

        let r = probe(&MaxPlus::<i64>::new(), &[a as i64, b as i64, c as i64]);
        prop_assert!(!r.mul_left_carrier && !r.qualifies());
    }

    #[test]
    fn tropical_times_mangles_ids(a in 2u64..1 << 10, b in 2u64..1 << 10, c in 2u64..1 << 10) {
        // min.× / max.×: ⊗ = × scales the carried value (samples ≥ 2 so
        // ×1 never masks the failure).
        let r = probe(&MinTimes::<u64>::new(), &[a, b, c]);
        prop_assert!(!r.mul_left_carrier && !r.qualifies());
        let r = probe(&MaxTimes::<u64>::new(), &[a, b, c]);
        prop_assert!(!r.mul_left_carrier && !r.qualifies());
    }

    #[test]
    fn bottleneck_mul_keeps_wrong_side(a in 1u64..1 << 20, b in 1u64..1 << 20, c in 1u64..1 << 20) {
        // max.min / min.max: ⊗ picks the extremal operand, which is the
        // edge value whenever it beats the id.
        prop_assume!(a != b && b != c && a != c);
        let r = probe(&MaxMin::<u64>::new(), &[a, b, c]);
        prop_assert!(!r.mul_left_carrier && !r.qualifies());
        let r = probe(&MinMax::<u64>::new(), &[a, b, c]);
        prop_assert!(!r.mul_left_carrier && !r.qualifies());
    }

    #[test]
    fn min_second_carries_wrong_operand(a in 1u64..1 << 20, b in 1u64..1 << 20, c in 1u64..1 << 20) {
        prop_assume!(a != b);
        prop_assert!(!mul_left_carrier(&MinSecond, a, b));
        prop_assert!(!probe(&MinSecond, &[a, b, c]).qualifies());
    }

    #[test]
    fn union_intersect_intersection_shrinks(a in small_set(), b in small_set(), c in small_set()) {
        // ∪ is selective only on comparable sets; ∩ keeps the overlap,
        // not the left operand. Probing over incomparable sets must
        // fall back.
        let x = PSet::from_iter([1, 2]);
        let y = PSet::from_iter([2, 3]);
        let r = probe(&UnionIntersect, &[a, b, c, x, y]);
        prop_assert!(!r.qualifies());
        prop_assert!(!r.add_selective || !r.mul_left_carrier);
    }

    // ---- Meta-law: selectivity implies idempotence ----

    #[test]
    fn selectivity_implies_idempotence(a in 1u64..1 << 20, b in 1u64..1 << 20) {
        // Instance of the general implication a ⊕ a ∈ {a}: check it on
        // every algebra sharing the u64 carrier.
        let mf = MinFirst;
        if add_selective(&mf, a, b) { prop_assert!(add_idempotent(&mf, a)); }
        let xf = MaxFirst;
        if add_selective(&xf, a, b) { prop_assert!(add_idempotent(&xf, a)); }
        let pt = PlusTimes::<u64>::new();
        if add_selective(&pt, a, b) { prop_assert!(add_idempotent(&pt, a)); }
        let ms = MinSecond;
        if add_selective(&ms, a, b) { prop_assert!(add_idempotent(&ms, a)); }
    }
}

// ---- Declared capabilities agree with the algebra ----

/// `S::ONE_STEP` is exactly the probe's verdict over `samples` (which
/// must be rich enough to expose a failing condition: distinct
/// non-identity values, and `true` for GF(2)).
fn assert_one_step_declared<S: Semiring>(s: S, samples: &[S::Value]) {
    let r = probe(&s, samples);
    assert_eq!(
        S::ONE_STEP,
        r.qualifies(),
        "{}: declares ONE_STEP = {}, probe failed {:?}",
        std::any::type_name::<S>(),
        S::ONE_STEP,
        r.failed()
    );
}

#[test]
fn one_step_declarations_match_the_probe_for_every_exported_semiring() {
    let ids: Vec<u64> = vec![1, 2, 3, 5, 1 << 10, 1 << 20, u64::MAX];
    let reals: Vec<f64> = vec![0.5, 1.0, 2.0, 3.0, 7.5];
    assert_one_step_declared(MinFirst, &ids);
    assert_one_step_declared(MaxFirst, &ids);
    assert_one_step_declared(MinSecond, &ids);
    assert_one_step_declared(LorLand, &[false, true]);
    assert_one_step_declared(XorAnd, &[false, true]);
    assert_one_step_declared(AnyPair, &[0u8, 1]);
    assert_one_step_declared(PlusTimes::<u64>::new(), &ids);
    assert_one_step_declared(PlusTimes::<f64>::new(), &reals);
    assert_one_step_declared(MinPlus::<u64>::new(), &ids);
    assert_one_step_declared(MinPlus::<f64>::new(), &reals);
    assert_one_step_declared(MaxPlus::<i64>::new(), &[1, 2, 3, 5]);
    assert_one_step_declared(MinTimes::<u64>::new(), &ids);
    assert_one_step_declared(MaxTimes::<u64>::new(), &ids);
    assert_one_step_declared(MaxMin::<u64>::new(), &ids);
    assert_one_step_declared(MinMax::<u64>::new(), &ids);
    assert_one_step_declared(
        UnionIntersect,
        &[
            PSet::from_iter([1, 2]),
            PSet::from_iter([2, 3]),
            PSet::Universe,
        ],
    );
    // `Plain` withholds even a capability the algebra would support.
    const { assert!(!Plain::<MinFirst>::ONE_STEP && !Plain::<LorLand>::FLAT_ACC) };
}

/// The `FLAT_ACC` law: seeding a slot with `0` and folding `p` into it
/// leaves exactly the bits the `Option<T>`/hash accumulators would have
/// stored for `p` — or `p` is a zero, which no kernel stores.
fn assert_flat_seed_invisible<S: Semiring>(s: S, p: S::Value, bits: impl Fn(&S::Value) -> u64) {
    const { assert!(S::FLAT_ACC) };
    let seeded = s.add(s.zero(), p.clone());
    assert!(
        bits(&seeded) == bits(&p) || (s.is_zero(&p) && s.is_zero(&seeded)),
        "{}: 0 ⊕ {p:?} = {seeded:?}",
        std::any::type_name::<S>()
    );
}

#[test]
fn flat_acc_declarations_hold_on_the_edges_of_each_domain() {
    for p in [
        0.0,
        -0.0,
        1.5,
        -2.25,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ] {
        assert_flat_seed_invisible(PlusTimes::<f64>::new(), p, |v| v.to_bits());
        assert_flat_seed_invisible(PlusTimes::<f32>::new(), p as f32, |v| {
            u64::from(v.to_bits())
        });
    }
    for p in [0, 1, 7, u64::MAX - 1, u64::MAX] {
        assert_flat_seed_invisible(PlusTimes::<u64>::new(), p, |v| *v);
    }
    for p in [i64::MIN, -1, 0, 1, i64::MAX] {
        assert_flat_seed_invisible(PlusTimes::<i64>::new(), p, |v| *v as u64);
    }
    for p in [false, true] {
        assert_flat_seed_invisible(LorLand, p, |v| u64::from(*v));
    }
}

proptest! {
    #[test]
    fn flat_acc_seed_is_invisible_on_random_values(
        x in any::<f64>(), y in any::<f64>(), n in any::<u64>(), b in any::<bool>(),
    ) {
        // Products are what kernels fold, so sample those too.
        for p in [x, y, x * y] {
            assert_flat_seed_invisible(PlusTimes::<f64>::new(), p, |v| v.to_bits());
            assert_flat_seed_invisible(PlusTimes::<f32>::new(), p as f32, |v| u64::from(v.to_bits()));
        }
        assert_flat_seed_invisible(PlusTimes::<u64>::new(), n, |v| *v);
        assert_flat_seed_invisible(LorLand, b, |v| u64::from(*v));
    }
}
