//! The semirings of Table I, plus the graph-analytic auxiliaries.
//!
//! | Set            | ⊕    | ⊗    | 0    | 1     | type              |
//! |----------------|------|------|------|-------|-------------------|
//! | ℝ              | +    | ×    | 0    | 1     | [`PlusTimes`]     |
//! | ℝ ∪ −∞         | max  | +    | −∞   | 0     | [`MaxPlus`]       |
//! | ℝ ∪ +∞         | min  | +    | +∞   | 0     | [`MinPlus`]       |
//! | ℝ≥0            | max  | ×    | 0    | 1     | [`MaxTimes`]      |
//! | ℝ>0 ∪ +∞       | min  | ×    | +∞   | 1     | [`MinTimes`]      |
//! | 𝒫(𝕍)           | ∪    | ∩    | ∅    | 𝒫(𝕍)  | [`UnionIntersect`]|
//! | 𝕍 ∪ −∞         | max  | min  | −∞   | +∞    | [`MaxMin`]        |
//! | 𝕍 ∪ +∞         | min  | max  | +∞   | −∞    | [`MinMax`]        |
//!
//! Each struct is zero-sized; kernels instantiated with one monomorphize
//! to straight-line `min`/`max`/`add`/`mul` code.

use std::marker::PhantomData;

use crate::numeric::Numeric;
use crate::pset::PSet;
use crate::traits::Semiring;

macro_rules! numeric_semiring {
    (
        $(#[$doc:meta])*
        $name:ident, zero = $zero:ident, one = $one:ident,
        add = $add:ident, mul = $mul:ident $(, flat_acc = $flat:literal)?
    ) => {
        $(#[$doc])*
        #[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
        pub struct $name<T>(PhantomData<T>);

        impl<T> $name<T> {
            /// Construct the (zero-sized) semiring object.
            pub fn new() -> Self {
                $name(PhantomData)
            }
        }

        impl<T: Numeric> Semiring for $name<T> {
            type Value = T;
            $(const FLAT_ACC: bool = $flat;)?

            #[inline(always)]
            fn zero(&self) -> T {
                T::$zero
            }
            #[inline(always)]
            fn one(&self) -> T {
                T::$one
            }
            #[inline(always)]
            fn add(&self, a: T, b: T) -> T {
                T::$add(a, b)
            }
            #[inline(always)]
            fn mul(&self, a: T, b: T) -> T {
                T::$mul(a, b)
            }
        }
    };
}

numeric_semiring!(
    /// Standard arithmetic `(ℝ, +, ×, 0, 1)` — correlation, counting,
    /// the `S₁` of the paper's DNN decomposition (§V.C). `0 + p` is `p`
    /// to the bit in every [`Numeric`] (a `−0.0` product sums to `+0.0`,
    /// but both are zeros and never stored), so it accumulates flat.
    PlusTimes, zero = ZERO, one = ONE, add = plus, mul = times, flat_acc = true
);

numeric_semiring!(
    /// Tropical `(ℝ ∪ −∞, max, +, −∞, 0)` — longest/critical paths; the
    /// `S₂` the ReLU DNN oscillates into (§V.C).
    MaxPlus, zero = MIN_VALUE, one = ZERO, add = max_of, mul = plus
);

numeric_semiring!(
    /// Tropical `(ℝ ∪ +∞, min, +, +∞, 0)` — shortest paths.
    MinPlus, zero = MAX_VALUE, one = ZERO, add = min_of, mul = plus
);

numeric_semiring!(
    /// `(ℝ≥0, max, ×, 0, 1)` — maximum-reliability paths. Only a semiring
    /// on the non-negative reals (negative values break distributivity);
    /// callers must feed it ℝ≥0 data, which the law suite enforces.
    MaxTimes, zero = ZERO, one = ONE, add = max_of, mul = times
);

numeric_semiring!(
    /// `(ℝ>0 ∪ +∞, min, ×, +∞, 1)` — minimum-product paths on positive
    /// data.
    MinTimes, zero = MAX_VALUE, one = ONE, add = min_of, mul = times
);

numeric_semiring!(
    /// `(𝕍 ∪ −∞, max, min, −∞, +∞)` — bottleneck (widest-path) algebra.
    MaxMin, zero = MIN_VALUE, one = MAX_VALUE, add = max_of, mul = min_of
);

numeric_semiring!(
    /// `(𝕍 ∪ +∞, min, max, +∞, −∞)` — the order dual of [`MaxMin`].
    MinMax, zero = MAX_VALUE, one = MIN_VALUE, add = min_of, mul = max_of
);

/// The relational-algebra semiring `(𝒫(𝕍), ∪, ∩, ∅, 𝒫(𝕍))` over lazy
/// power-set values ([`PSet`]). §V.B expresses the SQL `select` in the
/// semilink this semiring generates.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct UnionIntersect;

impl Semiring for UnionIntersect {
    type Value = PSet;

    fn zero(&self) -> PSet {
        PSet::empty()
    }
    fn one(&self) -> PSet {
        PSet::universe()
    }
    fn add(&self, a: PSet, b: PSet) -> PSet {
        a.union(&b)
    }
    fn mul(&self, a: PSet, b: PSet) -> PSet {
        a.intersect(&b)
    }
    fn is_zero(&self, v: &PSet) -> bool {
        v.is_empty()
    }
    fn is_one(&self, v: &PSet) -> bool {
        v.is_universe()
    }
}

/// Boolean `(𝔹, ∨, ∧, false, true)` — pure topology: breadth-first
/// search, reachability, sparsity-pattern manipulation.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LorLand;

impl Semiring for LorLand {
    type Value = bool;
    const FLAT_ACC: bool = true;
    const ONE_STEP: bool = true;

    #[inline(always)]
    fn zero(&self) -> bool {
        false
    }
    #[inline(always)]
    fn one(&self) -> bool {
        true
    }
    #[inline(always)]
    fn add(&self, a: bool, b: bool) -> bool {
        a || b
    }
    #[inline(always)]
    fn mul(&self, a: bool, b: bool) -> bool {
        a && b
    }
}

/// GF(2): `(𝔹, ⊕ = xor, ⊗ = and, false, true)` — a genuine *field*, so
/// every semiring law holds exactly. The algebra of cycle spaces and
/// parity constraints; also the canonical example that ⊕ need not be
/// idempotent (unlike ∨).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct XorAnd;

impl Semiring for XorAnd {
    type Value = bool;

    #[inline(always)]
    fn zero(&self) -> bool {
        false
    }
    #[inline(always)]
    fn one(&self) -> bool {
        true
    }
    #[inline(always)]
    fn add(&self, a: bool, b: bool) -> bool {
        a ^ b
    }
    #[inline(always)]
    fn mul(&self, a: bool, b: bool) -> bool {
        a && b
    }
}

/// `min.first` over ids shifted by one: `0` is the semiring zero
/// ("no value"), ids are `1..`. `mul(a, _) = a` carries the *source*
/// value through, `add = min` picks a deterministic winner — the parent
/// tracking semiring for BFS trees. Its ⊕ returns the other operand
/// when one side is `0`, so `0 ⊕ p` is `p` to the bit and it
/// accumulates flat.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MinFirst;

impl Semiring for MinFirst {
    type Value = u64;
    const FLAT_ACC: bool = true;
    const ONE_STEP: bool = true;

    #[inline(always)]
    fn zero(&self) -> u64 {
        0
    }
    #[inline(always)]
    fn one(&self) -> u64 {
        u64::MAX
    }
    #[inline(always)]
    fn add(&self, a: u64, b: u64) -> u64 {
        // min over "present" values; 0 means absent.
        match (a, b) {
            (0, x) | (x, 0) => x,
            (x, y) => x.min(y),
        }
    }
    #[inline(always)]
    fn mul(&self, a: u64, b: u64) -> u64 {
        // first, with 0 annihilating from either side.
        if b == 0 {
            0
        } else {
            a
        }
    }
}

/// `max.first` — the order dual of [`MinFirst`]: `add = max` picks the
/// *largest* present id, `mul(a, _) = a` still carries the source value.
/// Ships as a second qualifying parent-selection algebra for the
/// one-step BFS conditions ([`crate::onestep`]): like [`MinFirst`] its ⊕
/// is selective and its ⊗ is a left carrier, but the tie-break order is
/// reversed, so fused and two-step BFS agreeing under *both* orders is
/// evidence the selection machinery (not a lucky ordering) is correct.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MaxFirst;

impl Semiring for MaxFirst {
    type Value = u64;
    const ONE_STEP: bool = true;

    #[inline(always)]
    fn zero(&self) -> u64 {
        0
    }
    #[inline(always)]
    fn one(&self) -> u64 {
        u64::MAX
    }
    #[inline(always)]
    fn add(&self, a: u64, b: u64) -> u64 {
        // max over "present" values; 0 means absent (and is the minimum,
        // so plain max already treats it as the identity).
        a.max(b)
    }
    #[inline(always)]
    fn mul(&self, a: u64, b: u64) -> u64 {
        if b == 0 {
            0
        } else {
            a
        }
    }
}

/// `min.second` — the mirror of [`MinFirst`]: carries the *matrix* value.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MinSecond;

impl Semiring for MinSecond {
    type Value = u64;

    #[inline(always)]
    fn zero(&self) -> u64 {
        0
    }
    #[inline(always)]
    fn one(&self) -> u64 {
        u64::MAX
    }
    #[inline(always)]
    fn add(&self, a: u64, b: u64) -> u64 {
        match (a, b) {
            (0, x) | (x, 0) => x,
            (x, y) => x.min(y),
        }
    }
    #[inline(always)]
    fn mul(&self, a: u64, b: u64) -> u64 {
        if a == 0 {
            0
        } else {
            b
        }
    }
}

/// `any.pair` (GraphBLAS `GxB_ANY_PAIR`) over `u8` flags: every product is
/// `1`, sums pick either operand. The cheapest possible reachability
/// semiring — no value is even read. Deterministic: `add` keeps the left
/// non-zero operand, so `0 ⊕ p` is `p` and it accumulates flat.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AnyPair;

impl Semiring for AnyPair {
    type Value = u8;
    const FLAT_ACC: bool = true;
    const ONE_STEP: bool = true;

    #[inline(always)]
    fn zero(&self) -> u8 {
        0
    }
    #[inline(always)]
    fn one(&self) -> u8 {
        1
    }
    #[inline(always)]
    fn add(&self, a: u8, b: u8) -> u8 {
        if a != 0 {
            a
        } else {
            b
        }
    }
    #[inline(always)]
    fn mul(&self, a: u8, b: u8) -> u8 {
        // pair: 1 whenever both entries exist; absent (0) annihilates.
        if a != 0 && b != 0 {
            1
        } else {
            0
        }
    }
}

/// `S` with its capabilities withheld: the same ⊕, ⊗, `0` and `1`,
/// but [`Semiring::FLAT_ACC`] and [`Semiring::ONE_STEP`] stay `false`,
/// so every kernel takes the path it takes for a semiring that declares
/// nothing. Equivalence tests and ablation benches run `Plain(s)` as
/// the reference for `s`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Plain<S>(pub S);

impl<S: Semiring> Semiring for Plain<S> {
    type Value = S::Value;

    #[inline(always)]
    fn zero(&self) -> S::Value {
        self.0.zero()
    }
    #[inline(always)]
    fn one(&self) -> S::Value {
        self.0.one()
    }
    #[inline(always)]
    fn add(&self, a: S::Value, b: S::Value) -> S::Value {
        self.0.add(a, b)
    }
    #[inline(always)]
    fn mul(&self, a: S::Value, b: S::Value) -> S::Value {
        self.0.mul(a, b)
    }
    #[inline(always)]
    fn is_zero(&self, v: &S::Value) -> bool {
        self.0.is_zero(v)
    }
    #[inline(always)]
    fn is_one(&self, v: &S::Value) -> bool {
        self.0.is_one(v)
    }
    #[inline(always)]
    fn add_assign(&self, a: &mut S::Value, b: S::Value) {
        self.0.add_assign(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plus_times_basics() {
        let s = PlusTimes::<f64>::new();
        assert_eq!(s.add(2.0, 3.0), 5.0);
        assert_eq!(s.mul(2.0, 3.0), 6.0);
        assert!(s.is_zero(&0.0));
        assert!(s.is_one(&1.0));
    }

    #[test]
    fn tropical_identities_match_table_i() {
        let mp = MinPlus::<f64>::new();
        assert_eq!(mp.zero(), f64::INFINITY);
        assert_eq!(mp.one(), 0.0);
        let xp = MaxPlus::<f64>::new();
        assert_eq!(xp.zero(), f64::NEG_INFINITY);
        assert_eq!(xp.one(), 0.0);
        let mt = MinTimes::<f64>::new();
        assert_eq!(mt.zero(), f64::INFINITY);
        assert_eq!(mt.one(), 1.0);
        let xt = MaxTimes::<f64>::new();
        assert_eq!(xt.zero(), 0.0);
        assert_eq!(xt.one(), 1.0);
        let mm = MaxMin::<i64>::new();
        assert_eq!(mm.zero(), i64::MIN);
        assert_eq!(mm.one(), i64::MAX);
        let nm = MinMax::<i64>::new();
        assert_eq!(nm.zero(), i64::MAX);
        assert_eq!(nm.one(), i64::MIN);
    }

    #[test]
    fn zero_annihilates_in_tropicals() {
        let mp = MinPlus::<f64>::new();
        assert_eq!(mp.mul(mp.zero(), 5.0), f64::INFINITY);
        let xp = MaxPlus::<f64>::new();
        assert_eq!(xp.mul(xp.zero(), 5.0), f64::NEG_INFINITY);
    }

    #[test]
    fn shortest_path_relaxation() {
        let s = MinPlus::<f64>::new();
        // Two routes: 1+2 and 4+0.5 — min is 3.
        let d = s.add(s.mul(1.0, 2.0), s.mul(4.0, 0.5));
        assert_eq!(d, 3.0);
    }

    #[test]
    fn union_intersect_semiring() {
        let s = UnionIntersect;
        let a = PSet::from_iter([1, 2]);
        let b = PSet::from_iter([2, 3]);
        assert_eq!(s.add(a.clone(), b.clone()), PSet::from_iter([1, 2, 3]));
        assert_eq!(s.mul(a.clone(), b), PSet::singleton(2));
        assert!(s.is_zero(&PSet::empty()));
        assert!(s.is_one(&PSet::universe()));
        // 0 annihilates ⊗, 1 is ⊗-identity.
        assert!(s.mul(a.clone(), s.zero()).is_empty());
        assert_eq!(s.mul(a.clone(), s.one()), a);
    }

    #[test]
    fn lor_land_truth_table() {
        let s = LorLand;
        assert!(s.add(false, true));
        assert!(!s.add(false, false));
        assert!(s.mul(true, true));
        assert!(!s.mul(true, false));
    }

    #[test]
    fn xor_and_is_gf2() {
        let s = XorAnd;
        assert!(!s.add(true, true)); // 1 ⊕ 1 = 0: non-idempotent ⊕
        assert!(s.add(true, false));
        assert!(s.mul(true, true));
        assert!(!s.mul(true, false));
    }

    #[test]
    fn min_first_tracks_sources() {
        let s = MinFirst;
        // Frontier carries vertex ids (1-based); matrix entries are 1.
        // q(j) = add over i of mul(f(i), A(i,j)).
        let from3 = s.mul(3, 1);
        let from7 = s.mul(7, 1);
        assert_eq!(s.add(from3, from7), 3); // min parent id wins
        assert_eq!(s.mul(3, 0), 0); // absent edge annihilates
        assert_eq!(s.add(0, 7), 7); // absent contribution is identity
    }

    #[test]
    fn max_first_tracks_largest_source() {
        let s = MaxFirst;
        let from3 = s.mul(3, 1);
        let from7 = s.mul(7, 1);
        assert_eq!(s.add(from3, from7), 7); // max parent id wins
        assert_eq!(s.mul(3, 0), 0); // absent edge annihilates
        assert_eq!(s.add(0, 7), 7); // absent contribution is identity
    }

    #[test]
    fn min_second_carries_matrix_values() {
        let s = MinSecond;
        assert_eq!(s.mul(9, 4), 4);
        assert_eq!(s.mul(0, 4), 0);
        assert_eq!(s.add(5, 2), 2);
    }

    #[test]
    fn any_pair_reachability() {
        let s = AnyPair;
        assert_eq!(s.mul(1, 1), 1);
        assert_eq!(s.mul(1, 0), 0);
        assert_eq!(s.add(0, 1), 1);
        assert_eq!(s.add(1, 1), 1);
    }
}
