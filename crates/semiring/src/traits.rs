//! Core algebraic traits in the GraphBLAS operator-object style.
//!
//! All operator traits are implemented by `Copy` (typically zero-sized)
//! structs that are passed *by value* into kernels. This keeps inner loops
//! free of dynamic dispatch: a `mxm` instantiated with [`super::MinPlus`]
//! compiles down to `min`/`+` instructions.

use std::fmt::Debug;

/// Values an associative array can hold.
///
/// Deliberately minimal: clone-able, comparable for equality (needed to
/// recognize the semiring zero and to test determinism), printable, and
/// shareable across threads. Numbers, booleans, interned strings, and
/// power sets ([`super::PSet`]) all qualify.
pub trait Value: Clone + PartialEq + Debug + Send + Sync + 'static {}
impl<T: Clone + PartialEq + Debug + Send + Sync + 'static> Value for T {}

/// A binary operator `A × B → C`.
///
/// Most operators are homogeneous (`A = B = C`), but GraphBLAS-style
/// multiply operators such as [`super::First`] and [`super::Pair`] exploit
/// the general form.
pub trait BinaryOp<A, B = A, C = A>: Copy + Send + Sync {
    /// Apply the operator.
    fn apply(&self, a: A, b: B) -> C;
}

/// A unary operator `A → C` (GraphBLAS `GrB_UnaryOp`).
pub trait UnaryOp<A, C = A>: Copy + Send + Sync {
    /// Apply the operator.
    fn apply(&self, a: A) -> C;
}

/// A commutative monoid `(V, ∘, id)`: an associative, commutative binary
/// operation with identity. Monoids drive reductions (`reduce_rows`,
/// `reduce_scalar`) and the ⊕ half of a semiring.
pub trait Monoid<T: Value>: Copy + Send + Sync {
    /// The identity element `id` with `combine(id, a) = a`.
    fn identity(&self) -> T;
    /// The monoid operation. Must be associative and commutative.
    fn combine(&self, a: T, b: T) -> T;
    /// `true` if `v` is the identity. Override when a cheaper test than
    /// construction + comparison exists.
    fn is_identity(&self, v: &T) -> bool {
        *v == self.identity()
    }
}

/// A semiring `(V, ⊕, ⊗, 0, 1)`.
///
/// Laws (checked mechanically by [`crate::laws`] and the proptest suite):
///
/// * `(V, ⊕, 0)` is a commutative monoid;
/// * `(V, ⊗, 1)` is a monoid (not necessarily commutative);
/// * `⊗` distributes over `⊕` on both sides;
/// * `0` annihilates: `a ⊗ 0 = 0 ⊗ a = 0`.
///
/// The last law is what lets sparse kernels *not store* zeros: any product
/// against an absent entry contributes nothing to a sum.
pub trait Semiring: Copy + Send + Sync + 'static {
    /// The value set `V`.
    type Value: Value;

    /// Capability: kernels may accumulate into a flat slot array seeded
    /// with [`Semiring::zero`] (`slot = slot ⊕ p` for every product)
    /// instead of storing the first product and folding from there.
    /// Declare `true` only when `Value` is cheap to clone and
    /// `add(zero(), p)` is *bit-identical* to `p` for every `p` that is
    /// not itself a zero — `onestep_laws.rs` fails a wrong declaration.
    const FLAT_ACC: bool = false;

    /// Capability: the one-step parent-BFS conditions of
    /// [`crate::onestep`] hold (⊕ selective and order-free, ⊗ carries
    /// its left operand, `0` annihilates), so a single masked `vᵀA` per
    /// level yields frontier and parents at once. `onestep_laws.rs`
    /// checks the declaration against [`crate::onestep::probe`].
    const ONE_STEP: bool = false;

    /// The additive identity `0` (and multiplicative annihilator).
    fn zero(&self) -> Self::Value;
    /// The multiplicative identity `1`.
    fn one(&self) -> Self::Value;
    /// `a ⊕ b`.
    fn add(&self, a: Self::Value, b: Self::Value) -> Self::Value;
    /// `a ⊗ b`.
    fn mul(&self, a: Self::Value, b: Self::Value) -> Self::Value;

    /// `true` if `v` is the semiring `0`. Sparse kernels drop such entries,
    /// which is how, e.g., min-plus matrices avoid storing `+∞`.
    fn is_zero(&self, v: &Self::Value) -> bool {
        *v == self.zero()
    }

    /// `true` if `v` is the semiring `1`.
    fn is_one(&self, v: &Self::Value) -> bool {
        *v == self.one()
    }

    /// Fold `a ⊕= b` in place. Kernels call this in inner loops; the
    /// default is fine for `Copy` values, but set-valued semirings can
    /// override it to reuse allocations.
    fn add_assign(&self, a: &mut Self::Value, b: Self::Value) {
        let old = std::mem::replace(a, self.zero());
        *a = self.add(old, b);
    }
}

/// View the additive structure of a semiring as a monoid, so reduction
/// kernels can be written once over [`Monoid`].
#[derive(Copy, Clone, Debug, Default)]
pub struct AddMonoidOf<S: Semiring>(pub S);

impl<S: Semiring> Monoid<S::Value> for AddMonoidOf<S> {
    fn identity(&self) -> S::Value {
        self.0.zero()
    }
    fn combine(&self, a: S::Value, b: S::Value) -> S::Value {
        self.0.add(a, b)
    }
    fn is_identity(&self, v: &S::Value) -> bool {
        self.0.is_zero(v)
    }
}

/// View the multiplicative structure of a semiring as a monoid.
#[derive(Copy, Clone, Debug, Default)]
pub struct MulMonoidOf<S: Semiring>(pub S);

impl<S: Semiring> Monoid<S::Value> for MulMonoidOf<S> {
    fn identity(&self) -> S::Value {
        self.0.one()
    }
    fn combine(&self, a: S::Value, b: S::Value) -> S::Value {
        self.0.mul(a, b)
    }
    fn is_identity(&self, v: &S::Value) -> bool {
        self.0.is_one(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semirings::PlusTimes;

    #[test]
    fn add_monoid_of_matches_semiring() {
        let s = PlusTimes::<i64>::default();
        let m = AddMonoidOf(s);
        assert_eq!(m.identity(), 0);
        assert_eq!(m.combine(3, 4), 7);
        assert!(m.is_identity(&0));
        assert!(!m.is_identity(&1));
    }

    #[test]
    fn mul_monoid_of_matches_semiring() {
        let s = PlusTimes::<i64>::default();
        let m = MulMonoidOf(s);
        assert_eq!(m.identity(), 1);
        assert_eq!(m.combine(3, 4), 12);
        assert!(m.is_identity(&1));
    }

    #[test]
    fn add_assign_default_folds() {
        let s = PlusTimes::<i64>::default();
        let mut a = 10;
        s.add_assign(&mut a, 5);
        assert_eq!(a, 15);
    }
}
