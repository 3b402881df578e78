//! Algebraic substrate for the *Mathematics of Digital Hyperspace*.
//!
//! This crate provides the scalar-level algebra that the rest of the
//! workspace builds on:
//!
//! * [`Semiring`], [`Monoid`], [`BinaryOp`], and [`UnaryOp`] traits in the
//!   style of the GraphBLAS standard — operator objects are zero-sized
//!   structs, so every kernel that takes one monomorphizes into a tight
//!   loop with no dynamic dispatch.
//! * Every semiring of **Table I** of the paper: arithmetic `+.×`
//!   ([`PlusTimes`]), the tropical algebras `max.+` ([`MaxPlus`]),
//!   `min.+` ([`MinPlus`]), `max.×` ([`MaxTimes`]), `min.×`
//!   ([`MinTimes`]), `max.min` ([`MaxMin`]), `min.max` ([`MinMax`]), and
//!   the relational-database `∪.∩` power-set semiring
//!   ([`UnionIntersect`] over [`PSet`]).
//! * Auxiliary semirings used by graph analytics: boolean `∨.∧`
//!   ([`LorLand`]), `min.first` / `max.first` / `min.second`
//!   ([`MinFirst`], [`MaxFirst`], [`MinSecond`]) for parent-tracking
//!   BFS, and `any.pair` ([`AnyPair`]) for reachability.
//! * **Capabilities** a semiring declares about itself
//!   ([`Semiring::FLAT_ACC`], [`Semiring::ONE_STEP`]) so kernels
//!   specialise at monomorphisation; [`Plain`] withholds them for
//!   reference runs, and the law suite fails a wrong declaration.
//! * The algebraic conditions for fused **one-step parent BFS**
//!   ([`onestep`]): selectivity, left-carrying ⊗, annihilation, and
//!   order-freeness as checkable predicates, so the graph layer runs
//!   the fused variant only where it is sound.
//! * The scalar face of the paper's **semilink**
//!   `(𝔸, ⊕, ⊗, ⊕.⊗, 0, 1, 𝕀)` ([`Semilink`]); the array-level identities
//!   of §IV live in the `hyperspace-core` crate where arrays exist.
//! * Executable *law checkers* ([`laws`]) used by the property-based test
//!   suites of every downstream crate.
//! * A string interner ([`AtomTable`]) so that power-set values over
//!   string universes can be represented as sets of `u64` atoms.
//!
//! # Quick example
//!
//! ```
//! use semiring::{Semiring, PlusTimes, MinPlus};
//!
//! let s = PlusTimes::<f64>::default();
//! assert_eq!(s.add(2.0, s.mul(3.0, 4.0)), 14.0);
//!
//! // Tropical: path lengths combine by +, alternatives by min.
//! let t = MinPlus::<f64>::default();
//! assert_eq!(t.add(t.mul(1.0, 2.0), t.mul(4.0, 0.5)), 3.0);
//! assert_eq!(t.zero(), f64::INFINITY); // additive identity = ⊗-annihilator
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atom;
pub mod laws;
pub mod monoids;
pub mod numeric;
pub mod onestep;
pub mod ops;
pub mod pset;
pub mod semilink;
pub mod semirings;
pub mod traits;

pub use atom::{Atom, AtomTable};
pub use monoids::{
    AnyMonoid, IntersectMonoid, LandMonoid, LorMonoid, MaxMonoid, MinMonoid, PlusMonoid,
    TimesMonoid, UnionMonoid,
};
pub use numeric::Numeric;
pub use onestep::OneStepReport;
pub use ops::{First, FnBinOp, FnOp, Identity, Pair, Relu, Second, ZeroNorm};
pub use pset::PSet;
pub use semilink::Semilink;
pub use semirings::{
    AnyPair, LorLand, MaxFirst, MaxMin, MaxPlus, MaxTimes, MinFirst, MinMax, MinPlus, MinSecond,
    MinTimes, Plain, PlusTimes, UnionIntersect, XorAnd,
};
pub use traits::{BinaryOp, Monoid, Semiring, UnaryOp};
