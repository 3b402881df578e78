//! Compound predicates as mask algebra, behind one selection surface.
//!
//! On the exploded schema, "`field = value`" is one column of the table —
//! a 0/1 *row mask*. Conjunction of predicates is element-wise ⊗ of
//! masks (pattern intersection), disjunction is ⊕ (pattern union),
//! negation is complement against the record set: the same ⊕/⊗ semilink
//! operations the paper builds everything else from, applied to query
//! planning.
//!
//! Every engine in the crate answers the same predicate language through
//! the [`Select`] trait: build a [`PredExpr`] with the combinator
//! methods (`Pred::eq("src", "a").and(Pred::eq("port", "80"))`) and hand
//! it to any view. [`crate::AssocTable`] evaluates it as mask algebra,
//! [`crate::RowTable`] by scanning, [`crate::TripleStore`] by index
//! probes — one spelling, three engines, identical answers (sorted by
//! record id).

use std::collections::HashSet;

use hyperspace_core::semilink::support_rows;
use hyperspace_core::Assoc;
use semiring::PlusTimes;

use crate::assoc_table::AssocTable;
use crate::rowstore::{RowRef, RowTable};

type Mask = Assoc<String, String, f64>;

fn s() -> PlusTimes<f64> {
    PlusTimes::new()
}

/// A predicate on one field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Pred {
    /// `field = value`.
    Eq(String, String),
    /// `field ∈ {values…}` (an OR within one field).
    In(String, Vec<String>),
}

impl Pred {
    /// Convenience constructor for `field = value`.
    pub fn eq(field: &str, value: &str) -> Self {
        Pred::Eq(field.into(), value.into())
    }

    /// Convenience constructor for `field IN (values…)`.
    pub fn is_in<V: Into<String>>(field: &str, values: impl IntoIterator<Item = V>) -> Self {
        Pred::In(field.into(), values.into_iter().map(Into::into).collect())
    }

    /// Lift into a one-leaf expression tree.
    pub fn expr(self) -> PredExpr {
        PredExpr::Pred(self)
    }

    /// `self ∧ other` (mask ⊗).
    pub fn and(self, other: impl Into<PredExpr>) -> PredExpr {
        self.expr().and(other)
    }

    /// `self ∨ other` (mask ⊕).
    pub fn or(self, other: impl Into<PredExpr>) -> PredExpr {
        self.expr().or(other)
    }

    /// `self ∧ ¬other` (mask minus mask).
    pub fn and_not(self, other: impl Into<PredExpr>) -> PredExpr {
        self.expr().and_not(other)
    }
}

/// A compound predicate: leaves are [`Pred`]s, interior nodes are the
/// ∧ / ∨ / ∧¬ connectives. Built with the combinator methods; evaluated
/// by any [`Select`] engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PredExpr {
    /// One field predicate.
    Pred(Pred),
    /// Both sides must match (⊗-intersection).
    And(Box<PredExpr>, Box<PredExpr>),
    /// Either side may match (⊕-union).
    Or(Box<PredExpr>, Box<PredExpr>),
    /// Left side matches, right side does not (complement within the
    /// record set).
    AndNot(Box<PredExpr>, Box<PredExpr>),
}

impl From<Pred> for PredExpr {
    fn from(p: Pred) -> Self {
        PredExpr::Pred(p)
    }
}

impl PredExpr {
    /// `self ∧ other`.
    pub fn and(self, other: impl Into<PredExpr>) -> PredExpr {
        PredExpr::And(Box::new(self), Box::new(other.into()))
    }

    /// `self ∨ other`.
    pub fn or(self, other: impl Into<PredExpr>) -> PredExpr {
        PredExpr::Or(Box::new(self), Box::new(other.into()))
    }

    /// `self ∧ ¬other`.
    pub fn and_not(self, other: impl Into<PredExpr>) -> PredExpr {
        PredExpr::AndNot(Box::new(self), Box::new(other.into()))
    }
}

/// Fold `preds` into one expression under a single connective; `None`
/// when empty.
fn fold_preds(preds: &[Pred], conjunctive: bool) -> Option<PredExpr> {
    let (first, rest) = preds.split_first()?;
    let mut e = PredExpr::from(first.clone());
    for p in rest {
        e = if conjunctive {
            e.and(p.clone())
        } else {
            e.or(p.clone())
        };
    }
    Some(e)
}

// ---- sorted-id set algebra (the default engine) ----

fn ids_and(a: Vec<String>, b: &[String]) -> Vec<String> {
    let keep: HashSet<&String> = b.iter().collect();
    a.into_iter().filter(|id| keep.contains(id)).collect()
}

fn ids_or(a: Vec<String>, b: Vec<String>) -> Vec<String> {
    let mut out = a;
    out.extend(b);
    out.sort();
    out.dedup();
    out
}

fn ids_and_not(a: Vec<String>, b: &[String]) -> Vec<String> {
    let drop: HashSet<&String> = b.iter().collect();
    a.into_iter().filter(|id| !drop.contains(id)).collect()
}

/// The one selection surface every view implements.
///
/// An engine supplies the two primitives — ids matching a single
/// [`Pred`] and the full id set — and inherits compound-expression
/// evaluation plus the classic `select_and` / `select_or` /
/// `select_and_not` spellings. Engines with a better plan than sorted-id
/// set algebra (the associative table's ⊗/⊕ masks) override
/// [`Select::select`].
///
/// **Contract:** all id lists are sorted ascending, so any two engines'
/// answers to the same expression compare with `==`.
pub trait Select {
    /// Record ids matching one predicate, sorted.
    fn ids_matching(&self, p: &Pred) -> Vec<String>;

    /// Every record id, sorted.
    fn all_ids(&self) -> Vec<String>;

    /// Record ids matching a compound expression, sorted.
    fn select(&self, expr: &PredExpr) -> Vec<String> {
        match expr {
            PredExpr::Pred(p) => self.ids_matching(p),
            PredExpr::And(a, b) => ids_and(self.select(a), &self.select(b)),
            PredExpr::Or(a, b) => ids_or(self.select(a), self.select(b)),
            PredExpr::AndNot(a, b) => ids_and_not(self.select(a), &self.select(b)),
        }
    }

    /// Records satisfying **every** predicate (all records when empty).
    fn select_and(&self, preds: &[Pred]) -> Vec<String> {
        match fold_preds(preds, true) {
            None => self.all_ids(),
            Some(e) => self.select(&e),
        }
    }

    /// Records satisfying **any** predicate (no records when empty).
    fn select_or(&self, preds: &[Pred]) -> Vec<String> {
        match fold_preds(preds, false) {
            None => Vec::new(),
            Some(e) => self.select(&e),
        }
    }

    /// Records satisfying `keep` but **not** `drop`.
    fn select_and_not(&self, keep: &Pred, drop: &Pred) -> Vec<String> {
        self.select(&keep.clone().and_not(drop.clone()))
    }
}

// ---- the associative-array engine: mask algebra ----

impl AssocTable {
    /// The 0/1 row mask of one predicate: records satisfying it, as a
    /// one-column associative array keyed by record id.
    pub fn predicate_mask(&self, p: &Pred) -> Mask {
        let trips = match p {
            Pred::Eq(f, v) => self
                .select_eq(f, v)
                .into_iter()
                .map(|id| (id, "hit".to_string(), 1.0))
                .collect(),
            Pred::In(f, vs) => vs
                .iter()
                .flat_map(|v| self.select_eq(f, v))
                .map(|id| (id, "hit".to_string(), 1.0))
                .collect(),
        };
        Assoc::from_triplets(trips, s())
    }

    /// The 0/1 row mask of a compound expression: ∧ is element-wise ⊗
    /// (zero-normed so counts stay 0/1), ∨ is ⊕, ∧¬ is complement
    /// within the expression's positive support.
    pub fn expr_mask(&self, expr: &PredExpr) -> Mask {
        match expr {
            PredExpr::Pred(p) => self.predicate_mask(p),
            PredExpr::And(a, b) => self
                .expr_mask(a)
                .ewise_mul(&self.expr_mask(b), s())
                .zero_norm(s()),
            PredExpr::Or(a, b) => self
                .expr_mask(a)
                .ewise_add(&self.expr_mask(b), s())
                .zero_norm(s()),
            PredExpr::AndNot(a, b) => {
                let pos = self.expr_mask(a);
                let neg: HashSet<String> = support_rows(&self.expr_mask(b)).into_iter().collect();
                let trips = support_rows(&pos)
                    .into_iter()
                    .filter(|id| !neg.contains(id))
                    .map(|id| (id, "hit".to_string(), 1.0))
                    .collect();
                Assoc::from_triplets(trips, s())
            }
        }
    }
}

impl Select for AssocTable {
    fn ids_matching(&self, p: &Pred) -> Vec<String> {
        support_rows(&self.predicate_mask(p))
    }

    fn all_ids(&self) -> Vec<String> {
        self.record_ids()
    }

    fn select(&self, expr: &PredExpr) -> Vec<String> {
        support_rows(&self.expr_mask(expr))
    }
}

// ---- the row-store engine: full scans ----

fn row_matches(row: RowRef<'_>, p: &Pred) -> bool {
    match p {
        Pred::Eq(f, v) => row.get(f) == Some(v.as_str()),
        Pred::In(f, vs) => row.get(f).is_some_and(|x| vs.iter().any(|v| v == x)),
    }
}

fn row_matches_expr(row: RowRef<'_>, e: &PredExpr) -> bool {
    match e {
        PredExpr::Pred(p) => row_matches(row, p),
        PredExpr::And(a, b) => row_matches_expr(row, a) && row_matches_expr(row, b),
        PredExpr::Or(a, b) => row_matches_expr(row, a) || row_matches_expr(row, b),
        PredExpr::AndNot(a, b) => row_matches_expr(row, a) && !row_matches_expr(row, b),
    }
}

impl Select for RowTable {
    fn ids_matching(&self, p: &Pred) -> Vec<String> {
        self.ids_where(|row| row_matches(row, p))
    }

    fn all_ids(&self) -> Vec<String> {
        self.ids_where(|_| true)
    }

    fn select(&self, expr: &PredExpr) -> Vec<String> {
        self.ids_where(|row| row_matches_expr(row, expr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{flows, FlowParams};
    use crate::TripleStore;

    fn tables() -> (AssocTable, RowTable) {
        let records = flows(
            FlowParams {
                n_records: 500,
                n_hosts: 30,
                skew: 1.0,
            },
            5,
        );
        (
            AssocTable::from_records(records.clone()),
            RowTable::from_records(records),
        )
    }

    #[test]
    fn and_mask_equals_scan() {
        let (a, r) = tables();
        let preds = vec![Pred::eq("src", "1.1.1.1"), Pred::eq("port", "443")];
        assert_eq!(a.select_and(&preds), r.select_and(&preds));
        // AND of a single predicate reduces to select_eq.
        assert_eq!(
            a.select_and(&[Pred::eq("port", "80")]),
            a.select_eq("port", "80")
        );
    }

    #[test]
    fn or_mask_equals_scan() {
        let (a, r) = tables();
        let preds = vec![Pred::eq("port", "22"), Pred::eq("port", "53")];
        assert_eq!(a.select_or(&preds), r.select_or(&preds));
    }

    #[test]
    fn in_predicate_is_or_within_field() {
        let (a, _) = tables();
        let via_in = a.select_and(&[Pred::is_in("port", ["22", "53"])]);
        let via_or = a.select_or(&[Pred::eq("port", "22"), Pred::eq("port", "53")]);
        assert_eq!(via_in, via_or);
    }

    #[test]
    fn and_not_excludes() {
        let (a, r) = tables();
        let got = a.select_and_not(&Pred::eq("src", "1.1.1.1"), &Pred::eq("port", "443"));
        let want: Vec<String> = r
            .select_and(&[Pred::eq("src", "1.1.1.1")])
            .into_iter()
            .filter(|id| !r.select_and(&[Pred::eq("port", "443")]).contains(id))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_and_returns_all_records() {
        let (a, _) = tables();
        assert_eq!(a.select_and(&[]).len(), 500);
        assert!(a.select_or(&[]).is_empty());
    }

    #[test]
    fn conjunction_is_commutative() {
        let (a, _) = tables();
        let p1 = Pred::eq("src", "1.1.1.1");
        let p2 = Pred::eq("port", "80");
        assert_eq!(
            a.select_and(&[p1.clone(), p2.clone()]),
            a.select_and(&[p2, p1])
        );
    }

    #[test]
    fn distributivity_of_and_over_or() {
        // p ∧ (q ∨ r) = (p ∧ q) ∨ (p ∧ r) — §I's headline property, on queries.
        let (a, _) = tables();
        let p = Pred::eq("src", "1.1.1.1");
        let q = Pred::eq("port", "80");
        let r = Pred::eq("port", "443");
        let lhs = a.select(&p.clone().and(q.clone().or(r.clone())));
        let rhs = a.select(&p.clone().and(q).or(p.and(r)));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn combinator_tree_agrees_across_all_three_engines() {
        let records = flows(
            FlowParams {
                n_records: 400,
                n_hosts: 20,
                skew: 1.0,
            },
            11,
        );
        let a = AssocTable::from_records(records.clone());
        let r = RowTable::from_records(records.clone());
        let t = TripleStore::from_records(records);
        let expr = Pred::eq("src", "1.1.1.1")
            .and(Pred::is_in("port", ["80", "443"]))
            .or(Pred::eq("dst", "1.1.1.1").and_not(Pred::eq("port", "22")));
        let got_a = a.select(&expr);
        assert_eq!(got_a, r.select(&expr));
        assert_eq!(got_a, t.select(&expr));
        assert!(!got_a.is_empty());
    }

    #[test]
    fn nested_masks_stay_binary() {
        let (a, _) = tables();
        // An OR of overlapping predicates would accumulate 2.0 values
        // without zero-norming; nesting under AND must still be exact.
        let overlap = Pred::eq("src", "1.1.1.1").or(Pred::is_in("src", ["1.1.1.1"]));
        let mask = a.expr_mask(&overlap.and(Pred::eq("port", "80")));
        for (_, _, v) in mask.to_triplets() {
            assert_eq!(v, 1.0);
        }
    }
}
