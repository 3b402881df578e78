//! The associative array type and the Table II operation set.

use std::fmt;
use std::sync::Arc;

use hypersparse::{ops, with_default_ctx, Coo, Dcsr, Ix, Matrix, SparseVec};
use semiring::traits::{Monoid, Semiring, UnaryOp, Value};
use semiring::ZeroNorm;

use crate::key::{dict_index, make_dict, rank_keys, remap, union_dicts, Key};

/// An associative array `A : K₁ × K₂ → 𝕍` (§III).
///
/// Representation: sorted key dictionaries for rows and columns, plus a
/// [`hypersparse::Matrix`] indexed by dictionary positions. The matrix
/// chooses its own storage format; the dictionaries give the array its
/// key-based indexing ("pointers to strings" in the paper's conclusion).
#[derive(Clone, Debug)]
pub struct Assoc<K1, K2, T> {
    row_keys: Arc<Vec<K1>>,
    col_keys: Arc<Vec<K2>>,
    mat: Matrix<T>,
}

impl<K1: Key, K2: Key, T: Value> Assoc<K1, K2, T> {
    // ---- Table II: Construction  A = 𝔸(k₁, k₂, v) ----

    /// Build from `(row key, col key, value)` triplets. Duplicate keys
    /// ⊕-combine in arrival order; semiring zeros are dropped. Each key
    /// side is ranked by one sort ([`rank_keys`]), and each value is
    /// placed by its ranks.
    pub fn from_triplets<S: Semiring<Value = T>>(triplets: Vec<(K1, K2, T)>, s: S) -> Self {
        let (rows, rest): (Vec<K1>, Vec<(K2, T)>) =
            triplets.into_iter().map(|(a, b, v)| (a, (b, v))).unzip();
        let (cols, vals): (Vec<K2>, Vec<T>) = rest.into_iter().unzip();
        let ((row_keys, rows), (col_keys, cols)) = (rank_keys(rows), rank_keys(cols));
        let mut coo = Coo::new(row_keys.len() as Ix, col_keys.len() as Ix);
        for ((r, c), v) in rows.into_iter().zip(cols).zip(vals) {
            coo.push(Ix::from(r), Ix::from(c), v);
        }
        let mat = Matrix::from_dcsr(coo.build_dcsr(s), s);
        Self::from_parts(Arc::new(row_keys), Arc::new(col_keys), mat)
    }

    /// The empty associative array (no keys, no entries).
    pub fn new_empty() -> Self {
        Assoc {
            row_keys: Arc::new(Vec::new()),
            col_keys: Arc::new(Vec::new()),
            mat: Matrix::empty(0, 0),
        }
    }

    /// Assemble from aligned parts: sorted unique key dictionaries (which
    /// other arrays may share) and a matrix whose dimensions equal the
    /// dictionary lengths.
    pub fn from_parts(row_keys: Arc<Vec<K1>>, col_keys: Arc<Vec<K2>>, mat: Matrix<T>) -> Self {
        assert!(
            row_keys.windows(2).all(|w| w[0] < w[1]),
            "row keys must be sorted unique"
        );
        assert!(
            col_keys.windows(2).all(|w| w[0] < w[1]),
            "col keys must be sorted unique"
        );
        assert_eq!(
            mat.nrows(),
            row_keys.len() as Ix,
            "matrix/dict row mismatch"
        );
        assert_eq!(
            mat.ncols(),
            col_keys.len() as Ix,
            "matrix/dict col mismatch"
        );
        Assoc {
            row_keys,
            col_keys,
            mat,
        }
    }

    // ---- Table II: Permutation ℙ(k₁, k₂) = 𝔸(k₁, k₂, 1) ----

    /// The permutation-pattern array: value `1` at each given key pair.
    /// Pairs must pair distinct row keys with distinct column keys for a
    /// true ℙ; the constructor does not enforce it (the semilink checks
    /// test `|A|₀ = ℙ` explicitly) but duplicates still ⊕-combine.
    pub fn permutation<S: Semiring<Value = T>>(pairs: Vec<(K1, K2)>, s: S) -> Self {
        let one = s.one();
        Self::from_triplets(
            pairs
                .into_iter()
                .map(|(a, b)| (a, b, one.clone()))
                .collect(),
            s,
        )
    }

    /// All-ones array `𝟙` over the given key sets (used by projections and
    /// the §V.B select mask; keep the key sets small — this is dense).
    pub fn ones<S: Semiring<Value = T>>(row_keys: Vec<K1>, col_keys: Vec<K2>, s: S) -> Self {
        let rk = make_dict(row_keys);
        let ck = make_dict(col_keys);
        let one = s.one();
        let mut trips = Vec::with_capacity(rk.len() * ck.len());
        for r in &rk {
            for c in &ck {
                trips.push((r.clone(), c.clone(), one.clone()));
            }
        }
        Self::from_triplets(trips, s)
    }

    // ---- accessors ----

    /// Table II `row(A)`: the sorted unique row keys.
    pub fn row_keys(&self) -> &[K1] {
        &self.row_keys
    }

    /// Table II `col(A)`: the sorted unique column keys.
    pub fn col_keys(&self) -> &[K2] {
        &self.col_keys
    }

    /// Table II `nnz(A)`.
    pub fn nnz(&self) -> usize {
        self.mat.nnz()
    }

    /// `true` if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.nnz() == 0
    }

    /// The backing matrix (storage format, bytes, …).
    pub fn matrix(&self) -> &Matrix<T> {
        &self.mat
    }

    /// Point lookup by keys.
    pub fn get(&self, k1: &K1, k2: &K2) -> Option<T> {
        let r = dict_index(&self.row_keys, k1)?;
        let c = dict_index(&self.col_keys, k2)?;
        self.mat.get(r, c).cloned()
    }

    /// One row as `(column key, value)` pairs in key order.
    pub fn row(&self, k1: &K1) -> Vec<(K2, T)> {
        let Some(r) = dict_index(&self.row_keys, k1) else {
            return Vec::new();
        };
        let d = self.mat.as_dcsr();
        let (cols, vals) = d.row(r);
        cols.iter()
            .zip(vals)
            .map(|(&c, v)| (self.col_keys[c as usize].clone(), v.clone()))
            .collect()
    }

    // ---- Table II: Extraction  (k₁, k₂, v) = A ----

    /// All entries as key-addressed triplets, sorted by `(k₁, k₂)`.
    pub fn to_triplets(&self) -> Vec<(K1, K2, T)> {
        self.mat
            .to_triplets()
            .into_iter()
            .map(|(r, c, v)| {
                (
                    self.row_keys[r as usize].clone(),
                    self.col_keys[c as usize].clone(),
                    v,
                )
            })
            .collect()
    }

    // ---- Table II: Transpose ----

    /// `Aᵀ(k₂, k₁) = A(k₁, k₂)`.
    pub fn transpose<S: Semiring<Value = T>>(&self, s: S) -> Assoc<K2, K1, T> {
        Assoc {
            row_keys: self.col_keys.clone(),
            col_keys: self.row_keys.clone(),
            mat: with_default_ctx(|ctx| {
                self.mat.compute_ctx(ctx, s, |a| ops::transpose_ctx(ctx, a))
            }),
        }
    }

    // ---- Table II: zero-norm and other unary maps ----

    /// The element-wise zero-norm `|A|₀`: every stored value becomes the
    /// semiring `1` — the array's sparsity pattern.
    pub fn zero_norm<S: Semiring<Value = T>>(&self, s: S) -> Self {
        self.apply(ZeroNorm(s), s)
    }

    /// Apply a unary operator to every stored value (new zeros drop).
    pub fn apply<S: Semiring<Value = T>, O: UnaryOp<T, T>>(&self, op: O, s: S) -> Self {
        Assoc {
            row_keys: self.row_keys.clone(),
            col_keys: self.col_keys.clone(),
            mat: with_default_ctx(|ctx| {
                self.mat
                    .compute_ctx(ctx, s, |a| ops::apply_ctx(ctx, a, op, s))
            }),
        }
    }

    /// Keep entries satisfying a key-and-value predicate.
    pub fn filter<S, F>(&self, keep: F, s: S) -> Self
    where
        S: Semiring<Value = T>,
        F: Fn(&K1, &K2, &T) -> bool,
    {
        let rk = &self.row_keys;
        let ck = &self.col_keys;
        Assoc {
            row_keys: self.row_keys.clone(),
            col_keys: self.col_keys.clone(),
            mat: with_default_ctx(|ctx| {
                self.mat.compute_ctx(ctx, s, |a| {
                    ops::select_ctx(ctx, a, |r, c, v| keep(&rk[r as usize], &ck[c as usize], v))
                })
            }),
        }
    }

    /// `A(rows, cols)` — subarray by key lists. Requested keys absent
    /// from the array contribute empty rows/columns; the result's
    /// dictionaries are exactly the requested keys (sorted, deduped).
    pub fn extract<S: Semiring<Value = T>>(&self, rows: Vec<K1>, cols: Vec<K2>, s: S) -> Self {
        let rows = make_dict(rows);
        let cols = make_dict(cols);
        // Positions of requested keys that exist, plus their target slots.
        let mut row_pos = Vec::new();
        let mut row_slot = Vec::new();
        for (slot, k) in rows.iter().enumerate() {
            if let Some(p) = dict_index(&self.row_keys, k) {
                row_pos.push(p);
                row_slot.push(slot as Ix);
            }
        }
        let mut col_pos = Vec::new();
        let mut col_slot = Vec::new();
        for (slot, k) in cols.iter().enumerate() {
            if let Some(p) = dict_index(&self.col_keys, k) {
                col_pos.push(p);
                col_slot.push(slot as Ix);
            }
        }
        let sub =
            with_default_ctx(|ctx| ops::extract_ctx(ctx, &self.mat.as_dcsr(), &row_pos, &col_pos));
        // `sub` is indexed by position within row_pos/col_pos; remap those
        // positions to the requested-dictionary slots.
        let remapped = remap(
            &sub,
            Some(&row_slot),
            Some(&col_slot),
            rows.len() as Ix,
            cols.len() as Ix,
        );
        Assoc {
            row_keys: Arc::new(rows),
            col_keys: Arc::new(cols),
            mat: Matrix::from_dcsr(remapped, s),
        }
    }

    // ---- Table II: element-wise ⊕ / ⊗ with key alignment ----

    /// `C = A ⊕ B`. Key spaces union-align first; overlapping cells
    /// combine with ⊕, everything else passes through (`A ⊕ 0 = A`).
    pub fn ewise_add<S: Semiring<Value = T>>(&self, other: &Self, s: S) -> Self {
        let (rk, ck, a, b) = align_pair(self, other);
        Assoc {
            row_keys: Arc::new(rk),
            col_keys: Arc::new(ck),
            mat: Matrix::from_dcsr(
                with_default_ctx(|ctx| ops::ewise_add_ctx(ctx, &a, &b, s)),
                s,
            ),
        }
    }

    /// `C = A ⊗ B`. Only cells present in both survive (`A ⊗ 0 = 0`).
    pub fn ewise_mul<S: Semiring<Value = T>>(&self, other: &Self, s: S) -> Self {
        let (rk, ck, a, b) = align_pair(self, other);
        Assoc {
            row_keys: Arc::new(rk),
            col_keys: Arc::new(ck),
            mat: Matrix::from_dcsr(
                with_default_ctx(|ctx| ops::ewise_mul_ctx(ctx, &a, &b, s)),
                s,
            ),
        }
    }

    // ---- Table II: array multiplication ⊕.⊗ ----

    /// `C = A ⊕.⊗ B`: `C(k₁, k₂) = ⊕_k A(k₁, k) ⊗ B(k, k₂)`.
    ///
    /// The inner key dimension aligns by *union* of `col(A)` and
    /// `row(B)` — no conformance rule; keys missing on either side simply
    /// contribute nothing (§III's "little regard for the true
    /// dimensions").
    pub fn matmul<K3: Key, S: Semiring<Value = T>>(
        &self,
        other: &Assoc<K2, K3, T>,
        s: S,
    ) -> Assoc<K1, K3, T> {
        let (inner, map_a, map_b) = union_dicts(&self.col_keys, &other.row_keys);
        let n_inner = inner.len() as Ix;
        let a = remap(
            &self.mat.as_dcsr(),
            None,
            Some(&map_a),
            self.row_keys.len() as Ix,
            n_inner,
        );
        let b = remap(
            &other.mat.as_dcsr(),
            Some(&map_b),
            None,
            n_inner,
            other.col_keys.len() as Ix,
        );
        Assoc {
            row_keys: self.row_keys.clone(),
            col_keys: other.col_keys.clone(),
            mat: Matrix::from_dcsr(with_default_ctx(|ctx| ops::mxm_ctx(ctx, &a, &b, s)), s),
        }
    }

    // ---- reductions (the ⊕.⊗-against-𝟙 projections, folded directly) ----

    /// `out(k₁) = ⊕_{k₂} A(k₁, k₂)` as key/value pairs.
    pub fn reduce_rows<M: Monoid<T>>(&self, m: M) -> Vec<(K1, T)> {
        let v = with_default_ctx(|ctx| ops::reduce_rows_ctx(ctx, &self.mat.as_dcsr(), m));
        vec_to_keyed(&v, &self.row_keys)
    }

    /// `out(k₂) = ⊕_{k₁} A(k₁, k₂)` as key/value pairs.
    pub fn reduce_cols<M: Monoid<T>>(&self, m: M) -> Vec<(K2, T)> {
        let v = with_default_ctx(|ctx| ops::reduce_cols_ctx(ctx, &self.mat.as_dcsr(), m));
        vec_to_keyed(&v, &self.col_keys)
    }

    /// Fold every entry into one scalar.
    pub fn reduce_scalar<M: Monoid<T>>(&self, m: M) -> T {
        with_default_ctx(|ctx| ops::reduce_scalar_ctx(ctx, &self.mat.as_dcsr(), m))
    }

    /// Drop rows and columns whose keys carry no entries (compaction
    /// after filtering ops). Canonical form for equality of key sets.
    pub fn prune<S: Semiring<Value = T>>(&self, s: S) -> Self {
        Self::from_triplets(self.to_triplets(), s)
    }

    /// Rename row keys through `f`. Keys that collide after renaming
    /// ⊕-combine their rows (D4M's key-mapping semantics — e.g. mapping
    /// timestamps to hours aggregates automatically).
    pub fn map_row_keys<K3, S, F>(&self, f: F, s: S) -> Assoc<K3, K2, T>
    where
        K3: Key,
        S: Semiring<Value = T>,
        F: Fn(&K1) -> K3,
    {
        Assoc::from_triplets(
            self.to_triplets()
                .into_iter()
                .map(|(k1, k2, v)| (f(&k1), k2, v))
                .collect(),
            s,
        )
    }

    /// Rename column keys through `f`; collisions ⊕-combine.
    pub fn map_col_keys<K3, S, F>(&self, f: F, s: S) -> Assoc<K1, K3, T>
    where
        K3: Key,
        S: Semiring<Value = T>,
        F: Fn(&K2) -> K3,
    {
        Assoc::from_triplets(
            self.to_triplets()
                .into_iter()
                .map(|(k1, k2, v)| (k1, f(&k2), v))
                .collect(),
            s,
        )
    }
}

impl<K: Key, T: Value> Assoc<K, K, T> {
    /// Table II `𝕀(k) = ℙ(k, k)`: the identity array on a key set.
    pub fn identity<S: Semiring<Value = T>>(keys: Vec<K>, s: S) -> Self {
        Self::permutation(keys.into_iter().map(|k| (k.clone(), k)).collect(), s)
    }
}

/// Mathematical equality: same stored triplets, regardless of storage
/// format or of empty keys lingering in dictionaries.
impl<K1: Key, K2: Key, T: Value> PartialEq for Assoc<K1, K2, T> {
    fn eq(&self, other: &Self) -> bool {
        self.to_triplets() == other.to_triplets()
    }
}

impl<K1, K2, T> fmt::Display for Assoc<K1, K2, T>
where
    K1: Key + fmt::Display,
    K2: Key + fmt::Display,
    T: Value + fmt::Display,
{
    /// Spreadsheet-style rendering (rows × columns, blank = absent) —
    /// the paper's "plug-in replacement for spreadsheets" view.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>12} |", "")?;
        for c in self.col_keys.iter() {
            write!(f, " {c:>10}")?;
        }
        writeln!(f)?;
        let d = self.mat.as_dcsr();
        for (r, k1) in self.row_keys.iter().enumerate() {
            write!(f, "{k1:>12} |")?;
            let (cols, vals) = d.row(r as Ix);
            let mut p = 0usize;
            for c in 0..self.col_keys.len() as Ix {
                if p < cols.len() && cols[p] == c {
                    write!(f, " {:>10}", vals[p])?;
                    p += 1;
                } else {
                    write!(f, " {:>10}", "")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

fn align_pair<K1: Key, K2: Key, T: Value>(
    a: &Assoc<K1, K2, T>,
    b: &Assoc<K1, K2, T>,
) -> (Vec<K1>, Vec<K2>, Dcsr<T>, Dcsr<T>) {
    let (rk, row_a, row_b) = union_dicts(&a.row_keys, &b.row_keys);
    let (ck, col_a, col_b) = union_dicts(&a.col_keys, &b.col_keys);
    let (nr, nc) = (rk.len() as Ix, ck.len() as Ix);
    let da = remap(&a.mat.as_dcsr(), Some(&row_a), Some(&col_a), nr, nc);
    let db = remap(&b.mat.as_dcsr(), Some(&row_b), Some(&col_b), nr, nc);
    (rk, ck, da, db)
}

fn vec_to_keyed<K: Key, T: Value>(v: &SparseVec<T>, dict: &[K]) -> Vec<(K, T)> {
    v.iter()
        .map(|(i, t)| (dict[i as usize].clone(), t.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use semiring::{MaxPlus, MinPlus, PlusMonoid, PlusTimes};

    fn s() -> PlusTimes<f64> {
        PlusTimes::new()
    }

    fn fruit() -> Assoc<&'static str, &'static str, f64> {
        Assoc::from_triplets(
            vec![
                ("alice", "apples", 2.0),
                ("alice", "pears", 1.0),
                ("bob", "apples", 5.0),
            ],
            s(),
        )
    }

    #[test]
    fn construction_and_lookup() {
        let a = fruit();
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.row_keys(), &["alice", "bob"]);
        assert_eq!(a.col_keys(), &["apples", "pears"]);
        assert_eq!(a.get(&"alice", &"pears"), Some(1.0));
        assert_eq!(a.get(&"bob", &"pears"), None);
        assert_eq!(a.get(&"carol", &"apples"), None);
    }

    #[test]
    fn duplicate_triplets_combine() {
        let a = Assoc::from_triplets(vec![("x", "y", 1.0), ("x", "y", 2.0)], s());
        assert_eq!(a.get(&"x", &"y"), Some(3.0));
        let m = Assoc::from_triplets(
            vec![("x", "y", 5.0), ("x", "y", 2.0)],
            MinPlus::<f64>::new(),
        );
        assert_eq!(m.get(&"x", &"y"), Some(2.0));
    }

    #[test]
    fn from_triplets_ranks_keys_in_one_sort() {
        // Duplicates ⊕-fold in arrival order: (1e16 + 1) − 1e16 is 0 in
        // `f64`, not the 1 any other order gives.
        let vals = [1e16, 1.0, -1e16, 2.5];
        let a = Assoc::from_triplets(vals.iter().map(|&v| ("x", "y", v)).collect(), s());
        let want = vals.iter().fold(0.0, |acc: f64, v| acc + v);
        assert_eq!(a.get(&"x", &"y").map(f64::to_bits), Some(want.to_bits()));
        // Unsorted input with repeated keys: the same dictionaries as
        // `make_dict`, and every entry where its keys say.
        let trips: Vec<(String, String, f64)> = (0..40u32)
            .map(|i| {
                (
                    format!("r{}", (i * 7) % 11),
                    format!("c{}", (i * 5) % 13),
                    f64::from(i),
                )
            })
            .collect();
        let a = Assoc::from_triplets(trips.clone(), s());
        assert_eq!(
            a.row_keys(),
            make_dict(trips.iter().map(|t| t.0.clone()).collect())
        );
        assert_eq!(
            a.col_keys(),
            make_dict(trips.iter().map(|t| t.1.clone()).collect())
        );
        for (r, c, v) in &trips {
            let sum: f64 = trips
                .iter()
                .filter(|t| (&t.0, &t.1) == (r, c))
                .map(|t| t.2)
                .sum();
            assert_eq!(a.get(r, c), Some(sum).filter(|&x| x != 0.0), "{r} {c} {v}");
        }
        // An empty input gives the empty array.
        let e = Assoc::<String, String, f64>::from_triplets(Vec::new(), s());
        assert!(e.is_empty() && e.row_keys().is_empty() && e.col_keys().is_empty());
        assert_eq!(e, Assoc::new_empty());
    }

    #[test]
    fn extraction_round_trips() {
        let a = fruit();
        let b = Assoc::from_triplets(a.to_triplets(), s());
        assert_eq!(a, b);
    }

    #[test]
    fn ewise_add_aligns_key_spaces() {
        let a = fruit();
        let b = Assoc::from_triplets(vec![("bob", "apples", 1.0), ("carol", "figs", 3.0)], s());
        let c = a.ewise_add(&b, s());
        assert_eq!(c.get(&"bob", &"apples"), Some(6.0));
        assert_eq!(c.get(&"alice", &"apples"), Some(2.0));
        assert_eq!(c.get(&"carol", &"figs"), Some(3.0));
        assert_eq!(c.row_keys(), &["alice", "bob", "carol"]);
        assert_eq!(c.col_keys(), &["apples", "figs", "pears"]);
    }

    #[test]
    fn ewise_mul_is_intersection() {
        let a = fruit();
        let b = Assoc::from_triplets(vec![("bob", "apples", 2.0), ("carol", "figs", 3.0)], s());
        let c = a.ewise_mul(&b, s());
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(&"bob", &"apples"), Some(10.0));
    }

    #[test]
    fn matmul_aligns_inner_keys() {
        // purchases: person × fruit; prices: fruit × currency.
        let purchases = fruit();
        let prices = Assoc::from_triplets(
            vec![
                ("apples", "usd", 0.5),
                ("pears", "usd", 0.75),
                ("figs", "usd", 2.0),
            ],
            s(),
        );
        let cost = purchases.matmul(&prices, s());
        assert_eq!(cost.get(&"alice", &"usd"), Some(2.0 * 0.5 + 1.0 * 0.75));
        assert_eq!(cost.get(&"bob", &"usd"), Some(2.5));
    }

    #[test]
    fn matmul_disjoint_inner_keys_is_zero() {
        let a = Assoc::from_triplets(vec![("r", "x", 1.0)], s());
        let b = Assoc::from_triplets(vec![("y", "c", 1.0)], s());
        let c = a.matmul(&b, s());
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn transpose_swaps_keys() {
        let a = fruit();
        let t = a.transpose(s());
        assert_eq!(t.get(&"apples", &"bob"), Some(5.0));
        assert_eq!(t.transpose(s()), a);
    }

    #[test]
    fn identity_and_permutation() {
        let i = Assoc::identity(vec!["a", "b"], s());
        assert_eq!(i.get(&"a", &"a"), Some(1.0));
        assert_eq!(i.get(&"a", &"b"), None);
        // A ⊕.⊗ 𝕀 = A when 𝕀 covers col(A).
        let a = fruit();
        let id = Assoc::identity(vec!["apples", "pears"], s());
        assert_eq!(a.matmul(&id, s()), a);
    }

    #[test]
    fn zero_norm_is_pattern() {
        let a = fruit();
        let p = a.zero_norm(s());
        assert_eq!(p.get(&"bob", &"apples"), Some(1.0));
        assert_eq!(p.nnz(), a.nnz());
    }

    #[test]
    fn extract_subarray() {
        let a = fruit();
        let sub = a.extract(vec!["alice", "zed"], vec!["pears"], s());
        assert_eq!(sub.get(&"alice", &"pears"), Some(1.0));
        assert_eq!(sub.nnz(), 1);
        assert_eq!(sub.row_keys(), &["alice", "zed"]); // requested keys kept
    }

    #[test]
    fn reductions_with_keys() {
        let a = fruit();
        let rows = a.reduce_rows(PlusMonoid::<f64>::default());
        assert_eq!(rows, vec![("alice", 3.0), ("bob", 5.0)]);
        let cols = a.reduce_cols(PlusMonoid::<f64>::default());
        assert_eq!(cols, vec![("apples", 7.0), ("pears", 1.0)]);
        assert_eq!(a.reduce_scalar(PlusMonoid::<f64>::default()), 8.0);
    }

    #[test]
    fn filter_by_key_and_value() {
        let a = fruit();
        let only_alice = a.filter(|k1, _, _| *k1 == "alice", s());
        assert_eq!(only_alice.nnz(), 2);
        let big = a.filter(|_, _, v| *v > 1.5, s());
        assert_eq!(big.nnz(), 2);
    }

    #[test]
    fn tropical_assoc() {
        let t = MaxPlus::<f64>::new();
        let a = Assoc::from_triplets(vec![("x", "y", 1.0), ("y", "z", 2.0)], t);
        let b = Assoc::from_triplets(vec![("y", "z", 10.0)], t);
        let c = a.ewise_add(&b, t);
        assert_eq!(c.get(&"y", &"z"), Some(10.0)); // max
    }

    #[test]
    fn display_renders_table() {
        let a = fruit();
        let text = format!("{a}");
        assert!(text.contains("alice"));
        assert!(text.contains("apples"));
    }

    #[test]
    fn map_keys_aggregates_collisions() {
        let a = Assoc::from_triplets(
            vec![
                ("2026-07-08T10:15", "pkts", 3.0),
                ("2026-07-08T10:45", "pkts", 4.0),
                ("2026-07-08T11:05", "pkts", 5.0),
            ],
            s(),
        );
        // Truncate timestamps to the hour: the 10 o'clock rows merge.
        let hourly = a.map_row_keys(|k| k[..13].to_string(), s());
        assert_eq!(hourly.row_keys().len(), 2);
        assert_eq!(hourly.get(&"2026-07-08T10".to_string(), &"pkts"), Some(7.0));
    }

    #[test]
    fn map_col_keys_strips_prefixes() {
        let a = Assoc::from_triplets(vec![("r", "src|a", 1.0), ("r", "src|b", 2.0)], s());
        let stripped = a.map_col_keys(|c| c[4..].to_string(), s());
        assert_eq!(stripped.get(&"r", &"a".to_string()), Some(1.0));
        assert_eq!(stripped.col_keys(), &["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn prune_drops_empty_keys() {
        let a = fruit();
        let none = a.filter(|_, _, _| false, s());
        assert_eq!(none.row_keys().len(), 2); // dict lingers…
        assert_eq!(none.prune(s()).row_keys().len(), 0); // …until pruned
    }
}
