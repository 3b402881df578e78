//! String interning: "key based indices (such as pointers to strings)".
//!
//! The paper's conclusion calls for GraphBLAS to add *key based indices
//! such as pointers to strings*. [`AtomTable`] is that facility: it maps
//! arbitrary strings to dense `u64` atoms (and back), so that string-keyed
//! associative arrays and string-valued power sets ([`crate::PSet`]) can
//! run on integer kernels.

use std::collections::HashMap;
use std::sync::Arc;

/// An interned string id.
pub type Atom = u64;

/// A bidirectional string ↔ atom table.
///
/// Atoms are handed out densely from 0 in first-intern order, and
/// [`AtomTable::iter`] yields the names back in that order.
#[derive(Default, Debug, Clone)]
pub struct AtomTable {
    by_name: HashMap<Arc<str>, Atom>,
    by_atom: Vec<Arc<str>>,
}

impl AtomTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s`, returning its atom (existing or fresh).
    pub fn intern(&mut self, s: &str) -> Atom {
        if let Some(&a) = self.by_name.get(s) {
            return a;
        }
        let name: Arc<str> = Arc::from(s);
        let a = self.by_atom.len() as Atom;
        self.by_atom.push(name.clone());
        self.by_name.insert(name, a);
        a
    }

    /// Look up an already-interned string without inserting.
    pub fn get(&self, s: &str) -> Option<Atom> {
        self.by_name.get(s).copied()
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.by_atom.len()
    }

    /// `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.by_atom.is_empty()
    }

    /// Iterate `(atom, name)` pairs in atom order.
    pub fn iter(&self) -> impl Iterator<Item = (Atom, &str)> {
        self.by_atom
            .iter()
            .enumerate()
            .map(|(i, s)| (i as Atom, s.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = AtomTable::new();
        let a = t.intern("1.1.1.1");
        let b = t.intern("1.1.1.1");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn atoms_are_dense_in_order() {
        let mut t = AtomTable::new();
        assert_eq!(t.intern("a"), 0);
        assert_eq!(t.intern("b"), 1);
        assert_eq!(t.intern("a"), 0);
        assert_eq!(t.intern("c"), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut t = AtomTable::new();
        let a = t.intern("src|10.0.0.1");
        let resolve = |a: Atom| t.iter().find(|&(x, _)| x == a).map(|(_, s)| s);
        assert_eq!(resolve(a), Some("src|10.0.0.1"));
        assert_eq!(resolve(999), None);
        assert_eq!(t.get("src|10.0.0.1"), Some(a));
        assert_eq!(t.get("absent"), None);
    }

    #[test]
    fn iter_yields_in_atom_order() {
        let mut t = AtomTable::new();
        t.intern("x");
        t.intern("y");
        let pairs: Vec<_> = t.iter().collect();
        assert_eq!(pairs, vec![(0, "x"), (1, "y")]);
    }
}
