//! Append-only visited bookkeeping for masked traversals.
//!
//! BFS-style sweeps need two things from their visited set: a sorted
//! index slice to hand the fused complement-mask kernels
//! ([`hypersparse::ops::vxm_opt_ctx`]), and a cheap way to absorb
//! each level's newly-reached vertices. [`Visited`] keeps one sorted
//! `Vec<Ix>` and merges each (already sorted, disjoint) frontier batch
//! in `O(new)` when the batch lands past the current maximum and
//! `O(old + new)` otherwise — replacing the full `ewise_add` rebuild
//! the traversals used to pay per level.

use hypersparse::Ix;

/// An append-only sorted set of visited vertex ids.
#[derive(Clone, Debug, Default)]
pub struct Visited {
    idx: Vec<Ix>,
}

impl Visited {
    /// The empty set.
    pub fn new() -> Self {
        Visited::default()
    }

    /// A set holding one seed vertex.
    pub fn with_seed(src: Ix) -> Self {
        Visited { idx: vec![src] }
    }

    /// The sorted ids — the complement-mask argument of the fused
    /// traversal kernels.
    pub fn as_slice(&self) -> &[Ix] {
        &self.idx
    }

    /// Membership test.
    pub fn contains(&self, i: Ix) -> bool {
        self.idx.binary_search(&i).is_ok()
    }

    /// Number of visited vertices.
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    /// `true` when nothing has been visited.
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// Absorb a sorted batch of newly-visited ids, disjoint from the
    /// current contents (which the masked kernels guarantee: masked-off
    /// vertices never reappear in a frontier).
    pub fn absorb_sorted(&mut self, batch: &[Ix]) {
        debug_assert!(batch.windows(2).all(|w| w[0] < w[1]));
        if batch.is_empty() {
            return;
        }
        match self.idx.last() {
            Some(&last) if batch[0] <= last => {
                debug_assert!(batch.iter().all(|&b| self.idx.binary_search(&b).is_err()));
                let old = std::mem::take(&mut self.idx);
                self.idx = Vec::with_capacity(old.len() + batch.len());
                let (mut i, mut j) = (0, 0);
                while i < old.len() && j < batch.len() {
                    if old[i] < batch[j] {
                        self.idx.push(old[i]);
                        i += 1;
                    } else {
                        self.idx.push(batch[j]);
                        j += 1;
                    }
                }
                self.idx.extend_from_slice(&old[i..]);
                self.idx.extend_from_slice(&batch[j..]);
            }
            _ => self.idx.extend_from_slice(batch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_appends_and_merges() {
        let mut v = Visited::with_seed(5);
        v.absorb_sorted(&[7, 9]); // fast path: past the max
        assert_eq!(v.as_slice(), &[5, 7, 9]);
        v.absorb_sorted(&[1, 6, 20]); // merge path
        assert_eq!(v.as_slice(), &[1, 5, 6, 7, 9, 20]);
        v.absorb_sorted(&[]);
        assert_eq!(v.len(), 6);
        assert!(v.contains(6));
        assert!(!v.contains(8));
    }

    #[test]
    fn empty_set_absorbs() {
        let mut v = Visited::new();
        assert!(v.is_empty());
        v.absorb_sorted(&[2, 4]);
        assert_eq!(v.as_slice(), &[2, 4]);
    }
}
