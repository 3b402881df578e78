//! Visited state for masked traversals, kept across levels.
//!
//! A BFS-style sweep needs two things from its visited set: the
//! complement mask of the fused kernels ([`hypersparse::ops::vxm_opt_ctx`])
//! at every level, and at the end every reached vertex with its payload
//! (level, parent, …) in vertex order. [`Visited`] holds both, in one of
//! two forms picked once by the [`compact`] rule:
//!
//! * over a compact vertex space, a bitmap that the kernels probe as it
//!   stands ([`Mask::Bits`]) and a dense payload array. Absorbing a level
//!   sets its bits and stores its payloads, `O(new)`; the output is one
//!   walk of the bitmap.
//! * over a wide space (a 2⁴⁰-id key space, say), the sorted ids
//!   ([`Mask::Sorted`]), a level merged in by one pass over the set, and
//!   the payloads in the order found, sorted once at the end.

use hypersparse::ops::{compact, Mask};
use hypersparse::Ix;

/// The vertices a traversal has reached, each with its payload.
#[derive(Clone, Debug)]
pub struct Visited<P> {
    state: State<P>,
}

#[derive(Clone, Debug)]
enum State<P> {
    /// Bit `i % 64` of `words[i / 64]` marks vertex `i`; `payload[i]` is
    /// its payload once marked.
    Bits { words: Vec<u64>, payload: Vec<P> },
    /// Strictly increasing ids; every `(id, payload)` in the order found.
    Sorted { ids: Vec<Ix>, found: Vec<(Ix, P)> },
}

impl<P: Clone> Visited<P> {
    /// `{src}` with payload `seed`, over a vertex space `dim` wide whose
    /// graph stores `nnz` entries.
    pub fn new(dim: Ix, nnz: usize, src: Ix, seed: P) -> Self {
        assert!(src < dim, "source {src} outside dimension {dim}");
        let state = if compact(dim, nnz) {
            let mut words = vec![0; (dim as usize).div_ceil(64)];
            words[(src >> 6) as usize] |= 1 << (src & 63);
            let payload = vec![seed; dim as usize];
            State::Bits { words, payload }
        } else {
            State::Sorted {
                ids: vec![src],
                found: vec![(src, seed)],
            }
        };
        Visited { state }
    }

    /// The set as the fused kernels' complement mask, in the form it is
    /// kept.
    pub fn mask(&self) -> Mask<'_> {
        match &self.state {
            State::Bits { words, .. } => Mask::Bits(words),
            State::Sorted { ids, .. } => Mask::Sorted(ids),
        }
    }

    /// Absorb a level: strictly increasing `ids`, none visited yet (the
    /// masked kernels guarantee it), with one payload each.
    pub fn absorb(&mut self, ids: &[Ix], payloads: Vec<P>) {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(ids.iter().all(|&i| !self.mask().contains(i)));
        debug_assert_eq!(ids.len(), payloads.len());
        match &mut self.state {
            State::Bits { words, payload } => {
                for (&i, p) in ids.iter().zip(payloads) {
                    words[(i >> 6) as usize] |= 1 << (i & 63);
                    payload[i as usize] = p;
                }
            }
            State::Sorted { ids: old, found } => {
                old.extend_from_slice(ids);
                // Two sorted runs: the stable sort merges them in one pass.
                old.sort();
                found.extend(ids.iter().copied().zip(payloads));
            }
        }
    }

    /// Every visited vertex with its payload, in vertex order.
    pub fn into_sorted(self) -> Vec<(Ix, P)> {
        match self.state {
            State::Bits { words, payload } => {
                let n = words.iter().map(|w| w.count_ones() as usize).sum();
                let mut out = Vec::with_capacity(n);
                for (k, &word) in words.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let i = k * 64 + bits.trailing_zeros() as usize;
                        out.push((i as Ix, payload[i].clone()));
                        bits &= bits - 1;
                    }
                }
                out
            }
            State::Sorted { mut found, .. } => {
                found.sort_by_key(|e| e.0);
                found
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_appends_and_merges() {
        // 64 ids over 100 entries is compact; 2⁴⁰ ids is not.
        for dim in [64, 1 << 40] {
            let mut v = Visited::new(dim, 100, 5, 'a');
            assert!(matches!(
                (dim, v.mask()),
                (64, Mask::Bits(_)) | (1099511627776, Mask::Sorted(_))
            ));
            v.absorb(&[7, 9], vec!['b', 'c']); // past the max
            v.absorb(&[1, 6, 20], vec!['d', 'e', 'f']); // merged
            v.absorb(&[], vec![]);
            assert!(v.mask().contains(6) && !v.mask().contains(8));
            let got = v.into_sorted();
            let want = [(1, 'd'), (5, 'a'), (6, 'e'), (7, 'b'), (9, 'c'), (20, 'f')];
            assert_eq!(got, want, "dim {dim}");
        }
    }
}
