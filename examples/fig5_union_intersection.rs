//! **Fig. 5** — graph union and intersection as ⊕ and ⊗.
//!
//! Pairs of random graphs with a controlled edge-overlap fraction:
//! element-wise array kernels vs hash-set baselines, results asserted
//! equal, sizes reported (union shrinks toward one operand and
//! intersection grows with overlap — the figure's two panels).
//!
//! ```sh
//! cargo run --release --example fig5_union_intersection
//! ```

use bench::{fmt_dur, quick_time};
use graph::setops::{graph_intersection, graph_union, intersection_baseline, union_baseline};
use hypersparse::{Coo, Dcsr, Ix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semiring::PlusTimes;

const N: Ix = 1 << 14;
const EDGES: usize = 100_000;

fn s() -> PlusTimes<f64> {
    PlusTimes::new()
}

/// Two graphs sharing `overlap` of their edges.
fn pair(overlap: f64, seed: u64) -> (Dcsr<f64>, Dcsr<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shared = Vec::new();
    let mut only_a = Vec::new();
    let mut only_b = Vec::new();
    let mut seen = std::collections::HashSet::new();
    while shared.len() + only_a.len() < EDGES {
        let e = (rng.gen_range(0..N), rng.gen_range(0..N));
        if !seen.insert(e) {
            continue;
        }
        let w = 1.0 + rng.gen::<f64>();
        if rng.gen::<f64>() < overlap {
            shared.push((e.0, e.1, w));
        } else {
            only_a.push((e.0, e.1, w));
            // A distinct b-only edge of the same weight class.
            loop {
                let eb = (rng.gen_range(0..N), rng.gen_range(0..N));
                if seen.insert(eb) {
                    only_b.push((eb.0, eb.1, 1.0 + rng.gen::<f64>()));
                    break;
                }
            }
        }
    }
    let mut ca = Coo::new(N, N);
    ca.extend(shared.iter().copied());
    ca.extend(only_a.iter().copied());
    let mut cb = Coo::new(N, N);
    cb.extend(shared.iter().copied());
    cb.extend(only_b.iter().copied());
    (ca.build_dcsr(s()), cb.build_dcsr(s()))
}

fn main() {
    println!("=== Fig. 5: graph union (⊕) and intersection (⊗) vs hash baselines ===");
    println!(
        "| overlap | nnz(A∪B) | nnz(A∩B) | ⊕ ewise    | ∪ hash     | ⊗ ewise    | ∩ hash     |"
    );
    for &ov in &[0.0, 0.25, 0.5, 0.75, 1.0] {
        let (a, b) = pair(ov, 11);
        let (ta, u) = quick_time(3, || graph_union(&a, &b, s()));
        let (tb, i) = quick_time(3, || graph_intersection(&a, &b, s()));
        let at = a.to_triplets();
        let bt = b.to_triplets();
        let (tc, ub) = quick_time(3, || union_baseline(&at, &bt, s()));
        let (td, ib) = quick_time(3, || intersection_baseline(&at, &bt, s()));

        // Equality of both formulations.
        assert_eq!(u.to_triplets(), ub, "union mismatch at overlap {ov}");
        assert_eq!(i.to_triplets(), ib, "intersection mismatch at overlap {ov}");

        println!(
            "| {:>6.0}% | {:>8} | {:>8} | {:>10} | {:>10} | {:>10} | {:>10} |",
            ov * 100.0,
            u.nnz(),
            i.nnz(),
            fmt_dur(ta),
            fmt_dur(tc),
            fmt_dur(tb),
            fmt_dur(td),
        );
    }
    println!("✓ ⊕/⊗ kernels ≡ hash-set union/intersection at every overlap");
    println!("  (intersection grows and union shrinks with overlap — Fig. 5's panels)");
}
