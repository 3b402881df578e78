//! **Table II** — associative array operations and properties.
//!
//! Verifies each algebraic law at benchmark scale, then times every
//! Table II operation on random string-keyed associative arrays across
//! three sizes.
//!
//! ```sh
//! cargo run --release --example table2_assoc_ops
//! ```

use bench::{fmt_dur, quick_time};
use hyperspace_core::Assoc;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semiring::{PlusMonoid, PlusTimes};

type A = Assoc<String, String, f64>;

fn s() -> PlusTimes<f64> {
    PlusTimes::new()
}

/// Random string-keyed array: `nnz` triplets over a `√nnz·4`-key universe.
fn random_assoc(nnz: usize, seed: u64) -> A {
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = ((nnz as f64).sqrt() as usize * 4).max(8);
    let trips = (0..nnz)
        .map(|_| {
            (
                format!("row{:06}", rng.gen_range(0..keys)),
                format!("col{:06}", rng.gen_range(0..keys)),
                1.0 + rng.gen::<f64>(),
            )
        })
        .collect();
    Assoc::from_triplets(trips, s())
}

fn main() {
    println!("=== Table II: associative array operations (regenerated) ===");
    let a = random_assoc(100_000, 1);
    let b = random_assoc(100_000, 2);

    // Laws at scale (positive values → no cancellation surprises).
    assert_eq!(a.ewise_add(&b, s()), b.ewise_add(&a, s()));
    assert_eq!(a.ewise_mul(&b, s()), b.ewise_mul(&a, s()));
    assert_eq!(a.transpose(s()).transpose(s()), a);
    let id = Assoc::identity(a.col_keys().to_vec(), s());
    assert_eq!(a.matmul(&id, s()), a);
    println!("✓ commutativity, transpose involution, A ⊕.⊗ 𝕀 = A at nnz = 100k");

    println!("| operation        | 1k nnz     | 10k nnz    | 100k nnz   |");
    let sizes = [1_000usize, 10_000, 100_000];
    let arrays: Vec<(A, A)> = sizes
        .iter()
        .map(|&n| (random_assoc(n, 3), random_assoc(n, 4)))
        .collect();

    macro_rules! op_row {
        ($name:expr, $f:expr) => {{
            let f = $f;
            let mut cells = Vec::new();
            for (a, b) in &arrays {
                let (t, _) = quick_time(3, || f(a, b));
                cells.push(fmt_dur(t));
            }
            println!(
                "| {:<16} | {:>10} | {:>10} | {:>10} |",
                $name, cells[0], cells[1], cells[2]
            );
        }};
    }

    op_row!("construction", |a: &A, _b: &A| Assoc::from_triplets(
        a.to_triplets(),
        s()
    ));
    op_row!("extraction", |a: &A, _b: &A| a.to_triplets());
    op_row!("transpose", |a: &A, _b: &A| a.transpose(s()));
    op_row!("zero-norm |A|0", |a: &A, _b: &A| a.zero_norm(s()));
    op_row!("ewise add", |a: &A, b: &A| a.ewise_add(b, s()));
    op_row!("ewise mul", |a: &A, b: &A| a.ewise_mul(b, s()));
    op_row!("array mult", |a: &A, b: &A| a.matmul(b, s()));
    op_row!("reduce rows", |a: &A, _b: &A| a
        .reduce_rows(PlusMonoid::<f64>::default()));
    op_row!("permutation", |a: &A, _b: &A| {
        let pairs: Vec<(String, String)> = a
            .row_keys()
            .iter()
            .zip(a.col_keys())
            .map(|(r, c)| (r.clone(), c.clone()))
            .collect();
        Assoc::<String, String, f64>::permutation(pairs, s())
    });
    op_row!("identity", |a: &A, _b: &A| {
        Assoc::<String, String, f64>::identity(a.row_keys().to_vec(), s())
    });
}
