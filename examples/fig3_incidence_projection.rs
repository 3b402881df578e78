//! **Figs. 2–3** — incidence arrays and the adjacency projection
//! `A = E_outᵀ ⊕.⊗ E_in`.
//!
//! Sweeps edge count and hyper-edge fraction; compares the SpGEMM
//! projection against a direct hash-accumulation baseline, asserting
//! equal results, and reports how hyper-edges (arity 2–8) inflate the
//! projected adjacency.
//!
//! Then the execution-context ablation (DESIGN.md §OpCtx) on the same
//! projection: a **fresh** `OpCtx` per iteration (every SpGEMM allocates
//! its accumulator scratch from cold) vs one **warm** `OpCtx` reused
//! across iterations (scratch comes from the arena after the first
//! call). Warm must equal fresh bit for bit.
//!
//! ```sh
//! cargo run --release --example fig3_incidence_projection
//! ```

use bench::{fmt_dur, quick_time};
use graph::hypergraph::{incidence_to_adjacency, incidence_to_adjacency_baseline, Hypergraph};
use hypersparse::ops::{mxm_ctx, transpose_ctx};
use hypersparse::{Dcsr, Ix, OpCtx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semiring::PlusTimes;

const N_VERTS: Ix = 1 << 16;

fn build(n_edges: usize, hyper_frac: f64, seed: u64) -> Hypergraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = Hypergraph::new(N_VERTS);
    for _ in 0..n_edges {
        if rng.gen::<f64>() < hyper_frac {
            let arity_out = rng.gen_range(1..4usize);
            let arity_in = rng.gen_range(2..8usize);
            let srcs: Vec<Ix> = sample_distinct(&mut rng, arity_out);
            let dsts: Vec<Ix> = sample_distinct(&mut rng, arity_in);
            h.add_hyperedge(&srcs, &dsts, 1.0);
        } else {
            let s = rng.gen_range(0..N_VERTS);
            let mut d = rng.gen_range(0..N_VERTS);
            if d == s {
                d = (d + 1) % N_VERTS;
            }
            h.add_edge(s, d, 1.0);
        }
    }
    h
}

fn sample_distinct(rng: &mut StdRng, k: usize) -> Vec<Ix> {
    let mut set = std::collections::BTreeSet::new();
    while set.len() < k {
        set.insert(rng.gen_range(0..N_VERTS));
    }
    set.into_iter().collect()
}

fn main() {
    println!("=== Fig. 3: A = E_outᵀ ⊕.⊗ E_in — SpGEMM vs hash baseline ===");
    println!("| edges   | hyper% | nnz(E)   | nnz(A)   | SpGEMM     | hash       |");
    for &edges in &[10_000usize, 100_000, 300_000] {
        for &frac in &[0.0, 0.1, 0.3] {
            let h = build(edges, frac, 7);
            let (e_out, e_in) = (h.e_out(), h.e_in());
            let s = PlusTimes::<f64>::new();
            let (t_mxm, a) = quick_time(3, || incidence_to_adjacency(&e_out, &e_in, s));
            let (t_hash, base) = quick_time(3, || incidence_to_adjacency_baseline(&e_out, &e_in));
            let got: Vec<(Ix, Ix, f64)> = a.iter().map(|(i, j, &v)| (i, j, v)).collect();
            assert_eq!(got.len(), base.len(), "projection mismatch");
            for ((gi, gj, gv), (bi, bj, bv)) in got.iter().zip(&base) {
                assert_eq!((gi, gj), (bi, bj));
                assert!((gv - bv).abs() < 1e-9);
            }
            println!(
                "| {:>7} | {:>5.0}% | {:>8} | {:>8} | {:>10} | {:>10} |",
                edges,
                frac * 100.0,
                e_out.nnz() + e_in.nnz(),
                a.nnz(),
                fmt_dur(t_mxm),
                fmt_dur(t_hash),
            );
        }
    }
    println!("✓ SpGEMM projection ≡ hash baseline at every point");
    println!("  (hyper-edges inflate nnz(A): each event implies |out|×|in| pairs — Fig. 2)");
    ctx_reuse();
}

/// One projection under `ctx`: `A = E_outᵀ ⊕.⊗ E_in`.
fn project(ctx: &OpCtx, e_out: &Dcsr<f64>, e_in: &Dcsr<f64>) -> Dcsr<f64> {
    let et = transpose_ctx(ctx, e_out);
    mxm_ctx(ctx, &et, e_in, PlusTimes::<f64>::new())
}

fn ctx_reuse() {
    println!("\n=== Ablation: OpCtx workspace reuse (Fig. 3 projection) ===");
    println!("| edges   | hyper% | fresh ctx  | warm ctx   | warm/fresh |");
    for &(edges, frac) in &[(30_000usize, 0.0), (100_000, 0.0), (100_000, 0.3)] {
        let h = build(edges, frac, 7);
        let (e_out, e_in) = (h.e_out(), h.e_in());

        let (t_fresh, a_fresh) = quick_time(5, || project(&OpCtx::new(), &e_out, &e_in));
        let warm = OpCtx::new();
        let _ = project(&warm, &e_out, &e_in); // prime the arena
        let (t_warm, a_warm) = quick_time(5, || project(&warm, &e_out, &e_in));

        assert_eq!(a_fresh, a_warm, "ctx reuse changed the projection");
        println!(
            "| {:>7} | {:>5.0}% | {:>10} | {:>10} | {:>9.2}x |",
            edges,
            frac * 100.0,
            fmt_dur(t_fresh),
            fmt_dur(t_warm),
            t_fresh.as_secs_f64() / t_warm.as_secs_f64(),
        );

        let snap = warm.metrics().snapshot();
        println!(
            "    warm arena: {} hits / {} misses, {} pooled buffer(s)",
            snap.workspace_hits,
            snap.workspace_misses,
            warm.pooled_buffers(),
        );
    }
    println!("✓ warm ≡ fresh bit-for-bit; reuse trades allocation for arena hits");
}
