//! **Fig. 1** — graph ↔ adjacency array duality.
//!
//! BFS performed "on a graph" (queue + adjacency lists) and "on an
//! adjacency array" (frontier `vᵀA` over the any-pair semiring) across
//! RMAT scales. The two sides must produce identical level sets; the
//! example reports how the duality trades off in time as the graph grows.
//!
//! ```sh
//! cargo run --release --example fig1_bfs_duality
//! ```

use bench::{fmt_dur, quick_time};
use graph::baseline::{bfs_queue, AdjList};
use graph::bfs::bfs_levels;
use graph::pattern::pattern_u8;
use hypersparse::gen::{rmat_dcsr, RmatParams};
use hypersparse::{Dcsr, Ix};
use semiring::PlusTimes;

fn rmat(scale: u32) -> Dcsr<f64> {
    rmat_dcsr(
        RmatParams {
            scale,
            edge_factor: 8,
            ..Default::default()
        },
        1,
        PlusTimes::<f64>::new(),
    )
}

fn main() {
    println!("=== Fig. 1: BFS duality — array multiplication vs queue ===");
    println!("| scale | N      | nnz      | reached | array BFS  | queue BFS  |");
    for scale in [10u32, 12, 14, 16] {
        let g = rmat(scale);
        let pat = pattern_u8(&g);
        let adj = AdjList::from_pattern(&g);
        let (t_arr, lv_arr) = quick_time(3, || bfs_levels(&pat, 0));
        let (t_q, lv_q) = quick_time(3, || bfs_queue(&adj, 0));

        // Duality check: identical level sets.
        let mut want: Vec<(Ix, u32)> = lv_q
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l != u32::MAX)
            .map(|(v, &l)| (v as Ix, l))
            .collect();
        want.sort_by_key(|e| e.0);
        assert_eq!(lv_arr, want, "duality violated at scale {scale}");

        println!(
            "| {:>5} | {:>6} | {:>8} | {:>7} | {:>10} | {:>10} |",
            scale,
            g.nrows(),
            g.nnz(),
            lv_arr.len(),
            fmt_dur(t_arr),
            fmt_dur(t_q),
        );
    }
    println!("✓ identical BFS level sets on both sides of the duality at every scale");
}
