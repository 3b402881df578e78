//! Graph analytics dashboard: one RMAT power-law graph pushed through
//! BFS, SSSP, connected components, triangles and k-truss, PageRank and
//! betweenness — every result computed in the language of linear algebra,
//! and every result that has a classical baseline (queue BFS, Dijkstra,
//! union-find, wedge-check triangles, classical Brandes) asserted
//! against it.
//!
//! ```sh
//! cargo run --release --example graph_analytics
//! ```

use graph::baseline::{bfs_queue, cc_union_find, dijkstra, triangles_wedge, AdjList};
use graph::bfs::{bfs_levels, bfs_parents};
use graph::cc::{connected_components, count_components};
use graph::centrality::{betweenness, betweenness_baseline};
use graph::pagerank::{pagerank, top_k, PageRankOpts};
use graph::pattern::{pattern_u64, pattern_u8, symmetrize};
use graph::sssp::sssp;
use graph::triangles::{ktruss, triangle_count, vertices};
use hypersparse::gen::{rmat_dcsr, RmatParams};
use semiring::PlusTimes;

fn main() {
    let s = PlusTimes::<f64>::new();
    let g = rmat_dcsr(
        RmatParams {
            scale: 11,
            edge_factor: 8,
            ..Default::default()
        },
        2026,
        s,
    );
    let sym = symmetrize(&g, s);
    println!(
        "RMAT scale 11: N = {}, directed edges = {}, undirected pattern = {}",
        g.nrows(),
        g.nnz(),
        sym.nnz()
    );

    // BFS (Fig. 1, both sides of the duality).
    let levels = bfs_levels(&pattern_u8(&g), 0);
    let queue = bfs_queue(&AdjList::from_pattern(&g), 0);
    assert!(levels.iter().all(|&(v, l)| queue[v as usize] == l));
    // Every parent is an in-neighbour one queue-BFS level closer to 0.
    let parents = bfs_parents(&pattern_u64(&g), 0);
    assert_eq!(parents.len(), levels.len());
    for &(v, p) in &parents {
        if v != 0 {
            assert!(g.get(p, v).is_some() && queue[p as usize] + 1 == queue[v as usize]);
        }
    }
    println!(
        "BFS from 0: {} reached, eccentricity {}, parent tree verified",
        levels.len(),
        levels.iter().map(|&(_, l)| l).max().unwrap_or(0)
    );

    // SSSP over min-plus, checked against Dijkstra.
    let dist = sssp(&g, 0);
    let d_dij = dijkstra(&AdjList::from_weighted(&g), 0);
    for &(v, d) in &dist {
        assert!((d - d_dij[v as usize]).abs() < 1e-9);
    }
    let farthest = dist
        .iter()
        .cloned()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    println!(
        "SSSP: {} reached, farthest = vertex {} at {:.3}",
        dist.len(),
        farthest.0,
        farthest.1
    );

    // Components, against union-find.
    let labels = connected_components(&pattern_u64(&sym));
    let edges: Vec<(u64, u64)> = sym.iter().map(|(r, c, _)| (r, c)).collect();
    let uf = cc_union_find(sym.nrows() as usize, &edges);
    assert!(labels.iter().all(|&(v, l)| l as usize == uf[v as usize]));
    println!("connected components: {}", count_components(&labels));

    // Triangles / k-truss.
    let tri = triangle_count(&sym);
    assert_eq!(tri, triangles_wedge(&AdjList::from_pattern(&sym)));
    let t4 = ktruss(&sym, 4);
    println!(
        "triangles = {tri}, 4-truss spans {} vertices",
        vertices(&t4).len()
    );

    // PageRank.
    let pr = pagerank(&g, PageRankOpts::default());
    println!("PageRank top 3: {:?}", top_k(&pr, 3));

    // Betweenness from 32 pivot sources, against classical Brandes.
    let pivots: Vec<u64> = (0..32).collect();
    let bc = betweenness(&sym, &pivots);
    let bc_base = betweenness_baseline(&sym, &pivots);
    for (x, y) in bc.iter().zip(&bc_base) {
        assert!((x - y).abs() < 1e-6);
    }
    let top_bc = bc
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap();
    println!(
        "betweenness (32 pivots) peaks at vertex {} = {:.1}",
        top_bc.0, top_bc.1
    );

    println!("graph_analytics OK — every result with a baseline matched it");
}
