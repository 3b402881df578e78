//! Incremental view maintenance vs from-scratch recompute.
//!
//! The claim under test: once a standing view holds state, absorbing one
//! delta wave is O(Δ) — independent of the accumulated window — while the
//! scratch formulation re-reads the whole window every epoch. Four pairs
//! are measured on the same workload:
//!
//! * `delta_fold` vs `full_fold` — the stream-level cut itself:
//!   [`StreamingMatrix::delta_snapshot`] folds only the post-watermark
//!   levels, `snapshot` folds the entire hierarchy;
//! * `incremental_detect` vs `scratch_detect` — fan-out/fan-in detector
//!   state folding one delta + flagging, vs a full `netsec` rescan;
//! * `incremental_tri` vs `scratch_tri` — masked-SpGEMM delta triangle
//!   counting vs recounting the whole symmetrized window;
//! * `pagerank_refresh` vs `pagerank_scratch` — warm-started power
//!   iteration seeded from the prior epoch's vector vs a cold start.
//!
//! Each incremental answer is asserted equal to its scratch counterpart
//! before being timed into `BENCH_incremental.json`; the `_us` keys are
//! pinned by the CI perf gate.

use std::time::{Duration, Instant};

use bench::{fmt_dur, quick_time, BenchRecord};
use criterion::Criterion;
use graph::incremental::{DegreeState, TriangleState};
use graph::pagerank::{pagerank, pagerank_refresh, PageRankOpts};
use graph::{netsec, pattern_f64, symmetrize, triangles};
use hypersparse::{Coo, Dcsr, Ix, OpCtx, StreamConfig, StreamingMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semiring::PlusTimes;

const N: Ix = 4096;
const BASE_WAVES: usize = 16;
const BASE_EVENTS: usize = 10_000;
const WAVE: usize = 500;
const ITERS: usize = 12;
const THRESH: u64 = 56;

type S = PlusTimes<u64>;

fn wave(seed: u64, len: usize) -> Vec<(Ix, Ix, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| (rng.gen_range(0..N), rng.gen_range(0..N), 1u64))
        .collect()
}

/// Chain-structured base graph for the PageRank pair: 64-vertex directed
/// chains with a second local hop. Uniform random graphs mix so fast
/// (|λ₂| ≈ deg^-1/2) that even a cold uniform seed converges in a
/// handful of iterations; chains have slow modes that decay at the
/// damping rate, which is the regime where warm restarts matter.
fn chain_graph() -> Dcsr<u64> {
    let mut c = Coo::new(N, N);
    for i in 0..N {
        if i % 64 < 63 {
            c.push(i, i + 1, 1u64);
        }
        if i % 64 < 62 {
            c.push(i, i + 2, 1u64);
        }
    }
    c.build_dcsr(S::new())
}

fn build(events: &[(Ix, Ix, u64)]) -> Dcsr<u64> {
    let mut c = Coo::new(N, N);
    c.extend(events.iter().copied());
    c.build_dcsr(S::new())
}

fn median(mut times: Vec<Duration>) -> Duration {
    times.sort();
    times[times.len() / 2]
}

fn us(d: Duration) -> f64 {
    (d.as_nanos() as f64 / 1e3 * 10.0).round() / 10.0
}

fn row(
    rec: &mut BenchRecord,
    label: &str,
    inc_key: &str,
    inc: Duration,
    scr_key: &str,
    scr: Duration,
) {
    println!(
        "| {label:>13} | incremental {:>9} | scratch {:>9} | {:>5.1}x |",
        fmt_dur(inc),
        fmt_dur(scr),
        scr.as_secs_f64() / inc.as_secs_f64().max(1e-12),
    );
    rec.set(inc_key, us(inc));
    rec.set(scr_key, us(scr));
}

fn shape_report() -> BenchRecord {
    println!("=== Incremental views: O(Δ) maintenance vs per-epoch recompute ===");
    println!(
        "({N}² key space, {BASE_WAVES}×{BASE_EVENTS} accumulated + {ITERS} measured waves of {WAVE}, medians)"
    );
    let mut rec = BenchRecord::new("incremental_view");
    let s = S::new();

    // --- Stream-level fold: delta cut vs full hierarchy fold. ---------
    let mut m = StreamingMatrix::with_config(N, N, s, StreamConfig::new());
    for w in 0..BASE_WAVES {
        for &(r, c, v) in &wave(w as u64, BASE_EVENTS) {
            m.insert(r, c, v);
        }
    }
    let _ = m.delta_snapshot(); // seal the accumulated window
    let mut delta_times = Vec::with_capacity(ITERS);
    for i in 0..ITERS {
        for &(r, c, v) in &wave(100 + i as u64, WAVE) {
            m.insert(r, c, v);
        }
        let t = Instant::now();
        let d = m.delta_snapshot();
        delta_times.push(t.elapsed());
        assert!(d.nnz() > 0);
    }
    let (full_t, full_now) = quick_time(ITERS, || m.snapshot());
    rec.set("window_nnz", full_now.nnz() as f64);
    println!("--- per-epoch cost, window at {} nnz ---", full_now.nnz());
    row(
        &mut rec,
        "stream_fold",
        "delta_fold_us",
        median(delta_times),
        "full_fold_us",
        full_t,
    );

    // --- Standing detector + triangle state vs scratch rescan. --------
    let mut deg = DegreeState::new(N, N);
    let mut tri = TriangleState::new(N);
    let mut full = Dcsr::<u64>::empty(N, N);
    for w in 0..BASE_WAVES {
        let d = build(&wave(w as u64, BASE_EVENTS));
        deg.apply_delta(&d);
        tri.apply_delta(&d);
        full = hypersparse::ops::ewise_add_ctx(&OpCtx::new(), &full, &d, s);
    }
    let mut inc_detect = Vec::new();
    let mut scr_detect = Vec::new();
    let mut inc_tri = Vec::new();
    let mut scr_tri = Vec::new();
    for i in 0..ITERS {
        let d = build(&wave(100 + i as u64, WAVE));
        full = hypersparse::ops::ewise_add_ctx(&OpCtx::new(), &full, &d, s);

        let t = Instant::now();
        deg.apply_delta(&d);
        let flags = deg.scan_suspects(THRESH);
        inc_detect.push(t.elapsed());
        let t = Instant::now();
        let scratch_flags = netsec::scan_suspects(&full, THRESH);
        scr_detect.push(t.elapsed());
        assert_eq!(flags, scratch_flags);

        let t = Instant::now();
        tri.apply_delta(&d);
        let count = tri.count();
        inc_tri.push(t.elapsed());
        let t = Instant::now();
        let sym = symmetrize(&pattern_f64(&full), PlusTimes::<f64>::new());
        let scratch_count = triangles::triangle_count(&sym);
        scr_tri.push(t.elapsed());
        assert_eq!(count, scratch_count);
    }
    rec.set("delta_nnz", WAVE as f64);
    row(
        &mut rec,
        "detect",
        "incremental_detect_us",
        median(inc_detect),
        "scratch_detect_us",
        median(scr_detect),
    );
    row(
        &mut rec,
        "triangles",
        "incremental_tri_us",
        median(inc_tri),
        "scratch_tri_us",
        median(scr_tri),
    );

    // --- PageRank: warm restart from the prior epoch's vector. --------
    // Serving-grade tolerance: the point of the refresh is that a prior
    // one small delta away needs far fewer power iterations to re-enter
    // the tolerance ball than a cold uniform start.
    let opts = PageRankOpts {
        tol: 1e-6,
        ..PageRankOpts::default()
    };
    let base = chain_graph();
    let prior = pagerank(&pattern_f64(&base), opts);
    let delta = build(&wave(600, 10));
    let pat = pattern_f64(&hypersparse::ops::ewise_add_ctx(
        &OpCtx::new(),
        &base,
        &delta,
        s,
    ));
    let (cold_t, cold) = quick_time(5, || pagerank(&pat, opts));
    let (warm_t, warm) = quick_time(5, || pagerank_refresh(&pat, &prior, opts));
    let l1: f64 = cold.iter().zip(&warm).map(|(a, b)| (a - b).abs()).sum();
    assert!(l1 < 1e-3, "refresh diverged: L1 gap {l1}");
    row(
        &mut rec,
        "pagerank",
        "pagerank_refresh_us",
        warm_t,
        "pagerank_scratch_us",
        cold_t,
    );
    println!("✓ every incremental answer matched its from-scratch counterpart");
    rec
}

fn criterion_benches(c: &mut Criterion) {
    let s = S::new();
    let mut deg = DegreeState::new(N, N);
    let mut full = Dcsr::<u64>::empty(N, N);
    for w in 0..BASE_WAVES {
        let d = build(&wave(w as u64, BASE_EVENTS));
        deg.apply_delta(&d);
        full = hypersparse::ops::ewise_add_ctx(&OpCtx::new(), &full, &d, s);
    }
    let deltas: Vec<Dcsr<u64>> = (0..ITERS)
        .map(|i| build(&wave(300 + i as u64, WAVE)))
        .collect();

    let mut group = c.benchmark_group("incremental/detect");
    group.sample_size(20);
    group.bench_function("apply_delta", |b| {
        let mut k = 0usize;
        b.iter(|| {
            deg.apply_delta(&deltas[k % deltas.len()]);
            k += 1;
            deg.scan_suspects(THRESH)
        })
    });
    group.bench_function("scratch_rescan", |b| {
        b.iter(|| netsec::scan_suspects(&full, THRESH))
    });
    group.finish();
}

fn main() {
    let rec = shape_report();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_incremental.json");
    match rec.write(path) {
        Ok(()) => println!("recorded medians → {path}"),
        Err(e) => println!("could not record {path}: {e}"),
    }
    let mut c = Criterion::default().configure_from_args();
    criterion_benches(&mut c);
    c.final_summary();
}
