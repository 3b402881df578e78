//! Kernel hot-path trajectory (DESIGN.md §13): the pinned medians
//! behind `BENCH_kernels.json` and the CI perf gate.
//!
//! Every row measures one tentpole optimization against the baseline it
//! replaced, on the workload where it is supposed to pay:
//!
//! * **u32 vs u64 column ids** — uniform SpGEMM and ewise union, where
//!   index bytes dominate streamed bandwidth;
//! * **flat vs `Option<T>`/hash accumulators** — PlusTimes/f64 SpGEMM
//!   and push-mode vxm, LorLand word-merge ewise; the `*_generic_ns`
//!   reference rows run the same call through `semiring::Plain`, which
//!   withholds the semiring's capabilities, so both sides share the
//!   context and the sharding;
//! * **merge-path weighted shards** — SpGEMM on an RMAT-skewed graph at
//!   4 threads, where hub rows would serialize equal-row-count spans;
//! * **radix vs comparison sort** — flushing one 4 096-event buffer of a
//!   hypersparse netflow window (the crate's stable LSD radix sort, in
//!   place, against the `sort_by_key` + fold it replaced and the tests
//!   keep as oracle), and the structural column degrees of that
//!   window's ~200 k-entry pattern, which sort the column ids;
//! * **the buffer follows the window** — a whole 250 k-event window
//!   through one stream whose previous window set its flush threshold
//!   (32 768 instead of 4 096), per event;
//! * **indexing instead of searching** — on the `kernel_batch` graph
//!   (scale-14 RMAT, seed 7): the triangle-count product `L·L⟨L⟩` (mask
//!   slots, B rows found by position) and the transpose a reused BFS
//!   takes (one counting pass in the compact column space);
//! * **a push with no transpose** — one PageRank on a fresh `Graph` of
//!   the scale-12 RMAT's pattern at one thread, whose dense vxm pushes
//!   along `A`'s rows.
//!
//! The JSON artifact holds lower-is-better nanosecond medians;
//! `perf_gate` fails CI when any of them regresses >10%.

use bench::{fmt_dur, quick_time, BenchRecord};
use hypersparse::gen::{random_dcsr, rmat_dcsr, RmatParams};
use hypersparse::{
    ops, Coo, Dcsr, Decision, Direction, Ix, OpCtx, SparseVec, StreamConfig, StreamingMatrix,
};
use netflow::gen::{GenConfig, TrafficGen};
use semiring::{FnOp, LorLand, MinFirst, Plain, PlusTimes, Semiring, ZeroNorm};
use std::time::Duration;

fn s() -> PlusTimes<f64> {
    PlusTimes::new()
}

/// Median nanoseconds of `iters` timed runs (one warmup inside).
fn med(iters: usize, f: impl FnMut() -> u64) -> f64 {
    let (d, _keep) = quick_time(iters, f);
    d.as_nanos() as f64
}

/// Boolean matrix over a random pattern with stored `false` values, so
/// the word-merge path carries real presence/truth traffic.
fn bool_mat(n: Ix, nnz: usize, seed: u64) -> Dcsr<bool> {
    let pat = random_dcsr(n, n, nnz, seed, s());
    let mut c = Coo::new(n, n);
    for (i, j, _) in pat.iter() {
        c.push(i, j, true);
    }
    let (nr, nc, rows, rowptr, colidx, mut vals) = c.build_dcsr(LorLand).into_parts();
    for v in vals.iter_mut().step_by(5) {
        *v = false;
    }
    Dcsr::from_parts(nr, nc, rows, rowptr, colidx, vals)
}

/// ~`k`-vertex unit frontier over the non-empty rows of `g`.
fn frontier_of(g: &Dcsr<f64>, k: usize) -> SparseVec<f64> {
    let rows: Vec<Ix> = g.iter_rows().map(|(r, _, _)| r).collect();
    let step = (rows.len() / k.max(1)).max(1);
    SparseVec::from_entries(
        g.nrows(),
        rows.iter()
            .step_by(step)
            .map(|&r| (r, 1.0 + r as f64))
            .collect(),
        s(),
    )
}

/// The flush as it was before the radix sort, and the oracle the
/// property tests still hold it to: stable comparison sort, fold each
/// duplicate group left to right, drop zeros, lay the arrays down.
fn comparison_sorted_flush(n: Ix, mut buf: Vec<(Ix, Ix, u64)>) -> Dcsr<u64> {
    let s = PlusTimes::<u64>::new();
    buf.sort_by_key(|e| (e.0, e.1));
    let (mut rows, mut rowptr) = (Vec::new(), vec![0usize]);
    let (mut colidx, mut vals) = (Vec::with_capacity(buf.len()), Vec::with_capacity(buf.len()));
    let mut it = buf.into_iter().peekable();
    while let Some((r, c, mut v)) = it.next() {
        while let Some(&(_, _, dup)) = it.peek().filter(|e| (e.0, e.1) == (r, c)) {
            s.add_assign(&mut v, dup);
            it.next();
        }
        if s.is_zero(&v) {
            continue;
        }
        if rows.last() != Some(&r) {
            rows.push(r);
            rowptr.push(colidx.len());
        }
        colidx.push(c);
        vals.push(v);
        *rowptr.last_mut().expect("nonempty") = colidx.len();
    }
    Dcsr::from_parts(n, n, rows, rowptr, colidx, vals)
}

struct Row {
    key: &'static str,
    ns: f64,
}

fn report(rec: &mut BenchRecord, label: &str, rows: Vec<Row>) {
    println!("--- {label} ---");
    let base = rows.first().map(|r| r.ns).unwrap_or(1.0);
    for r in &rows {
        println!(
            "| {:<24} | {:>10} | {:>5.2}x |",
            r.key,
            fmt_dur(Duration::from_nanos(r.ns as u64)),
            base / r.ns.max(1.0)
        );
        rec.set(r.key, r.ns.round());
    }
}

fn main() {
    println!("=== Kernel hot paths: pinned medians (DESIGN.md §13) ===");
    let mut rec = BenchRecord::new("kernel_hotpaths");
    let ctx = OpCtx::new();

    // Uniform SpGEMM: Option<T> accumulator vs flat vs narrow ids.
    let a = random_dcsr(3_000, 3_000, 60_000, 11, s());
    let b = random_dcsr(3_000, 3_000, 60_000, 12, s());
    let (a32, b32) = (
        a.to_index_width::<u32>().unwrap(),
        b.to_index_width::<u32>().unwrap(),
    );
    report(
        &mut rec,
        "SpGEMM, uniform 3000x3000, 60k nnz",
        vec![
            Row {
                key: "mxm_uniform_generic_ns",
                ns: med(7, || ops::mxm_ctx(&ctx, &a, &b, Plain(s())).nnz() as u64),
            },
            Row {
                key: "mxm_uniform_u64_ns",
                ns: med(7, || ops::mxm_ctx(&ctx, &a, &b, s()).nnz() as u64),
            },
            Row {
                key: "mxm_uniform_u32_ns",
                ns: med(7, || ops::mxm_ctx(&ctx, &a32, &b32, s()).nnz() as u64),
            },
        ],
    );

    // Skewed SpGEMM under merge-path weighted shards.
    let g = rmat_dcsr(
        RmatParams {
            scale: 12,
            edge_factor: 8,
            probs: (0.57, 0.19, 0.19, 0.05),
        },
        7,
        s(),
    );
    let weighted = OpCtx::new().with_threads(4);
    report(
        &mut rec,
        "SpGEMM, RMAT scale 12, 4 threads",
        vec![Row {
            key: "mxm_rmat_weighted_ns",
            ns: med(5, || ops::mxm_ctx(&weighted, &g, &g, s()).nnz() as u64),
        }],
    );

    // PageRank on a fresh graph: the dense vxm pushes over the pattern.
    let unit = g.pattern(1.0);
    let one = OpCtx::new().with_threads(1);
    let opts = graph::pagerank::PageRankOpts::default();
    report(
        &mut rec,
        "PageRank, RMAT scale 12, fresh Graph, 1 thread",
        vec![Row {
            key: "pagerank_rmat_ns",
            ns: med(9, || {
                graph::pagerank::pagerank_ctx(&one, &graph::Graph::new(&unit), opts).len() as u64
            }),
        }],
    );

    // Push-mode vxm: hash scatter vs flat accumulator vs narrow ids,
    // on a busy RMAT frontier.
    let h = rmat_dcsr(
        RmatParams {
            scale: 13,
            edge_factor: 8,
            probs: (0.57, 0.19, 0.19, 0.05),
        },
        9,
        s(),
    );
    let h32 = h.to_index_width::<u32>().unwrap();
    let v = frontier_of(&h, 800);
    let v32 = v.to_index_width::<u32>().unwrap();
    report(
        &mut rec,
        "vxm push, RMAT scale 13, ~800-vertex frontier",
        vec![
            Row {
                key: "vxm_push_generic_ns",
                ns: med(9, || ops::vxm_ctx(&ctx, &v, &h, Plain(s())).nnz() as u64),
            },
            Row {
                key: "vxm_push_mono_ns",
                ns: med(9, || ops::vxm_ctx(&ctx, &v, &h, s()).nnz() as u64),
            },
            Row {
                key: "vxm_push_u32_ns",
                ns: med(9, || ops::vxm_ctx(&ctx, &v32, &h32, s()).nnz() as u64),
            },
        ],
    );

    // Boolean ewise union: generic two-pointer merge vs word-at-a-time
    // bitmaps (rows dense enough that the per-pair gate engages).
    let ba = bool_mat(2_048, 180_000, 21);
    let bb = bool_mat(2_048, 180_000, 22);
    report(
        &mut rec,
        "ewise union, bool 2048x2048, 180k nnz",
        vec![
            Row {
                key: "ewise_bool_generic_ns",
                ns: med(9, || {
                    ops::ewise_add_ctx(&ctx, &ba, &bb, Plain(LorLand)).nnz() as u64
                }),
            },
            Row {
                key: "ewise_bool_word_ns",
                ns: med(9, || {
                    ops::ewise_add_ctx(&ctx, &ba, &bb, LorLand).nnz() as u64
                }),
            },
        ],
    );

    // f64 ewise union: u64 vs u32 column ids.
    let ea = random_dcsr(4_000, 4_000, 120_000, 31, s());
    let eb = random_dcsr(4_000, 4_000, 120_000, 32, s());
    let (ea32, eb32) = (
        ea.to_index_width::<u32>().unwrap(),
        eb.to_index_width::<u32>().unwrap(),
    );
    report(
        &mut rec,
        "ewise union, f64 4000x4000, 120k nnz",
        vec![
            Row {
                key: "ewise_add_u64_ns",
                ns: med(9, || ops::ewise_add_ctx(&ctx, &ea, &eb, s()).nnz() as u64),
            },
            Row {
                key: "ewise_add_u32_ns",
                ns: med(9, || {
                    ops::ewise_add_ctx(&ctx, &ea32, &eb32, s()).nnz() as u64
                }),
            },
        ],
    );

    // One shard buffer's flush and the closing window's column degrees,
    // on the e2e `netflow_ingest` window shape: 65 536 heavy-tailed hosts
    // in a 2³² × 2³² space, 250 k events → ~195 k distinct flows. Sixteen
    // buffers per timed run, reported per buffer.
    const BUFFER: usize = 4_096;
    const BUFFERS: usize = 16;
    let n: Ix = 1 << 32;
    let window: Vec<(Ix, Ix, u64)> = TrafficGen::new(
        GenConfig::new()
            .with_hosts(65_536)
            .with_events_per_window(250_000)
            .with_seed(7),
    )
    .window(0)
    .into_iter()
    .map(|(src, dst, packets)| (Ix::from(src), Ix::from(dst), packets))
    .collect();
    let counts = PlusTimes::<u64>::new();
    let mut stream =
        StreamingMatrix::with_config(n, n, counts, StreamConfig::new().with_buffer_cap(BUFFER));
    let per_buffer = |total: f64| total / BUFFERS as f64;
    report(
        &mut rec,
        "stream flush, one 4096-event buffer of a 65536-host window",
        vec![
            Row {
                key: "stream_flush_cmp_ns",
                ns: per_buffer(med(15, || {
                    (window.chunks_exact(BUFFER).take(BUFFERS))
                        .map(|buf| comparison_sorted_flush(n, buf.to_vec()).nnz() as u64)
                        .sum()
                })),
            },
            Row {
                key: "stream_flush_radix_ns",
                ns: per_buffer(med(15, || {
                    (window.chunks_exact(BUFFER).take(BUFFERS))
                        .map(|buf| {
                            for &(r, c, v) in buf {
                                stream.insert(r, c, v); // the last one flushes
                            }
                            let nnz = stream.level_slots()[0].as_ref().map_or(0, Dcsr::nnz);
                            stream.reset();
                            nnz as u64
                        })
                        .sum()
                })),
            },
        ],
    );
    // Whole windows through one default-configured stream, inserts and
    // the closing rotate, per event. The untimed first window sets the
    // flush threshold every timed one runs at: a quarter of 250 k,
    // clamped to 32 768.
    let mut adapted = StreamingMatrix::new(n, n, counts);
    let mut close_window = || {
        for &(r, c, v) in &window {
            adapted.insert(r, c, v);
        }
        adapted.rotate().0.nnz() as u64
    };
    close_window();
    report(
        &mut rec,
        "stream window, 250k events at the threshold the last window set",
        vec![Row {
            key: "stream_window_ns",
            ns: med(7, close_window) / window.len() as f64,
        }],
    );
    let mut flat = Coo::new(n, n);
    flat.extend(window.iter().copied());
    let pattern = flat.build_dcsr(counts);
    report(
        &mut rec,
        "column degrees, ~195k-entry window pattern",
        vec![Row {
            key: "col_degrees_ns",
            ns: med(15, || ops::col_degrees_ctx(&ctx, &pattern).nnz() as u64),
        }],
    );

    // The `kernel_batch` graph: L is the strictly lower pattern of its
    // symmetrization, as `graph::triangles::triangle_count` builds it.
    let r = rmat_dcsr(
        RmatParams {
            scale: 14,
            edge_factor: 8,
            probs: (0.57, 0.19, 0.19, 0.05),
        },
        7,
        s(),
    );
    let sym = ops::ewise_add_ctx(&ctx, &r, &ops::transpose_ctx(&ctx, &r), s());
    let l = ops::apply_ctx(&ctx, &sym, ZeroNorm(s()), s());
    let l = ops::select_ctx(&ctx, &l, |i, j, _| j < i);
    report(
        &mut rec,
        "masked SpGEMM L·L<L>, RMAT scale 14 (triangle count)",
        vec![Row {
            key: "mxm_masked_tri_ns",
            ns: med(5, || {
                ops::mxm_masked_ctx(&ctx, &l, &l, &l, false, s()).nnz() as u64
            }),
        }],
    );
    report(
        &mut rec,
        "transpose, RMAT scale 14",
        vec![Row {
            key: "transpose_rmat_ns",
            ns: med(9, || ops::transpose_ctx(&ctx, &r).nnz() as u64),
        }],
    );

    // The `kernel_batch` RadiX-Net (1 024 neurons, fan-in 32, bias −0.8,
    // model seed 0xD17A) on its block batch (1 024 rows, seed 7): the
    // third layer's fused `relu(Y·W + b)` on the activations the first
    // two leave, in the `u32` ids `dnn::infer_fused` runs on.
    let net = dnn::radix_net(
        dnn::RadixNetParams {
            n_neurons: 1_024,
            fanin: 32,
            depth: 4,
            bias: -0.8,
        },
        0xD17A,
    );
    let first_two = net.layers[..2].iter().map(|w| w.to_index_width().unwrap());
    let two = dnn::SparseDnn::new(1_024, first_two.collect(), net.biases[..2].to_vec());
    let y = dnn::infer_fused(&two, &dnn::input::block_batch(1_024, 1_024, 32, 7));
    let (y, w, bias) = (
        y.to_index_width::<u32>().unwrap(),
        net.layers[2].clone(),
        net.biases[2],
    );
    let relu = FnOp(move |x: f64| (x + bias).max(0.0));
    report(
        &mut rec,
        "fused DNN layer relu(Y·W + b), kernel_batch RadiX-Net layer 3",
        vec![Row {
            key: "mxm_dnn_layer_ns",
            ns: med(9, || {
                ops::mxm_apply_prune_ctx(&ctx, &y, &w, s(), relu, s()).nnz() as u64
            }),
        }],
    );
    // Which drain each shape's flat rows took (DESIGN.md §13): the
    // density rule the layer's gain rests on, read off a fresh context.
    let drains = |f: &dyn Fn(&OpCtx)| {
        let probe = OpCtx::new().with_threads(1);
        f(&probe);
        let snap = probe.metrics().snapshot();
        let [scan, bitmap] = [Decision::DrainScan, Decision::DrainBitmap].map(|d| snap.decision(d));
        println!("flat rows drained by scan: {scan} of {}", scan + bitmap);
    };
    drains(&|c| drop(ops::mxm_apply_prune_ctx(c, &y, &w, s(), relu, s())));
    drains(&|c| drop(ops::mxm_ctx(c, &a, &b, s())));

    // The largest level a `bfs_parents` from the `kernel_batch` graph's
    // busiest vertex pulls: MinFirst over its `u64` pattern, the
    // frontier stamped with its own ids, the visited set as the mask.
    let pat = graph::pattern_u64(&r);
    let pat_t = ops::transpose_ctx(&ctx, &pat);
    let src = (r.iter_rows())
        .max_by_key(|&(row, cols, _)| (cols.len(), std::cmp::Reverse(row)))
        .map_or(0, |(row, _, _)| row);
    let (mut visited, mut front) = (
        graph::frontier::Visited::new(pat.nrows(), pat.nnz(), src, ()),
        SparseVec::from_entries(pat.nrows(), vec![(src, src + 1)], MinFirst),
    );
    let mut largest = None;
    while !front.is_empty() {
        if ops::choose_direction(&front, &pat, true) == Direction::Pull
            && largest
                .as_ref()
                .is_none_or(|(f, _): &(SparseVec<u64>, _)| f.nnz() < front.nnz())
        {
            largest = Some((front.clone(), visited.clone()));
        }
        let next = ops::vxm_opt_ctx(
            &ctx,
            &front,
            &pat,
            Some(&pat_t),
            Some(visited.mask()),
            MinFirst,
        );
        visited.absorb(next.indices(), vec![(); next.nnz()]);
        front = SparseVec::from_entries(
            pat.nrows(),
            next.iter().map(|(v, _)| (v, v + 1)).collect(),
            MinFirst,
        );
    }
    let (front, visited) = largest.expect("a scale-14 RMAT BFS pulls");
    report(
        &mut rec,
        "masked vxm pull, largest bfs_parents level, RMAT scale 14",
        vec![Row {
            key: "vxm_pull_bfs_ns",
            ns: med(15, || {
                let mask = Some(visited.mask());
                ops::vxm_opt_ctx(&ctx, &front, &pat, Some(&pat_t), mask, MinFirst).nnz() as u64
            }),
        }],
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    match rec.write(path) {
        Ok(()) => println!("recorded {} medians → {path}", rec.len()),
        Err(e) => println!("could not record {path}: {e}"),
    }
}
