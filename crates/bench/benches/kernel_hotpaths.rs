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
//!   window's ~200 k-entry pattern, which sort the column ids.
//!
//! The JSON artifact holds lower-is-better nanosecond medians;
//! `perf_gate` fails CI when any of them regresses >10%.

use bench::{fmt_dur, quick_time, BenchRecord};
use hypersparse::gen::{random_dcsr, rmat_dcsr, RmatParams};
use hypersparse::{ops, Coo, Dcsr, Ix, OpCtx, SparseVec, StreamConfig, StreamingMatrix};
use netflow::gen::{GenConfig, TrafficGen};
use semiring::{LorLand, Plain, PlusTimes, Semiring};
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

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    match rec.write(path) {
        Ok(()) => println!("recorded {} medians → {path}", rec.len()),
        Err(e) => println!("could not record {path}: {e}"),
    }
}
