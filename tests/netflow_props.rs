//! Netflow property suite — the subsystem's three load-bearing
//! invariants, checked over random inputs:
//!
//! 1. **Windowed ingest ≡ flat build.** Each closed window's traffic
//!    matrix is bit-identical to a flat COO build of exactly that
//!    window's events: rotation loses nothing, leaks nothing across
//!    window boundaries, and shard count is invisible.
//! 2. **CIDR projection is idempotent and composes downward.**
//!    `project(project(A, p), p) = project(A, p)` on the string-keyed
//!    layer, the same for `rollup` on the numeric layer, and
//!    `/8 ∘ /16 = /8`.
//! 3. **Detector determinism.** The full service — generator → sharded
//!    ingest → rotation → detectors and analytics queries — answers
//!    bit-identically at 1, 2, and 4 shards.
//! 4. **Closing verdict ≡ rescan.** The verdict on the window that just
//!    closed is read from the degree state rotation built; it equals the
//!    from-scratch detectors on the same snapshot however many
//!    `refresh()` waves cut the window, and older retained windows —
//!    which are rescanned — still answer what they answered.

use graph::netsec;
use hyperspace::prelude::*;
use hyperspace_core::cidr;
use hypersparse::Ix;
use netflow::{FlowEvent, NetflowBody, WindowReport, IP_SPACE};
use proptest::prelude::*;

/// Flat reference build: one window's events straight into COO.
fn flat(events: &[FlowEvent]) -> Dcsr<u64> {
    let mut coo = Coo::new(IP_SPACE, IP_SPACE);
    coo.extend(
        events
            .iter()
            .map(|&(s, d, p)| (Ix::from(s), Ix::from(d), p)),
    );
    coo.build_dcsr(PlusTimes::<u64>::new())
}

fn windows() -> impl Strategy<Value = Vec<Vec<FlowEvent>>> {
    proptest::collection::vec(
        proptest::collection::vec((0..500u32, 0..500u32, 1u64..9), 0..120),
        1..4,
    )
}

/// Windows as 1–4 parts of events; a `refresh()` wave runs between
/// parts, so a window is cut by 0–3 of them. Small key ranges give
/// degrees worth thresholding; empty parts and windows are allowed.
fn cut_windows() -> impl Strategy<Value = Vec<Vec<Vec<FlowEvent>>>> {
    let part = proptest::collection::vec((0..24u32, 0..24u32, 1u64..9), 0..40);
    proptest::collection::vec(proptest::collection::vec(part, 1..5), 1..4)
}

/// The from-scratch verdict on one window snapshot: the oracle.
fn rescan(
    ctx: &OpCtx,
    snap: &EpochSnapshot<PlusTimes<u64>>,
    (scan, ddos): (u64, u64),
) -> WindowReport {
    let keyed = |hits: Vec<(Ix, u64)>| {
        hits.into_iter()
            .map(|(i, d)| (cidr::ip_key(i as u32), d))
            .collect()
    };
    WindowReport {
        epoch: snap.epoch(),
        scan_suspects: keyed(netsec::scan_suspects_ctx(ctx, snap.dcsr(), scan)),
        ddos_victims: keyed(netsec::ddos_victims_ctx(ctx, snap.dcsr(), ddos)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Invariant 4: `detect_snapshot(&close_window())` comes from the
    /// maintained state and equals the rescan, for windows cut by 0–3
    /// delta waves (one of them reaching shards that hold nothing yet),
    /// an empty window closed straight after another close, and at
    /// every shard count; an older window's answer is the rescan's.
    #[test]
    fn closing_verdict_equals_rescan(
        ws in cut_windows(),
        thresholds in (1u64..6, 1u64..6),
        seed in 0..u64::MAX,
    ) {
        // One generated window with labelled episodes, cut like the rest.
        let gen = TrafficGen::new(
            GenConfig::new()
                .with_hosts(64)
                .with_events_per_window(300)
                .with_seed(seed)
                .with_scan(0, 40)
                .with_ddos(0, 40),
        );
        let generated: Vec<Vec<FlowEvent>> =
            gen.window(0).chunks(100).map(<[FlowEvent]>::to_vec).collect();
        // A wave that finds all but one shard empty, then traffic for all.
        let lopsided = vec![vec![(7, 1, 1), (7, 2, 1), (7, 3, 1)], vec![(1, 7, 1), (2, 7, 1), (3, 3, 1)]];
        let windows: Vec<&Vec<Vec<FlowEvent>>> = ws
            .iter()
            .chain([&generated, &lopsided])
            .collect();
        let ctx = OpCtx::new();
        for shards in [1usize, 2, 4] {
            let svc = netflow::NetflowService::new(
                NetflowConfig::new()
                    .with_thresholds(thresholds.0, thresholds.1)
                    .with_retain_windows(64)
                    .with_pipeline(PipelineConfig::new().with_shards(shards)),
            );
            let mut verdicts = Vec::new();
            let mut judge = |svc: &netflow::NetflowService| {
                let snap = svc.close_window().unwrap();
                let report = svc.detect_snapshot(&snap).unwrap();
                let want = rescan(&ctx, &snap, thresholds);
                verdicts.push(want.clone());
                (report, want)
            };
            for parts in &windows {
                for (i, part) in parts.iter().enumerate() {
                    if i > 0 {
                        svc.refresh().unwrap();
                    }
                    svc.ingest(part).unwrap();
                }
                let (report, want) = judge(&svc);
                prop_assert_eq!(report, want,
                    "{} parts at {} shards", parts.len(), shards);
            }
            // Two closes back to back: an empty window, judged empty.
            let (report, want) = judge(&svc);
            prop_assert!(report.scan_suspects.is_empty() && report.ddos_victims.is_empty());
            prop_assert_eq!(report, want);
            // Every verdict so far came from maintained state.
            prop_assert_eq!(svc.metrics().detector_rescans, 0);
            prop_assert_eq!(svc.metrics().detector_state_answers, 2 * verdicts.len() as u64);

            // Older windows are rescanned and answer as they did.
            let older = &verdicts[..verdicts.len() - 1];
            for want in older {
                let scans = svc
                    .query_window(want.epoch, &NetflowQuery::ScanSuspects { min_fanout: thresholds.0 })
                    .unwrap();
                prop_assert_eq!(scans.epoch, want.epoch);
                prop_assert_eq!(scans.body.as_flagged().unwrap(), &want.scan_suspects[..]);
                let ddos = svc
                    .query_window(want.epoch, &NetflowQuery::DdosVictims { min_fanin: thresholds.1 })
                    .unwrap();
                prop_assert_eq!(ddos.body.as_flagged().unwrap(), &want.ddos_victims[..]);
            }
            prop_assert_eq!(svc.metrics().detector_rescans, 2 * older.len() as u64);
            svc.shutdown().unwrap();
        }
    }

    /// Invariant 1: every closed window equals its flat reference, at
    /// every shard count, with ingest split into arbitrary batches.
    #[test]
    fn windowed_ingest_equals_flat_build_per_window(ws in windows(), chunk in 1..40usize) {
        for shards in [1usize, 2, 4] {
            let svc = netflow::NetflowService::new(
                NetflowConfig::new()
                    .with_retain_windows(ws.len().max(1))
                    .with_pipeline(PipelineConfig::new().with_shards(shards)),
            );
            for events in &ws {
                for batch in events.chunks(chunk.max(1)) {
                    svc.ingest(batch).unwrap();
                }
                let closed = svc.close_window().unwrap();
                prop_assert_eq!(closed.dcsr(), &flat(events),
                    "window {} diverged from flat build at {} shards",
                    closed.epoch(), shards);
            }
            svc.shutdown().unwrap();
        }
    }

    /// Invariant 2: CIDR projection/rollup is idempotent on both key
    /// layers and composes downward (`/8 ∘ /16 = /8`).
    #[test]
    fn cidr_rollup_is_idempotent_and_composes(
        t in proptest::collection::vec((0..u32::MAX, 0..u32::MAX, 1u64..100), 1..60)
    ) {
        let s = PlusTimes::<u64>::new();
        // Numeric layer (Dcsr).
        let a = flat(&t);
        for prefix in [8u8, 16, 24] {
            let once = cidr::rollup(&a, prefix, cidr::RollupAxes::Both, s);
            let twice = cidr::rollup(&once, prefix, cidr::RollupAxes::Both, s);
            prop_assert_eq!(&twice, &once, "rollup not idempotent at /{}", prefix);
        }
        let via16 = cidr::rollup(
            &cidr::rollup(&a, 16, cidr::RollupAxes::Both, s),
            8,
            cidr::RollupAxes::Both,
            s,
        );
        prop_assert_eq!(&via16, &cidr::rollup(&a, 8, cidr::RollupAxes::Both, s));

        // String-keyed layer (Assoc).
        let assoc = Assoc::from_triplets(
            t.iter()
                .map(|&(r, c, v)| (cidr::ip_key(r), cidr::ip_key(c), v))
                .collect::<Vec<_>>(),
            s,
        );
        let p = cidr::project(&assoc, 16, s);
        prop_assert_eq!(&cidr::project(&p, 16, s), &p, "project not idempotent");
        prop_assert_eq!(&cidr::project(&p, 8, s), &cidr::project(&assoc, 8, s));
    }

    /// Invariant 3: detector and analytics answers are bit-identical at
    /// 1, 2, and 4 shards for the same generated traffic.
    #[test]
    fn detectors_are_deterministic_across_shard_counts(seed in 0..u64::MAX) {
        let gen = TrafficGen::new(
            GenConfig::new()
                .with_hosts(128)
                .with_events_per_window(800)
                .with_seed(seed)
                .with_scan(0, 96)
                .with_ddos(1, 80),
        );
        let queries = [
            NetflowQuery::TopTalkers { k: 5 },
            NetflowQuery::TopListeners { k: 5 },
            NetflowQuery::ScanSuspects { min_fanout: 64 },
            NetflowQuery::DdosVictims { min_fanin: 64 },
            NetflowQuery::Rollup { prefix: 16, k: 8 },
        ];
        let mut reference: Option<Vec<(netflow::WindowReport, Vec<NetflowBody>)>> = None;
        for shards in [1usize, 2, 4] {
            let svc = netflow::NetflowService::new(
                NetflowConfig::new()
                    .with_thresholds(96, 80)
                    .with_pipeline(PipelineConfig::new().with_shards(shards)),
            );
            let mut got = Vec::new();
            for w in 0..2usize {
                svc.ingest(&gen.window(w)).unwrap();
                let snap = svc.close_window().unwrap();
                let report = svc.detect_snapshot(&snap).unwrap();
                let answers = queries
                    .iter()
                    .map(|q| svc.query_snapshot(&snap, q).body)
                    .collect::<Vec<_>>();
                got.push((report, answers));
            }
            svc.shutdown().unwrap();
            match &reference {
                None => reference = Some(got),
                Some(r) => prop_assert_eq!(r, &got,
                    "detector output diverged at {} shards", shards),
            }
        }
        // The injected episodes are ground truth: zero false negatives.
        let runs = reference.unwrap();
        let scan_src = cidr::ip_key(match gen.episodes()[0] {
            netflow::Episode::Scan { source, .. } => source,
            _ => unreachable!(),
        });
        let ddos_dst = cidr::ip_key(match gen.episodes()[1] {
            netflow::Episode::Ddos { victim, .. } => victim,
            _ => unreachable!(),
        });
        prop_assert!(runs[0].0.scan_suspects.iter().any(|(s, _)| *s == scan_src));
        prop_assert!(runs[1].0.ddos_victims.iter().any(|(d, _)| *d == ddos_dst));
    }
}
