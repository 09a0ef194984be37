//! Warm-up is a first-touch trace plus a per-configuration replay:
//! [`first_touches`] reads the workload and the machine shape only, so a
//! trace recorded under one architecture, replayed on any of the simcheck
//! configurations, leaves that configuration's driver exactly as
//! `warm` does. This is what lets the runner share one warm-state entry
//! across every configuration of a benchmark.
//!
//! [`first_touches`] walks its warps on several threads and merges; an
//! independent one-thread reference walk pins its output on every
//! benchmark and on the edge shapes of the wave stagger. The invariant
//! registry is process-global, so every test here serializes on one
//! lock.

use std::sync::{Mutex, MutexGuard};

use nuba_core::{default_warm_accesses, first_touches, GpuSimulator};
use nuba_types::addr::PageNum;
use nuba_types::state::{SaveState, StateWriter};
use nuba_types::{invariant, ArchKind, GpuConfig, PagePolicyKind, ReplicationKind, SmId, WarpId};
use nuba_workloads::{BenchmarkId, ScaleProfile, WarpOp, Workload};

const DEPTH: usize = 256;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The simcheck architecture matrix: both UBA baselines plus NUBA with
/// every replication × page-policy combination.
fn simcheck_configs() -> Vec<(String, GpuConfig)> {
    let mut out = vec![
        (
            "UBA-mem".to_string(),
            GpuConfig::paper_baseline(ArchKind::MemSideUba),
        ),
        (
            "UBA-sm".to_string(),
            GpuConfig::paper_baseline(ArchKind::SmSideUba),
        ),
    ];
    for (rep_name, rep) in [
        ("NoRep", ReplicationKind::None),
        ("FullRep", ReplicationKind::Full),
        ("MDR", ReplicationKind::Mdr),
    ] {
        for (pol_name, pol) in [
            ("FirstTouch", PagePolicyKind::FirstTouch),
            ("RoundRobin", PagePolicyKind::RoundRobin),
            ("LAB", PagePolicyKind::lab_default()),
        ] {
            let cfg = GpuConfig::paper_baseline(ArchKind::Nuba)
                .with_replication(rep)
                .with_policy(pol);
            out.push((format!("NUBA-{rep_name}-{pol_name}"), cfg));
        }
    }
    out
}

/// The warm-up walk written out independently of [`first_touches`]:
/// warp-major, compute blocks skipped, each page kept at its first
/// occurrence — and, when `waves`, SM `s` starting `s / 2` rounds late.
fn reference_touches(
    cfg: &GpuConfig,
    wl: &Workload,
    depth: usize,
    waves: bool,
) -> Vec<(PageNum, SmId)> {
    let warps = cfg.sim_active_warps.min(cfg.warps_per_sm).max(1);
    let mut streams: Vec<_> = (0..warps)
        .flat_map(|w| (0..cfg.num_sms).map(move |sm| (SmId(sm), WarpId(w))))
        .map(|(sm, w)| (sm, wl.stream(sm, w)))
        .collect();
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for round in 0..depth {
        for (sm, stream) in &mut streams {
            if waves && round < sm.0 / 2 {
                continue;
            }
            let page = loop {
                if let WarpOp::Mem(a) = stream.next_op() {
                    break a.vaddr.page(cfg.page_bytes);
                }
            };
            if seen.insert(page) {
                out.push((page, *sm));
            }
        }
    }
    out
}

fn driver_bytes(gpu: &GpuSimulator) -> Vec<u8> {
    let mut w = StateWriter::new();
    gpu.driver().save(&mut w);
    w.into_bytes()
}

fn built(cfg: &GpuConfig, wl: &Workload) -> GpuSimulator {
    GpuSimulator::try_new(cfg.clone(), wl).expect("valid config")
}

#[test]
fn one_trace_warms_every_configuration() {
    let _guard = lock();
    for bench in [BenchmarkId::Lbm, BenchmarkId::Bicg, BenchmarkId::Kmeans] {
        let uba = GpuConfig::paper_baseline(ArchKind::MemSideUba);
        let wl = Workload::build(bench, ScaleProfile::fast(), uba.num_sms, uba.seed);
        let trace = first_touches(&uba, &wl, DEPTH);
        assert_eq!(
            trace,
            reference_touches(&uba, &wl, DEPTH, true),
            "{bench}: first_touches walks differently from the reference"
        );
        // Without CTA launch waves the same pages arrive in another
        // order from other SMs; a test that cannot tell is toothless.
        let flat = reference_touches(&uba, &wl, DEPTH, false);
        assert_ne!(trace, flat, "{bench}: the wave stagger changed nothing");
        let mut flat_differs = 0;

        for (name, cfg) in simcheck_configs() {
            let mut warmed = built(&cfg, &wl);
            warmed.warm(&wl, DEPTH);
            let mut replayed = built(&cfg, &wl);
            replayed.replay_first_touches(&trace);
            assert_eq!(
                driver_bytes(&warmed),
                driver_bytes(&replayed),
                "{bench}/{name}: replaying the UBA-mem trace is not this config's warm-up"
            );
            let mut mutant = built(&cfg, &wl);
            mutant.replay_first_touches(&flat);
            if driver_bytes(&mutant) != driver_bytes(&warmed) {
                flat_differs += 1;
            }
        }
        assert!(
            flat_differs > 0,
            "{bench}: no configuration's driver can tell a wave-free trace apart"
        );
    }
}

#[test]
fn trace_matches_the_reference_walk_on_every_benchmark() {
    let _guard = lock();
    let cfg = GpuConfig::paper_baseline(ArchKind::Nuba);
    for &bench in BenchmarkId::ALL {
        let wl = Workload::build(bench, ScaleProfile::fast(), cfg.num_sms, cfg.seed);
        let depth = default_warm_accesses(&cfg, &wl);
        assert_eq!(
            first_touches(&cfg, &wl, depth),
            reference_touches(&cfg, &wl, depth, true),
            "{bench}: first_touches walks differently from the reference"
        );
    }
}

/// One SM with one warp: a single stream, walked without a worker.
#[test]
fn one_warp_on_one_sm_matches_the_reference() {
    let _guard = lock();
    let cfg = GpuConfig::paper_baseline(ArchKind::Nuba)
        .scaled(1.0 / 64.0)
        .with_active_warps(1);
    assert_eq!((cfg.num_sms, cfg.active_warps()), (1, 1));
    for bench in [BenchmarkId::BTree, BenchmarkId::Lbm, BenchmarkId::Kmeans] {
        let wl = Workload::build(bench, ScaleProfile::fast(), cfg.num_sms, cfg.seed);
        let trace = first_touches(&cfg, &wl, DEPTH);
        assert!(!trace.is_empty(), "{bench}: the walk touched nothing");
        assert_eq!(
            trace,
            reference_touches(&cfg, &wl, DEPTH, true),
            "{bench}: one-stream walk differs from the reference"
        );
    }
}

/// Depth 1: only SMs 0 and 1 start before the walk ends, so every other
/// SM's streams touch nothing and the trace names no SM above 1.
#[test]
fn depth_one_touches_only_from_the_first_wave() {
    let _guard = lock();
    let cfg = GpuConfig::paper_baseline(ArchKind::Nuba);
    for bench in [BenchmarkId::Lbm, BenchmarkId::Bicg, BenchmarkId::Kmeans] {
        let wl = Workload::build(bench, ScaleProfile::fast(), cfg.num_sms, cfg.seed);
        let trace = first_touches(&cfg, &wl, 1);
        assert!(!trace.is_empty(), "{bench}: the walk touched nothing");
        assert!(
            trace.iter().all(|&(_, sm)| sm.0 < 2),
            "{bench}: an SM outside the first wave touched a page at depth 1"
        );
        assert_eq!(
            trace,
            reference_touches(&cfg, &wl, 1, true),
            "{bench}: depth-1 walk differs from the reference"
        );
    }
}

/// The walk runs on several threads, and an invariant site's tally is
/// exact on one thread only: a site reached from the stream generator
/// would make checkpoints' invariant snapshots depend on the host.
#[test]
fn the_walk_reaches_no_invariant_site() {
    let _guard = lock();
    let cfg = GpuConfig::paper_baseline(ArchKind::Nuba);
    invariant::reset();
    for bench in [BenchmarkId::Lbm, BenchmarkId::Bicg, BenchmarkId::Kmeans] {
        let wl = Workload::build(bench, ScaleProfile::fast(), cfg.num_sms, cfg.seed);
        first_touches(&cfg, &wl, DEPTH);
    }
    let counted: Vec<_> = invariant::report()
        .into_iter()
        .filter(|site| site.checks > 0)
        .map(|site| site.name)
        .collect();
    assert!(counted.is_empty(), "the walk checked {counted:?}");
}
