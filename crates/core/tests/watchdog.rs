//! Forward-progress watchdog contract: it never fires on healthy
//! configurations, and it fires deterministically — with a populated
//! [`DeadlockReport`] — when a fault genuinely starves the machine.

use nuba_core::{SimError, SimSession, WindowCounter};
use nuba_engine::{Fault, FaultPlan};
use nuba_types::{ArchKind, GpuConfig, PagePolicyKind, ReplicationKind};
use nuba_workloads::{BenchmarkId, ScaleProfile, Workload};

/// The simcheck architecture matrix: both UBA baselines plus NUBA with
/// every replication × page-policy combination.
fn simcheck_configs() -> Vec<(String, GpuConfig)> {
    let mut out = vec![
        (
            "UBA-mem".into(),
            GpuConfig::paper_baseline(ArchKind::MemSideUba),
        ),
        (
            "UBA-sm".into(),
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
            let mut cfg = GpuConfig::paper_baseline(ArchKind::Nuba);
            cfg.replication = rep;
            cfg.page_policy = pol;
            out.push((format!("NUBA-{rep_name}-{pol_name}"), cfg));
        }
    }
    out
}

/// Build a session for `cfg` on Kmeans, arm `plan` and the watchdog
/// `budget`, warm it and run `cycles` cycles.
fn run_armed(
    cfg: GpuConfig,
    plan: &FaultPlan,
    budget: u64,
    cycles: u64,
) -> Result<nuba_core::SimReport, SimError> {
    let wl = Workload::build(
        BenchmarkId::Kmeans,
        ScaleProfile::fast(),
        cfg.num_sms,
        cfg.seed,
    );
    let mut session = SimSession::builder(cfg, wl).build().expect("valid config");
    session.gpu_mut().set_fault_plan(plan);
    session.gpu_mut().set_watchdog(Some(budget));
    session.warm();
    session.run_window(cycles)
}

fn starved_run(budget: u64, cycles: u64) -> Result<nuba_core::SimReport, SimError> {
    let cfg = GpuConfig::paper_baseline(ArchKind::Nuba);
    let plan = FaultPlan::uniform_link_derate(0.0, cfg.num_sms, cfg.num_llc_slices);
    run_armed(cfg, &plan, budget, cycles)
}

#[test]
fn healthy_configs_never_trip_the_watchdog() {
    // A budget well below the paper default (20k) but above the
    // cold-start latency to the first reply (~500 cycles): if any of
    // the simcheck configurations stalls its retire stream for 1500
    // consecutive cycles, something real broke.
    for (name, cfg) in simcheck_configs() {
        let r = run_armed(cfg, &FaultPlan::new(), 1500, 4000);
        assert!(
            r.is_ok(),
            "{name}: watchdog fired on a healthy config: {:?}",
            r.err()
        );
    }
}

#[test]
fn starved_links_trip_with_a_populated_report() {
    let err = starved_run(800, 3000).expect_err("zero-bandwidth links must deadlock");
    let SimError::NoForwardProgress(report) = err else {
        panic!("wrong error kind: {err}");
    };
    assert_eq!(report.budget, 800);
    assert!(report.cycle >= 800, "cannot fire before the budget elapses");
    assert!(report.issued > 0, "SMs issued requests before starving");
    assert_eq!(report.replied, 0, "dead links deliver no replies");
    assert!(report.outstanding > 0, "the stuck requests are visible");
    assert!(
        report.local_link_pending > 0,
        "the report points at the starved links: {report}"
    );
    assert!(
        report.detail.contains("outstanding="),
        "debug detail attached"
    );
}

#[test]
fn starved_links_trip_deterministically() {
    let a = starved_run(800, 3000).expect_err("deadlocks");
    let b = starved_run(800, 3000).expect_err("deadlocks");
    assert_eq!(a, b, "same seed + same plan must fire identically");
}

#[test]
fn deadlock_report_embeds_a_bounded_flight_recorder() {
    // With windowed telemetry on, the report carries the last
    // `ring_windows` windows leading up to the fire — populated,
    // chronological, and bounded regardless of how long the machine
    // ran before starving.
    let run = |budget: u64, cycles: u64| {
        let mut cfg = GpuConfig::paper_baseline(ArchKind::Nuba);
        cfg.telemetry.window_cycles = Some(100);
        cfg.telemetry.ring_windows = 8;
        let plan = FaultPlan::uniform_link_derate(0.0, cfg.num_sms, cfg.num_llc_slices);
        let err =
            run_armed(cfg, &plan, budget, cycles).expect_err("zero-bandwidth links must deadlock");
        let SimError::NoForwardProgress(report) = err else {
            panic!("wrong error kind: {err}");
        };
        report
    };
    let short = run(900, 1500);
    let long = run(1800, 3000);
    assert_eq!(short.windows.len(), 8, "ring filled by the fire");
    assert_eq!(
        long.windows.len(),
        8,
        "flight recorder is bounded by the ring, not the run length"
    );
    for pair in long.windows.windows(2) {
        assert_eq!(
            pair[1].start_cycle, pair[0].end_cycle,
            "windows are chronological and contiguous"
        );
        assert_eq!(pair[1].cycles(), 100, "every window covers one period");
    }
    assert!(
        long.windows.last().unwrap().end_cycle > short.windows.last().unwrap().end_cycle,
        "a later fire retains later windows"
    );
    assert!(
        long.windows
            .iter()
            .any(|w| w[WindowCounter::StallDownstream] > 0),
        "the starved machine's stalls are visible in the recorder: {:?}",
        long.windows
    );
}

#[test]
fn stalled_tlb_walkers_trip_the_watchdog() {
    let plan = FaultPlan::new().with(Fault::TlbWalkerStall, 0, None);
    let err = run_armed(GpuConfig::paper_baseline(ArchKind::Nuba), &plan, 800, 3000)
        .expect_err("stalled walkers must deadlock");
    let SimError::NoForwardProgress(report) = err else {
        panic!("wrong error kind: {err}");
    };
    assert!(
        report.translations_outstanding > 0,
        "the report points at the stuck walks: {report}"
    );
}

#[test]
fn reverted_fault_lets_the_run_complete() {
    // The same starvation fault, but with a window that ends: the
    // watchdog must not fire as long as the budget outlasts the outage.
    let cfg = GpuConfig::paper_baseline(ArchKind::Nuba);
    let mut plan = FaultPlan::new();
    for e in FaultPlan::uniform_link_derate(0.0, cfg.num_sms, cfg.num_llc_slices).events() {
        plan = plan.with(e.fault, 100, Some(600));
    }
    let r = run_armed(cfg, &plan, 2000, 4000).expect("outage shorter than budget");
    assert!(r.read_replies > 0, "replies flow once the links recover");
}
