//! Targeted GPU-simulator unit tests on tiny machines: kernel-boundary
//! flushes, latency accounting, and report consistency.

use nuba_core::{GpuSimulator, SimSession, WindowCounter};
use nuba_types::{ArchKind, GpuConfig, ReplicationKind, TelemetryConfig};
use nuba_workloads::{BenchmarkId, ScaleProfile, Workload};

fn tiny(arch: ArchKind) -> GpuConfig {
    let mut cfg = GpuConfig::paper_baseline(arch);
    cfg.num_channels = 4;
    cfg.num_sms = 8;
    cfg.num_llc_slices = 8;
    cfg.llc_total_bytes = 8 * 96 * 1024;
    cfg.noc_total_bytes_per_cycle = 15.6 * 8.0;
    cfg.sim_active_warps = 8;
    cfg
}

fn run(cfg: GpuConfig, bench: BenchmarkId, cycles: u64) -> (SimSession, nuba_core::SimReport) {
    let wl = Workload::build(bench, ScaleProfile::fast(), cfg.num_sms, 5);
    let mut session = SimSession::builder(cfg, wl).build().expect("valid config");
    session.warm();
    let r = session.run_window(cycles).expect("forward progress");
    (session, r)
}

#[test]
fn kernel_boundaries_cost_performance() {
    let base = tiny(ArchKind::Nuba);
    let mut flushed = base.clone();
    flushed.kernel_boundary_cycles = Some(1_000);
    let (_, r_base) = run(base, BenchmarkId::Kmeans, 10_000);
    let (_, r_flush) = run(flushed, BenchmarkId::Kmeans, 10_000);
    assert!(
        r_flush.perf() < r_base.perf(),
        "frequent kernel boundaries must cost: {:.2} vs {:.2}",
        r_flush.perf(),
        r_base.perf()
    );
    // The flush produces cold misses: LLC hit rate drops.
    assert!(r_flush.llc_hit_rate() < r_base.llc_hit_rate());
}

#[test]
fn a_window_spanning_the_run_agrees_with_the_report() {
    use WindowCounter::*;
    const N: u64 = 6_000;
    let mut cfg = tiny(ArchKind::Nuba).with_telemetry(TelemetryConfig {
        window_cycles: Some(N),
        ring_windows: 1,
        ..TelemetryConfig::default()
    });
    // Enough warps, and L1 MSHRs, that the run stalls on the memory
    // system rather than on the L1 alone, so the NoC share is non-zero.
    cfg.sim_active_warps = 32;
    cfg.l1_mshrs = 1024;
    let (session, r) = run(cfg.clone(), BenchmarkId::Bicg, N);
    let windows = session.gpu().telemetry().windows_vec();
    assert_eq!(windows.len(), 1);
    let w = windows[0];
    assert_eq!((w.start_cycle, w.end_cycle), (0, N));
    assert_eq!(w[Retired], r.warp_ops);
    assert_eq!(
        [w[StallDownstream], w[StallMshr], w[StallOutstanding]],
        [r.stall_downstream, r.stall_mshr, r.stall_outstanding]
    );
    assert_eq!(w[LlcAccesses], r.llc_accesses);
    assert_eq!(w[LocalLinkBusy], r.local_link_busy_cycles);
    assert_eq!(w[DramBusBusy], r.dram_bus_busy_cycles);
    // The window's NoC weight divides by the same aggregate bandwidth
    // as the report's, so the two mixes agree to the bit.
    let mix = w.bottleneck_mix(&cfg);
    assert!(mix.noc_bound > 0.0, "no NoC share to compare: {mix:?}");
    assert_eq!(mix, r.bottleneck_breakdown());
}

#[test]
fn latency_metrics_are_sane() {
    let (_, r) = run(tiny(ArchKind::MemSideUba), BenchmarkId::Lbm, 10_000);
    assert!(
        r.avg_read_latency > 10.0,
        "avg latency {:.1} implausibly low",
        r.avg_read_latency
    );
    assert!(
        (r.max_read_latency as f64) >= r.avg_read_latency,
        "max {} < avg {:.1}",
        r.max_read_latency,
        r.avg_read_latency
    );
    assert!(
        r.max_read_latency < 10_000 + 5_000,
        "latency beyond the window"
    );
}

#[test]
fn latency_insensitivity_of_throughput() {
    // The paper's foundational claim: quadrupling LLC latency barely
    // moves a bandwidth-bound GPU — provided there are enough warps to
    // hide it (latency tolerance scales with thread count).
    let mut base = tiny(ArchKind::Nuba);
    base.sim_active_warps = 32;
    let mut slow = base.clone();
    slow.llc_latency = base.llc_latency * 4;
    let (_, r_base) = run(base, BenchmarkId::Lbm, 10_000);
    let (_, r_slow) = run(slow, BenchmarkId::Lbm, 10_000);
    let ratio = r_slow.perf() / r_base.perf();
    assert!(
        ratio > 0.85,
        "4x LLC latency should cost <15% on a bandwidth-bound GPU, got {ratio:.2}"
    );
    // But the *latency metric* must reflect the change.
    assert!(r_slow.avg_read_latency > r_base.avg_read_latency);
}

#[test]
fn slice_totals_match_report() {
    let (session, r) = run(tiny(ArchKind::Nuba), BenchmarkId::Sgemm, 8_000);
    let (hits, accesses, _rhits, rfills, _fwd) = session.gpu().slice_totals();
    assert_eq!(hits, r.llc_hits);
    assert_eq!(accesses, r.llc_accesses);
    assert_eq!(rfills, r.replica_fills);
}

#[test]
fn report_is_cumulative_and_monotonic() {
    let cfg = tiny(ArchKind::Nuba);
    let wl = Workload::build(BenchmarkId::Kmeans, ScaleProfile::fast(), cfg.num_sms, 5);
    let mut gpu = GpuSimulator::try_new(cfg, &wl).expect("valid config");
    gpu.warm(&wl, 64);
    let r1 = gpu.run(3_000).expect("forward progress");
    let r2 = gpu.run(3_000).expect("forward progress");
    assert_eq!(r2.cycles, 6_000);
    assert!(r2.warp_ops >= r1.warp_ops);
    assert!(r2.read_replies >= r1.read_replies);
    assert!(r2.dram_accesses >= r1.dram_accesses);
}

#[test]
fn full_replication_disabled_outside_nuba() {
    let mut cfg = tiny(ArchKind::MemSideUba);
    cfg.replication = ReplicationKind::Full;
    let (_, r) = run(cfg, BenchmarkId::SqueezeNet, 8_000);
    assert_eq!(r.replica_fills, 0, "UBA has no replication machinery");
}

#[test]
fn noc_bandwidth_knob_reaches_the_noc() {
    let narrow = tiny(ArchKind::MemSideUba).with_noc_tbs(0.2);
    let wide = tiny(ArchKind::MemSideUba).with_noc_tbs(2.0);
    let (_, r_n) = run(narrow, BenchmarkId::Lbm, 10_000);
    let (_, r_w) = run(wide, BenchmarkId::Lbm, 10_000);
    assert!(
        r_w.perf() > r_n.perf() * 1.3,
        "a 10x NoC difference must show on UBA: {:.2} vs {:.2}",
        r_w.perf(),
        r_n.perf()
    );
}
