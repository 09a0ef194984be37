//! Event-driven time skipping is an *optimization*, not a model change:
//! [`GpuSimulator::run`] must be byte-identical to a loop of
//! [`GpuSimulator::step`] calls — same [`SimReport`], same telemetry
//! windows (per-window latency percentiles included) and trace records,
//! same invariant-registry snapshot, and the same checkpoint bytes —
//! across the whole simcheck architecture matrix, with and without
//! fault injection, including checkpoints taken at cycles a skipping
//! run would normally jump straight over.
//!
//! The invariant registry is process-global, so every test here
//! serializes on one lock; the file is its own test binary, keeping
//! other suites out of the process.

use std::sync::{Mutex, MutexGuard};

use nuba_core::{GpuSimulator, SimError, SimSession};
use nuba_engine::FaultPlan;
use nuba_types::{invariant, ArchKind, GpuConfig, PagePolicyKind, ReplicationKind};
use nuba_workloads::{BenchmarkId, ScaleProfile, Workload};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The simcheck architecture matrix (both UBA baselines plus NUBA with
/// every replication × page-policy combination), with both telemetry
/// pillars enabled so windows and traces are part of the comparison.
/// Each configuration runs twice: at full occupancy the machine stays
/// busy and `run` steps nearly every cycle; at one warp per SM it idles
/// through memory round-trips and `run` jumps.
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
    for (_, cfg) in &mut out {
        cfg.telemetry.window_cycles = Some(256);
        cfg.telemetry.trace_sample_period = 64;
        cfg.telemetry.window_latency = true;
    }
    let one_warp: Vec<_> = out
        .iter()
        .map(|(name, cfg)| (format!("{name}/1-warp"), cfg.clone().with_active_warps(1)))
        .collect();
    out.extend(one_warp);
    out
}

fn workload_for(cfg: &GpuConfig) -> Workload {
    Workload::build(
        BenchmarkId::Kmeans,
        ScaleProfile::fast(),
        cfg.num_sms,
        cfg.seed,
    )
}

/// Everything a run exposes, for byte-for-byte comparison — including
/// the serialized checkpoint, which covers every component's saved
/// timing state, not just the aggregated report.
struct RunImage {
    report: nuba_core::SimReport,
    windows: Vec<nuba_core::TelemetryWindow>,
    traces: Vec<nuba_core::TraceRecord>,
    dropped: u64,
    invariants: Vec<invariant::SiteReport>,
    checkpoint: Vec<u8>,
}

fn image(gpu: &GpuSimulator, wl: &Workload) -> RunImage {
    RunImage {
        report: gpu.report(),
        windows: gpu.telemetry().windows_vec(),
        traces: gpu.telemetry().trace_records().to_vec(),
        dropped: gpu.telemetry().trace_dropped(),
        invariants: invariant::report(),
        checkpoint: gpu.checkpoint(wl).to_bytes(),
    }
}

fn assert_images_match(name: &str, stepped: &RunImage, skipped: &RunImage) {
    assert_eq!(
        stepped.report, skipped.report,
        "{name}: SimReport diverged between stepping and skipping"
    );
    assert_eq!(
        stepped.windows, skipped.windows,
        "{name}: telemetry windows diverged"
    );
    assert_eq!(
        stepped.traces, skipped.traces,
        "{name}: trace records diverged"
    );
    assert_eq!(
        stepped.dropped, skipped.dropped,
        "{name}: trace drop count diverged"
    );
    assert_eq!(
        stepped.invariants, skipped.invariants,
        "{name}: invariant snapshot diverged"
    );
    assert_eq!(
        stepped.checkpoint, skipped.checkpoint,
        "{name}: checkpoint bytes diverged"
    );
}

/// The stepped reference: `cycles` calls of [`GpuSimulator::step`].
fn step_n(gpu: &mut GpuSimulator, cycles: u64) -> Result<(), SimError> {
    (0..cycles).try_for_each(|_| gpu.step())
}

/// Run a config through `run` (`skip`) or the stepped reference, warm
/// first, with an optional fault plan installed before the timed window.
fn run_mode(
    cfg: &GpuConfig,
    wl: &Workload,
    plan: Option<&FaultPlan>,
    skip: bool,
    cycles: u64,
) -> RunImage {
    invariant::reset();
    let mut gpu = GpuSimulator::try_new(cfg.clone(), wl).expect("valid config");
    gpu.warm(wl, 256);
    if let Some(plan) = plan {
        gpu.set_fault_plan(plan);
    }
    if skip {
        gpu.run(cycles).expect("forward progress");
    } else {
        step_n(&mut gpu, cycles).expect("forward progress");
    }
    image(&gpu, wl)
}

#[test]
fn skipping_is_byte_identical_across_the_simcheck_matrix() {
    let _guard = lock();
    const CYCLES: u64 = 1_200;

    for (name, cfg) in simcheck_configs() {
        let wl = workload_for(&cfg);
        let stepped = run_mode(&cfg, &wl, None, false, CYCLES);
        let skipped = run_mode(&cfg, &wl, None, true, CYCLES);
        assert_images_match(&name, &stepped, &skipped);
    }
}

#[test]
fn skipping_is_byte_identical_under_fault_injection() {
    let _guard = lock();
    const CYCLES: u64 = 1_200;

    for (name, cfg) in simcheck_configs() {
        let wl = workload_for(&cfg);
        // A seeded plan over the timed window: derates, DRAM stretches,
        // offline slices, and walker stalls — their edges land inside
        // spans the skipper would otherwise jump over.
        let plan = FaultPlan::random(
            11,
            CYCLES,
            12,
            cfg.num_sms,
            cfg.num_llc_slices,
            cfg.num_channels,
        );
        let stepped = run_mode(&cfg, &wl, Some(&plan), false, CYCLES);
        let skipped = run_mode(&cfg, &wl, Some(&plan), true, CYCLES);
        assert_images_match(&format!("{name}+faults"), &stepped, &skipped);
    }
}

/// The watchdog fires at the same cycle with the same
/// [`nuba_core::DeadlockReport`] whether the starved span was stepped
/// through or jumped over.
#[test]
fn watchdog_fires_identically_under_skipping() {
    let _guard = lock();
    let starved = |skip: bool| {
        invariant::reset();
        let cfg = GpuConfig::paper_baseline(ArchKind::Nuba);
        let wl = workload_for(&cfg);
        // Derate every link to zero: requests stop moving, the retire
        // stream starves, and the watchdog must fire.
        let plan =
            nuba_engine::FaultPlan::uniform_link_derate(0.0, cfg.num_sms, cfg.num_llc_slices);
        let mut gpu = GpuSimulator::try_new(cfg, &wl).expect("valid config");
        gpu.warm(&wl, 256);
        gpu.set_fault_plan(&plan);
        gpu.set_watchdog(Some(800));
        let err = if skip {
            gpu.run(10_000).map(drop)
        } else {
            step_n(&mut gpu, 10_000)
        }
        .expect_err("starved machine must trip the watchdog");
        (gpu.cycle(), format!("{err:?}"))
    };
    let (stepped_cycle, stepped_err) = starved(false);
    let (skipped_cycle, skipped_err) = starved(true);
    assert_eq!(stepped_cycle, skipped_cycle, "firing cycle diverged");
    assert_eq!(stepped_err, skipped_err, "DeadlockReport diverged");
}

/// A checkpoint taken mid-run under skipping — at a cycle the skipper
/// may only reach as an artificial run-end cap, never a real event —
/// matches the stepped checkpoint at the same cycle byte for byte, and
/// resuming from it converges on the stepped reference.
#[test]
fn mid_skip_checkpoints_resume_identically() {
    let _guard = lock();
    const FIRST: u64 = 700;
    const SECOND: u64 = 500;
    let cfg = {
        let mut cfg = GpuConfig::paper_baseline(ArchKind::Nuba)
            .with_replication(ReplicationKind::Mdr)
            .with_policy(PagePolicyKind::lab_default());
        cfg.telemetry.window_cycles = Some(256);
        cfg.telemetry.trace_sample_period = 64;
        cfg.telemetry.window_latency = true;
        cfg
    };
    let wl = workload_for(&cfg);

    // Stepped reference, uninterrupted.
    let reference = run_mode(&cfg, &wl, None, false, FIRST + SECOND);

    // Stepped checkpoint at the split point.
    invariant::reset();
    let mut gpu = GpuSimulator::try_new(cfg.clone(), &wl).expect("valid config");
    gpu.warm(&wl, 256);
    step_n(&mut gpu, FIRST).expect("forward progress");
    let stepped_ckpt = gpu.checkpoint(&wl).to_bytes();
    drop(gpu);

    // Skipping run interrupted at the same cycle: identical checkpoint.
    invariant::reset();
    let mut gpu = GpuSimulator::try_new(cfg.clone(), &wl).expect("valid config");
    gpu.warm(&wl, 256);
    gpu.run(FIRST).expect("forward progress");
    let ckpt = gpu.checkpoint(&wl);
    assert_eq!(
        ckpt.to_bytes(),
        stepped_ckpt,
        "mid-skip checkpoint differs from the stepped checkpoint"
    );
    drop(gpu);

    // Resume through the session API (round-tripping the bytes) and
    // finish through `run_window`: byte-identical to the stepped
    // reference.
    let ckpt = nuba_core::Checkpoint::from_bytes(&ckpt.to_bytes()).expect("round-trip");
    invariant::reset();
    ckpt.seed_invariants();
    let mut session = SimSession::resume(&ckpt, wl.clone()).expect("resume");
    assert_eq!(session.cycle(), FIRST, "resumed at wrong cycle");
    session.run_window(SECOND).expect("forward progress");
    let continued = image(session.gpu(), &wl);
    assert_images_match("mid-skip resume", &reference, &continued);
}
