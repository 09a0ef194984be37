//! Checkpoint/restore contract: a run interrupted at cycle `n` and
//! resumed from its [`Checkpoint`] continues **byte-identical** to the
//! uninterrupted run — same [`SimReport`], same telemetry windows and
//! trace records, same invariant-registry snapshot — across the whole
//! simcheck architecture matrix. Mismatched configurations, workloads,
//! and format versions are rejected loudly.
//!
//! The invariant registry is process-global, so every test here
//! serializes on one lock; the file is its own test binary, keeping
//! other suites out of the process.

use std::sync::{Mutex, MutexGuard};

use nuba_core::{GpuSimulator, SimError, SimSession};
use nuba_types::state::StateError;
use nuba_types::{invariant, ArchKind, GpuConfig, PagePolicyKind, ReplicationKind};
use nuba_workloads::{BenchmarkId, ScaleProfile, Workload};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The simcheck architecture matrix (both UBA baselines plus NUBA with
/// every replication × page-policy combination), with both telemetry
/// pillars enabled so the ring and the tracer round-trip too.
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
    }
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

/// Everything a run exposes, for byte-for-byte comparison.
struct RunImage {
    report: nuba_core::SimReport,
    windows: Vec<nuba_core::TelemetryWindow>,
    traces: Vec<nuba_core::TraceRecord>,
    dropped: u64,
    invariants: Vec<invariant::SiteReport>,
}

fn image(gpu: &GpuSimulator) -> RunImage {
    RunImage {
        report: gpu.report(),
        windows: gpu.telemetry().windows_vec(),
        traces: gpu.telemetry().trace_records().to_vec(),
        dropped: gpu.telemetry().trace_dropped(),
        invariants: invariant::report(),
    }
}

fn assert_images_match(name: &str, a: &RunImage, b: &RunImage) {
    assert_eq!(a.report, b.report, "{name}: SimReport diverged");
    assert_eq!(a.windows, b.windows, "{name}: telemetry windows diverged");
    assert_eq!(a.traces, b.traces, "{name}: trace records diverged");
    assert_eq!(a.dropped, b.dropped, "{name}: trace drop count diverged");
    assert_eq!(
        a.invariants, b.invariants,
        "{name}: invariant snapshot diverged"
    );
}

#[test]
fn resumed_runs_are_byte_identical_across_the_simcheck_matrix() {
    let _guard = lock();
    const FIRST: u64 = 1_500;
    const SECOND: u64 = 1_500;

    for (name, cfg) in simcheck_configs() {
        let wl = workload_for(&cfg);

        // Uninterrupted reference: warm, then one combined window.
        invariant::reset();
        let mut gpu = GpuSimulator::try_new(cfg.clone(), &wl).expect("valid config");
        gpu.warm(&wl, 256);
        gpu.run(FIRST + SECOND)
            .unwrap_or_else(|e| panic!("{name}: reference run failed: {e}"));
        let reference = image(&gpu);

        // Interrupted run: same warm, run the first window, snapshot,
        // throw the simulator away, and resume in a "fresh process"
        // (registry reset + re-seeded from the checkpoint).
        invariant::reset();
        let mut gpu = GpuSimulator::try_new(cfg.clone(), &wl).expect("valid config");
        gpu.warm(&wl, 256);
        gpu.run(FIRST)
            .unwrap_or_else(|e| panic!("{name}: first window failed: {e}"));
        let ckpt = gpu.checkpoint(&wl);
        assert_eq!(ckpt.cycle(), gpu.cycle(), "{name}: checkpoint cycle");
        drop(gpu);

        invariant::reset();
        ckpt.seed_invariants();
        let mut resumed = GpuSimulator::restore(cfg.clone(), &wl, &ckpt)
            .unwrap_or_else(|e| panic!("{name}: restore failed: {e}"));
        assert_eq!(resumed.cycle(), FIRST, "{name}: resumed at wrong cycle");
        resumed
            .run(SECOND)
            .unwrap_or_else(|e| panic!("{name}: resumed window failed: {e}"));
        let continued = image(&resumed);

        assert_images_match(&name, &reference, &continued);
    }
}

/// `run(n + m)` == `restore(checkpoint(run(n))).run(m)` for asymmetric
/// interruption points — the checkpoint may land anywhere, including
/// mid-window (cycle 1), right after warm-up (cycle 0), and one cycle
/// before the end.
#[test]
fn restore_at_arbitrary_cycles_is_byte_identical() {
    let _guard = lock();
    const TOTAL: u64 = 3_000;
    let cfg = GpuConfig::paper_baseline(ArchKind::Nuba)
        .with_replication(ReplicationKind::Mdr)
        .with_policy(PagePolicyKind::lab_default());
    let wl = workload_for(&cfg);

    invariant::reset();
    let mut gpu = GpuSimulator::try_new(cfg.clone(), &wl).expect("valid config");
    gpu.warm(&wl, 256);
    gpu.run(TOTAL).expect("forward progress");
    let reference = image(&gpu);

    for first in [0u64, 1, 257, 1_024, TOTAL - 1] {
        invariant::reset();
        let mut gpu = GpuSimulator::try_new(cfg.clone(), &wl).expect("valid config");
        gpu.warm(&wl, 256);
        gpu.run(first).expect("forward progress");
        let ckpt = gpu.checkpoint(&wl);
        drop(gpu);

        invariant::reset();
        ckpt.seed_invariants();
        let mut resumed =
            GpuSimulator::restore(cfg.clone(), &wl, &ckpt).expect("checkpoint restores");
        resumed.run(TOTAL - first).expect("forward progress");
        let continued = image(&resumed);
        assert_images_match(&format!("split at {first}"), &reference, &continued);
    }
}

#[test]
fn checkpoint_bytes_roundtrip() {
    let _guard = lock();
    let cfg = GpuConfig::paper_baseline(ArchKind::Nuba)
        .with_geometry(8, 8, 4, 8)
        .with_page_fault_latency(200);
    let wl = workload_for(&cfg);
    let mut gpu = GpuSimulator::try_new(cfg, &wl).expect("valid config");
    gpu.warm(&wl, 64);
    gpu.run(1_000).expect("forward progress");

    let ckpt = gpu.checkpoint(&wl);
    let bytes = ckpt.to_bytes();
    let back = nuba_core::Checkpoint::from_bytes(&bytes).expect("decodes");
    assert_eq!(ckpt, back, "serialized checkpoint did not round-trip");
    assert_eq!(
        back.config().state_hash(),
        back.config_hash(),
        "embedded config inconsistent with its hash"
    );

    // The decoded checkpoint restores and continues identically too.
    let a = {
        let mut g = GpuSimulator::restore(ckpt.config().clone(), &wl, &ckpt).expect("restores");
        g.run(500).expect("forward progress");
        g.report()
    };
    let b = {
        let mut g = GpuSimulator::restore(back.config().clone(), &wl, &back).expect("restores");
        g.run(500).expect("forward progress");
        g.report()
    };
    assert_eq!(a, b);
}

#[test]
fn restore_rejects_mismatched_config_and_workload() {
    let _guard = lock();
    let cfg = GpuConfig::paper_baseline(ArchKind::Nuba)
        .with_geometry(8, 8, 4, 8)
        .with_page_fault_latency(200);
    let wl = workload_for(&cfg);
    let mut gpu = GpuSimulator::try_new(cfg.clone(), &wl).expect("valid config");
    gpu.warm(&wl, 64);
    gpu.run(500).expect("forward progress");
    let ckpt = gpu.checkpoint(&wl);

    let other_cfg = cfg.clone().with_seed(cfg.seed ^ 1);
    match GpuSimulator::restore(other_cfg, &wl, &ckpt).map(|_| ()) {
        Err(SimError::Checkpoint(StateError::HashMismatch {
            what: "configuration",
        })) => {}
        other => panic!("wrong rejection for config mismatch: {other:?}"),
    }

    let other_wl = Workload::build(BenchmarkId::Sgemm, ScaleProfile::fast(), 8, cfg.seed);
    match GpuSimulator::restore(cfg, &other_wl, &ckpt).map(|_| ()) {
        Err(SimError::Checkpoint(StateError::HashMismatch { what: "workload" })) => {}
        other => panic!("wrong rejection for workload mismatch: {other:?}"),
    }
}

#[test]
fn from_bytes_rejects_corruption_and_version_skew() {
    let _guard = lock();
    let cfg = GpuConfig::paper_baseline(ArchKind::Nuba)
        .with_geometry(8, 8, 4, 8)
        .with_page_fault_latency(200);
    let wl = workload_for(&cfg);
    let mut gpu = GpuSimulator::try_new(cfg, &wl).expect("valid config");
    gpu.warm(&wl, 64);
    let bytes = gpu.checkpoint(&wl).to_bytes();

    // Bad magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xff;
    assert!(matches!(
        nuba_core::Checkpoint::from_bytes(&bad),
        Err(StateError::Corrupt(_))
    ));

    // Future format version (bytes 4..8, little-endian).
    let mut bad = bytes.clone();
    bad[4..8].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        nuba_core::Checkpoint::from_bytes(&bad),
        Err(StateError::VersionMismatch {
            found: 99,
            expected: _
        })
    ));

    // Truncation: the trailing content checksum no longer covers the
    // bytes present.
    assert!(matches!(
        nuba_core::Checkpoint::from_bytes(&bytes[..bytes.len() - 1]),
        Err(StateError::ChecksumMismatch { .. })
    ));

    // Truncation so deep even the header is gone.
    assert!(matches!(
        nuba_core::Checkpoint::from_bytes(&bytes[..6]),
        Err(StateError::UnexpectedEof { .. })
    ));

    // Trailing garbage shifts the checksum tail off its bytes.
    let mut bad = bytes.clone();
    bad.push(0);
    assert!(matches!(
        nuba_core::Checkpoint::from_bytes(&bad),
        Err(StateError::ChecksumMismatch { .. })
    ));

    // A flipped bit in the middle of the opaque state payload — the
    // case only the end-to-end checksum can catch.
    let mut bad = bytes.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x10;
    assert!(matches!(
        nuba_core::Checkpoint::from_bytes(&bad),
        Err(StateError::ChecksumMismatch { .. })
    ));
}

#[test]
fn sessions_fork_identical_continuations() {
    let _guard = lock();
    let cfg = GpuConfig::paper_baseline(ArchKind::Nuba)
        .with_geometry(8, 8, 4, 8)
        .with_page_fault_latency(200);
    let wl = workload_for(&cfg);

    let mut warm = SimSession::builder(cfg, wl.clone())
        .build()
        .expect("valid config");
    warm.warm();
    let ckpt = warm.checkpoint();

    // Two sessions forked from the same warm state run identically —
    // the warm parent keeps running without disturbing the forks.
    let a = SimSession::resume(&ckpt, wl.clone())
        .expect("restores")
        .run_window(2_000)
        .expect("forward progress");
    warm.run_window(123).expect("forward progress");
    let b = SimSession::resume(&ckpt, wl)
        .expect("restores")
        .run_window(2_000)
        .expect("forward progress");
    assert_eq!(a, b, "forked continuations diverged");
}

#[test]
fn session_builder_rejects_invalid_configs() {
    let _guard = lock();
    let mut cfg = GpuConfig::paper_baseline(ArchKind::Nuba);
    cfg.num_sms = 0;
    let wl = Workload::build(BenchmarkId::Sgemm, ScaleProfile::fast(), 8, 1);
    assert!(matches!(
        SimSession::builder(cfg, wl).build(),
        Err(SimError::InvalidConfig(_))
    ));
}

/// A checkpoint written by the commit before the cycle-path maps moved
/// off SipHash and `is_mapped` went lazy still decodes, re-encodes to
/// the same bytes, and resumes to the report an uninterrupted run of
/// today's code produces: the change is speed only, the wire format and
/// the simulated behaviour are what they were.
///
/// `fixtures/pr11_format.ckpt` is `gpu.checkpoint(&wl).to_bytes()` from
/// that commit after exactly the set-up and first window below (a 2-SM
/// machine with small caches keeps the file to 60 KB). Its invariant
/// seeds name call sites that have since been hoisted away; they are
/// carried, never matched, and ignored here as the report does not
/// include them.
#[test]
fn checkpoint_written_before_the_int_hasher_resumes_identically() {
    let _guard = lock();
    const FIRST: u64 = 1_000;
    const SECOND: u64 = 1_500;
    let mut cfg = GpuConfig::paper_baseline(ArchKind::Nuba)
        .with_geometry(2, 2, 2, 4)
        .with_llc_capacity(2 * 16 * 128 * 16)
        .with_mdr_sample_sets(4)
        .with_page_fault_latency(200);
    cfg.l1_bytes = 6 * 128 * 16;
    let wl = workload_for(&cfg);

    let bytes = include_bytes!("fixtures/pr11_format.ckpt");
    let old = nuba_core::Checkpoint::from_bytes(bytes).expect("parent-format bytes decode");
    assert_eq!(old.cycle(), FIRST);
    assert_eq!(old.to_bytes(), bytes, "container re-encodes differently");

    let mut fresh = GpuSimulator::try_new(cfg.clone(), &wl).expect("valid config");
    fresh.warm(&wl, 64);
    fresh.run(FIRST).expect("forward progress");
    let midway = fresh.report();
    fresh.run(SECOND).expect("forward progress");

    let mut resumed = GpuSimulator::restore(cfg, &wl, &old).expect("parent-format state restores");
    assert_eq!(
        resumed.report(),
        midway,
        "restored state reports differently"
    );
    resumed.run(SECOND).expect("forward progress");
    assert_eq!(resumed.report(), fresh.report(), "continuation diverged");
}
