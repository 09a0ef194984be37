//! Fidelity-ladder contracts, enforced through the public runner API:
//!
//! 1. the ladder's policy ([`tier0_screen`]) as a table: pin, mode and
//!    screen in, rung out;
//! 2. `Fidelity::Full` through the runner is byte-identical to a raw
//!    simulator run that never touches the ladder (the pre-ladder
//!    execution recipe);
//! 3. a tier-0 matrix is byte-deterministic across worker counts, costs
//!    zero detailed cycles and builds no simulator.

use std::cell::Cell;

use nuba_bench::runner::{
    run_matrix_ctx_with, run_matrix_with, tier0_screen, Job, MatrixStats, RunnerCtx,
};
use nuba_bench::screen::{screen_benchmark, ScreenPrediction};
use nuba_bench::store::{CheckpointStore, StoreConfig, StoreStats};
use nuba_bench::{simcheck_configs, FidelityMode, Harness};
use nuba_core::{default_warm_accesses, GpuSimulator};
use nuba_types::Fidelity;
use nuba_workloads::{BenchmarkId, ScaleProfile, Workload};

const CYCLES: u64 = 20_000;
const SEED: u64 = 42;

fn harness() -> Harness {
    Harness {
        cycles: CYCLES,
        scale: ScaleProfile::fast(),
        seed: SEED,
    }
}

/// A real screen bent to one side of `informative()`: a memory system
/// that keeps up (utilization 0.1) is decisive; an over-subscribed one
/// whose three tiers tie is not.
fn screen(informative: bool) -> ScreenPrediction {
    let (_, cfg) = &simcheck_configs()[4];
    let mut s = screen_benchmark(BenchmarkId::Kmeans, &ScaleProfile::fast(), cfg);
    s.utilization = if informative { 0.1 } else { 2.0 };
    for l in &mut s.links {
        l.demand_bpc = 2.0 * l.supply_bpc;
    }
    assert_eq!(s.informative(), informative);
    s
}

/// The whole `auto` policy, without the environment: a pin wins over
/// the mode, a fixed mode passes through, and `auto` follows the
/// screen. The screen is evaluated only when the answer or the tier-0
/// report needs it.
#[test]
fn rung_is_a_function_of_pin_mode_and_screen() {
    use Fidelity::{Analytical, Full};
    use FidelityMode::{Auto, Fixed};
    // (pin, mode, screen informative?) → (rung, screen evaluations)
    let table = [
        (Some(Full), Auto, true, Full, 0),
        (Some(Full), Fixed(Analytical), true, Full, 0),
        (Some(Analytical), Auto, false, Analytical, 1),
        (Some(Analytical), Fixed(Full), false, Analytical, 1),
        (None, Fixed(Full), true, Full, 0),
        (None, Fixed(Analytical), false, Analytical, 1),
        (None, Auto, true, Analytical, 1),
        (None, Auto, false, Full, 1),
    ];
    for (pin, mode, informative, rung, evaluations) in table {
        let calls = Cell::new(0);
        let handed_on = tier0_screen(pin, mode, || {
            calls.set(calls.get() + 1);
            screen(informative)
        });
        let case = format!("pin {pin:?}, mode {mode:?}, informative {informative}");
        assert_eq!(handed_on.is_some(), rung == Analytical, "{case}");
        assert_eq!(calls.get(), evaluations, "{case}");
    }
}

/// Tier-2 contract: a `Fidelity::Full` job through the matrix runner
/// produces field-for-field the same report as the raw pre-ladder
/// recipe (build, warm, run) — the ladder must be invisible when off.
#[test]
fn full_fidelity_matches_ladder_free_simulation() {
    let h = harness();
    let (name, cfg) = &simcheck_configs()[4]; // a NUBA config
    let job =
        Job::new(name.clone(), BenchmarkId::Kmeans, cfg.clone()).with_fidelity(Fidelity::Full);
    let results = run_matrix_with(&h, std::slice::from_ref(&job), 1);

    // The ladder-free recipe, exactly as the harness ran before the
    // fidelity API existed: fresh simulator, default warm-up, one
    // detailed window.
    let mut cfg = cfg.clone();
    cfg.seed = SEED;
    cfg.page_bytes = h.scale.page_bytes;
    let wl = Workload::build(BenchmarkId::Kmeans, h.scale, cfg.num_sms, SEED);
    let mut gpu = GpuSimulator::try_new(cfg.clone(), &wl).expect("valid config");
    gpu.warm(&wl, default_warm_accesses(&cfg, &wl));
    let truth = gpu.run(CYCLES).expect("full run");

    assert_eq!(results[0].fidelity, Fidelity::Full);
    assert_eq!(
        results[0].report, truth,
        "Fidelity::Full diverged from the ladder-free simulation path"
    );
}

/// Tier-0 contract: an analytical matrix over the simcheck configs is
/// the same serial and on 4 workers, charges nothing to
/// `MatrixStats::detailed_cycles`, and never builds a simulator — a
/// built one would look its warm state up in the context's store and
/// publish it, as the full job run afterwards through the same context
/// does.
#[test]
fn tier0_matrix_is_deterministic_free_and_builds_no_simulator() {
    let h = harness();
    let jobs: Vec<Job> = simcheck_configs()
        .into_iter()
        .map(|(name, cfg)| {
            Job::new(name, BenchmarkId::Kmeans, cfg).with_fidelity(Fidelity::Analytical)
        })
        .collect();
    let dir = std::env::temp_dir().join(format!("nuba_tier0_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ctx = RunnerCtx::with_store(
        CheckpointStore::open(StoreConfig {
            dir: Some(dir.clone()),
            ..StoreConfig::default()
        })
        .expect("store opens"),
    );

    let serial = run_matrix_ctx_with(&ctx, &h, &jobs, 1);
    let parallel = run_matrix_ctx_with(&ctx, &h, &jobs, 4);
    assert_eq!(serial.len(), 11, "simcheck config roster changed");
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.fidelity, Fidelity::Analytical, "{}", s.label);
        assert_eq!(s.report.cycles, CYCLES, "{}", s.label);
        assert_eq!(s.report, p.report, "{}: serial vs 4 workers", s.label);
    }
    let stats = MatrixStats::of(&serial);
    assert_eq!(stats.total_cycles, 11 * CYCLES);
    assert_eq!(stats.detailed_cycles, 0);
    let store = ctx.store().expect("store-backed context");
    assert_eq!(store.stats(), StoreStats::default());

    let full = jobs[4].clone().with_fidelity(Fidelity::Full);
    let r = run_matrix_ctx_with(&ctx, &h, std::slice::from_ref(&full), 1);
    assert_eq!(MatrixStats::of(&r).detailed_cycles, CYCLES);
    assert!(
        store.stats().inserts > 0,
        "a built simulator shows in the store"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
