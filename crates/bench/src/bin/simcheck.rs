//! Workspace invariant gate: run every architecture configuration and
//! fail if any named invariant or conservation law is violated.
//!
//! Each configuration simulates a mixed workload with periodic
//! cross-component conservation checks (`GpuSimulator::check_conservation`):
//!
//! - **requests in == replies out**: every SM request is answered or
//!   still outstanding — the memory system drops and duplicates nothing;
//! - **flits injected == ejected**: the request and reply crossbars
//!   conserve packets across both stages;
//! - **energy monotone**: cumulative energy never decreases as the
//!   simulation advances;
//!
//! plus every `invariant!` site embedded in the component code (address
//! math, link/pipe time monotonicity, replica-path access kinds, SM
//! reply routing, ...), which count violations even in release builds.
//!
//! The configurations run concurrently on the `NUBA_JOBS` worker pool.
//! The invariant registry is process-global, so it is reset once up
//! front and violations are attributed by *site* (file:line) rather
//! than by configuration; set `NUBA_JOBS=1` to bisect a failure to a
//! single configuration.
//!
//! Exit status is nonzero on any violation, so CI can gate on
//! `cargo run -p nuba-bench --bin simcheck`.

use nuba_bench::runner::{num_jobs, run_jobs};
use nuba_bench::simcheck_configs;
use nuba_core::GpuSimulator;
use nuba_types::invariant;
use nuba_types::GpuConfig;
use nuba_workloads::{BenchmarkId, ScaleProfile, Workload};

/// Simulate one configuration with conservation checks every
/// `check_every` cycles. Returns (timed cycles, warp-ops).
fn check_config(cfg: GpuConfig, bench: BenchmarkId, cycles: u64) -> (u64, u64) {
    // Run with both telemetry pillars on, so the windowed sampler and
    // the lifecycle tracer are exercised under every architecture too.
    let telemetry = nuba_types::TelemetryConfig {
        window_cycles: Some(512),
        trace_sample_period: 64,
        ..cfg.telemetry
    };
    let cfg = cfg.with_telemetry(telemetry);
    let scale = ScaleProfile::fast();
    let wl = Workload::build(bench, scale, cfg.num_sms, cfg.seed);
    let mut gpu = GpuSimulator::try_new(cfg, &wl).expect("simcheck configs are valid");
    gpu.warm(&wl, 256);
    gpu.check_conservation();

    let check_every = 512u64;
    let mut prev_energy = 0.0f64;
    while gpu.cycle() < cycles {
        // Chunked run() keeps the forward-progress watchdog armed, so
        // simcheck also gates "no healthy configuration trips it".
        invariant!(
            "simcheck_forward_progress",
            gpu.run(check_every).is_ok(),
            "watchdog fired on a healthy configuration"
        );
        gpu.check_conservation();
        let energy = gpu.report().energy.total_j();
        invariant!(
            "energy_monotone",
            energy >= prev_energy,
            "total energy fell from {prev_energy} J to {energy} J"
        );
        prev_energy = energy;
    }

    let report = gpu.report();
    let sum = report.bottleneck_breakdown().sum();
    invariant!(
        "bottleneck_shares_sum_to_one",
        (sum - 1.0).abs() < 1e-9,
        "cycle-accounting shares sum to {sum}"
    );
    (report.cycles, report.warp_ops)
}

fn main() {
    let cycles = nuba_bench::HarnessOptions::get().simcheck_cycles;
    // A benchmark with both read-only shared data (exercises the MDR
    // replica path) and writes (exercises stores/atomics downstream).
    let bench = BenchmarkId::Kmeans;
    let configs = simcheck_configs();

    println!(
        "simcheck: {} configurations x {cycles} cycles of {bench:?} ({} workers)",
        configs.len(),
        num_jobs()
    );
    nuba_types::invariant::reset();
    let runs = run_jobs(configs.len(), num_jobs(), |i| {
        check_config(configs[i].1.clone(), bench, cycles)
    });
    let total = nuba_types::invariant::total_violations();

    let status = if total == 0 { "ok" } else { "FAIL" };
    for ((name, _), (run_cycles, warp_ops)) in configs.iter().zip(&runs) {
        println!("{status:>4}  {name:<24} {run_cycles:>8} cycles  {warp_ops:>8} warp-ops");
    }

    if total > 0 {
        for site in nuba_types::invariant::report() {
            if site.violations > 0 {
                // Violations are counted exactly; the passing tally is
                // a floor when several workers share the site.
                println!(
                    "      {} at {}:{} — {} violations (at least {} checks)",
                    site.name, site.file, site.line, site.violations, site.checks
                );
            }
        }
        eprintln!("simcheck: {total} invariant violations");
        std::process::exit(1);
    }
    println!("simcheck: all invariants held");
}
