//! Latency figure: per-tier read-latency CDFs and stage queueing-delay
//! percentiles across the full architecture matrix — both UBA baselines
//! and NUBA under every replication x page-policy combination (the same
//! eleven configurations `simcheck` gates on).
//!
//! Every read reply lands in a deterministic log2-bucketed histogram
//! keyed by the bandwidth tier that served it (partition-local LLC hit,
//! remote LLC hit over the NoC, or DRAM), so the figure shows *where*
//! NUBA's non-uniform bandwidth pays off: local hits complete in a few
//! tens of cycles while UBA routes every hit through the crossbar.
//! Per-stage queueing delays (SM->slice, slice queue, LLC service,
//! DRAM+reply) come from the sampled lifecycle tracer.
//!
//! All numbers are simulated cycles and integer counts — byte-identical
//! across worker counts. `NUBA_OBS=<dir>` exports the underlying data:
//! the merged histograms as Prometheus text in `metrics.prom`, next to
//! the windows, lifecycles and job events (see `nuba_bench::obs`).

use nuba_bench::runner::{self, run_matrix, Job};
use nuba_bench::{chart, figure_header, obs, simcheck_configs, Harness};
use nuba_types::{ArchKind, GpuConfig, LatencySummary, TelemetryConfig};
use nuba_workloads::BenchmarkId;

fn main() {
    figure_header(
        "Latency",
        "per-tier read-latency CDFs and stage queueing delays across the architecture matrix",
    );
    let h = Harness::from_env();
    let bench = BenchmarkId::Kmeans;

    let jobs: Vec<Job> = simcheck_configs()
        .into_iter()
        .map(|(name, cfg)| {
            // Lifecycle tracing feeds the per-stage histograms; the
            // windowed sampler carries per-window percentiles too.
            let cfg = cfg.with_telemetry(TelemetryConfig {
                window_cycles: Some((h.cycles / 20).max(100)),
                trace_sample_period: 16,
                window_latency: true,
                ..GpuConfig::paper_baseline(ArchKind::Nuba).telemetry
            });
            Job::new(name, bench, cfg)
        })
        .collect();
    let results = run_matrix(&h, &jobs);
    obs::write(&results);

    println!("{bench} read latency by bandwidth tier (simulated cycles):\n");
    println!(
        "{:<24} {:>7} {:>7} {:>7} {:>7} {:>9}",
        "config / tier", "p50", "p95", "p99", "max", "reads"
    );
    for r in &results {
        if let Some(err) = &r.error {
            println!("{:<24} quarantined: {err}", r.label);
            continue;
        }
        let overall = LatencySummary::of(&r.report.latency.overall());
        println!(
            "{:<24} {:>7} {:>7} {:>7} {:>7} {:>9}",
            r.label, overall.p50, overall.p95, overall.p99, overall.max, overall.count
        );
        for (name, s) in r.report.latency.tier_summaries() {
            if s.count == 0 {
                continue;
            }
            println!(
                "  {:<22} {:>7} {:>7} {:>7} {:>7} {:>9}",
                name, s.p50, s.p95, s.p99, s.max, s.count
            );
        }
    }

    // CDFs for the three headline architectures, one line per occupied
    // log2 bucket: latency upper bound, cumulative share, bar.
    println!("\nPer-tier latency CDFs (log2 buckets, cumulative fraction of reads):");
    for r in results
        .iter()
        .filter(|r| matches!(r.label.as_str(), "UBA-mem" | "UBA-sm" | "NUBA-MDR-LAB"))
    {
        if r.error.is_some() {
            continue;
        }
        println!("\n{}:", r.label);
        for (name, hist) in r
            .report
            .latency
            .tier_summaries()
            .iter()
            .map(|(n, _)| *n)
            .zip(r.report.latency.tiers.iter())
        {
            let points = hist.cdf_points();
            if points.is_empty() {
                continue;
            }
            let total = hist.count().max(1);
            println!("  {name} ({} reads):", hist.count());
            for (ub, cum) in points {
                let frac = cum as f64 / total as f64;
                println!(
                    "    <={ub:>8} {} {:>5.1}%",
                    chart::bar(frac, 1.0, 30),
                    frac * 100.0
                );
            }
        }
    }

    println!("\nStage queueing delays on NUBA-MDR-LAB (sampled lifecycles):");
    if let Some(r) = results.iter().find(|r| r.label == "NUBA-MDR-LAB") {
        for (name, s) in r.report.latency.stage_summaries() {
            println!(
                "  {:<12} p50 {:>6}  p95 {:>6}  p99 {:>6}  max {:>6}  ({} samples)",
                name, s.p50, s.p95, s.p99, s.max, s.count
            );
        }
    }

    std::process::exit(runner::finish());
}
