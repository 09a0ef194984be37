//! Fidelity-ladder measurement: score the tier-0 analytical screen
//! against tier 2 (full simulation, the ground truth) across the 11
//! `simcheck` architecture configurations and all 29 Table-2
//! benchmarks. Per run: the roofline midpoint's IPC error, whether the
//! truth lands inside the roofline band, and whether `auto` would have
//! let the screen stand alone (`informative`); totals are split by that
//! flag, because only the informative runs are ever answered at tier 0.
//!
//! Writes `BENCH_fidelity.json`. Reported, not gated: the numbers are
//! what a tighter `informative()` has to be judged against.

use nuba_bench::runner::{self, run_matrix, Job, MatrixStats};
use nuba_bench::screen::screen_benchmark;
use nuba_bench::{
    figure_header, main_configs, simcheck_configs, FidelityMode, Harness, HarnessOptions,
};
use nuba_types::Fidelity;
use nuba_workloads::BenchmarkId;

struct Row {
    label: String,
    bench: BenchmarkId,
    truth_ipc: f64,
    screen_ipc: f64,
    band_lo: f64,
    band_hi: f64,
    abs_rel_error: f64,
    in_band: bool,
    informative: bool,
}

/// Relative |error| of the screen's IPC against the full-run truth.
fn rel_error(truth: f64, screen: f64) -> f64 {
    if truth.abs() < 1e-12 {
        screen.abs()
    } else {
        (screen - truth).abs() / truth
    }
}

/// `{"runs", "mean_abs_rel_error", "in_band"}` over the rows whose
/// `informative` flag equals `informative`.
fn totals_json(rows: &[Row], informative: bool) -> String {
    let part: Vec<&Row> = rows
        .iter()
        .filter(|r| r.informative == informative)
        .collect();
    let n = part.len().max(1) as f64;
    format!(
        "{{\"runs\": {}, \"mean_abs_rel_error\": {:.6}, \"in_band\": {:.4}}}",
        part.len(),
        part.iter().map(|r| r.abs_rel_error).sum::<f64>() / n,
        part.iter().filter(|r| r.in_band).count() as f64 / n,
    )
}

fn main() {
    figure_header(
        "Fidelity",
        "Analytical screen (tier 0) vs full simulation (tier 2): roofline error and saved work",
    );
    let h = Harness::from_env();
    let (_, nuba_cfg) = main_configs()[3].clone();

    // The validation matrix: every simcheck architecture on the
    // mixed-behaviour Kmeans workload, plus every Table-2 benchmark on
    // the NUBA main configuration.
    let mut specs: Vec<(String, BenchmarkId, nuba_types::GpuConfig)> = simcheck_configs()
        .into_iter()
        .map(|(name, cfg)| (name, BenchmarkId::Kmeans, cfg))
        .collect();
    for &b in BenchmarkId::ALL {
        specs.push((b.to_string(), b, nuba_cfg.clone()));
    }

    // The truth arm: one job per spec, pinned to tier 2 so the figure
    // is immune to the process-wide fidelity mode.
    let jobs: Vec<Job> = specs
        .iter()
        .map(|(name, bench, cfg)| {
            Job::new(format!("{name}/full"), *bench, cfg.clone()).with_fidelity(Fidelity::Full)
        })
        .collect();
    let results = run_matrix(&h, &jobs);

    // Under `NUBA_FIDELITY=auto` a second, unpinned arm measures what
    // the ladder actually spends on this matrix — the `all_experiments`
    // economics (tier-0 screens resolving most jobs for zero detailed
    // cycles).
    let auto_mode = HarnessOptions::get().fidelity == FidelityMode::Auto;
    let auto_results = if auto_mode {
        let auto_jobs: Vec<Job> = specs
            .iter()
            .map(|(name, bench, cfg)| Job::new(format!("{name}/auto"), *bench, cfg.clone()))
            .collect();
        run_matrix(&h, &auto_jobs)
    } else {
        Vec::new()
    };

    println!(
        "{:<26} {:>9} {:>9} {:>19} {:>8} {:>8} {:>11}",
        "config/bench", "truth", "screen", "band", "err", "in-band", "informative"
    );
    let mut rows: Vec<Row> = Vec::new();
    for ((name, bench, cfg), truth) in specs.iter().zip(&results) {
        if truth.failed() || truth.cancelled() {
            eprintln!("fig_fidelity: skipping {name} — job did not complete");
            continue;
        }
        let screen = screen_benchmark(*bench, &h.scale, cfg);
        let band = screen.roofline;
        let truth_ipc = truth.report.perf();
        let row = Row {
            label: name.clone(),
            bench: *bench,
            truth_ipc,
            screen_ipc: band.mean,
            band_lo: band.lo(),
            band_hi: band.hi(),
            abs_rel_error: rel_error(truth_ipc, band.mean),
            in_band: band.contains(truth_ipc),
            informative: screen.informative(),
        };
        println!(
            "{:<26} {:>9.3} {:>9.3} {:>9.3}–{:<9.3} {:>7.1}% {:>8} {:>11}",
            row.label,
            row.truth_ipc,
            row.screen_ipc,
            row.band_lo,
            row.band_hi,
            row.abs_rel_error * 100.0,
            if row.in_band { "yes" } else { "no" },
            if row.informative { "yes" } else { "no" },
        );
        rows.push(row);
    }

    let informative = totals_json(&rows, true);
    let not_informative = totals_json(&rows, false);
    let detailed_full = MatrixStats::of(&results).detailed_cycles;
    println!("\nInformative (tier 0 may answer): {informative}");
    println!("Not informative (runs in full):  {not_informative}");

    // Ladder economics (the `all_experiments` story): how many jobs
    // each rung resolved and the matrix-level detail saving relative to
    // the pinned full arm.
    let mut auto_json = String::new();
    if auto_mode {
        let tier2 = auto_results
            .iter()
            .filter(|r| r.fidelity.simulates())
            .count();
        let tier0 = auto_results.len() - tier2;
        let auto_detailed = MatrixStats::of(&auto_results).detailed_cycles;
        let auto_reduction = detailed_full as f64 / auto_detailed.max(1) as f64;
        println!(
            "Auto ladder: {tier0} tier-0, {tier2} tier-2 — {auto_reduction:.1}x less detail than full"
        );
        auto_json = format!(
            ",\n  \"auto\": {{\"jobs\": {}, \"tier0\": {tier0}, \"tier2\": {tier2}, \
             \"detailed_cycles\": {auto_detailed}, \
             \"detail_reduction\": {auto_reduction:.2}}}",
            auto_results.len(),
        );
    }

    let path = "BENCH_fidelity.json";
    let mut json = String::from("{\n  \"runs\": [\n");
    json.push_str(
        &rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"label\": \"{}\", \"bench\": \"{}\", \"truth_ipc\": {:.6}, \
                     \"screen_ipc\": {:.6}, \"band_lo\": {:.6}, \"band_hi\": {:.6}, \
                     \"abs_rel_error\": {:.6}, \"in_band\": {}, \"informative\": {}}}",
                    r.label,
                    r.bench,
                    r.truth_ipc,
                    r.screen_ipc,
                    r.band_lo,
                    r.band_hi,
                    r.abs_rel_error,
                    r.in_band,
                    r.informative,
                )
            })
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    json.push_str(&format!(
        "\n  ],\n  \"informative\": {informative},\n  \
         \"not_informative\": {not_informative},\n  \
         \"detailed_cycles_full\": {detailed_full}{auto_json}\n}}\n"
    ));
    match std::fs::write(path, json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }

    std::process::exit(runner::finish());
}
