//! Correlation of the advisory static screen against full simulation
//! (Accel-Sim methodology): for all 29 Table-2 benchmarks, run the
//! static kernel profiler's predictions and the cycle-level NUBA
//! simulator side by side and report per-kernel footprint error,
//! sharing-class agreement, and bottleneck agreement.
//!
//! Writes `BENCH_correlation.json` (override with
//! `NUBA_CORRELATION=<path>`) and exits nonzero if sharing-class
//! agreement drops below 80% — the CI smoke gate.

use nuba_bench::runner::{self, run_matrix, Job};
use nuba_bench::screen::{screen_benchmark, ScreenPrediction};
use nuba_bench::{figure_header, main_configs, Harness};
use nuba_types::{SmId, WarpId};
use nuba_workloads::{sharing_buckets, BenchmarkId, WarpOp, Workload};

struct Row {
    pred: ScreenPrediction,
    touched_pages: u64,
    footprint_error: f64,
    class_agrees: bool,
    dominant: &'static str,
    bottleneck_agrees: bool,
}

/// Distinct pages touched by a deterministic sample of the workload's
/// access streams (the same streams the simulator consumes): the
/// dynamic ground truth the static footprint is correlated against.
/// Returns `(touched, max_page)`.
fn dynamic_footprint(wl: &Workload, warps: usize, ops_per_warp: usize) -> (u64, u64) {
    let pb = wl.layout().page_bytes;
    let mut pages = std::collections::BTreeSet::new();
    for sm in 0..wl.num_sms() {
        for w in 0..warps {
            let mut s = wl.stream(SmId(sm), WarpId(w));
            for _ in 0..ops_per_warp {
                if let WarpOp::Mem(a) = s.next_op() {
                    pages.insert(a.vaddr.0 / pb);
                }
            }
        }
    }
    let max = pages.iter().next_back().copied().unwrap_or(0);
    (pages.len() as u64, max)
}

fn main() {
    figure_header(
        "Correlation",
        "Static profiler (advisory screen) vs cycle-level simulation, 29 benchmarks",
    );
    let h = Harness::from_env();
    let (_, nuba_cfg) = main_configs()[3].clone();

    let jobs: Vec<Job> = BenchmarkId::ALL
        .iter()
        .map(|&b| Job::new(b.to_string(), b, nuba_cfg.clone()))
        .collect();
    let results = run_matrix(&h, &jobs);

    println!(
        "{:<8} {:>10} {:>10} {:>8} {:>7} {:>7} {:>9} {:>17} {:>6}",
        "bench",
        "pred-pages",
        "dyn-pages",
        "fp-err",
        "class",
        "agree",
        "pred-bneck",
        "sim-bottleneck",
        "agree"
    );
    let mut rows: Vec<Row> = Vec::new();
    for (i, &b) in BenchmarkId::ALL.iter().enumerate() {
        let pred = screen_benchmark(b, &h.scale, &nuba_cfg);
        let report = &results[i].report;
        // The dynamic side comes from the very workload the job
        // simulated (same builder, same seed): the sharing class from
        // the built layout's histogram, the footprint from a stream
        // sample.
        let wl = Workload::build(b, h.scale, nuba_cfg.num_sms, h.seed);
        let dynamic_class = sharing_buckets(wl.layout(), nuba_cfg.num_sms).classify();
        let (touched, max_page) = dynamic_footprint(&wl, 2, 512);
        let predicted = pred.profile.total_pages();
        // The static footprint is a provable upper bound: every touched
        // page must fall inside the predicted range.
        assert!(
            max_page < predicted,
            "{b}: dynamic page {max_page} outside static prediction {predicted}"
        );
        // Signed relative error of the static footprint against the
        // dynamically-touched page count; ≥ 0 by the superset property,
        // shrinking as the sample covers more of each region.
        let footprint_error = (predicted as f64 - touched as f64) / predicted.max(1) as f64;
        let class_agrees = pred.profile.sharing_class() == dynamic_class;
        let (dominant, _) = report.bottleneck_breakdown().dominant();
        let bottleneck_agrees = pred.bottleneck_agrees(dominant);
        println!(
            "{:<8} {:>10} {:>10} {:>7.1}% {:>7} {:>7} {:>9} {:>17} {:>6}",
            b.to_string(),
            predicted,
            touched,
            footprint_error * 100.0,
            pred.profile.sharing_class().to_string(),
            if class_agrees { "yes" } else { "NO" },
            pred.predicted_bottleneck(),
            dominant,
            if bottleneck_agrees { "yes" } else { "no" }
        );
        rows.push(Row {
            pred,
            touched_pages: touched,
            footprint_error,
            class_agrees,
            dominant,
            bottleneck_agrees,
        });
    }

    let n = rows.len() as f64;
    let class_agreement = rows.iter().filter(|r| r.class_agrees).count() as f64 / n;
    let bottleneck_agreement = rows.iter().filter(|r| r.bottleneck_agrees).count() as f64 / n;
    let mean_abs_fp_err = rows.iter().map(|r| r.footprint_error.abs()).sum::<f64>() / n;
    let racy: Vec<String> = rows
        .iter()
        .filter(|r| !r.pred.profile.racy_params.is_empty())
        .map(|r| r.pred.bench.to_string())
        .collect();

    println!(
        "\nSharing-class agreement:  {:>5.1}%",
        class_agreement * 100.0
    );
    println!(
        "Bottleneck agreement:     {:>5.1}%",
        bottleneck_agreement * 100.0
    );
    println!(
        "Mean |footprint error|:   {:>5.1}%",
        mean_abs_fp_err * 100.0
    );
    println!(
        "Write-shared race kernels: {}/{} ({})",
        racy.len(),
        rows.len(),
        racy.join(",")
    );

    let path =
        std::env::var("NUBA_CORRELATION").unwrap_or_else(|_| "BENCH_correlation.json".to_string());
    let mut json = String::from("{\n  \"benchmarks\": [\n");
    json.push_str(
        &rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"bench\": \"{}\", \"predicted_pages\": {}, \"touched_pages\": {}, \
                     \"footprint_error\": {:.4}, \"predicted_class\": \"{}\", \
                     \"class_agrees\": {}, \"predicted_bottleneck\": \"{}\", \
                     \"sim_bottleneck\": \"{}\", \"bottleneck_agrees\": {}, \
                     \"replicate\": {}, \"racy_params\": [{}]}}",
                    r.pred.bench,
                    r.pred.profile.total_pages(),
                    r.touched_pages,
                    r.footprint_error,
                    r.pred.profile.sharing_class(),
                    r.class_agrees,
                    r.pred.predicted_bottleneck(),
                    r.dominant,
                    r.bottleneck_agrees,
                    r.pred.verdict.replicate,
                    r.pred
                        .profile
                        .racy_params
                        .iter()
                        .map(|p| format!("\"{p}\""))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    json.push_str(&format!(
        "\n  ],\n  \"sharing_class_agreement\": {class_agreement:.4},\n  \
         \"bottleneck_agreement\": {bottleneck_agreement:.4},\n  \
         \"mean_abs_footprint_error\": {mean_abs_fp_err:.4}\n}}\n"
    ));
    match std::fs::write(&path, json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }

    let code = runner::finish();
    if class_agreement < 0.8 {
        eprintln!(
            "fig_correlation: sharing-class agreement {:.1}% below the 80% gate",
            class_agreement * 100.0
        );
        std::process::exit(1);
    }
    std::process::exit(code);
}
