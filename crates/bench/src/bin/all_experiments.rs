//! Run the complete evaluation and write `EXPERIMENTS.md`: every table
//! and figure of the paper, with paper-reported vs measured numbers.
//!
//! ```sh
//! cargo run --release -p nuba-bench --bin all_experiments
//! ```
//!
//! The figures are the rows of `nuba_bench::figures::FIGURES`, simulated
//! in one matrix on the `NUBA_JOBS` worker pool (each distinct job once);
//! the report is byte-identical at any worker count. A machine-readable
//! throughput record of the run is written to `BENCH_runner.json`,
//! keeping one record per `NUBA_JOBS` value so serial-vs-parallel
//! speedups can be compared across runs.

use std::fmt::Write as _;

use nuba_bench::figures::{self, FIGURES};
use nuba_bench::runner::{num_jobs, run_matrix, Job, RunnerRecord};
use nuba_bench::Harness;
use nuba_types::{ArchKind, GpuConfig};
use nuba_workloads::BenchmarkId;

fn main() {
    let h = Harness::from_env();
    let t0 = std::time::Instant::now();
    let mut md = format!(
        "# EXPERIMENTS — paper vs measured\n\n\
         Generated by `cargo run --release -p nuba-bench --bin all_experiments` \
         ({} timed cycles per run after functional warm-up; harmonic means, as in the paper).\n\n\
         Absolute magnitudes come from a scaled simulator (see DESIGN.md); the \
         reproduction target is the *shape* of each result — who wins, by \
         roughly what factor, and where the crossovers fall.\n\n",
        h.cycles
    );
    let figs = figures::render(&h, &FIGURES.iter().collect::<Vec<_>>());
    md.push_str(&figs.md);

    // ---------------- Chaos drill (opt-in) ----------------
    // `NUBA_CHAOS=1` appends a sabotaged mini-matrix: one healthy job,
    // one that panics on entry, one whose links are derated to zero so
    // the forward-progress watchdog fires. The run must still reach
    // this point with both saboteurs quarantined — the proof that a
    // dying job can no longer take the experiment matrix down.
    if nuba_bench::HarnessOptions::get().chaos {
        eprintln!("[chaos] injecting panicking + deadlocking jobs ...");
        let cfg = GpuConfig::paper_baseline(ArchKind::Nuba);
        let dead =
            nuba_engine::FaultPlan::uniform_link_derate(0.0, cfg.num_sms, cfg.num_llc_slices);
        let chaos = vec![
            Job::new("chaos-healthy", BenchmarkId::Kmeans, cfg.clone()),
            Job::new("chaos-panic", BenchmarkId::Kmeans, cfg.clone()).with_injected_panic(),
            Job::new("chaos-deadlock", BenchmarkId::Kmeans, cfg)
                .with_faults(dead)
                .with_deadline(800),
        ];
        // A matrix of its own: the saboteurs must not perturb the
        // figures or the BENCH_runner.json throughput record.
        let rs = run_matrix(&h, &chaos);
        assert_eq!(rs.len(), 3, "chaos matrix must complete");
        assert!(!rs[0].failed(), "healthy chaos job must succeed");
        let q = nuba_bench::runner::quarantined_jobs();
        for label in ["chaos-panic", "chaos-deadlock"] {
            assert!(
                q.iter().any(|f| f.label == label),
                "{label} missing from the quarantine registry"
            );
        }
        eprintln!("[chaos] ok: both saboteurs quarantined, matrix survived");
    }

    // ---------------- Known deviations ----------------
    md.push_str(
        "## Known deviations from the paper\n\n\
         1. **Full-Rep rarely *hurts*.** The paper reports −17..−19% for SC, BT, \
         GRU and BICG under full replication; our scaled DRAM usually has enough \
         headroom to absorb the replication-induced extra misses, so these come \
         out neutral-to-positive. MDR's decision structure still tracks the \
         better policy per epoch.\n\
         2. **LAB trails first-touch slightly on some low-sharing apps** \
         (paper: ≈parity). At our page-count scale the Normalized Page Balance \
         is noisy early in a run, so LAB's least-first fallback sprays more \
         private pages than it would with the paper's multi-GB footprints.\n\
         3. **SM-side UBA lands ~3–5% below memory-side** (paper: +1.0%): our \
         cross-half memory path is charged explicitly, and the implicit \
         cross-half LLC duplication halves shared-capacity more aggressively \
         than the paper's coherent design.\n\
         4. **NUBA@700 GB/s holds up on low-sharing workloads but not on \
         high-sharing ones** (Fig. 10). The paper's claim 'similar performance \
         to UBA@5.6 TB/s' emerges as a suite average; our high-sharing models \
         keep a larger remote fraction than the paper's ~64% local average, so \
         they pay more when the NoC shrinks 2×.\n\
         5. **MCM NUBA gains less than monolithic NUBA** (paper: more). Our \
         MCM-UBA baseline also benefits from LAB's module-level locality \
         (as MCM-GPU's first-touch placement would), which narrows the gap \
         NUBA can close; the paper's MCM baseline appears to cross modules \
         more often.\n\
         6. Magnitudes of all ratios depend on the workload-model calibration \
         described in DESIGN.md; shapes (winners, orderings, crossovers) are \
         the reproduction target.\n\n",
    );
    let stats = figs.stats;
    writeln!(
        md,
        "_{} jobs submitted, {} simulated, {} simulated cycles; total wall-clock {:.1} minutes._",
        figs.submitted,
        stats.jobs,
        stats.total_cycles,
        t0.elapsed().as_secs_f64() / 60.0
    )
    .unwrap();

    std::fs::write("EXPERIMENTS.md", &md).expect("write EXPERIMENTS.md");
    let record = RunnerRecord {
        nuba_jobs: num_jobs(),
        wall_seconds: t0.elapsed().as_secs_f64(),
        stats,
    };
    if let Err(e) = nuba_bench::runner::write_runner_json("BENCH_runner.json", record) {
        eprintln!("warning: could not write BENCH_runner.json: {e}");
    }
    eprintln!(
        "done in {:.1} min ({} jobs on {} workers, {:.1} cpu-s of simulation) — \
         wrote EXPERIMENTS.md + BENCH_runner.json",
        t0.elapsed().as_secs_f64() / 60.0,
        stats.jobs,
        num_jobs(),
        stats.cpu_seconds
    );
    println!("{md}");

    std::process::exit(nuba_bench::runner::finish());
}
