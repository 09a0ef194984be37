//! Quickstart: simulate one benchmark on the three GPU architectures of
//! the paper and compare their throughput.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use nuba::{ArchKind, BenchmarkId, GpuConfig, ScaleProfile, SimSession, Workload};

fn main() {
    // The paper's Table 1 machine: 64 SMs, 64 LLC slices, 32 HBM
    // channels, a 1.4 TB/s crossbar NoC.
    let cycles = 60_000;
    let bench = BenchmarkId::Sgemm;

    println!(
        "benchmark: {} ({}, {} sharing)",
        bench.spec().name,
        bench,
        bench.spec().sharing
    );
    println!("timed window: {cycles} cycles after functional warm-up\n");

    let mut baseline_perf = None;
    for arch in [ArchKind::MemSideUba, ArchKind::SmSideUba, ArchKind::Nuba] {
        let cfg = GpuConfig::paper_baseline(arch);
        let workload = Workload::build(bench, ScaleProfile::default(), cfg.num_sms, 42);
        let mut session = SimSession::builder(cfg, workload)
            .build()
            .expect("valid config");
        session.warm();
        let report = session.run_window(cycles).expect("forward progress");

        let speedup = match baseline_perf {
            None => {
                baseline_perf = Some(report.perf());
                1.0
            }
            Some(base) => report.perf() / base,
        };
        println!(
            "{:<12} perf={:>7.2} warp-ops/cycle   replies/cycle={:>5.2}   \
             L1 hit={:>4.1}%   LLC hit={:>4.1}%   local misses={:>4.1}%   speedup={:.2}x",
            arch.label(),
            report.perf(),
            report.replies_per_cycle(),
            report.l1_hit_rate() * 100.0,
            report.llc_hit_rate() * 100.0,
            report.local_miss_fraction() * 100.0,
            speedup,
        );
    }

    println!("\nNUBA services most L1 misses inside the SM's own partition over");
    println!("2.8 TB/s point-to-point links instead of the shared 1.4 TB/s crossbar;");
    println!("MDR additionally replicates hot read-only shared lines locally.");
}
