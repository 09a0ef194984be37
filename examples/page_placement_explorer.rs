//! Page-placement explorer: watch the GPU driver's allocation policies
//! (first-touch, round-robin, LAB) place pages and balance channels on a
//! low-sharing and a high-sharing workload.
//!
//! ```sh
//! cargo run --release --example page_placement_explorer
//! ```

use nuba::{
    ArchKind, BenchmarkId, GpuConfig, PagePolicyKind, ReplicationKind, ScaleProfile, SimSession,
    Workload,
};

fn channel_histogram(counts: &[u64]) -> String {
    let max = *counts.iter().max().unwrap_or(&1) as f64;
    counts
        .iter()
        .map(|&c| {
            let level = (c as f64 / max.max(1.0) * 8.0).round() as usize;
            char::from_digit(level.min(8) as u32, 10).unwrap_or('0')
        })
        .collect()
}

fn main() {
    let cycles = 25_000;
    for bench in [BenchmarkId::Lbm, BenchmarkId::SqueezeNet] {
        println!(
            "=== {} ({} sharing) ===",
            bench.spec().name,
            bench.spec().sharing
        );
        println!(
            "{:<12} {:>8} {:>8} {:>6} {:>8}  per-channel page load (0..8)",
            "policy", "perf", "local%", "NPB", "spray"
        );
        let mut ft_perf = None;
        for policy in [
            PagePolicyKind::FirstTouch,
            PagePolicyKind::RoundRobin,
            PagePolicyKind::lab_default(),
        ] {
            let mut cfg = GpuConfig::paper_baseline(ArchKind::Nuba);
            cfg.page_policy = policy;
            cfg.replication = ReplicationKind::None;
            let wl = Workload::build(bench, ScaleProfile::default(), cfg.num_sms, 42);
            let mut session = SimSession::builder(cfg, wl).build().expect("valid config");
            session.warm();
            let report = session.run_window(cycles).expect("forward progress");
            let driver = session.gpu().driver();
            let rel = ft_perf.get_or_insert(report.perf());
            println!(
                "{:<12} {:>8.2} {:>7.1}% {:>6.2} {:>8}  {}",
                policy.label(),
                report.perf() / *rel,
                report.local_miss_fraction() * 100.0,
                report.final_npb,
                driver.stats().least_first_decisions,
                channel_histogram(driver.pages_per_channel()),
            );
        }
        println!();
    }
    println!("LAB (paper Eq. 1, threshold 0.9) keeps low-sharing pages local like");
    println!("first-touch, but spills to the least-loaded channel when the");
    println!("Normalized Page Balance degrades — avoiding first-touch's");
    println!("hot-channel collapse on the high-sharing workload.");
}
