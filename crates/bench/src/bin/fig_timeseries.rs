//! Time-series figure: per-window replies/cycle and bottleneck mix for
//! the three single-module architectures, with a mid-run bandwidth
//! fault so the windows show the machine entering and leaving the
//! degraded regime.
//!
//! This is the windowed-telemetry showcase: each job runs with the
//! sampler enabled (`TelemetryConfig`), and the figure is drawn from
//! the [`JobResult::windows`](nuba_bench::runner::JobResult) the
//! runner brings back. `NUBA_OBS=<dir>` exports the same windows as
//! `timeseries.jsonl` and the sampled request lifecycles as the Chrome
//! trace `trace.json` (see [`nuba_bench::obs`]).

use nuba_bench::runner::{self, run_matrix, Job};
use nuba_bench::{chart, figure_header, obs, Harness};
use nuba_engine::{Fault, FaultPlan, LinkSite};
use nuba_types::{ArchKind, GpuConfig, TelemetryConfig};
use nuba_workloads::BenchmarkId;

/// Bandwidth retained inside the fault window.
const FAULT_FACTOR: f64 = 0.25;

fn archs() -> [(&'static str, GpuConfig); 3] {
    [
        ("UBA-mem", GpuConfig::paper_baseline(ArchKind::MemSideUba)),
        ("UBA-sm", GpuConfig::paper_baseline(ArchKind::SmSideUba)),
        ("NUBA", GpuConfig::paper_baseline(ArchKind::Nuba)),
    ]
}

/// Derate every SM-side link and crossbar port between `start` and
/// `end` — the bounded-outage variant of
/// [`FaultPlan::uniform_link_derate`]. Sites absent on an architecture
/// are ignored at apply time, so one shape is fair across all three.
fn mid_run_derate(cfg: &GpuConfig, start: u64, end: u64) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for sm in 0..cfg.num_sms {
        plan = plan
            .with(
                Fault::LinkDerate {
                    site: LinkSite::LocalReq(sm),
                    factor: FAULT_FACTOR,
                },
                start,
                Some(end),
            )
            .with(
                Fault::LinkDerate {
                    site: LinkSite::LocalReply(sm),
                    factor: FAULT_FACTOR,
                },
                start,
                Some(end),
            );
    }
    for p in 0..cfg.num_llc_slices {
        plan = plan
            .with(
                Fault::LinkDerate {
                    site: LinkSite::NocReqPort(p),
                    factor: FAULT_FACTOR,
                },
                start,
                Some(end),
            )
            .with(
                Fault::LinkDerate {
                    site: LinkSite::NocReplyPort(p),
                    factor: FAULT_FACTOR,
                },
                start,
                Some(end),
            );
    }
    plan
}

fn main() {
    figure_header(
        "Timeseries",
        "windowed replies/cycle and bottleneck mix under a mid-run link fault",
    );
    let h = Harness::from_env();
    let bench = BenchmarkId::Kmeans;

    // ~40 windows per run, all retained; derived from the cycle budget
    // so the figure scales with NUBA_CYCLES / NUBA_FAST deterministically.
    let window = (h.cycles / 40).max(100);
    let ring = (h.cycles / window) as usize + 2;
    let fault_start = h.cycles / 3;
    let fault_end = 2 * h.cycles / 3;

    let jobs: Vec<Job> = archs()
        .iter()
        .map(|(name, cfg)| {
            let cfg = cfg.clone().with_telemetry(TelemetryConfig {
                window_cycles: Some(window),
                ring_windows: ring,
                trace_sample_period: 64,
                trace_capacity: 4096,
                window_latency: true,
            });
            let plan = mid_run_derate(&cfg, fault_start, fault_end);
            Job::new(name.to_string(), bench, cfg).with_faults(plan)
        })
        .collect();
    let results = run_matrix(&h, &jobs);
    obs::write(&results);

    println!(
        "{bench} on each architecture; links derated to x{FAULT_FACTOR} \
         in cycles {fault_start}..{fault_end}.\n"
    );
    for ((_, cfg), r) in archs().iter().zip(&results) {
        if let Some(err) = &r.error {
            println!("{:<8} quarantined: {err}", r.label);
            continue;
        }
        println!(
            "{} — replies/cycle per {window}-cycle window (dominant bottleneck at right):",
            r.label
        );
        let peak = r
            .windows
            .iter()
            .map(|w| w.replies_per_cycle())
            .fold(0.0_f64, f64::max)
            .max(1e-9);
        for w in &r.windows {
            let mix = w.bottleneck_mix(cfg);
            let (dom, share) = mix.dominant();
            let marker = if w.start_cycle < fault_end && w.end_cycle > fault_start {
                "!"
            } else {
                " "
            };
            println!(
                "  {marker}{:>7}..{:<7} {:>7.3} {} {dom} {:.0}%",
                w.start_cycle,
                w.end_cycle,
                w.replies_per_cycle(),
                chart::bar(w.replies_per_cycle(), peak, 30),
                share * 100.0
            );
        }
        println!(
            "  {} request lifecycles traced to completion\n",
            r.trace.len()
        );
    }
    println!("Windows overlapping the fault are marked `!`. Export the same data");
    println!("with NUBA_OBS=<dir> (timeseries.jsonl and trace.json).");

    std::process::exit(runner::finish());
}
