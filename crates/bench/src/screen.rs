//! The static screen: the static kernel profiler's predictions for a
//! benchmark, evaluated through the MDR §5.1 bandwidth equations. It is
//! advisory only — it never stands in for a simulation (DESIGN.md §17).
//!
//! The screen simulates nothing. It binds the compiler's
//! [`KernelStaticProfile`](nuba_compiler::KernelStaticProfile) to the
//! benchmark's scaled region layout (`nuba_workloads::static_profile`),
//! feeds the resulting fractions to
//! [`nuba_core::mdr_static_screen`], and predicts, per benchmark:
//! total page footprint, sharing class, write-shared race parameters,
//! the MDR replicate/don't verdict, and the coarse resource bottleneck.
//!
//! Two consumers:
//!
//! - the [`runner`](crate::runner) prints one screen line per distinct
//!   benchmark before executing a matrix when `NUBA_SCREEN=1` — inert
//!   (and byte-identical output) otherwise;
//! - `fig_correlation` runs screen-vs-simulator over all 29 benchmarks
//!   and reports footprint error, sharing-class agreement, and
//!   bottleneck agreement, Accel-Sim style.

use nuba_core::mdr::paper_slice_bandwidths;
use nuba_core::{mdr_static_screen, MdrProfile, ScreenVerdict};
use nuba_types::GpuConfig;
use nuba_workloads::{static_workload_profile, BenchmarkId, ScaleProfile, StaticWorkloadProfile};

use crate::runner::Job;
use crate::{Harness, HarnessOptions};

/// Everything the static screen predicts for one benchmark.
#[derive(Debug, Clone)]
pub struct ScreenPrediction {
    /// The benchmark.
    pub bench: BenchmarkId,
    /// The bound static profile (regions, races, kernel modes).
    pub profile: StaticWorkloadProfile,
    /// The §5.1 verdict on the static fractions.
    pub verdict: ScreenVerdict,
    /// Predicted memory-system utilization: demanded bytes per slice
    /// cycle over the winning §5.1 supply estimate. Below 1.0 the
    /// machine keeps up and the kernel is predicted compute-bound.
    pub utilization: f64,
}

impl ScreenPrediction {
    /// The predicted dominant bottleneck: `compute` when the demand
    /// model says the memory system keeps up, else the §5.1 verdict's
    /// resource (`LLC` / `DRAM` / `NoC`).
    pub fn predicted_bottleneck(&self) -> &'static str {
        if self.utilization < 1.0 {
            "compute"
        } else {
            self.verdict.bottleneck.label()
        }
    }

    /// One deterministic, alignment-stable report line.
    pub fn line(&self) -> String {
        let races: Vec<&str> = self
            .profile
            .racy_params
            .iter()
            .map(|s| s.as_str())
            .collect();
        format!(
            "screen: {:<8} pages={:<6} class={:<4} replicate={:<3} bottleneck={:<7} races=[{}]",
            self.bench.to_string(),
            self.profile.total_pages(),
            self.profile.sharing_class().to_string(),
            if self.verdict.replicate { "yes" } else { "no" },
            self.predicted_bottleneck(),
            races.join(",")
        )
    }

    /// Whether the screen's bottleneck agrees with the simulator's
    /// dominant [`BottleneckBreakdown`](nuba_core::BottleneckBreakdown)
    /// category. The mapping is many-to-one because the screen's model
    /// is coarser than issue-slot accounting: a memory-bound prediction
    /// of any flavour agrees with `L1-bound` (MSHR exhaustion *is*
    /// memory-system backpressure, observed one level up), and the NUBA
    /// local links sit on both the NoC-replacement and DRAM paths.
    pub fn bottleneck_agrees(&self, dominant: &str) -> bool {
        use nuba_core::ScreenBottleneck;
        if self.utilization < 1.0 {
            return dominant == "compute";
        }
        if dominant == "L1-bound" {
            return true;
        }
        match self.verdict.bottleneck {
            ScreenBottleneck::Noc => matches!(dominant, "NoC-bound" | "local-link-bound"),
            ScreenBottleneck::Dram => matches!(dominant, "DRAM-bound" | "local-link-bound"),
            ScreenBottleneck::Llc => dominant == "LLC-queue-bound",
        }
    }
}

/// Screen one benchmark under `cfg`'s machine shape and `scale`.
pub fn screen_benchmark(
    bench: BenchmarkId,
    scale: &ScaleProfile,
    cfg: &GpuConfig,
) -> ScreenPrediction {
    let profile = static_workload_profile(bench, scale, cfg.num_sms);
    let m = profile.mdr_inputs();
    let verdict = mdr_static_screen(
        paper_slice_bandwidths(cfg.noc_port_bytes_per_cycle()),
        MdrProfile {
            frac_local: m.frac_local,
            hit_no_rep: m.hit_no_rep,
            hit_full_rep: m.hit_full_rep,
        },
    );
    // Demand model: a warp cycles through one memory op, a
    // `compute_gap` compute block, and — for load misses — a
    // round-trip latency it blocks on (stores are fire-and-forget, so
    // they add traffic without occupancy). `warps_per_sm` such warps
    // overlap against the SM's single issue port; the surviving
    // line-sized misses plus store traffic spread over the LLC slices.
    // Supply is the winning §5.1 estimate.
    const LOAD_LATENCY: f64 = 400.0;
    let spec = bench.spec();
    let miss_rate = (1.0 - spec.l1_reuse).clamp(0.0, 1.0);
    let wf = spec.write_fraction.clamp(0.0, 1.0);
    let cycles_per_op = 1.0 + spec.compute_gap as f64 + LOAD_LATENCY * miss_rate * (1.0 - wf);
    let sm_op_rate = (cfg.warps_per_sm as f64 / cycles_per_op).min(1.0);
    let bytes_per_op = nuba_types::LINE_BYTES as f64 * ((1.0 - wf) * miss_rate + wf);
    let slices = cfg.num_llc_slices.max(1) as f64;
    let demand_per_slice = sm_op_rate * bytes_per_op * cfg.num_sms as f64 / slices;
    let supply = verdict.estimate.bw_no_rep.max(verdict.estimate.bw_full_rep);
    let utilization = demand_per_slice / supply.max(1e-9);

    ScreenPrediction {
        bench,
        profile,
        verdict,
        utilization,
    }
}

/// Screen a job matrix: one prediction per *distinct* benchmark, in
/// first-submission order, each under the first job's configuration and
/// scale (matrices vary the architecture, not the machine shape).
pub fn screen_matrix(h: &Harness, jobs: &[Job]) -> Vec<ScreenPrediction> {
    let mut seen = Vec::new();
    let mut out = Vec::new();
    for job in jobs {
        if seen.contains(&job.bench) {
            continue;
        }
        seen.push(job.bench);
        let scale = job.scale.unwrap_or(h.scale);
        out.push(screen_benchmark(job.bench, &scale, &job.cfg));
    }
    out
}

/// The runner's advisory stage: print the screen for a matrix when
/// `NUBA_SCREEN=1`. A no-op — not a byte of output — otherwise.
pub fn print_screen_if_enabled(h: &Harness, jobs: &[Job]) {
    if !HarnessOptions::get().screen {
        return;
    }
    for p in screen_matrix(h, jobs) {
        println!("{}", p.line());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuba_types::ArchKind;

    fn nuba_cfg() -> GpuConfig {
        GpuConfig::paper_baseline(ArchKind::Nuba)
    }

    #[test]
    fn screen_is_deterministic() {
        let a = screen_benchmark(BenchmarkId::Sgemm, &ScaleProfile::fast(), &nuba_cfg());
        let b = screen_benchmark(BenchmarkId::Sgemm, &ScaleProfile::fast(), &nuba_cfg());
        assert_eq!(a.line(), b.line());
        assert_eq!(a.verdict, b.verdict);
    }

    #[test]
    fn screen_matrix_dedupes_benchmarks() {
        let h = Harness {
            cycles: 100,
            scale: ScaleProfile::fast(),
            seed: 42,
        };
        let jobs = vec![
            Job::new("a", BenchmarkId::Sgemm, nuba_cfg()),
            Job::new("b", BenchmarkId::Sgemm, nuba_cfg()),
            Job::new("c", BenchmarkId::Lbm, nuba_cfg()),
        ];
        let preds = screen_matrix(&h, &jobs);
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0].bench, BenchmarkId::Sgemm);
        assert_eq!(preds[1].bench, BenchmarkId::Lbm);
    }

    #[test]
    fn screen_classes_match_table2() {
        // The screen's sharing-class prediction reproduces the layout
        // arithmetic exactly, so it must agree with the spec for every
        // benchmark — the fig_correlation ≥80% gate with headroom.
        for &b in BenchmarkId::ALL {
            let p = screen_benchmark(b, &ScaleProfile::default(), &nuba_cfg());
            assert_eq!(p.profile.sharing_class(), b.spec().sharing, "{b}");
        }
    }

    #[test]
    fn bottleneck_mapping_is_total() {
        let p = screen_benchmark(BenchmarkId::Sgemm, &ScaleProfile::fast(), &nuba_cfg());
        // Every dominant label maps to agree-or-disagree, never a panic.
        for label in [
            "compute",
            "L1-bound",
            "local-link-bound",
            "NoC-bound",
            "LLC-queue-bound",
            "DRAM-bound",
        ] {
            let _ = p.bottleneck_agrees(label);
        }
    }
}
