//! The paper's evaluation as data: one [`Figure`] row per section of
//! `EXPERIMENTS.md`, in its order (Figs 3, 7, 8, 9, 13, 10, 11, 12, 14,
//! 16 and §7.6).
//!
//! A row lists every job it needs and renders its section from their
//! results. [`render`] runs the union of the requested rows' jobs in
//! one [`run_matrix`] call, simulating each distinct job once, and
//! hands every row its own results in its own submission order.
//! `all_experiments` renders every row; each figure binary (`fig03` …
//! `fig16`, `alt_policies`) prints the row its name selects
//! ([`print_row`]).

use std::fmt::Write as _;

use nuba_core::SimReport;
use nuba_types::{
    harmonic_mean_speedup, ArchKind, GpuConfig, MappingKind, PagePolicyKind, ReplicationKind,
};
use nuba_workloads::{sharing_buckets, BenchmarkId, ScaleProfile, Workload};

use crate::runner::{run_matrix, Job, JobResult, MatrixStats};
use crate::{class_means, main_configs, pct, sweep_benchmarks, Harness};

/// One section of `EXPERIMENTS.md`: the jobs it needs and how it reads.
pub struct Figure {
    /// The binary that prints this row alone.
    pub id: &'static str,
    /// The section heading, after `## `.
    pub title: &'static str,
    /// Every job the row reads, in the order `render` reads them.
    jobs: fn(&Harness) -> Vec<Job>,
    /// Write the section body from the row's results (only called when
    /// none failed).
    render: fn(&Harness, &[JobResult], &mut String) -> std::fmt::Result,
}

/// Every figure row, in `EXPERIMENTS.md` order.
pub const FIGURES: [Figure; 11] = [
    Figure {
        id: "fig03",
        title: "Figure 3 — page sharing degree",
        jobs: |_| Vec::new(),
        render: fig03,
    },
    Figure {
        id: "fig07",
        title: "Figure 7 — NUBA speedup over memory-side UBA (iso 1.4 TB/s NoC)",
        jobs: fig07_jobs,
        render: fig07,
    },
    Figure {
        id: "fig08",
        title: "Figure 8 — perceived bandwidth (replies/cycle)",
        jobs: fig08_jobs,
        render: fig08,
    },
    Figure {
        id: "fig09",
        title: "Figure 9 — L1 miss breakdown (local fraction)",
        jobs: fig09_jobs,
        render: fig09,
    },
    Figure {
        id: "fig13",
        title: "Figure 13 — energy: NoC vs rest of GPU",
        jobs: fig13_jobs,
        render: fig13,
    },
    Figure {
        id: "fig10",
        title: "Figure 10 — performance vs NoC power across NoC bandwidths",
        jobs: fig10_jobs,
        render: fig10,
    },
    Figure {
        id: "fig11",
        title: "Figure 11 — page allocation (FT / RR / LAB on NUBA-No-Rep)",
        jobs: fig11_jobs,
        render: fig11,
    },
    Figure {
        id: "fig12",
        title: "Figure 12 — replication (No-Rep / Full-Rep / MDR under LAB)",
        jobs: fig12_jobs,
        render: fig12,
    },
    Figure {
        id: "fig14",
        title: "Figure 14 — sensitivity analyses",
        jobs: fig14_jobs,
        render: fig14,
    },
    Figure {
        id: "fig16",
        title: "Figure 16 — MCM-GPUs",
        jobs: fig16_jobs,
        render: fig16,
    },
    Figure {
        id: "alt_policies",
        title: "§7.6 — migration / page replication vs LAB+MDR",
        jobs: alt_policies_jobs,
        render: alt_policies,
    },
];

/// What [`render`] produced.
pub struct Rendered {
    /// The rows' sections, concatenated in the order asked.
    pub md: String,
    /// Jobs the rows listed, repeats included.
    pub submitted: usize,
    /// Statistics of the jobs simulated (each distinct job once).
    pub stats: MatrixStats,
}

/// Simulate the union of `rows`' jobs, each distinct job once, and
/// render every row's section in the order given.
pub fn render(h: &Harness, rows: &[&Figure]) -> Rendered {
    let per_row: Vec<Vec<Job>> = rows.iter().map(|f| (f.jobs)(h)).collect();
    let (distinct, index) = merge(h, &per_row);
    let submitted = index.iter().map(Vec::len).sum();
    eprintln!(
        "running {} distinct jobs for {submitted} submitted",
        distinct.len()
    );
    let results = run_matrix(h, &distinct);
    let mut md = String::new();
    for ((fig, jobs), idx) in rows.iter().zip(&per_row).zip(&index) {
        render_row(h, fig, &scatter(&results, jobs, idx), &mut md);
    }
    Rendered {
        md,
        submitted,
        stats: MatrixStats::of(&results),
    }
}

/// A figure binary's whole `main`: print the section of the row named
/// `id` and return the exit code [`crate::runner::finish`] gives.
///
/// # Panics
/// If no row is named `id`.
pub fn print_row(id: &str) -> i32 {
    let fig = FIGURES
        .iter()
        .find(|f| f.id == id)
        .unwrap_or_else(|| panic!("no figure row is named {id}"));
    print!("{}", render(&Harness::from_env(), &[fig]).md);
    crate::runner::finish()
}

/// Whether `a` and `b` simulate the same thing: every field but `label`
/// is equal once `scale` and `seed` resolve against `h`, as the runner
/// resolves them.
fn same_simulation(h: &Harness, a: &Job, b: &Job) -> bool {
    let Job {
        label: _,
        bench,
        cfg,
        scale,
        seed,
        faults,
        deadline,
        inject_panic,
    } = a;
    *bench == b.bench
        && *cfg == b.cfg
        && scale.unwrap_or(h.scale) == b.scale.unwrap_or(h.scale)
        && seed.unwrap_or(h.seed) == b.seed.unwrap_or(h.seed)
        && *faults == b.faults
        && *deadline == b.deadline
        && *inject_panic == b.inject_panic
}

/// The distinct jobs among `rows` (first submitter's copy, first-seen
/// order) and, per row, the distinct index each of its jobs maps to.
fn merge(h: &Harness, rows: &[Vec<Job>]) -> (Vec<Job>, Vec<Vec<usize>>) {
    let mut distinct: Vec<Job> = Vec::new();
    let mut index = Vec::with_capacity(rows.len());
    for jobs in rows {
        let mut idx = Vec::with_capacity(jobs.len());
        for job in jobs {
            let k = match distinct.iter().position(|d| same_simulation(h, d, job)) {
                Some(k) => k,
                None => {
                    distinct.push(job.clone());
                    distinct.len() - 1
                }
            };
            idx.push(k);
        }
        index.push(idx);
    }
    (distinct, index)
}

/// One row's results, in its submission order and under its own labels.
fn scatter(results: &[JobResult], jobs: &[Job], idx: &[usize]) -> Vec<JobResult> {
    jobs.iter()
        .zip(idx)
        .map(|(job, &k)| JobResult {
            label: job.label.clone(),
            ..results[k].clone()
        })
        .collect()
}

/// Write `fig`'s heading, then its body; if any of its jobs failed or
/// retired no work in its window, one line naming them instead, since a
/// zero throughput would poison the row's means.
fn render_row(h: &Harness, fig: &Figure, rs: &[JobResult], w: &mut String) {
    writeln!(w, "## {}\n", fig.title).unwrap();
    let labels = |unusable: fn(&JobResult) -> bool| -> Vec<&str> {
        rs.iter()
            .filter(|&r| unusable(r))
            .map(|r| r.label.as_str())
            .collect()
    };
    let failed = labels(JobResult::failed);
    let idle = labels(|r| r.report.perf() == 0.0);
    let (unusable, why) = if !failed.is_empty() {
        (failed, "failed")
    } else if !idle.is_empty() {
        (idle, "retired no work in the window")
    } else {
        return (fig.render)(h, rs, w).unwrap();
    };
    writeln!(
        w,
        "_Not rendered: {} of {} jobs {why} ({})._\n",
        unusable.len(),
        rs.len(),
        unusable.join(", ")
    )
    .unwrap();
}

/// `cfgs` on each of `benches`, benchmark-major, labelled by benchmark.
fn per_bench(benches: &[BenchmarkId], cfgs: &[GpuConfig]) -> Vec<Job> {
    benches
        .iter()
        .flat_map(|&b| {
            cfgs.iter()
                .map(move |cfg| Job::new(b.to_string(), b, cfg.clone()))
        })
        .collect()
}

/// The reports of [`per_bench`]'s jobs, `N` configurations per
/// benchmark.
fn by_bench<'a, const N: usize>(
    benches: &'a [BenchmarkId],
    rs: &'a [JobResult],
) -> impl Iterator<Item = (BenchmarkId, [&'a SimReport; N])> + 'a {
    let reports = rs
        .chunks_exact(N)
        .map(|c| std::array::from_fn(|i| &c[i].report));
    benches.iter().copied().zip(reports)
}

fn fig03(h: &Harness, _: &[JobResult], w: &mut String) -> std::fmt::Result {
    writeln!(
        w,
        "Paper: low-sharing apps have >80% single-SM pages; AN/SN/GRU have >70% \
         of pages shared by 26–64 SMs; SC shares ~30% of pages among 2–10 SMs.\n"
    )?;
    writeln!(w, "| bench | 1 SM | 2–10 | 11–25 | 26–64 | class |")?;
    writeln!(w, "|---|---|---|---|---|---|")?;
    let mut class_ok = 0;
    for &b in BenchmarkId::ALL {
        let wl = Workload::build(b, h.scale, 64, h.seed);
        let p = sharing_buckets(wl.layout(), 64);
        if p.classify() == b.spec().sharing {
            class_ok += 1;
        }
        let [one, few, many, most] = p.buckets.map(|f| f * 100.0);
        let class = b.spec().sharing;
        writeln!(
            w,
            "| {b} | {one:.0}% | {few:.0}% | {many:.0}% | {most:.0}% | {class} |"
        )?;
    }
    writeln!(
        w,
        "\nMeasured: {class_ok}/29 benchmarks match their Table 2 class.\n"
    )
}

fn fig07_jobs(_: &Harness) -> Vec<Job> {
    let [(_, uba), (_, sm), (_, nr), (_, nuba)] = main_configs();
    per_bench(BenchmarkId::ALL, &[uba, sm, nr, nuba])
}

fn fig07(_: &Harness, rs: &[JobResult], w: &mut String) -> std::fmt::Result {
    writeln!(w, "| bench | UBA-sm | NUBA-No-Rep | NUBA | class |")?;
    writeln!(w, "|---|---|---|---|---|")?;
    let mut nuba_rows = Vec::new();
    let mut nr_rows = Vec::new();
    let mut sm_rows = Vec::new();
    for (b, [uba, sm, nr, nuba]) in by_bench(BenchmarkId::ALL, rs) {
        let [s_sm, s_nr, s_nuba] = [sm, nr, nuba].map(|r| r.speedup_over(uba));
        let [p_sm, p_nr, p_nuba] = [s_sm, s_nr, s_nuba].map(pct);
        let class = b.spec().sharing;
        writeln!(w, "| {b} | {p_sm} | {p_nr} | {p_nuba} | {class} |")?;
        sm_rows.push((b, s_sm));
        nr_rows.push((b, s_nr));
        nuba_rows.push((b, s_nuba));
    }
    let cm = class_means(&nuba_rows);
    let cn = class_means(&nr_rows);
    let cs = class_means(&sm_rows);
    let max = nuba_rows.iter().map(|&(_, s)| s).fold(f64::MIN, f64::max);
    writeln!(w, "\n| series | paper | measured |")?;
    writeln!(w, "|---|---|---|")?;
    writeln!(w, "| NUBA, low-sharing | +30.4% | {} |", pct(cm.low))?;
    writeln!(w, "| NUBA, high-sharing | +15.1% | {} |", pct(cm.high))?;
    writeln!(w, "| NUBA, overall | +23.1% | {} |", pct(cm.all))?;
    writeln!(w, "| NUBA, max | +183.9% | {} |", pct(max))?;
    writeln!(
        w,
        "| NUBA-No-Rep, overall | (between UBA and NUBA) | {} |",
        pct(cn.all)
    )?;
    writeln!(w, "| SM-side UBA, overall | +1.0% | {} |\n", pct(cs.all))
}

fn fig08_jobs(_: &Harness) -> Vec<Job> {
    let [(_, uba), _, (_, nr), (_, nuba)] = main_configs();
    per_bench(BenchmarkId::ALL, &[uba, nr, nuba])
}

fn fig08(_: &Harness, rs: &[JobResult], w: &mut String) -> std::fmt::Result {
    let mut gains = Vec::new();
    let mut gains_low = Vec::new();
    let mut gains_high = Vec::new();
    writeln!(w, "| bench | UBA | NUBA-No-Rep | NUBA | gain |")?;
    writeln!(w, "|---|---|---|---|---|")?;
    for (b, [uba, nr, nuba]) in by_bench(BenchmarkId::ALL, rs) {
        let [r_uba, r_nr, r_nuba] = [uba, nr, nuba].map(SimReport::replies_per_cycle);
        let g = r_nuba / r_uba.max(1e-9);
        let gain = pct(g);
        writeln!(w, "| {b} | {r_uba:.2} | {r_nr:.2} | {r_nuba:.2} | {gain} |")?;
        gains.push(g);
        if b.spec().sharing.is_high() {
            gains_high.push(g);
        } else {
            gains_low.push(g);
        }
    }
    writeln!(w, "\n| series | paper | measured |")?;
    writeln!(w, "|---|---|---|")?;
    for (series, paper, g) in [
        ("low-sharing", "+51.7%", gains_low),
        ("high-sharing", "+24.7%", gains_high),
        ("overall", "+38.9%", gains),
    ] {
        writeln!(
            w,
            "| {series} | {paper} | {} |",
            pct(harmonic_mean_speedup(&g))
        )?;
    }
    writeln!(w)
}

fn fig09_jobs(_: &Harness) -> Vec<Job> {
    let [_, _, (_, nr), (_, nuba)] = main_configs();
    per_bench(BenchmarkId::ALL, &[nr, nuba])
}

fn fig09(_: &Harness, rs: &[JobResult], w: &mut String) -> std::fmt::Result {
    writeln!(w, "| bench | UBA | NUBA-No-Rep | NUBA | replica fills |")?;
    writeln!(w, "|---|---|---|---|---|")?;
    let mut local_w = 0.0;
    let mut miss_w = 0u64;
    for (b, [nr, nuba]) in by_bench(BenchmarkId::ALL, rs) {
        let [l_nr, l_nuba] = [nr, nuba].map(SimReport::local_miss_fraction);
        let fills = nuba.replica_fills;
        writeln!(w, "| {b} | 0.00 | {l_nr:.2} | {l_nuba:.2} | {fills} |")?;
        let misses = nuba.local_misses + nuba.remote_misses;
        local_w += nuba.local_miss_fraction() * misses as f64;
        miss_w += misses;
    }
    writeln!(
        w,
        "\nPaper: 63.9% of all L1 misses become local. Measured: {:.1}%.\n",
        100.0 * local_w / miss_w.max(1) as f64
    )
}

fn fig13_jobs(_: &Harness) -> Vec<Job> {
    let [(_, uba), (_, sm), _, (_, nuba)] = main_configs();
    per_bench(BenchmarkId::ALL, &[uba, sm, nuba])
}

fn fig13(_: &Harness, rs: &[JobResult], w: &mut String) -> std::fmt::Result {
    // Energy per unit of work so runs of equal length compare fairly,
    // summed over the suite for UBA, SM-side UBA and NUBA.
    let mut noc = [0.0; 3];
    let mut tot = [0.0; 3];
    for (_, reports) in by_bench::<3>(BenchmarkId::ALL, rs) {
        for (k, r) in reports.iter().enumerate() {
            noc[k] += r.energy.noc_j / r.warp_ops.max(1) as f64;
            tot[k] += r.energy.total_j() / r.warp_ops.max(1) as f64;
        }
    }
    writeln!(w, "| metric | paper | measured |")?;
    writeln!(w, "|---|---|---|")?;
    for (metric, paper, e, k) in [
        ("NUBA NoC-energy", "54.5%", noc, 2),
        ("NUBA total-energy", "16.0%", tot, 2),
        ("SM-side NoC-energy", "25.9%", noc, 1),
        ("SM-side total-energy", "2.9%", tot, 1),
    ] {
        let reduction = 100.0 * (1.0 - e[k] / e[0]);
        writeln!(w, "| {metric} reduction | {paper} | {reduction:.1}% |")?;
    }
    writeln!(w)
}

const FIG10_ARCHS: [ArchKind; 3] = [ArchKind::MemSideUba, ArchKind::SmSideUba, ArchKind::Nuba];
const FIG10_WIDTHS: [f64; 4] = [0.7, 1.4, 2.8, 5.6];

/// UBA-mem at 1.4 TB/s on the sweep set (the baselines), then every
/// (architecture, bandwidth) point over it.
fn fig10_jobs(_: &Harness) -> Vec<Job> {
    let sweep = sweep_benchmarks();
    let base = GpuConfig::paper_baseline(ArchKind::MemSideUba).with_noc_tbs(1.4);
    let mut jobs = per_bench(&sweep, &[base]);
    for arch in FIG10_ARCHS {
        for tbs in FIG10_WIDTHS {
            let cfg = GpuConfig::paper_baseline(arch).with_noc_tbs(tbs);
            for &b in &sweep {
                jobs.push(Job::new(format!("{b}@{tbs}"), b, cfg.clone()));
            }
        }
    }
    jobs
}

fn fig10(_: &Harness, rs: &[JobResult], w: &mut String) -> std::fmt::Result {
    let sweep = sweep_benchmarks();
    let (bases, f10_points) = rs.split_at(sweep.len());
    writeln!(w, "| arch | NoC TB/s | perf vs UBA@1.4 | NoC watts |")?;
    writeln!(w, "|---|---|---|---|")?;
    let mut pts = Vec::new();
    let settings = FIG10_ARCHS
        .iter()
        .flat_map(|&a| FIG10_WIDTHS.map(|t| (a, t)));
    for ((arch, tbs), chunk) in settings.zip(f10_points.chunks_exact(sweep.len())) {
        let speedups: Vec<f64> = chunk
            .iter()
            .zip(bases)
            .map(|(r, base)| r.report.speedup_over(&base.report))
            .collect();
        let s = harmonic_mean_speedup(&speedups);
        let p = chunk.iter().fold(0.0, |sum, r| sum + r.report.noc_watts) / sweep.len() as f64;
        writeln!(w, "| {} | {tbs} | {} | {p:.1} |", arch.label(), pct(s))?;
        pts.push((arch, tbs, s, p));
    }
    let get = |a: ArchKind, t: f64| {
        pts.iter()
            .find(|(x, y, _, _)| *x == a && (*y - t).abs() < 1e-9)
            .unwrap()
    };
    let n07 = get(ArchKind::Nuba, 0.7);
    let u56 = get(ArchKind::MemSideUba, 5.6);
    let s56 = get(ArchKind::SmSideUba, 5.6);
    let u14 = get(ArchKind::MemSideUba, 1.4);
    writeln!(w, "\n| trade-off | paper | measured |")?;
    writeln!(w, "|---|---|---|")?;
    writeln!(
        w,
        "| NUBA@0.7 vs UBA-mem@5.6 NoC power | 12.1× lower | {:.1}× lower (perf {} vs {}) |",
        u56.3 / n07.3,
        pct(n07.2),
        pct(u56.2)
    )?;
    writeln!(
        w,
        "| NUBA@0.7 vs UBA-sm@5.6 NoC power | 9.4× lower | {:.1}× lower |",
        s56.3 / n07.3
    )?;
    writeln!(
        w,
        "| NUBA@0.7 vs UBA-mem@1.4 | +12.7% at 2.3× lower power | {} at {:.1}× lower power |\n",
        pct(n07.2 / u14.2),
        u14.3 / n07.3
    )
}

fn fig11_jobs(_: &Harness) -> Vec<Job> {
    let [(_, uba), _, (_, lab), _] = main_configs();
    let [ft, rr] = [PagePolicyKind::FirstTouch, PagePolicyKind::RoundRobin].map(|p| {
        GpuConfig::paper_baseline(ArchKind::Nuba)
            .with_replication(ReplicationKind::None)
            .with_policy(p)
    });
    per_bench(BenchmarkId::ALL, &[uba, ft, rr, lab])
}

fn fig11(_: &Harness, rs: &[JobResult], w: &mut String) -> std::fmt::Result {
    let mut lab_ft = Vec::new();
    let mut lab_rr = Vec::new();
    let mut lab_uba = Vec::new();
    writeln!(w, "| bench | FT | RR | LAB (speedups vs UBA) |")?;
    writeln!(w, "|---|---|---|---|")?;
    for (b, [uba, ft, rr, lab]) in by_bench(BenchmarkId::ALL, rs) {
        let [s_ft, s_rr, s_lab] = [ft, rr, lab].map(|r| r.speedup_over(uba));
        writeln!(w, "| {b} | {s_ft:.2} | {s_rr:.2} | {s_lab:.2} |")?;
        lab_ft.push((b, lab.perf() / ft.perf()));
        lab_rr.push((b, lab.perf() / rr.perf()));
        lab_uba.push((b, s_lab));
    }
    let f = class_means(&lab_ft);
    let r = class_means(&lab_rr);
    let u = class_means(&lab_uba);
    writeln!(w, "\n| series | paper | measured |")?;
    writeln!(w, "|---|---|---|")?;
    writeln!(
        w,
        "| LAB over FT | +88.9% | {} (high-sharing: {}) |",
        pct(f.all),
        pct(f.high)
    )?;
    writeln!(w, "| LAB over RR | +14.3% | {} |", pct(r.all))?;
    writeln!(w, "| LAB over UBA | +14.8% | {} |\n", pct(u.all))
}

fn fig12_jobs(_: &Harness) -> Vec<Job> {
    let [_, _, (_, nr), (_, mdr)] = main_configs();
    let full = GpuConfig::paper_baseline(ArchKind::Nuba).with_replication(ReplicationKind::Full);
    per_bench(BenchmarkId::ALL, &[nr, full, mdr])
}

fn fig12(_: &Harness, rs: &[JobResult], w: &mut String) -> std::fmt::Result {
    let mut mdr_gain = Vec::new();
    let mut mdr_high = Vec::new();
    writeln!(
        w,
        "| bench | Full-Rep vs No-Rep | MDR vs No-Rep | epochs replicating |"
    )?;
    writeln!(w, "|---|---|---|---|")?;
    for (b, [nr, fr, mdr]) in by_bench(BenchmarkId::ALL, rs) {
        let [s_fr, s_mdr] = [fr, mdr].map(|r| r.speedup_over(nr));
        let [p_fr, p_mdr] = [s_fr, s_mdr].map(pct);
        let replicating = mdr.mdr_replication_rate * 100.0;
        writeln!(w, "| {b} | {p_fr} | {p_mdr} | {replicating:.0}% |")?;
        mdr_gain.push(s_mdr);
        if b.spec().sharing.is_high() {
            mdr_high.push(s_mdr);
        }
    }
    writeln!(w, "\n| series | paper | measured |")?;
    writeln!(w, "|---|---|---|")?;
    writeln!(
        w,
        "| MDR over No-Rep (all) | +15.1% avg, up to +183.9% | {} avg, up to {} |",
        pct(harmonic_mean_speedup(&mdr_gain)),
        pct(mdr_gain.iter().copied().fold(f64::MIN, f64::max))
    )?;
    writeln!(
        w,
        "| MDR over No-Rep (high-sharing) | +18.4% | {} |\n",
        pct(harmonic_mean_speedup(&mdr_high))
    )
}

/// One Fig 14 sensitivity point: NUBA against the equally configured
/// memory-side UBA over the sweep set.
struct Setting {
    knob: &'static str,
    setting: String,
    paper: &'static str,
    uba: GpuConfig,
    nuba: GpuConfig,
    scale: Option<ScaleProfile>,
}

/// Fig 14's 13 settings, in table order.
fn fig14_settings() -> Vec<Setting> {
    let uba0 = GpuConfig::paper_baseline(ArchKind::MemSideUba);
    let nuba0 = GpuConfig::paper_baseline(ArchKind::Nuba);
    let pair = |knob, setting: String, paper, uba, nuba| Setting {
        knob,
        setting,
        paper,
        uba,
        nuba,
        scale: None,
    };
    let mut out = Vec::new();
    for (factor, paper) in [(0.5, "+15.9%"), (1.0, "+23.1%"), (2.0, "+30.1%")] {
        let [a, n] = [&uba0, &nuba0].map(|c| c.clone().scaled(factor));
        out.push(pair("GPU size", format!("{factor}×"), paper, a, n));
    }
    for (spp, paper) in [(1usize, "+15.1%"), (2, "+23.1%"), (4, "+41.2%")] {
        let [a, n] = [&uba0, &nuba0].map(|c| c.clone().with_llc_slices(c.num_channels * spp));
        out.push(pair("LLC slices/partition", spp.to_string(), paper, a, n));
    }
    for (factor, paper) in [(0.5f64, "+12.9%"), (2.0, "+31.7%")] {
        let bytes = (6.0 * factor) as usize * 1024 * 1024;
        let [a, n] = [&uba0, &nuba0].map(|c| c.clone().with_llc_capacity(bytes));
        out.push(pair("LLC capacity", format!("{factor}×"), paper, a, n));
    }
    out.push(Setting {
        scale: Some(ScaleProfile::huge_pages()),
        ..pair(
            "page size",
            "2 MB".into(),
            "+21.6%",
            uba0.clone(),
            nuba0.clone(),
        )
    });
    let pae = uba0.clone().with_mapping(MappingKind::Pae);
    out.push(pair(
        "UBA with PAE mapping",
        "—".into(),
        "+19.7%",
        pae,
        nuba0.clone(),
    ));
    for (t, paper) in [(0.8, "+14.5%"), (0.9, "+14.8%"), (0.95, "+13.1%")] {
        let n = nuba0
            .clone()
            .with_replication(ReplicationKind::None)
            .with_policy(PagePolicyKind::Lab { threshold: t });
        out.push(pair(
            "LAB threshold (No-Rep)",
            t.to_string(),
            paper,
            uba0.clone(),
            n,
        ));
    }
    out
}

/// Each setting's (UBA, NUBA) pairs over the sweep set, setting-major.
fn fig14_jobs(_: &Harness) -> Vec<Job> {
    let sweep = sweep_benchmarks();
    let mut jobs = Vec::new();
    for s in fig14_settings() {
        for job in per_bench(&sweep, &[s.uba, s.nuba]) {
            jobs.push(match s.scale {
                Some(sc) => job.with_scale(sc),
                None => job,
            });
        }
    }
    jobs
}

fn fig14(_: &Harness, rs: &[JobResult], w: &mut String) -> std::fmt::Result {
    writeln!(w, "| knob | setting | paper | measured |")?;
    writeln!(w, "|---|---|---|---|")?;
    let sweep = sweep_benchmarks();
    for (s, chunk) in fig14_settings()
        .iter()
        .zip(rs.chunks_exact(2 * sweep.len()))
    {
        let speedups: Vec<f64> = by_bench(&sweep, chunk)
            .map(|(_, [uba, nuba])| nuba.speedup_over(uba))
            .collect();
        writeln!(
            w,
            "| {} | {} | {} | {} |",
            s.knob,
            s.setting,
            s.paper,
            pct(harmonic_mean_speedup(&speedups))
        )?;
    }
    writeln!(w)
}

fn fig16_jobs(_: &Harness) -> Vec<Job> {
    let mono_u = GpuConfig::paper_baseline(ArchKind::MemSideUba).scaled(2.0);
    let mono_n = GpuConfig::paper_baseline(ArchKind::Nuba).scaled(2.0);
    let mcm_u = GpuConfig::paper_mcm(ArchKind::McmUba);
    let mcm_n = GpuConfig::paper_mcm(ArchKind::McmNuba);
    per_bench(&sweep_benchmarks(), &[mono_u, mono_n, mcm_u, mcm_n])
}

fn fig16(_: &Harness, rs: &[JobResult], w: &mut String) -> std::fmt::Result {
    let mut rows = [Vec::new(), Vec::new()];
    for (b, [mono_u, mono_n, mcm_u, mcm_n]) in by_bench(&sweep_benchmarks(), rs) {
        rows[0].push((b, mono_n.speedup_over(mono_u)));
        rows[1].push((b, mcm_n.speedup_over(mcm_u)));
    }
    writeln!(w, "| config | paper | measured |")?;
    writeln!(w, "|---|---|---|")?;
    let configs = [
        ("monolithic 128-SM NUBA vs UBA", "+30.1%"),
        ("MCM 4×32-SM NUBA vs UBA", "+40.0%"),
    ];
    for ((config, paper), rows) in configs.iter().zip(&rows) {
        writeln!(w, "| {config} | {paper} | {} |", pct(class_means(rows).all))?;
    }
    writeln!(w)
}

fn alt_policies_jobs(_: &Harness) -> Vec<Job> {
    let [(_, uba), _, _, (_, nuba)] = main_configs();
    let mig = GpuConfig::paper_baseline(ArchKind::Nuba)
        .with_policy(PagePolicyKind::Migration)
        .with_replication(ReplicationKind::None);
    let prep = mig.clone().with_policy(PagePolicyKind::PageReplication);
    per_bench(BenchmarkId::ALL, &[uba, nuba, mig, prep])
}

fn alt_policies(_: &Harness, rs: &[JobResult], w: &mut String) -> std::fmt::Result {
    let mut rows = [Vec::new(), Vec::new(), Vec::new()];
    for (b, [uba, policies @ ..]) in by_bench::<4>(BenchmarkId::ALL, rs) {
        for (rows, r) in rows.iter_mut().zip(policies) {
            rows.push((b, r.speedup_over(uba)));
        }
    }
    writeln!(w, "| policy | low-sharing | high-sharing | overall |")?;
    writeln!(w, "|---|---|---|---|")?;
    for (policy, rows) in ["LAB+MDR", "migration", "page replication"]
        .iter()
        .zip(&rows)
    {
        let m = class_means(rows);
        let (low, high, all) = (pct(m.low), pct(m.high), pct(m.all));
        writeln!(w, "| {policy} | {low} | {high} | {all} |")?;
    }
    writeln!(
        w,
        "\nPaper: alternatives reach ~+26% on low-sharing but lose up to −80.4% \
         (migration) / −60.1% (page replication) on high-sharing workloads.\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::JobOutcome;

    fn harness() -> Harness {
        Harness {
            cycles: 400,
            scale: ScaleProfile::fast(),
            seed: 42,
        }
    }

    fn job(label: &str, bench: BenchmarkId) -> Job {
        Job::new(label, bench, GpuConfig::paper_baseline(ArchKind::Nuba))
    }

    /// A finished job whose report carries `cycles`, so a test can tell
    /// results apart.
    fn result(label: &str, cycles: u64) -> JobResult {
        JobResult {
            label: label.to_string(),
            report: SimReport {
                cycles,
                ..SimReport::empty()
            },
            wall_seconds: 0.0,
            cycles_per_sec: 0.0,
            outcome: JobOutcome::Ok,
            error: None,
            windows: Vec::new(),
            trace: Vec::new(),
            start_offset_secs: 0.0,
        }
    }

    /// Labels never keep jobs apart, and an unset scale or seed is the
    /// harness's.
    #[test]
    fn jobs_differing_only_in_label_or_in_unset_scale_or_seed_merge() {
        let h = harness();
        let base = job("a", BenchmarkId::Lbm);
        let rows = [
            vec![base.clone()],
            vec![job("b", BenchmarkId::Lbm), base.clone().with_scale(h.scale)],
            vec![base.clone().with_seed(h.seed)],
        ];
        let (distinct, index) = merge(&h, &rows);
        assert_eq!(distinct.len(), 1);
        assert_eq!(distinct[0].label, "a", "the first submitter's copy runs");
        assert_eq!(index, [vec![0], vec![0, 0], vec![0]]);
    }

    #[test]
    fn jobs_differing_in_what_they_simulate_stay_distinct() {
        let h = harness();
        let base = job("x", BenchmarkId::Lbm);
        let other_bench = job("x", BenchmarkId::Kmeans);
        let other_cfg = Job {
            cfg: base.cfg.clone().with_noc_tbs(2.8),
            ..base.clone()
        };
        let other_scale = base.clone().with_scale(ScaleProfile::huge_pages());
        let other_seed = base.clone().with_seed(h.seed + 1);
        for other in [other_bench, other_cfg, other_scale, other_seed] {
            assert_eq!(
                merge(&h, &[vec![base.clone(), other.clone()]]).0.len(),
                2,
                "{other:?}"
            );
        }
    }

    #[test]
    fn each_row_gets_its_results_in_submission_order() {
        let h = harness();
        let rows = vec![
            vec![job("lbm", BenchmarkId::Lbm), job("km", BenchmarkId::Kmeans)],
            vec![
                job("bt", BenchmarkId::BTree),
                job("lbm again", BenchmarkId::Lbm),
                job("bt again", BenchmarkId::BTree),
            ],
        ];
        let (distinct, index) = merge(&h, &rows);
        assert_eq!(distinct.len(), 3);
        // Distinct job k reports k + 1 cycles.
        let results: Vec<JobResult> = (1..=3).map(|c| result("distinct", c)).collect();
        let got: Vec<Vec<(String, u64)>> = rows
            .iter()
            .zip(&index)
            .map(|(jobs, idx)| {
                scatter(&results, jobs, idx)
                    .into_iter()
                    .map(|r| (r.label, r.report.cycles))
                    .collect()
            })
            .collect();
        let want = [
            vec![("lbm", 1), ("km", 2)],
            vec![("bt", 3), ("lbm again", 1), ("bt again", 3)],
        ]
        .map(|row| {
            row.into_iter()
                .map(|(l, c)| (l.to_string(), c))
                .collect::<Vec<_>>()
        });
        assert_eq!(got, want);
    }

    #[test]
    fn a_row_with_a_failed_job_prints_one_line_and_does_not_panic() {
        let h = harness();
        let fig = FIGURES.iter().find(|f| f.id == "fig07").unwrap();
        let jobs = (fig.jobs)(&h);
        // Every report is empty, so fig07's means would assert on a
        // zero speedup if the guard let the renderer run.
        let mut rs: Vec<JobResult> = jobs.iter().map(|j| result(&j.label, 0)).collect();
        rs[5].outcome = JobOutcome::Failed;
        let mut md = String::new();
        render_row(&h, fig, &rs, &mut md);
        assert_eq!(
            md,
            format!(
                "## {}\n\n_Not rendered: 1 of {} jobs failed ({})._\n\n",
                fig.title,
                jobs.len(),
                jobs[5].label
            )
        );
    }

    #[test]
    fn a_row_with_a_job_that_retired_no_work_prints_one_line_and_does_not_panic() {
        let h = harness();
        let fig = FIGURES.iter().find(|f| f.id == "fig07").unwrap();
        let jobs = (fig.jobs)(&h);
        // Every job finished, but one retired no work in its window:
        // fig07's means would assert on its zero speedup.
        let mut rs: Vec<JobResult> = jobs
            .iter()
            .map(|j| {
                let mut r = result(&j.label, 100);
                r.report.warp_ops = 50;
                r
            })
            .collect();
        rs[3].report = SimReport::empty();
        let mut md = String::new();
        render_row(&h, fig, &rs, &mut md);
        assert_eq!(
            md,
            format!(
                "## {}\n\n_Not rendered: 1 of {} jobs retired no work in the window ({})._\n\n",
                fig.title,
                jobs.len(),
                jobs[3].label
            )
        );
    }

    #[test]
    fn every_row_has_its_own_binary_and_every_figure_binary_a_row() {
        let mut ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), FIGURES.len(), "two rows share an id");
        let mut bins = Vec::new();
        for entry in std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin")).unwrap() {
            let path = entry.unwrap().path();
            let src = std::fs::read_to_string(&path).unwrap();
            if src.contains("print_row") {
                let call = "figures::print_row(env!(\"CARGO_BIN_NAME\"))";
                assert!(
                    src.contains(call),
                    "{path:?} must select its row by its name"
                );
                bins.push(path.file_stem().unwrap().to_string_lossy().into_owned());
            }
        }
        bins.sort_unstable();
        assert_eq!(bins, ids);
    }
}
