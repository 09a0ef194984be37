#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # nuba-bench
//!
//! The experiment harness for the paper's evaluation (see DESIGN.md §4
//! for the index), plus Criterion micro-benchmarks of the simulator's
//! components.
//!
//! The figures come from one table, [`figures::FIGURES`]: each row lists
//! the jobs it needs and renders its section of `EXPERIMENTS.md`.
//! `all_experiments` renders every row, and each figure binary prints
//! the row its name selects. Absolute numbers come from a scaled
//! simulator (DESIGN.md §1), so the *shape* — who wins, by roughly what
//! factor — is the reproduction target, not the paper's exact
//! percentages.
//!
//! Runtime knobs come from `NUBA_*` environment variables, all parsed
//! once into [`HarnessOptions`] (see its fields for names and
//! defaults, or the README's "Environment knobs" table). Results are
//! schedule-independent regardless of `NUBA_JOBS` — see [`runner`].

pub mod figures;
pub mod obs;
pub mod runner;
pub mod screen;
pub mod store;

use std::sync::OnceLock;

use nuba_core::{SimError, SimReport, SimSession};
use nuba_types::{harmonic_mean_speedup, ArchKind, GpuConfig, ReplicationKind};
use nuba_workloads::{BenchmarkId, ScaleProfile, SharingClass, Workload};

/// Every `NUBA_*` environment knob, parsed once at first use.
///
/// The environment is the harness's only configuration channel, and it
/// used to be read ad hoc all over the crate; this struct is the single
/// place a knob's name, type, and default live. Binaries and the
/// [`runner`] read the process-wide snapshot via [`HarnessOptions::get`]
/// — the variable names are stable API, documented in the README's
/// "Environment knobs" table.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// `NUBA_JOBS`: worker threads for experiment matrices (default:
    /// available parallelism; `1` forces serial execution).
    pub jobs: usize,
    /// `NUBA_CYCLES`: timed cycles per run (default 60 000).
    pub cycles: u64,
    /// `NUBA_FAST=1`: quarter-density workload scaling for quick looks.
    pub fast: bool,
    /// `NUBA_FULL=1`: sweep all 29 benchmarks instead of the
    /// representative subset.
    pub full: bool,
    /// `NUBA_STRICT_FAULTS=1`: quarantined jobs fail the process.
    pub strict_faults: bool,
    /// `NUBA_CHAOS=1`: run the sanctioned chaos drill in
    /// `all_experiments` (injected panic + deadlock jobs).
    pub chaos: bool,
    /// `NUBA_PAE=1`: `nuba_sim` maps UBA addresses with PAE.
    pub pae: bool,
    /// `NUBA_SIMCHECK_CYCLES`: cycles per simcheck configuration
    /// (default 8192).
    pub simcheck_cycles: u64,
    /// `NUBA_SCREEN=1`: print the advisory static screen (static
    /// kernel profiler predictions) for each matrix's benchmarks before
    /// the runner executes it. Inert — and byte-identical output — when
    /// off.
    pub screen: bool,
    /// `NUBA_STORE_DIR=<path>`: directory of on-disk first-touch
    /// traces (see [`store`]). Unset keeps them in memory only, with
    /// byte-identical results.
    pub store_dir: Option<String>,
    /// `NUBA_OBS=<dir>`: write the matrix's five observability files
    /// into this directory (see [`obs`]). Only `fig_timeseries`,
    /// `fig_latency` and `nuba_sim` write them.
    pub obs: Option<String>,
}

/// Every `NUBA_*` variable something in the workspace reads: the
/// [`HarnessOptions`] knobs and `NUBA_CORRELATION` (read by
/// `fig_correlation`). No simulator crate reads the environment. Any
/// other `NUBA_*` variable in the environment draws a warning.
const KNOWN: [&str; 12] = [
    "NUBA_CHAOS",
    "NUBA_CORRELATION",
    "NUBA_CYCLES",
    "NUBA_FAST",
    "NUBA_FULL",
    "NUBA_JOBS",
    "NUBA_OBS",
    "NUBA_PAE",
    "NUBA_SCREEN",
    "NUBA_SIMCHECK_CYCLES",
    "NUBA_STORE_DIR",
    "NUBA_STRICT_FAULTS",
];

/// The `NUBA_*` names among `vars` that [`KNOWN`] lacks, sorted.
fn unknown_knobs<'a>(vars: impl IntoIterator<Item = &'a str>) -> Vec<&'a str> {
    let mut unknown: Vec<&str> = vars
        .into_iter()
        .filter(|v| v.starts_with("NUBA_") && !KNOWN.contains(v))
        .collect();
    unknown.sort_unstable();
    unknown
}

impl HarnessOptions {
    /// Parse every knob, reading each variable through `var` (`None`
    /// when unset). An empty value counts as unset.
    ///
    /// # Errors
    /// `NAME="value" is not a number` for the first numeric knob that is
    /// set but does not parse.
    fn parse(var: impl Fn(&str) -> Option<String>) -> Result<HarnessOptions, String> {
        fn number<T: std::str::FromStr>(
            var: &dyn Fn(&str) -> Option<String>,
            name: &str,
        ) -> Result<Option<T>, String> {
            var(name)
                .map(|v| {
                    v.parse()
                        .map_err(|_| format!("{name}={v:?} is not a number"))
                })
                .transpose()
        }
        let var = |name: &str| var(name).filter(|v| !v.is_empty());
        let flag = |name: &str| var(name).is_some_and(|v| v == "1");
        Ok(HarnessOptions {
            jobs: number(&var, "NUBA_JOBS")?
                .filter(|&n: &usize| n > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(std::num::NonZeroUsize::get)
                        .unwrap_or(1)
                }),
            cycles: number(&var, "NUBA_CYCLES")?.unwrap_or(60_000),
            fast: flag("NUBA_FAST"),
            full: flag("NUBA_FULL"),
            strict_faults: flag("NUBA_STRICT_FAULTS"),
            chaos: flag("NUBA_CHAOS"),
            pae: flag("NUBA_PAE"),
            simcheck_cycles: number(&var, "NUBA_SIMCHECK_CYCLES")?.unwrap_or(8192),
            screen: flag("NUBA_SCREEN"),
            store_dir: var("NUBA_STORE_DIR"),
            obs: var("NUBA_OBS"),
        })
    }

    /// The process-wide snapshot, parsed on first call. First warns on
    /// stderr about each `NUBA_*` variable nothing reads; a malformed
    /// numeric knob exits the process with status 2, before any job
    /// runs.
    pub fn get() -> &'static HarnessOptions {
        static OPTIONS: OnceLock<HarnessOptions> = OnceLock::new();
        OPTIONS.get_or_init(|| {
            let vars: Vec<String> = std::env::vars_os()
                .filter_map(|(k, _)| k.into_string().ok())
                .collect();
            for name in unknown_knobs(vars.iter().map(String::as_str)) {
                eprintln!("warning: {name} is set but nothing reads it; ignoring it");
            }
            HarnessOptions::parse(|name| std::env::var(name).ok()).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2)
            })
        })
    }
}

/// Harness-wide run parameters.
#[derive(Debug, Clone, Copy)]
pub struct Harness {
    /// Timed cycles per run.
    pub cycles: u64,
    /// Workload scaling.
    pub scale: ScaleProfile,
    /// Seed for layouts and streams.
    pub seed: u64,
}

impl Harness {
    /// Read the environment knobs ([`HarnessOptions::get`]).
    pub fn from_env() -> Harness {
        let opts = HarnessOptions::get();
        Harness {
            cycles: opts.cycles,
            scale: if opts.fast {
                ScaleProfile::fast()
            } else {
                ScaleProfile::default()
            },
            seed: 42,
        }
    }

    /// Whether sweeps should cover the full suite (`NUBA_FULL=1`).
    pub fn full_sweeps() -> bool {
        HarnessOptions::get().full
    }

    /// Pin the harness seed and scale page size onto a configuration.
    fn prepare(&self, mut cfg: GpuConfig, scale: ScaleProfile) -> GpuConfig {
        cfg.seed = self.seed;
        if cfg.page_bytes != scale.page_bytes {
            cfg.page_bytes = scale.page_bytes;
        }
        cfg
    }

    /// Run one (benchmark, configuration) pair at `scale`: build the
    /// workload and a [`SimSession`], warm it, simulate the timed
    /// window. The runner's jobs must report exactly this.
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] on a bad configuration,
    /// [`SimError::NoForwardProgress`] if the watchdog fires.
    pub fn try_run_scaled(
        &self,
        bench: BenchmarkId,
        cfg: GpuConfig,
        scale: ScaleProfile,
    ) -> Result<SimReport, SimError> {
        let cfg = self.prepare(cfg, scale);
        let wl = Workload::build(bench, scale, cfg.num_sms, self.seed);
        let mut session = SimSession::builder(cfg, wl).build()?;
        session.warm();
        session.run_window(self.cycles)
    }
}

/// The paper's three main architectures at iso-resources.
pub fn main_configs() -> [(&'static str, GpuConfig); 4] {
    [
        ("UBA-mem", GpuConfig::paper_baseline(ArchKind::MemSideUba)),
        ("UBA-sm", GpuConfig::paper_baseline(ArchKind::SmSideUba)),
        (
            "NUBA-No-Rep",
            GpuConfig::paper_baseline(ArchKind::Nuba).with_replication(ReplicationKind::None),
        ),
        ("NUBA", GpuConfig::paper_baseline(ArchKind::Nuba)),
    ]
}

/// The `simcheck` architecture matrix: both UBA baselines and NUBA
/// with each replication / page-allocation policy the paper evaluates
/// (11 configurations), the machine space the invariant gate
/// (`simcheck`) exercises.
pub fn simcheck_configs() -> Vec<(String, GpuConfig)> {
    let mut out = vec![
        (
            "UBA-mem".to_string(),
            GpuConfig::paper_baseline(ArchKind::MemSideUba),
        ),
        (
            "UBA-sm".to_string(),
            GpuConfig::paper_baseline(ArchKind::SmSideUba),
        ),
    ];
    for (rep_name, rep) in [
        ("NoRep", ReplicationKind::None),
        ("FullRep", ReplicationKind::Full),
        ("MDR", ReplicationKind::Mdr),
    ] {
        for (pol_name, pol) in [
            ("FirstTouch", nuba_types::PagePolicyKind::FirstTouch),
            ("RoundRobin", nuba_types::PagePolicyKind::RoundRobin),
            ("LAB", nuba_types::PagePolicyKind::lab_default()),
        ] {
            let cfg = GpuConfig::paper_baseline(ArchKind::Nuba)
                .with_replication(rep)
                .with_policy(pol);
            out.push((format!("NUBA-{rep_name}-{pol_name}"), cfg));
        }
    }
    out
}

/// Representative sweep subset: 5 low-sharing + 5 high-sharing
/// benchmarks spanning the behaviour classes.
pub fn sweep_benchmarks() -> Vec<BenchmarkId> {
    if Harness::full_sweeps() {
        BenchmarkId::ALL.to_vec()
    } else {
        vec![
            BenchmarkId::Lbm,
            BenchmarkId::Kmeans,
            BenchmarkId::Conv2d,
            BenchmarkId::Mvt,
            BenchmarkId::ConvSeparable,
            BenchmarkId::Sgemm,
            BenchmarkId::AlexNet,
            BenchmarkId::SqueezeNet,
            BenchmarkId::Gru,
            BenchmarkId::StreamCluster,
        ]
    }
}

/// Harmonic-mean speedups split by sharing class plus overall, as the
/// paper reports them.
pub struct ClassMeans {
    /// Low-sharing harmonic mean.
    pub low: f64,
    /// High-sharing harmonic mean.
    pub high: f64,
    /// Overall harmonic mean.
    pub all: f64,
}

/// Aggregate per-benchmark speedups the paper's way.
pub fn class_means(rows: &[(BenchmarkId, f64)]) -> ClassMeans {
    let pick = |class: SharingClass| {
        let v: Vec<f64> = rows
            .iter()
            .filter(|(b, _)| b.spec().sharing == class)
            .map(|&(_, s)| s)
            .collect();
        harmonic_mean_speedup(&v)
    };
    let all: Vec<f64> = rows.iter().map(|&(_, s)| s).collect();
    ClassMeans {
        low: pick(SharingClass::Low),
        high: pick(SharingClass::High),
        all: harmonic_mean_speedup(&all),
    }
}

/// `1.234` → `+23.4%`.
pub fn pct(speedup: f64) -> String {
    format!("{:+.1}%", (speedup - 1.0) * 100.0)
}

/// Print a standard figure header.
pub fn figure_header(id: &str, caption: &str) {
    println!("==================================================================");
    println!("{id}: {caption}");
    println!("==================================================================");
}

/// ASCII chart rendering for the figure binaries.
pub mod chart {
    /// A horizontal bar of `value` against `max`, `width` cells wide.
    /// Negative values render to the left of a `|` origin for
    /// improvement charts that can dip below the baseline.
    pub fn bar(value: f64, max: f64, width: usize) -> String {
        if max <= 0.0 || width == 0 {
            return String::new();
        }
        let cells = ((value.abs() / max) * width as f64).round() as usize;
        let cells = cells.min(width);
        if value >= 0.0 {
            format!("|{}", "#".repeat(cells))
        } else {
            format!("{}|", "-".repeat(cells))
        }
    }

    /// Render labelled rows as a right-aligned bar chart, scaled to the
    /// largest magnitude.
    pub fn series(rows: &[(String, f64)], width: usize) -> String {
        let max = rows.iter().map(|(_, v)| v.abs()).fold(0.0f64, f64::max);
        let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        rows.iter()
            .map(|(l, v)| format!("{l:<label_w$} {:>8.2} {}", v, bar(*v, max, width)))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn bar_scales_and_clamps() {
            assert_eq!(bar(1.0, 2.0, 10), "|#####");
            assert_eq!(bar(2.0, 2.0, 10), "|##########");
            assert_eq!(bar(4.0, 2.0, 10), "|##########");
            assert_eq!(bar(0.0, 2.0, 10), "|");
        }

        #[test]
        fn negative_values_point_left() {
            assert_eq!(bar(-1.0, 2.0, 10), "-----|");
        }

        #[test]
        fn degenerate_inputs_are_safe() {
            assert_eq!(bar(1.0, 0.0, 10), "");
            assert_eq!(bar(1.0, 2.0, 0), "");
            assert_eq!(series(&[], 10), "");
        }

        #[test]
        fn series_aligns_labels() {
            let rows = vec![("A".to_string(), 1.0), ("LONGNAME".to_string(), 2.0)];
            let out = series(&rows, 8);
            let lines: Vec<&str> = out.lines().collect();
            assert_eq!(lines.len(), 2);
            assert!(lines[0].starts_with("A        "));
            assert!(lines[1].ends_with("|########"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_means_split() {
        let rows = vec![
            (BenchmarkId::Lbm, 1.5),     // low
            (BenchmarkId::Mvt, 1.3),     // low
            (BenchmarkId::Sgemm, 1.2),   // high
            (BenchmarkId::AlexNet, 1.4), // high
        ];
        let m = class_means(&rows);
        assert!((m.low - harmonic_mean_speedup(&[1.5, 1.3])).abs() < 1e-12);
        assert!((m.high - harmonic_mean_speedup(&[1.2, 1.4])).abs() < 1e-12);
        assert!(m.all > 1.0);
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(1.231), "+23.1%");
        assert_eq!(pct(0.9), "-10.0%");
    }

    #[test]
    fn sweep_subset_is_balanced() {
        let sw = sweep_benchmarks();
        let low = sw
            .iter()
            .filter(|b| b.spec().sharing == SharingClass::Low)
            .count();
        let high = sw
            .iter()
            .filter(|b| b.spec().sharing == SharingClass::High)
            .count();
        assert_eq!(low, 5);
        assert_eq!(high, 5);
    }

    /// Parse from a fixed variable list instead of the environment, and
    /// check that `parse` reads exactly the [`KNOWN`] names other than
    /// `NUBA_CORRELATION` (which only `fig_correlation` reads).
    fn parse_vars(vars: &[(&str, &str)]) -> Result<HarnessOptions, String> {
        let read = std::cell::RefCell::new(std::collections::BTreeSet::new());
        let parsed = HarnessOptions::parse(|name| {
            read.borrow_mut().insert(name.to_string());
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        });
        if parsed.is_ok() {
            let known = KNOWN.iter().filter(|&&k| k != "NUBA_CORRELATION");
            assert!(
                read.into_inner().iter().eq(known),
                "parse and KNOWN disagree"
            );
        }
        parsed
    }

    #[test]
    fn malformed_numeric_knobs_are_errors() {
        let opts = parse_vars(&[("NUBA_CYCLES", "6000"), ("NUBA_SIMCHECK_CYCLES", "512")]);
        let opts = opts.expect("well-formed knobs parse");
        assert_eq!((opts.cycles, opts.simcheck_cycles), (6000, 512));
        assert_eq!(parse_vars(&[("NUBA_CYCLES", "")]).unwrap().cycles, 60_000);
        assert_eq!(
            parse_vars(&[("NUBA_CYCLES", "60k")]).unwrap_err(),
            "NUBA_CYCLES=\"60k\" is not a number"
        );
        assert_eq!(
            parse_vars(&[("NUBA_JOBS", "two")]).unwrap_err(),
            "NUBA_JOBS=\"two\" is not a number"
        );
        assert!(parse_vars(&[("NUBA_SIMCHECK_CYCLES", "soon")]).is_err());
    }

    #[test]
    fn unread_knobs_are_named() {
        let vars = [
            "PATH",
            "NUBA_FIDELITY",
            "NUBA_CYCLES",
            "NUBA_NO_SKIP",
            "NUBA_CYCLE",
            "NUBA_CORRELATION",
            "NUBA_TIMESERIES",
            "NUBA_MATRIX_TRACE",
        ];
        assert_eq!(
            unknown_knobs(vars),
            [
                "NUBA_CYCLE",
                "NUBA_FIDELITY",
                "NUBA_MATRIX_TRACE",
                "NUBA_NO_SKIP",
                "NUBA_TIMESERIES"
            ]
        );
    }

    /// The README's "Environment knobs" table lists exactly [`KNOWN`]:
    /// the `NUBA_*` name that opens each row, no more and no fewer.
    #[test]
    fn readme_knob_table_matches_known() {
        let readme = include_str!("../../../README.md");
        let table = readme
            .split_once("### Environment knobs")
            .expect("README has an Environment knobs section")
            .1;
        let rows: Vec<&str> = table
            .lines()
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .filter_map(|l| l.strip_prefix("| `"))
            .map(|cell| &cell[..cell.find(['=', '`']).unwrap_or(cell.len())])
            .filter(|name| name.starts_with("NUBA_"))
            .collect();
        let documented: std::collections::BTreeSet<&str> = rows.iter().copied().collect();
        let known: std::collections::BTreeSet<&str> = KNOWN.into_iter().collect();
        assert_eq!(documented, known, "README knob table and KNOWN disagree");
        assert_eq!(rows.len(), KNOWN.len(), "a knob has two README rows");
    }

    #[test]
    fn main_configs_cover_paper_proposals() {
        let cfgs = main_configs();
        assert_eq!(cfgs[0].1.arch, ArchKind::MemSideUba);
        assert_eq!(cfgs[2].1.replication, ReplicationKind::None);
        assert_eq!(cfgs[3].1.replication, ReplicationKind::Mdr);
    }
}
