//! `matrix_short`: the harness path. A round runs every Table-2
//! benchmark on memory-side UBA and on NUBA through the runner twice —
//! pass 1 against an empty checkpoint store, pass 2 with a fresh
//! context against the store pass 1 filled — so per-job build, warm,
//! checkpoint and store I/O are most of the time, not the cycle loop.

use std::path::{Path, PathBuf};
use std::time::Instant;

use nuba_bench::runner::{run_matrix_ctx_with, Job, JobResult, RunnerCtx};
use nuba_bench::{class_means, Harness};
use nuba_core::{Checkpoint, SimReport, SimSession};
use nuba_types::{ArchKind, GpuConfig};
use nuba_workloads::{BenchmarkId, ScaleProfile, Workload};

use crate::outcome::{shares_sum_to_one, sim_metrics, sum_reports, Checks, Opts, Outcome};
use crate::span::Recorder;
use crate::stats::{digest_of, median, steady_units, tail_percentile};
use crate::{host, probes};

/// Timed cycles per job.
const JOB_CYCLES: u64 = 500;
/// A round takes about as long as the whole measuring time, so the
/// floor is what counts: three repeats of every job for the steady
/// estimator to choose from.
const MIN_ROUNDS: usize = 3;
/// The one variable this workload sets; [`store_dir`] is its value.
pub const STORE_VAR: &str = "NUBA_STORE_DIR";

/// The checkpoint store of this process, under the output directory.
pub fn store_dir() -> PathBuf {
    crate::out_dir().join(format!("store-{}", std::process::id()))
}

fn configs() -> [GpuConfig; 2] {
    [ArchKind::MemSideUba, ArchKind::Nuba].map(GpuConfig::paper_baseline)
}

/// All 29 Table-2 benchmarks; a quick run takes every sixth.
fn benchmarks(opts: &Opts) -> Vec<BenchmarkId> {
    let step = if opts.quick { 6 } else { 1 };
    BenchmarkId::ALL.iter().copied().step_by(step).collect()
}

/// `(benchmark, config)` of every job, UBA then NUBA per benchmark.
fn pairs(opts: &Opts) -> impl Iterator<Item = (BenchmarkId, GpuConfig)> {
    benchmarks(opts)
        .into_iter()
        .flat_map(|b| configs().map(|cfg| (b, cfg)))
}

/// Everything a matrix needs before its first job: the harness, the
/// job list, and the runner context opening a store directory that
/// does not exist yet.
fn set_up(opts: &Opts, cycles: u64) -> (Harness, Vec<Job>, RunnerCtx) {
    debug_assert!(!store_dir().exists(), "the caller clears the store first");
    let mut harness = Harness::from_env();
    harness.cycles = cycles;
    harness.seed = opts.seed;
    let jobs = pairs(opts)
        .map(|(b, cfg)| Job::new(format!("{b}/{}", cfg.arch.label()), b, cfg))
        .collect();
    (harness, jobs, RunnerCtx::from_env())
}

/// Remove the store, so the next set-up creates it and the next pass
/// starts cold, and nothing is left behind after the last. Not timed: after a round this deletes 250 MB, which is
/// this tool's housekeeping and nobody's set-up. A missing directory is
/// the expected first case.
fn clear_store() {
    let _ = std::fs::remove_dir_all(store_dir());
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

/// One pass of the matrix, with a `bench.job` span per result rebuilt
/// from the offsets the runner reports.
fn pass(ctx: &RunnerCtx, h: &Harness, jobs: &[Job], rec: &mut Recorder) -> (Vec<JobResult>, f64) {
    let open = rec.enter("bench.run_matrix");
    let started = Instant::now();
    let results = run_matrix_ctx_with(ctx, h, jobs, 1);
    let wall = started.elapsed().as_secs_f64();
    for r in &results {
        rec.closed("bench.job", r.start_offset_secs, r.wall_seconds);
    }
    rec.exit(open);
    (results, wall)
}

struct Round {
    setup_s: f64,
    /// Wall seconds of pass 1 and pass 2.
    walls: [f64; 2],
    /// `wall_seconds` of every job, pass 1 then pass 2.
    job_walls: Vec<f64>,
    /// Pass-1 reports in job order.
    reports: Vec<SimReport>,
    warp_ops: u64,
    failed_jobs: usize,
    store_bytes: u64,
}

fn round(opts: &Opts, cycles: u64, rec: &mut Recorder, checks: &mut Checks) -> Round {
    clear_store();
    let job = rec.enter("workload");
    let ((harness, jobs, cold), setup_s) = rec.call("setup", || set_up(opts, cycles));
    let (first, wall1) = pass(&cold, &harness, &jobs, rec);
    drop(cold);
    // A fresh context has an empty in-memory warm cache, so pass 2
    // reads every warm state back from the store.
    let hot = RunnerCtx::from_env();
    let (second, wall2) = pass(&hot, &harness, &jobs, rec);
    rec.exit(job);

    for r in first.iter().chain(&second) {
        checks.op(!r.failed() && !r.cancelled(), || {
            format!(
                "job {} ended {}: {}",
                r.label,
                r.outcome.as_str(),
                r.error.clone().unwrap_or_default()
            )
        });
    }
    for (a, b) in first.iter().zip(&second) {
        checks.op(a.report == b.report, || {
            format!(
                "job {}: the hot pass reports differently from the cold pass",
                a.label
            )
        });
        checks.op(shares_sum_to_one(&a.report), || {
            format!("job {}: bottleneck shares do not sum to 1", a.label)
        });
    }
    let all = || first.iter().chain(&second);
    Round {
        setup_s,
        walls: [wall1, wall2],
        job_walls: all().map(|r| r.wall_seconds).collect(),
        warp_ops: all().map(|r| r.report.warp_ops).sum(),
        failed_jobs: all().filter(|r| r.failed()).count(),
        store_bytes: dir_bytes(&store_dir()),
        reports: first.into_iter().map(|r| r.report).collect(),
    }
}

/// Span totals of doing by hand, once per (benchmark, config) pair,
/// what each job does inside the runner: the runner's own spans stop
/// at the job, so this is where the matrix's `core.*` numbers come from.
#[derive(Default)]
struct Direct {
    build_s: f64,
    core_build_s: f64,
    warm_s: f64,
    run_s: f64,
    report_s: f64,
    checkpoint_s: f64,
    resume_s: f64,
    checkpoint_bytes: usize,
    stepped: u64,
}

fn direct(
    opts: &Opts,
    cycles: u64,
    reports: &[SimReport],
    rec: &mut Recorder,
    checks: &mut Checks,
) -> Direct {
    let mut d = Direct::default();
    let open = rec.enter("direct");
    for ((bench, cfg), expected) in pairs(opts).zip(reports) {
        let cfg = cfg.with_seed(opts.seed);
        let outcome = (|| -> Result<SimReport, String> {
            let (workload, s) = rec.call("workloads.build", || {
                Workload::build(bench, ScaleProfile::default(), cfg.num_sms, opts.seed)
            });
            d.build_s += s;
            let (session, s) = rec.call("core.build", || {
                SimSession::builder(cfg, workload.clone()).build()
            });
            d.core_build_s += s;
            let mut session = session.map_err(|e| e.to_string())?;
            d.warm_s += rec.call("core.warm", || session.warm()).1;
            let (bytes, s) = rec.call("core.checkpoint", || session.checkpoint().to_bytes());
            d.checkpoint_s += s;
            d.checkpoint_bytes += bytes.len();
            let (resumed, s) = rec.call("core.resume", || {
                Checkpoint::from_bytes(&bytes)
                    .map_err(|e| e.to_string())
                    .and_then(|c| SimSession::resume(&c, workload).map_err(|e| e.to_string()))
            });
            d.resume_s += s;
            let mut resumed = resumed?;
            let (through, s) = rec.call("core.run_window", || session.run_window(cycles));
            d.run_s += s;
            d.report_s += rec.call("report", || session.gpu().report()).1;
            d.stepped += session.gpu().detail_steps();
            let through = through.map_err(|e| e.to_string())?;
            if resumed.run_window(cycles).map_err(|e| e.to_string())? != through {
                return Err("the resumed run reports differently".to_string());
            }
            Ok(through)
        })();
        checks.op(outcome.as_ref() == Ok(expected), || {
            format!(
                "{bench}: a session driven by hand reports differently from the runner's job: {}",
                outcome.as_ref().err().cloned().unwrap_or_default()
            )
        });
    }
    rec.exit(open);
    d
}

/// The three Fig. 7 class means of NUBA over memory-side UBA
/// (harmonic, as the paper reports them) from one pass's reports.
fn fig7(benchmarks: &[BenchmarkId], reports: &[SimReport]) -> [f64; 3] {
    let rows: Vec<(BenchmarkId, f64)> = benchmarks
        .iter()
        .zip(reports.chunks(2))
        .filter(|(_, pair)| pair.len() == 2 && pair[0].perf() > 0.0 && pair[1].perf() > 0.0)
        .map(|(&b, pair)| (b, pair[1].speedup_over(&pair[0])))
        .collect();
    // A window too short for every benchmark to retire work (a quick
    // run) has no class means.
    if rows.len() < benchmarks.len() {
        return [0.0; 3];
    }
    let means = class_means(&rows);
    [means.low, means.high, means.all]
}

pub fn run(name: &str, opts: &Opts) -> Outcome {
    let cycles = if opts.quick {
        JOB_CYCLES / 20
    } else {
        JOB_CYCLES
    };
    let mut out = Outcome::default();
    let mut rec = Recorder::new(opts.trace);

    let started = Instant::now();
    let cpu_before = host::cpu_seconds();
    let mut rounds: Vec<Round> = Vec::new();
    let mut peak_rss_mb = 0.0;
    while opts.wants_round(rounds.len(), MIN_ROUNDS, started) {
        rounds.push(round(opts, cycles, &mut rec, &mut out.checks));
        if rounds.len() == 1 {
            peak_rss_mb = host::peak_rss_mb();
        }
    }
    out.cpu_share = (host::cpu_seconds() - cpu_before) / started.elapsed().as_secs_f64();
    clear_store();
    out.rounds = rounds.len();
    let spans_per_round = rec.spans().len() as f64 / rounds.len() as f64;

    let first = &rounds[0];
    out.cycles = cycles * first.job_walls.len() as u64;
    out.digest = digest_of(&first.reports);
    for (i, r) in rounds.iter().enumerate().skip(1) {
        out.checks.op(digest_of(&r.reports) == out.digest, || {
            format!("round {i} reports differently from round 0 on the same inputs")
        });
    }

    let job_s = steady_units(&rounds.iter().map(|r| &r.job_walls[..]).collect::<Vec<_>>());
    let window_s: f64 = job_s.iter().sum();
    // One sample per (benchmark, config) pair, its cold and its hot job
    // together: taken singly, the cold jobs and the hot jobs form two
    // clusters with the median in the gap between them.
    let (cold, hot) = job_s.split_at(job_s.len() / 2);
    let per_cycle: Vec<f64> = cold
        .iter()
        .zip(hot)
        .map(|(c, h)| (c + h) * 1e6 / (2 * cycles) as f64)
        .collect();
    let tail = tail_percentile(&per_cycle, 90);
    out.samples = tail.samples;
    out.tail_percentile = tail.percentile;
    let (cold_s, hot_s): (f64, f64) = (cold.iter().sum(), hot.iter().sum());
    let before_s = median(&rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>());

    if !opts.trace {
        out.metrics = vec![
            ("wall_s", before_s + window_s),
            // A matrix sets up inside its jobs, where the runner does
            // it; what comes before the first job is microseconds. The
            // cold pass builds, warms, checkpoints and stores every
            // warm state and the hot pass reads it back, so their
            // difference is the set-up the matrix pays.
            ("setup_s", cold_s - hot_s),
            ("sim_cycles_per_s", out.cycles as f64 / window_s),
            ("warp_ops_per_s", first.warp_ops as f64 / window_s),
            ("us_per_cycle_p50", median(&per_cycle)),
            ("us_per_cycle_p90", tail.value),
            ("peak_rss_mb", peak_rss_mb),
        ];
        return out;
    }

    let d = direct(opts, cycles, &first.reports, &mut rec, &mut out.checks);
    let summed = sum_reports(&first.reports.iter().collect::<Vec<_>>());
    let overhead_s = |r: &Round| r.walls.iter().sum::<f64>() - r.job_walls.iter().sum::<f64>();
    let jobs = first.job_walls.len();
    let [low, high, overall] = fig7(&benchmarks(opts), &first.reports);

    let mut m = vec![
        ("workloads.build_ms", d.build_s * 1e3),
        ("core.build_ms", d.core_build_s * 1e3),
        ("core.warm_ms", d.warm_s * 1e3),
        ("core.run_s", d.run_s),
        ("core.report_us", d.report_s * 1e6),
        ("core.checkpoint_ms", d.checkpoint_s * 1e3),
        ("core.resume_ms", d.resume_s * 1e3),
        ("core.checkpoint_bytes", d.checkpoint_bytes as f64),
        (
            "core.us_per_warp_op",
            d.run_s * 1e6 / summed.warp_ops as f64,
        ),
        ("core.stepped_frac", d.stepped as f64 / summed.cycles as f64),
        // Telemetry stays off in every job; the differential belongs
        // to the dense workloads.
        ("core.telemetry.overhead_frac", 0.0),
        (
            "bench.runner.overhead_s",
            median(&rounds.iter().map(overhead_s).collect::<Vec<_>>()),
        ),
        ("bench.runner.job_wall_ms_p50", median(&job_s) * 1e3),
        ("bench.runner.jobs", jobs as f64),
        ("bench.runner.failed_jobs", first.failed_jobs as f64),
        ("bench.store.reuse_saving_s", cold_s - hot_s),
        ("bench.store.bytes", first.store_bytes as f64),
        ("bench.fig7.nuba_speedup_low", low),
        ("bench.fig7.nuba_speedup_high", high),
        ("bench.fig7.nuba_speedup_overall", overall),
        (
            "trace.overhead_frac",
            spans_per_round * probes::span_cost_s() / window_s,
        ),
    ];
    m.extend(sim_metrics(&summed));
    m.extend(probes::run_all(opts.quick));
    out.metrics = m;

    // Job spans are rebuilt from the runner's own clock readings, which
    // start a little after this file's `bench.run_matrix` span does.
    out.checks.trace(
        name,
        &rec,
        50.0,
        &[
            "workload",
            "setup",
            "bench.run_matrix",
            "bench.job",
            "workloads.build",
            "core.build",
            "core.warm",
            "core.checkpoint",
            "core.resume",
            "core.run_window",
            "report",
        ],
    );
    out
}
