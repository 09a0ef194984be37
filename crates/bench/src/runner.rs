//! Deterministic parallel execution of experiment matrices.
//!
//! A caller hands [`run_matrix`] a list of (benchmark × configuration)
//! simulations as [`Job`]s and gets one [`JobResult`] per job back:
//! every job is simulated, repeats included. (The figure table drops
//! repeats before it calls in; see [`crate::figures`].) The jobs run on
//! a [`std::thread::scope`] work-stealing pool sized by the `NUBA_JOBS`
//! environment knob (default: available parallelism). Results come back
//! in submission order, so callers print byte-identical output to a
//! serial loop.
//!
//! Determinism: each job builds its own [`Workload`] and
//! [`GpuSimulator`] from the job's seed. The one thing jobs share is
//! the warm-trace cache: a workload's first-touch trace is a pure
//! function of its cache key, so whichever job records it first, every
//! job replays the same bytes and the schedule cannot leak into the
//! simulation. The only process-global state the simulator touches is
//! the invariant counter registry (`nuba_types::invariant`), which uses
//! relaxed atomics and only ever *counts* under the pool.
//!
//! Shared runner state — the warm-trace cache, the quarantine registry
//! and the optional on-disk [trace store](crate::store) — lives in a
//! [`RunnerCtx`]. Binaries call the module-level [`run_matrix`]/[`finish`]
//! wrappers, which delegate to a process-wide environment-configured
//! context; tests and `nuba-perf` build their own via
//! [`RunnerCtx::new`]/[`RunnerCtx::with_store`] and pass it to
//! [`run_matrix_ctx_with`].
//!
//! Fault isolation and lifecycle: each job runs exactly once, straight
//! through, under [`std::panic::catch_unwind`] with an optional per-job
//! forward-progress deadline. A panic or [`SimError`] quarantines the
//! job. Nothing retries it: the simulation is deterministic, so a
//! failure recurs identically (DESIGN.md §15.5). Every [`JobResult`]
//! carries a [`JobOutcome`]. Binaries call [`finish`] last to print the
//! quarantine summary; the exit code is nonzero only under
//! `NUBA_STRICT_FAULTS=1`, so chaos drills don't fail CI unless
//! explicitly asked to.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use nuba_core::{
    default_warm_accesses, first_touches, GpuSimulator, SimError, SimReport, TelemetryWindow,
    TraceRecord,
};
use nuba_engine::FaultPlan;
use nuba_types::addr::PageNum;
use nuba_types::state::{fnv1a, StateValue, StateWriter};
use nuba_types::{GpuConfig, SmId};
use nuba_workloads::{BenchmarkId, ScaleProfile, Workload};

use crate::store::{StoreKey, TraceStore};
use crate::{Harness, HarnessOptions};

/// One simulation in an experiment matrix.
#[derive(Debug, Clone)]
pub struct Job {
    /// Display label (carried into the [`JobResult`]).
    pub label: String,
    /// The workload.
    pub bench: BenchmarkId,
    /// The architecture configuration.
    pub cfg: GpuConfig,
    /// Scale override (page-size sensitivity, variance runs); `None`
    /// uses the harness scale.
    pub scale: Option<ScaleProfile>,
    /// Seed override (variance runs); `None` uses the harness seed.
    pub seed: Option<u64>,
    /// Deterministic fault schedule applied before the run; `None` runs
    /// fault-free.
    pub faults: Option<FaultPlan>,
    /// Forward-progress deadline override (cycles without a retire
    /// before the watchdog quarantines the job); `None` keeps the
    /// configuration's `watchdog_cycles`.
    pub deadline: Option<u64>,
    /// Sanctioned chaos knob: panic instead of simulating, to prove the
    /// matrix survives a dying job. Never set outside chaos drills.
    pub inject_panic: bool,
}

impl Job {
    /// A job running `bench` on `cfg` with the harness defaults.
    pub fn new(label: impl Into<String>, bench: BenchmarkId, cfg: GpuConfig) -> Job {
        Job {
            label: label.into(),
            bench,
            cfg,
            scale: None,
            seed: None,
            faults: None,
            deadline: None,
            inject_panic: false,
        }
    }

    /// Override the workload scale (page-size sensitivity, variance
    /// runs).
    #[must_use]
    pub fn with_scale(mut self, scale: ScaleProfile) -> Job {
        self.scale = Some(scale);
        self
    }

    /// Override the layout/stream seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Job {
        self.seed = Some(seed);
        self
    }

    /// Attach a deterministic fault schedule.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Job {
        self.faults = Some(plan);
        self
    }

    /// Override the forward-progress deadline for this job.
    #[must_use]
    pub fn with_deadline(mut self, cycles: u64) -> Job {
        self.deadline = Some(cycles);
        self
    }

    /// Make the job panic on entry (chaos drills only).
    #[must_use]
    pub fn with_injected_panic(mut self) -> Job {
        self.inject_panic = true;
        self
    }
}

/// How a job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// The timed window completed and the report is valid.
    Ok,
    /// The job failed (panic, validation, watchdog) and was
    /// quarantined.
    Failed,
}

impl JobOutcome {
    /// Short stable string for summaries and the event log.
    pub fn as_str(self) -> &'static str {
        match self {
            JobOutcome::Ok => "ok",
            JobOutcome::Failed => "failed",
        }
    }
}

/// A completed job with its throughput record.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's label.
    pub label: String,
    /// The simulation report ([`SimReport::empty`] unless the outcome
    /// is [`JobOutcome::Ok`]).
    pub report: SimReport,
    /// Wall-clock seconds this job took (build + warm + timed window).
    pub wall_seconds: f64,
    /// Simulated cycles per wall-clock second (0 if quarantined).
    pub cycles_per_sec: f64,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// Why the job was quarantined; `None` on success.
    pub error: Option<String>,
    /// Windowed telemetry retained by the job's sampler (empty unless
    /// the job's config enabled windowing, or if the job was
    /// quarantined).
    pub windows: Vec<TelemetryWindow>,
    /// Completed request-lifecycle trace records (empty unless the
    /// job's config enabled tracing, or if the job was quarantined).
    pub trace: Vec<TraceRecord>,
    /// Wall-clock offset of the job's start relative to the matrix
    /// start, in seconds. Feeds only the matrix Chrome trace — the one
    /// wall-clock-exempt artifact (DESIGN.md §16).
    pub start_offset_secs: f64,
}

impl JobResult {
    /// Whether this job was quarantined instead of completing.
    pub fn failed(&self) -> bool {
        self.outcome == JobOutcome::Failed
    }

    /// Always `false`: every job runs once to an outcome, and nothing
    /// drains a matrix early. Kept because `nuba-perf` (`benchmark/`)
    /// still asks.
    pub fn cancelled(&self) -> bool {
        false
    }
}

/// One quarantined job in the quarantine registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// The job's label.
    pub label: String,
    /// The panic message or [`SimError`] rendering that killed it.
    pub error: String,
}

/// A workload's first-touch trace, shared by every job that forks from
/// it.
type Touches = Arc<[(PageNum, SmId)]>;

/// Everything the runner shares across the jobs of a matrix: the
/// warm-trace cache, the quarantine registry and the optional on-disk
/// [trace store](crate::store). Tests and `nuba-perf` each build their
/// own, so they share no runner state.
///
/// The module-level wrappers ([`run_matrix`], [`finish`],
/// [`quarantined_jobs`], …) delegate to one process-wide
/// environment-configured instance.
pub struct RunnerCtx {
    /// First-touch traces, keyed like their store entries (the store's
    /// in-memory front). Warm-up only faults pages in, and which pages
    /// in which order depends on the workload and the machine shape,
    /// never on the architecture or policies — so the first job of a
    /// workload records the trace and every job on it, whatever its
    /// configuration, forks by replaying it: byte-identical to warming.
    warm: Mutex<HashMap<StoreKey, Touches>>,
    /// Jobs appended as they fail (worker order); readers sort by
    /// label for deterministic output.
    quarantine: Mutex<Vec<JobFailure>>,
    /// On-disk first-touch traces; `None` falls back byte-identically
    /// to the in-memory cache alone.
    store: Option<TraceStore>,
}

impl RunnerCtx {
    /// A fresh context with no persistent store.
    pub fn new() -> RunnerCtx {
        RunnerCtx {
            warm: Mutex::new(HashMap::new()),
            quarantine: Mutex::new(Vec::new()),
            store: None,
        }
    }

    /// The environment-configured context: a trace store iff
    /// `NUBA_STORE_DIR` is set (an unopenable store warns and falls
    /// back to memory — robustness knobs must not take the matrix
    /// down).
    pub fn from_env() -> RunnerCtx {
        RunnerCtx {
            store: TraceStore::from_env(),
            ..RunnerCtx::new()
        }
    }

    /// A fresh context backed by `store`.
    pub fn with_store(store: TraceStore) -> RunnerCtx {
        RunnerCtx {
            store: Some(store),
            ..RunnerCtx::new()
        }
    }

    /// The context's trace store, if one is configured.
    pub fn store(&self) -> Option<&TraceStore> {
        self.store.as_ref()
    }

    /// Snapshot of the quarantine registry, sorted by job label.
    pub fn quarantined_jobs(&self) -> Vec<JobFailure> {
        let mut q = self
            .quarantine
            .lock()
            .expect("quarantine registry poisoned")
            .clone();
        q.sort_by(|a, b| a.label.cmp(&b.label));
        q
    }

    /// Drop every cached first-touch trace (test isolation). The trace
    /// store on disk is untouched.
    pub fn reset_warm_cache(&self) {
        *self.warm.lock().expect("warm cache poisoned") = HashMap::new();
    }

    /// Print the quarantine summary (if any) and return the process
    /// exit code: nonzero only when jobs were quarantined *and*
    /// `NUBA_STRICT_FAULTS=1`.
    pub fn finish(&self) -> i32 {
        let q = self.quarantined_jobs();
        if q.is_empty() {
            return 0;
        }
        eprintln!("runner: {} job(s) quarantined:", q.len());
        for f in &q {
            eprintln!("  QUARANTINED {:<28} {}", f.label, f.error);
        }
        let strict = HarnessOptions::get().strict_faults;
        if strict {
            eprintln!("runner: NUBA_STRICT_FAULTS=1 — exiting nonzero");
            1
        } else {
            eprintln!(
                "runner: matrix completed despite failures (set NUBA_STRICT_FAULTS=1 to gate)"
            );
            0
        }
    }

    fn quarantine(&self, failure: JobFailure) {
        self.quarantine
            .lock()
            .expect("quarantine registry poisoned")
            .push(failure);
    }

    fn warm_lookup(&self, key: &StoreKey) -> Option<Touches> {
        self.warm
            .lock()
            .expect("warm cache poisoned")
            .get(key)
            .cloned()
    }

    fn warm_insert(&self, key: StoreKey, touches: Touches) {
        self.warm
            .lock()
            .expect("warm cache poisoned")
            .insert(key, touches);
    }
}

impl Default for RunnerCtx {
    fn default() -> RunnerCtx {
        RunnerCtx::new()
    }
}

/// The process-wide environment-configured [`RunnerCtx`] the
/// module-level wrappers delegate to, built on first use.
fn global_ctx() -> &'static RunnerCtx {
    static CTX: OnceLock<RunnerCtx> = OnceLock::new();
    CTX.get_or_init(RunnerCtx::from_env)
}

/// Snapshot of the global context's quarantine registry, sorted by job
/// label.
pub fn quarantined_jobs() -> Vec<JobFailure> {
    global_ctx().quarantined_jobs()
}

/// Drop the global context's cached first-touch traces.
pub fn reset_warm_cache() {
    global_ctx().reset_warm_cache()
}

/// Print the global context's quarantine summary (if any) and return
/// the process exit code. Call last in every matrix binary:
///
/// ```ignore
/// std::process::exit(runner::finish());
/// ```
pub fn finish() -> i32 {
    global_ctx().finish()
}

/// Worker count: `NUBA_JOBS` if set and positive, else the machine's
/// available parallelism.
pub fn num_jobs() -> usize {
    HarnessOptions::get().jobs
}

/// Run `n` independent tasks on up to `threads` scoped workers; task
/// `i` computes `f(i)`. Results return in index order. Workers steal
/// the next unclaimed index from a shared counter, so long tasks do not
/// convoy short ones. With `threads <= 1` the tasks run inline on the
/// caller's thread in order.
pub fn run_jobs<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker completed every claimed job")
        })
        .collect()
}

/// Build a simulator for `cfg`/`wl` and warm it by replaying the
/// workload's first-touch trace — byte-identical to
/// [`GpuSimulator::warm`], which replays the same trace.
fn warmed_simulator(
    ctx: &RunnerCtx,
    bench: BenchmarkId,
    cfg: &GpuConfig,
    wl: &Workload,
) -> Result<GpuSimulator, SimError> {
    let mut gpu = GpuSimulator::try_new(cfg.clone(), wl)?;
    gpu.replay_first_touches(&warm_trace(ctx, bench, cfg, wl));
    Ok(gpu)
}

/// The [`first_touches`] trace for `cfg`/`wl` at the default warm
/// depth: from the in-memory cache, else the trace store (a bad entry,
/// or one naming an SM this machine lacks, misses), else recorded and
/// published to both.
///
/// The key holds exactly what the trace reads: the workload, SM count,
/// active warp count, page size and depth — no architecture or policy
/// knob, so every configuration of a machine shape shares one entry.
fn warm_trace(ctx: &RunnerCtx, bench: BenchmarkId, cfg: &GpuConfig, wl: &Workload) -> Touches {
    let per_warp = default_warm_accesses(cfg, wl);
    let mut id = StateWriter::new();
    wl.state_hash().put(&mut id);
    cfg.num_sms.put(&mut id);
    cfg.active_warps().put(&mut id);
    cfg.page_bytes.put(&mut id);
    let key = StoreKey {
        bench,
        hash: fnv1a(id.bytes()),
        depth: per_warp as u64,
    };
    if let Some(touches) = ctx.warm_lookup(&key) {
        return touches;
    }
    let stored = ctx.store().and_then(|store| store.get(&key, cfg.num_sms));
    let touches: Touches = match stored {
        Some(touches) => touches.into(),
        None => {
            let touches: Touches = first_touches(cfg, wl, per_warp).into();
            if let Some(store) = ctx.store() {
                if let Err(e) = store.put(&key, &touches) {
                    // Persistence is an optimization; its failures warn.
                    eprintln!("runner: cannot persist warm trace {}: {e}", key.file_name());
                }
            }
            touches
        }
    };
    ctx.warm_insert(key, Arc::clone(&touches));
    touches
}

/// What a successful job hands back: the report and the job's retained
/// telemetry.
struct JobOutput {
    report: SimReport,
    windows: Vec<TelemetryWindow>,
    trace: Vec<TraceRecord>,
}

/// A job, start to finish: build, warm, arm faults/watchdog, run the
/// timed window. Every failure mode surfaces as `Err` (validation,
/// watchdog) or a panic (workload/config mismatch, internal bug) — the
/// caller catches both.
fn execute_job(ctx: &RunnerCtx, h: &Harness, job: &Job) -> Result<JobOutput, SimError> {
    let scale = job.scale.unwrap_or(h.scale);
    let seed = job.seed.unwrap_or(h.seed);
    let mut cfg = job.cfg.clone();
    cfg.seed = seed;
    if cfg.page_bytes != scale.page_bytes {
        cfg.page_bytes = scale.page_bytes;
    }
    let wl = Workload::build(job.bench, scale, cfg.num_sms, seed);
    // The fault plan and watchdog are armed after warm-up, which only
    // faults pages in: faulted jobs share the warm path.
    let mut gpu = warmed_simulator(ctx, job.bench, &cfg, &wl)?;
    if let Some(plan) = &job.faults {
        gpu.set_fault_plan(plan);
    }
    if let Some(deadline) = job.deadline {
        gpu.set_watchdog(Some(deadline));
    }
    if job.inject_panic {
        panic!("injected chaos panic (Job::with_injected_panic)");
    }
    let report = gpu.run(h.cycles)?;
    let windows = gpu.telemetry().windows_vec();
    let trace = gpu.telemetry().trace_records().to_vec();
    Ok(JobOutput {
        report,
        windows,
        trace,
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Execute one job exactly as [`Harness::try_run_scaled`] would, timing
/// it. A panic or [`SimError`] is caught and quarantines the job instead
/// of taking the matrix down.
fn run_job(ctx: &RunnerCtx, h: &Harness, job: &Job, matrix_start: Instant) -> JobResult {
    let start = Instant::now();
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute_job(ctx, h, job)));
    let wall_seconds = start.elapsed().as_secs_f64();
    let result = JobResult {
        label: job.label.clone(),
        report: SimReport::empty(),
        wall_seconds,
        cycles_per_sec: 0.0,
        outcome: JobOutcome::Ok,
        error: None,
        windows: Vec::new(),
        trace: Vec::new(),
        start_offset_secs: start.duration_since(matrix_start).as_secs_f64(),
    };
    let error = match run {
        Ok(Ok(out)) => {
            return JobResult {
                cycles_per_sec: out.report.cycles as f64 / wall_seconds.max(1e-9),
                report: out.report,
                windows: out.windows,
                trace: out.trace,
                ..result
            };
        }
        Ok(Err(e)) => e.to_string(),
        Err(payload) => format!("panic: {}", panic_message(payload.as_ref())),
    };
    ctx.quarantine(JobFailure {
        label: job.label.clone(),
        error: error.clone(),
    });
    JobResult {
        outcome: JobOutcome::Failed,
        error: Some(error),
        ..result
    }
}

/// Run an experiment matrix on the `NUBA_JOBS` pool under the global
/// context. Results are returned in submission order regardless of the
/// execution schedule.
pub fn run_matrix(h: &Harness, jobs: &[Job]) -> Vec<JobResult> {
    run_matrix_with(h, jobs, num_jobs())
}

/// [`run_matrix`] with an explicit worker count (determinism tests).
pub fn run_matrix_with(h: &Harness, jobs: &[Job], threads: usize) -> Vec<JobResult> {
    run_matrix_ctx_with(global_ctx(), h, jobs, threads)
}

/// Run an experiment matrix under an explicit [`RunnerCtx`] and worker
/// count.
pub fn run_matrix_ctx_with(
    ctx: &RunnerCtx,
    h: &Harness,
    jobs: &[Job],
    threads: usize,
) -> Vec<JobResult> {
    let matrix_start = Instant::now();
    run_jobs(jobs.len(), threads, |i| {
        run_job(ctx, h, &jobs[i], matrix_start)
    })
}

/// Aggregate throughput of one `run_matrix` call.
#[derive(Debug, Clone, Copy, Default)]
pub struct MatrixStats {
    /// Jobs executed.
    pub jobs: usize,
    /// Sum of per-job wall-clock seconds (CPU-seconds of simulation).
    pub cpu_seconds: f64,
    /// Total simulated cycles across the matrix.
    pub total_cycles: u64,
    /// Jobs that were quarantined instead of completing.
    pub quarantined: usize,
}

impl MatrixStats {
    /// Summarize a result set.
    pub fn of(results: &[JobResult]) -> MatrixStats {
        MatrixStats {
            jobs: results.len(),
            cpu_seconds: results.iter().map(|r| r.wall_seconds).sum(),
            total_cycles: results.iter().map(|r| r.report.cycles).sum(),
            quarantined: results.iter().filter(|r| r.failed()).count(),
        }
    }
}

/// One run's record in `BENCH_runner.json`.
#[derive(Debug, Clone, Copy)]
pub struct RunnerRecord {
    /// Worker count the run used.
    pub nuba_jobs: usize,
    /// End-to-end wall-clock seconds of the whole report.
    pub wall_seconds: f64,
    /// Matrix aggregate.
    pub stats: MatrixStats,
}

impl RunnerRecord {
    fn to_json_line(self) -> String {
        let cps = self.stats.total_cycles as f64 / self.wall_seconds.max(1e-9);
        format!(
            "    {{\"nuba_jobs\": {}, \"jobs\": {}, \"quarantined\": {}, \
             \"wall_seconds\": {:.3}, \"cpu_seconds\": {:.3}, \
             \"total_cycles\": {}, \
             \"cycles_per_sec\": {:.0}}}",
            self.nuba_jobs,
            self.stats.jobs,
            self.stats.quarantined,
            self.wall_seconds,
            self.stats.cpu_seconds,
            self.stats.total_cycles,
            cps,
        )
    }

    fn parse_json_line(line: &str) -> Option<RunnerRecord> {
        let field = |name: &str| -> Option<f64> {
            let key = format!("\"{name}\": ");
            let at = line.find(&key)? + key.len();
            let rest = &line[at..];
            let end = rest
                .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        };
        Some(RunnerRecord {
            nuba_jobs: field("nuba_jobs")? as usize,
            wall_seconds: field("wall_seconds")?,
            stats: MatrixStats {
                jobs: field("jobs")? as usize,
                cpu_seconds: field("cpu_seconds")?,
                total_cycles: field("total_cycles")? as u64,
                // Absent in records written before fault quarantine
                // landed.
                quarantined: field("quarantined").map(|v| v as usize).unwrap_or(0),
            },
        })
    }
}

/// Write (or merge into) `path` the throughput record of this run.
///
/// The file keeps one record per distinct `nuba_jobs` value of one
/// matrix, so running `all_experiments` at `NUBA_JOBS=1` and again at
/// `NUBA_JOBS=4` leaves both records side by side plus the parallel
/// speedup versus the serial record. An old record of a different
/// matrix (other `jobs` or `total_cycles`) is dropped: a wall-clock
/// ratio across two matrices measures nothing.
pub fn write_runner_json(path: &str, record: RunnerRecord) -> std::io::Result<()> {
    let mut records: Vec<RunnerRecord> = std::fs::read_to_string(path)
        .map(|old| {
            old.lines()
                .filter_map(RunnerRecord::parse_json_line)
                .filter(|r| {
                    r.nuba_jobs != record.nuba_jobs
                        && r.stats.jobs == record.stats.jobs
                        && r.stats.total_cycles == record.stats.total_cycles
                })
                .collect()
        })
        .unwrap_or_default();
    records.push(record);
    records.sort_by_key(|r| r.nuba_jobs);
    let serial = records
        .iter()
        .find(|r| r.nuba_jobs == 1)
        .map(|r| r.wall_seconds);
    let mut out = String::from("{\n  \"runs\": [\n");
    out.push_str(
        &records
            .iter()
            .map(|r| r.to_json_line())
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    out.push_str("\n  ]");
    if let Some(serial_wall) = serial {
        if let Some(fastest) = records
            .iter()
            .filter(|r| r.nuba_jobs > 1)
            .min_by(|a, b| a.wall_seconds.total_cmp(&b.wall_seconds))
        {
            out.push_str(&format!(
                ",\n  \"parallel_speedup_vs_serial\": {:.2},\n  \"parallel_nuba_jobs\": {}",
                serial_wall / fastest.wall_seconds.max(1e-9),
                fastest.nuba_jobs
            ));
        }
    }
    out.push_str("\n}\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_jobs_returns_submission_order() {
        // Uneven task costs: late indices finish first under any
        // schedule, but results must come back in index order.
        let got = run_jobs(16, 4, |i| {
            std::thread::sleep(std::time::Duration::from_millis((16 - i) as u64));
            i * 10
        });
        assert_eq!(got, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn run_jobs_serial_path_matches() {
        let par = run_jobs(8, 4, |i| i + 1);
        let ser = run_jobs(8, 1, |i| i + 1);
        assert_eq!(par, ser);
    }

    #[test]
    fn run_jobs_handles_empty_and_single() {
        assert_eq!(run_jobs(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_jobs(1, 4, |i| i), vec![0]);
    }

    fn tiny_harness() -> Harness {
        Harness {
            cycles: 400,
            scale: ScaleProfile::fast(),
            seed: 42,
        }
    }

    #[test]
    fn panicking_job_is_quarantined_not_fatal() {
        let h = tiny_harness();
        let cfg = GpuConfig::paper_baseline(nuba_types::ArchKind::Nuba);
        let jobs = vec![
            Job::new("healthy", BenchmarkId::Kmeans, cfg.clone()),
            Job::new("chaos-panic", BenchmarkId::Kmeans, cfg).with_injected_panic(),
        ];
        let results = run_matrix_with(&h, &jobs, 2);
        assert_eq!(results.len(), 2, "matrix completes despite the panic");
        assert!(!results[0].failed());
        assert_eq!(results[0].outcome, JobOutcome::Ok);
        assert!(results[0].report.cycles > 0);
        assert!(results[1].failed());
        assert_eq!(results[1].outcome, JobOutcome::Failed);
        assert_eq!(results[1].report, SimReport::empty());
        assert!(
            results[1]
                .error
                .as_deref()
                .unwrap()
                .contains("injected chaos panic"),
            "{:?}",
            results[1].error
        );
        assert!(quarantined_jobs().iter().any(|f| f.label == "chaos-panic"));
        assert_eq!(MatrixStats::of(&results).quarantined, 1);
    }

    #[test]
    fn deadlocked_job_is_quarantined_by_deadline() {
        // Deadline must exceed the cold-start latency to the first
        // reply (~500 cycles on the paper baseline), or a healthy
        // config would fire too during its initial translation storm.
        let h = Harness {
            cycles: 1600,
            scale: ScaleProfile::fast(),
            seed: 42,
        };
        let cfg = GpuConfig::paper_baseline(nuba_types::ArchKind::Nuba);
        let dead = FaultPlan::uniform_link_derate(0.0, cfg.num_sms, cfg.num_llc_slices);
        let job = Job::new("chaos-deadlock", BenchmarkId::Kmeans, cfg)
            .with_faults(dead)
            .with_deadline(800);
        let results = run_matrix_with(&h, &[job], 1);
        assert!(
            results[0].failed(),
            "zero-bandwidth links must trip the watchdog"
        );
        let msg = results[0].error.as_deref().unwrap();
        assert!(msg.contains("no forward progress"), "{msg}");
        assert!(
            quarantined_jobs()
                .iter()
                .any(|f| f.label == "chaos-deadlock"),
            "deadlock recorded in the registry"
        );
    }

    #[test]
    fn runner_record_roundtrips_through_json() {
        let rec = RunnerRecord {
            nuba_jobs: 4,
            wall_seconds: 12.345,
            stats: MatrixStats {
                jobs: 7,
                cpu_seconds: 40.5,
                total_cycles: 420_000,
                quarantined: 2,
            },
        };
        let line = rec.to_json_line();
        assert!(!line.contains("cancelled") && !line.contains("timed_out"));
        let back = RunnerRecord::parse_json_line(&line).expect("parses");
        assert_eq!(back.nuba_jobs, 4);
        assert_eq!(back.stats.jobs, 7);
        assert_eq!(back.stats.total_cycles, 420_000);
        assert_eq!(back.stats.quarantined, 2);
        assert!((back.wall_seconds - 12.345).abs() < 1e-9);

        // Records written while jobs could be drained or time out carry
        // `cancelled` / `timed_out`; they still parse, keys ignored.
        let legacy = "    {\"nuba_jobs\": 2, \"jobs\": 3, \"quarantined\": 1, \
                      \"cancelled\": 1, \"timed_out\": 1, \
                      \"wall_seconds\": 1.000, \"cpu_seconds\": 2.000, \
                      \"total_cycles\": 100, \"cycles_per_sec\": 100}";
        let old = RunnerRecord::parse_json_line(legacy).expect("legacy parses");
        assert_eq!((old.nuba_jobs, old.stats.jobs), (2, 3));
        assert_eq!((old.stats.quarantined, old.stats.total_cycles), (1, 100));
        // Records written before fault quarantine parse with zero.
        let older = legacy.replace("\"quarantined\": 1, ", "");
        let older = RunnerRecord::parse_json_line(&older).expect("older parses");
        assert_eq!(older.stats.quarantined, 0);
        // Records written when store counters were part of the line
        // still parse: unknown keys are ignored.
        let with_store = line.replace('}', ", \"store_hits\": 5}");
        assert!(RunnerRecord::parse_json_line(&with_store).is_some());
    }

    #[test]
    fn runner_json_merges_by_job_count() {
        let dir = std::env::temp_dir().join(format!("nuba_runner_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_runner.json");
        let path = path.to_str().unwrap();
        let mk = |jobs: usize, wall: f64, matrix_jobs: usize| RunnerRecord {
            nuba_jobs: jobs,
            wall_seconds: wall,
            stats: MatrixStats {
                jobs: matrix_jobs,
                cpu_seconds: wall,
                total_cycles: 1000 * matrix_jobs as u64,
                quarantined: 0,
            },
        };
        write_runner_json(path, mk(1, 10.0, 3)).unwrap();
        write_runner_json(path, mk(4, 4.0, 3)).unwrap();
        // Re-running at the same width replaces, not duplicates.
        write_runner_json(path, mk(4, 3.0, 3)).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(text.matches("\"nuba_jobs\": 4").count(), 1, "{text}");
        assert!(
            text.contains("\"parallel_speedup_vs_serial\": 3.33"),
            "{text}"
        );
        // A record of a different matrix replaces both, and no speedup
        // is computed across matrices.
        write_runner_json(path, mk(2, 2.0, 5)).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(text.matches("\"nuba_jobs\"").count(), 1, "{text}");
        assert!(text.contains("\"nuba_jobs\": 2, \"jobs\": 5"), "{text}");
        assert!(!text.contains("parallel_speedup_vs_serial"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
