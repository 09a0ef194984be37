//! Deterministic parallel execution of experiment matrices.
//!
//! Every figure binary replays an independent list of
//! (benchmark × configuration) simulations. This module expands such a
//! list into [`Job`]s and executes them on a [`std::thread::scope`]
//! work-stealing pool sized by the `NUBA_JOBS` environment knob
//! (default: available parallelism). Results come back in submission
//! order, so callers print byte-identical output to a serial loop.
//!
//! Determinism: each job builds its own [`Workload`] and
//! [`GpuSimulator`] from the job's seed — no state is shared between
//! jobs, so the schedule cannot leak into the simulation. The only
//! process-global state the simulator touches is the invariant counter
//! registry (`nuba_types::invariant`), which uses relaxed atomics and
//! only ever *counts* under the pool.
//!
//! Shared runner state — the warm-trace cache, the quarantine
//! registry, the optional on-disk [trace store](crate::store), and the
//! cancellation token — lives in an injectable [`RunnerCtx`].
//! Binaries keep calling the module-level [`run_matrix`]/[`finish`]
//! wrappers, which delegate to a process-wide environment-configured
//! context; servers and tests construct their own via
//! [`RunnerCtx::new`]/[`RunnerCtx::with_store`] and use
//! [`run_matrix_ctx`].
//!
//! Fault isolation and lifecycle: each job executes under
//! [`std::panic::catch_unwind`] with an optional per-job
//! forward-progress deadline, an optional *wall-clock* deadline
//! ([`Job::with_wall_deadline`] / `NUBA_JOB_DEADLINE_SECS`), and
//! `NUBA_JOB_RETRIES` retries separated by deterministic exponential
//! backoff (`NUBA_RETRY_BACKOFF_MS`). The timed window runs in chunks
//! (`run(a); run(b)` ≡ `run(a+b)`, proven by the session tests), so
//! cancellation is cooperative: between chunks a job checks the
//! context's [`CancelToken`] (tripped by Ctrl-C or
//! `NUBA_MATRIX_DEADLINE_SECS`) and its deadlines, and stops, keeping
//! no state. Every [`JobResult`]
//! carries a [`JobOutcome`]: quarantined failures and timeouts are
//! distinct from graceful cancellation, which is *not* a fault.
//! Binaries call [`finish`] last to print the quarantine summary; the
//! exit code is nonzero only under `NUBA_STRICT_FAULTS=1`, so chaos
//! drills don't fail CI unless explicitly asked to.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use nuba_core::telemetry::escape_json;
use nuba_core::{
    default_warm_accesses, first_touches, GpuSimulator, SimError, SimReport, TelemetryWindow,
    TraceRecord, NUM_STAGES, NUM_TIERS, STAGE_NAMES, TIER_NAMES,
};
use nuba_engine::FaultPlan;
use nuba_types::addr::PageNum;
use nuba_types::state::{fnv1a, StateValue, StateWriter};
use nuba_types::{GpuConfig, Histogram, MetricsRegistry, SmId};
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
    /// Wall-clock budget in seconds; past it the job stops and reports
    /// [`JobOutcome::TimedOut`].
    /// `None` falls back to `NUBA_JOB_DEADLINE_SECS` (itself usually
    /// unset — no wall deadline).
    pub wall_deadline_secs: Option<f64>,
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
            wall_deadline_secs: None,
            inject_panic: false,
        }
    }

    /// Override the workload scale (mirrors [`Harness::run_scaled`]).
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

    /// Give the job a wall-clock budget: once `secs` elapse, the job
    /// stops at the next chunk boundary and reports
    /// [`JobOutcome::TimedOut`] — a slow-but-live job can no longer
    /// burn wall-clock forever (the cycles-based watchdog only catches
    /// jobs that stop *retiring*).
    #[must_use]
    pub fn with_wall_deadline(mut self, secs: f64) -> Job {
        self.wall_deadline_secs = Some(secs);
        self
    }

    /// Make the job panic on entry (chaos drills only).
    #[must_use]
    pub fn with_injected_panic(mut self) -> Job {
        self.inject_panic = true;
        self
    }
}

/// How a job ended. `Cancelled` is a graceful drain, not a fault: it
/// is never quarantined and never fails the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// The timed window completed and the report is valid.
    Ok,
    /// The job failed (panic, validation, watchdog) after all retries
    /// and was quarantined.
    Failed,
    /// The matrix was cancelled (Ctrl-C, `NUBA_MATRIX_DEADLINE_SECS`)
    /// before or during this job; the report is empty but the job is
    /// *not* a fault.
    Cancelled,
    /// The job's wall-clock deadline elapsed; quarantined.
    TimedOut,
}

impl JobOutcome {
    /// Short stable string for summaries and `BENCH_runner.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            JobOutcome::Ok => "ok",
            JobOutcome::Failed => "failed",
            JobOutcome::Cancelled => "cancelled",
            JobOutcome::TimedOut => "timed_out",
        }
    }
}

/// One deterministic lifecycle event of a job, captured while it runs
/// and rendered post-run into the `NUBA_EVENTS` JSONL log. No
/// wall-clock content: every payload is a logical quantity (attempt
/// number, simulated cycle), so the rendered log is byte-identical
/// across worker counts and skip modes. `queued` and the outcome event
/// are synthesized at render time from the [`JobResult`] itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobEvent {
    /// An attempt began (`attempt` is 1-based).
    Started {
        /// 1-based attempt number.
        attempt: u32,
    },
    /// A failed attempt is being retried (`attempt` is the upcoming
    /// attempt's number).
    Retried {
        /// 1-based number of the attempt about to start.
        attempt: u32,
    },
}

/// A completed job with its throughput record.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's label.
    pub label: String,
    /// The simulation report ([`SimReport::empty`] unless the outcome
    /// is [`JobOutcome::Ok`]).
    pub report: SimReport,
    /// Wall-clock seconds this job took (build + warm + timed window,
    /// including failed attempts).
    pub wall_seconds: f64,
    /// Simulated cycles per wall-clock second (0 if quarantined).
    pub cycles_per_sec: f64,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// Why the job was quarantined; `None` on success or cancellation.
    pub error: Option<String>,
    /// Attempts consumed (1 + retries actually taken; 0 when cancelled
    /// before starting).
    pub attempts: u32,
    /// Windowed telemetry retained by the job's sampler (empty unless
    /// the job's config — or `NUBA_TIMESERIES` — enabled windowing, or
    /// the job was quarantined).
    pub windows: Vec<TelemetryWindow>,
    /// Completed request-lifecycle trace records (empty unless the
    /// job's config — or `NUBA_TRACE` — enabled tracing, or the job
    /// was quarantined).
    pub trace: Vec<TraceRecord>,
    /// Deterministic lifecycle events, in occurrence order (see
    /// [`JobEvent`]; `queued` and the outcome are synthesized at
    /// render time).
    pub events: Vec<JobEvent>,
    /// Wall-clock offset of the job's first attempt relative to the
    /// matrix start, in seconds. Feeds only the matrix Chrome trace —
    /// the one wall-clock-exempt artifact (DESIGN.md §16).
    pub start_offset_secs: f64,
    /// Wall-clock offset of each attempt's start relative to the
    /// matrix start (one entry per attempt; matrix-trace only).
    pub attempt_offsets_secs: Vec<f64>,
}

impl JobResult {
    /// Whether this job was quarantined instead of completing
    /// (failure or wall-clock timeout; a graceful cancellation is not
    /// a fault).
    pub fn failed(&self) -> bool {
        matches!(self.outcome, JobOutcome::Failed | JobOutcome::TimedOut)
    }

    /// Whether the matrix drained this job without running it to
    /// completion.
    pub fn cancelled(&self) -> bool {
        self.outcome == JobOutcome::Cancelled
    }
}

/// One quarantined job in the quarantine registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// The job's label.
    pub label: String,
    /// The panic message or [`SimError`] rendering that killed it.
    pub error: String,
    /// Attempts consumed before giving up.
    pub attempts: u32,
}

/// Cooperative cancellation flag shared by every job of a matrix.
/// Cloning shares the flag. [`is_cancelled`](CancelToken::is_cancelled)
/// also observes the process-wide Ctrl-C flag, so an interactive
/// interrupt drains *every* in-flight matrix gracefully (a second
/// Ctrl-C falls back to the default handler and kills the process).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-tripped token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trip the token. Returns `true` on the tripping call (callers
    /// use this to log the drain exactly once).
    pub fn cancel(&self) -> bool {
        !self.flag.swap(true, Ordering::SeqCst)
    }

    /// Whether this token — or the process-wide Ctrl-C flag — has been
    /// tripped.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst) || sigint_received()
    }
}

#[cfg(unix)]
mod sigint {
    //! Minimal SIGINT hook with no external dependencies: the handler
    //! sets an atomic flag (async-signal-safe) and restores the default
    //! disposition so a second Ctrl-C terminates immediately.
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Once;

    pub(super) static RECEIVED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;

    extern "C" {
        fn signal(signum: i32, handler: Option<extern "C" fn(i32)>) -> usize;
    }

    extern "C" fn on_sigint(_sig: i32) {
        RECEIVED.store(true, Ordering::SeqCst);
        // `None` is the NULL handler, i.e. SIG_DFL.
        unsafe {
            signal(SIGINT, None);
        }
    }

    pub(super) fn install() {
        static ONCE: Once = Once::new();
        ONCE.call_once(|| unsafe {
            signal(SIGINT, Some(on_sigint));
        });
    }
}

#[cfg(not(unix))]
mod sigint {
    use std::sync::atomic::AtomicBool;

    pub(super) static RECEIVED: AtomicBool = AtomicBool::new(false);

    pub(super) fn install() {}
}

/// Whether the process has received a Ctrl-C since the matrix started.
fn sigint_received() -> bool {
    sigint::RECEIVED.load(Ordering::SeqCst)
}

/// A workload's first-touch trace, shared by every job that forks from
/// it.
type Touches = Arc<[(PageNum, SmId)]>;

/// Everything the runner shares across the jobs of a matrix, made
/// injectable so servers and tests don't fight over process-globals
/// (ROADMAP item 3): the warm-trace cache, the quarantine registry,
/// the optional on-disk [trace store](crate::store), and the
/// cancellation token.
///
/// The module-level wrappers ([`run_matrix`], [`finish`],
/// [`quarantined_jobs`], …) delegate to the process-wide
/// environment-configured instance ([`global_ctx`]), so existing
/// binaries don't churn.
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
    /// Shared cancellation flag (Ctrl-C, matrix deadline).
    cancel: CancelToken,
}

impl RunnerCtx {
    /// A fresh context with no persistent store.
    pub fn new() -> RunnerCtx {
        RunnerCtx {
            warm: Mutex::new(HashMap::new()),
            quarantine: Mutex::new(Vec::new()),
            store: None,
            cancel: CancelToken::new(),
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

    /// The context's cancellation token (clone it into signal handlers
    /// or deadline watchers; cancelling drains the matrix gracefully).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
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

    /// Clear the quarantine registry (test isolation / multi-phase
    /// tools).
    pub fn reset_quarantine(&self) {
        self.quarantine
            .lock()
            .expect("quarantine registry poisoned")
            .clear();
    }

    /// Drop every cached first-touch trace (test isolation). The trace
    /// store on disk is untouched.
    pub fn reset_warm_cache(&self) {
        *self.warm.lock().expect("warm cache poisoned") = HashMap::new();
    }

    /// Print the quarantine summary (if any) and return the process
    /// exit code: nonzero only when jobs were quarantined *and*
    /// `NUBA_STRICT_FAULTS=1`. Graceful cancellations are reported but
    /// never gate.
    pub fn finish(&self) -> i32 {
        let q = self.quarantined_jobs();
        if q.is_empty() {
            return 0;
        }
        eprintln!("runner: {} job(s) quarantined:", q.len());
        for f in &q {
            eprintln!(
                "  QUARANTINED {:<28} after {} attempt(s): {}",
                f.label, f.attempts, f.error
            );
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
pub fn global_ctx() -> &'static RunnerCtx {
    static CTX: OnceLock<RunnerCtx> = OnceLock::new();
    CTX.get_or_init(RunnerCtx::from_env)
}

/// Snapshot of the global context's quarantine registry, sorted by job
/// label.
pub fn quarantined_jobs() -> Vec<JobFailure> {
    global_ctx().quarantined_jobs()
}

/// Clear the global context's quarantine registry (test isolation /
/// multi-phase tools).
pub fn reset_quarantine() {
    global_ctx().reset_quarantine()
}

/// Drop the global context's cached first-touch traces.
pub fn reset_warm_cache() {
    global_ctx().reset_warm_cache()
}

/// Retries per job after a failure: `NUBA_JOB_RETRIES`, default 0.
pub fn job_retries() -> u32 {
    HarnessOptions::get().job_retries
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

/// Sampling defaults when telemetry is switched on from the
/// environment rather than the job's own config: 1000-cycle windows
/// and 1-in-64 request tracing. Fixed constants (not wall-clock or
/// machine dependent) so the exported artifacts stay byte-identical
/// across worker counts.
const ENV_WINDOW_CYCLES: u64 = 1000;
const ENV_TRACE_PERIOD: u64 = 64;

/// Cycles between cooperative cancellation/deadline checks.
/// `run(a); run(b)` ≡ `run(a+b)` (session tests), so chunking never
/// changes results — it only bounds how stale a cancellation check can
/// get.
const CANCEL_CHUNK: u64 = 8192;

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
    cfg.sim_active_warps
        .min(cfg.warps_per_sm)
        .max(1)
        .put(&mut id);
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

/// Why a job attempt stopped short of a report.
enum JobAbort {
    /// The simulation failed (validation, watchdog); retryable.
    Sim(SimError),
    /// The matrix is draining; not a fault, never retried.
    Cancelled,
    /// The job's wall-clock deadline elapsed; quarantined, never
    /// retried (the budget is already spent).
    TimedOut,
}

/// Everything a chunked timed window needs to cooperate with
/// cancellation and deadlines.
struct DetailedWindow<'a> {
    ctx: &'a RunnerCtx,
    /// Absolute cycle the timed window ends at (`Harness::cycles`).
    end_cycle: u64,
    job_deadline: Option<Instant>,
    matrix_deadline: Option<Instant>,
}

impl DetailedWindow<'_> {
    /// Cooperative gate between chunks: cancellation, matrix deadline,
    /// job wall deadline.
    fn gate(&self) -> Result<(), JobAbort> {
        if self.ctx.cancel.is_cancelled() {
            return Err(JobAbort::Cancelled);
        }
        if self.matrix_deadline.is_some_and(|d| Instant::now() >= d) {
            if self.ctx.cancel.cancel() {
                eprintln!("runner: NUBA_MATRIX_DEADLINE_SECS exceeded — draining matrix");
            }
            return Err(JobAbort::Cancelled);
        }
        if self.job_deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(JobAbort::TimedOut);
        }
        Ok(())
    }

    /// Run the window to `end_cycle` in chunks. Warm-up leaves the clock
    /// at 0, so chunked and straight-through runs retire byte-identical
    /// reports; chunking only makes cancellation and wall deadlines
    /// cooperative.
    fn run(&self, gpu: &mut GpuSimulator) -> Result<SimReport, JobAbort> {
        loop {
            self.gate()?;
            let remaining = self.end_cycle.saturating_sub(gpu.cycle());
            if remaining == 0 {
                return Ok(gpu.report());
            }
            let chunk = remaining.min(CANCEL_CHUNK);
            let r = gpu.run(chunk).map_err(JobAbort::Sim)?;
            if remaining <= chunk {
                return Ok(r);
            }
        }
    }
}

/// What a successful attempt hands back: the report and the job's
/// retained telemetry.
struct JobOutput {
    report: SimReport,
    windows: Vec<TelemetryWindow>,
    trace: Vec<TraceRecord>,
}

/// One attempt at a job: build, warm, arm faults/watchdog, run. Every
/// failure mode surfaces as `Err` (validation, watchdog, cancellation,
/// wall deadline) or a panic (workload/config mismatch, internal bug)
/// — the caller catches both. A retry starts over from warm-up.
fn execute_job(
    ctx: &RunnerCtx,
    h: &Harness,
    job: &Job,
    job_deadline: Option<Instant>,
    matrix_deadline: Option<Instant>,
) -> Result<JobOutput, JobAbort> {
    let win = DetailedWindow {
        ctx,
        end_cycle: h.cycles,
        job_deadline,
        matrix_deadline,
    };
    // A job drained or out of budget before it starts builds nothing
    // and writes nothing to the trace store.
    win.gate()?;
    let opts = HarnessOptions::get();
    let scale = job.scale.unwrap_or(h.scale);
    let seed = job.seed.unwrap_or(h.seed);
    let mut cfg = job.cfg.clone();
    cfg.seed = seed;
    if cfg.page_bytes != scale.page_bytes {
        cfg.page_bytes = scale.page_bytes;
    }
    // `NUBA_TIMESERIES` / `NUBA_TRACE` switch telemetry on for every
    // job in the matrix without touching the binaries; jobs whose
    // config already enables a pillar keep their own knobs.
    if opts.timeseries.is_some() {
        cfg.telemetry.window_cycles.get_or_insert(ENV_WINDOW_CYCLES);
    }
    if opts.trace.is_some() && cfg.telemetry.trace_sample_period == 0 {
        cfg.telemetry.trace_sample_period = ENV_TRACE_PERIOD;
    }
    let wl = Workload::build(job.bench, scale, cfg.num_sms, seed);
    // The fault plan and watchdog are armed after warm-up, which only
    // faults pages in: faulted jobs share the warm path.
    let mut gpu = warmed_simulator(ctx, job.bench, &cfg, &wl).map_err(JobAbort::Sim)?;
    if let Some(plan) = &job.faults {
        gpu.set_fault_plan(plan);
    }
    if let Some(deadline) = job.deadline {
        gpu.set_watchdog(Some(deadline));
    }
    if job.inject_panic {
        panic!("injected chaos panic (Job::with_injected_panic)");
    }
    let report = win.run(&mut gpu)?;
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

/// Deterministic exponential backoff before retry `attempt + 1`:
/// `base << (attempt - 1)` milliseconds, capped at 5 s. Depends only
/// on the attempt number, never on a clock or RNG. `base == 0`
/// disables the sleep (attempts still count).
fn backoff_sleep(base_ms: u64, attempt: u32) {
    if base_ms == 0 {
        return;
    }
    let shift = attempt.saturating_sub(1).min(16);
    let ms = base_ms.saturating_mul(1u64 << shift).min(5_000);
    std::thread::sleep(Duration::from_millis(ms));
}

/// Lifecycle observations accumulated while a job ran: the
/// deterministic events for the log plus the wall-clock offsets that
/// feed only the matrix trace.
struct Lifecycle {
    events: Vec<JobEvent>,
    start_offset_secs: f64,
    attempt_offsets_secs: Vec<f64>,
}

/// A [`JobResult`] for a job that never produced a report.
fn empty_result(
    job: &Job,
    outcome: JobOutcome,
    error: Option<String>,
    attempts: u32,
    start: Instant,
    lifecycle: Lifecycle,
) -> JobResult {
    JobResult {
        label: job.label.clone(),
        report: SimReport::empty(),
        wall_seconds: start.elapsed().as_secs_f64(),
        cycles_per_sec: 0.0,
        outcome,
        error,
        attempts,
        windows: Vec::new(),
        trace: Vec::new(),
        events: lifecycle.events,
        start_offset_secs: lifecycle.start_offset_secs,
        attempt_offsets_secs: lifecycle.attempt_offsets_secs,
    }
}

/// Execute one job exactly as [`Harness::run`] / [`Harness::run_scaled`]
/// would, timing it. Panics and [`SimError`]s are caught; after
/// `NUBA_JOB_RETRIES` retries (with deterministic backoff between
/// attempts) the job is quarantined instead of taking the matrix down.
/// Cancellation and wall-clock timeouts break out immediately — a
/// drained or budget-exhausted job is never retried.
fn run_job(
    ctx: &RunnerCtx,
    h: &Harness,
    job: &Job,
    matrix_deadline: Option<Instant>,
    matrix_start: Instant,
) -> JobResult {
    let opts = HarnessOptions::get();
    let retries = job_retries();
    let start = Instant::now();
    let start_offset_secs = start.duration_since(matrix_start).as_secs_f64();
    // Claimed after the matrix started draining: report the job as
    // cancelled without touching the simulator.
    if ctx.cancel.is_cancelled() || matrix_deadline.is_some_and(|d| Instant::now() >= d) {
        ctx.cancel.cancel();
        return empty_result(
            job,
            JobOutcome::Cancelled,
            None,
            0,
            start,
            Lifecycle {
                events: Vec::new(),
                start_offset_secs,
                attempt_offsets_secs: Vec::new(),
            },
        );
    }
    let deadline_secs = job.wall_deadline_secs.or(opts.job_deadline_secs);
    let job_deadline = deadline_secs.map(|s| start + Duration::from_secs_f64(s.max(0.0)));
    let mut attempts = 0u32;
    let mut events: Vec<JobEvent> = Vec::new();
    let mut attempt_offsets: Vec<f64> = Vec::new();
    let (outcome, error) = loop {
        attempts += 1;
        events.push(if attempts == 1 {
            JobEvent::Started { attempt: attempts }
        } else {
            JobEvent::Retried { attempt: attempts }
        });
        attempt_offsets.push(Instant::now().duration_since(matrix_start).as_secs_f64());
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_job(ctx, h, job, job_deadline, matrix_deadline)
        }));
        match attempt {
            Ok(Ok(out)) => {
                let wall_seconds = start.elapsed().as_secs_f64();
                let cycles_per_sec = out.report.cycles as f64 / wall_seconds.max(1e-9);
                return JobResult {
                    label: job.label.clone(),
                    report: out.report,
                    wall_seconds,
                    cycles_per_sec,
                    outcome: JobOutcome::Ok,
                    error: None,
                    attempts,
                    windows: out.windows,
                    trace: out.trace,
                    events,
                    start_offset_secs,
                    attempt_offsets_secs: attempt_offsets,
                };
            }
            Ok(Err(JobAbort::Cancelled)) => break (JobOutcome::Cancelled, None),
            Ok(Err(JobAbort::TimedOut)) => {
                break (
                    JobOutcome::TimedOut,
                    Some(format!(
                        "wall-clock deadline exceeded (budget {:.1}s)",
                        deadline_secs.unwrap_or(0.0)
                    )),
                );
            }
            Ok(Err(JobAbort::Sim(e))) => {
                if attempts <= retries {
                    backoff_sleep(opts.retry_backoff_ms, attempts);
                    continue;
                }
                break (JobOutcome::Failed, Some(e.to_string()));
            }
            Err(payload) => {
                if attempts <= retries {
                    backoff_sleep(opts.retry_backoff_ms, attempts);
                    continue;
                }
                break (
                    JobOutcome::Failed,
                    Some(format!("panic: {}", panic_message(payload.as_ref()))),
                );
            }
        }
    };
    if matches!(outcome, JobOutcome::Failed | JobOutcome::TimedOut) {
        ctx.quarantine(JobFailure {
            label: job.label.clone(),
            error: error.clone().unwrap_or_default(),
            attempts,
        });
    }
    empty_result(
        job,
        outcome,
        error,
        attempts,
        start,
        Lifecycle {
            events,
            start_offset_secs,
            attempt_offsets_secs: attempt_offsets,
        },
    )
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

/// Run an experiment matrix under an explicit [`RunnerCtx`].
pub fn run_matrix_ctx(ctx: &RunnerCtx, h: &Harness, jobs: &[Job]) -> Vec<JobResult> {
    run_matrix_ctx_with(ctx, h, jobs, num_jobs())
}

/// [`run_matrix_ctx`] with an explicit worker count.
pub fn run_matrix_ctx_with(
    ctx: &RunnerCtx,
    h: &Harness,
    jobs: &[Job],
    threads: usize,
) -> Vec<JobResult> {
    // Advisory stage: the static analytical screen, opt-in via
    // `NUBA_SCREEN=1` and guaranteed inert (not a byte of output, no
    // simulation effect) otherwise.
    crate::screen::print_screen_if_enabled(h, jobs);
    // First Ctrl-C drains the matrix (jobs stop at a chunk edge), a
    // second one kills the process via the restored default handler.
    sigint::install();
    let matrix_start = Instant::now();
    let matrix_deadline = HarnessOptions::get()
        .matrix_deadline_secs
        .map(|s| matrix_start + Duration::from_secs_f64(s.max(0.0)));
    let results = run_jobs(jobs.len(), threads, |i| {
        run_job(ctx, h, &jobs[i], matrix_deadline, matrix_start)
    });
    let drained = results.iter().filter(|r| r.cancelled()).count();
    if drained > 0 {
        eprintln!(
            "runner: matrix drained — {drained} of {} job(s) cancelled gracefully",
            results.len()
        );
    }
    results
}

/// Render every job's retained telemetry windows as JSONL, one line
/// per window, jobs in submission order. Deterministic: the content
/// depends only on the simulations, never on the schedule or clock.
pub fn render_timeseries(results: &[JobResult]) -> String {
    let mut out = String::new();
    for (job_idx, r) in results.iter().enumerate() {
        for (w_idx, w) in r.windows.iter().enumerate() {
            out.push_str(&w.jsonl_line(&r.label, job_idx, w_idx));
            out.push('\n');
        }
    }
    out
}

/// Render every job's completed lifecycle records as one Chrome
/// `trace_event` JSON object (load it at `chrome://tracing` or in
/// Perfetto). `pid` is the job's submission index, `tid` the SM, and
/// timestamps are simulated cycles presented as microseconds.
/// Deterministic for the same reason as [`render_timeseries`].
pub fn render_trace(results: &[JobResult]) -> String {
    let mut events: Vec<String> = Vec::new();
    for (job_idx, r) in results.iter().enumerate() {
        for rec in &r.trace {
            events.extend(rec.trace_events(job_idx, &r.label));
        }
    }
    if events.is_empty() {
        return "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}\n".to_string();
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Render the matrix's structured event log as JSONL: one lifecycle
/// event per line, jobs in submission order, with a synthesized
/// monotonic `seq`. For each job: `queued`, then the captured
/// [`JobEvent`]s (started / retried), then the outcome (`ok` /
/// `failed` / `cancelled` / `timed_out`, with `quarantined` set on
/// faults). No wall-clock fields anywhere, so the log is
/// byte-identical across worker counts and skip modes.
pub fn render_event_log(results: &[JobResult]) -> String {
    let mut out = String::new();
    let mut seq = 0u64;
    let line = |out: &mut String, seq: &mut u64, body: String| {
        out.push_str(&format!("{{\"seq\":{},{body}}}\n", *seq));
        *seq += 1;
    };
    for (job_idx, r) in results.iter().enumerate() {
        let ident = format!(
            "\"job\":\"{}\",\"job_index\":{job_idx}",
            escape_json(&r.label)
        );
        line(&mut out, &mut seq, format!("\"event\":\"queued\",{ident}"));
        for ev in &r.events {
            let body = match ev {
                JobEvent::Started { attempt } => {
                    format!("\"event\":\"started\",{ident},\"attempt\":{attempt}")
                }
                JobEvent::Retried { attempt } => {
                    format!("\"event\":\"retried\",{ident},\"attempt\":{attempt}")
                }
            };
            line(&mut out, &mut seq, body);
        }
        let mut body = format!(
            "\"event\":\"{}\",{ident},\"attempts\":{},\"cycles\":{}",
            r.outcome.as_str(),
            r.attempts,
            r.report.cycles
        );
        if r.failed() {
            body.push_str(",\"quarantined\":true");
        }
        if let Some(e) = &r.error {
            body.push_str(&format!(",\"error\":\"{}\"", escape_json(e)));
        }
        line(&mut out, &mut seq, body);
    }
    out
}

/// Render the matrix-level Chrome trace: one span per job (pid 0,
/// tid = submission index) and one nested span per retry attempt.
/// This is the single artifact that carries wall-clock timestamps —
/// explicitly exempt from the byte-determinism contract, because its
/// whole point is to show the real schedule (who ran when, where the
/// retries went). Load at `chrome://tracing` or in Perfetto.
pub fn render_matrix_trace(results: &[JobResult]) -> String {
    let mut events: Vec<String> = Vec::new();
    let us = |secs: f64| (secs * 1e6).round().max(0.0) as u64;
    for (job_idx, r) in results.iter().enumerate() {
        events.push(format!(
            concat!(
                "{{\"name\":\"{}\",\"cat\":\"job\",\"ph\":\"X\",",
                "\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},",
                "\"args\":{{\"outcome\":\"{}\",\"attempts\":{},\"cycles\":{}}}}}"
            ),
            escape_json(&r.label),
            us(r.start_offset_secs),
            us(r.wall_seconds),
            job_idx,
            r.outcome.as_str(),
            r.attempts,
            r.report.cycles,
        ));
        let end = r.start_offset_secs + r.wall_seconds;
        for (i, &at) in r.attempt_offsets_secs.iter().enumerate() {
            let next = r.attempt_offsets_secs.get(i + 1).copied().unwrap_or(end);
            events.push(format!(
                concat!(
                    "{{\"name\":\"attempt {}\",\"cat\":\"attempt\",\"ph\":\"X\",",
                    "\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{}}}"
                ),
                i + 1,
                us(at),
                us((next - at).max(0.0)),
                job_idx,
            ));
        }
    }
    if events.is_empty() {
        return "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}\n".to_string();
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Fold a matrix's results into a [`MetricsRegistry`] for the
/// `NUBA_METRICS` Prometheus dump: job outcome counts, attempt and
/// cycle totals, and the per-tier / per-stage latency histograms
/// merged across jobs. Deliberately no wall-clock values — the dump is
/// part of the deterministic artifact set.
pub fn build_matrix_registry(results: &[JobResult]) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    let stats = MatrixStats::of(results);
    reg.counter_add("nuba_jobs_total", stats.jobs as u64);
    reg.counter_add("nuba_jobs_quarantined_total", stats.quarantined as u64);
    reg.counter_add("nuba_jobs_cancelled_total", stats.cancelled as u64);
    reg.counter_add("nuba_jobs_timed_out_total", stats.timed_out as u64);
    reg.counter_add(
        "nuba_jobs_ok_total",
        results
            .iter()
            .filter(|r| r.outcome == JobOutcome::Ok)
            .count() as u64,
    );
    reg.counter_add(
        "nuba_job_attempts_total",
        results.iter().map(|r| u64::from(r.attempts)).sum(),
    );
    reg.counter_add("nuba_cycles_total", stats.total_cycles);
    reg.counter_add(
        "nuba_warp_ops_total",
        results.iter().map(|r| r.report.warp_ops).sum(),
    );
    let mut tiers = [Histogram::new(); NUM_TIERS];
    let mut stages = [Histogram::new(); NUM_STAGES];
    for r in results {
        for (acc, h) in tiers.iter_mut().zip(r.report.latency.tiers.iter()) {
            acc.merge(h);
        }
        for (acc, h) in stages.iter_mut().zip(r.report.latency.stages.iter()) {
            acc.merge(h);
        }
    }
    for (i, h) in tiers.iter().enumerate() {
        if !h.is_empty() {
            *reg.histogram_mut(&format!("nuba_read_latency_cycles_{}", TIER_NAMES[i])) = *h;
        }
    }
    for (i, h) in stages.iter().enumerate() {
        if !h.is_empty() {
            *reg.histogram_mut(&format!("nuba_stage_delay_cycles_{}", STAGE_NAMES[i])) = *h;
        }
    }
    reg
}

/// Write the matrix's telemetry artifacts to the paths named by
/// `NUBA_TIMESERIES` (windowed JSONL), `NUBA_TRACE` (Chrome lifecycle
/// trace), `NUBA_EVENTS` (harness event log JSONL), `NUBA_MATRIX_TRACE`
/// (matrix-level Chrome trace), and `NUBA_METRICS` (Prometheus text
/// dump). No-op when none are set. Write failures warn on stderr
/// rather than failing the run — observability must never take an
/// otherwise-healthy matrix down.
pub fn write_telemetry_outputs(results: &[JobResult]) {
    let opts = HarnessOptions::get();
    let write = |path: &str, what: &str, content: String| match std::fs::write(path, content) {
        Ok(()) => eprintln!("runner: wrote {what} to {path}"),
        Err(e) => eprintln!("runner: cannot write {what} {path}: {e}"),
    };
    if let Some(path) = &opts.timeseries {
        write(path, "windowed telemetry", render_timeseries(results));
    }
    if let Some(path) = &opts.trace {
        write(path, "lifecycle trace", render_trace(results));
    }
    if let Some(path) = &opts.events {
        write(path, "event log", render_event_log(results));
    }
    if let Some(path) = &opts.matrix_trace {
        write(path, "matrix trace", render_matrix_trace(results));
    }
    if let Some(path) = &opts.metrics {
        write(
            path,
            "metrics dump",
            build_matrix_registry(results).render_prometheus(),
        );
    }
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
    /// Jobs that were quarantined instead of completing (failures and
    /// wall-clock timeouts).
    pub quarantined: usize,
    /// Jobs drained gracefully by cancellation (not faults).
    pub cancelled: usize,
    /// Jobs that exceeded their wall-clock deadline (subset of
    /// `quarantined`).
    pub timed_out: usize,
}

impl MatrixStats {
    /// Summarize a result set.
    pub fn of(results: &[JobResult]) -> MatrixStats {
        MatrixStats {
            jobs: results.len(),
            cpu_seconds: results.iter().map(|r| r.wall_seconds).sum(),
            total_cycles: results.iter().map(|r| r.report.cycles).sum(),
            quarantined: results.iter().filter(|r| r.failed()).count(),
            cancelled: results.iter().filter(|r| r.cancelled()).count(),
            timed_out: results
                .iter()
                .filter(|r| r.outcome == JobOutcome::TimedOut)
                .count(),
        }
    }

    /// Fold another matrix into this aggregate.
    pub fn absorb(&mut self, other: MatrixStats) {
        self.jobs += other.jobs;
        self.cpu_seconds += other.cpu_seconds;
        self.total_cycles += other.total_cycles;
        self.quarantined += other.quarantined;
        self.cancelled += other.cancelled;
        self.timed_out += other.timed_out;
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
             \"cancelled\": {}, \"timed_out\": {}, \
             \"wall_seconds\": {:.3}, \"cpu_seconds\": {:.3}, \
             \"total_cycles\": {}, \
             \"cycles_per_sec\": {:.0}}}",
            self.nuba_jobs,
            self.stats.jobs,
            self.stats.quarantined,
            self.stats.cancelled,
            self.stats.timed_out,
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
                // Absent in records written before fault quarantine /
                // lifecycle outcomes landed.
                quarantined: field("quarantined").map(|v| v as usize).unwrap_or(0),
                cancelled: field("cancelled").map(|v| v as usize).unwrap_or(0),
                timed_out: field("timed_out").map(|v| v as usize).unwrap_or(0),
            },
        })
    }
}

/// Write (or merge into) `path` the throughput record of this run.
///
/// The file keeps one record per distinct `nuba_jobs` value, so running
/// `all_experiments` at `NUBA_JOBS=1` and again at `NUBA_JOBS=4` leaves
/// both records side by side plus the parallel speedup versus the
/// serial record — the perf-trajectory evidence the roadmap asks for.
pub fn write_runner_json(path: &str, record: RunnerRecord) -> std::io::Result<()> {
    let mut records: Vec<RunnerRecord> = std::fs::read_to_string(path)
        .map(|old| {
            old.lines()
                .filter_map(RunnerRecord::parse_json_line)
                .filter(|r| r.nuba_jobs != record.nuba_jobs)
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
    fn wall_deadline_times_out_and_quarantines() {
        let h = tiny_harness();
        let cfg = GpuConfig::paper_baseline(nuba_types::ArchKind::Nuba);
        let job = Job::new("chaos-slow", BenchmarkId::Kmeans, cfg).with_wall_deadline(0.0);
        let ctx = RunnerCtx::new();
        let results = run_matrix_ctx_with(&ctx, &h, &[job], 1);
        assert_eq!(results[0].outcome, JobOutcome::TimedOut);
        assert!(results[0].failed(), "timeouts count as faults");
        assert!(
            results[0]
                .error
                .as_deref()
                .unwrap()
                .contains("wall-clock deadline"),
            "{:?}",
            results[0].error
        );
        assert_eq!(results[0].attempts, 1, "budget spent — never retried");
        assert!(ctx
            .quarantined_jobs()
            .iter()
            .any(|f| f.label == "chaos-slow"));
        let stats = MatrixStats::of(&results);
        assert_eq!((stats.quarantined, stats.timed_out), (1, 1));
    }

    #[test]
    fn cancelled_matrix_drains_without_faults() {
        let h = tiny_harness();
        let cfg = GpuConfig::paper_baseline(nuba_types::ArchKind::Nuba);
        let jobs = vec![
            Job::new("drain-a", BenchmarkId::Kmeans, cfg.clone()),
            Job::new("drain-b", BenchmarkId::Kmeans, cfg),
        ];
        let ctx = RunnerCtx::new();
        ctx.cancel_token().cancel();
        let results = run_matrix_ctx_with(&ctx, &h, &jobs, 2);
        assert_eq!(results.len(), 2, "pending jobs still report");
        for r in &results {
            assert_eq!(r.outcome, JobOutcome::Cancelled);
            assert!(r.cancelled());
            assert!(!r.failed(), "cancellation is not a fault");
            assert!(r.error.is_none());
            assert_eq!(r.attempts, 0);
        }
        assert!(
            ctx.quarantined_jobs().is_empty(),
            "drained jobs never quarantine"
        );
        assert_eq!(ctx.finish(), 0, "graceful drain exits clean");
        let stats = MatrixStats::of(&results);
        assert_eq!((stats.cancelled, stats.quarantined), (2, 0));
    }

    #[test]
    fn cancel_token_trips_once() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.cancel(), "first cancel trips");
        assert!(!t.cancel(), "second cancel is a no-op");
        assert!(t.is_cancelled());
        assert!(t.clone().is_cancelled(), "clones share the flag");
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        // Pure function of (base, attempt): probe the schedule via the
        // same arithmetic backoff_sleep uses, without sleeping.
        let ms = |base: u64, attempt: u32| -> u64 {
            let shift = attempt.saturating_sub(1).min(16);
            base.saturating_mul(1u64 << shift).min(5_000)
        };
        assert_eq!(ms(100, 1), 100);
        assert_eq!(ms(100, 2), 200);
        assert_eq!(ms(100, 3), 400);
        assert_eq!(ms(100, 7), 5_000, "capped at 5s");
        assert_eq!(ms(100, 60), 5_000, "shift saturates");
    }

    #[test]
    fn event_log_has_monotonic_seq_and_outcomes() {
        let h = tiny_harness();
        let cfg = GpuConfig::paper_baseline(nuba_types::ArchKind::Nuba);
        let jobs = vec![
            Job::new("ev-ok", BenchmarkId::Kmeans, cfg.clone()),
            Job::new("ev-panic", BenchmarkId::Kmeans, cfg).with_injected_panic(),
        ];
        let ctx = RunnerCtx::new();
        let results = run_matrix_ctx_with(&ctx, &h, &jobs, 2);
        let log = render_event_log(&results);
        let lines: Vec<&str> = log.lines().collect();
        // queued + started + outcome per job.
        assert_eq!(lines.len(), 6, "{log}");
        for (i, l) in lines.iter().enumerate() {
            assert!(l.starts_with(&format!("{{\"seq\":{i},")), "{l}");
            assert!(l.ends_with('}'), "{l}");
        }
        assert!(lines[0].contains("\"event\":\"queued\"") && lines[0].contains("\"ev-ok\""));
        assert!(lines[1].contains("\"event\":\"started\"") && lines[1].contains("\"attempt\":1"));
        assert!(lines[2].contains("\"event\":\"ok\"") && lines[2].contains("\"attempts\":1"));
        assert!(
            lines[5].contains("\"event\":\"failed\"")
                && lines[5].contains("\"quarantined\":true")
                && lines[5].contains("injected chaos panic"),
            "{}",
            lines[5]
        );
    }

    #[test]
    fn matrix_trace_nests_attempts_under_jobs() {
        let h = tiny_harness();
        let cfg = GpuConfig::paper_baseline(nuba_types::ArchKind::Nuba);
        let ctx = RunnerCtx::new();
        let results = run_matrix_ctx_with(
            &ctx,
            &h,
            &[Job::new("trace-job", BenchmarkId::Kmeans, cfg)],
            1,
        );
        let trace = render_matrix_trace(&results);
        assert!(trace.contains("\"name\":\"trace-job\""), "{trace}");
        assert!(trace.contains("\"cat\":\"job\""));
        assert!(trace.contains("\"name\":\"attempt 1\""));
        assert!(trace.contains("\"cat\":\"attempt\""));
        assert!(trace.ends_with("],\"displayTimeUnit\":\"ms\"}\n"));
        assert_eq!(
            render_matrix_trace(&[]),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}\n"
        );
    }

    #[test]
    fn matrix_registry_counts_outcomes_and_latency() {
        let h = tiny_harness();
        let cfg = GpuConfig::paper_baseline(nuba_types::ArchKind::Nuba);
        let ctx = RunnerCtx::new();
        let results = run_matrix_ctx_with(
            &ctx,
            &h,
            &[Job::new("reg-job", BenchmarkId::Kmeans, cfg)],
            1,
        );
        let reg = build_matrix_registry(&results);
        assert_eq!(reg.counter("nuba_jobs_total"), 1);
        assert_eq!(reg.counter("nuba_jobs_ok_total"), 1);
        assert_eq!(reg.counter("nuba_cycles_total"), results[0].report.cycles);
        // The run delivered read replies, so at least one tier
        // histogram must be populated and folded into the dump.
        let replies: u64 = results[0]
            .report
            .latency
            .tiers
            .iter()
            .map(|h| h.count())
            .sum();
        assert!(replies > 0, "tier histograms populated");
        let text = reg.render_prometheus();
        assert!(text.contains("nuba_read_latency_cycles_"), "{text}");
        assert!(
            !text.contains("wall"),
            "no wall-clock values in the deterministic dump"
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
                cancelled: 1,
                timed_out: 1,
            },
        };
        let line = rec.to_json_line();
        let back = RunnerRecord::parse_json_line(&line).expect("parses");
        assert_eq!(back.nuba_jobs, 4);
        assert_eq!(back.stats.jobs, 7);
        assert_eq!(back.stats.total_cycles, 420_000);
        assert_eq!(back.stats.cancelled, 1);
        assert_eq!(back.stats.timed_out, 1);
        assert!((back.wall_seconds - 12.345).abs() < 1e-9);

        // Records written before lifecycle outcomes parse with zeros.
        let legacy = "    {\"nuba_jobs\": 2, \"jobs\": 3, \"quarantined\": 0, \
                      \"wall_seconds\": 1.000, \"cpu_seconds\": 2.000, \
                      \"total_cycles\": 100, \"cycles_per_sec\": 100}";
        let old = RunnerRecord::parse_json_line(legacy).expect("legacy parses");
        assert_eq!((old.stats.cancelled, old.stats.timed_out), (0, 0));
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
        let mk = |jobs: usize, wall: f64| RunnerRecord {
            nuba_jobs: jobs,
            wall_seconds: wall,
            stats: MatrixStats {
                jobs: 3,
                cpu_seconds: wall,
                total_cycles: 1000,
                quarantined: 0,
                cancelled: 0,
                timed_out: 0,
            },
        };
        write_runner_json(path, mk(1, 10.0)).unwrap();
        write_runner_json(path, mk(4, 4.0)).unwrap();
        // Re-running at the same width replaces, not duplicates.
        write_runner_json(path, mk(4, 3.0)).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(text.matches("\"nuba_jobs\": 4").count(), 1, "{text}");
        assert!(
            text.contains("\"parallel_speedup_vs_serial\": 3.33"),
            "{text}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
