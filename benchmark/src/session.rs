//! The four workloads that drive one `SimSession`: a round is one
//! job as a figure binary runs it — `Workload::build`, build the
//! session, warm, a timed window in chunks, report — and rounds repeat
//! for the measuring time. Every round simulates exactly the same
//! cycles, so simulated counters do not depend on the host's speed and
//! each chunk has one host-time sample per round.

use std::time::Instant;

use nuba_core::{Checkpoint, SimError, SimReport, SimSession};
use nuba_types::{ArchKind, GpuConfig, TelemetryConfig};
use nuba_workloads::{BenchmarkId, ScaleProfile, Workload};

use crate::outcome::{shares_sum_to_one, sim_metrics, Checks, Opts, Outcome};
use crate::span::Recorder;
use crate::stats::{digest_of, median, steady_units, tail_percentile};
use crate::{host, names, probes};

/// Chunks per timed window: one `us_per_cycle` sample each, and the
/// fewest that leave ten samples beyond the 90th percentile.
const CHUNKS: usize = 100;
const MIN_ROUNDS: usize = 2;
/// Chunks run before, and again after, the checkpoint round-trip.
const SNAPSHOT_CHUNKS: u64 = 10;
/// Chunks each side of the telemetry differential runs.
const DIFF_CHUNKS: usize = 20;

/// One session workload: what it simulates and for how long.
pub struct Shape {
    bench: BenchmarkId,
    config: fn() -> GpuConfig,
    /// Simulated cycles per chunk.
    chunk_cycles: u64,
    /// Whether the 64-SM machine is busy every cycle (the three
    /// `dense_*` workloads); the telemetry differential runs on these.
    dense: bool,
}

fn nuba() -> GpuConfig {
    GpuConfig::paper_baseline(ArchKind::Nuba)
}

fn uba() -> GpuConfig {
    GpuConfig::paper_baseline(ArchKind::MemSideUba)
}

fn one_warp() -> GpuConfig {
    nuba().scaled(1.0 / 64.0).with_active_warps(1)
}

pub fn shape(name: &str) -> Option<Shape> {
    let (bench, config, chunk_cycles, dense): (_, fn() -> GpuConfig, _, _) = match name {
        "dense_stream_nuba" => (BenchmarkId::Lbm, nuba, 400, true),
        "dense_shared_uba" => (BenchmarkId::Bicg, uba, 400, true),
        "dense_shared_nuba" => (BenchmarkId::Bicg, nuba, 400, true),
        "idle_latency" => (BenchmarkId::BTree, one_warp, 600_000, false),
        _ => return None,
    };
    Some(Shape {
        bench,
        config,
        chunk_cycles,
        dense,
    })
}

/// A built and warmed session, with what each step of set-up cost.
struct Ready {
    session: SimSession,
    workload: Workload,
    /// `workloads.build`, `core.build`, `core.warm`, in seconds.
    steps: [f64; 3],
}

fn set_up(shape: &Shape, cfg: GpuConfig, seed: u64, rec: &mut Recorder) -> Result<Ready, SimError> {
    let open = rec.enter("setup");
    let (workload, build_s) = rec.call("workloads.build", || {
        Workload::build(shape.bench, ScaleProfile::default(), cfg.num_sms, seed)
    });
    let (built, core_build_s) = rec.call("core.build", || {
        SimSession::builder(cfg, workload.clone()).build()
    });
    let warmed = built.map(|mut session| {
        let ((), warm_s) = rec.call("core.warm", || session.warm());
        Ready {
            session,
            workload,
            steps: [build_s, core_build_s, warm_s],
        }
    });
    rec.exit(open);
    warmed
}

/// Time fresh set-ups before the rounds begin, so `setup_s` is the
/// median of many: at least eight, then until a quarter of a second has
/// gone into them or two hundred are done. A set-up of a millisecond
/// gets the two hundred; one of 60 ms gets the eight. A quick run makes
/// one.
fn repeat_set_up<T>(opts: &Opts, mut set_up: impl FnMut() -> Option<T>) -> Vec<T> {
    let started = Instant::now();
    let mut samples = Vec::new();
    for done in 0..200 {
        if opts.quick && done >= 1 || done >= 8 && started.elapsed().as_secs_f64() >= 0.25 {
            break;
        }
        samples.extend(set_up());
    }
    samples
}

/// One round's measurements.
struct Round {
    steps: [f64; 3],
    /// Host seconds of each chunk.
    chunks: Vec<f64>,
    report: SimReport,
    report_s: f64,
    /// Cycles the simulator stepped in detail (the rest were skipped).
    stepped: u64,
}

fn round(
    shape: &Shape,
    opts: &Opts,
    chunk_cycles: u64,
    rec: &mut Recorder,
    checks: &mut Checks,
) -> Option<Round> {
    let job = rec.enter("workload");
    let ready = set_up(shape, (shape.config)().with_seed(opts.seed), opts.seed, rec);
    checks.result("set-up", &ready);
    let mut done = None;
    if let Ok(Ready {
        mut session, steps, ..
    }) = ready
    {
        let stepped_before = session.gpu().detail_steps();
        let run = rec.enter("run");
        let mut chunks = Vec::with_capacity(CHUNKS);
        let mut last = None;
        for i in 0..CHUNKS {
            let (r, dt) = rec.call("core.run_window", || session.run_window(chunk_cycles));
            checks.result(&format!("chunk {i}"), &r);
            match r {
                Ok(r) => last = Some(r),
                Err(_) => break,
            }
            chunks.push(dt);
        }
        rec.exit(run);
        let (report, report_s) = rec.call("report", || session.gpu().report());
        checks.op(last.as_ref() == Some(&report), || {
            "report() differs from the last window's report".to_string()
        });
        if chunks.len() == CHUNKS {
            done = Some(Round {
                steps,
                chunks,
                report,
                report_s,
                stepped: session.gpu().detail_steps() - stepped_before,
            });
        }
    }
    rec.exit(job);
    done
}

/// What the checkpoint round-trip cost.
struct Snapshot {
    checkpoint_s: f64,
    resume_s: f64,
    bytes: usize,
}

/// Run a while, checkpoint → `to_bytes` → `from_bytes` → `resume`, then
/// continue both sessions: the resumed one must report what the
/// uninterrupted one does.
fn snapshot(
    shape: &Shape,
    opts: &Opts,
    chunk_cycles: u64,
    rec: &mut Recorder,
    checks: &mut Checks,
) -> Option<Snapshot> {
    let cycles = SNAPSHOT_CHUNKS * chunk_cycles;
    let open = rec.enter("snapshot");
    let outcome = (|| -> Result<Snapshot, String> {
        let Ready {
            mut session,
            workload,
            ..
        } = set_up(shape, (shape.config)().with_seed(opts.seed), opts.seed, rec)
            .map_err(|e| e.to_string())?;
        session.run_window(cycles).map_err(|e| e.to_string())?;
        let (bytes, checkpoint_s) = rec.call("core.checkpoint", || session.checkpoint().to_bytes());
        let (resumed, resume_s) = rec.call("core.resume", || {
            Checkpoint::from_bytes(&bytes)
                .map_err(|e| e.to_string())
                .and_then(|c| SimSession::resume(&c, workload).map_err(|e| e.to_string()))
        });
        let through = session.run_window(cycles).map_err(|e| e.to_string())?;
        let after = resumed?.run_window(cycles).map_err(|e| e.to_string())?;
        if through != after {
            return Err(
                "the resumed run reports differently from the uninterrupted run".to_string(),
            );
        }
        Ok(Snapshot {
            checkpoint_s,
            resume_s,
            bytes: bytes.len(),
        })
    })();
    rec.exit(open);
    checks.result("checkpoint round-trip", &outcome);
    outcome.ok()
}

/// The same window run by two sessions, telemetry windows and 1-in-64
/// request tracing on in one and off in the other, a chunk at a time in
/// turn: the share of host time the telemetry adds.
fn telemetry_overhead(shape: &Shape, opts: &Opts, chunk_cycles: u64) -> Result<f64, String> {
    let telemetry = TelemetryConfig {
        window_cycles: Some(1000),
        trace_sample_period: 64,
        ..TelemetryConfig::default()
    };
    let base = (shape.config)().with_seed(opts.seed);
    let mut quiet = Recorder::new(false);
    let mut build = |cfg| set_up(shape, cfg, opts.seed, &mut quiet).map_err(|e| e.to_string());
    let mut off = build(base.clone())?.session;
    let mut on = build(base.with_telemetry(telemetry))?.session;
    let (mut off_s, mut on_s) = (0.0, 0.0);
    for i in 0..DIFF_CHUNKS {
        // Alternate which side goes first, so neither always runs on
        // the caches the other left behind.
        let mut sides = [(&mut off, &mut off_s), (&mut on, &mut on_s)];
        if i % 2 == 1 {
            sides.swap(0, 1);
        }
        for (session, total) in sides {
            let t = Instant::now();
            session
                .run_window(chunk_cycles)
                .map_err(|e| e.to_string())?;
            *total += t.elapsed().as_secs_f64();
        }
    }
    Ok((on_s - off_s) / off_s)
}

pub fn run(name: &str, shape: &Shape, opts: &Opts) -> Outcome {
    let chunk_cycles = if opts.quick {
        shape.chunk_cycles / 20
    } else {
        shape.chunk_cycles
    };
    let mut out = Outcome {
        cycles: chunk_cycles * CHUNKS as u64,
        ..Outcome::default()
    };
    // Set-up repeats are timed but never recorded; the rounds are.
    let mut unrecorded = Recorder::new(false);
    let mut rec = Recorder::new(opts.trace);

    let mut setups: Vec<[f64; 3]> = repeat_set_up(opts, || {
        let ready = set_up(
            shape,
            (shape.config)().with_seed(opts.seed),
            opts.seed,
            &mut unrecorded,
        );
        out.checks.result("set-up repeat", &ready);
        ready.ok().map(|r| r.steps)
    });

    let started = Instant::now();
    let cpu_before = host::cpu_seconds();
    let mut rounds: Vec<Round> = Vec::new();
    let mut attempts = 0;
    let mut peak_rss_mb = 0.0;
    while opts.wants_round(attempts, MIN_ROUNDS, started) {
        rounds.extend(round(shape, opts, chunk_cycles, &mut rec, &mut out.checks));
        attempts += 1;
        if attempts == 1 {
            peak_rss_mb = host::peak_rss_mb();
        }
    }
    out.cpu_share = (host::cpu_seconds() - cpu_before) / started.elapsed().as_secs_f64();
    out.rounds = rounds.len();
    setups.extend(rounds.iter().map(|r| r.steps));
    let spans_per_round = rec.spans().len() as f64 / attempts as f64;

    let snap = snapshot(shape, opts, chunk_cycles, &mut rec, &mut out.checks);

    let Some(first) = rounds.first() else {
        return out;
    };
    let report = &first.report;
    out.digest = digest_of(report);
    for (i, r) in rounds.iter().enumerate().skip(1) {
        out.checks.op(digest_of(&r.report) == out.digest, || {
            format!("round {i} reports differently from round 0 on the same inputs")
        });
    }
    out.checks.op(shares_sum_to_one(report), || {
        "bottleneck shares do not sum to 1".to_string()
    });

    // Each chunk at the fastest of its repeats across the rounds.
    let chunk_s = steady_units(&rounds.iter().map(|r| &r.chunks[..]).collect::<Vec<_>>());
    let window_s: f64 = chunk_s.iter().sum();
    let step = |i: usize| median(&setups.iter().map(|s| s[i]).collect::<Vec<_>>());
    let setup_s = median(&setups.iter().map(|s| s.iter().sum()).collect::<Vec<f64>>());
    let report_s = median(&rounds.iter().map(|r| r.report_s).collect::<Vec<_>>());
    let per_cycle: Vec<f64> = chunk_s
        .iter()
        .map(|s| s * 1e6 / chunk_cycles as f64)
        .collect();
    let tail = tail_percentile(&per_cycle, 90);
    out.samples = tail.samples;
    out.tail_percentile = tail.percentile;

    if !opts.trace {
        out.metrics = vec![
            ("wall_s", setup_s + window_s + report_s),
            ("setup_s", setup_s),
            ("sim_cycles_per_s", out.cycles as f64 / window_s),
            ("warp_ops_per_s", report.warp_ops as f64 / window_s),
            ("us_per_cycle_p50", median(&per_cycle)),
            ("us_per_cycle_p90", tail.value),
            ("peak_rss_mb", peak_rss_mb),
        ];
        return out;
    }

    let telemetry = if shape.dense {
        let t = telemetry_overhead(shape, opts, chunk_cycles);
        out.checks.result("telemetry differential", &t);
        t.unwrap_or(0.0)
    } else {
        0.0
    };
    let snap = snap.unwrap_or(Snapshot {
        checkpoint_s: 0.0,
        resume_s: 0.0,
        bytes: 0,
    });

    let mut m = vec![
        ("workloads.build_ms", step(0) * 1e3),
        ("core.build_ms", step(1) * 1e3),
        ("core.warm_ms", step(2) * 1e3),
        ("core.run_s", window_s),
        ("core.report_us", report_s * 1e6),
        ("core.checkpoint_ms", snap.checkpoint_s * 1e3),
        ("core.resume_ms", snap.resume_s * 1e3),
        ("core.checkpoint_bytes", snap.bytes as f64),
        (
            "core.us_per_warp_op",
            window_s * 1e6 / report.warp_ops as f64,
        ),
        (
            "core.stepped_frac",
            first.stepped as f64 / out.cycles as f64,
        ),
        ("core.telemetry.overhead_frac", telemetry),
        (
            "trace.overhead_frac",
            spans_per_round * probes::span_cost_s() / window_s,
        ),
    ];
    m.extend(sim_metrics(report));
    m.extend(probes::run_all(opts.quick));
    // The runner and the store take no part in a session workload.
    let absent = names::PER_LAYER
        .iter()
        .filter(|l| l.name.starts_with("bench."));
    m.extend(absent.map(|l| (l.name, 0.0)));
    out.metrics = m;

    out.checks.trace(
        name,
        &rec,
        0.0,
        &[
            "workload",
            "setup",
            "workloads.build",
            "core.build",
            "core.warm",
            "run",
            "core.run_window",
            "report",
            "snapshot",
            "core.checkpoint",
            "core.resume",
        ],
    );
    out
}
