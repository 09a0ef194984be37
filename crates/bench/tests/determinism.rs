//! Serial-vs-parallel determinism regression test for the experiment
//! matrix runner: the same job list must produce field-for-field
//! identical `SimReport`s at any worker count, in submission order.

use nuba_bench::runner::{run_matrix_with, Job};
use nuba_bench::Harness;
use nuba_engine::FaultPlan;
use nuba_types::{ArchKind, GpuConfig, PagePolicyKind, ReplicationKind};
use nuba_workloads::{BenchmarkId, ScaleProfile};

fn harness() -> Harness {
    Harness {
        cycles: 1500,
        scale: ScaleProfile::fast(),
        seed: 42,
    }
}

/// A small matrix covering the harness paths the figure binaries use:
/// plain jobs, per-job seed overrides (variance runs), scale overrides
/// (page-size sensitivity), and the history-dependent page-management
/// policies (migration / page replication order their maintenance
/// passes explicitly — this test is the regression gate for that).
fn matrix() -> Vec<Job> {
    let uba = GpuConfig::paper_baseline(ArchKind::MemSideUba);
    let nuba = GpuConfig::paper_baseline(ArchKind::Nuba);
    let mig = GpuConfig::paper_baseline(ArchKind::Nuba)
        .with_policy(PagePolicyKind::Migration)
        .with_replication(ReplicationKind::None);
    let prep = mig.clone().with_policy(PagePolicyKind::PageReplication);

    let mut jobs = Vec::new();
    for &b in &[BenchmarkId::Kmeans, BenchmarkId::Sgemm] {
        jobs.push(Job::new(format!("{b}/uba"), b, uba.clone()));
        jobs.push(Job::new(format!("{b}/nuba"), b, nuba.clone()));
        jobs.push(Job::new(format!("{b}/mig"), b, mig.clone()));
        jobs.push(Job::new(format!("{b}/prep"), b, prep.clone()));
        jobs.push(
            Job::new(format!("{b}/seeded"), b, nuba.clone())
                .with_seed(54)
                .with_scale(ScaleProfile::fast()),
        );
    }
    jobs
}

#[test]
fn parallel_matrix_matches_serial_field_for_field() {
    let h = harness();
    let jobs = matrix();
    let serial = run_matrix_with(&h, &jobs, 1);
    let parallel = run_matrix_with(&h, &jobs, 4);

    assert_eq!(serial.len(), jobs.len());
    assert_eq!(parallel.len(), jobs.len());
    for ((s, p), job) in serial.iter().zip(&parallel).zip(&jobs) {
        assert_eq!(s.label, job.label, "results must keep submission order");
        assert_eq!(p.label, job.label, "results must keep submission order");
        // SimReport derives PartialEq: every counter, histogram and
        // energy figure must agree bit-for-bit.
        assert_eq!(
            s.report, p.report,
            "job `{}` diverged between serial and parallel execution",
            job.label
        );
    }
}

#[test]
fn parallel_matrix_is_stable_across_repeat_runs() {
    let h = harness();
    let jobs = matrix();
    let first = run_matrix_with(&h, &jobs, 4);
    let second = run_matrix_with(&h, &jobs, 4);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.report, b.report, "job `{}` not reproducible", a.label);
    }
}

/// Fault injection preserves byte-determinism: a matrix of faulted
/// jobs — seeded random plans, a mid-run outage window, a DRAM timing
/// stretch — produces identical reports at 1 and 4 workers, and a
/// faulted run differs from its fault-free twin (the faults really
/// were applied).
#[test]
fn faulted_matrix_is_deterministic_across_worker_counts() {
    let h = harness();
    let nuba = GpuConfig::paper_baseline(ArchKind::Nuba);
    let uba = GpuConfig::paper_baseline(ArchKind::MemSideUba);

    let seeded = FaultPlan::random(
        7,
        h.cycles,
        6,
        nuba.num_sms,
        nuba.num_llc_slices,
        nuba.num_channels,
    );
    let mut outage = FaultPlan::new();
    for e in FaultPlan::uniform_link_derate(0.5, nuba.num_sms, nuba.num_llc_slices).events() {
        outage = outage.with(e.fault, 200, Some(900));
    }
    let stretch = FaultPlan::new().with(
        nuba_engine::Fault::DramStretch {
            channel: 0,
            extra_cycles: 8,
        },
        0,
        None,
    );

    let jobs = vec![
        Job::new("clean", BenchmarkId::Kmeans, nuba.clone()),
        Job::new("seeded-faults", BenchmarkId::Kmeans, nuba.clone()).with_faults(seeded),
        Job::new("outage-window", BenchmarkId::Kmeans, nuba).with_faults(outage),
        Job::new("dram-stretch", BenchmarkId::Sgemm, uba).with_faults(stretch),
    ];
    let serial = run_matrix_with(&h, &jobs, 1);
    let parallel = run_matrix_with(&h, &jobs, 4);
    for ((s, p), job) in serial.iter().zip(&parallel).zip(&jobs) {
        assert!(!s.failed(), "`{}` quarantined: {:?}", job.label, s.error);
        assert_eq!(
            s.report, p.report,
            "faulted job `{}` diverged between serial and parallel execution",
            job.label
        );
    }
    assert_ne!(
        serial[0].report, serial[1].report,
        "the seeded fault plan must actually perturb the run"
    );
}

/// The telemetry exports are part of the determinism contract: the
/// per-window JSONL and the Chrome trace JSON rendered from a faulted
/// matrix must be byte-identical at 1 and 4 workers. Telemetry is
/// enabled through the job configs (not the env knobs) so this test
/// cannot race with sibling tests over process-global state.
#[test]
fn telemetry_exports_are_byte_identical_across_worker_counts() {
    let h = harness();
    let nuba = GpuConfig::paper_baseline(ArchKind::Nuba);
    let uba = GpuConfig::paper_baseline(ArchKind::MemSideUba);

    let mut outage = FaultPlan::new();
    for e in FaultPlan::uniform_link_derate(0.5, nuba.num_sms, nuba.num_llc_slices).events() {
        outage = outage.with(e.fault, 200, Some(900));
    }
    let with_telemetry = |mut cfg: GpuConfig| {
        cfg.telemetry.window_cycles = Some(250);
        cfg.telemetry.ring_windows = 16;
        cfg.telemetry.trace_sample_period = 32;
        cfg.telemetry.trace_capacity = 4096;
        cfg
    };
    let jobs = vec![
        Job::new("clean", BenchmarkId::Kmeans, with_telemetry(nuba.clone())),
        Job::new("faulted", BenchmarkId::Kmeans, with_telemetry(nuba)).with_faults(outage),
        Job::new("uba", BenchmarkId::Sgemm, with_telemetry(uba)),
    ];

    let serial = run_matrix_with(&h, &jobs, 1);
    let parallel = run_matrix_with(&h, &jobs, 4);
    for (r, job) in serial.iter().zip(&jobs) {
        assert!(!r.failed(), "`{}` quarantined: {:?}", job.label, r.error);
        assert!(!r.windows.is_empty(), "`{}` recorded no windows", job.label);
        assert!(!r.trace.is_empty(), "`{}` traced no requests", job.label);
    }

    let jsonl = nuba_bench::runner::render_timeseries(&serial);
    assert_eq!(
        jsonl,
        nuba_bench::runner::render_timeseries(&parallel),
        "windowed JSONL diverged between serial and parallel execution"
    );
    let trace = nuba_bench::runner::render_trace(&serial);
    assert_eq!(
        trace,
        nuba_bench::runner::render_trace(&parallel),
        "trace JSON diverged between serial and parallel execution"
    );
    // Sanity on the rendered shapes: one JSON object per line, and a
    // trace body that names the Chrome trace_event container.
    assert!(jsonl
        .lines()
        .all(|l| l.starts_with('{') && l.ends_with('}')));
    assert!(trace.starts_with("{\"traceEvents\":["));
}

/// The harness-level observability artifacts join the determinism
/// contract: the structured event log and the Prometheus metrics dump
/// rendered from the same matrix — healthy jobs and a quarantined one —
/// must be byte-identical at 1 and 4 workers. (The matrix Chrome trace
/// is the one wall-clock-exempt artifact and is deliberately NOT
/// compared here — DESIGN.md §16.)
#[test]
fn event_log_and_metrics_are_byte_identical_across_worker_counts() {
    let h = harness();
    let nuba = GpuConfig::paper_baseline(ArchKind::Nuba);
    let with_telemetry = |mut cfg: GpuConfig| {
        cfg.telemetry.window_cycles = Some(250);
        cfg.telemetry.trace_sample_period = 32;
        cfg.telemetry.window_latency = true;
        cfg
    };
    let jobs = vec![
        Job::new("a", BenchmarkId::Kmeans, with_telemetry(nuba.clone())),
        Job::new("b", BenchmarkId::Sgemm, with_telemetry(nuba.clone())),
        Job::new("panic", BenchmarkId::Sgemm, nuba.clone()).with_injected_panic(),
        Job::new("c", BenchmarkId::Kmeans, with_telemetry(nuba).with_seed(7)),
    ];
    let serial = run_matrix_with(&h, &jobs, 1);
    let parallel = run_matrix_with(&h, &jobs, 4);

    let events = nuba_bench::runner::render_event_log(&serial);
    assert_eq!(
        events,
        nuba_bench::runner::render_event_log(&parallel),
        "event log diverged between serial and parallel execution"
    );
    // One JSON object per job, sequence numbers strictly monotonic
    // from zero, and no wall-clock fields anywhere.
    let lines: Vec<&str> = events.lines().collect();
    assert_eq!(lines.len(), jobs.len(), "{events}");
    for (i, line) in lines.iter().enumerate() {
        assert!(line.starts_with(&format!("{{\"seq\":{i},")), "{line}");
        assert!(line.ends_with('}'), "{line}");
        assert!(!line.contains("secs"), "wall clock leaked: {line}");
    }
    assert!(
        lines[2].contains("\"event\":\"failed\"") && lines[2].contains("\"quarantined\":true"),
        "{}",
        lines[2]
    );

    let prom = nuba_bench::runner::build_matrix_registry(&serial).render_prometheus();
    assert_eq!(
        prom,
        nuba_bench::runner::build_matrix_registry(&parallel).render_prometheus(),
        "Prometheus dump diverged between serial and parallel execution"
    );
    assert!(prom.contains("# TYPE nuba_read_latency_cycles_local histogram"));
    assert!(prom.contains("nuba_jobs_total 4\n"), "{prom}");
    assert!(prom.contains("nuba_jobs_quarantined_total 1\n"), "{prom}");
}

#[test]
fn matrix_reports_throughput_per_job() {
    let h = harness();
    let jobs = matrix();
    for r in run_matrix_with(&h, &jobs, 2) {
        assert!(r.wall_seconds > 0.0, "{}: wall-clock not recorded", r.label);
        assert!(
            r.cycles_per_sec > 0.0,
            "{}: throughput not recorded",
            r.label
        );
        assert_eq!(r.report.cycles, h.cycles);
    }
}
