//! The observability sink: `NUBA_OBS=<dir>` and the renderers behind it.
//!
//! A matrix's telemetry leaves the harness as five files with fixed
//! names (DESIGN.md §16.3), all rendered after the run, in submission
//! order, from the [`JobResult`]s the jobs already hold. What a job
//! samples is set by its own `TelemetryConfig` and nothing else. Only
//! `fig_timeseries`, `fig_latency` and `nuba_sim` call [`write()`].

use std::path::Path;

use nuba_core::telemetry::escape_json;
use nuba_core::{NUM_STAGES, NUM_TIERS, STAGE_NAMES, TIER_NAMES};
use nuba_types::{Histogram, MetricsRegistry};

use crate::runner::{JobResult, MatrixStats};
use crate::HarnessOptions;

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

/// Wrap rendered `trace_event` objects in a Chrome trace container.
fn chrome_trace(events: &[String]) -> String {
    if events.is_empty() {
        return "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}\n".to_string();
    }
    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
        events.join(",\n")
    )
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
    chrome_trace(&events)
}

/// Render the matrix's structured event log as JSONL: one outcome line
/// per job (`ok` / `failed`, with `quarantined` and the error set on
/// faults), jobs in submission order, with a monotonic `seq`. No
/// wall-clock fields anywhere, so the log is byte-identical across
/// worker counts.
pub fn render_event_log(results: &[JobResult]) -> String {
    let mut out = String::new();
    for (seq, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "{{\"seq\":{seq},\"event\":\"{}\",\"job\":\"{}\",\"job_index\":{seq},\"cycles\":{}",
            r.outcome.as_str(),
            escape_json(&r.label),
            r.report.cycles
        ));
        if r.failed() {
            out.push_str(",\"quarantined\":true");
        }
        if let Some(e) = &r.error {
            out.push_str(&format!(",\"error\":\"{}\"", escape_json(e)));
        }
        out.push_str("}\n");
    }
    out
}

/// Render the matrix-level Chrome trace: one span per job (pid 0,
/// tid = submission index). This is the single artifact that carries
/// wall-clock timestamps — explicitly exempt from the byte-determinism
/// contract, because its whole point is to show the real schedule (who
/// ran when). Load at `chrome://tracing` or in Perfetto.
pub fn render_matrix_trace(results: &[JobResult]) -> String {
    let us = |secs: f64| (secs * 1e6).round().max(0.0) as u64;
    let events: Vec<String> = results
        .iter()
        .enumerate()
        .map(|(job_idx, r)| {
            format!(
                concat!(
                    "{{\"name\":\"{}\",\"cat\":\"job\",\"ph\":\"X\",",
                    "\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},",
                    "\"args\":{{\"outcome\":\"{}\",\"cycles\":{}}}}}"
                ),
                escape_json(&r.label),
                us(r.start_offset_secs),
                us(r.wall_seconds),
                job_idx,
                r.outcome.as_str(),
                r.report.cycles,
            )
        })
        .collect();
    chrome_trace(&events)
}

/// Fold a matrix's results into a [`MetricsRegistry`] for the
/// `metrics.prom` dump: job outcome counts, cycle and warp-op totals,
/// and the per-tier / per-stage latency histograms merged across jobs.
/// Deliberately no wall-clock values — the dump is part of the
/// deterministic artifact set.
pub fn build_matrix_registry(results: &[JobResult]) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    let stats = MatrixStats::of(results);
    reg.counter_add("nuba_jobs_total", stats.jobs as u64);
    reg.counter_add("nuba_jobs_quarantined_total", stats.quarantined as u64);
    reg.counter_add(
        "nuba_jobs_ok_total",
        (stats.jobs - stats.quarantined) as u64,
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

/// Write the five observability files into the `NUBA_OBS` directory,
/// creating it; a no-op when `NUBA_OBS` is unset. Failures warn on
/// stderr rather than failing the run — observability must never take
/// an otherwise-healthy matrix down.
pub fn write(results: &[JobResult]) {
    if let Some(dir) = &HarnessOptions::get().obs {
        for warning in write_dir(Path::new(dir), results) {
            eprintln!("obs: {warning}");
        }
    }
}

/// Create `dir` and write the five files into it. Returns one warning
/// per failure; an uncreatable `dir` is a single warning.
fn write_dir(dir: &Path, results: &[JobResult]) -> Vec<String> {
    if let Err(e) = std::fs::create_dir_all(dir) {
        return vec![format!("cannot create {}: {e}", dir.display())];
    }
    let metrics = build_matrix_registry(results).render_prometheus();
    [
        ("timeseries.jsonl", render_timeseries(results)),
        ("trace.json", render_trace(results)),
        ("events.jsonl", render_event_log(results)),
        ("metrics.prom", metrics),
        ("matrix_trace.json", render_matrix_trace(results)),
    ]
    .into_iter()
    .filter_map(|(name, content)| {
        let path = dir.join(name);
        std::fs::write(&path, content)
            .err()
            .map(|e| format!("cannot write {}: {e}", path.display()))
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_matrix_ctx_with, Job, RunnerCtx};
    use crate::Harness;
    use nuba_types::{ArchKind, GpuConfig, TelemetryConfig};
    use nuba_workloads::{BenchmarkId, ScaleProfile};

    /// Run `jobs` for 400 cycles on a fresh context, two workers.
    fn run(jobs: &[Job]) -> Vec<JobResult> {
        let h = Harness {
            cycles: 400,
            scale: ScaleProfile::fast(),
            seed: 42,
        };
        run_matrix_ctx_with(&RunnerCtx::new(), &h, jobs, 2)
    }

    fn nuba() -> GpuConfig {
        GpuConfig::paper_baseline(ArchKind::Nuba)
    }

    #[test]
    fn event_log_has_monotonic_seq_and_outcomes() {
        let results = run(&[
            Job::new("ev-ok", BenchmarkId::Kmeans, nuba()),
            Job::new("ev-panic", BenchmarkId::Kmeans, nuba()).with_injected_panic(),
        ]);
        let log = render_event_log(&results);
        let lines: Vec<&str> = log.lines().collect();
        // One outcome line per job.
        assert_eq!(lines.len(), 2, "{log}");
        for (i, l) in lines.iter().enumerate() {
            assert!(l.starts_with(&format!("{{\"seq\":{i},")), "{l}");
            assert!(l.contains(&format!("\"job_index\":{i}")), "{l}");
            assert!(l.ends_with('}'), "{l}");
            assert!(!l.contains("attempt"), "{l}");
        }
        assert!(
            lines[0].contains("\"event\":\"ok\"")
                && lines[0].contains("\"ev-ok\"")
                && lines[0].contains("\"cycles\":400")
                && !lines[0].contains("quarantined"),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].contains("\"event\":\"failed\"")
                && lines[1].contains("\"cycles\":0")
                && lines[1].contains("\"quarantined\":true")
                && lines[1].contains("injected chaos panic"),
            "{}",
            lines[1]
        );
    }

    #[test]
    fn matrix_trace_has_one_span_per_job() {
        let results = run(&[
            Job::new("trace-job", BenchmarkId::Kmeans, nuba()),
            Job::new("trace-panic", BenchmarkId::Kmeans, nuba()).with_injected_panic(),
        ]);
        let trace = render_matrix_trace(&results);
        assert_eq!(trace.matches("\"ph\":\"X\"").count(), 2, "{trace}");
        assert_eq!(trace.matches("\"cat\":\"job\"").count(), 2, "{trace}");
        assert!(trace.contains("\"name\":\"trace-job\""), "{trace}");
        assert!(trace.contains("\"outcome\":\"failed\""), "{trace}");
        assert!(!trace.contains("attempt"), "{trace}");
        assert!(trace.ends_with("],\"displayTimeUnit\":\"ms\"}\n"));
        assert_eq!(
            render_matrix_trace(&[]),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}\n"
        );
    }

    #[test]
    fn matrix_registry_counts_outcomes_and_latency() {
        let results = run(&[Job::new("reg-job", BenchmarkId::Kmeans, nuba())]);
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
    fn write_dir_writes_exactly_the_five_files() {
        let sampled = nuba().with_telemetry(TelemetryConfig {
            window_cycles: Some(100),
            trace_sample_period: 16,
            ..TelemetryConfig::default()
        });
        let results = run(&[
            Job::new("obs-sampled", BenchmarkId::Kmeans, sampled),
            Job::new("obs-panic", BenchmarkId::Kmeans, nuba()).with_injected_panic(),
        ]);
        let root = std::env::temp_dir().join(format!("nuba_obs_{}", std::process::id()));
        let dir = root.join("obs");
        assert_eq!(write_dir(&dir, &results), Vec::<String>::new());
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            [
                "events.jsonl",
                "matrix_trace.json",
                "metrics.prom",
                "timeseries.jsonl",
                "trace.json"
            ]
        );
        let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap();
        let timeseries = read("timeseries.jsonl");
        let trace = read("trace.json");
        assert!(!timeseries.is_empty() && trace.contains("\"ph\":\"X\""));
        assert_eq!(timeseries, render_timeseries(&results));
        assert_eq!(trace, render_trace(&results));
        assert_eq!(read("events.jsonl"), render_event_log(&results));
        assert_eq!(
            read("metrics.prom"),
            build_matrix_registry(&results).render_prometheus()
        );
        assert_eq!(read("matrix_trace.json"), render_matrix_trace(&results));

        // A directory under a regular file cannot be created: one
        // warning naming it, and no panic.
        let blocked = dir.join("events.jsonl").join("obs");
        let warnings = write_dir(&blocked, &results);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(
            warnings[0].starts_with(&format!("cannot create {}", blocked.display())),
            "{warnings:?}"
        );
        std::fs::remove_dir_all(&root).ok();
    }
}
