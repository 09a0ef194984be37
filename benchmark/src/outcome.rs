//! What one run of one workload produces, and the simulated counters
//! read from its final reports.

use nuba_core::SimReport;
use nuba_types::LatencySummary;

/// The arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    /// How long the rounds loop measures, in seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Cycle counts ÷ 20 and two rounds: a smoke run, never a result.
    pub quick: bool,
}

impl Opts {
    /// Whether another round should start: `floor` rounds at least
    /// (two on a quick run), then until the measuring time is up.
    pub fn wants_round(&self, done: usize, floor: usize, started: std::time::Instant) -> bool {
        if self.quick {
            return done < 2;
        }
        done < floor || started.elapsed().as_secs_f64() < self.seconds
    }
}

/// Operations attempted and failed. An operation is a chunk or job
/// that must return `Ok`, or one correctness check.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    /// Count `result` as one operation that must be `Ok`.
    pub fn result<T, E: std::fmt::Display>(&mut self, what: &str, result: &Result<T, E>) {
        self.op(result.is_ok(), || match result {
            Ok(_) => String::new(),
            Err(e) => format!("{what}: {e}"),
        });
    }
}

impl Checks {
    /// The traced pass's closing checks, then the trace file: the span
    /// tree keeps its shape rules (see [`crate::span::validate`]) and
    /// every layer in `layers` has a span.
    pub fn trace(
        &mut self,
        workload: &str,
        rec: &crate::span::Recorder,
        slack_us: f64,
        layers: &[&str],
    ) {
        let shape = crate::span::validate(rec.spans(), slack_us);
        self.op(shape.is_ok(), || shape.clone().unwrap_err());
        for layer in layers {
            self.op(rec.count(layer) > 0, || {
                format!("no span recorded for {layer}")
            });
        }
        crate::write_out(
            &format!("trace-{workload}.json"),
            &crate::span::chrome_trace(rec.spans(), workload),
        );
    }
}

/// The result of one (workload, pass).
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Checks,
    /// End-to-end metrics (timed pass) or per-layer metrics (traced).
    pub metrics: Vec<(&'static str, f64)>,
    /// fnv1a of the final report's `Debug` rendering (for the matrix,
    /// of all its pass-1 reports in order).
    pub digest: String,
    /// Simulated cycles in one round.
    pub cycles: u64,
    pub rounds: usize,
    /// Host-time samples behind `us_per_cycle_*`, and the percentile
    /// the p90 metric actually rests on.
    pub samples: usize,
    pub tail_percentile: u32,
    /// User + system CPU seconds per wall second over the rounds loop:
    /// below 0.95 the process was kept off its core.
    pub cpu_share: f64,
}

/// The counters of `reports` summed into one report, so that every
/// derived rate comes from `SimReport`'s own methods. Rates stored as
/// fractions are weighted by their denominators; a single report
/// passes through unchanged.
pub fn sum_reports(reports: &[&SimReport]) -> SimReport {
    let mut sum = reports[0].clone();
    let mut row_hits = sum.dram_row_hit_rate * sum.dram_accesses as f64;
    for r in &reports[1..] {
        sum.cycles += r.cycles;
        sum.warp_ops += r.warp_ops;
        sum.read_replies += r.read_replies;
        sum.local_misses += r.local_misses;
        sum.remote_misses += r.remote_misses;
        sum.l1_hits += r.l1_hits;
        sum.llc_hits += r.llc_hits;
        sum.llc_accesses += r.llc_accesses;
        sum.dram_accesses += r.dram_accesses;
        row_hits += r.dram_row_hit_rate * r.dram_accesses as f64;
        sum.noc_bytes += r.noc_bytes;
        sum.local_link_bytes += r.local_link_bytes;
        sum.replica_fills += r.replica_fills;
        sum.mdr_replication_rate += r.mdr_replication_rate;
        sum.page_faults += r.page_faults;
        sum.final_npb += r.final_npb;
        sum.stall_downstream += r.stall_downstream;
        sum.stall_mshr += r.stall_mshr;
        sum.stall_outstanding += r.stall_outstanding;
        sum.local_link_busy_cycles += r.local_link_busy_cycles;
        sum.noc_serialization_cycles += r.noc_serialization_cycles;
        sum.dram_bus_busy_cycles += r.dram_bus_busy_cycles;
        for (a, b) in sum.latency.tiers.iter_mut().zip(&r.latency.tiers) {
            a.merge(b);
        }
    }
    let n = reports.len() as f64;
    sum.dram_row_hit_rate = row_hits / (sum.dram_accesses as f64).max(1.0);
    sum.mdr_replication_rate /= n;
    sum.final_npb /= n;
    sum
}

/// Every *sim* per-layer metric that comes from a report. All repeat
/// exactly for a given seed and cycle count.
pub fn sim_metrics(r: &SimReport) -> Vec<(&'static str, f64)> {
    let b = r.bottleneck_breakdown();
    let reads = LatencySummary::of(&r.latency.overall());
    vec![
        ("core.sm.ipc", r.perf()),
        ("core.sm.warp_ops", r.warp_ops as f64),
        ("core.sm.stall_mshr", r.stall_mshr as f64),
        ("core.sm.stall_downstream", r.stall_downstream as f64),
        ("core.sm.stall_outstanding", r.stall_outstanding as f64),
        ("cache.l1_hit_rate", r.l1_hit_rate()),
        ("core.llc.accesses", r.llc_accesses as f64),
        ("core.llc.hit_rate", r.llc_hit_rate()),
        ("core.llc.local_miss_frac", r.local_miss_fraction()),
        ("core.llc.replica_fills", r.replica_fills as f64),
        ("core.mdr.replication_rate", r.mdr_replication_rate),
        ("core.bottleneck.compute", b.compute),
        ("core.bottleneck.l1", b.l1_bound),
        ("core.bottleneck.local_link", b.local_link_bound),
        ("core.bottleneck.noc", b.noc_bound),
        ("core.bottleneck.llc_queue", b.llc_queue_bound),
        ("core.bottleneck.dram", b.dram_bound),
        ("core.latency.read_p50", reads.p50 as f64),
        ("core.latency.read_p99", reads.p99 as f64),
        ("engine.local_link_bytes", r.local_link_bytes as f64),
        (
            "engine.local_link_busy_cycles",
            r.local_link_busy_cycles as f64,
        ),
        ("noc.bytes", r.noc_bytes as f64),
        ("noc.serialization_cycles", r.noc_serialization_cycles),
        ("dram.accesses", r.dram_accesses as f64),
        ("dram.row_hit_rate", r.dram_row_hit_rate),
        ("dram.bus_busy_cycles", r.dram_bus_busy_cycles as f64),
        ("tlb.page_faults", r.page_faults as f64),
        ("driver.npb", r.final_npb),
    ]
}

/// Whether a report's six bottleneck shares sum to 1 ± 1e-9.
pub fn shares_sum_to_one(r: &SimReport) -> bool {
    (r.bottleneck_breakdown().sum() - 1.0).abs() <= 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut c = Checks::default();
        c.op(true, || unreachable!());
        c.op(false, || "broke".to_string());
        c.result("step", &Ok::<(), String>(()));
        c.result("step", &Err::<(), _>("bad"));
        assert_eq!((c.attempted, c.failed), (4, 2));
        assert_eq!(c.notes, vec!["broke", "step: bad"]);
    }

    #[test]
    fn summing_one_report_changes_nothing() {
        let mut r = SimReport::empty();
        r.cycles = 100;
        r.warp_ops = 40;
        r.dram_accesses = 10;
        r.dram_row_hit_rate = 0.5;
        assert_eq!(sum_reports(&[&r]), r);
        let mut s = r.clone();
        s.dram_accesses = 30;
        s.dram_row_hit_rate = 1.0;
        let both = sum_reports(&[&r, &s]);
        assert_eq!(
            (both.cycles, both.warp_ops, both.dram_accesses),
            (200, 80, 40)
        );
        assert!((both.dram_row_hit_rate - 0.875).abs() < 1e-12);
        assert!(shares_sum_to_one(&both));
    }
}
