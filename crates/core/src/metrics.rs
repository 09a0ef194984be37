//! Simulation reports: the metrics the paper's figures are built from.

use nuba_types::{GpuConfig, Histogram, LatencySummary};

use crate::energy::EnergyReport;
use crate::telemetry::{NUM_STAGES, NUM_TIERS, STAGE_NAMES, TIER_NAMES};

/// Deterministic read-latency distributions carried by [`SimReport`]:
/// end-to-end latency split by bandwidth tier (always populated) and
/// per-stage queueing delay from sampled lifecycle traces (populated
/// when `TelemetryConfig::trace_sample_period > 0`).
///
/// Everything is integral ([`Histogram`] is `u64`-only), so the report
/// stays byte-deterministic across worker counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyReport {
    /// End-to-end read latency indexed by `telemetry::TIER_*`.
    pub tiers: [Histogram; NUM_TIERS],
    /// Per-stage delay indexed by `telemetry::STAGE_*`.
    pub stages: [Histogram; NUM_STAGES],
}

impl LatencyReport {
    /// `(tier name, summary)` for every bandwidth tier, in fixed order.
    pub fn tier_summaries(&self) -> [(&'static str, LatencySummary); NUM_TIERS] {
        let mut out = [("", LatencySummary::default()); NUM_TIERS];
        for (i, h) in self.tiers.iter().enumerate() {
            out[i] = (TIER_NAMES[i], LatencySummary::of(h));
        }
        out
    }

    /// `(stage name, summary)` for every lifecycle stage, in fixed order.
    pub fn stage_summaries(&self) -> [(&'static str, LatencySummary); NUM_STAGES] {
        let mut out = [("", LatencySummary::default()); NUM_STAGES];
        for (i, h) in self.stages.iter().enumerate() {
            out[i] = (STAGE_NAMES[i], LatencySummary::of(h));
        }
        out
    }

    /// All tiers merged into one end-to-end distribution.
    pub fn overall(&self) -> Histogram {
        let mut h = Histogram::new();
        for t in &self.tiers {
            h.merge(t);
        }
        h
    }

    /// JSON object (`{"overall":{...},"tiers":{...},"stages":{...}}`)
    /// with a [`LatencySummary`] per entry — all integers, so the text
    /// is identical across platforms and worker counts.
    pub fn json(&self) -> String {
        let mut s = String::from("{\"overall\":");
        s.push_str(&LatencySummary::of(&self.overall()).json());
        s.push_str(",\"tiers\":{");
        for (i, (name, sum)) in self.tier_summaries().into_iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{}", name, sum.json()));
        }
        s.push_str("},\"stages\":{");
        for (i, (name, sum)) in self.stage_summaries().into_iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{}", name, sum.json()));
        }
        s.push_str("}}");
        s
    }
}

/// Aggregate result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Simulated cycles.
    pub cycles: u64,
    /// Warp operations completed (memory ops + compute blocks): the
    /// throughput proxy used for "performance" — streams are identical
    /// across architectures, so ops/cycle ratios are speedups.
    pub warp_ops: u64,
    /// Read replies delivered to SMs (Fig. 8's replies/cycle numerator).
    pub read_replies: u64,
    /// L1 misses serviced by the local partition (NUBA; always 0 for
    /// UBA — every UBA miss crosses the NoC). Fig. 9.
    pub local_misses: u64,
    /// L1 misses serviced remotely (over the NoC).
    pub remote_misses: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// LLC slice hits / accesses.
    pub llc_hits: u64,
    /// LLC accesses (tag grants).
    pub llc_accesses: u64,
    /// DRAM line transfers.
    pub dram_accesses: u64,
    /// DRAM row-hit fraction.
    pub dram_row_hit_rate: f64,
    /// Bytes moved through the inter-partition / SM-LLC NoC.
    pub noc_bytes: u64,
    /// Bytes moved through NUBA local links.
    pub local_link_bytes: u64,
    /// Replicated-line insertions (MDR activity).
    pub replica_fills: u64,
    /// Fraction of MDR epochs that chose replication (0 when MDR off).
    pub mdr_replication_rate: f64,
    /// First-touch page faults taken.
    pub page_faults: u64,
    /// Final Normalized Page Balance (Eq. 1).
    pub final_npb: f64,
    /// Max-over-mean DRAM load across channels (1.0 = perfectly
    /// balanced; large values are the first-touch hot-channel pathology
    /// LAB exists to fix).
    pub channel_imbalance: f64,
    /// Mean issue-to-reply latency of read requests, in cycles.
    pub avg_read_latency: f64,
    /// Worst observed issue-to-reply latency.
    pub max_read_latency: u64,
    /// Average NoC power in watts over the run.
    pub noc_watts: f64,
    /// Warp-issue slots lost to a full downstream link/NoC port.
    pub stall_downstream: u64,
    /// Warp-issue slots lost to L1 MSHR exhaustion.
    pub stall_mshr: u64,
    /// Warp-issue slots lost to the outstanding-request budget.
    pub stall_outstanding: u64,
    /// NUBA local-link busy cycles, both directions summed (0 on UBA).
    pub local_link_busy_cycles: u64,
    /// NoC bytes expressed as per-port serialization cycles — the
    /// NoC-side weight for the bottleneck attribution, commensurable
    /// with the other busy-cycle weights.
    pub noc_serialization_cycles: f64,
    /// DRAM data-bus busy cycles summed over channels.
    pub dram_bus_busy_cycles: u64,
    /// Energy breakdown.
    pub energy: EnergyReport,
    /// Read-latency distributions (per bandwidth tier and per stage).
    pub latency: LatencyReport,
}

/// Crossbar bytes expressed as serialization cycles at the aggregate
/// NoC bandwidth (`cfg.noc_total_bytes_per_cycle`), commensurable with
/// the other bottleneck weights; 0 when the configuration has no NoC
/// bandwidth.
pub(crate) fn noc_serialization_cycles(cfg: &GpuConfig, xbar_bytes: u64) -> f64 {
    if cfg.noc_total_bytes_per_cycle > 0.0 {
        xbar_bytes as f64 / cfg.noc_total_bytes_per_cycle
    } else {
        0.0
    }
}

/// Top-down cycle-accounting shares from `SimReport::bottleneck_breakdown`
/// (and per telemetry window via `TelemetryWindow::bottleneck_mix`).
///
/// The six shares always sum to 1.0 (± floating-point rounding): every
/// warp-issue slot either retired an op (`compute`) or stalled, and
/// each stall cycle is attributed to exactly one cause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BottleneckBreakdown {
    /// Issue slots that retired an op.
    pub compute: f64,
    /// Stalls on L1 MSHR exhaustion (L1 can't track more misses).
    pub l1_bound: f64,
    /// Memory stalls attributed to the NUBA local links.
    pub local_link_bound: f64,
    /// Memory stalls attributed to NoC serialization.
    pub noc_bound: f64,
    /// Memory stalls attributed to LLC tag/queue service.
    pub llc_queue_bound: f64,
    /// Memory stalls attributed to DRAM bus occupancy.
    pub dram_bound: f64,
}

impl BottleneckBreakdown {
    /// Build the breakdown from raw counters.
    ///
    /// The accounted pool is every warp-issue slot outcome:
    /// `retired + stall_mshr + stall_downstream + stall_outstanding`.
    /// Retired slots are `compute`, MSHR stalls are `l1_bound`, and the
    /// memory-stall pool (downstream-full + outstanding-budget) is
    /// split across local links / NoC / LLC queues / DRAM in proportion
    /// to each component's busy-cycle weight over the same interval —
    /// the component that was occupied the most gets the blame. An
    /// all-idle downstream (zero weights) books the memory pool on the
    /// LLC queues, the first resource a request meets past the L1.
    #[allow(clippy::too_many_arguments)]
    pub fn from_counters(
        retired: u64,
        stall_mshr: u64,
        stall_downstream: u64,
        stall_outstanding: u64,
        local_link_busy: f64,
        noc_cycles: f64,
        llc_grants: f64,
        dram_busy: f64,
    ) -> BottleneckBreakdown {
        let pool = (retired + stall_mshr + stall_downstream + stall_outstanding) as f64;
        if pool == 0.0 {
            // An idle machine is by definition not memory-bound.
            return BottleneckBreakdown {
                compute: 1.0,
                l1_bound: 0.0,
                local_link_bound: 0.0,
                noc_bound: 0.0,
                llc_queue_bound: 0.0,
                dram_bound: 0.0,
            };
        }
        let compute = retired as f64 / pool;
        let l1_bound = stall_mshr as f64 / pool;
        let mem = (stall_downstream + stall_outstanding) as f64 / pool;
        let wsum = local_link_busy + noc_cycles + llc_grants + dram_busy;
        let (local_link_bound, noc_bound, llc_queue_bound, dram_bound) = if wsum > 0.0 {
            (
                mem * local_link_busy / wsum,
                mem * noc_cycles / wsum,
                mem * llc_grants / wsum,
                mem * dram_busy / wsum,
            )
        } else {
            (0.0, 0.0, mem, 0.0)
        };
        BottleneckBreakdown {
            compute,
            l1_bound,
            local_link_bound,
            noc_bound,
            llc_queue_bound,
            dram_bound,
        }
    }

    /// The shares as `(name, share)` pairs, in fixed display order.
    pub fn shares(&self) -> [(&'static str, f64); 6] {
        [
            ("compute", self.compute),
            ("L1-bound", self.l1_bound),
            ("local-link-bound", self.local_link_bound),
            ("NoC-bound", self.noc_bound),
            ("LLC-queue-bound", self.llc_queue_bound),
            ("DRAM-bound", self.dram_bound),
        ]
    }

    /// Sum of all shares (1.0 up to floating-point rounding).
    pub fn sum(&self) -> f64 {
        self.compute
            + self.l1_bound
            + self.local_link_bound
            + self.noc_bound
            + self.llc_queue_bound
            + self.dram_bound
    }

    /// `(name, share)` of the dominant category.
    pub fn dominant(&self) -> (&'static str, f64) {
        self.shares()
            .into_iter()
            .fold(("compute", f64::MIN), |best, cur| {
                if cur.1 > best.1 {
                    cur
                } else {
                    best
                }
            })
    }
}

impl SimReport {
    /// All-zero placeholder report, used for jobs that never produced a
    /// real run (panicked, deadlocked, or rejected by validation).
    /// Every derived rate evaluates to 0.0 on it.
    pub fn empty() -> SimReport {
        SimReport {
            cycles: 0,
            warp_ops: 0,
            read_replies: 0,
            local_misses: 0,
            remote_misses: 0,
            l1_hits: 0,
            llc_hits: 0,
            llc_accesses: 0,
            dram_accesses: 0,
            dram_row_hit_rate: 0.0,
            noc_bytes: 0,
            local_link_bytes: 0,
            replica_fills: 0,
            mdr_replication_rate: 0.0,
            page_faults: 0,
            final_npb: 0.0,
            channel_imbalance: 0.0,
            avg_read_latency: 0.0,
            max_read_latency: 0,
            noc_watts: 0.0,
            stall_downstream: 0,
            stall_mshr: 0,
            stall_outstanding: 0,
            local_link_busy_cycles: 0,
            noc_serialization_cycles: 0.0,
            dram_bus_busy_cycles: 0,
            energy: EnergyReport {
                noc_j: 0.0,
                rest_j: 0.0,
            },
            latency: LatencyReport::default(),
        }
    }

    /// Top-down cycle accounting for the whole run: where did the
    /// warp-issue slots go (see [`BottleneckBreakdown::from_counters`]
    /// for the attribution model).
    pub fn bottleneck_breakdown(&self) -> BottleneckBreakdown {
        BottleneckBreakdown::from_counters(
            self.warp_ops,
            self.stall_mshr,
            self.stall_downstream,
            self.stall_outstanding,
            self.local_link_busy_cycles as f64,
            self.noc_serialization_cycles,
            self.llc_accesses as f64,
            self.dram_bus_busy_cycles as f64,
        )
    }

    /// Performance proxy: warp operations per cycle.
    pub fn perf(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.warp_ops as f64 / self.cycles as f64
        }
    }

    /// Fig. 8 metric: read replies per cycle perceived by the SMs.
    pub fn replies_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.read_replies as f64 / self.cycles as f64
        }
    }

    /// Fraction of L1 misses serviced locally (Fig. 9).
    pub fn local_miss_fraction(&self) -> f64 {
        let total = self.local_misses + self.remote_misses;
        if total == 0 {
            0.0
        } else {
            self.local_misses as f64 / total as f64
        }
    }

    /// LLC hit rate.
    pub fn llc_hit_rate(&self) -> f64 {
        if self.llc_accesses == 0 {
            0.0
        } else {
            self.llc_hits as f64 / self.llc_accesses as f64
        }
    }

    /// L1 hit rate.
    pub fn l1_hit_rate(&self) -> f64 {
        let total = self.l1_hits + self.local_misses + self.remote_misses;
        if total == 0 {
            0.0
        } else {
            self.l1_hits as f64 / total as f64
        }
    }

    /// Speedup of `self` over `base` (ops/cycle ratio).
    pub fn speedup_over(&self, base: &SimReport) -> f64 {
        let b = base.perf();
        if b == 0.0 {
            0.0
        } else {
            self.perf() / b
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::EnergyReport;

    fn report(cycles: u64, warp_ops: u64) -> SimReport {
        SimReport {
            cycles,
            warp_ops,
            read_replies: warp_ops / 2,
            local_misses: 30,
            remote_misses: 10,
            l1_hits: 60,
            llc_hits: 20,
            llc_accesses: 40,
            dram_accesses: 20,
            dram_row_hit_rate: 0.5,
            noc_bytes: 1000,
            local_link_bytes: 2000,
            replica_fills: 0,
            mdr_replication_rate: 0.0,
            page_faults: 5,
            final_npb: 0.95,
            channel_imbalance: 1.2,
            avg_read_latency: 250.0,
            max_read_latency: 900,
            noc_watts: 3.0,
            stall_downstream: 100,
            stall_mshr: 50,
            stall_outstanding: 150,
            local_link_busy_cycles: 400,
            noc_serialization_cycles: 300.0,
            dram_bus_busy_cycles: 200,
            energy: EnergyReport {
                noc_j: 1.0,
                rest_j: 9.0,
            },
            latency: LatencyReport::default(),
        }
    }

    #[test]
    fn derived_rates() {
        let r = report(1000, 500);
        assert_eq!(r.perf(), 0.5);
        assert_eq!(r.replies_per_cycle(), 0.25);
        assert_eq!(r.local_miss_fraction(), 0.75);
        assert_eq!(r.llc_hit_rate(), 0.5);
        assert_eq!(r.l1_hit_rate(), 0.6);
    }

    #[test]
    fn speedup_ratio() {
        let base = report(1000, 400);
        let fast = report(1000, 500);
        assert!((fast.speedup_over(&base) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_are_safe() {
        let r = report(0, 0);
        assert_eq!(r.perf(), 0.0);
        assert_eq!(r.replies_per_cycle(), 0.0);
    }

    #[test]
    fn bottleneck_shares_sum_to_one() {
        let r = report(1000, 500);
        let b = r.bottleneck_breakdown();
        assert!((b.sum() - 1.0).abs() < 1e-9, "shares sum to {}", b.sum());
        // pool = 500 + 50 + 100 + 150 = 800.
        assert!((b.compute - 500.0 / 800.0).abs() < 1e-12);
        assert!((b.l1_bound - 50.0 / 800.0).abs() < 1e-12);
        // Memory pool 250/800 split by weights 400:300:40:200 (llc
        // weight is llc_accesses = 40).
        let mem = 250.0 / 800.0;
        let wsum = 400.0 + 300.0 + 40.0 + 200.0;
        assert!((b.local_link_bound - mem * 400.0 / wsum).abs() < 1e-12);
        assert!((b.dram_bound - mem * 200.0 / wsum).abs() < 1e-12);
    }

    #[test]
    fn latency_report_json_is_integral_and_complete() {
        let mut lat = LatencyReport::default();
        lat.tiers[crate::telemetry::TIER_LOCAL].record(40);
        lat.tiers[crate::telemetry::TIER_DRAM].record(400);
        lat.stages[crate::telemetry::STAGE_LLC].record(8);
        let j = lat.json();
        for key in [
            "\"overall\":",
            "\"tiers\":",
            "\"stages\":",
            "\"local\":",
            "\"remote\":",
            "\"dram\":",
            "\"sm_to_slice\":",
            "\"slice_queue\":",
            "\"llc\":",
            "\"dram_reply\":",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        // Merged overall distribution covers both tiers.
        assert_eq!(lat.overall().count(), 2);
        assert_eq!(lat.overall().max(), 400);
        // No floats anywhere: every value is a bare integer.
        assert!(!j.contains('.'), "unexpected float in {j}");
    }

    #[test]
    fn bottleneck_edge_cases_stay_normalized() {
        // Idle machine: everything in compute by definition.
        let b = SimReport::empty().bottleneck_breakdown();
        assert_eq!(b.compute, 1.0);
        assert!((b.sum() - 1.0).abs() < 1e-9);
        // Stalls with an all-idle downstream land on the LLC queues.
        let b = BottleneckBreakdown::from_counters(10, 0, 30, 0, 0.0, 0.0, 0.0, 0.0);
        assert!((b.sum() - 1.0).abs() < 1e-9);
        assert!((b.llc_queue_bound - 0.75).abs() < 1e-12);
        assert_eq!(b.dominant().0, "LLC-queue-bound");
    }
}
