//! Every workload and metric name this benchmark prints, with unit,
//! direction and bound. `BENCHMARK.json` repeats this table for the
//! driver; a unit test keeps the two identical.

pub const LOWER: &str = "lower";
pub const HIGHER: &str = "higher";

/// `(name, why)` of each workload, in run order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "dense_stream_nuba",
        "LBM on NUBA/LAB/MDR: low sharing, 30% stores, L1 hit 3%, so local links, the LLC local queue and the DRAM bank FSMs do the work and the crossbar little",
    ),
    (
        "dense_shared_uba",
        "BICG on memory-side UBA: high sharing, every L1 miss crosses the crossbar into the remote queue and no local link exists; the mirror image of the first",
    ),
    (
        "dense_shared_nuba",
        "BICG on NUBA/LAB/MDR: the same kernel through the same LlcSlice code with local and remote queues, replica fills and the MDR epoch controller live",
    ),
    (
        "idle_latency",
        "B+tree on one SM with one warp: the machine idles through each DRAM round-trip, so NextEvent skipping does the work; a dense-path change must not move it",
    ),
    (
        "matrix_short",
        "29 benchmarks x {UBA-mem, NUBA-MDR} x 500 cycles through the runner, cold store then hot: per-job build, warm, checkpoint and store I/O dominate, not the cycle loop",
    ),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: LOWER,
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: LOWER,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_cycles_per_s",
        unit: "1/s",
        better: HIGHER,
        bound: 0.20,
    },
    EndToEnd {
        name: "warp_ops_per_s",
        unit: "1/s",
        better: HIGHER,
        bound: 0.20,
    },
    EndToEnd {
        name: "us_per_cycle_p50",
        unit: "us",
        better: LOWER,
        bound: 0.20,
    },
    EndToEnd {
        name: "us_per_cycle_p90",
        unit: "us",
        better: LOWER,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: LOWER,
        bound: 0.10,
    },
];

/// How a per-layer number is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host time around a public call, in the traced pass.
    Span,
    /// Host ns per call of a leaf component driven alone.
    Probe,
    /// Simulated counter from the final report; repeats exactly.
    Sim,
    /// The same window run under two settings, alternating.
    Diff,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub kind: Kind,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str, kind: Kind) -> Layer {
    Layer {
        name,
        unit,
        better,
        kind,
    }
}

pub const PER_LAYER: [Layer; 63] = [
    layer("workloads.build_ms", "ms", LOWER, Kind::Span),
    layer("workloads.next_op_ns", "ns", LOWER, Kind::Probe),
    layer("compiler.analyze_all_ms", "ms", LOWER, Kind::Probe),
    layer("core.build_ms", "ms", LOWER, Kind::Span),
    layer("core.warm_ms", "ms", LOWER, Kind::Span),
    layer("core.run_s", "s", LOWER, Kind::Span),
    layer("core.report_us", "us", LOWER, Kind::Span),
    layer("core.checkpoint_ms", "ms", LOWER, Kind::Span),
    layer("core.resume_ms", "ms", LOWER, Kind::Span),
    layer("core.checkpoint_bytes", "B", LOWER, Kind::Sim),
    layer("core.us_per_warp_op", "us", LOWER, Kind::Span),
    layer("core.stepped_frac", "ratio", LOWER, Kind::Sim),
    layer("core.telemetry.overhead_frac", "ratio", LOWER, Kind::Diff),
    layer("core.sm.ipc", "1/cycle", HIGHER, Kind::Sim),
    layer("core.sm.warp_ops", "count", HIGHER, Kind::Sim),
    layer("core.sm.stall_mshr", "count", LOWER, Kind::Sim),
    layer("core.sm.stall_downstream", "count", LOWER, Kind::Sim),
    layer("core.sm.stall_outstanding", "count", LOWER, Kind::Sim),
    layer("cache.l1_hit_rate", "ratio", HIGHER, Kind::Sim),
    layer("core.llc.accesses", "count", HIGHER, Kind::Sim),
    layer("core.llc.hit_rate", "ratio", HIGHER, Kind::Sim),
    layer("core.llc.local_miss_frac", "ratio", HIGHER, Kind::Sim),
    layer("core.llc.replica_fills", "count", HIGHER, Kind::Sim),
    layer("core.mdr.replication_rate", "ratio", HIGHER, Kind::Sim),
    layer("core.mdr.evaluate_ns", "ns", LOWER, Kind::Probe),
    layer("core.bottleneck.compute", "ratio", HIGHER, Kind::Sim),
    layer("core.bottleneck.l1", "ratio", LOWER, Kind::Sim),
    layer("core.bottleneck.local_link", "ratio", LOWER, Kind::Sim),
    layer("core.bottleneck.noc", "ratio", LOWER, Kind::Sim),
    layer("core.bottleneck.llc_queue", "ratio", LOWER, Kind::Sim),
    layer("core.bottleneck.dram", "ratio", LOWER, Kind::Sim),
    layer("core.latency.read_p50", "cycles", LOWER, Kind::Sim),
    layer("core.latency.read_p99", "cycles", LOWER, Kind::Sim),
    layer("cache.tag_probe_ns", "ns", LOWER, Kind::Probe),
    layer("cache.tag_insert_ns", "ns", LOWER, Kind::Probe),
    layer("cache.mshr_cycle_ns", "ns", LOWER, Kind::Probe),
    layer("engine.link_tick_ns.idle", "ns", LOWER, Kind::Probe),
    layer("engine.link_tick_ns.busy", "ns", LOWER, Kind::Probe),
    layer("engine.local_link_bytes", "B", HIGHER, Kind::Sim),
    layer("engine.local_link_busy_cycles", "cycles", HIGHER, Kind::Sim),
    layer("noc.tick_ns.idle", "ns", LOWER, Kind::Probe),
    layer("noc.tick_ns.saturated", "ns", LOWER, Kind::Probe),
    layer("noc.bytes", "B", LOWER, Kind::Sim),
    layer("noc.serialization_cycles", "cycles", LOWER, Kind::Sim),
    layer("dram.tick_ns.idle", "ns", LOWER, Kind::Probe),
    layer("dram.tick_ns.streaming", "ns", LOWER, Kind::Probe),
    layer("dram.accesses", "count", LOWER, Kind::Sim),
    layer("dram.row_hit_rate", "ratio", HIGHER, Kind::Sim),
    layer("dram.bus_busy_cycles", "cycles", LOWER, Kind::Sim),
    layer("tlb.translate_ns", "ns", LOWER, Kind::Probe),
    layer("driver.fault_ns", "ns", LOWER, Kind::Probe),
    layer("tlb.page_faults", "count", LOWER, Kind::Sim),
    layer("driver.npb", "ratio", HIGHER, Kind::Sim),
    layer("bench.runner.overhead_s", "s", LOWER, Kind::Span),
    layer("bench.runner.job_wall_ms_p50", "ms", LOWER, Kind::Span),
    layer("bench.runner.jobs", "count", HIGHER, Kind::Sim),
    layer("bench.runner.failed_jobs", "count", LOWER, Kind::Sim),
    layer("bench.store.reuse_saving_s", "s", HIGHER, Kind::Span),
    layer("bench.store.bytes", "B", LOWER, Kind::Sim),
    layer("bench.fig7.nuba_speedup_low", "ratio", HIGHER, Kind::Sim),
    layer("bench.fig7.nuba_speedup_high", "ratio", HIGHER, Kind::Sim),
    layer(
        "bench.fig7.nuba_speedup_overall",
        "ratio",
        HIGHER,
        Kind::Sim,
    ),
    layer("trace.overhead_frac", "ratio", LOWER, Kind::Diff),
];

/// The unit of an end-to-end or per-layer metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    let end_to_end = END_TO_END.iter().map(|m| (m.name, m.unit));
    let per_layer = PER_LAYER.iter().map(|m| (m.name, m.unit));
    end_to_end
        .chain(per_layer)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

pub fn layer_kind(name: &str) -> Option<Kind> {
    PER_LAYER.iter().find(|l| l.name == name).map(|l| l.kind)
}

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u32 = 8;

/// The command the driver runs from the root of a checkout; it appends
/// `--workload W --seed N --seconds S --trace 0|1`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The text of `BENCHMARK.json`, from the tables above
/// (`nuba-perf manifest` prints it).
pub fn manifest() -> String {
    use crate::json::quote;
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let command: Vec<String> = COMMAND.iter().map(|c| quote(c)).collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        list(WORKLOADS
            .iter()
            .map(|(name, why)| format!("{{\"name\": {}, \"why\": {}}}", quote(name), quote(why)))
            .collect()),
        list(END_TO_END
            .iter()
            .map(|m| format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better),
                m.bound
            ))
            .collect()),
        list(PER_LAYER
            .iter()
            .map(|m| format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better)
            ))
            .collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn well_formed(name: &str, max: usize) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !name.is_empty()
            && name.len() <= max
            && name.chars().all(ok)
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_are_well_formed_unique_and_within_the_limits() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &all {
            assert!(well_formed(n, 64), "bad name {n:?}");
        }
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "a name is used twice");
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for (_, why) in WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {}",
                why.len()
            );
        }
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && [LOWER, HIGHER].contains(&m.better)));
        assert!(PER_LAYER
            .iter()
            .all(|m| unit_ok(m.unit) && [LOWER, HIGHER].contains(&m.better)));
    }

    #[test]
    fn bounds_follow_the_contract() {
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", LOWER));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn benchmark_json_is_the_manifest_of_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the root of the repository");
        assert_eq!(
            text,
            manifest(),
            "regenerate with `nuba-perf manifest > BENCHMARK.json`"
        );
        assert!(text.len() <= 64 * 1024);

        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let listed = |key: &str| -> Vec<String> {
            let items = doc.get(key).unwrap().as_arr();
            items
                .iter()
                .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(
            listed("workloads"),
            WORKLOADS.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        );
        assert_eq!(
            listed("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            listed("per_layer"),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        let secs = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
    }
}
