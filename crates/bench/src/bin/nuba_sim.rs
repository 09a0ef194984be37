//! `nuba-sim`: a command-line driver for one-off simulations — the tool
//! a downstream user reaches for before writing any code.
//!
//! ```text
//! nuba_sim --arch nuba --bench SGEMM --cycles 50000 --replication mdr
//! nuba_sim --arch uba-mem --bench all --noc-tbs 0.7 --json
//! nuba_sim --help
//! ```

use nuba_bench::runner::{run_matrix, Job, JobResult};
use nuba_bench::{Harness, HarnessOptions};
use nuba_core::{Checkpoint, SimReport, SimSession};
use nuba_types::{ArchKind, GpuConfig, MappingKind, PagePolicyKind, ReplicationKind};
use nuba_workloads::{BenchmarkId, ScaleProfile, Workload};

const HELP: &str = "\
nuba-sim — simulate one benchmark on one GPU configuration

USAGE:
    nuba_sim [OPTIONS]

OPTIONS:
    --arch <A>         uba-mem | uba-sm | nuba | mcm-uba | mcm-nuba   [nuba]
    --bench <B>        Table 2 abbreviation (e.g. SGEMM, LBM) or 'all' [SGEMM]
    --cycles <N>       timed window after warm-up                     [40000]
    --noc-tbs <F>      aggregate NoC bandwidth in TB/s                [1.4]
    --policy <P>       ft | rr | lab[:<threshold>] | migration | pagerep [lab:0.9]
    --replication <R>  none | full | mdr                              [mdr]
    --size <F>         scale SMs/LLC/channels by F (0.5, 1, 2)        [1]
    --warps <N>        active warp contexts per SM (latency-bound
                       occupancy when low)                            [32]
    --pages <S>        4k | 2m                                        [4k]
    --seed <N>         workload/layout seed                           [42]
    --kernel-every <N> flush L1s+LLC every N cycles (kernel boundaries)
    --capture <FILE>   write the benchmark's access trace and exit
    --trace <FILE>     simulate a captured trace instead of a benchmark
    --checkpoint <FILE> run the timed window, then save the machine state
    --resume <FILE>    restore a checkpoint and run to --cycles total
    --json             machine-readable output
    -h, --help         this text
";

struct Args {
    arch: ArchKind,
    bench: Option<BenchmarkId>, // None = all
    cycles: u64,
    noc_tbs: f64,
    policy: PagePolicyKind,
    replication: ReplicationKind,
    size: f64,
    warps: Option<usize>,
    huge_pages: bool,
    seed: u64,
    kernel_every: Option<u64>,
    capture: Option<String>,
    trace: Option<String>,
    checkpoint: Option<String>,
    resume: Option<String>,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        arch: ArchKind::Nuba,
        bench: Some(BenchmarkId::Sgemm),
        cycles: 40_000,
        noc_tbs: 1.4,
        policy: PagePolicyKind::lab_default(),
        replication: ReplicationKind::Mdr,
        size: 1.0,
        warps: None,
        huge_pages: false,
        seed: 42,
        kernel_every: None,
        capture: None,
        trace: None,
        checkpoint: None,
        resume: None,
        json: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value after {}", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "-h" | "--help" => {
                print!("{HELP}");
                std::process::exit(0);
            }
            "--arch" => {
                a.arch = match value(&mut i)?.as_str() {
                    "uba-mem" => ArchKind::MemSideUba,
                    "uba-sm" => ArchKind::SmSideUba,
                    "nuba" => ArchKind::Nuba,
                    "mcm-uba" => ArchKind::McmUba,
                    "mcm-nuba" => ArchKind::McmNuba,
                    other => return Err(format!("unknown arch `{other}`")),
                };
            }
            "--bench" => {
                let v = value(&mut i)?;
                a.bench = if v.eq_ignore_ascii_case("all") {
                    None
                } else {
                    Some(
                        BenchmarkId::from_abbr(&v)
                            .ok_or_else(|| format!("unknown benchmark `{v}` (see table2)"))?,
                    )
                };
            }
            "--cycles" => a.cycles = value(&mut i)?.parse().map_err(|e| format!("cycles: {e}"))?,
            "--noc-tbs" => {
                a.noc_tbs = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("noc-tbs: {e}"))?
            }
            "--policy" => {
                let v = value(&mut i)?;
                a.policy = match v.split(':').collect::<Vec<_>>().as_slice() {
                    ["ft"] => PagePolicyKind::FirstTouch,
                    ["rr"] => PagePolicyKind::RoundRobin,
                    ["lab"] => PagePolicyKind::lab_default(),
                    ["lab", t] => PagePolicyKind::Lab {
                        threshold: t.parse().map_err(|e| format!("lab threshold: {e}"))?,
                    },
                    ["migration"] => PagePolicyKind::Migration,
                    ["pagerep"] => PagePolicyKind::PageReplication,
                    _ => return Err(format!("unknown policy `{v}`")),
                };
            }
            "--replication" => {
                a.replication = match value(&mut i)?.as_str() {
                    "none" => ReplicationKind::None,
                    "full" => ReplicationKind::Full,
                    "mdr" => ReplicationKind::Mdr,
                    other => return Err(format!("unknown replication `{other}`")),
                };
            }
            "--size" => a.size = value(&mut i)?.parse().map_err(|e| format!("size: {e}"))?,
            "--warps" => {
                let n: usize = value(&mut i)?.parse().map_err(|e| format!("warps: {e}"))?;
                if n == 0 {
                    return Err("warps: must be at least 1".to_string());
                }
                a.warps = Some(n);
            }
            "--pages" => {
                a.huge_pages = match value(&mut i)?.as_str() {
                    "4k" | "4K" => false,
                    "2m" | "2M" => true,
                    other => return Err(format!("unknown page size `{other}`")),
                };
            }
            "--seed" => a.seed = value(&mut i)?.parse().map_err(|e| format!("seed: {e}"))?,
            "--kernel-every" => {
                a.kernel_every = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("kernel-every: {e}"))?,
                )
            }
            "--capture" => a.capture = Some(value(&mut i)?),
            "--trace" => a.trace = Some(value(&mut i)?),
            "--checkpoint" => a.checkpoint = Some(value(&mut i)?),
            "--resume" => a.resume = Some(value(&mut i)?),
            "--json" => a.json = true,
            other => return Err(format!("unknown option `{other}` (try --help)")),
        }
        i += 1;
    }
    Ok(a)
}

fn build_config(a: &Args) -> GpuConfig {
    let mut cfg = if a.arch.is_mcm() {
        GpuConfig::paper_mcm(a.arch)
    } else {
        GpuConfig::paper_baseline(a.arch)
    };
    if (a.size - 1.0).abs() > 1e-9 {
        cfg = cfg.scaled(a.size);
    }
    cfg = cfg
        .with_noc_tbs(a.noc_tbs)
        .with_policy(a.policy)
        .with_replication(a.replication)
        .with_seed(a.seed)
        .with_kernel_boundaries(a.kernel_every);
    if let Some(w) = a.warps {
        cfg = cfg.with_active_warps(w);
    }
    if a.huge_pages {
        cfg = cfg.with_page_bytes(2 << 20);
    }
    if a.arch == ArchKind::SmSideUba || a.arch == ArchKind::MemSideUba {
        // UBA address maps conventionally randomize; keep the paper's
        // fixed-channel default for fairness but allow PAE via env.
        if HarnessOptions::get().pae {
            cfg = cfg.with_mapping(MappingKind::Pae);
        }
    }
    cfg
}

fn scale_of(a: &Args) -> ScaleProfile {
    if a.huge_pages {
        ScaleProfile::huge_pages()
    } else if HarnessOptions::get().fast {
        // `NUBA_FAST=1` quarter-density scaling, exactly like the
        // figure binaries — keeps checkpoint drills cheap in CI.
        ScaleProfile::fast()
    } else {
        ScaleProfile::default()
    }
}

/// Run the selected benchmarks on the `NUBA_JOBS` worker pool,
/// returning per-job reports plus wall-clock / throughput records.
/// With `NUBA_OBS` set every job samples 1000-cycle windows and one
/// read in 64, so the exported files have something to show.
fn run_all(a: &Args, benches: &[BenchmarkId]) -> Vec<JobResult> {
    let h = Harness {
        cycles: a.cycles,
        scale: scale_of(a),
        seed: a.seed,
    };
    let mut cfg = build_config(a);
    if HarnessOptions::get().obs.is_some() {
        cfg.telemetry.window_cycles = Some(1000);
        cfg.telemetry.trace_sample_period = 64;
    }
    let jobs: Vec<Job> = benches
        .iter()
        .map(|&b| Job::new(b.to_string(), b, cfg.clone()))
        .collect();
    run_matrix(&h, &jobs)
}

/// One job as a single JSON object: the full [`SimReport`] plus the
/// top-down bottleneck breakdown. Deliberately free of wall-clock and
/// throughput fields so the output is byte-identical run to run —
/// timing chatter goes to stderr instead.
fn json_report(b: BenchmarkId, a: &Args, r: &SimReport, quarantined: bool) -> String {
    let bd = r.bottleneck_breakdown();
    format!(
        "{{\"bench\":\"{}\",\"arch\":\"{}\",\"quarantined\":{},\"cycles\":{},\
         \"warp_ops\":{},\"read_replies\":{},\"local_misses\":{},\"remote_misses\":{},\
         \"l1_hits\":{},\"llc_hits\":{},\"llc_accesses\":{},\
         \"perf\":{:.4},\"replies_per_cycle\":{:.4},\"l1_hit_rate\":{:.4},\
         \"llc_hit_rate\":{:.4},\"local_miss_fraction\":{:.4},\"dram_accesses\":{},\
         \"dram_row_hit_rate\":{:.4},\"noc_bytes\":{},\"local_link_bytes\":{},\
         \"replica_fills\":{},\"mdr_replication_rate\":{:.4},\"page_faults\":{},\
         \"npb\":{:.4},\"channel_imbalance\":{:.4},\
         \"avg_read_latency\":{:.1},\"max_read_latency\":{},\
         \"stall_downstream\":{},\"stall_mshr\":{},\"stall_outstanding\":{},\
         \"local_link_busy_cycles\":{},\"noc_serialization_cycles\":{:.1},\
         \"dram_bus_busy_cycles\":{},\
         \"noc_watts\":{:.2},\"noc_energy_j\":{:.6},\"rest_energy_j\":{:.6},\
         \"latency\":{},\
         \"bottleneck\":{{\"compute\":{:.6},\"l1_bound\":{:.6},\
         \"local_link_bound\":{:.6},\"noc_bound\":{:.6},\
         \"llc_queue_bound\":{:.6},\"dram_bound\":{:.6},\"dominant\":\"{}\"}}}}",
        b,
        a.arch.label(),
        quarantined,
        r.cycles,
        r.warp_ops,
        r.read_replies,
        r.local_misses,
        r.remote_misses,
        r.l1_hits,
        r.llc_hits,
        r.llc_accesses,
        r.perf(),
        r.replies_per_cycle(),
        r.l1_hit_rate(),
        r.llc_hit_rate(),
        r.local_miss_fraction(),
        r.dram_accesses,
        r.dram_row_hit_rate,
        r.noc_bytes,
        r.local_link_bytes,
        r.replica_fills,
        r.mdr_replication_rate,
        r.page_faults,
        r.final_npb,
        r.channel_imbalance,
        r.avg_read_latency,
        r.max_read_latency,
        r.stall_downstream,
        r.stall_mshr,
        r.stall_outstanding,
        r.local_link_busy_cycles,
        r.noc_serialization_cycles,
        r.dram_bus_busy_cycles,
        r.noc_watts,
        r.energy.noc_j,
        r.energy.rest_j,
        r.latency.json(),
        bd.compute,
        bd.l1_bound,
        bd.local_link_bound,
        bd.noc_bound,
        bd.llc_queue_bound,
        bd.dram_bound,
        bd.dominant().0,
    )
}

fn print_human(b: BenchmarkId, j: &JobResult) {
    let r = &j.report;
    println!("{:-<66}", format!("-- {} ({}) ", b.spec().name, b));
    println!(
        "  perf            {:>10.2} warp-ops/cycle    replies/cycle {:>7.2}",
        r.perf(),
        r.replies_per_cycle()
    );
    println!(
        "  hit rates       L1 {:>5.1}%   LLC {:>5.1}%   DRAM rows {:>5.1}%",
        r.l1_hit_rate() * 100.0,
        r.llc_hit_rate() * 100.0,
        r.dram_row_hit_rate * 100.0
    );
    println!(
        "  locality        {:>5.1}% of misses local   {} replica fills   NPB {:.2}",
        r.local_miss_fraction() * 100.0,
        r.replica_fills,
        r.final_npb
    );
    println!(
        "  latency         avg {:>6.0} cycles   max {:>6}",
        r.avg_read_latency, r.max_read_latency
    );
    println!(
        "  traffic         NoC {:.1} MB   local links {:.1} MB   DRAM {} lines",
        r.noc_bytes as f64 / 1e6,
        r.local_link_bytes as f64 / 1e6,
        r.dram_accesses
    );
    println!(
        "  power/energy    NoC {:.1} W   energy {:.3} J (NoC {:.1}%)",
        r.noc_watts,
        r.energy.total_j(),
        r.energy.noc_fraction() * 100.0
    );
    let bd = r.bottleneck_breakdown();
    let shares = bd
        .shares()
        .iter()
        .map(|(name, share)| format!("{name} {:.0}%", share * 100.0))
        .collect::<Vec<_>>()
        .join("  ");
    println!("  bottleneck      {shares}");
    // Wall-clock is nondeterministic; keep it off the parseable stream.
    eprintln!(
        "  simulation      {:.2} s wall-clock   {:.0} cycles/s",
        j.wall_seconds, j.cycles_per_sec
    );
}

fn run_trace(a: &Args, path: &str) {
    let file = std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("error: cannot open trace {path}: {e}");
        std::process::exit(2);
    });
    let trace =
        nuba_workloads::Trace::read_from(std::io::BufReader::new(file)).unwrap_or_else(|e| {
            eprintln!("error: bad trace {path}: {e}");
            std::process::exit(2);
        });
    let mut cfg = build_config(a);
    // The machine must match the trace's SM count.
    let factor = trace.num_sms as f64 / cfg.num_sms as f64;
    if (factor - 1.0).abs() > 1e-9 {
        cfg = cfg.scaled(factor);
    }
    let wl = Workload::from_trace(trace);
    let mut sess = SimSession::builder(cfg, wl).build().unwrap_or_else(|e| {
        eprintln!("error: invalid configuration: {e}");
        std::process::exit(2);
    });
    sess.warm();
    let r = sess.run_window(a.cycles).unwrap_or_else(|e| {
        eprintln!("error: simulation aborted: {e}");
        std::process::exit(2);
    });
    println!("trace {path} on {}:", a.arch.label());
    println!(
        "  perf={:.2} warp-ops/cycle  replies/cycle={:.2}  L1 {:.1}%  LLC {:.1}%  local {:.1}%",
        r.perf(),
        r.replies_per_cycle(),
        r.l1_hit_rate() * 100.0,
        r.llc_hit_rate() * 100.0,
        r.local_miss_fraction() * 100.0
    );
}

fn capture_trace(a: &Args, bench: BenchmarkId, path: &str) {
    let cfg = build_config(a);
    let scale = if a.huge_pages {
        ScaleProfile::huge_pages()
    } else {
        ScaleProfile::default()
    };
    let wl = Workload::build(bench, scale, cfg.num_sms, a.seed);
    let warps = cfg.active_warps();
    // Record roughly as many ops as the timed window would consume.
    let ops = (a.cycles as usize / 4).clamp(256, 65_536);
    let trace = nuba_workloads::Trace::capture(&wl, warps, ops);
    let file = std::fs::File::create(path).unwrap_or_else(|e| {
        eprintln!("error: cannot create {path}: {e}");
        std::process::exit(2);
    });
    trace
        .write_to(std::io::BufWriter::new(file))
        .unwrap_or_else(|e| {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(2);
        });
    println!(
        "captured {} ops ({} SMs x {} warps x {} ops) of {bench} to {path}",
        trace.len(),
        trace.num_sms,
        trace.warps_per_sm,
        ops
    );
}

/// `--checkpoint`: run the timed window on a [`SimSession`] and save the
/// machine state. Nothing is printed on stdout — the point is the file.
fn checkpoint_run(a: &Args, bench: BenchmarkId, path: &str) {
    let cfg = build_config(a);
    let wl = Workload::build(bench, scale_of(a), cfg.num_sms, a.seed);
    let mut sess = SimSession::builder(cfg, wl).build().unwrap_or_else(|e| {
        eprintln!("error: invalid configuration: {e}");
        std::process::exit(2);
    });
    sess.warm();
    sess.run_window(a.cycles).unwrap_or_else(|e| {
        eprintln!("error: simulation aborted: {e}");
        std::process::exit(2);
    });
    let ckpt = sess.checkpoint();
    let bytes = ckpt.to_bytes();
    // Written atomically: temp + rename, so a crash never leaves a torn
    // file at the requested path.
    let tmp = format!("{path}.tmp.{}", std::process::id());
    std::fs::write(&tmp, &bytes)
        .and_then(|()| std::fs::rename(&tmp, path))
        .unwrap_or_else(|e| {
            let _ = std::fs::remove_file(&tmp);
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(2);
        });
    eprintln!(
        "checkpointed {bench} on {} at cycle {} -> {path}",
        a.arch.label(),
        ckpt.cycle()
    );
}

/// `--resume`: restore a checkpoint and continue to `--cycles` total
/// simulated cycles, then report exactly like an uninterrupted run.
/// The configuration embedded in the checkpoint is authoritative; the
/// benchmark, page size, and architecture flags must match the saving
/// run (the config/workload hashes reject anything else).
fn resume_run(a: &Args, bench: BenchmarkId, path: &str) {
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let ckpt = Checkpoint::from_bytes(&bytes).unwrap_or_else(|e| {
        eprintln!("error: bad checkpoint {path}: {e}");
        std::process::exit(2);
    });
    let cfg = ckpt.config().clone();
    let wl = Workload::build(bench, scale_of(a), cfg.num_sms, cfg.seed);
    let mut sess = SimSession::resume(&ckpt, wl).unwrap_or_else(|e| {
        eprintln!("error: cannot resume from {path}: {e}");
        std::process::exit(2);
    });
    let remaining = a.cycles.saturating_sub(ckpt.cycle());
    let r = sess.run_window(remaining).unwrap_or_else(|e| {
        eprintln!("error: simulation aborted: {e}");
        std::process::exit(2);
    });
    if a.json {
        println!("[");
        println!("  {}", json_report(bench, a, &r, false));
        println!("]");
    } else {
        println!(
            "resumed {bench} from cycle {} to {}: perf={:.2} warp-ops/cycle  \
             L1 {:.1}%  LLC {:.1}%  local {:.1}%",
            ckpt.cycle(),
            a.cycles,
            r.perf(),
            r.l1_hit_rate() * 100.0,
            r.llc_hit_rate() * 100.0,
            r.local_miss_fraction() * 100.0
        );
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{HELP}");
            std::process::exit(2);
        }
    };
    if let Some(path) = args.resume.clone() {
        let bench = args.bench.unwrap_or(BenchmarkId::Sgemm);
        resume_run(&args, bench, &path);
        return;
    }
    if let Some(path) = args.checkpoint.clone() {
        let bench = args.bench.unwrap_or(BenchmarkId::Sgemm);
        checkpoint_run(&args, bench, &path);
        return;
    }
    if let Some(path) = args.trace.clone() {
        run_trace(&args, &path);
        return;
    }
    if let Some(path) = args.capture.clone() {
        let bench = args.bench.unwrap_or(BenchmarkId::Sgemm);
        capture_trace(&args, bench, &path);
        return;
    }
    let benches: Vec<BenchmarkId> = match args.bench {
        Some(b) => vec![b],
        None => BenchmarkId::ALL.to_vec(),
    };
    let results = run_all(&args, &benches);
    nuba_bench::obs::write(&results);
    if args.json {
        println!("[");
        for (i, (&b, j)) in benches.iter().zip(&results).enumerate() {
            let comma = if i + 1 < benches.len() { "," } else { "" };
            println!(
                "  {}{}",
                json_report(b, &args, &j.report, j.failed()),
                comma
            );
        }
        println!("]");
    } else {
        println!(
            "arch={} noc={:.1}TB/s policy={} replication={} cycles={} seed={}",
            args.arch.label(),
            args.noc_tbs,
            args.policy.label(),
            args.replication.label(),
            args.cycles,
            args.seed
        );
        for (&b, j) in benches.iter().zip(&results) {
            print_human(b, j);
        }
    }

    std::process::exit(nuba_bench::runner::finish());
}
