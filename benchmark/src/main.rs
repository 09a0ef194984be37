//! `nuba-perf`: the repository's benchmark.
//!
//! ```text
//! nuba-perf --workload W --seed N --seconds S --trace 0|1 [--quick]
//! nuba-perf run [--seed N] [--seconds S] [--workload W] [--repeat R] [--quick] [--out FILE]
//! nuba-perf agree A.json B.json
//! nuba-perf manifest
//! ```
//!
//! The first form is one run of one workload in this process — the
//! timed pass (`--trace 0`, end-to-end metrics) or the traced pass
//! (`--trace 1`, per-layer metrics) — and ends with one JSON line on
//! standard output. `run` executes that form once per (workload, pass)
//! in a child process each and gathers a result set; `agree` compares
//! two result sets; `manifest` prints `BENCHMARK.json` from the tables
//! in `names.rs`. README.md defines every metric.

mod agree;
mod host;
mod json;
mod matrix;
mod names;
mod outcome;
mod probes;
mod session;
mod set;
mod span;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::json::{number, quote};
use crate::outcome::{Opts, Outcome};

/// Where traces, records and the matrix's checkpoint store go: under
/// the benchmark's own directory, from the root of the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

/// Write `text` to `name` in [`out_dir`]. Failing to write a side
/// file does not fail the run; the result line is what counts.
pub fn write_out(name: &str, text: &str) {
    let path = out_dir().join(name);
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("nuba-perf: cannot write {}: {e}", path.display());
    }
}

/// Command-line flags as `--name value` pairs plus bare switches.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot read {v:?}")),
        }
    }

    fn switch(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

/// Remove every `NUBA_*` variable from this process's environment and
/// set the ones the workload names, then confirm nothing else is left:
/// the harness reads its knobs from the environment once, and a stray
/// one (`NUBA_NO_SKIP`, `NUBA_FIDELITY`, …) would change what is
/// measured without changing what is printed.
fn scrub_environment(workload: &str) -> Result<(), String> {
    for var in host::nuba_vars() {
        std::env::remove_var(var);
    }
    let mut named = Vec::new();
    if workload == "matrix_short" {
        std::env::set_var(matrix::STORE_VAR, matrix::store_dir());
        named.push(matrix::STORE_VAR.to_string());
    }
    let left = host::nuba_vars();
    if left != named {
        return Err(format!(
            "environment holds {left:?}, the workload names {named:?}"
        ));
    }
    Ok(())
}

fn metrics_json(metrics: &[(&'static str, f64)], unit_of: impl Fn(&str) -> &'static str) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(name),
                number(*value),
                quote(unit_of(name))
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// One run of one workload: print every metric by name with its unit,
/// write the record, and end with the result line.
fn single(args: &Args) -> Result<ExitCode, String> {
    let workload = args
        .value("--workload")
        .ok_or("--workload is required")?
        .to_string();
    if !names::is_workload(&workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let opts = Opts {
        seed: args.parsed("--seed", 42)?,
        seconds: args.parsed("--seconds", f64::from(names::RUN_SECONDS))?,
        trace: match args.value("--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace: expected 0 or 1, got {v:?}")),
        },
        quick: args.switch("--quick"),
    };
    if !(opts.seconds > 0.0 && opts.seconds <= 120.0) {
        return Err(format!("--seconds: {} is outside (0, 120]", opts.seconds));
    }
    // An unoptimised build times the compiler's debug output, not the
    // simulator. A quick run is never a result, so tests may make one.
    if cfg!(debug_assertions) && !opts.quick {
        return Err("refusing to report from a debug build; use --release".to_string());
    }
    scrub_environment(&workload)?;

    let out = match session::shape(&workload) {
        Some(shape) => session::run(&workload, &shape, &opts),
        None => matrix::run(&workload, &opts),
    };
    report(&workload, &opts, &out)
}

fn report(workload: &str, opts: &Opts, out: &Outcome) -> Result<ExitCode, String> {
    let unit_of = |name: &str| names::unit_of(name).expect("every printed metric is in names.rs");
    let pass = if opts.trace { "traced" } else { "timed" };
    println!(
        "{workload} ({pass} pass, seed {}, {} rounds of {} simulated cycles{})",
        opts.seed,
        out.rounds,
        out.cycles,
        if opts.quick { ", quick" } else { "" }
    );
    for (name, value) in &out.metrics {
        // Six decimals suit every metric but the tiny ratios.
        if *value != 0.0 && value.abs() < 1e-3 {
            println!("  {name:<34} {value:>18.6e} {}", unit_of(name));
        } else {
            println!("  {name:<34} {value:>18.6} {}", unit_of(name));
        }
    }
    println!(
        "  us_per_cycle percentiles rest on {} samples; the tail is p{}",
        out.samples, out.tail_percentile
    );
    println!("  stats_digest {}", out.digest);
    let noisy = out.cpu_share < 0.95;
    if noisy {
        println!(
            "  noisy: CPU time is {:.3} of wall time over the rounds",
            out.cpu_share
        );
    }
    for note in &out.checks.notes {
        println!("  FAILED {note}");
    }

    let mut expected: Vec<&str> = if opts.trace {
        names::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        names::END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut printed: Vec<&str> = out.metrics.iter().map(|(n, _)| *n).collect();
    expected.sort_unstable();
    printed.sort_unstable();
    if expected != printed {
        return Err("the run lost its rounds and has no result to print".to_string());
    }
    let correct = out.checks.failed == 0;
    let (attempted, failed) = (out.checks.attempted.max(1), out.checks.failed);
    let metrics = metrics_json(&out.metrics, unit_of);

    let record = set::RunRecord {
        workload,
        pass,
        opts,
        out,
        metrics: &metrics,
        correct,
        noisy,
    };
    write_out(&format!("result-{workload}-{pass}.json"), &record.to_json());
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{metrics}}}"
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => set::run(&Args(args[1..].to_vec())),
        Some("agree") => agree::main(&args[1..]),
        Some("manifest") => {
            print!("{}", names::manifest());
            Ok(ExitCode::SUCCESS)
        }
        _ => single(&Args(args)),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("nuba-perf: {e}");
        ExitCode::from(2)
    })
}
