//! Result sets: the record each run writes, and `run`, which executes
//! every workload's timed and traced pass in a child process each and
//! gathers their records into one file for `agree`.

use std::process::{Command, ExitCode};

use crate::json::{self, number, quote};
use crate::outcome::{Opts, Outcome};
use crate::{host, names, out_dir, Args};

/// Everything one run leaves behind, beyond the result line.
pub struct RunRecord<'a> {
    pub workload: &'a str,
    pub pass: &'a str,
    pub opts: &'a Opts,
    pub out: &'a Outcome,
    /// The `metrics` object of the result line.
    pub metrics: &'a str,
    pub correct: bool,
    pub noisy: bool,
}

impl RunRecord<'_> {
    pub fn to_json(&self) -> String {
        let (o, out) = (self.opts, self.out);
        format!(
            "{{\"workload\":{},\"pass\":{},\"seed\":{},\"seconds\":{},\"quick\":{},\"correct\":{},\
             \"noisy\":{},\"attempted\":{},\"failed\":{},\"stats_digest\":{},\"cycles\":{},\"rounds\":{},\
             \"samples\":{},\"tail_percentile\":{},\"cpu_share\":{},\"metrics\":{}}}\n",
            quote(self.workload),
            quote(self.pass),
            o.seed,
            number(o.seconds),
            o.quick,
            self.correct,
            self.noisy,
            out.checks.attempted,
            out.checks.failed,
            quote(&out.digest),
            out.cycles,
            out.rounds,
            out.samples,
            out.tail_percentile,
            number(out.cpu_share),
            self.metrics
        )
    }
}

/// Run each workload's two passes `--repeat` times, every run a child
/// of its own (own peak memory, own harness options, own invariant
/// registry) with no `NUBA_*` variable handed down, and write the set.
pub fn run(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.parsed("--seed", 42)?;
    let seconds: f64 = args.parsed("--seconds", f64::from(names::RUN_SECONDS))?;
    let repeat: usize = args.parsed("--repeat", 1)?;
    let quick = args.switch("--quick");
    let out_file = args
        .value("--out")
        .map_or_else(|| out_dir().join("set.json"), Into::into);
    let only = args.value("--workload");
    if let Some(w) = only.filter(|w| !names::is_workload(w)) {
        return Err(format!("unknown workload {w:?}"));
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;

    let mut runs: Vec<String> = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    for _ in 0..repeat {
        for (workload, _) in names::WORKLOADS
            .iter()
            .filter(|(w, _)| only.is_none_or(|o| o == *w))
        {
            let mut digests = Vec::new();
            for (trace, pass) in [("0", "timed"), ("1", "traced")] {
                let mut child = Command::new(&exe);
                child.args(["--workload", workload, "--trace", trace]);
                child.args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ]);
                if quick {
                    child.arg("--quick");
                }
                for var in host::nuba_vars() {
                    child.env_remove(var);
                }
                let status = child
                    .status()
                    .map_err(|e| format!("cannot start {workload}: {e}"))?;
                if !status.success() {
                    problems.push(format!("{workload} ({pass}) exited with {status}"));
                }
                let path = out_dir().join(format!("result-{workload}-{pass}.json"));
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                let record = json::parse(&text)?;
                digests.extend(
                    record
                        .get("stats_digest")
                        .and_then(|d| d.as_str())
                        .map(str::to_string),
                );
                runs.push(text.trim_end().to_string());
            }
            if digests.len() != 2 || digests[0] != digests[1] {
                problems.push(format!(
                    "{workload}: the timed and the traced pass end in different reports ({digests:?})"
                ));
            }
        }
    }

    let set = format!(
        "{{\"quick\":{quick},\"seed\":{seed},\"nproc\":{},\"rustc\":{},\"commit\":{},\"runs\":[\n{}\n]}}\n",
        host::nproc(),
        quote(&host::rustc_version()),
        quote(&host::commit()),
        runs.join(",\n")
    );
    std::fs::write(&out_file, set)
        .map_err(|e| format!("cannot write {}: {e}", out_file.display()))?;
    println!(
        "nuba-perf: {} runs written to {}",
        runs.len(),
        out_file.display()
    );
    for p in &problems {
        println!("nuba-perf: FAILED {p}");
    }
    Ok(if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
