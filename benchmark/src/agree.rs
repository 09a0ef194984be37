//! `nuba-perf agree A.json B.json`: do two result sets agree within
//! the benchmark's own bounds? One row per (workload, end-to-end
//! metric); every simulated counter and digest must be equal.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::{self, Value};
use crate::names::{self, Kind, HIGHER};
use crate::stats::{median, quartiles};

/// The values one set holds for one (workload, metric), a run each.
type Samples = BTreeMap<(String, String), Vec<f64>>;

struct Set {
    timed: Samples,
    /// Per-layer metrics of kind `Sim`, from the traced passes.
    sim: Samples,
    /// Digest, seed and cycle count of every run, by workload.
    identity: BTreeMap<String, Vec<String>>,
}

fn load(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("quick").and_then(Value::as_bool) != Some(false) {
        return Err(format!("{path}: a quick set is a smoke run, not a result"));
    }
    let mut set = Set {
        timed: Samples::new(),
        sim: Samples::new(),
        identity: BTreeMap::new(),
    };
    for run in doc.get("runs").map_or(&[][..], Value::as_arr) {
        let text = |key: &str| {
            run.get(key)
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string()
        };
        let num = |key: &str| run.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
        let workload = text("workload");
        if run.get("correct").and_then(Value::as_bool) != Some(true) {
            return Err(format!("{path}: a {workload} run is not correct"));
        }
        set.identity
            .entry(workload.clone())
            .or_default()
            .push(format!(
                "digest {} seed {} cycles {}",
                text("stats_digest"),
                num("seed"),
                num("cycles")
            ));
        let timed = text("pass") == "timed";
        let metrics = run.get("metrics").and_then(Value::as_obj);
        for (name, m) in metrics.into_iter().flatten() {
            let keep = timed || names::layer_kind(name) == Some(Kind::Sim);
            if let (true, Some(v)) = (keep, m.get("value").and_then(Value::as_f64)) {
                let into = if timed { &mut set.timed } else { &mut set.sim };
                into.entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(set)
}

/// How one end-to-end metric compares between two sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    /// The runs spread further than the bound and overlap, so a change
    /// can be neither shown nor ruled out.
    Unresolved,
}

/// Compare `b` against `a`. `worse` is the share of `a`'s median by
/// which `b`'s median is worse (negative: better). The spread is each
/// side's quartile distance over its median when a side has four runs
/// or more, and the distance between the two medians otherwise.
pub fn compare(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse = if higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let iqr = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / median(v)
    };
    let spread = if a.len() >= 4 && b.len() >= 4 {
        iqr(a).max(iqr(b))
    } else {
        worse.abs()
    };
    let verdict = if spread > bound {
        // Every run of one side reading better than every run of the
        // other is a difference no spread explains away.
        let best = |v: &[f64], pick_max: bool| {
            let fold = if pick_max { f64::max } else { f64::min };
            v.iter().copied().fold(
                if pick_max {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                },
                fold,
            )
        };
        let b_always_better = if higher_is_better {
            best(b, false) > best(a, true)
        } else {
            best(b, true) < best(a, false)
        };
        if b_always_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse, spread, verdict)
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("usage: nuba-perf agree A.json B.json".to_string());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut disagreements = 0;

    println!(
        "{:<20} {:<18} {:>14} {:>14} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worse %", "spread %"
    );
    for (workload, _) in names::WORKLOADS {
        for m in &names::END_TO_END {
            let key = (workload.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.timed.get(&key), b.timed.get(&key)) else {
                println!("{workload:<20} {:<18} missing from a set", m.name);
                disagreements += 1;
                continue;
            };
            let (worse, spread, verdict) = compare(va, vb, m.better == HIGHER, m.bound);
            println!(
                "{workload:<20} {:<18} {:>14.6} {:>14.6} {:>8.2} {:>8.2}  {}",
                m.name,
                median(va),
                median(vb),
                worse * 100.0,
                spread * 100.0,
                format!("{verdict:?}").to_lowercase()
            );
            disagreements +=
                usize::from(matches!(verdict, Verdict::Regressed | Verdict::Unresolved));
        }
    }

    // Simulated results repeat exactly: every run of a workload, in
    // either set, must carry the same digest, seed, cycle count and
    // simulated counters.
    for (workload, _) in names::WORKLOADS {
        let ids: Vec<&String> = [&a, &b]
            .iter()
            .flat_map(|s| s.identity.get(workload).into_iter().flatten())
            .collect();
        if ids.is_empty() || ids.iter().any(|id| *id != ids[0]) {
            println!("{workload}: runs differ in what they simulated: {ids:?}");
            disagreements += 1;
        }
    }
    let sim_names: Vec<&(String, String)> = a.sim.keys().chain(b.sim.keys()).collect();
    for key in sim_names {
        let values: Vec<f64> = [&a, &b]
            .iter()
            .flat_map(|s| s.sim.get(key).into_iter().flatten().copied())
            .collect();
        if !a.sim.contains_key(key)
            || !b.sim.contains_key(key)
            || values.iter().any(|v| v.to_bits() != values[0].to_bits())
        {
            println!("{} {}: simulated values differ: {values:?}", key.0, key.1);
            disagreements += 1;
        }
    }

    if disagreements == 0 {
        println!("the two sets agree: every simulated value equal, no end-to-end row unresolved or regressed");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("{disagreements} disagreement(s)");
        Ok(ExitCode::FAILURE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_runs_within_the_bound_are_unchanged() {
        let (worse, _, v) = compare(&[10.0], &[10.5], false, 0.10);
        assert!((worse - 0.05).abs() < 1e-12);
        assert_eq!(v, Verdict::Unchanged);
        // Higher-is-better flips the sign of "worse".
        assert_eq!(compare(&[10.0], &[10.5], true, 0.10).0, -0.05);
    }

    #[test]
    fn single_runs_further_apart_than_the_bound_are_unresolved() {
        assert_eq!(
            compare(&[10.0], &[12.0], false, 0.10).2,
            Verdict::Unresolved
        );
        // … unless every run of B reads better than every run of A.
        assert_eq!(compare(&[10.0], &[8.0], false, 0.10).2, Verdict::Improved);
        assert_eq!(compare(&[10.0], &[12.0], true, 0.10).2, Verdict::Improved);
    }

    #[test]
    fn tight_sets_resolve_a_change_beyond_the_bound() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slow: Vec<f64> = a.iter().map(|x| x * 1.3).collect();
        let fast: Vec<f64> = a.iter().map(|x| x * 0.7).collect();
        assert_eq!(compare(&a, &slow, false, 0.10).2, Verdict::Regressed);
        assert_eq!(compare(&a, &fast, false, 0.10).2, Verdict::Improved);
        assert_eq!(compare(&a, &a, false, 0.10).2, Verdict::Unchanged);
    }

    #[test]
    fn wide_sets_are_unresolved_whatever_their_medians() {
        let a = [10.0, 14.0, 7.0, 12.0, 9.0];
        assert_eq!(compare(&a, &a, false, 0.10).2, Verdict::Unresolved);
    }
}
