//! Drives the built binary end to end on `--quick` runs (cycle counts
//! ÷ 20, two rounds): every workload, both passes, the result-line
//! contract, `run` and `agree`. Each test works in a directory of its
//! own under `out/`, so tests running side by side share no file.

use std::path::PathBuf;
use std::process::{Command, Output};

const WORKLOADS: [&str; 5] = [
    "dense_stream_nuba",
    "dense_shared_uba",
    "dense_shared_nuba",
    "idle_latency",
    "matrix_short",
];

fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn nuba_perf(cwd: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nuba-perf"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("nuba-perf starts")
}

/// The last line of standard output, which must be the result object.
fn result_line(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

/// The names between `"metrics":{` and the end, in order.
fn metric_names(line: &str) -> Vec<String> {
    let (_, metrics) = line.split_once("\"metrics\":{").expect("a metrics object");
    // Every piece but the last ends with the name of the metric whose
    // value follows it.
    let mut pieces: Vec<&str> = metrics.split("\":{\"value\":").collect();
    pieces.pop();
    pieces
        .iter()
        .map(|piece| {
            piece
                .rsplit_once('"')
                .map_or(*piece, |(_, name)| name)
                .to_string()
        })
        .collect()
}

fn digest_of(text: &str) -> String {
    let (_, rest) = text
        .split_once("stats_digest ")
        .expect("a digest is printed");
    rest.split_whitespace()
        .next()
        .unwrap_or_default()
        .to_string()
}

#[test]
fn every_workload_reports_both_passes() {
    let dir = scratch("passes");
    let manifest = String::from_utf8(nuba_perf(&dir, &["manifest"]).stdout).unwrap();
    let section = |from: &str, to: &str| {
        let (_, rest) = manifest.split_once(from).unwrap();
        rest.split_once(to)
            .map_or(rest, |(head, _)| head)
            .matches("\"name\"")
            .count()
    };
    let (end_to_end, per_layer) = (
        section("\"end_to_end\"", "\"per_layer\""),
        section("\"per_layer\"", "\n}"),
    );
    for workload in WORKLOADS {
        let mut digests = Vec::new();
        for (trace, expected) in [("0", end_to_end), ("1", per_layer)] {
            let out = nuba_perf(
                &dir,
                &[
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--quick",
                ],
            );
            let line = result_line(&out);
            assert!(
                line.starts_with("{\"correct\":true,\"attempted\":"),
                "{workload}: {line}"
            );
            assert!(
                line.contains(",\"failed\":0,\"metrics\":{"),
                "{workload}: {line}"
            );
            let names = metric_names(&line);
            assert_eq!(
                names.len(),
                expected,
                "{workload} --trace {trace}: {names:?}"
            );
            for name in &names {
                assert!(
                    manifest.contains(&format!("\"name\": \"{name}\"")),
                    "{name} is not in the manifest"
                );
            }
            digests.push(digest_of(&String::from_utf8_lossy(&out.stdout)));
        }
        assert_eq!(
            digests[0], digests[1],
            "{workload}: the two passes simulate the same thing"
        );
        assert!(dir
            .join(format!("benchmark/out/trace-{workload}.json"))
            .is_file());
    }
    assert!(
        std::fs::read_dir(dir.join("benchmark/out"))
            .unwrap()
            .flatten()
            .all(|e| e.path().is_file()),
        "the checkpoint store is removed on exit"
    );
}

#[test]
fn stray_harness_variables_do_not_reach_the_measurement() {
    let dir = scratch("environment");
    let args = [
        "--workload",
        "matrix_short",
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--quick",
    ];
    let clean = nuba_perf(&dir, &args);
    // Tier-0 fidelity would answer every job without simulating it.
    let stray = Command::new(env!("CARGO_BIN_EXE_nuba-perf"))
        .args(args)
        .current_dir(&dir)
        .env("NUBA_FIDELITY", "analytical")
        .env("NUBA_CYCLES", "17")
        .output()
        .expect("nuba-perf starts");
    result_line(&stray);
    assert_eq!(
        digest_of(&String::from_utf8_lossy(&clean.stdout)),
        digest_of(&String::from_utf8_lossy(&stray.stdout))
    );
}

#[test]
fn run_gathers_a_set_and_agree_rejects_a_quick_one() {
    let dir = scratch("set");
    let out = nuba_perf(
        &dir,
        &[
            "run",
            "--quick",
            "--workload",
            "idle_latency",
            "--seed",
            "3",
            "--out",
            "set.json",
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let set = std::fs::read_to_string(dir.join("set.json")).expect("the set is written");
    for field in [
        "\"quick\":true",
        "\"nproc\":",
        "\"rustc\":",
        "\"commit\":",
        "\"seed\":3",
        "\"pass\":\"timed\"",
        "\"pass\":\"traced\"",
        "\"trace.overhead_frac\"",
    ] {
        assert!(set.contains(field), "{field} is missing from the set");
    }
    let agree = nuba_perf(&dir, &["agree", "set.json", "set.json"]);
    assert!(!agree.status.success());
    assert!(String::from_utf8_lossy(&agree.stderr).contains("quick"));
}

#[test]
fn bad_invocations_fail_without_a_result() {
    let dir = scratch("refusals");
    // This test binary is a debug build: a run that is not quick is refused.
    let full = nuba_perf(
        &dir,
        &[
            "--workload",
            "idle_latency",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
    );
    assert_eq!(full.status.code(), Some(2));
    assert!(full.stdout.is_empty());
    assert!(String::from_utf8_lossy(&full.stderr).contains("debug build"));
    for args in [
        &["--workload", "nope", "--quick"][..],
        &["--quick"],
        &["--workload", "idle_latency", "--trace", "2", "--quick"],
        &["agree", "only-one.json"],
    ] {
        let out = nuba_perf(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
