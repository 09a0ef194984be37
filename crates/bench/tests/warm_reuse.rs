//! Warm-state reuse contract: the matrix runner may fork jobs by
//! replaying a cached first-touch trace, and that must not change a single byte
//! of any result — not across worker counts, not between a cold and a
//! hot cache, and not against a fresh `SimSession` that never touched
//! the cache at all.

use std::fs;
use std::path::{Path, PathBuf};

use nuba_bench::runner::{
    render_event_log, reset_warm_cache, run_matrix_ctx_with, run_matrix_with, Job, JobOutcome,
    JobResult, RunnerCtx,
};
use nuba_bench::store::{StoreKey, TraceStore};
use nuba_bench::Harness;
use nuba_types::addr::PageNum;
use nuba_types::{ArchKind, GpuConfig, PagePolicyKind, ReplicationKind, SmId};
use nuba_workloads::{BenchmarkId, ScaleProfile};

fn harness() -> Harness {
    Harness {
        cycles: 1200,
        scale: ScaleProfile::fast(),
        seed: 42,
    }
}

/// A matrix with deliberate (bench, config, warm-depth) duplicates so
/// the warm cache is actually exercised, plus distinct configurations
/// to prove keys do not collide.
fn matrix() -> Vec<Job> {
    let nuba = GpuConfig::paper_baseline(ArchKind::Nuba);
    let uba = GpuConfig::paper_baseline(ArchKind::MemSideUba);
    let mig = GpuConfig::paper_baseline(ArchKind::Nuba)
        .with_policy(PagePolicyKind::Migration)
        .with_replication(ReplicationKind::None);
    vec![
        Job::new("nuba/0", BenchmarkId::Kmeans, nuba.clone()),
        Job::new("nuba/1", BenchmarkId::Kmeans, nuba.clone()),
        Job::new("nuba/sgemm", BenchmarkId::Sgemm, nuba.clone()),
        Job::new("uba/0", BenchmarkId::Kmeans, uba.clone()),
        Job::new("uba/1", BenchmarkId::Kmeans, uba),
        Job::new("mig/0", BenchmarkId::Kmeans, mig.clone()),
        Job::new("mig/1", BenchmarkId::Kmeans, mig),
        Job::new("nuba/seeded", BenchmarkId::Kmeans, nuba).with_seed(54),
    ]
}

#[test]
fn warm_reuse_is_byte_identical_across_worker_counts_and_cache_state() {
    let h = harness();
    let jobs = matrix();

    reset_warm_cache();
    let serial = run_matrix_with(&h, &jobs, 1);
    reset_warm_cache();
    let parallel = run_matrix_with(&h, &jobs, 4);
    // Third pass with the cache already hot: every cacheable job now
    // restores from a checkpoint instead of warming from scratch.
    let hot = run_matrix_with(&h, &jobs, 4);

    for ((s, p), job) in serial.iter().zip(&parallel).zip(&jobs) {
        assert!(!s.failed(), "`{}` quarantined: {:?}", job.label, s.error);
        assert_eq!(
            s.report, p.report,
            "job `{}` diverged between 1 and 4 workers under warm reuse",
            job.label
        );
    }
    for (p, hot) in parallel.iter().zip(&hot) {
        assert_eq!(
            p.report, hot.report,
            "job `{}` diverged between a cold and a hot warm cache",
            p.label
        );
    }
}

#[test]
fn cached_warm_state_matches_a_fresh_session() {
    let h = harness();
    let jobs = matrix();

    // Populate the cache, then run once more entirely from it.
    reset_warm_cache();
    run_matrix_with(&h, &jobs, 2);
    let cached = run_matrix_with(&h, &jobs, 2);

    // A fresh `SimSession` per job — builds its own simulator and warms
    // from scratch, never consulting the runner's cache.
    for (r, job) in cached.iter().zip(&jobs) {
        let h = Harness {
            seed: job.seed.unwrap_or(h.seed),
            ..h
        };
        let fresh = h
            .try_run_scaled(job.bench, job.cfg.clone(), job.scale.unwrap_or(h.scale))
            .expect("forward progress");
        assert_eq!(
            r.report, fresh,
            "job `{}`: cache-restored run diverged from a fresh session",
            job.label
        );
    }
}

/// A fresh, empty store directory under the system temp dir.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nuba_warm_store_{}_{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Every file in `dir`, sorted.
fn files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    files
}

/// The key an entry's file name `<bench>-<hash>-<depth>.trace` spells.
fn key_of(entry: &Path) -> StoreKey {
    let name = entry.file_name().unwrap().to_str().unwrap();
    let parts: Vec<&str> = name.strip_suffix(".trace").unwrap().split('-').collect();
    let [bench, hash, depth] = parts[..] else {
        panic!("unexpected entry name {name}");
    };
    StoreKey {
        bench: BenchmarkId::from_abbr(bench).unwrap(),
        hash: u64::from_str_radix(hash, 16).unwrap(),
        depth: depth.parse().unwrap(),
    }
}

/// Matrix results are byte-identical with the store off, cold, hot and
/// damaged — disk state is an optimization, never an input to the
/// simulation. Every damaged entry is a miss, and the `put` that
/// follows the miss overwrites it with a good one. Store passes run
/// on one worker so every trace is read or recorded exactly once.
#[test]
fn store_backed_reuse_is_byte_identical_even_when_corrupted() {
    let h = harness();
    let jobs = matrix();
    let num_sms = jobs[0].cfg.num_sms;
    let dir = fresh_dir("damage");
    let open_store = || TraceStore::open(&dir).expect("store opens");
    let off = run_matrix_ctx_with(&RunnerCtx::new(), &h, &jobs, 2);
    let same_as_off = |results: &[JobResult], pass: &str| {
        for (o, r) in off.iter().zip(results) {
            assert!(!r.failed(), "`{}` {pass}: {:?}", r.label, r.error);
            assert_eq!(o.report, r.report, "`{}`: off vs {pass} store", o.label);
        }
    };

    // Cold: every warm-up runs for real and publishes its trace.
    let cold = RunnerCtx::with_store(open_store());
    same_as_off(&run_matrix_ctx_with(&cold, &h, &jobs, 1), "cold");
    let entries = files(&dir);
    assert!(entries.len() >= 2, "distinct workloads, distinct entries");
    assert_eq!(cold.store().unwrap().misses() as usize, entries.len());
    for e in &entries {
        let bytes = fs::metadata(e).unwrap().len();
        assert!(bytes < 1 << 20, "{} is {bytes} B, not a trace", e.display());
    }

    // Hot with a fresh context (empty in-memory cache): every trace
    // comes back from disk.
    let hot = RunnerCtx::with_store(open_store());
    same_as_off(&run_matrix_ctx_with(&hot, &h, &jobs, 1), "hot");
    let s = hot.store().unwrap();
    assert_eq!((s.hits() as usize, s.misses()), (entries.len(), 0));

    let damages: [(&str, &dyn Fn()); 4] = [
        ("bit-flipped", &|| {
            for e in &entries {
                let mut b = fs::read(e).unwrap();
                let mid = b.len() / 2;
                b[mid] ^= 0x20;
                fs::write(e, b).unwrap();
            }
        }),
        ("truncated", &|| {
            for e in &entries {
                let b = fs::read(e).unwrap();
                fs::write(e, &b[..b.len() / 3]).unwrap();
            }
        }),
        ("SM-forged", &|| {
            let forged = [(PageNum(0), SmId(num_sms))];
            for e in &entries {
                open_store().put(&key_of(e), &forged).unwrap();
            }
        }),
        ("misfiled", &|| {
            let bytes: Vec<Vec<u8>> = entries.iter().map(|e| fs::read(e).unwrap()).collect();
            for (i, e) in entries.iter().enumerate() {
                fs::write(e, &bytes[(i + 1) % bytes.len()]).unwrap();
            }
        }),
    ];
    for (what, damage) in damages {
        damage();
        let ctx = RunnerCtx::with_store(open_store());
        same_as_off(&run_matrix_ctx_with(&ctx, &h, &jobs, 1), what);
        let s = ctx.store().unwrap();
        assert_eq!(
            (s.hits(), s.misses() as usize),
            (0, entries.len()),
            "{what}"
        );
        for e in &entries {
            assert!(
                open_store().get(&key_of(e), num_sms).is_some(),
                "{what}: {} was not overwritten",
                e.display()
            );
        }
    }
    assert_eq!(files(&dir), entries, "no temp file, no sidecar");
    let _ = fs::remove_dir_all(&dir);
}

/// Two contexts racing on one empty directory, four workers each,
/// report what the store-less run reports and leave only whole
/// entries behind.
#[test]
fn contexts_sharing_a_store_agree_and_leave_no_temp_files() {
    let h = harness();
    let jobs = matrix();
    let dir = fresh_dir("shared");
    let off = run_matrix_ctx_with(&RunnerCtx::new(), &h, &jobs, 4);
    let ctxs = [0, 1].map(|_| RunnerCtx::with_store(TraceStore::open(&dir).unwrap()));
    let results = std::thread::scope(|s| {
        ctxs.each_ref()
            .map(|ctx| s.spawn(|| run_matrix_ctx_with(ctx, &h, &jobs, 4)))
            .map(|t| t.join().unwrap())
    });
    for pass in &results {
        for (o, r) in off.iter().zip(pass) {
            assert_eq!(o.report, r.report, "`{}`: shared store vs none", o.label);
        }
    }
    let names = files(&dir);
    assert!(!names.is_empty());
    for p in &names {
        assert!(
            p.extension().is_some_and(|e| e == "trace"),
            "{}",
            p.display()
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A drained job and a job out of wall-clock budget report `Cancelled`
/// and `TimedOut`, keep no state — nothing lands in the store — and log
/// only their lifecycle.
#[test]
fn drained_and_timed_out_jobs_write_nothing() {
    let h = harness();
    let cfg = GpuConfig::paper_baseline(ArchKind::Nuba);
    let dir = fresh_dir("drain");
    let events = |results: &[JobResult]| -> Vec<String> {
        render_event_log(results)
            .lines()
            .map(|l| {
                l.split("\"event\":\"")
                    .nth(1)
                    .unwrap()
                    .split('"')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect()
    };

    let drained = RunnerCtx::with_store(TraceStore::open(&dir).unwrap());
    drained.cancel_token().cancel();
    let job = Job::new("drained", BenchmarkId::Kmeans, cfg.clone());
    let r = run_matrix_ctx_with(&drained, &h, &[job], 1);
    assert_eq!(r[0].outcome, JobOutcome::Cancelled);
    assert_eq!(events(&r), ["queued", "cancelled"]);

    let slow = RunnerCtx::with_store(TraceStore::open(&dir).unwrap());
    let job = Job::new("slow", BenchmarkId::Kmeans, cfg).with_wall_deadline(0.0);
    let r = run_matrix_ctx_with(&slow, &h, &[job], 1);
    assert_eq!(r[0].outcome, JobOutcome::TimedOut);
    assert_eq!(events(&r), ["queued", "started", "timed_out"]);

    assert!(files(&dir).is_empty(), "{:?}", files(&dir));
    let _ = fs::remove_dir_all(&dir);
}
