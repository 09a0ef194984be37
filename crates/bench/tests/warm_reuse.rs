//! Warm-state reuse contract: the matrix runner may fork jobs by
//! replaying a cached first-touch trace, and that must not change a single byte
//! of any result — not across worker counts, not between a cold and a
//! hot cache, and not against a fresh `SimSession` that never touched
//! the cache at all.

use nuba_bench::runner::{reset_warm_cache, run_matrix_ctx_with, run_matrix_with, Job, RunnerCtx};
use nuba_bench::store::{CheckpointStore, StoreConfig};
use nuba_bench::Harness;
use nuba_types::{ArchKind, GpuConfig, PagePolicyKind, ReplicationKind};
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

/// Acceptance criterion for the persistent store: matrix results are
/// byte-identical with the store off, cold, hot, and pre-corrupted —
/// disk state is an optimization, never an input to the simulation.
#[test]
fn store_backed_reuse_is_byte_identical_even_when_corrupted() {
    let h = harness();
    let jobs = matrix();
    let dir = std::env::temp_dir().join(format!("nuba_warm_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open_store = || {
        CheckpointStore::open(StoreConfig {
            dir: Some(dir.clone()),
            ..StoreConfig::default()
        })
        .expect("store opens")
    };

    // Store off: plain in-memory context, the pre-existing behaviour.
    let off_ctx = RunnerCtx::new();
    let off = run_matrix_ctx_with(&off_ctx, &h, &jobs, 2);

    // Store on, cold: warm-ups run for real and publish entries.
    let cold_ctx = RunnerCtx::with_store(open_store());
    let cold = run_matrix_ctx_with(&cold_ctx, &h, &jobs, 2);
    assert!(
        cold_ctx.store().unwrap().stats().inserts > 0,
        "cold pass must publish warm entries"
    );

    // Store on, hot, fresh process state (new ctx = empty in-memory
    // cache): warm state restores from disk.
    let hot_ctx = RunnerCtx::with_store(open_store());
    let hot = run_matrix_ctx_with(&hot_ctx, &h, &jobs, 2);
    assert!(
        hot_ctx.store().unwrap().stats().hits > 0,
        "hot pass must actually read the store"
    );

    // Pre-corrupted: flip one byte in the middle of every committed
    // entry. Every read must detect it, quarantine, and re-derive.
    let mut flipped = 0;
    for f in std::fs::read_dir(&dir).unwrap().flatten() {
        let p = f.path();
        if p.extension().is_some_and(|e| e == "ckpt") {
            let mut b = std::fs::read(&p).unwrap();
            let mid = b.len() / 2;
            b[mid] ^= 0x20;
            std::fs::write(&p, &b).unwrap();
            flipped += 1;
        }
    }
    assert!(flipped > 0, "corruption pass needs entries to corrupt");
    let corrupt_ctx = RunnerCtx::with_store(open_store());
    let corrupt = run_matrix_ctx_with(&corrupt_ctx, &h, &jobs, 2);
    let s = corrupt_ctx.store().unwrap().stats();
    assert_eq!(
        s.quarantined as usize, flipped,
        "every corrupted entry must be quarantined, none silently reused"
    );

    for (((o, c), ht), co) in off.iter().zip(&cold).zip(&hot).zip(&corrupt) {
        assert!(!o.failed() && !c.failed() && !ht.failed() && !co.failed());
        assert_eq!(o.report, c.report, "`{}`: off vs cold store", o.label);
        assert_eq!(o.report, ht.report, "`{}`: off vs hot store", o.label);
        assert_eq!(o.report, co.report, "`{}`: off vs corrupted store", o.label);
    }

    // No quarantined *jobs* anywhere: store damage is invisible above.
    assert!(off_ctx.quarantined_jobs().is_empty());
    assert!(corrupt_ctx.quarantined_jobs().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
