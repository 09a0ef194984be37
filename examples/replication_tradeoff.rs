//! Replication trade-off: the §5.1 analytical model, evaluated exactly
//! as the MDR hardware does, and the full simulator's agreement with it.
//!
//! ```sh
//! cargo run --release --example replication_tradeoff
//! ```

use nuba::core::mdr::paper_slice_bandwidths;
use nuba::core::{mdr_evaluate, MdrProfile};
use nuba::{ArchKind, BenchmarkId, GpuConfig, ReplicationKind, ScaleProfile, SimSession, Workload};

fn main() {
    // --- The model in isolation (paper §5.1) ---
    println!("MDR analytical model (bytes/cycle per slice, paper §5.1):");
    println!(
        "{:>10} {:>10} {:>10} | {:>10} {:>10} {:>10}",
        "frac_local", "hit_norep", "hit_full", "BW_NoRep", "BW_FullRep", "decision"
    );
    let bw = paper_slice_bandwidths(15.6);
    for (fl, hn, hf) in [
        (0.9, 0.8, 0.8),  // mostly local: replication moot
        (0.3, 0.8, 0.75), // remote-heavy, replicas fit: replicate
        (0.3, 0.8, 0.25), // remote-heavy, replicas thrash: don't
        (0.5, 0.5, 0.6),  // borderline
    ] {
        let est = mdr_evaluate(
            bw,
            MdrProfile {
                frac_local: fl,
                hit_no_rep: hn,
                hit_full_rep: hf,
            },
        );
        println!(
            "{:>10.2} {:>10.2} {:>10.2} | {:>10.1} {:>10.1} {:>10}",
            fl,
            hn,
            hf,
            est.bw_no_rep,
            est.bw_full_rep,
            if est.replicate() {
                "REPLICATE"
            } else {
                "no-rep"
            }
        );
    }

    // --- The same trade-off in the full simulator ---
    println!("\nFull simulator on a replication-friendly (SN) and a");
    println!("replication-averse (BT) benchmark (3 MDR epochs):");
    let cycles = 60_000;
    for bench in [BenchmarkId::SqueezeNet, BenchmarkId::BTree] {
        println!("\n  {} ({}):", bench.spec().name, bench);
        let mut norep_perf = None;
        for rep in [
            ReplicationKind::None,
            ReplicationKind::Full,
            ReplicationKind::Mdr,
        ] {
            let mut cfg = GpuConfig::paper_baseline(ArchKind::Nuba);
            cfg.replication = rep;
            let wl = Workload::build(bench, ScaleProfile::default(), cfg.num_sms, 42);
            let mut session = SimSession::builder(cfg, wl).build().expect("valid config");
            session.warm();
            let r = session.run_window(cycles).expect("forward progress");
            let base = norep_perf.get_or_insert(r.perf());
            println!(
                "    {:<9} speedup={:>5.2}x  LLC hit={:>4.1}%  replica fills={:<7} \
                 epochs replicating={:>3.0}%",
                rep.label(),
                r.perf() / *base,
                r.llc_hit_rate() * 100.0,
                r.replica_fills,
                r.mdr_replication_rate * 100.0,
            );
        }
    }
    println!("\nMDR re-evaluates the model every 20K cycles from set-sampled shadow");
    println!("tags and only replicates when the predicted bandwidth gain beats the");
    println!("predicted capacity loss.");
}
