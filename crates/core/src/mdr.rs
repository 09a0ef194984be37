//! Model-Driven Replication: the §5.1 analytical bandwidth model and the
//! per-slice epoch controller.
//!
//! Every `mdr_epoch_cycles` (20 K) the controller evaluates two closed-
//! form estimates of the effective bandwidth its partition's SMs would
//! perceive — one assuming no replication, one assuming full replication
//! of read-only shared data — using profile inputs collected during the
//! previous epoch (fraction of local vs remote accesses, and the LLC
//! hit rates under both policies from the shadow-tag set sampler). The
//! higher estimate wins and sets the policy for the next epoch.
//!
//! The hardware evaluation cost is 116 cycles (4 divisions × 25 + 4
//! multiplications × 3 + 2 additions + 2 comparisons, per the paper's
//! footnote); the controller charges it by stalling the slice pipeline.

/// Microarchitectural bandwidth constants, in bytes per SM cycle,
/// expressed per LLC slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MdrBandwidths {
    /// Raw LLC slice bandwidth (32 ≙ 2.8 TB/s over 64 slices).
    pub bw_llc: f64,
    /// DRAM bandwidth behind this slice (channel bandwidth divided by
    /// slices per channel).
    pub bw_mem: f64,
    /// NoC bandwidth per slice port.
    pub bw_noc: f64,
}

/// Workload profile inputs for one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MdrProfile {
    /// Fraction of this partition's L1 misses that target local memory.
    pub frac_local: f64,
    /// LLC hit rate estimated under no replication.
    pub hit_no_rep: f64,
    /// LLC hit rate estimated under full replication.
    pub hit_full_rep: f64,
}

/// The two §5.1 estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MdrEstimate {
    /// Effective bandwidth without replication.
    pub bw_no_rep: f64,
    /// Effective bandwidth with full replication.
    pub bw_full_rep: f64,
}

impl MdrEstimate {
    /// Whether the model chooses to replicate next epoch.
    pub fn replicate(&self) -> bool {
        self.bw_full_rep > self.bw_no_rep
    }
}

/// Evaluate the §5.1 equations.
///
/// **No replication** (local and remote traffic weighted):
/// ```text
/// BW_local  = hit·BW_LLC + min(miss·BW_LLC, BW_MEM)
/// BW_remote = min(BW_NoC, hit·BW_LLC + min(miss·BW_LLC, BW_MEM))
/// BW_NoRep  = f_local·BW_local + f_remote·BW_remote
/// ```
///
/// **Full replication** (all L1 misses access the local slice; misses
/// spill to local or remote memory):
/// ```text
/// BW_remote       = min(BW_NoC, BW_MEM)
/// BW_local/remote = f_local·BW_MEM + f_remote·BW_remote
/// BW_FullRep      = hit·BW_LLC + min(miss·BW_LLC, BW_local/remote)
/// ```
pub fn evaluate(bw: MdrBandwidths, p: MdrProfile) -> MdrEstimate {
    let frac_remote = 1.0 - p.frac_local;

    // No replication.
    let miss_no = 1.0 - p.hit_no_rep;
    let bw_llc_miss = (miss_no * bw.bw_llc).min(bw.bw_mem);
    let bw_local = p.hit_no_rep * bw.bw_llc + bw_llc_miss;
    let bw_remote = bw.bw_noc.min(p.hit_no_rep * bw.bw_llc + bw_llc_miss);
    let bw_no_rep = p.frac_local * bw_local + frac_remote * bw_remote;

    // Full replication.
    let miss_full = 1.0 - p.hit_full_rep;
    let bw_remote_mem = bw.bw_noc.min(bw.bw_mem);
    let bw_local_remote = p.frac_local * bw.bw_mem + frac_remote * bw_remote_mem;
    let bw_full_rep = p.hit_full_rep * bw.bw_llc + (miss_full * bw.bw_llc).min(bw_local_remote);

    MdrEstimate {
        bw_no_rep,
        bw_full_rep,
    }
}

/// Per-slice epoch controller.
#[derive(Debug, Clone)]
pub struct MdrController {
    bw: MdrBandwidths,
    epoch_cycles: u64,
    eval_cycles: u64,
    next_epoch: u64,
    /// Current policy: replicate read-only remote lines locally?
    replicating: bool,
    /// Pipeline stall deadline while the model evaluates.
    busy_until: u64,
    // Epoch counters, fed by the slice.
    local_requests: u64,
    remote_requests: u64,
    /// Epochs in which the controller chose replication.
    pub epochs_replicating: u64,
    /// Total epochs evaluated.
    pub epochs_total: u64,
}

impl MdrController {
    /// A controller starting in the no-replication state.
    pub fn new(bw: MdrBandwidths, epoch_cycles: u64, eval_cycles: u64) -> MdrController {
        assert!(epoch_cycles > 0);
        MdrController {
            bw,
            epoch_cycles,
            eval_cycles,
            next_epoch: epoch_cycles,
            replicating: false,
            busy_until: 0,
            local_requests: 0,
            remote_requests: 0,
            epochs_replicating: 0,
            epochs_total: 0,
        }
    }

    /// Whether the current epoch's policy replicates.
    pub fn replicating(&self) -> bool {
        self.replicating
    }

    /// Whether the slice pipeline is stalled by model evaluation.
    pub fn busy(&self, now: u64) -> bool {
        now < self.busy_until
    }

    /// Cycle of the next epoch evaluation — the controller's only
    /// self-timed event ([`tick`](MdrController::tick) is a pure no-op
    /// before it).
    pub fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// Record one local-SM request (local home or remote home).
    pub fn note_request(&mut self, local_home: bool) {
        if local_home {
            self.local_requests += 1;
        } else {
            self.remote_requests += 1;
        }
    }

    /// Advance time; at epoch boundaries, re-evaluate with the sampler's
    /// hit-rate estimates and reset the epoch counters.
    pub fn tick(&mut self, now: u64, hit_no_rep: f64, hit_full_rep: f64) {
        if now < self.next_epoch {
            return;
        }
        self.next_epoch = now + self.epoch_cycles;
        let total = self.local_requests + self.remote_requests;
        let frac_local = if total == 0 {
            1.0 // idle epoch: stay local-biased, do not replicate
        } else {
            self.local_requests as f64 / total as f64
        };
        let est = evaluate(
            self.bw,
            MdrProfile {
                frac_local,
                hit_no_rep,
                hit_full_rep,
            },
        );
        self.replicating = est.replicate();
        self.epochs_total += 1;
        if self.replicating {
            self.epochs_replicating += 1;
        }
        self.local_requests = 0;
        self.remote_requests = 0;
        self.busy_until = now + self.eval_cycles;
    }
}

impl SaveState for MdrController {
    fn save(&self, w: &mut StateWriter) {
        // Bandwidth constants and epoch/eval lengths are configuration;
        // the epoch clock, current policy and profile counters are state.
        self.next_epoch.put(w);
        self.replicating.put(w);
        self.busy_until.put(w);
        self.local_requests.put(w);
        self.remote_requests.put(w);
        self.epochs_replicating.put(w);
        self.epochs_total.put(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.next_epoch = u64::get(r)?;
        self.replicating = bool::get(r)?;
        self.busy_until = u64::get(r)?;
        self.local_requests = u64::get(r)?;
        self.remote_requests = u64::get(r)?;
        self.epochs_replicating = u64::get(r)?;
        self.epochs_total = u64::get(r)?;
        Ok(())
    }
}

use nuba_types::state::{SaveState, StateError, StateReader, StateValue, StateWriter};

/// The paper-baseline bandwidth constants per slice: 32 B/cycle LLC,
/// 8 B/cycle memory (16 B/cycle channel over 2 slices), and the NoC
/// port bandwidth implied by the configured aggregate.
pub fn paper_slice_bandwidths(noc_port_bytes_per_cycle: f64) -> MdrBandwidths {
    MdrBandwidths {
        bw_llc: 32.0,
        bw_mem: 8.0,
        bw_noc: noc_port_bytes_per_cycle,
    }
}

/// The compile-time half of MDR (§5.2) feeding the runtime model above:
/// the params the flow-sensitive replication-safety pass proves
/// read-only for `kernel`. Loads from these arrays are issued as
/// `ld.global.ro` and become the replication candidates the epoch
/// controller arbitrates over.
///
/// This uses [`nuba_compiler::analyze_kernel_flow`], so arrays whose
/// only stores sit in statically never-taken paths — which the
/// flow-insensitive [`nuba_compiler::analyze_kernel`] must conservatively
/// treat as read-write — still qualify (see `tests/mdr_compiler.rs`).
pub fn replication_candidate_params(
    kernel: &nuba_compiler::Kernel,
) -> std::collections::BTreeSet<String> {
    nuba_compiler::analyze_kernel_flow(kernel).summary.read_only
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bw() -> MdrBandwidths {
        paper_slice_bandwidths(15.6)
    }

    #[test]
    fn hand_computed_no_rep() {
        // frac_local=1, hit=0.5: BW = 0.5·32 + min(0.5·32, 8) = 16+8 = 24.
        let est = evaluate(
            bw(),
            MdrProfile {
                frac_local: 1.0,
                hit_no_rep: 0.5,
                hit_full_rep: 0.5,
            },
        );
        assert!((est.bw_no_rep - 24.0).abs() < 1e-12);
    }

    #[test]
    fn remote_traffic_is_noc_bound() {
        // All remote, perfect hit rate: remote bw = min(15.6, 32) = 15.6.
        let est = evaluate(
            bw(),
            MdrProfile {
                frac_local: 0.0,
                hit_no_rep: 1.0,
                hit_full_rep: 0.0,
            },
        );
        assert!((est.bw_no_rep - 15.6).abs() < 1e-12);
    }

    #[test]
    fn replication_wins_when_shared_data_cacheable() {
        // Mostly-remote read traffic whose working set fits locally:
        // full-rep hit rate stays high → replication is a clear win.
        let est = evaluate(
            bw(),
            MdrProfile {
                frac_local: 0.3,
                hit_no_rep: 0.8,
                hit_full_rep: 0.75,
            },
        );
        assert!(est.replicate(), "{est:?}");
        // Sanity: full-rep ≈ 0.75·32 + min(8, …) — far above the
        // NoC-bound no-rep path.
        assert!(est.bw_full_rep > est.bw_no_rep + 4.0);
    }

    #[test]
    fn replication_loses_when_it_thrashes() {
        // Replication collapses the hit rate (GRU/BT-style): the model
        // must keep no-replication.
        let est = evaluate(
            bw(),
            MdrProfile {
                frac_local: 0.6,
                hit_no_rep: 0.7,
                hit_full_rep: 0.15,
            },
        );
        assert!(!est.replicate(), "{est:?}");
    }

    #[test]
    fn all_local_traffic_never_prefers_replication() {
        // With everything local, replication can only lose (same hit
        // rate, same memory path).
        let est = evaluate(
            bw(),
            MdrProfile {
                frac_local: 1.0,
                hit_no_rep: 0.6,
                hit_full_rep: 0.6,
            },
        );
        assert!(est.bw_full_rep <= est.bw_no_rep + 1e-9);
    }

    #[test]
    fn controller_epochs() {
        let mut c = MdrController::new(bw(), 1000, 116);
        assert!(!c.replicating());
        for _ in 0..800 {
            c.note_request(false); // heavy remote traffic
        }
        c.tick(999, 0.8, 0.75);
        assert!(!c.replicating(), "epoch boundary not reached yet");
        c.tick(1000, 0.8, 0.75);
        assert!(
            c.replicating(),
            "remote-heavy epoch should enable replication"
        );
        assert!(c.busy(1100));
        assert!(!c.busy(1200));
        assert_eq!(c.epochs_total, 1);
        assert_eq!(c.epochs_replicating, 1);
    }

    #[test]
    fn controller_reverts_when_thrashing() {
        let mut c = MdrController::new(bw(), 1000, 116);
        for _ in 0..100 {
            c.note_request(false);
        }
        c.tick(1000, 0.8, 0.75);
        assert!(c.replicating());
        for _ in 0..100 {
            c.note_request(false);
        }
        // Sampler now reports replication would collapse the hit rate.
        c.tick(2000, 0.7, 0.1);
        assert!(!c.replicating());
        assert_eq!(c.epochs_total, 2);
        assert_eq!(c.epochs_replicating, 1);
    }

    #[test]
    fn idle_epoch_defaults_to_no_replication() {
        // No requests were profiled: the sampler's cold fallback feeds
        // equal hit rates and frac_local defaults to 1.0, so the two
        // estimates tie and the strict comparison keeps no-replication.
        let mut c = MdrController::new(bw(), 1000, 116);
        c.tick(1000, 0.5, 0.5);
        assert!(!c.replicating());
    }
}
