//! Checkpoint/restore sessions: versioned snapshots of a running
//! simulation, the warm-up's first-touch trace, and a builder-style
//! front door.
//!
//! A [`Checkpoint`] captures every piece of dynamic simulator state —
//! warp contexts, cache tags and MSHR files, queue and link occupancy,
//! DRAM bank timing, TLB walks, driver page tables, RNG streams,
//! telemetry rings, and the invariant-registry counters — under a
//! format version and configuration/workload hashes. Restoring it into
//! a simulator rebuilt from the *same* configuration and workload
//! yields a continuation that is byte-identical to the uninterrupted
//! run: same [`SimReport`], same invariant counts,
//! same telemetry exports.
//!
//! Warm-up factors into a per-workload [`first_touches`] trace and a
//! per-configuration [`GpuSimulator::replay_first_touches`]; the
//! benchmark runner records the trace once and replays it for every
//! configuration.
//!
//! [`SimSession`] wraps the common lifecycle (build → warm → fork or
//! run a timed window) so callers never have to sequence raw
//! constructor calls:
//!
//! ```
//! use nuba_core::SimSession;
//! use nuba_types::{ArchKind, GpuConfig};
//! use nuba_workloads::{BenchmarkId, ScaleProfile, Workload};
//!
//! let cfg = GpuConfig::paper_baseline(ArchKind::Nuba)
//!     .with_geometry(8, 8, 4, 8)
//!     .with_page_fault_latency(200);
//! let wl = Workload::build(BenchmarkId::Sgemm, ScaleProfile::fast(), 8, 1);
//! let mut session = SimSession::builder(cfg, wl).build().unwrap();
//! session.warm();
//! let ckpt = session.checkpoint();
//! let a = session.run_window(2_000).unwrap();
//! let b = SimSession::resume(&ckpt, session.workload().clone())
//!     .unwrap()
//!     .run_window(2_000)
//!     .unwrap();
//! assert_eq!(a, b);
//! ```

use std::sync::{Mutex, OnceLock};
use std::{panic, thread};

use nuba_types::addr::PageNum;
use nuba_types::invariant::{self, SiteSeed};
use nuba_types::state::{
    fnv1a, restore_vec, SaveState, StateError, StateReader, StateValue, StateWriter,
    STATE_FORMAT_VERSION,
};
use nuba_types::{GpuConfig, SmId, WarpId};
use nuba_workloads::{WarpOp, WarpStream, Workload};

use crate::error::SimError;
use crate::gpu::GpuSimulator;
use crate::metrics::SimReport;

/// Magic number prefixing serialized checkpoints (`"NUBA"`).
const CHECKPOINT_MAGIC: u32 = 0x4E55_4241;

/// A versioned snapshot of a running simulation.
///
/// Produced by [`GpuSimulator::checkpoint`] /
/// [`SimSession::checkpoint`]; consumed by [`GpuSimulator::restore`] /
/// [`SimSession::resume`]. The snapshot records the configuration and
/// workload identity hashes it was taken under and refuses to restore
/// into anything else, so a stale cache entry fails loudly instead of
/// silently diverging.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    version: u32,
    config_hash: u64,
    workload_hash: u64,
    cycle: u64,
    config: GpuConfig,
    invariants: Vec<SiteSeed>,
    payload: Vec<u8>,
}

impl Checkpoint {
    /// Cycle count at which the snapshot was taken.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Hash of the configuration the snapshot was taken under.
    pub fn config_hash(&self) -> u64 {
        self.config_hash
    }

    /// Hash of the workload the snapshot was taken under.
    pub fn workload_hash(&self) -> u64 {
        self.workload_hash
    }

    /// The configuration the snapshot was taken under.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Re-seed the process-global invariant registry with the counters
    /// captured at snapshot time, so a resumed run's final invariant
    /// snapshot matches the uninterrupted run's.
    ///
    /// Like [`invariant::reset`], this touches process-global state and
    /// is only meaningful in single-simulation contexts (the simcheck
    /// gate, standalone resumed runs); concurrent matrix jobs share the
    /// registry and must not call it.
    pub fn seed_invariants(&self) {
        invariant::restore_counts(&self.invariants);
    }

    /// Serialize to a self-describing byte buffer (magic, format
    /// version, identity hashes, invariant seeds, state payload, and a
    /// trailing end-to-end [`fnv1a`](nuba_types::state::fnv1a()) checksum
    /// over everything before it).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.put_u32(CHECKPOINT_MAGIC);
        w.put_u32(self.version);
        w.put_u64(self.config_hash);
        w.put_u64(self.workload_hash);
        w.put_u64(self.cycle);
        self.config.save(&mut w);
        self.invariants.put(&mut w);
        self.payload.len().put(&mut w);
        w.put_bytes(&self.payload);
        let checksum = fnv1a(w.bytes());
        w.put_u64(checksum);
        w.into_bytes()
    }

    /// Decode a buffer produced by [`to_bytes`](Checkpoint::to_bytes).
    ///
    /// Every failure mode is a typed [`StateError`] — adversarial
    /// bytes (truncations, bit flips, trailing garbage) must never
    /// panic and never decode into wrong state, a contract enforced by
    /// proptests over mutated valid checkpoints.
    ///
    /// # Errors
    /// [`StateError::Corrupt`] on a bad magic number or trailing bytes,
    /// [`StateError::VersionMismatch`] if the buffer was written by an
    /// incompatible format version, [`StateError::UnexpectedEof`] on
    /// truncation, [`StateError::ChecksumMismatch`] when the trailing
    /// content checksum does not cover the bytes present (torn write,
    /// bit flip).
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, StateError> {
        let mut r = StateReader::new(bytes);
        if r.get_u32()? != CHECKPOINT_MAGIC {
            return Err(StateError::Corrupt("not a NUBA checkpoint"));
        }
        let version = r.get_u32()?;
        if version != STATE_FORMAT_VERSION {
            return Err(StateError::VersionMismatch {
                found: version,
                expected: STATE_FORMAT_VERSION,
            });
        }
        // Verify the trailing end-to-end checksum before decoding any
        // structure: a damaged buffer is rejected up front with a
        // checksum error instead of whatever decode error its bytes
        // happen to produce (and payload bytes — opaque to the framing
        // — cannot be silently accepted).
        if bytes.len() < 16 {
            return Err(StateError::UnexpectedEof {
                needed: 16,
                remaining: bytes.len(),
            });
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let expected = u64::from_le_bytes(tail.try_into().expect("8-byte checksum tail"));
        let found = fnv1a(body);
        if expected != found {
            return Err(StateError::ChecksumMismatch { expected, found });
        }
        let mut r = StateReader::new(body);
        let _magic = r.get_u32()?;
        let _version = r.get_u32()?;
        let config_hash = r.get_u64()?;
        let workload_hash = r.get_u64()?;
        let cycle = r.get_u64()?;
        let config = GpuConfig::from_state(&mut r)?;
        let mut invariants = Vec::new();
        restore_vec(&mut r, &mut invariants)?;
        let payload_len = usize::get(&mut r)?;
        let payload = r.take(payload_len)?.to_vec();
        if !r.is_done() {
            return Err(StateError::Corrupt("trailing bytes after checkpoint"));
        }
        Ok(Checkpoint {
            version,
            config_hash,
            workload_hash,
            cycle,
            config,
            invariants,
            payload,
        })
    }
}

impl GpuSimulator {
    /// Snapshot all dynamic state into a versioned [`Checkpoint`].
    ///
    /// Call between cycles (never mid-[`step`](GpuSimulator::step));
    /// the per-cycle scratch buffers are empty then and are excluded
    /// from the format.
    pub fn checkpoint(&self, workload: &Workload) -> Checkpoint {
        let mut w = StateWriter::new();
        self.save_state(&mut w);
        Checkpoint {
            version: STATE_FORMAT_VERSION,
            config_hash: self.config().state_hash(),
            workload_hash: workload.state_hash(),
            cycle: self.cycle(),
            config: self.config().clone(),
            invariants: invariant::report()
                .into_iter()
                .map(|s| SiteSeed {
                    name: s.name.to_string(),
                    file: s.file.to_string(),
                    line: s.line,
                    checks: s.checks,
                    violations: s.violations,
                })
                .collect(),
            payload: w.into_bytes(),
        }
    }

    /// Rebuild a simulator from `cfg`/`workload` and overwrite its
    /// dynamic state from `ckpt`, producing a continuation
    /// byte-identical to the run the snapshot was taken from.
    ///
    /// Does **not** touch the process-global invariant registry; call
    /// [`Checkpoint::seed_invariants`] separately in single-simulation
    /// contexts that compare invariant snapshots.
    ///
    /// # Errors
    /// [`SimError::Checkpoint`] with [`StateError::HashMismatch`] if
    /// `cfg` or `workload` differ from what the snapshot was taken
    /// under, or with a decode error if the payload is corrupt;
    /// [`SimError::InvalidConfig`] if `cfg` itself fails validation.
    pub fn restore(
        cfg: GpuConfig,
        workload: &Workload,
        ckpt: &Checkpoint,
    ) -> Result<GpuSimulator, SimError> {
        if ckpt.version != STATE_FORMAT_VERSION {
            return Err(StateError::VersionMismatch {
                found: ckpt.version,
                expected: STATE_FORMAT_VERSION,
            }
            .into());
        }
        if ckpt.config_hash != cfg.state_hash() {
            return Err(StateError::HashMismatch {
                what: "configuration",
            }
            .into());
        }
        if ckpt.workload_hash != workload.state_hash() {
            return Err(StateError::HashMismatch { what: "workload" }.into());
        }
        let mut gpu = GpuSimulator::try_new(cfg, workload)?;
        let mut r = StateReader::new(&ckpt.payload);
        gpu.restore_state(&mut r)?;
        if !r.is_done() {
            return Err(StateError::Corrupt("trailing bytes in state payload").into());
        }
        Ok(gpu)
    }
}

/// Warm-up depth [`SimSession::warm`] uses when the builder did not
/// override it: enough accesses per warp to touch the workload's whole
/// scaled footprint a few times over, clamped to 64..=4096. What depth
/// costs is the [`first_touches`] walk: the 64-SM machine's 2 048 warps
/// at ~500 accesses each take 20–31 ms of warm-up on two cores of a
/// shared 2-vCPU host (37–42 ms on one; DESIGN §12.3). The benchmark
/// runner keys its warm-state cache on this value.
pub fn default_warm_accesses(cfg: &GpuConfig, workload: &Workload) -> usize {
    let streams = (cfg.num_sms * cfg.active_warps()) as u64;
    let lines = workload.layout().total_pages * (cfg.page_bytes / 128);
    (4 * lines / streams.max(1)).clamp(64, 4096) as usize
}

/// The first-touch trace [`GpuSimulator::warm`] replays: walk
/// `accesses_per_warp` memory accesses of every active warp and return
/// each page the walk reaches, once, at its first occurrence, with the
/// SM that touched it.
///
/// Reads only `cfg`'s SM count, active warp count and page size — never
/// its architecture, page policy or replication — so every configuration
/// of one machine shape shares the trace; the configuration acts only
/// when [`GpuSimulator::replay_first_touches`] hands the pages to the
/// driver. The walk spreads its warps over the host's cores; the trace
/// does not depend on how many there are.
///
/// # Panics
/// Panics if `cfg` and the workload's layout disagree on the page size.
pub fn first_touches(
    cfg: &GpuConfig,
    workload: &Workload,
    accesses_per_warp: usize,
) -> Vec<(PageNum, SmId)> {
    static CORES: OnceLock<usize> = OnceLock::new();
    let streams = cfg.num_sms * cfg.active_warps();
    let workers = if streams > 1 {
        let cores = *CORES.get_or_init(|| thread::available_parallelism().map_or(1, usize::from));
        cores.min(streams)
    } else {
        1
    };
    walk_first_touches(cfg, workload, accesses_per_warp, workers, CLAIM_STREAMS)
}

/// Streams a walker of [`first_touches`] claims at a time: 64 claims on
/// the 64-SM machine, each well under a millisecond of walking, so a
/// worker the host schedules late, or onto a busy core, walks fewer
/// claims instead of holding up the merge.
const CLAIM_STREAMS: usize = 32;

/// [`first_touches`] on `workers` (≥ 1) threads, the calling thread
/// included, each claiming `claim` (≥ 1) streams at a time.
///
/// The order the trace is defined by is warp-major, round by round:
/// stream `k = w · num_sms + sm` takes its access of round `r` at
/// position `r · n + k` of one sequence (`n` streams), and a page's
/// first toucher is whoever reaches it at the least position. Streams
/// never read each other, so a worker walks each stream it claims to
/// the end and keeps the least position it saw per page; positions are
/// unique, so the elementwise minimum over workers is the one
/// sequential walk's answer whoever walked which stream.
fn walk_first_touches(
    cfg: &GpuConfig,
    workload: &Workload,
    accesses_per_warp: usize,
    workers: usize,
    claim: usize,
) -> Vec<(PageNum, SmId)> {
    let layout = workload.layout();
    assert_eq!(
        layout.page_bytes, cfg.page_bytes,
        "workload page size must match the configuration"
    );
    let num_sms = cfg.num_sms;
    // Warp-major order: consecutive touches come from *different* SMs,
    // as they would under concurrent execution — burst-faulting one SM's
    // warps back-to-back would make LAB's least-first fallback spray
    // pages that are really private.
    let mut streams: Vec<WarpStream> = (0..cfg.active_warps())
        .flat_map(|w| (0..num_sms).map(move |sm| workload.stream(SmId(sm), WarpId(w))))
        .collect();
    let n = streams.len();
    // The layout numbers its pages densely from 0: one slot per page
    // holds the least position that touched it, `u64::MAX` for none.
    let pages = layout.total_pages as usize;
    let claims = Mutex::new(streams.chunks_mut(claim).enumerate());
    let next_claim = || claims.lock().expect("claim queue poisoned").next();
    let walk = || {
        let mut least = vec![u64::MAX; pages];
        while let Some((i, chunk)) = next_claim() {
            for (k, stream) in (i * claim..).zip(chunk) {
                // CTAs launch in waves: low-numbered SMs start a little
                // earlier. This is what lets first-touch concentrate hot
                // shared pages on the earliest sharer's channel - the
                // pathology LAB exists to fix (paper Fig. 6d/e).
                for round in (k % num_sms) / 2..accesses_per_warp {
                    // Skip compute blocks; take the next memory access.
                    let access = loop {
                        match stream.next_op() {
                            WarpOp::Mem(a) => break a,
                            WarpOp::Compute(_) => continue,
                        }
                    };
                    let slot = &mut least[access.vaddr.page(cfg.page_bytes).0 as usize];
                    *slot = (*slot).min((round * n + k) as u64);
                }
            }
        }
        least
    };
    let least = thread::scope(|s| {
        let others: Vec<_> = (1..workers).map(|_| s.spawn(walk)).collect();
        let mut least = walk();
        for other in others {
            let other = other.join().unwrap_or_else(|e| panic::resume_unwind(e));
            for (a, b) in least.iter_mut().zip(other) {
                *a = (*a).min(b);
            }
        }
        least
    });
    let mut touched: Vec<(u64, u64)> = (0..)
        .zip(least)
        .filter(|&(_, pos)| pos != u64::MAX)
        .map(|(page, pos)| (pos, page))
        .collect();
    touched.sort_unstable();
    touched
        .into_iter()
        .map(|(pos, page)| (PageNum(page), SmId((pos as usize % n) % num_sms)))
        .collect()
}

/// Builder for a [`SimSession`]. Created by [`SimSession::builder`].
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    cfg: GpuConfig,
    workload: Workload,
    warm_accesses: Option<usize>,
}

impl SessionBuilder {
    /// Override the per-warp warm-up depth (default:
    /// [`default_warm_accesses`]).
    pub fn warm_accesses(mut self, accesses_per_warp: usize) -> SessionBuilder {
        self.warm_accesses = Some(accesses_per_warp);
        self
    }

    /// Validate the configuration and assemble the simulator.
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] if the configuration fails
    /// validation or is inconsistent with the workload.
    pub fn build(self) -> Result<SimSession, SimError> {
        let warm_accesses = self
            .warm_accesses
            .unwrap_or_else(|| default_warm_accesses(&self.cfg, &self.workload));
        let gpu = GpuSimulator::try_new(self.cfg, &self.workload)?;
        Ok(SimSession {
            workload: self.workload,
            warm_accesses,
            gpu,
        })
    }
}

/// A simulation lifecycle: configuration + workload + warm-up policy,
/// with checkpoint/restore built in.
///
/// The documented entry point for driving the simulator; see the
/// [module docs](crate::session) for the build → warm → fork pattern
/// the benchmark runner uses to amortize warm-up across a matrix.
pub struct SimSession {
    workload: Workload,
    warm_accesses: usize,
    gpu: GpuSimulator,
}

impl SimSession {
    /// Start building a session for `cfg` running `workload`.
    pub fn builder(cfg: GpuConfig, workload: Workload) -> SessionBuilder {
        SessionBuilder {
            cfg,
            workload,
            warm_accesses: None,
        }
    }

    /// Rebuild a session directly from serialized checkpoint bytes (a
    /// `nuba_sim --checkpoint` file, say): decodes and restores in one
    /// step, with every corruption mode surfacing as a typed error.
    ///
    /// # Errors
    /// Any [`StateError`] from [`Checkpoint::from_bytes`] (wrapped in
    /// [`SimError::Checkpoint`]), or any error from
    /// [`resume`](SimSession::resume).
    pub fn resume_from_bytes(bytes: &[u8], workload: Workload) -> Result<SimSession, SimError> {
        let ckpt = Checkpoint::from_bytes(bytes).map_err(SimError::from)?;
        SimSession::resume(&ckpt, workload)
    }

    /// Rebuild a session from a [`Checkpoint`] taken under the same
    /// configuration and workload.
    ///
    /// # Errors
    /// See [`GpuSimulator::restore`].
    pub fn resume(ckpt: &Checkpoint, workload: Workload) -> Result<SimSession, SimError> {
        let cfg = ckpt.config().clone();
        let warm_accesses = default_warm_accesses(&cfg, &workload);
        let gpu = GpuSimulator::restore(cfg, &workload, ckpt)?;
        Ok(SimSession {
            workload,
            warm_accesses,
            gpu,
        })
    }

    /// Pre-touch caches, TLBs and page tables with the session's
    /// warm-up depth (untimed; does not advance the cycle counter).
    pub fn warm(&mut self) {
        self.gpu.warm(&self.workload, self.warm_accesses);
    }

    /// Run a timed window of `cycles` cycles and report.
    ///
    /// # Errors
    /// [`SimError::NoForwardProgress`] if the watchdog fires during the
    /// window.
    pub fn run_window(&mut self, cycles: u64) -> Result<SimReport, SimError> {
        self.gpu.run(cycles)
    }

    /// Snapshot the current state (see [`GpuSimulator::checkpoint`]).
    pub fn checkpoint(&self) -> Checkpoint {
        self.gpu.checkpoint(&self.workload)
    }

    /// The workload this session runs.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Current simulated cycle.
    pub fn cycle(&self) -> u64 {
        self.gpu.cycle()
    }

    /// The underlying simulator, for metrics/telemetry accessors.
    pub fn gpu(&self) -> &GpuSimulator {
        &self.gpu
    }

    /// Mutable access to the underlying simulator: fault plans, the
    /// watchdog budget, and [`step`](GpuSimulator::step), the per-cycle
    /// reference the run loop is checked against.
    pub fn gpu_mut(&mut self) -> &mut GpuSimulator {
        &mut self.gpu
    }
}

#[cfg(test)]
mod tests {
    use nuba_types::ArchKind;
    use nuba_workloads::{BenchmarkId, ScaleProfile};

    use super::*;

    /// However the walk's streams are claimed, the merge reproduces one
    /// thread walking them all in one claim: claims of 7 streams put
    /// claim bases off the multiples of `num_sms`.
    #[test]
    fn every_worker_count_walks_the_same_trace() {
        let cfg = GpuConfig::paper_baseline(ArchKind::Nuba);
        for bench in [BenchmarkId::Lbm, BenchmarkId::Bicg, BenchmarkId::Kmeans] {
            let wl = Workload::build(bench, ScaleProfile::fast(), cfg.num_sms, cfg.seed);
            let depth = default_warm_accesses(&cfg, &wl);
            let serial = walk_first_touches(&cfg, &wl, depth, 1, usize::MAX);
            assert!(!serial.is_empty(), "{bench}: the walk touched nothing");
            for workers in [1, 2, 3, 7] {
                for claim in [CLAIM_STREAMS, 7] {
                    assert_eq!(
                        walk_first_touches(&cfg, &wl, depth, workers, claim),
                        serial,
                        "{bench}: {workers} workers claiming {claim} walk a different trace"
                    );
                }
            }
        }
    }
}
