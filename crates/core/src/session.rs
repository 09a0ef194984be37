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

use std::collections::HashSet;

use nuba_types::addr::PageNum;
use nuba_types::hash::IntBuildHasher;
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

    /// Invariant-registry counters captured at snapshot time.
    pub fn invariant_seeds(&self) -> &[SiteSeed] {
        &self.invariants
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
/// scaled footprint a few times over, bounded for simulation cost. The
/// benchmark runner keys its warm-state cache on this value.
pub fn default_warm_accesses(cfg: &GpuConfig, workload: &Workload) -> usize {
    let streams = (cfg.num_sms * cfg.sim_active_warps.min(cfg.warps_per_sm).max(1)) as u64;
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
/// driver.
pub fn first_touches(
    cfg: &GpuConfig,
    workload: &Workload,
    accesses_per_warp: usize,
) -> Vec<(PageNum, SmId)> {
    let num_sms = cfg.num_sms;
    let active_warps = cfg.sim_active_warps.min(cfg.warps_per_sm).max(1);
    // Warp-major order: consecutive touches come from *different* SMs,
    // as they would under concurrent execution — burst-faulting one SM's
    // warps back-to-back would make LAB's least-first fallback spray
    // pages that are really private.
    let mut streams: Vec<WarpStream> = Vec::with_capacity(active_warps * num_sms);
    for w in 0..active_warps {
        for sm in 0..num_sms {
            streams.push(workload.stream(SmId(sm), WarpId(w)));
        }
    }
    // The layout numbers its pages densely from 0, so a flag per page
    // answers "seen?" without hashing; a page outside that range (the
    // machine's page size differs from the layout's) takes the set.
    let mut seen_dense = vec![false; workload.layout().total_pages as usize];
    let mut seen: HashSet<PageNum, IntBuildHasher> = HashSet::default();
    let mut touches = Vec::new();
    for round in 0..accesses_per_warp {
        for (k, stream) in streams.iter_mut().enumerate() {
            let sm = SmId(k % num_sms);
            // CTAs launch in waves: low-numbered SMs start a little
            // earlier. This is what lets first-touch concentrate hot
            // shared pages on the earliest sharer's channel - the
            // pathology LAB exists to fix (paper Fig. 6d/e).
            if round < sm.0 / 2 {
                continue;
            }
            // Skip compute blocks; take the next memory access.
            let access = loop {
                match stream.next_op() {
                    WarpOp::Mem(a) => break a,
                    WarpOp::Compute(_) => continue,
                }
            };
            let vpage = access.vaddr.page(cfg.page_bytes);
            let first = match seen_dense.get_mut(vpage.0 as usize) {
                Some(flag) => !std::mem::replace(flag, true),
                None => seen.insert(vpage),
            };
            if first {
                touches.push((vpage, sm));
            }
        }
    }
    touches
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

    /// Mutable access to the underlying simulator (fault plans,
    /// watchdog budget, manual stepping).
    pub fn gpu_mut(&mut self) -> &mut GpuSimulator {
        &mut self.gpu
    }
}
