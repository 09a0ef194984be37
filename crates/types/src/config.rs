//! Simulated-machine configuration (paper Table 1 and §6).
//!
//! [`GpuConfig`] captures every knob the paper's evaluation turns:
//! architecture kind (memory-side UBA, SM-side UBA, NUBA, and the MCM
//! variants of §7.6), resource counts, cache geometries, NoC bandwidth,
//! page size, address mapping, page-allocation policy and the LAB
//! threshold, plus the MDR epoch parameters.
//!
//! Bandwidths are stored as *bytes per SM cycle* at the 1.4 GHz core
//! clock: 1.4 TB/s ≙ 1000 B/cycle aggregate ≙ 16 B/cycle for each of the
//! 64 NoC ports; the NUBA local point-to-point links provide 2.8 TB/s ≙
//! 32 B/cycle per SM.

use crate::mapping::MappingKind;
use core::fmt;

/// Which GPU system architecture to simulate (paper Fig. 1 and Fig. 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchKind {
    /// Conventional memory-side Uniform Bandwidth Architecture: a full
    /// SM-to-LLC crossbar; each LLC slice caches a fixed address slice
    /// (Fig. 1a). This is the paper's baseline.
    MemSideUba,
    /// SM-side UBA à la NVIDIA A100: two LLC partitions that can each
    /// cache any address, kept consistent by coherence (Fig. 1b).
    SmSideUba,
    /// The proposed Non-Uniform Bandwidth Architecture: partitions of a
    /// few SMs + LLC slices + one memory controller with point-to-point
    /// local links and an inter-partition crossbar (Fig. 1c).
    Nuba,
    /// Memory-side UBA spread over a Multi-Chip-Module package (Fig. 15a).
    McmUba,
    /// NUBA spread over a Multi-Chip-Module package (Fig. 15b).
    McmNuba,
}

impl ArchKind {
    /// True for the two NUBA variants.
    pub fn is_nuba(self) -> bool {
        matches!(self, ArchKind::Nuba | ArchKind::McmNuba)
    }

    /// True for the two MCM package variants (§7.6).
    pub fn is_mcm(self) -> bool {
        matches!(self, ArchKind::McmUba | ArchKind::McmNuba)
    }

    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            ArchKind::MemSideUba => "UBA-mem",
            ArchKind::SmSideUba => "UBA-sm",
            ArchKind::Nuba => "NUBA",
            ArchKind::McmUba => "MCM-UBA",
            ArchKind::McmNuba => "MCM-NUBA",
        }
    }
}

impl fmt::Display for ArchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// GPU-driver page-allocation policy (paper §4 and §7.6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PagePolicyKind {
    /// Allocate in the partition of the SM that first touches the page.
    FirstTouch,
    /// Distribute pages round-robin across memory channels.
    RoundRobin,
    /// Local-And-Balanced: first-touch while the Normalized Page Balance
    /// stays above `threshold`, least-first otherwise (paper Eq. 1).
    Lab {
        /// NPB threshold; the paper's default is 0.9 (0.8 and 0.95 in the
        /// sensitivity study).
        threshold: f64,
    },
    /// Count-based page migration (alternative policy, §7.6): pages
    /// migrate towards their dominant accessor at interval boundaries.
    Migration,
    /// Page-granular replication (alternative policy, §7.6): shared pages
    /// are replicated into every accessing partition's memory.
    PageReplication,
}

impl PagePolicyKind {
    /// The paper's default LAB configuration (threshold 0.9).
    pub fn lab_default() -> Self {
        PagePolicyKind::Lab { threshold: 0.9 }
    }

    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            PagePolicyKind::FirstTouch => "FT",
            PagePolicyKind::RoundRobin => "RR",
            PagePolicyKind::Lab { .. } => "LAB",
            PagePolicyKind::Migration => "MIG",
            PagePolicyKind::PageReplication => "PREP",
        }
    }
}

/// Data-replication policy in the LLC (paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationKind {
    /// Never replicate: remote read-only data stays remote.
    None,
    /// Always replicate read-only shared lines into the local LLC.
    Full,
    /// Model-Driven Replication: per-epoch analytic decision (§5.1).
    Mdr,
}

impl ReplicationKind {
    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            ReplicationKind::None => "No-Rep",
            ReplicationKind::Full => "Full-Rep",
            ReplicationKind::Mdr => "MDR",
        }
    }
}

/// Analytical NoC power-model parameters (DSENT-substitute, see DESIGN.md).
///
/// Crossbar dynamic energy per byte grows with the per-port link bandwidth
/// (wider, faster crossbars burn more energy per bit moved) and static
/// power grows with radix² × port bandwidth — the quadratic endpoint
/// scaling the paper cites \[22, 70, 69, 79\].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocPowerParams {
    /// Dynamic energy per byte per crossbar stage, in picojoules, for the
    /// reference 16 B/cycle port width.
    pub ref_pj_per_byte: f64,
    /// Exponent on (port_bw / 16 B) applied to the per-byte energy.
    pub bw_energy_exponent: f64,
    /// Static power in watts for the reference 64-port, 16 B/cycle
    /// crossbar complex.
    pub ref_static_watts: f64,
}

impl Default for NocPowerParams {
    fn default() -> Self {
        NocPowerParams {
            ref_pj_per_byte: 6.0,
            bw_energy_exponent: 0.7,
            ref_static_watts: 12.0,
        }
    }
}

/// Error returned by [`GpuConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid gpu configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Multi-Chip-Module layout (§7.6): modules with reduced inter-module
/// bandwidth relative to the on-chip NoC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McmConfig {
    /// Number of chip modules in the package (the paper uses 4).
    pub num_modules: usize,
    /// Bidirectional inter-module link bandwidth in bytes per SM cycle
    /// (720 GB/s ≙ ~514 B/cycle aggregate; per direction per module pair
    /// the paper gives 720 GB/s bidirectional links).
    pub inter_module_bytes_per_cycle: f64,
}

impl Default for McmConfig {
    fn default() -> Self {
        McmConfig {
            num_modules: 4,
            inter_module_bytes_per_cycle: 128.0,
        }
    }
}

/// Observability knobs (`nuba-core::telemetry`): windowed counter
/// sampling and deterministic request-lifecycle tracing.
///
/// Both pillars are off by default so a plain run is bit-identical to a
/// build without the telemetry layer. When enabled, all recording state
/// is pre-sized at construction (rings, sampled-request tables), so the
/// per-cycle path stays allocation-free — the `steady_alloc` test runs
/// with telemetry enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Flush a time-series window every this many cycles. `None`
    /// disables windowed sampling entirely.
    pub window_cycles: Option<u64>,
    /// Ring capacity: how many of the most recent windows are retained
    /// (and embedded into a `DeadlockReport` as a flight recorder).
    pub ring_windows: usize,
    /// Sample one in every `trace_sample_period` read requests for
    /// lifecycle tracing (keyed on the monotonic request id, so the
    /// sample set is independent of worker count). `0` disables tracing.
    pub trace_sample_period: u64,
    /// Maximum completed lifecycle records retained per run.
    pub trace_capacity: usize,
    /// Stamp per-window read-latency percentiles (p50/p95/p99/max of
    /// the window's completed reads) into each flushed
    /// `TelemetryWindow`. Requires `window_cycles`; costs one fixed
    /// histogram reset per flush, zero allocations.
    pub window_latency: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            window_cycles: None,
            ring_windows: 64,
            trace_sample_period: 0,
            trace_capacity: 4096,
            window_latency: false,
        }
    }
}

/// Full simulated-GPU configuration (paper Table 1 + §6 defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Architecture under test.
    pub arch: ArchKind,
    /// Number of SMs (64 in the baseline).
    pub num_sms: usize,
    /// Number of LLC slices (64 in the baseline).
    pub num_llc_slices: usize,
    /// Number of memory channels / controllers (32 in the baseline).
    pub num_channels: usize,
    /// Warp contexts per SM (64).
    pub warps_per_sm: usize,
    /// Warps the simulator actively models per SM. 32 saturates the
    /// memory system identically to 64 (per-warp MLP × 32 ≥ the SM's
    /// outstanding-request budget) at half the simulation cost; raise it
    /// for fidelity studies.
    pub sim_active_warps: usize,
    /// Threads per warp (32).
    pub threads_per_warp: usize,
    /// Maximum outstanding memory requests per SM; models the L1 MSHR
    /// file (128 entries in Table 1).
    pub sm_max_outstanding: usize,

    /// L1 data-cache size per SM in bytes (48 KB).
    pub l1_bytes: usize,
    /// L1 associativity (6).
    pub l1_ways: usize,
    /// L1 MSHR entries (128).
    pub l1_mshrs: usize,
    /// L1 hit latency in cycles.
    pub l1_latency: u64,

    /// Total LLC capacity in bytes across all slices (6 MB).
    pub llc_total_bytes: usize,
    /// LLC associativity (16).
    pub llc_ways: usize,
    /// LLC slice tag+data pipeline latency in cycles. Table 1 lists 120
    /// cycles of total LLC load-to-use latency; we charge part of it in
    /// the slice pipeline and the rest accrues in queues/interconnect.
    pub llc_latency: u64,
    /// LLC MSHR entries per slice.
    pub llc_mshrs: usize,
    /// LLC data-array streaming bandwidth in bytes per cycle per slice.
    /// 32 B/cycle × 64 slices ≙ 2.8 TB/s aggregate — the full-LLC
    /// bandwidth NUBA exposes through its local links.
    pub llc_bytes_per_cycle: u64,

    /// Page size in bytes (4 KB default, 2 MB sensitivity).
    pub page_bytes: u64,
    /// L1 TLB entries per SM (128).
    pub l1_tlb_entries: usize,
    /// Shared L2 TLB entries (512).
    pub l2_tlb_entries: usize,
    /// L2 TLB associativity (16).
    pub l2_tlb_ways: usize,
    /// L2 TLB hit latency (10 cycles).
    pub l2_tlb_latency: u64,
    /// Concurrent page-table walkers (64).
    pub page_walkers: usize,
    /// Page-table walk latency in cycles (DRAM accesses for the walk).
    pub walk_latency: u64,
    /// First-touch page-fault handling penalty in cycles. The paper uses
    /// 20 µs (28 000 cycles); scaled-down runs default to 2 000 cycles —
    /// see DESIGN.md substitution #4.
    pub page_fault_latency: u64,

    /// Aggregate inter-partition / SM-to-LLC NoC bandwidth in bytes per
    /// cycle (1 TB/s ≙ ~714 B/cycle; the 1.4 TB/s baseline is 1000).
    pub noc_total_bytes_per_cycle: f64,
    /// Per-stage crossbar latency in cycles (the paper's hierarchical
    /// crossbar has 4-cycle 8×8 stages; a traversal crosses two stages).
    pub noc_stage_latency: u64,
    /// Number of 8×8 sub-crossbars per stage (16 in the baseline).
    pub noc_subxbars: usize,
    /// NUBA-only: per-SM point-to-point link bandwidth to the local LLC
    /// slices, bytes per cycle (32 ≙ 2.8 TB/s aggregate).
    pub local_link_bytes_per_cycle: u64,

    /// DRAM clock divider relative to the SM clock (1.4 GHz / 350 MHz = 4).
    pub dram_clock_divider: u64,
    /// Banks per channel (16).
    pub banks_per_channel: usize,
    /// Memory-controller queue entries per channel (64).
    pub mc_queue_entries: usize,
    /// Bytes transferred per DRAM data-bus burst slot (one memory cycle).
    /// 64 B/memory-cycle ≙ 22.4 GB/s per channel ≙ 720 GB/s over 32
    /// channels.
    pub dram_burst_bytes: u64,
    /// DRAM row-buffer (page) size in bytes per bank.
    pub dram_row_bytes: u64,
    /// Model JEDEC-rate all-bank refresh (off by default, matching the
    /// paper's Table 1 which lists no refresh timing; see the ablations
    /// binary for its cost).
    pub dram_refresh: bool,

    /// Physical address mapping policy (Fig. 2 fixed-channel, or PAE).
    pub mapping: MappingKind,
    /// GPU-driver page-allocation policy.
    pub page_policy: PagePolicyKind,
    /// LLC data-replication policy (§5).
    pub replication: ReplicationKind,
    /// MDR epoch length in cycles (20 000 in the paper).
    pub mdr_epoch_cycles: u64,
    /// Cycles charged to evaluate the MDR model once per epoch (116).
    pub mdr_eval_cycles: u64,
    /// Sampled LLC sets per slice used by the MDR profiler (8).
    pub mdr_sample_sets: usize,
    /// Simulate kernel boundaries every N cycles: SMs flush (invalidate)
    /// their write-through L1s and the LLC is flushed so read-only data
    /// can become read-write in the next kernel (paper §5.3). `None`
    /// simulates a single long kernel (the default timed window).
    pub kernel_boundary_cycles: Option<u64>,

    /// Forward-progress watchdog budget: if no memory request retires
    /// for this many consecutive cycles while work is outstanding, the
    /// simulator aborts the run with a
    /// `SimError::NoForwardProgress` carrying a deadlock report.
    /// `None` disables the watchdog (single-stepping debuggers).
    pub watchdog_cycles: Option<u64>,
    /// Observability layer knobs (windowed sampling + request tracing).
    pub telemetry: TelemetryConfig,
    /// MCM package layout; only meaningful for the MCM architecture kinds.
    pub mcm: McmConfig,
    /// NoC power-model parameters.
    pub noc_power: NocPowerParams,
    /// RNG seed used by all stochastic components for deterministic runs.
    pub seed: u64,
}

impl GpuConfig {
    /// The paper's Table 1 baseline for the given architecture: 64 SMs,
    /// 64 LLC slices, 32 channels, 1.4 TB/s NoC, 4 KB pages, LAB(0.9)
    /// allocation, MDR replication for NUBA (UBA ignores both knobs where
    /// they do not apply).
    pub fn paper_baseline(arch: ArchKind) -> GpuConfig {
        GpuConfig {
            arch,
            num_sms: 64,
            num_llc_slices: 64,
            num_channels: 32,
            warps_per_sm: 64,
            sim_active_warps: 32,
            threads_per_warp: 32,
            sm_max_outstanding: 192,
            l1_bytes: 48 * 1024,
            l1_ways: 6,
            l1_mshrs: 128,
            l1_latency: 4,
            llc_total_bytes: 6 * 1024 * 1024,
            llc_ways: 16,
            llc_latency: 40,
            llc_mshrs: 128,
            llc_bytes_per_cycle: 32,
            page_bytes: 4096,
            l1_tlb_entries: 128,
            l2_tlb_entries: 512,
            l2_tlb_ways: 16,
            l2_tlb_latency: 10,
            page_walkers: 64,
            walk_latency: 160,
            page_fault_latency: 2_000,
            noc_total_bytes_per_cycle: 1000.0,
            noc_stage_latency: 4,
            noc_subxbars: 16,
            local_link_bytes_per_cycle: 32,
            dram_clock_divider: 4,
            banks_per_channel: 16,
            mc_queue_entries: 64,
            dram_burst_bytes: 64,
            dram_row_bytes: 2048,
            dram_refresh: false,
            mapping: MappingKind::FixedChannel,
            page_policy: PagePolicyKind::lab_default(),
            replication: ReplicationKind::Mdr,
            mdr_epoch_cycles: 20_000,
            mdr_eval_cycles: 116,
            mdr_sample_sets: 8,
            kernel_boundary_cycles: None,
            // Generous relative to the worst legitimate stall (a page
            // fault is 2 000–28 000 cycles, and faults overlap): a
            // healthy run never goes 20 000 cycles without one retire.
            watchdog_cycles: Some(20_000),
            telemetry: TelemetryConfig::default(),
            mcm: McmConfig::default(),
            noc_power: NocPowerParams::default(),
            seed: 0x5eed_c0de,
        }
    }

    /// The §7.6 MCM configuration: 128 SMs, 128 LLC slices, 64 channels
    /// over 4 modules with 720 GB/s bidirectional inter-module links.
    pub fn paper_mcm(arch: ArchKind) -> GpuConfig {
        assert!(arch.is_mcm(), "paper_mcm requires an MCM architecture");
        let mut cfg = GpuConfig::paper_baseline(arch);
        cfg.num_sms = 128;
        cfg.num_llc_slices = 128;
        cfg.num_channels = 64;
        cfg.noc_total_bytes_per_cycle = 2000.0;
        cfg.mcm = McmConfig::default();
        cfg
    }

    /// Scale compute, LLC slices and channels by `factor` while keeping
    /// per-slice capacity constant (the paper's "GPU size" sensitivity).
    #[must_use]
    pub fn scaled(mut self, factor: f64) -> GpuConfig {
        let per_slice = self.llc_total_bytes / self.num_llc_slices;
        self.num_sms = ((self.num_sms as f64) * factor).round() as usize;
        self.num_llc_slices = ((self.num_llc_slices as f64) * factor).round() as usize;
        self.num_channels = ((self.num_channels as f64) * factor).round() as usize;
        self.llc_total_bytes = per_slice * self.num_llc_slices;
        self.noc_total_bytes_per_cycle *= factor;
        self
    }

    /// Set the NoC aggregate bandwidth from a TB/s figure (1.4 GHz clock).
    #[must_use]
    pub fn with_noc_tbs(mut self, tbs: f64) -> GpuConfig {
        self.noc_total_bytes_per_cycle = tbs * 1e12 / 1.4e9;
        self
    }

    /// Scale the machine down to `sms` SMs, `slices` LLC slices,
    /// `channels` memory channels and `warps` warp contexts per SM
    /// (builder style). Gate tests and doc examples use this to shrink
    /// the Table 1 baseline while keeping every ratio-derived knob
    /// consistent.
    #[must_use]
    pub fn with_geometry(
        mut self,
        sms: usize,
        slices: usize,
        channels: usize,
        warps: usize,
    ) -> GpuConfig {
        self.num_sms = sms;
        self.num_llc_slices = slices;
        self.num_channels = channels;
        self.warps_per_sm = warps;
        self.sim_active_warps = self.sim_active_warps.min(warps);
        self
    }

    /// Cap the simulated warp contexts per SM (builder style). Low
    /// counts model latency-bound occupancy: each SM issues a handful
    /// of requests and then sits idle until the replies return —
    /// exactly the long idle spans event-driven time skipping jumps
    /// over. Values above `warps_per_sm` are clamped by consumers.
    #[must_use]
    pub fn with_active_warps(mut self, warps: usize) -> GpuConfig {
        self.sim_active_warps = warps;
        self
    }

    /// Set the first-touch page-fault penalty in cycles (builder style).
    #[must_use]
    pub fn with_page_fault_latency(mut self, cycles: u64) -> GpuConfig {
        self.page_fault_latency = cycles;
        self
    }

    /// Set the windowed-telemetry / tracing knobs (builder style).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> GpuConfig {
        self.telemetry = telemetry;
        self
    }

    /// Set the LLC data-replication policy (builder style).
    #[must_use]
    pub fn with_replication(mut self, replication: ReplicationKind) -> GpuConfig {
        self.replication = replication;
        self
    }

    /// Set the driver page-allocation policy (builder style).
    #[must_use]
    pub fn with_policy(mut self, policy: PagePolicyKind) -> GpuConfig {
        self.page_policy = policy;
        self
    }

    /// Set the deterministic RNG seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> GpuConfig {
        self.seed = seed;
        self
    }

    /// Set the page size in bytes (builder style).
    #[must_use]
    pub fn with_page_bytes(mut self, page_bytes: u64) -> GpuConfig {
        self.page_bytes = page_bytes;
        self
    }

    /// Set the physical address mapping policy (builder style).
    #[must_use]
    pub fn with_mapping(mut self, mapping: MappingKind) -> GpuConfig {
        self.mapping = mapping;
        self
    }

    /// Set periodic kernel boundaries (builder style); `None` simulates
    /// one long kernel.
    #[must_use]
    pub fn with_kernel_boundaries(mut self, every: Option<u64>) -> GpuConfig {
        self.kernel_boundary_cycles = every;
        self
    }

    /// Enable or disable JEDEC-rate DRAM refresh (builder style).
    #[must_use]
    pub fn with_dram_refresh(mut self, refresh: bool) -> GpuConfig {
        self.dram_refresh = refresh;
        self
    }

    /// Set the MDR epoch parameters (builder style): epoch length,
    /// evaluation cost and sampled sets per slice.
    #[must_use]
    pub fn with_mdr_epoch(mut self, epoch_cycles: u64) -> GpuConfig {
        self.mdr_epoch_cycles = epoch_cycles;
        self
    }

    /// Set the number of shadow-tag sets MDR samples per slice
    /// (builder style).
    #[must_use]
    pub fn with_mdr_sample_sets(mut self, sets: usize) -> GpuConfig {
        self.mdr_sample_sets = sets;
        self
    }

    /// Set the LLC pipeline latency in cycles (builder style).
    #[must_use]
    pub fn with_llc_latency(mut self, cycles: u64) -> GpuConfig {
        self.llc_latency = cycles;
        self
    }

    /// Set the per-stage NoC traversal latency in cycles (builder
    /// style).
    #[must_use]
    pub fn with_noc_stage_latency(mut self, cycles: u64) -> GpuConfig {
        self.noc_stage_latency = cycles;
        self
    }

    /// Set the per-partition local link bandwidth in bytes/cycle
    /// (builder style).
    #[must_use]
    pub fn with_local_link_bandwidth(mut self, bytes_per_cycle: u64) -> GpuConfig {
        self.local_link_bytes_per_cycle = bytes_per_cycle;
        self
    }

    /// Set the number of LLC slices (builder style) — partition-shape
    /// sweeps vary slices per memory channel at constant capacity.
    #[must_use]
    pub fn with_llc_slices(mut self, slices: usize) -> GpuConfig {
        self.num_llc_slices = slices;
        self
    }

    /// Set the total LLC capacity in bytes (builder style).
    #[must_use]
    pub fn with_llc_capacity(mut self, bytes: usize) -> GpuConfig {
        self.llc_total_bytes = bytes;
        self
    }

    /// Canonical identity hash of every configuration field, stable
    /// across runs and platforms. Checkpoints embed it so a restore
    /// against a different configuration is rejected instead of
    /// silently misbehaving.
    #[must_use]
    pub fn state_hash(&self) -> u64 {
        use crate::state::{SaveState, StateWriter};
        let mut w = StateWriter::new();
        self.save(&mut w);
        crate::state::fnv1a(w.bytes())
    }

    /// Decode a configuration serialized by
    /// [`SaveState::save`](crate::state::SaveState::save) (checkpoint
    /// headers embed one so a resume does not have to re-specify every
    /// knob).
    ///
    /// # Errors
    /// [`crate::state::StateError`] on truncation or an unknown enum
    /// discriminant.
    pub fn from_state(
        r: &mut crate::state::StateReader<'_>,
    ) -> Result<GpuConfig, crate::state::StateError> {
        use crate::state::{StateError, StateValue};
        let arch = match r.get_u8()? {
            0 => ArchKind::MemSideUba,
            1 => ArchKind::SmSideUba,
            2 => ArchKind::Nuba,
            3 => ArchKind::McmUba,
            4 => ArchKind::McmNuba,
            tag => {
                return Err(StateError::BadTag {
                    what: "architecture kind",
                    tag,
                })
            }
        };
        Ok(GpuConfig {
            arch,
            num_sms: StateValue::get(r)?,
            num_llc_slices: StateValue::get(r)?,
            num_channels: StateValue::get(r)?,
            warps_per_sm: StateValue::get(r)?,
            sim_active_warps: StateValue::get(r)?,
            threads_per_warp: StateValue::get(r)?,
            sm_max_outstanding: StateValue::get(r)?,
            l1_bytes: StateValue::get(r)?,
            l1_ways: StateValue::get(r)?,
            l1_mshrs: StateValue::get(r)?,
            l1_latency: StateValue::get(r)?,
            llc_total_bytes: StateValue::get(r)?,
            llc_ways: StateValue::get(r)?,
            llc_latency: StateValue::get(r)?,
            llc_mshrs: StateValue::get(r)?,
            llc_bytes_per_cycle: StateValue::get(r)?,
            page_bytes: StateValue::get(r)?,
            l1_tlb_entries: StateValue::get(r)?,
            l2_tlb_entries: StateValue::get(r)?,
            l2_tlb_ways: StateValue::get(r)?,
            l2_tlb_latency: StateValue::get(r)?,
            page_walkers: StateValue::get(r)?,
            walk_latency: StateValue::get(r)?,
            page_fault_latency: StateValue::get(r)?,
            noc_total_bytes_per_cycle: StateValue::get(r)?,
            noc_stage_latency: StateValue::get(r)?,
            noc_subxbars: StateValue::get(r)?,
            local_link_bytes_per_cycle: StateValue::get(r)?,
            dram_clock_divider: StateValue::get(r)?,
            banks_per_channel: StateValue::get(r)?,
            mc_queue_entries: StateValue::get(r)?,
            dram_burst_bytes: StateValue::get(r)?,
            dram_row_bytes: StateValue::get(r)?,
            dram_refresh: StateValue::get(r)?,
            mapping: match r.get_u8()? {
                0 => MappingKind::FixedChannel,
                1 => MappingKind::Pae,
                tag => {
                    return Err(StateError::BadTag {
                        what: "address mapping kind",
                        tag,
                    })
                }
            },
            page_policy: match r.get_u8()? {
                0 => PagePolicyKind::FirstTouch,
                1 => PagePolicyKind::RoundRobin,
                2 => PagePolicyKind::Lab {
                    threshold: StateValue::get(r)?,
                },
                3 => PagePolicyKind::Migration,
                4 => PagePolicyKind::PageReplication,
                tag => {
                    return Err(StateError::BadTag {
                        what: "page policy kind",
                        tag,
                    })
                }
            },
            replication: match r.get_u8()? {
                0 => ReplicationKind::None,
                1 => ReplicationKind::Full,
                2 => ReplicationKind::Mdr,
                tag => {
                    return Err(StateError::BadTag {
                        what: "replication kind",
                        tag,
                    })
                }
            },
            mdr_epoch_cycles: StateValue::get(r)?,
            mdr_eval_cycles: StateValue::get(r)?,
            mdr_sample_sets: StateValue::get(r)?,
            kernel_boundary_cycles: StateValue::get(r)?,
            watchdog_cycles: StateValue::get(r)?,
            telemetry: TelemetryConfig {
                window_cycles: StateValue::get(r)?,
                ring_windows: StateValue::get(r)?,
                trace_sample_period: StateValue::get(r)?,
                trace_capacity: StateValue::get(r)?,
                window_latency: StateValue::get(r)?,
            },
            mcm: McmConfig {
                num_modules: StateValue::get(r)?,
                inter_module_bytes_per_cycle: StateValue::get(r)?,
            },
            noc_power: NocPowerParams {
                ref_pj_per_byte: StateValue::get(r)?,
                bw_energy_exponent: StateValue::get(r)?,
                ref_static_watts: StateValue::get(r)?,
            },
            seed: StateValue::get(r)?,
        })
    }
}

impl crate::state::SaveState for GpuConfig {
    fn save(&self, w: &mut crate::state::StateWriter) {
        use crate::state::StateValue;
        w.put_u8(match self.arch {
            ArchKind::MemSideUba => 0,
            ArchKind::SmSideUba => 1,
            ArchKind::Nuba => 2,
            ArchKind::McmUba => 3,
            ArchKind::McmNuba => 4,
        });
        self.num_sms.put(w);
        self.num_llc_slices.put(w);
        self.num_channels.put(w);
        self.warps_per_sm.put(w);
        self.sim_active_warps.put(w);
        self.threads_per_warp.put(w);
        self.sm_max_outstanding.put(w);
        self.l1_bytes.put(w);
        self.l1_ways.put(w);
        self.l1_mshrs.put(w);
        self.l1_latency.put(w);
        self.llc_total_bytes.put(w);
        self.llc_ways.put(w);
        self.llc_latency.put(w);
        self.llc_mshrs.put(w);
        self.llc_bytes_per_cycle.put(w);
        self.page_bytes.put(w);
        self.l1_tlb_entries.put(w);
        self.l2_tlb_entries.put(w);
        self.l2_tlb_ways.put(w);
        self.l2_tlb_latency.put(w);
        self.page_walkers.put(w);
        self.walk_latency.put(w);
        self.page_fault_latency.put(w);
        self.noc_total_bytes_per_cycle.put(w);
        self.noc_stage_latency.put(w);
        self.noc_subxbars.put(w);
        self.local_link_bytes_per_cycle.put(w);
        self.dram_clock_divider.put(w);
        self.banks_per_channel.put(w);
        self.mc_queue_entries.put(w);
        self.dram_burst_bytes.put(w);
        self.dram_row_bytes.put(w);
        self.dram_refresh.put(w);
        w.put_u8(match self.mapping {
            MappingKind::FixedChannel => 0,
            MappingKind::Pae => 1,
        });
        match self.page_policy {
            PagePolicyKind::FirstTouch => w.put_u8(0),
            PagePolicyKind::RoundRobin => w.put_u8(1),
            PagePolicyKind::Lab { threshold } => {
                w.put_u8(2);
                threshold.put(w);
            }
            PagePolicyKind::Migration => w.put_u8(3),
            PagePolicyKind::PageReplication => w.put_u8(4),
        }
        w.put_u8(match self.replication {
            ReplicationKind::None => 0,
            ReplicationKind::Full => 1,
            ReplicationKind::Mdr => 2,
        });
        self.mdr_epoch_cycles.put(w);
        self.mdr_eval_cycles.put(w);
        self.mdr_sample_sets.put(w);
        self.kernel_boundary_cycles.put(w);
        self.watchdog_cycles.put(w);
        self.telemetry.window_cycles.put(w);
        self.telemetry.ring_windows.put(w);
        self.telemetry.trace_sample_period.put(w);
        self.telemetry.trace_capacity.put(w);
        self.telemetry.window_latency.put(w);
        self.mcm.num_modules.put(w);
        self.mcm.inter_module_bytes_per_cycle.put(w);
        self.noc_power.ref_pj_per_byte.put(w);
        self.noc_power.bw_energy_exponent.put(w);
        self.noc_power.ref_static_watts.put(w);
        self.seed.put(w);
    }

    fn restore(
        &mut self,
        r: &mut crate::state::StateReader<'_>,
    ) -> Result<(), crate::state::StateError> {
        *self = GpuConfig::from_state(r)?;
        Ok(())
    }
}

impl GpuConfig {
    /// Aggregate NoC bandwidth expressed in TB/s.
    pub fn noc_tbs(&self) -> f64 {
        self.noc_total_bytes_per_cycle * 1.4e9 / 1e12
    }

    /// Number of NUBA partitions: one per memory channel.
    pub fn num_partitions(&self) -> usize {
        self.num_channels
    }

    /// SMs per partition (2 in the baseline's 2:2:1 ratio).
    pub fn sms_per_partition(&self) -> usize {
        self.num_sms / self.num_partitions()
    }

    /// LLC slices per partition (2 in the baseline).
    pub fn slices_per_partition(&self) -> usize {
        self.num_llc_slices / self.num_partitions()
    }

    /// Warps the simulator models per SM: `sim_active_warps` clamped to
    /// `warps_per_sm`, and at least one. The SMs, the warm-up walk and
    /// the runner's warm-trace key all read this one number.
    pub fn active_warps(&self) -> usize {
        self.sim_active_warps.min(self.warps_per_sm).max(1)
    }

    /// LLC slices per memory channel (2 in the baseline).
    pub fn slices_per_channel(&self) -> usize {
        self.num_llc_slices / self.num_channels
    }

    /// Capacity of one LLC slice in bytes.
    pub fn llc_slice_bytes(&self) -> usize {
        self.llc_total_bytes / self.num_llc_slices
    }

    /// Number of sets in one LLC slice.
    pub fn llc_slice_sets(&self) -> usize {
        self.llc_slice_bytes() / (self.llc_ways * crate::addr::LINE_BYTES as usize)
    }

    /// Per-port NoC link bandwidth in bytes per cycle, assuming one port
    /// per endpoint on the larger side of the crossbar.
    pub fn noc_port_bytes_per_cycle(&self) -> f64 {
        self.noc_total_bytes_per_cycle / self.num_llc_slices as f64
    }

    /// Partition that owns an SM (NUBA topology: dense blocks).
    pub fn partition_of_sm(&self, sm: crate::ids::SmId) -> crate::ids::PartitionId {
        crate::ids::PartitionId(sm.0 / self.sms_per_partition())
    }

    /// Partition that owns an LLC slice.
    pub fn partition_of_slice(&self, slice: crate::ids::SliceId) -> crate::ids::PartitionId {
        crate::ids::PartitionId(slice.0 / self.slices_per_partition())
    }

    /// Partition that owns a memory channel (identity in the baseline).
    pub fn partition_of_channel(&self, ch: crate::ids::ChannelId) -> crate::ids::PartitionId {
        crate::ids::PartitionId(ch.0)
    }

    /// Module that owns a partition in an MCM package.
    pub fn module_of_partition(&self, part: crate::ids::PartitionId) -> crate::ids::ModuleId {
        let per_module = self.num_partitions().div_ceil(self.mcm.num_modules);
        crate::ids::ModuleId(part.0 / per_module)
    }

    /// Module that owns an SM in an MCM package.
    pub fn module_of_sm(&self, sm: crate::ids::SmId) -> crate::ids::ModuleId {
        self.module_of_partition(self.partition_of_sm(sm))
    }

    /// Check structural invariants; returns a description of the first
    /// violation found.
    ///
    /// # Errors
    /// Returns [`ConfigError`] if counts are zero, ratios do not divide
    /// evenly, sizes are not powers of two where required, or the LAB
    /// threshold is outside `(0, 1]`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let err = |m: &str| Err(ConfigError(m.to_string()));
        if self.num_sms == 0 || self.num_llc_slices == 0 || self.num_channels == 0 {
            return err("resource counts must be non-zero");
        }
        if !self.num_sms.is_multiple_of(self.num_channels) {
            return err("num_sms must be a multiple of num_channels");
        }
        if !self.num_llc_slices.is_multiple_of(self.num_channels) {
            return err("num_llc_slices must be a multiple of num_channels");
        }
        if !self.page_bytes.is_power_of_two() {
            return err("page_bytes must be a power of two");
        }
        if self.page_bytes < crate::addr::LINE_BYTES {
            return err("page_bytes must be at least one cache line");
        }
        if !self.num_channels.is_power_of_two() {
            return err("num_channels must be a power of two (address-map channel bits)");
        }
        if self.llc_ways == 0 || self.llc_mshrs == 0 {
            return err("llc_ways and llc_mshrs must be non-zero");
        }
        // Checked, so an absurd associativity is an error, not an
        // overflow; every set-size computation below it is then safe.
        let set_bytes = |ways: usize| ways.checked_mul(crate::addr::LINE_BYTES as usize);
        if set_bytes(self.llc_ways).is_none_or(|b| self.llc_slice_bytes() < b) {
            return err("llc slice too small for its associativity");
        }
        if self.warps_per_sm == 0 || self.sim_active_warps == 0 || self.threads_per_warp == 0 {
            return err("warp counts must be non-zero");
        }
        // sim_active_warps above warps_per_sm is tolerated: every
        // consumer clamps it (`active_warps`).
        if self.sm_max_outstanding == 0 {
            return err("sm_max_outstanding must be non-zero (the SM could never issue)");
        }
        if self.l1_ways == 0 || self.l1_mshrs == 0 {
            return err("l1_ways and l1_mshrs must be non-zero");
        }
        if set_bytes(self.l1_ways).is_none_or(|b| self.l1_bytes < b) {
            return err("l1_bytes must hold at least one set");
        }
        if !self
            .l1_bytes
            .is_multiple_of(self.l1_ways * crate::addr::LINE_BYTES as usize)
        {
            return err("l1_bytes must be a whole number of sets (ways x line size)");
        }
        if self.llc_bytes_per_cycle == 0 {
            return err("llc_bytes_per_cycle must be non-zero (the data array could never stream)");
        }
        if self.l1_tlb_entries == 0 || self.l2_tlb_entries == 0 || self.l2_tlb_ways == 0 {
            return err("TLB geometries must be non-zero");
        }
        if self.page_walkers == 0 {
            return err("page_walkers must be non-zero (walks could never start)");
        }
        if self.noc_total_bytes_per_cycle.is_nan() || self.noc_total_bytes_per_cycle <= 0.0 {
            return err("noc_total_bytes_per_cycle must be positive");
        }
        if self.noc_subxbars == 0 {
            return err("noc_subxbars must be non-zero");
        }
        if self.arch.is_nuba() && self.local_link_bytes_per_cycle == 0 {
            return err("local_link_bytes_per_cycle must be non-zero on NUBA");
        }
        if self.dram_clock_divider == 0 {
            return err("dram_clock_divider must be non-zero");
        }
        if self.banks_per_channel == 0 || self.mc_queue_entries == 0 {
            return err("banks_per_channel and mc_queue_entries must be non-zero");
        }
        if self.dram_burst_bytes == 0 || self.dram_row_bytes == 0 {
            return err("DRAM burst and row sizes must be non-zero");
        }
        if self.watchdog_cycles == Some(0) {
            return err("watchdog_cycles must be non-zero (use None to disable)");
        }
        if self.telemetry.window_cycles == Some(0) {
            return err("telemetry window_cycles must be non-zero (use None to disable)");
        }
        if self.telemetry.window_cycles.is_some() && self.telemetry.ring_windows == 0 {
            return err("telemetry ring_windows must be non-zero when windowing is enabled");
        }
        if self.telemetry.trace_sample_period > 0 && self.telemetry.trace_capacity == 0 {
            return err("telemetry trace_capacity must be non-zero when tracing is enabled");
        }
        if self.telemetry.window_latency && self.telemetry.window_cycles.is_none() {
            return err("telemetry window_latency requires window_cycles");
        }
        if let PagePolicyKind::Lab { threshold } = self.page_policy {
            if !(threshold > 0.0 && threshold <= 1.0) {
                return err("LAB threshold must be in (0, 1]");
            }
        }
        if self.arch.is_mcm() {
            if self.mcm.num_modules == 0 {
                return err("MCM package needs at least one module");
            }
            if !self.num_partitions().is_multiple_of(self.mcm.num_modules) {
                return err("partitions must divide evenly across MCM modules");
            }
        }
        if self.mdr_sample_sets == 0 || self.mdr_sample_sets > self.llc_slice_sets() {
            return err("mdr_sample_sets must be in 1..=llc_slice_sets");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ChannelId, PartitionId, SliceId, SmId};

    #[test]
    fn baseline_matches_table1() {
        let cfg = GpuConfig::paper_baseline(ArchKind::Nuba);
        cfg.validate().unwrap();
        assert_eq!(cfg.num_sms, 64);
        assert_eq!(cfg.num_llc_slices, 64);
        assert_eq!(cfg.num_channels, 32);
        assert_eq!(cfg.num_partitions(), 32);
        assert_eq!(cfg.sms_per_partition(), 2);
        assert_eq!(cfg.slices_per_partition(), 2);
        assert_eq!(cfg.llc_slice_bytes(), 96 * 1024);
        assert_eq!(cfg.llc_slice_sets(), 48);
        assert_eq!(cfg.l1_bytes / (cfg.l1_ways * 128), 64); // 64 sets
    }

    #[test]
    fn noc_bandwidth_conversion() {
        let cfg = GpuConfig::paper_baseline(ArchKind::MemSideUba).with_noc_tbs(1.4);
        assert!((cfg.noc_total_bytes_per_cycle - 1000.0).abs() < 1.0);
        assert!((cfg.noc_tbs() - 1.4).abs() < 1e-9);
        // Per-port: 1.4 TB/s over 64 endpoints ≈ 15.6 B/cycle.
        assert!((cfg.noc_port_bytes_per_cycle() - 15.625).abs() < 0.1);
    }

    #[test]
    fn partition_topology() {
        let cfg = GpuConfig::paper_baseline(ArchKind::Nuba);
        assert_eq!(cfg.partition_of_sm(SmId(0)), PartitionId(0));
        assert_eq!(cfg.partition_of_sm(SmId(1)), PartitionId(0));
        assert_eq!(cfg.partition_of_sm(SmId(2)), PartitionId(1));
        assert_eq!(cfg.partition_of_sm(SmId(63)), PartitionId(31));
        assert_eq!(cfg.partition_of_slice(SliceId(63)), PartitionId(31));
        assert_eq!(cfg.partition_of_channel(ChannelId(5)), PartitionId(5));
    }

    #[test]
    fn scaling_preserves_ratio() {
        let cfg = GpuConfig::paper_baseline(ArchKind::Nuba).scaled(2.0);
        cfg.validate().unwrap();
        assert_eq!(cfg.num_sms, 128);
        assert_eq!(cfg.num_channels, 64);
        assert_eq!(cfg.sms_per_partition(), 2);
        // Per-slice capacity constant => total capacity doubles.
        assert_eq!(cfg.llc_total_bytes, 12 * 1024 * 1024);

        let half = GpuConfig::paper_baseline(ArchKind::Nuba).scaled(0.5);
        half.validate().unwrap();
        assert_eq!(half.num_sms, 32);
        assert_eq!(half.num_partitions(), 16);
    }

    #[test]
    fn mcm_config() {
        let cfg = GpuConfig::paper_mcm(ArchKind::McmNuba);
        cfg.validate().unwrap();
        assert_eq!(cfg.num_sms, 128);
        assert_eq!(cfg.num_partitions(), 64);
        assert_eq!(cfg.module_of_sm(SmId(0)).0, 0);
        assert_eq!(cfg.module_of_sm(SmId(127)).0, 3);
    }

    #[test]
    #[should_panic(expected = "MCM architecture")]
    fn paper_mcm_rejects_monolithic() {
        let _ = GpuConfig::paper_mcm(ArchKind::Nuba);
    }

    #[test]
    fn validation_catches_bad_ratios() {
        let mut cfg = GpuConfig::paper_baseline(ArchKind::Nuba);
        cfg.num_sms = 63;
        assert!(cfg.validate().is_err());

        let mut cfg = GpuConfig::paper_baseline(ArchKind::Nuba);
        cfg.page_bytes = 3000;
        assert!(cfg.validate().is_err());

        let mut cfg = GpuConfig::paper_baseline(ArchKind::Nuba);
        cfg.page_policy = PagePolicyKind::Lab { threshold: 1.5 };
        assert!(cfg.validate().is_err());

        let mut cfg = GpuConfig::paper_baseline(ArchKind::Nuba);
        cfg.mdr_sample_sets = 1000;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_catches_zero_depths() {
        // Each of these used to panic deep inside a component
        // constructor; validate() must reject them up front instead.
        let break_one = |f: fn(&mut GpuConfig)| {
            let mut cfg = GpuConfig::paper_baseline(ArchKind::Nuba);
            f(&mut cfg);
            cfg.validate()
        };
        assert!(break_one(|c| c.sm_max_outstanding = 0).is_err());
        assert!(break_one(|c| c.l1_mshrs = 0).is_err());
        assert!(break_one(|c| c.llc_mshrs = 0).is_err());
        assert!(break_one(|c| c.mc_queue_entries = 0).is_err());
        assert!(break_one(|c| c.banks_per_channel = 0).is_err());
        assert!(break_one(|c| c.dram_burst_bytes = 0).is_err());
        assert!(break_one(|c| c.dram_clock_divider = 0).is_err());
        assert!(break_one(|c| c.page_walkers = 0).is_err());
        assert!(break_one(|c| c.llc_bytes_per_cycle = 0).is_err());
        assert!(break_one(|c| c.local_link_bytes_per_cycle = 0).is_err());
        assert!(break_one(|c| c.sim_active_warps = 0).is_err());
        assert!(break_one(|c| c.noc_total_bytes_per_cycle = -1.0).is_err());
        assert!(break_one(|c| c.noc_total_bytes_per_cycle = f64::NAN).is_err());
        assert!(break_one(|c| c.l1_bytes = 1000).is_err());
        assert!(break_one(|c| c.watchdog_cycles = Some(0)).is_err());
        // Disabling the watchdog entirely is legal.
        assert!(break_one(|c| c.watchdog_cycles = None).is_ok());
        assert!(break_one(|c| c.telemetry.window_cycles = Some(0)).is_err());
        assert!(break_one(|c| {
            c.telemetry.window_cycles = Some(1024);
            c.telemetry.ring_windows = 0;
        })
        .is_err());
        assert!(break_one(|c| {
            c.telemetry.trace_sample_period = 64;
            c.telemetry.trace_capacity = 0;
        })
        .is_err());
        // Telemetry enabled with sane knobs is legal.
        assert!(break_one(|c| {
            c.telemetry.window_cycles = Some(512);
            c.telemetry.trace_sample_period = 64;
        })
        .is_ok());
        // Per-window latency percentiles need windowing on.
        assert!(break_one(|c| c.telemetry.window_latency = true).is_err());
        assert!(break_one(|c| {
            c.telemetry.window_cycles = Some(512);
            c.telemetry.window_latency = true;
        })
        .is_ok());
        // UBA machines have no local links; zero is fine there.
        let mut cfg = GpuConfig::paper_baseline(ArchKind::MemSideUba);
        cfg.local_link_bytes_per_cycle = 0;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn arch_kind_labels() {
        assert_eq!(ArchKind::Nuba.to_string(), "NUBA");
        assert!(ArchKind::McmNuba.is_nuba() && ArchKind::McmNuba.is_mcm());
        assert!(!ArchKind::MemSideUba.is_nuba());
        assert_eq!(PagePolicyKind::lab_default().label(), "LAB");
        assert_eq!(ReplicationKind::Mdr.label(), "MDR");
    }

    #[test]
    fn config_error_display() {
        let e = ConfigError("boom".into());
        assert_eq!(e.to_string(), "invalid gpu configuration: boom");
    }

    #[test]
    fn builders_match_field_mutation() {
        let built = GpuConfig::paper_baseline(ArchKind::Nuba)
            .with_replication(ReplicationKind::None)
            .with_policy(PagePolicyKind::RoundRobin)
            .with_seed(7)
            .with_page_bytes(2 << 20)
            .with_mapping(MappingKind::Pae)
            .with_kernel_boundaries(Some(10_000))
            .with_dram_refresh(true)
            .with_mdr_epoch(5_000);
        let mut mutated = GpuConfig::paper_baseline(ArchKind::Nuba);
        mutated.replication = ReplicationKind::None;
        mutated.page_policy = PagePolicyKind::RoundRobin;
        mutated.seed = 7;
        mutated.page_bytes = 2 << 20;
        mutated.mapping = MappingKind::Pae;
        mutated.kernel_boundary_cycles = Some(10_000);
        mutated.dram_refresh = true;
        mutated.mdr_epoch_cycles = 5_000;
        assert_eq!(built, mutated);
    }

    #[test]
    fn state_hash_distinguishes_configs() {
        let a = GpuConfig::paper_baseline(ArchKind::Nuba);
        let b = a.clone();
        assert_eq!(a.state_hash(), b.state_hash());
        assert_ne!(a.state_hash(), b.clone().with_seed(a.seed + 1).state_hash());
        assert_ne!(
            a.state_hash(),
            b.clone()
                .with_replication(ReplicationKind::Full)
                .state_hash()
        );
        assert_ne!(
            a.state_hash(),
            GpuConfig::paper_baseline(ArchKind::MemSideUba).state_hash()
        );
        assert_ne!(
            a.state_hash(),
            b.with_policy(PagePolicyKind::Lab { threshold: 0.8 })
                .state_hash()
        );
    }
}
