//! The full-GPU simulator: SMs, MMU, driver, LLC slices, NoC(s), local
//! links and memory controllers assembled per architecture (paper
//! Figs. 1, 4, 5, 15), stepped cycle by cycle.

use nuba_cache::CacheGeometry;
use nuba_dram::{DramRequest, HbmTiming, MemoryController};
use nuba_driver::{GpuDriver, MigrationConfig, PageAccessTracker};
use nuba_engine::{BandwidthLink, Fault, FaultPlan, FaultSchedule, LinkSite};
use nuba_noc::{CrossbarNoc, NocPowerModel};
use nuba_tlb::{TlbParams, TranslationEngine, TranslationOutcome};
use nuba_types::addr::PageNum;
use nuba_types::mapping::AddressMapping;
use nuba_types::{
    AccessKind, ArchKind, GpuConfig, IntMap, LineAddr, MemReply, MemRequest, PagePolicyKind,
    ReplicationKind, ReqId, SliceId, SmId, Wire,
};
use nuba_workloads::Workload;

use crate::arch::Topology;
use crate::energy::{energy_report, EnergyCounters, EnergyParams};
use crate::error::{DeadlockReport, SimError};
use crate::llc::{LlcSlice, MemTask, Role, SliceParams};
use crate::mdr::paper_slice_bandwidths;
use crate::metrics::{noc_serialization_cycles, SimReport};
use crate::sm::{Sm, SmParams, StallReason};
use crate::telemetry::{Telemetry, WindowCounter, NUM_WINDOW_COUNTERS};

/// A packet crossing an MCM inter-module gateway.
#[derive(Debug, Clone, Copy)]
struct GwPkt<T> {
    src: usize,
    dest: usize,
    item: T,
}

impl<T: Wire> Wire for GwPkt<T> {
    fn wire_bytes(&self) -> u64 {
        self.item.wire_bytes()
    }
}

/// SM-side UBA cross-half memory traffic.
#[derive(Debug, Clone, Copy)]
enum HalfPkt {
    Task(SliceId, MemTask),
    Fill(SliceId, LineAddr),
}

impl Wire for HalfPkt {
    fn wire_bytes(&self) -> u64 {
        match self {
            HalfPkt::Task(_, MemTask::Fetch(_)) => 8,
            HalfPkt::Task(_, MemTask::Writeback(_)) => 136,
            HalfPkt::Fill(_, _) => 136,
        }
    }
}

struct McState {
    mc: MemoryController,
    pending_fills: IntMap<u64, (SliceId, LineAddr)>,
    next_id: u64,
}

/// The assembled GPU.
pub struct GpuSimulator {
    cfg: GpuConfig,
    topo: Topology,
    mapping: AddressMapping,
    driver: GpuDriver,
    mmu: TranslationEngine,
    sms: Vec<Sm>,
    slices: Vec<LlcSlice>,
    mcs: Vec<McState>,
    // NUBA point-to-point links (None for UBA).
    local_req: Option<Vec<BandwidthLink<MemRequest>>>,
    local_reply: Option<Vec<BandwidthLink<MemReply>>>,
    /// Per-slice hold for NoC replies waiting on a busy local link.
    inbound_reply_hold: Vec<std::collections::VecDeque<MemReply>>,
    req_noc: CrossbarNoc<MemRequest>,
    reply_noc: CrossbarNoc<MemReply>,
    // SM-side UBA cross-half memory path (to-half-0, to-half-1).
    half_links: Option<[BandwidthLink<HalfPkt>; 2]>,
    half_hold: Vec<HalfPkt>,
    // MCM gateways, one per module and direction.
    gw_req: Vec<BandwidthLink<GwPkt<MemRequest>>>,
    gw_reply: Vec<BandwidthLink<GwPkt<MemReply>>>,
    gw_req_hold: Vec<std::collections::VecDeque<GwPkt<MemRequest>>>,
    gw_reply_hold: Vec<std::collections::VecDeque<GwPkt<MemReply>>>,
    // Alternative page policies (§7.6).
    tracker: Option<PageAccessTracker>,
    // Fault injection: compiled schedule drained at the top of step().
    faults: Option<FaultSchedule>,
    // Cycles actually executed by `step()` as opposed to skipped
    // (bookkeeping, not saved state and not part of any report
    // equality).
    detail_steps: u64,
    // Forward-progress watchdog (None disables it).
    watchdog_budget: Option<u64>,
    last_progress_cycle: u64,
    last_progress_signal: u64,
    cycle: u64,
    next_req_id: u64,
    dram_accesses: u64,
    migration_bytes: u64,
    // Windowed sampler + lifecycle tracer (inert unless configured).
    telemetry: Telemetry,
    noc_power: NocPowerModel,
    energy_params: EnergyParams,
    // Scratch buffers (reused across cycles so the steady-state step
    // path performs no heap allocation).
    tl_done: Vec<nuba_tlb::CompletedTranslation>,
    req_scratch: Vec<MemRequest>,
    reply_scratch: Vec<MemReply>,
    mc_done: Vec<(u64, bool)>,
    gw_req_out: Vec<GwPkt<MemRequest>>,
    gw_reply_out: Vec<GwPkt<MemReply>>,
    half_out: Vec<HalfPkt>,
}

impl GpuSimulator {
    /// Assemble a GPU for `cfg` running `workload`. Configuration
    /// problems come back as [`SimError::InvalidConfig`] instead of a
    /// panic, so sweep runners can quarantine a bad matrix point.
    /// [`SimSession`](crate::SimSession) is the documented entry point;
    /// this is the constructor underneath it.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`] when
    /// [`GpuConfig::validate`] rejects the configuration.
    ///
    /// # Panics
    /// Still panics when the workload is inconsistent with the
    /// configuration (wrong SM count or page size) — that is a caller
    /// bug, not a property of the configuration under test.
    pub fn try_new(cfg: GpuConfig, workload: &Workload) -> Result<GpuSimulator, SimError> {
        cfg.validate()?;
        assert_eq!(
            workload.num_sms(),
            cfg.num_sms,
            "workload built for wrong SM count"
        );
        assert_eq!(
            workload.layout().page_bytes,
            cfg.page_bytes,
            "workload page size must match the configuration"
        );

        let topo = Topology::new(&cfg);
        let mapping = AddressMapping::new(&cfg);
        let driver = GpuDriver::new(cfg.page_policy, cfg.num_channels);
        let mmu = TranslationEngine::new(
            TlbParams {
                l1_entries: cfg.l1_tlb_entries,
                l1_ways: 8,
                l2_entries: cfg.l2_tlb_entries,
                l2_ways: cfg.l2_tlb_ways,
                l2_latency: cfg.l2_tlb_latency,
                l2_ports: 2,
                walkers: cfg.page_walkers,
                walk_latency: cfg.walk_latency,
                fault_latency: cfg.page_fault_latency,
            },
            cfg.num_sms,
        );

        let active_warps = cfg.active_warps();
        let sm_params = SmParams {
            warps: active_warps,
            warp_mlp: 8,
            max_outstanding: cfg.sm_max_outstanding,
            l1_geometry: CacheGeometry::from_capacity(cfg.l1_bytes, cfg.l1_ways),
            l1_mshrs: cfg.l1_mshrs,
            issue_width: 2,
        };
        let sms: Vec<Sm> = (0..cfg.num_sms)
            .map(|i| {
                let streams = (0..active_warps)
                    .map(|w| workload.stream(SmId(i), nuba_types::WarpId(w)))
                    .collect();
                Sm::new(SmId(i), sm_params, streams)
            })
            .collect();

        let slice_geo = CacheGeometry::new(cfg.llc_slice_sets(), cfg.llc_ways);
        let slice_params = SliceParams {
            geometry: slice_geo,
            mshrs: cfg.llc_mshrs,
            latency: cfg.llc_latency,
            out_bytes_per_cycle: cfg.llc_bytes_per_cycle,
            queue_capacity: 16,
            sample_sets: cfg.mdr_sample_sets,
        };
        let mdr_bw = paper_slice_bandwidths(cfg.noc_port_bytes_per_cycle());
        let slices: Vec<LlcSlice> = (0..cfg.num_llc_slices)
            .map(|i| {
                let s = SliceId(i);
                let mdr = if cfg.arch.is_nuba() && cfg.replication == ReplicationKind::Mdr {
                    Some((mdr_bw, cfg.mdr_epoch_cycles, cfg.mdr_eval_cycles))
                } else {
                    None
                };
                let full = cfg.arch.is_nuba() && cfg.replication == ReplicationKind::Full;
                LlcSlice::new(s, topo.partition_of_slice(s), slice_params, mdr, full)
            })
            .collect();

        let mem_burst_cycles = 128 / cfg.dram_burst_bytes.max(1);
        let hbm = if cfg.dram_refresh {
            HbmTiming::with_refresh()
        } else {
            HbmTiming::paper()
        };
        let mcs: Vec<McState> = (0..cfg.num_channels)
            .map(|_| McState {
                mc: MemoryController::new(
                    hbm,
                    cfg.banks_per_channel,
                    cfg.mc_queue_entries,
                    mem_burst_cycles.max(1),
                ),
                pending_fills: IntMap::default(),
                next_id: 0,
            })
            .collect();

        let is_nuba = cfg.arch.is_nuba();
        let (req_in, req_out, rep_in, rep_out) = if is_nuba {
            (
                cfg.num_llc_slices,
                cfg.num_llc_slices,
                cfg.num_llc_slices,
                cfg.num_llc_slices,
            )
        } else {
            (
                cfg.num_sms,
                cfg.num_llc_slices,
                cfg.num_llc_slices,
                cfg.num_sms,
            )
        };
        let port_bw = cfg.noc_port_bytes_per_cycle();
        let req_noc = CrossbarNoc::new(req_in, req_out, port_bw, cfg.noc_stage_latency, 8);
        let reply_noc = CrossbarNoc::new(rep_in, rep_out, port_bw, cfg.noc_stage_latency, 8);

        let (local_req, local_reply) = if is_nuba {
            let lb = cfg.local_link_bytes_per_cycle as f64;
            (
                Some(
                    (0..cfg.num_sms)
                        .map(|_| BandwidthLink::new(lb, 2, 8))
                        .collect(),
                ),
                Some(
                    (0..cfg.num_sms)
                        .map(|_| BandwidthLink::new(lb, 2, 8))
                        .collect(),
                ),
            )
        } else {
            (None, None)
        };

        let half_links = if cfg.arch == ArchKind::SmSideUba {
            // The A100-style halves share a wide internal fabric: give
            // the cross-half memory path memory-class bandwidth and a
            // short hop so SM-side UBA tracks the memory-side baseline
            // (the paper reports them within ~1%).
            Some([
                BandwidthLink::new(1024.0, 10, 64),
                BandwidthLink::new(1024.0, 10, 64),
            ])
        } else {
            None
        };

        // `Topology::local_slice` and `crosses_half` each answer for
        // one architecture, and only the stages these links switch on
        // call them: the pairing is a fact about this machine, checked
        // here once rather than on every request routed. Plain asserts,
        // not registry sites — `restore` constructs again, and a counted
        // site here would read one higher after every resume.
        assert_eq!(
            local_req.is_some(),
            topo.arch().is_nuba(),
            "local links exist exactly on NUBA topologies"
        );
        assert_eq!(
            half_links.is_some(),
            topo.arch() == ArchKind::SmSideUba,
            "cross-half links exist exactly on SM-side UBA topologies"
        );

        let modules = topo.num_modules();
        let gw_bw = cfg.mcm.inter_module_bytes_per_cycle;
        let (gw_req, gw_reply) = if modules > 1 {
            (
                (0..modules)
                    .map(|_| BandwidthLink::new(gw_bw, 32, 32))
                    .collect(),
                (0..modules)
                    .map(|_| BandwidthLink::new(gw_bw, 32, 32))
                    .collect(),
            )
        } else {
            (Vec::new(), Vec::new())
        };

        let tracker = match cfg.page_policy {
            PagePolicyKind::Migration | PagePolicyKind::PageReplication => {
                Some(PageAccessTracker::new(MigrationConfig::default()))
            }
            _ => None,
        };

        let noc_power = NocPowerModel::from_aggregate(
            cfg.noc_power,
            cfg.num_llc_slices,
            cfg.noc_total_bytes_per_cycle,
            2,
            1.4e9,
        );

        Ok(GpuSimulator {
            topo,
            mapping,
            driver,
            mmu,
            sms,
            // Holds at most one back-pressured reply per drain attempt;
            // pre-sized so the push never allocates mid-simulation.
            inbound_reply_hold: (0..cfg.num_llc_slices)
                .map(|_| std::collections::VecDeque::with_capacity(8))
                .collect(),
            slices,
            mcs,
            local_req,
            local_reply,
            req_noc,
            reply_noc,
            half_links,
            half_hold: Vec::new(),
            gw_req,
            gw_reply,
            gw_req_hold: (0..modules)
                .map(|_| std::collections::VecDeque::new())
                .collect(),
            gw_reply_hold: (0..modules)
                .map(|_| std::collections::VecDeque::new())
                .collect(),
            tracker,
            faults: None,
            detail_steps: 0,
            watchdog_budget: cfg.watchdog_cycles,
            last_progress_cycle: 0,
            last_progress_signal: 0,
            cycle: 0,
            next_req_id: 0,
            dram_accesses: 0,
            migration_bytes: 0,
            telemetry: Telemetry::new(&cfg.telemetry),
            noc_power,
            energy_params: EnergyParams::default(),
            tl_done: Vec::new(),
            req_scratch: Vec::new(),
            reply_scratch: Vec::new(),
            mc_done: Vec::new(),
            gw_req_out: Vec::new(),
            gw_reply_out: Vec::new(),
            half_out: Vec::new(),
            cfg,
        })
    }

    /// The simulated configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The GPU driver (page table, placement statistics).
    pub fn driver(&self) -> &GpuDriver {
        &self.driver
    }

    /// Current simulated cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Install a fault plan: its events fire at their scheduled cycles
    /// (absolute simulation cycles) as the run proceeds. Replaces any
    /// previously installed plan; edges already in the past fire on the
    /// next step. Compilation allocates here, once — draining the
    /// schedule during stepping does not.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.faults = if plan.is_empty() {
            None
        } else {
            Some(plan.compile())
        };
    }

    /// Override the watchdog budget from
    /// [`GpuConfig::watchdog_cycles`]: the run aborts with
    /// [`SimError::NoForwardProgress`] if no request retires for
    /// `budget` consecutive cycles while work is outstanding. `None`
    /// disables the watchdog.
    pub fn set_watchdog(&mut self, budget: Option<u64>) {
        self.watchdog_budget = budget;
    }

    /// Cycles actually executed by [`step`](Self::step) so far. With
    /// time skipping this is below the clock: skipped spans are exact,
    /// not approximated, so the gap measures how much of the window the
    /// skip engine jumped, not a loss of fidelity. Not saved state and
    /// not part of any report equality.
    pub fn detail_steps(&self) -> u64 {
        self.detail_steps
    }

    /// Run for `cycles` cycles and report.
    ///
    /// Jumps over provably-idle spans instead of stepping them; the
    /// result is byte-identical to calling [`step`](Self::step)
    /// `cycles` times.
    ///
    /// # Errors
    /// Returns [`SimError::NoForwardProgress`] if the watchdog fires —
    /// no request retired for the configured budget while requests or
    /// translations were still in flight. The simulator is left at the
    /// firing cycle, so `debug_state` and the queues can be inspected.
    pub fn run(&mut self, cycles: u64) -> Result<SimReport, SimError> {
        self.advance(cycles)?;
        Ok(self.report())
    }

    /// The time-skipping run loop: step through busy cycles, jump over
    /// idle spans. A cycle is *busy* when any component reports an
    /// event due now ([`next_component_event`](Self::next_component_event)),
    /// a fault edge is due, or a kernel-boundary flush lands on it;
    /// otherwise every tick in the span up to the earliest future
    /// obligation is a byte-exact no-op (the [`nuba_engine::NextEvent`]
    /// contract), so the clock can move there directly. Virtual-time
    /// side effects that per-cycle stepping would have produced inside
    /// the span — telemetry window flushes, watchdog checks, round-robin
    /// pointer rotation, warp-scan bookkeeping — are replayed exactly
    /// before or at the landing cycle.
    fn advance(&mut self, cycles: u64) -> Result<(), SimError> {
        // Poll backoff: on a busy machine the jump-decision scan below
        // costs a few percent per cycle and never finds a jump. After a
        // busy cycle, step without polling for a geometrically growing
        // streak (capped); a successful jump resets it. Stepping is
        // always exact, so this trades at most `POLL_CAP` late cycles
        // per idle-span entry — noise against multi-hundred-cycle
        // memory round-trips — for near-zero overhead while busy.
        const POLL_CAP: u64 = 32;
        let mut poll_in: u64 = 0;
        let mut streak: u64 = 1;
        let end = self.cycle + cycles;
        while self.cycle < end {
            if poll_in > 0 {
                poll_in -= 1;
                self.step()?;
                continue;
            }
            let now = self.cycle;
            let component = self.next_component_event(now);
            let fault_edge = self.faults.as_ref().and_then(|s| s.next_edge_cycle());
            let kernel_flush_due = self
                .cfg
                .kernel_boundary_cycles
                .is_some_and(|k| now > 0 && now.is_multiple_of(k));
            if component == Some(now) || fault_edge.is_some_and(|t| t <= now) || kernel_flush_due {
                self.step()?;
                poll_in = streak;
                streak = (streak * 2).min(POLL_CAP);
                continue;
            }
            streak = 1;

            // Idle at `now`: jump to the earliest future obligation.
            let mut target = end;
            if let Some(e) = component {
                target = target.min(e);
            }
            if let Some(t) = fault_edge {
                target = target.min(t);
            }
            if let Some(k) = self.cfg.kernel_boundary_cycles {
                target = target.min((now / k + 1) * k);
            }
            let mut stalled = false;
            if let Some(budget) = self.watchdog_budget {
                // Reproduce the per-cycle watchdog across the jump. The
                // stepped loop checks after every step; nothing retires
                // during a skipped span, so those checks are pure —
                // except the first one, which would latch a signal
                // change from the step we are not taking (at cycle
                // now + 1), and the firing one at `lpc + budget`.
                let signal = self.progress_signal();
                if signal != self.last_progress_signal {
                    self.last_progress_signal = signal;
                    self.last_progress_cycle = now + 1;
                }
                let (_, _, outstanding) = self.request_balance();
                stalled = outstanding > 0 || self.mmu.outstanding() > 0;
                if stalled {
                    // Stalled, not idle: cap the jump where the stepped
                    // loop would have fired, and raise the identical
                    // report there. (Truly idle spans re-arm the
                    // watchdog every check, which collapses to one
                    // re-arm at the landing cycle.)
                    target = target.min(self.last_progress_cycle + budget);
                }
            }
            if target <= now {
                // Degenerate (e.g. the watchdog budget is already
                // exhausted when skipping starts): take a real step so
                // errors fire exactly as under stepping.
                self.step()?;
                continue;
            }

            // Flush every telemetry window boundary the jump crosses,
            // ascending — the stepped loop flushes the window ending at
            // `c + 1` after cycle `c`, i.e. boundaries in (now, target].
            if let Some(w) = self.telemetry.window_stride() {
                let mut b = (now / w + 1) * w;
                while b <= target {
                    self.flush_telemetry_window(b);
                    b += w;
                }
            }

            // Catch up per-cycle bookkeeping that advances even on idle
            // cycles, then move the clock.
            let delta = target - now;
            self.req_noc.skip_idle(delta);
            self.reply_noc.skip_idle(delta);
            for sm in &mut self.sms {
                sm.skip_idle();
            }
            self.cycle = target;
            // The watchdog checks the stepped loop would have run over
            // the span, collapsed (nothing retires mid-jump, so the
            // signal and outstanding counts computed above still hold
            // at `target`).
            match self.watchdog_budget {
                Some(budget) if stalled && target - self.last_progress_cycle >= budget => {
                    return Err(SimError::NoForwardProgress(Box::new(
                        self.deadlock_report(budget),
                    )));
                }
                Some(_) if !stalled => self.last_progress_cycle = target,
                _ => {}
            }
        }
        Ok(())
    }

    /// Earliest cycle ≥ `now` at which any component needs a real tick
    /// (the [`nuba_engine::NextEvent`] contract aggregated over the
    /// whole machine). `None` means every queue, pipe, link, walker and
    /// bank is drained.
    fn next_component_event(&self, now: u64) -> Option<u64> {
        use nuba_engine::{earliest, NextEvent};
        // Held packets are retried every cycle until they drain.
        if !self.half_hold.is_empty()
            || self.inbound_reply_hold.iter().any(|q| !q.is_empty())
            || self.gw_req_hold.iter().any(|q| !q.is_empty())
            || self.gw_reply_hold.iter().any(|q| !q.is_empty())
        {
            return Some(now);
        }
        let mut next = self.mmu.next_event_cycle(now);
        if next == Some(now) {
            return next;
        }
        for sm in &self.sms {
            next = earliest(next, sm.next_event_cycle(now));
            if next == Some(now) {
                return next;
            }
        }
        for s in &self.slices {
            next = earliest(next, s.next_event_cycle(now));
            if next == Some(now) {
                return next;
            }
        }
        next = earliest(next, self.req_noc.next_event_cycle(now));
        if next == Some(now) {
            return next;
        }
        next = earliest(next, self.reply_noc.next_event_cycle(now));
        if next == Some(now) {
            return next;
        }
        if let Some(links) = &self.local_req {
            for l in links {
                next = earliest(next, l.next_event_cycle(now));
            }
        }
        if let Some(links) = &self.local_reply {
            for l in links {
                next = earliest(next, l.next_event_cycle(now));
            }
        }
        if let Some(links) = &self.half_links {
            for l in links {
                next = earliest(next, l.next_event_cycle(now));
            }
        }
        for l in self.gw_req.iter() {
            next = earliest(next, l.next_event_cycle(now));
        }
        for l in self.gw_reply.iter() {
            next = earliest(next, l.next_event_cycle(now));
        }
        if next == Some(now) {
            return next;
        }
        // Memory controllers run on the divided clock: their events are
        // in memory cycles, and a controller ticks at GPU cycle `c` when
        // `c % divider == 0`. The first eligible memory cycle at or
        // after `now` is `ceil(now / divider)`.
        let div = self.cfg.dram_clock_divider;
        let mem_now = now.div_ceil(div);
        for m in &self.mcs {
            if let Some(e) = m.mc.next_event_cycle(mem_now) {
                next = earliest(next, Some((e * div).max(now)));
                if next == Some(now) {
                    return next;
                }
            }
        }
        next
    }

    /// Retires observed so far: replies delivered to SMs. Deliberately
    /// *excludes* TLB activity — a machine whose memory pipeline is dead
    /// can keep completing page walks forever (warps advance on compute
    /// and L1 hits, touching fresh pages past the L2 TLB's reach), and
    /// that must not mask the deadlock. Translation-only phases with no
    /// memory request in flight are instead exempted by the idle check
    /// in `check_forward_progress`.
    fn progress_signal(&self) -> u64 {
        self.sms
            .iter()
            .map(|s| s.stats.local_replies + s.stats.remote_replies)
            .sum()
    }

    fn check_forward_progress(&mut self) -> Result<(), SimError> {
        let Some(budget) = self.watchdog_budget else {
            return Ok(());
        };
        let signal = self.progress_signal();
        if signal != self.last_progress_signal {
            self.last_progress_signal = signal;
            self.last_progress_cycle = self.cycle;
            return Ok(());
        }
        // Stalled or idle? Only outstanding work makes it a deadlock.
        let (_, _, outstanding) = self.request_balance();
        if outstanding == 0 && self.mmu.outstanding() == 0 {
            self.last_progress_cycle = self.cycle;
            return Ok(());
        }
        if self.cycle - self.last_progress_cycle >= budget {
            return Err(SimError::NoForwardProgress(Box::new(
                self.deadlock_report(budget),
            )));
        }
        Ok(())
    }

    /// Snapshot the stuck machine for [`SimError::NoForwardProgress`].
    /// Only called on the error path, where allocation is fine.
    fn deadlock_report(&self, budget: u64) -> DeadlockReport {
        let (issued, replied, outstanding) = self.request_balance();
        let mut local_link_pending = 0u64;
        if let Some(links) = &self.local_req {
            local_link_pending += links.iter().map(|l| l.pending() as u64).sum::<u64>();
        }
        if let Some(links) = &self.local_reply {
            local_link_pending += links.iter().map(|l| l.pending() as u64).sum::<u64>();
        }
        DeadlockReport {
            cycle: self.cycle,
            budget,
            issued,
            replied,
            outstanding,
            translations_outstanding: self.mmu.outstanding() as u64,
            slice_pending: self
                .slices
                .iter()
                .map(|s| s.pending_work() as u64)
                .sum::<u64>(),
            mshr_residents: self
                .slices
                .iter()
                .map(|s| s.mshr_residents() as u64)
                .sum::<u64>(),
            mc_pending: self.mcs.iter().map(|m| m.mc.pending() as u64).sum::<u64>(),
            noc_req_in_flight: self.req_noc.in_flight() as u64,
            noc_reply_in_flight: self.reply_noc.in_flight() as u64,
            local_link_pending,
            detail: self.debug_state(),
            windows: self.telemetry.windows_vec(),
        }
    }

    /// Functional warm-up: first-touch page faults — and the driver's
    /// placement decisions — happen before the timed window, as they
    /// would have in the paper's billion-instruction runs. Records the
    /// workload's [`first_touches`](crate::session::first_touches) at
    /// `accesses_per_warp` and replays them. No timing state is touched;
    /// only the page table and allocation counters warm up.
    pub fn warm(&mut self, workload: &Workload, accesses_per_warp: usize) {
        let touches = crate::session::first_touches(&self.cfg, workload, accesses_per_warp);
        self.replay_first_touches(&touches);
    }

    /// Fault in every page of a first-touch trace that is not mapped yet,
    /// in trace order, on behalf of the SM that touched it first. This is
    /// where the configuration acts: the page policy picks each channel.
    /// Replaying [`first_touches`](crate::session::first_touches)`(cfg,
    /// wl, n)` is exactly [`warm`](GpuSimulator::warm)`(wl, n)`.
    ///
    /// Every SM in `touches` must be below `num_sms`; the runner checks
    /// traces it reads from disk before replaying them.
    pub fn replay_first_touches(&mut self, touches: &[(PageNum, SmId)]) {
        for &(vpage, sm) in touches {
            if !self.driver.table().is_mapped(vpage) {
                let part = self.topo.partition_of_sm(sm);
                self.driver.handle_fault(vpage, part, sm);
            }
        }
    }

    /// Advance one cycle, then run the forward-progress check. A loop of
    /// `step` calls is the reference [`run`](GpuSimulator::run) must
    /// match byte for byte.
    ///
    /// # Errors
    /// Same as [`run`](GpuSimulator::run).
    pub fn step(&mut self) -> Result<(), SimError> {
        let c = self.cycle;

        // Fire due fault edges before any component ticks, so a fault
        // scheduled for cycle N affects cycle N. Peek before moving the
        // schedule out: the common case (no plan, or next edge in the
        // future) must not pay the take/put-back dance every cycle.
        if self
            .faults
            .as_ref()
            .is_some_and(|s| s.next_edge_cycle().is_some_and(|t| t <= c))
        {
            // The schedule is moved out and back to let the dispatch
            // borrow the components.
            let mut sched = self.faults.take().expect("peeked above");
            while let Some((fault, apply)) = sched.next_edge(c) {
                self.dispatch_fault(fault, apply);
            }
            self.faults = Some(sched);
        }

        // Kernel boundary (paper §5.3): the software coherence protocol
        // invalidates the write-through L1s, and the LLC is flushed
        // because this kernel's read-only data may be read-write in the
        // next one. Dirty lines become write-back traffic — the flush
        // overhead the paper models faithfully.
        if let Some(k) = self.cfg.kernel_boundary_cycles {
            if c > 0 && c.is_multiple_of(k) {
                for sm in &mut self.sms {
                    sm.flush_l1();
                }
                for slice in &mut self.slices {
                    slice.flush();
                }
            }
        }

        self.tick_mmu(c);
        self.issue_sms(c);
        if self.cfg.arch.is_nuba() {
            self.tick_local_request_links(c);
        }
        self.drain_forwards(c);
        self.tick_gateways(c);
        self.req_noc.tick(c);
        self.deliver_noc_requests(c);
        for s in &mut self.slices {
            s.tick(c);
        }
        self.route_slice_replies(c);
        self.reply_noc.tick(c);
        self.deliver_noc_replies(c);
        if self.cfg.arch.is_nuba() {
            self.tick_local_reply_links(c);
        }
        self.tick_memory(c);

        if self.telemetry.tracing() {
            for s in &mut self.slices {
                if let Some((id, at)) = s.take_last_grant() {
                    self.telemetry.note_slice_grant(id, at);
                }
            }
        }
        if self.telemetry.window_due(c + 1) {
            self.flush_telemetry_window(c + 1);
        }

        self.detail_steps += 1;
        self.cycle += 1;
        self.check_forward_progress()
    }

    /// Snapshot the cumulative machine counters and flush-edge gauges,
    /// then hand them to the sampler to diff into a window. Reads and
    /// re-arms component peaks; allocates nothing.
    fn flush_telemetry_window(&mut self, end_cycle: u64) {
        use WindowCounter::*;
        let mut c = [0u64; NUM_WINDOW_COUNTERS];
        let mut add = |pairs: &[(WindowCounter, u64)]| {
            for &(k, v) in pairs {
                c[k as usize] += v;
            }
        };
        for sm in &self.sms {
            let s = &sm.stats;
            add(&[
                (Issued, s.issued_requests),
                (Retired, s.completed_ops),
                (Replies, s.read_replies),
                (L1Accesses, s.l1_accesses),
                (L1Hits, s.l1_hits),
                (StallDownstream, s.stall_downstream),
                (StallMshr, s.stall_mshr),
                (StallOutstanding, s.stall_outstanding),
            ]);
        }
        for s in &self.slices {
            let (lmr, rmr) = s.queue_depths();
            add(&[
                (LlcAccesses, s.stats.accesses),
                (LlcHits, s.stats.hits),
                (LmrQueued, lmr as u64),
                (RmrQueued, rmr as u64),
            ]);
        }
        for m in &self.mcs {
            let st = m.mc.stats();
            add(&[
                (DramRowHits, st.row_hits),
                (DramRowAccesses, st.row_accesses()),
                (DramBusBusy, st.bus_busy_cycles),
            ]);
        }
        add(&[
            (NocBytes, self.req_noc.stats().bytes),
            (NocBytes, self.reply_noc.stats().bytes),
            (TlbWalks, self.mmu.stats().walks),
        ]);
        fn link<T: Wire>(l: &BandwidthLink<T>) -> [(WindowCounter, u64); 3] {
            [
                (LocalLinkBytes, l.bytes_transferred()),
                (LocalLinkBusy, l.busy_cycles()),
                (LocalLinkRejects, l.rejects()),
            ]
        }
        for l in self.local_req.iter().flatten() {
            add(&link(l));
        }
        for l in self.local_reply.iter().flatten() {
            add(&link(l));
        }
        let mut peak = |k: WindowCounter, v: u64| c[k as usize] = c[k as usize].max(v);
        for s in &mut self.slices {
            peak(SliceMshrPeak, s.take_mshr_high_water() as u64);
        }
        for sm in &mut self.sms {
            peak(SmMshrPeak, sm.take_l1_mshr_peak() as u64);
        }
        peak(NocPeakInFlight, self.req_noc.take_peak_in_flight());
        peak(NocPeakInFlight, self.reply_noc.take_peak_in_flight());
        peak(TlbPeakOutstanding, self.mmu.take_peak_outstanding() as u64);
        self.telemetry.flush_window(end_cycle, &c);
    }

    /// The telemetry sampler (windows and lifecycle trace records).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Apply (`apply = true`) or revert (`apply = false`) one fault.
    /// Sites absent on this architecture — local links on UBA, indices
    /// past the scaled-down component counts — are silently ignored so
    /// one plan can be replayed fairly across a comparison sweep.
    fn dispatch_fault(&mut self, fault: Fault, apply: bool) {
        match fault {
            Fault::LinkDerate { site, factor } => {
                let f = if apply { factor } else { 1.0 };
                match site {
                    LinkSite::LocalReq(i) => {
                        if let Some(l) = self.local_req.as_mut().and_then(|ls| ls.get_mut(i)) {
                            l.set_derate(f);
                        }
                    }
                    LinkSite::LocalReply(i) => {
                        if let Some(l) = self.local_reply.as_mut().and_then(|ls| ls.get_mut(i)) {
                            l.set_derate(f);
                        }
                    }
                    LinkSite::NocReqPort(p) => self.req_noc.set_port_derate(p, f),
                    LinkSite::NocReplyPort(p) => self.reply_noc.set_port_derate(p, f),
                }
            }
            Fault::DramStretch {
                channel,
                extra_cycles,
            } => {
                if let Some(m) = self.mcs.get_mut(channel) {
                    m.mc.set_fault_stretch(if apply { extra_cycles } else { 0 });
                }
            }
            Fault::SliceOffline { slice } => {
                if let Some(s) = self.slices.get_mut(slice) {
                    s.set_offline(apply);
                }
            }
            Fault::TlbWalkerStall => self.mmu.set_walker_stall(apply),
        }
    }

    fn tick_mmu(&mut self, c: u64) {
        self.mmu.tick(c, &mut self.tl_done);
        if self.tl_done.is_empty() {
            return;
        }
        // Drain via a temporary move so the buffer keeps its capacity.
        let mut done = std::mem::take(&mut self.tl_done);
        for d in done.drain(..) {
            // A merged walk reports the fault to every waiter; only the
            // first one allocates the page.
            if d.faulted && !self.driver.table().is_mapped(d.vpage) {
                let part = self.topo.partition_of_sm(d.sm);
                self.driver.handle_fault(d.vpage, part, d.sm);
            }
            self.sms[d.sm.0].complete_translation(d.vpage.0);
        }
        self.tl_done = done;
    }

    fn issue_sms(&mut self, c: u64) {
        let page_bytes = self.cfg.page_bytes;
        let n_parts = self.cfg.num_partitions();
        for i in 0..self.sms.len() {
            let sm_id = SmId(i);
            if self.sms[i].asleep(c) {
                // Every warp is blocked past `c`: leave the SM as the
                // fruitless scan would have, without walking its warps.
                self.sms[i].skip_idle();
                continue;
            }
            let part = self.topo.partition_of_sm(sm_id);
            self.sms[i].begin_cycle();
            for _ in 0..4 {
                // Up to issue_width memory commits per cycle; extra poll
                // iterations let L1 hits and stalls make way.
                let Some((warp, access)) = self.sms[i].poll(c) else {
                    break;
                };
                let vpage = access.vaddr.page(page_bytes);
                let table = self.driver.table();
                match self
                    .mmu
                    .request_with(sm_id, vpage, c, || table.is_mapped(vpage))
                {
                    TranslationOutcome::Pending => {
                        self.sms[i].block_translation(warp, vpage.0);
                        continue;
                    }
                    TranslationOutcome::HitL1 => {}
                }
                let t = self
                    .driver
                    .translate(vpage, part)
                    .expect("TLB hit implies a mapped page");
                let paddr =
                    self.mapping
                        .compose(t.channel, t.frame, access.vaddr.page_offset(page_bytes));
                let d = self.mapping.decode(paddr);
                let line = paddr.line();

                let can_down = self.can_send_downstream(sm_id);
                match access.kind {
                    AccessKind::Load | AccessKind::LoadReadOnly => {
                        if !access.bypass_l1 && self.sms[i].l1_load_probe(warp, line, c) {
                            continue;
                        }
                        if self.sms[i].mshr_mergeable(line) {
                            self.sms[i].commit_load_miss(warp, line);
                            continue;
                        }
                        if self.sms[i].mshr_outstanding(line) {
                            // Fill in flight but its merge list is full.
                            self.sms[i].stall(warp, StallReason::Mshr);
                            continue;
                        }
                        if !can_down {
                            self.sms[i].stall(warp, StallReason::Downstream);
                            continue;
                        }
                        if !self.sms[i].can_issue_request() {
                            self.sms[i].stall(warp, StallReason::Outstanding);
                            continue;
                        }
                        if !self.sms[i].mshr_available() {
                            self.sms[i].stall(warp, StallReason::Mshr);
                            continue;
                        }
                        let req = self.make_request(sm_id, warp, access, paddr, c);
                        let primary = self.sms[i].commit_load_miss(warp, line);
                        nuba_types::invariant!("gpu_issued_miss_is_primary", primary);
                        self.send_request(req, &d, c);
                        self.note_access(vpage, sm_id, n_parts);
                    }
                    AccessKind::Store | AccessKind::Atomic => {
                        if !can_down {
                            self.sms[i].stall(warp, StallReason::Downstream);
                            continue;
                        }
                        if !self.sms[i].can_issue_request() {
                            self.sms[i].stall(warp, StallReason::Outstanding);
                            continue;
                        }
                        let req = self.make_request(sm_id, warp, access, paddr, c);
                        self.sms[i].commit_write(warp, access.kind);
                        self.send_request(req, &d, c);
                        self.note_access(vpage, sm_id, n_parts);
                    }
                }
            }
        }
    }

    fn note_access(&mut self, vpage: PageNum, sm: SmId, n_parts: usize) {
        let part = self.topo.partition_of_sm(sm);
        self.driver
            .table_mut()
            .record_access(vpage, sm, part, n_parts);
        if let Some(tracker) = &mut self.tracker {
            if tracker.note_access() {
                let tracker = tracker.clone();
                let events = match self.cfg.page_policy {
                    PagePolicyKind::Migration => tracker.run_migration_pass(&mut self.driver),
                    PagePolicyKind::PageReplication => {
                        tracker.run_replication_pass(&mut self.driver)
                    }
                    _ => Vec::new(),
                };
                // Each moved/copied page crosses the NoC, and its stale
                // translations are shot down page by page (Griffin-style
                // per-page invalidations, not a global flush).
                self.migration_bytes += events.len() as u64 * self.cfg.page_bytes;
                for ev in &events {
                    self.mmu.invalidate(ev.vpage);
                }
            }
        }
    }

    fn make_request(
        &mut self,
        sm: SmId,
        warp: nuba_types::WarpId,
        access: nuba_workloads::Access,
        paddr: nuba_types::PhysAddr,
        c: u64,
    ) -> MemRequest {
        self.next_req_id += 1;
        let req = MemRequest {
            id: ReqId(self.next_req_id),
            sm,
            warp,
            vaddr: access.vaddr,
            paddr,
            kind: access.kind,
            issue_cycle: c,
            wants_replica: false,
            bypass_l1: access.bypass_l1,
        };
        self.telemetry
            .maybe_sample(req.id, sm, warp, req.line(), req.kind, c);
        req
    }

    fn can_send_downstream(&self, sm: SmId) -> bool {
        match &self.local_req {
            Some(links) => links[sm.0].can_send(),
            None => {
                let port_ok = self.req_noc.can_send(sm.0);
                let gw_ok = if self.topo.num_modules() > 1 {
                    self.gw_req[self.topo.module_of_sm(sm).0].can_send()
                } else {
                    true
                };
                port_ok && gw_ok
            }
        }
    }

    fn send_request(&mut self, req: MemRequest, d: &nuba_types::DecodedAddr, c: u64) {
        match &mut self.local_req {
            Some(links) => {
                links[req.sm.0].try_send(req, c).expect("can_send checked");
            }
            None => {
                let dest = self.topo.first_hop_slice(req.sm, d);
                let src_mod = self.topo.module_of_sm(req.sm);
                if self.topo.num_modules() > 1 && self.topo.module_of_slice(dest) != src_mod {
                    self.gw_req[src_mod.0]
                        .try_send(
                            GwPkt {
                                src: req.sm.0,
                                dest: dest.0,
                                item: req,
                            },
                            c,
                        )
                        .expect("gateway capacity checked");
                } else {
                    self.req_noc
                        .try_send(req.sm.0, dest.0, req, c)
                        .expect("noc capacity checked");
                }
            }
        }
    }

    /// NUBA: requests arriving at the partition over the local links are
    /// routed by the slice-side address inspector (Fig. 5 ① / ②).
    fn tick_local_request_links(&mut self, c: u64) {
        let links = self.local_req.as_mut().expect("nuba links");
        for link in links.iter_mut() {
            if link.pending() == 0 {
                continue; // nothing queued or serializing: tick is a no-op
            }
            link.tick(c, &mut self.req_scratch);
            for req in self.req_scratch.drain(..) {
                let id = req.id;
                let d = self.mapping.decode(req.paddr);
                let slice = self.topo.local_slice(req.sm, &d);
                let local_home = self.topo.is_local(req.sm, &d);
                let s = &mut self.slices[slice.0];
                s.note_local_sm_request(req.line(), local_home, req.kind.is_read_only());
                if local_home {
                    s.ingress_local(req, Role::Home);
                    self.telemetry.note_slice_enqueue(id, c);
                } else if req.kind.is_read_only() && s.replicating() {
                    s.ingress_local(req, Role::Replica);
                    self.telemetry.note_slice_enqueue(id, c);
                } else {
                    // Forwarded to the home slice over the NoC; the
                    // enqueue is stamped on remote delivery instead.
                    s.forward_direct(req);
                }
            }
        }
    }

    /// Drain slice forward queues into the inter-partition NoC.
    fn drain_forwards(&mut self, c: u64) {
        for i in 0..self.slices.len() {
            while let Some(fwd) = self.slices[i].pop_forward() {
                let dest = self.mapping.decode(fwd.paddr).home_slice;
                let src_mod = self.topo.module_of_slice(SliceId(i));
                let cross =
                    self.topo.num_modules() > 1 && self.topo.module_of_slice(dest) != src_mod;
                let sent = if cross {
                    self.gw_req[src_mod.0]
                        .try_send(
                            GwPkt {
                                src: i,
                                dest: dest.0,
                                item: fwd,
                            },
                            c,
                        )
                        .is_ok()
                } else {
                    self.req_noc.try_send(i, dest.0, fwd, c).is_ok()
                };
                if !sent {
                    self.slices[i].unpop_forward(fwd);
                    break;
                }
            }
        }
    }

    fn tick_gateways(&mut self, c: u64) {
        if self.gw_req.is_empty() {
            return; // single-module: no gateways to tick
        }
        let mut req_out = std::mem::take(&mut self.gw_req_out);
        for gw in &mut self.gw_req {
            if gw.pending() > 0 {
                gw.tick(c, &mut req_out);
            }
        }
        for hold in self.gw_req_hold.iter_mut() {
            while let Some(p) = hold.pop_front() {
                if self.req_noc.try_send(p.src, p.dest, p.item, c).is_err() {
                    hold.push_front(p);
                    break;
                }
            }
        }
        for p in req_out.drain(..) {
            if self.req_noc.try_send(p.src, p.dest, p.item, c).is_err() {
                let m = if self.cfg.arch.is_nuba() {
                    self.topo.module_of_slice(SliceId(p.src)).0
                } else {
                    self.topo.module_of_sm(SmId(p.src)).0
                };
                self.gw_req_hold[m].push_back(p);
            }
        }
        self.gw_req_out = req_out;
        let mut rep_out = std::mem::take(&mut self.gw_reply_out);
        for gw in &mut self.gw_reply {
            if gw.pending() > 0 {
                gw.tick(c, &mut rep_out);
            }
        }
        for hold in self.gw_reply_hold.iter_mut() {
            while let Some(p) = hold.pop_front() {
                if self.reply_noc.try_send(p.src, p.dest, p.item, c).is_err() {
                    hold.push_front(p);
                    break;
                }
            }
        }
        for p in rep_out.drain(..) {
            if self.reply_noc.try_send(p.src, p.dest, p.item, c).is_err() {
                let m = self.topo.module_of_slice(SliceId(p.src)).0;
                self.gw_reply_hold[m].push_back(p);
            }
        }
        self.gw_reply_out = rep_out;
    }

    fn deliver_noc_requests(&mut self, c: u64) {
        let nuba = self.cfg.arch.is_nuba();
        for port in 0..self.req_noc.num_outputs() {
            while let Some(req) = self.req_noc.pop_delivered(port) {
                let id = req.id;
                let s = &mut self.slices[port];
                if nuba {
                    s.note_remote_home_request(req.line());
                    s.ingress_remote(req);
                } else {
                    s.ingress_local(req, Role::Home);
                }
                self.telemetry.note_slice_enqueue(id, c);
            }
        }
    }

    fn route_slice_replies(&mut self, c: u64) {
        let nuba = self.cfg.arch.is_nuba();
        for i in 0..self.slices.len() {
            while let Some(reply) = self.slices[i].pop_reply() {
                let routed = if nuba {
                    let dest_part = self.topo.partition_of_sm(reply.sm);
                    if dest_part == self.slices[i].partition() {
                        let links = self.local_reply.as_mut().expect("nuba links");
                        links[reply.sm.0].try_send(reply, c).is_ok()
                    } else {
                        let d = self.mapping.decode(reply.line.base());
                        let dest = self.topo.local_slice(reply.sm, &d);
                        self.try_reply_noc(i, dest.0, reply, c)
                    }
                } else {
                    self.try_reply_noc(i, reply.sm.0, reply, c)
                };
                if !routed {
                    self.slices[i].unpop_reply(reply);
                    break;
                }
            }
        }
    }

    fn try_reply_noc(&mut self, src_slice: usize, dest: usize, reply: MemReply, c: u64) -> bool {
        let src_mod = self.topo.module_of_slice(SliceId(src_slice));
        let dest_mod = if self.cfg.arch.is_nuba() {
            self.topo.module_of_slice(SliceId(dest))
        } else {
            self.topo.module_of_sm(SmId(dest))
        };
        if self.topo.num_modules() > 1 && src_mod != dest_mod {
            self.gw_reply[src_mod.0]
                .try_send(
                    GwPkt {
                        src: src_slice,
                        dest,
                        item: reply,
                    },
                    c,
                )
                .is_ok()
        } else {
            self.reply_noc.try_send(src_slice, dest, reply, c).is_ok()
        }
    }

    fn deliver_noc_replies(&mut self, c: u64) {
        let nuba = self.cfg.arch.is_nuba();
        for port in 0..self.reply_noc.num_outputs() {
            if nuba {
                // Drain the hold first (link back-pressure), then the NoC.
                loop {
                    let from_hold = self.inbound_reply_hold[port].pop_front();
                    let reply = match from_hold.or_else(|| self.reply_noc.pop_delivered(port)) {
                        Some(r) => r,
                        None => break,
                    };
                    if reply.replica_fill {
                        self.slices[port].fill_replica(reply, c);
                        continue;
                    }
                    let links = self.local_reply.as_mut().expect("nuba links");
                    if links[reply.sm.0].try_send(reply, c).is_err() {
                        self.inbound_reply_hold[port].push_front(reply);
                        break;
                    }
                }
            } else {
                while let Some(reply) = self.reply_noc.pop_delivered(port) {
                    let local = false; // every UBA reply crossed the NoC
                    self.telemetry.record_read_latency_of(&reply, local, c);
                    self.telemetry.note_reply(reply.id, c);
                    self.sms[port].handle_reply(reply, c, local);
                }
            }
        }
    }

    fn tick_local_reply_links(&mut self, c: u64) {
        let links = self.local_reply.as_mut().expect("nuba links");
        for link in links.iter_mut() {
            if link.pending() == 0 {
                continue; // nothing queued or serializing: tick is a no-op
            }
            link.tick(c, &mut self.reply_scratch);
            for reply in self.reply_scratch.drain(..) {
                let local = self.topo.partition_of_slice(reply.serviced_by)
                    == self.topo.partition_of_sm(reply.sm);
                self.telemetry.record_read_latency_of(&reply, local, c);
                self.telemetry.note_reply(reply.id, c);
                self.sms[reply.sm.0].handle_reply(reply, c, local);
            }
        }
    }

    fn tick_memory(&mut self, c: u64) {
        let sm_side = self.cfg.arch == ArchKind::SmSideUba;

        // Move slice DRAM tasks into controllers.
        for i in 0..self.slices.len() {
            while let Some(task) = self.slices[i].pop_mem_task() {
                let line = match task {
                    MemTask::Fetch(l) | MemTask::Writeback(l) => l,
                };
                let home_ch = self.mapping.decode(line.base()).channel;
                if sm_side && self.topo.crosses_half(SliceId(i), home_ch) {
                    let half = home_ch.0 / (self.cfg.num_channels / 2);
                    if self.half_links.as_mut().expect("sm-side")[half]
                        .try_send(HalfPkt::Task(SliceId(i), task), c)
                        .is_err()
                    {
                        self.slices[i].unpop_mem_task(task);
                        break;
                    }
                } else if !self.enqueue_dram(SliceId(i), task, c) {
                    self.slices[i].unpop_mem_task(task);
                    break;
                }
            }
        }

        // Cross-half traffic (SM-side UBA only).
        if let Some(links) = self.half_links.as_mut() {
            for l in links.iter_mut() {
                if l.pending() > 0 {
                    l.tick(c, &mut self.half_out);
                }
            }
            self.half_hold.append(&mut self.half_out);
            if !self.half_hold.is_empty() {
                // Ping-pong hold ↔ scratch so retries keep both buffers'
                // capacity across cycles.
                std::mem::swap(&mut self.half_hold, &mut self.half_out);
                for k in 0..self.half_out.len() {
                    match self.half_out[k] {
                        HalfPkt::Task(slice, task) => {
                            if !self.enqueue_dram(slice, task, c) {
                                self.half_hold.push(HalfPkt::Task(slice, task));
                            }
                        }
                        HalfPkt::Fill(slice, line) => {
                            self.slices[slice.0].fill_from_memory(line, c);
                        }
                    }
                }
                self.half_out.clear();
            }
        }

        // DRAM runs on the divided clock.
        if c.is_multiple_of(self.cfg.dram_clock_divider) {
            let mem_cycle = c / self.cfg.dram_clock_divider;
            for ch in 0..self.mcs.len() {
                self.mc_done.clear();
                self.mcs[ch].mc.tick(mem_cycle, &mut self.mc_done);
                for k in 0..self.mc_done.len() {
                    let (id, is_write) = self.mc_done[k];
                    self.dram_accesses += 1;
                    if is_write {
                        continue; // writeback completion needs no fill
                    }
                    if let Some((slice, line)) = self.mcs[ch].pending_fills.remove(&id) {
                        if sm_side && self.topo.crosses_half(slice, nuba_types::ChannelId(ch)) {
                            let half = slice.0 / (self.cfg.num_llc_slices / 2);
                            // Fills ride the cross-half link back; if it
                            // is saturated they queue in the hold.
                            if self.half_links.as_mut().expect("sm-side")[half]
                                .try_send(HalfPkt::Fill(slice, line), c)
                                .is_err()
                            {
                                self.half_hold.push(HalfPkt::Fill(slice, line));
                            }
                        } else {
                            self.slices[slice.0].fill_from_memory(line, c);
                        }
                    }
                }
            }
        }
    }

    fn enqueue_dram(&mut self, slice: SliceId, task: MemTask, c: u64) -> bool {
        let (line, is_write) = match task {
            MemTask::Fetch(l) => (l, false),
            MemTask::Writeback(l) => (l, true),
        };
        let d = self.mapping.decode(line.base());
        let ch = d.channel.0;
        let mc = &mut self.mcs[ch];
        if !mc.mc.can_accept() {
            return false;
        }
        mc.next_id += 1;
        let id = mc.next_id;
        let req = DramRequest {
            id,
            bank: d.bank,
            row: d.row,
            is_write,
        };
        let mem_cycle = c / self.cfg.dram_clock_divider;
        mc.mc
            .try_enqueue(req, mem_cycle)
            .expect("can_accept checked");
        if !is_write {
            mc.pending_fills.insert(id, (slice, line));
            self.telemetry.note_dram(line, c);
        }
        true
    }

    /// One-line occupancy snapshot for performance debugging.
    pub fn debug_state(&self) -> String {
        let outstanding: usize = self.sms.iter().map(Sm::outstanding).sum();
        let stall_down: u64 = self.sms.iter().map(|s| s.stats.stall_downstream).sum();
        let stall_mshr: u64 = self.sms.iter().map(|s| s.stats.stall_mshr).sum();
        let stall_out: u64 = self.sms.iter().map(|s| s.stats.stall_outstanding).sum();
        let slice_pending: usize = self.slices.iter().map(LlcSlice::pending_work).sum();
        let mc_pending: usize = self.mcs.iter().map(|m| m.mc.pending()).sum();
        let mut local_pend = 0usize;
        if let Some(links) = &self.local_req {
            local_pend += links.iter().map(BandwidthLink::pending).sum::<usize>();
        }
        if let Some(links) = &self.local_reply {
            local_pend += links.iter().map(BandwidthLink::pending).sum::<usize>();
        }
        format!(
            "outstanding={outstanding} stalls(down={stall_down} mshr={stall_mshr} out={stall_out}) \
             slice_pending={slice_pending} mc_pending={mc_pending} noc_inflight={}/{} local_pending={local_pend}",
            self.req_noc.in_flight(),
            self.reply_noc.in_flight(),
        )
    }

    /// Request conservation snapshot: (requests issued by SMs, replies
    /// delivered back to SMs, requests still outstanding). At any
    /// instant `issued == replied + outstanding` — the memory system
    /// neither drops nor duplicates requests.
    pub fn request_balance(&self) -> (u64, u64, u64) {
        let issued: u64 = self.sms.iter().map(|s| s.stats.issued_requests).sum();
        let replied: u64 = self
            .sms
            .iter()
            .map(|s| s.stats.local_replies + s.stats.remote_replies)
            .sum();
        let outstanding: u64 = self.sms.iter().map(|s| s.outstanding() as u64).sum();
        (issued, replied, outstanding)
    }

    /// Run the cross-component conservation checks against the named
    /// invariant registry (`nuba_types::invariant`): SM request balance,
    /// flit conservation in both NoCs, and per-slice/per-SM accounting
    /// sanity. Call at any cycle boundary; `simcheck` calls it
    /// periodically under every architecture configuration.
    pub fn check_conservation(&self) {
        let (issued, replied, outstanding) = self.request_balance();
        nuba_types::check_conserved!("gpu_requests_conserved", issued, replied + outstanding);
        self.req_noc.check_conservation();
        self.reply_noc.check_conservation();
        let (hits, accesses, replica_hits, _, _) = self.slice_totals();
        nuba_types::invariant!(
            "llc_hits_within_accesses",
            hits <= accesses,
            "{hits} hits > {accesses} accesses"
        );
        nuba_types::invariant!(
            "llc_replica_hits_within_hits",
            replica_hits <= hits,
            "{replica_hits} replica hits > {hits} hits"
        );
    }

    /// Aggregate slice-stat snapshot: (hits, accesses, replica_hits,
    /// replica_fills, forwarded).
    pub fn slice_totals(&self) -> (u64, u64, u64, u64, u64) {
        let mut t = (0, 0, 0, 0, 0);
        for s in &self.slices {
            t.0 += s.stats.hits;
            t.1 += s.stats.accesses;
            t.2 += s.stats.replica_hits;
            t.3 += s.stats.replica_fills;
            t.4 += s.stats.forwarded;
        }
        t
    }

    /// Build the report for everything simulated so far.
    pub fn report(&self) -> SimReport {
        let mut counters = EnergyCounters::default();
        let mut warp_ops = 0;
        let mut read_replies = 0;
        let mut local_misses = 0;
        let mut remote_misses = 0;
        let mut l1_hits = 0;
        let mut latency_sum = 0u64;
        let mut latency_max = 0u64;
        let mut stall_downstream = 0;
        let mut stall_mshr = 0;
        let mut stall_outstanding = 0;
        for sm in &self.sms {
            warp_ops += sm.stats.completed_ops;
            read_replies += sm.stats.read_replies;
            local_misses += sm.stats.local_replies;
            remote_misses += sm.stats.remote_replies;
            l1_hits += sm.stats.l1_hits;
            counters.l1_accesses += sm.stats.l1_accesses;
            latency_sum += sm.stats.reply_latency_sum;
            latency_max = latency_max.max(sm.stats.reply_latency_max);
            stall_downstream += sm.stats.stall_downstream;
            stall_mshr += sm.stats.stall_mshr;
            stall_outstanding += sm.stats.stall_outstanding;
        }
        let mut llc_hits = 0;
        let mut llc_accesses = 0;
        let mut replica_fills = 0;
        let mut mdr_rate = 0.0;
        for s in &self.slices {
            llc_hits += s.stats.hits;
            llc_accesses += s.stats.accesses;
            replica_fills += s.stats.replica_fills;
            mdr_rate += s.mdr_replication_rate();
        }
        mdr_rate /= self.slices.len() as f64;

        let mut noc_bytes = self.req_noc.stats().bytes + self.reply_noc.stats().bytes;
        for gw in self.gw_req.iter().map(BandwidthLink::bytes_transferred) {
            noc_bytes += gw;
        }
        for gw in self.gw_reply.iter().map(BandwidthLink::bytes_transferred) {
            noc_bytes += gw;
        }
        if let Some(links) = &self.half_links {
            noc_bytes += links.iter().map(|l| l.bytes_transferred()).sum::<u64>();
        }
        noc_bytes += self.migration_bytes;

        let mut local_link_bytes = 0;
        let mut local_link_busy_cycles = 0;
        if let Some(links) = &self.local_req {
            local_link_bytes += links.iter().map(|l| l.bytes_transferred()).sum::<u64>();
            local_link_busy_cycles += links.iter().map(|l| l.busy_cycles()).sum::<u64>();
        }
        if let Some(links) = &self.local_reply {
            local_link_bytes += links.iter().map(|l| l.bytes_transferred()).sum::<u64>();
            local_link_busy_cycles += links.iter().map(|l| l.busy_cycles()).sum::<u64>();
        }

        counters.warp_ops = warp_ops;
        counters.llc_accesses = llc_accesses;
        counters.dram_accesses = self.dram_accesses;
        counters.noc_bytes = noc_bytes;
        counters.local_link_bytes = local_link_bytes;

        let mut row_hits = 0.0;
        let mut max_load = 0u64;
        let mut total_load = 0u64;
        for m in &self.mcs {
            row_hits += m.mc.row_hit_rate();
            let load = m.mc.stats().completed;
            max_load = max_load.max(load);
            total_load += load;
        }
        row_hits /= self.mcs.len() as f64;
        let mean_load = total_load as f64 / self.mcs.len() as f64;
        let channel_imbalance = if mean_load > 0.0 {
            max_load as f64 / mean_load
        } else {
            1.0
        };

        // Bytes that crossed the crossbars proper (not gateways or
        // migration copies).
        let xbar_bytes = self.req_noc.stats().bytes + self.reply_noc.stats().bytes;
        let dram_bus_busy_cycles: u64 = self.mcs.iter().map(|m| m.mc.stats().bus_busy_cycles).sum();

        let energy = energy_report(&self.energy_params, &counters, &self.noc_power, self.cycle);
        SimReport {
            cycles: self.cycle,
            warp_ops,
            read_replies,
            local_misses,
            remote_misses,
            l1_hits,
            llc_hits,
            llc_accesses,
            dram_accesses: self.dram_accesses,
            dram_row_hit_rate: row_hits,
            noc_bytes,
            local_link_bytes,
            replica_fills,
            mdr_replication_rate: mdr_rate,
            page_faults: self.mmu.stats().faults,
            final_npb: self.driver.npb(),
            channel_imbalance,
            avg_read_latency: latency_sum as f64 / read_replies.max(1) as f64,
            max_read_latency: latency_max,
            noc_watts: self.noc_power.average_watts(noc_bytes, self.cycle.max(1)),
            stall_downstream,
            stall_mshr,
            stall_outstanding,
            local_link_busy_cycles,
            noc_serialization_cycles: noc_serialization_cycles(&self.cfg, xbar_bytes),
            dram_bus_busy_cycles,
            energy,
            latency: crate::metrics::LatencyReport {
                tiers: *self.telemetry.tier_histograms(),
                stages: *self.telemetry.stage_histograms(),
            },
        }
    }
}

impl<T: StateValue> StateValue for GwPkt<T> {
    fn put(&self, w: &mut StateWriter) {
        self.src.put(w);
        self.dest.put(w);
        self.item.put(w);
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(GwPkt {
            src: usize::get(r)?,
            dest: usize::get(r)?,
            item: T::get(r)?,
        })
    }
}

impl StateValue for HalfPkt {
    fn put(&self, w: &mut StateWriter) {
        match self {
            HalfPkt::Task(slice, task) => {
                w.put_u8(0);
                slice.put(w);
                task.put(w);
            }
            HalfPkt::Fill(slice, line) => {
                w.put_u8(1);
                slice.put(w);
                line.put(w);
            }
        }
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        let tag = r.get_u8()?;
        match tag {
            0 => Ok(HalfPkt::Task(StateValue::get(r)?, StateValue::get(r)?)),
            1 => Ok(HalfPkt::Fill(StateValue::get(r)?, StateValue::get(r)?)),
            _ => Err(StateError::BadTag {
                what: "cross-half packet kind",
                tag,
            }),
        }
    }
}

impl SaveState for McState {
    fn save(&self, w: &mut StateWriter) {
        self.mc.save(w);
        save_map(w, &self.pending_fills);
        self.next_id.put(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.mc.restore(r)?;
        restore_map(r, &mut self.pending_fills)?;
        self.next_id = u64::get(r)?;
        Ok(())
    }
}

impl GpuSimulator {
    /// Serialize every piece of dynamic state into `w`.
    ///
    /// Configuration (`cfg`, topology, address mapping, power/energy
    /// models) and the per-cycle scratch buffers — which are drained
    /// within every [`step`](GpuSimulator::step) — are deliberately
    /// excluded: a restored simulator is rebuilt from the same
    /// configuration first and then overwritten field by field.
    pub(crate) fn save_state(&self, w: &mut StateWriter) {
        self.driver.save(w);
        self.mmu.save(w);
        save_items(w, &self.sms);
        save_items(w, &self.slices);
        save_items(w, &self.mcs);
        save_optional(w, self.local_req.as_deref(), save_items);
        save_optional(w, self.local_reply.as_deref(), save_items);
        self.inbound_reply_hold.put(w);
        self.req_noc.save(w);
        self.reply_noc.save(w);
        // The cross-half pair is fixed-size: two links, no length prefix.
        save_optional(w, self.half_links.as_ref(), |w, [a, b]| {
            a.save(w);
            b.save(w);
        });
        self.half_hold.put(w);
        save_items(w, &self.gw_req);
        save_items(w, &self.gw_reply);
        self.gw_req_hold.put(w);
        self.gw_reply_hold.put(w);
        save_optional(w, self.tracker.as_ref(), |w, t| t.save(w));
        self.faults.put(w);
        self.watchdog_budget.put(w);
        self.last_progress_cycle.put(w);
        self.last_progress_signal.put(w);
        self.cycle.put(w);
        self.next_req_id.put(w);
        self.dram_accesses.put(w);
        self.migration_bytes.put(w);
        self.telemetry.save(w);
    }

    /// Overwrite this simulator's dynamic state from `r`.
    ///
    /// `self` must have been built via [`try_new`](GpuSimulator::try_new)
    /// with the same configuration and workload the state was saved
    /// under; the session layer enforces this with config and workload
    /// hashes before calling here.
    pub(crate) fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.driver.restore(r)?;
        self.mmu.restore(r)?;
        restore_items(r, "SM array", &mut self.sms)?;
        restore_items(r, "LLC slice array", &mut self.slices)?;
        restore_items(r, "memory controller array", &mut self.mcs)?;
        restore_optional(
            r,
            "local request link presence mismatch",
            self.local_req.as_deref_mut(),
            |r, links| restore_items(r, "local request links", links),
        )?;
        restore_optional(
            r,
            "local reply link presence mismatch",
            self.local_reply.as_deref_mut(),
            |r, links| restore_items(r, "local reply links", links),
        )?;
        restore_deques(r, "inbound reply holds", &mut self.inbound_reply_hold)?;
        self.req_noc.restore(r)?;
        self.reply_noc.restore(r)?;
        restore_optional(
            r,
            "cross-half link presence mismatch",
            self.half_links.as_mut(),
            |r, [a, b]| {
                a.restore(r)?;
                b.restore(r)
            },
        )?;
        restore_vec(r, &mut self.half_hold)?;
        restore_items(r, "gateway request links", &mut self.gw_req)?;
        restore_items(r, "gateway reply links", &mut self.gw_reply)?;
        restore_deques(r, "gateway request holds", &mut self.gw_req_hold)?;
        restore_deques(r, "gateway reply holds", &mut self.gw_reply_hold)?;
        restore_optional(
            r,
            "page access tracker presence mismatch",
            self.tracker.as_mut(),
            |r, t| t.restore(r),
        )?;
        self.faults = Option::get(r)?;
        self.watchdog_budget = Option::get(r)?;
        self.last_progress_cycle = u64::get(r)?;
        self.last_progress_signal = u64::get(r)?;
        self.cycle = u64::get(r)?;
        self.next_req_id = u64::get(r)?;
        self.dram_accesses = u64::get(r)?;
        self.migration_bytes = u64::get(r)?;
        self.telemetry.restore(r)?;
        // Scratch buffers are drained within every step; leave them as
        // try_new built them (empty, capacity pre-sized).
        Ok(())
    }
}

use nuba_types::state::{
    restore_deques, restore_items, restore_map, restore_optional, restore_vec, save_items,
    save_map, save_optional, SaveState, StateError, StateReader, StateValue, StateWriter,
};
