//! The LLC slice microarchitecture (paper Fig. 5).
//!
//! Each slice owns Local and Remote Memory Request queues (LMR/RMR), a
//! round-robin arbiter granting one request per cycle to the tag+data
//! pipeline, an MSHR file, a 32 B/cycle data-streaming output gate, and
//! — under NUBA — the MDR controller with its shadow-tag set sampler.
//!
//! The slice is deliberately passive about routing: the owning
//! [`GpuSimulator`](crate::gpu::GpuSimulator) decides which queue a
//! request enters and where drained replies/forwards go, because routing
//! is what differs between the UBA and NUBA architectures.

use std::collections::VecDeque;

use nuba_cache::{CacheGeometry, MshrFile, MshrOutcome, SetSampler, TagArray};
use nuba_engine::{BandwidthLink, BoundedQueue, LatencyPipe, NextEvent, RoundRobinArbiter};
use nuba_types::{AccessKind, LineAddr, MemReply, MemRequest, PartitionId, SliceId};

use crate::mdr::{MdrBandwidths, MdrController};

/// How a request is treated by this slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// This slice is the line's home (or, for SM-side UBA, the caching
    /// authority in its half).
    Home,
    /// NUBA replica lookup: a local SM's read-only access to a remote
    /// line that MDR wants cached here.
    Replica,
}

#[derive(Debug, Clone, Copy)]
struct SliceReq {
    req: MemRequest,
    role: Role,
}

/// A DRAM task the slice wants its memory controller to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemTask {
    /// Fetch a line (fill on return).
    Fetch(LineAddr),
    /// Write back a dirty line (no reply needed).
    Writeback(LineAddr),
}

/// Slice sizing parameters.
#[derive(Debug, Clone, Copy)]
pub struct SliceParams {
    /// Tag/data geometry (48 sets × 16 ways in the baseline).
    pub geometry: CacheGeometry,
    /// MSHR entries.
    pub mshrs: usize,
    /// Tag+data pipeline latency in cycles.
    pub latency: u64,
    /// Data-array streaming bandwidth (bytes/cycle) for replies.
    pub out_bytes_per_cycle: u64,
    /// LMR/RMR queue capacity.
    pub queue_capacity: usize,
    /// Sampled sets for the MDR profiler.
    pub sample_sets: usize,
}

/// Slice statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SliceStats {
    /// Tag-pipeline grants (energy: LLC accesses).
    pub accesses: u64,
    /// Tag hits (home + replica).
    pub hits: u64,
    /// Replica lines installed.
    pub replica_fills: u64,
    /// Replica lookup hits.
    pub replica_hits: u64,
    /// Requests forwarded into the NoC (NUBA remote traffic).
    pub forwarded: u64,
}

/// One LLC slice.
pub struct LlcSlice {
    id: SliceId,
    partition: PartitionId,
    tags: TagArray,
    mshr: MshrFile<SliceReq>,
    lmr: BoundedQueue<SliceReq>,
    rmr: BoundedQueue<SliceReq>,
    hold_local: VecDeque<SliceReq>,
    hold_remote: VecDeque<SliceReq>,
    retry: Option<SliceReq>,
    /// Most recent tag-pipe grant `(request id, cycle)`; harvested by
    /// the simulator's lifecycle tracer (at most one grant per cycle).
    last_grant: Option<(nuba_types::ReqId, u64)>,
    arb: RoundRobinArbiter,
    pipe: LatencyPipe<SliceReq>,
    latency: u64,
    out: BandwidthLink<MemReply>,
    /// Replies that finished the data array and await routing by the
    /// simulator.
    ready_replies: VecDeque<MemReply>,
    /// Fill replies waiting for the out gate.
    backlog: VecDeque<MemReply>,
    /// Requests to forward into the inter-partition NoC.
    forward: VecDeque<MemRequest>,
    /// DRAM work for the local memory controller.
    mem_tasks: VecDeque<MemTask>,
    mdr: Option<MdrController>,
    sampler: SetSampler,
    replicate_always: bool,
    /// Fault-injection flag: data/tag arrays offline. Probes miss and
    /// fills are not installed, but MSHRs and queues keep working, so
    /// every access degrades to a DRAM round trip instead of deadlocking.
    offline: bool,
    scratch: Vec<MemReply>,
    /// Statistics.
    pub stats: SliceStats,
}

impl LlcSlice {
    /// Build a slice. `mdr` enables Model-Driven Replication;
    /// `replicate_always` forces the Full-Rep policy (Fig. 12).
    pub fn new(
        id: SliceId,
        partition: PartitionId,
        params: SliceParams,
        mdr: Option<(MdrBandwidths, u64, u64)>,
        replicate_always: bool,
    ) -> LlcSlice {
        LlcSlice {
            id,
            partition,
            tags: TagArray::new(params.geometry),
            mshr: MshrFile::new(params.mshrs, 16),
            lmr: BoundedQueue::new(params.queue_capacity),
            rmr: BoundedQueue::new(params.queue_capacity),
            hold_local: VecDeque::with_capacity(params.queue_capacity),
            hold_remote: VecDeque::with_capacity(params.queue_capacity),
            retry: None,
            last_grant: None,
            arb: RoundRobinArbiter::new(2),
            pipe: LatencyPipe::new(),
            latency: params.latency,
            out: BandwidthLink::new(params.out_bytes_per_cycle as f64, 1, 8),
            // Not sized past the peaks. Over the 87 Table-2 x {UBA-mem,
            // UBA-sm, NUBA} jobs at 20 000 cycles (seed 1) these queues
            // peaked at 1 615, 161, 47 and 237 entries: the first three
            // outgrow their reservations and keep the high-water mark,
            // as the crossbar buffers do (DESIGN.md §9.3).
            ready_replies: VecDeque::with_capacity(256),
            backlog: VecDeque::with_capacity(32),
            forward: VecDeque::with_capacity(32),
            mem_tasks: VecDeque::with_capacity(256),
            mdr: mdr.map(|(bw, epoch, eval)| MdrController::new(bw, epoch, eval)),
            sampler: SetSampler::new(params.geometry, params.sample_sets),
            replicate_always,
            offline: false,
            scratch: Vec::new(),
            stats: SliceStats::default(),
        }
    }

    /// This slice's id.
    pub fn id(&self) -> SliceId {
        self.id
    }

    /// The partition that owns this slice.
    pub fn partition(&self) -> PartitionId {
        self.partition
    }

    /// Whether read-only remote lines are currently replicated here.
    pub fn replicating(&self) -> bool {
        self.replicate_always || self.mdr.as_ref().is_some_and(MdrController::replicating)
    }

    /// Fraction of MDR epochs that chose replication.
    pub fn mdr_replication_rate(&self) -> f64 {
        match &self.mdr {
            Some(c) if c.epochs_total > 0 => c.epochs_replicating as f64 / c.epochs_total as f64,
            _ => 0.0,
        }
    }

    /// Accept a request arriving from the SM side (local link / SM-side
    /// crossbar) to be handled with the given role.
    pub fn ingress_local(&mut self, req: MemRequest, role: Role) {
        self.hold_local.push_back(SliceReq { req, role });
    }

    /// Accept a home request arriving over the inter-partition NoC.
    pub fn ingress_remote(&mut self, req: MemRequest) {
        self.hold_remote.push_back(SliceReq {
            req,
            role: Role::Home,
        });
    }

    /// NUBA address-inspection path (Fig. 5 ②): a local SM's request for
    /// a remote line that is not being replicated is forwarded towards
    /// its home slice without a tag lookup here.
    pub fn forward_direct(&mut self, req: MemRequest) {
        self.forward.push_back(req);
        self.stats.forwarded += 1;
    }

    /// NUBA: note a local SM's request passing this slice, for the MDR
    /// profiler (frac local/remote + shadow samplers).
    pub fn note_local_sm_request(&mut self, line: LineAddr, local_home: bool, read_only: bool) {
        if let Some(mdr) = &mut self.mdr {
            mdr.note_request(local_home);
        }
        self.sampler
            .observe(line, local_home, !local_home && read_only);
    }

    /// Note a remote requester's home access (RMR arrivals) for the
    /// no-replication shadow.
    pub fn note_remote_home_request(&mut self, line: LineAddr) {
        self.sampler.observe(line, true, false);
    }

    /// Advance one cycle.
    pub fn tick(&mut self, now: u64) {
        // Idle fast-path: with every stage empty the whole tick is a
        // no-op (the arbiter only moves on a grant, and an empty out
        // link's credit is already zero) — unless an MDR epoch ends on
        // this cycle.
        if self.mdr.as_ref().is_none_or(|m| now < m.next_epoch())
            && self.retry.is_none()
            && self.hold_local.is_empty()
            && self.hold_remote.is_empty()
            && self.lmr.is_empty()
            && self.rmr.is_empty()
            && self.pipe.is_empty()
            && self.backlog.is_empty()
            && self.out.pending() == 0
        {
            return;
        }

        // Refill the bounded queues from the ingress holds.
        self.lmr.refill_from(&mut self.hold_local);
        self.rmr.refill_from(&mut self.hold_remote);

        // MDR evaluation stalls the pipeline (116-cycle charge).
        let mdr_busy = self.mdr.as_ref().is_some_and(|m| m.busy(now));

        // Grant one request per cycle to the tag pipeline (Fig. 5 ④).
        if !mdr_busy {
            let lmr_ready = !self.lmr.is_empty();
            let rmr_ready = !self.rmr.is_empty();
            if let Some(which) = self
                .arb
                .grant(|i| if i == 0 { lmr_ready } else { rmr_ready })
            {
                let granted = if which == 0 {
                    self.lmr.pop()
                } else {
                    self.rmr.pop()
                };
                // The grant predicate checked non-emptiness this cycle;
                // an empty pop here would be an arbiter bug — skip the
                // grant rather than crash the whole simulation.
                if let Some(r) = granted {
                    self.last_grant = Some((r.req.id, now));
                    self.pipe.push(r, now, self.latency);
                    self.stats.accesses += 1;
                }
            }
        }

        // Process pipeline completions while the reply path has room.
        loop {
            if self.backlog.len() >= 16 {
                break;
            }
            let r = match self.retry.take() {
                Some(r) => r,
                None => match self.pipe.pop_ready(now) {
                    Some(r) => r,
                    None => break,
                },
            };
            if !self.process(r, now) {
                break; // retried: resources exhausted this cycle
            }
        }

        // Stream replies through the data-array output gate.
        while self.out.can_send() {
            let Some(reply) = self.backlog.pop_front() else {
                break;
            };
            if let Err(nuba_engine::SendError(reply)) = self.out.try_send(reply, now) {
                // can_send raced false (cannot happen single-threaded,
                // but never drop a reply): put it back and stop.
                self.backlog.push_front(reply);
                break;
            }
        }
        if self.out.pending() > 0 {
            self.out.tick(now, &mut self.scratch);
            for r in self.scratch.drain(..) {
                self.ready_replies.push_back(r);
            }
        }

        // Epoch maintenance: the controller reads the sampler's
        // estimate only on the cycle an epoch ends.
        if let Some(mdr) = &mut self.mdr {
            if now >= mdr.next_epoch() {
                let est = self.sampler.estimate();
                mdr.tick(now, est.hit_rate_no_rep, est.hit_rate_full_rep);
                self.sampler.roll_epoch();
            }
        }
    }

    /// Earliest cycle `>= now` at which ticking this slice changes
    /// state (see [`nuba_engine::NextEvent`]). Anything queued at any
    /// stage — including egress buffers the GPU drains — pins the
    /// event to `now`; otherwise the tag pipeline's head, the output
    /// link's head delivery and the MDR epoch clock are the only timed
    /// events.
    pub fn next_event_cycle(&self, now: u64) -> Option<u64> {
        if self.retry.is_some()
            || !self.hold_local.is_empty()
            || !self.hold_remote.is_empty()
            || !self.lmr.is_empty()
            || !self.rmr.is_empty()
            || !self.backlog.is_empty()
            || !self.ready_replies.is_empty()
            || !self.forward.is_empty()
            || !self.mem_tasks.is_empty()
        {
            return Some(now);
        }
        let mut next = self.pipe.next_event_cycle(now);
        if self.out.pending() > 0 {
            next = nuba_engine::earliest(next, self.out.next_event_cycle(now));
        }
        if let Some(mdr) = &self.mdr {
            next = nuba_engine::earliest(next, Some(mdr.next_epoch().max(now)));
        }
        next
    }

    /// Handle one pipeline completion. Returns `false` if the request
    /// was parked for retry (MSHR full).
    fn process(&mut self, r: SliceReq, now: u64) -> bool {
        let line = r.req.line();
        match r.role {
            Role::Home => match r.req.kind {
                AccessKind::Store => {
                    if self.offline {
                        // Data array offline: write through straight to
                        // DRAM and ack; nothing to cache.
                        self.mem_tasks.push_back(MemTask::Writeback(line));
                        self.backlog.push_back(self.reply_for(&r.req, false));
                        return true;
                    }
                    if !self.tags.mark_dirty(line) {
                        // Write-allocate without fetch (write-through L1s
                        // send full sectors; fetching would double DRAM
                        // traffic).
                        if let Some(ev) = self.tags.insert(line, true, false, now) {
                            if ev.dirty {
                                self.mem_tasks.push_back(MemTask::Writeback(ev.line));
                            }
                        }
                    } else {
                        self.stats.hits += 1;
                    }
                    self.backlog.push_back(self.reply_for(&r.req, true));
                    true
                }
                AccessKind::Load | AccessKind::LoadReadOnly | AccessKind::Atomic => {
                    if !self.offline && self.tags.probe_and_touch(line, now) {
                        self.stats.hits += 1;
                        if r.req.kind == AccessKind::Atomic {
                            self.tags.mark_dirty(line);
                        }
                        self.backlog.push_back(self.reply_for(&r.req, true));
                        true
                    } else {
                        self.miss(r, line)
                    }
                }
            },
            Role::Replica => {
                nuba_types::invariant!(
                    "llc_replica_requests_read_only",
                    r.req.kind.is_read_only(),
                    "{:?}",
                    r.req.kind
                );
                if !self.offline && self.tags.probe_and_touch(line, now) {
                    self.stats.hits += 1;
                    self.stats.replica_hits += 1;
                    self.backlog.push_back(self.reply_for(&r.req, true));
                    true
                } else {
                    self.miss(r, line)
                }
            }
        }
    }

    /// Allocate an MSHR for a miss; primary misses generate a fetch
    /// (home) or a forward to the home slice (replica).
    fn miss(&mut self, r: SliceReq, line: LineAddr) -> bool {
        match self.mshr.allocate(line, r) {
            Ok(MshrOutcome::Primary) => {
                match r.role {
                    Role::Home => self.mem_tasks.push_back(MemTask::Fetch(line)),
                    Role::Replica => {
                        let mut fwd = r.req;
                        fwd.wants_replica = true;
                        self.forward.push_back(fwd);
                        self.stats.forwarded += 1;
                    }
                }
                true
            }
            Ok(MshrOutcome::Secondary) => true,
            Ok(MshrOutcome::NoEntry | MshrOutcome::MergeFull) => unreachable!(),
            Err((_, r)) => match r.role {
                // A home miss must eventually allocate: park and retry
                // (models a stalled fill pipeline).
                Role::Home => {
                    self.retry = Some(r);
                    false
                }
                // Replication is opportunistic: with the MSHRs full of
                // in-flight remote round trips, give up on caching this
                // line locally and send the request straight to its home
                // slice — never head-of-line-block the pipeline on a
                // replica fill.
                Role::Replica => {
                    self.forward_direct(r.req);
                    true
                }
            },
        }
    }

    fn reply_for(&self, req: &MemRequest, hit: bool) -> MemReply {
        MemReply {
            id: req.id,
            sm: req.sm,
            warp: req.warp,
            line: req.line(),
            kind: req.kind,
            serviced_by: self.id,
            llc_hit: hit,
            issue_cycle: req.issue_cycle,
            replica_fill: req.wants_replica,
            bypass_l1: req.bypass_l1,
        }
    }

    /// A DRAM fill returned for `line`: install it and wake waiters.
    /// While the slice is offline the install is skipped (sets reject
    /// fills) but waiters still complete — requests are never lost.
    pub fn fill_from_memory(&mut self, line: LineAddr, now: u64) {
        if !self.offline {
            if let Some(ev) = self.tags.insert(line, false, false, now) {
                if ev.dirty {
                    self.mem_tasks.push_back(MemTask::Writeback(ev.line));
                }
            }
        }
        let mut atomic_dirty = false;
        let mut waiters = self.mshr.complete(line);
        for waiter in waiters.drain(..) {
            if waiter.req.kind == AccessKind::Atomic {
                atomic_dirty = true;
            }
            self.backlog.push_back(self.reply_for(&waiter.req, false));
        }
        self.mshr.recycle(waiters);
        if atomic_dirty {
            self.tags.mark_dirty(line);
        }
    }

    /// NUBA: a remote reply with `replica_fill` arrived back at the
    /// requester's partition — install the replica and wake local
    /// waiters.
    pub fn fill_replica(&mut self, reply: MemReply, now: u64) {
        nuba_types::invariant!("llc_replica_fill_flagged", reply.replica_fill);
        if !self.offline {
            if let Some(ev) = self.tags.insert(reply.line, false, true, now) {
                if ev.dirty {
                    self.mem_tasks.push_back(MemTask::Writeback(ev.line));
                }
            }
            self.stats.replica_fills += 1;
        }
        let mut waiters = self.mshr.complete(reply.line);
        for waiter in waiters.drain(..) {
            let mut r = self.reply_for(&waiter.req, reply.llc_hit);
            // Keep the home slice as the servicer for latency truth, but
            // the data now streams from this slice's array.
            r.serviced_by = reply.serviced_by;
            r.replica_fill = false;
            self.backlog.push_back(r);
        }
        self.mshr.recycle(waiters);
    }

    /// Pop the next reply ready for routing.
    pub fn pop_reply(&mut self) -> Option<MemReply> {
        self.ready_replies.pop_front()
    }

    /// Re-queue a reply that could not be routed (head blocking).
    pub fn unpop_reply(&mut self, r: MemReply) {
        self.ready_replies.push_front(r);
    }

    /// Pop the next request to forward into the NoC.
    pub fn pop_forward(&mut self) -> Option<MemRequest> {
        self.forward.pop_front()
    }

    /// Re-queue an unroutable forward.
    pub fn unpop_forward(&mut self, r: MemRequest) {
        self.forward.push_front(r);
    }

    /// Pop the next DRAM task.
    pub fn pop_mem_task(&mut self) -> Option<MemTask> {
        self.mem_tasks.pop_front()
    }

    /// Re-queue a DRAM task the controller refused.
    pub fn unpop_mem_task(&mut self, t: MemTask) {
        self.mem_tasks.push_front(t);
    }

    /// Flush all lines; dirty ones become writebacks (kernel boundary,
    /// §5.3).
    pub fn flush(&mut self) {
        for line in self.tags.flush() {
            self.mem_tasks.push_back(MemTask::Writeback(line));
        }
    }

    /// Fault-injection hook: take the tag/data arrays offline (`true`)
    /// or bring them back (`false`). Offline, probes miss and fills are
    /// not installed, so every access is served from DRAM; MSHRs and
    /// queues keep working and no request is dropped. Lines cached
    /// before the fault are left in place and become visible again on
    /// revert (the arrays lost power to their sense amps, not their
    /// contents — a conservative model either way since staleness
    /// cannot arise in a write-through-to-home design).
    pub fn set_offline(&mut self, offline: bool) {
        self.offline = offline;
    }

    /// Whether a fault currently holds this slice's arrays offline.
    pub fn is_offline(&self) -> bool {
        self.offline
    }

    /// Requests currently resident in the MSHR file (deadlock reports).
    pub fn mshr_residents(&self) -> usize {
        self.mshr.occupancy()
    }

    /// Read the MSHR occupancy high-water mark and re-arm it at the
    /// current occupancy (telemetry samples per-window pressure).
    pub fn take_mshr_high_water(&mut self) -> usize {
        self.mshr.take_peak()
    }

    /// Requests waiting in the local (LMR) and remote (RMR) request
    /// queues, including their ingress holds: `(lmr, rmr)`.
    pub fn queue_depths(&self) -> (usize, usize) {
        (
            self.lmr.len() + self.hold_local.len(),
            self.rmr.len() + self.hold_remote.len(),
        )
    }

    /// Take the most recent tag-pipe grant `(request id, cycle)`, if
    /// one happened since the last call (lifecycle tracing hook).
    pub fn take_last_grant(&mut self) -> Option<(nuba_types::ReqId, u64)> {
        self.last_grant.take()
    }

    /// Current replica-line count (capacity-pressure diagnostics).
    pub fn replica_lines(&self) -> usize {
        self.tags.replica_count()
    }

    /// Work queued anywhere in the slice (for drain detection in tests).
    pub fn pending_work(&self) -> usize {
        self.hold_local.len()
            + self.hold_remote.len()
            + self.lmr.len()
            + self.rmr.len()
            + self.pipe.len()
            + self.backlog.len()
            + self.ready_replies.len()
            + self.forward.len()
            + self.mem_tasks.len()
            + self.mshr.occupancy()
            + usize::from(self.retry.is_some())
    }
}

impl StateValue for Role {
    fn put(&self, w: &mut StateWriter) {
        w.put_u8(match self {
            Role::Home => 0,
            Role::Replica => 1,
        });
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(match r.get_u8()? {
            0 => Role::Home,
            1 => Role::Replica,
            tag => return Err(StateError::BadTag { what: "Role", tag }),
        })
    }
}

impl StateValue for SliceReq {
    fn put(&self, w: &mut StateWriter) {
        self.req.put(w);
        self.role.put(w);
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(SliceReq {
            req: StateValue::get(r)?,
            role: StateValue::get(r)?,
        })
    }
}

impl StateValue for MemTask {
    fn put(&self, w: &mut StateWriter) {
        match self {
            MemTask::Fetch(l) => {
                w.put_u8(0);
                l.put(w);
            }
            MemTask::Writeback(l) => {
                w.put_u8(1);
                l.put(w);
            }
        }
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(match r.get_u8()? {
            0 => MemTask::Fetch(StateValue::get(r)?),
            1 => MemTask::Writeback(StateValue::get(r)?),
            tag => {
                return Err(StateError::BadTag {
                    what: "MemTask",
                    tag,
                })
            }
        })
    }
}

impl SaveState for LlcSlice {
    fn save(&self, w: &mut StateWriter) {
        // Geometry, latency, queue capacities and the replication policy
        // are configuration. Everything that moves — tags, MSHRs, the
        // arbiter pointer, every queue, the MDR epoch state and the
        // fault-injection offline flag — is dynamic state.
        self.tags.save(w);
        self.mshr.save(w);
        self.lmr.save(w);
        self.rmr.save(w);
        self.hold_local.put(w);
        self.hold_remote.put(w);
        self.retry.put(w);
        self.last_grant.put(w);
        self.arb.save(w);
        self.pipe.save(w);
        self.out.save(w);
        self.ready_replies.put(w);
        self.backlog.put(w);
        self.forward.put(w);
        self.mem_tasks.put(w);
        match &self.mdr {
            Some(m) => {
                w.put_u8(1);
                m.save(w);
            }
            None => w.put_u8(0),
        }
        self.sampler.save(w);
        self.offline.put(w);
        self.stats.accesses.put(w);
        self.stats.hits.put(w);
        self.stats.replica_fills.put(w);
        self.stats.replica_hits.put(w);
        self.stats.forwarded.put(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.tags.restore(r)?;
        self.mshr.restore(r)?;
        self.lmr.restore(r)?;
        self.rmr.restore(r)?;
        restore_deque(r, &mut self.hold_local)?;
        restore_deque(r, &mut self.hold_remote)?;
        self.retry = Option::get(r)?;
        self.last_grant = Option::get(r)?;
        self.arb.restore(r)?;
        self.pipe.restore(r)?;
        self.out.restore(r)?;
        restore_deque(r, &mut self.ready_replies)?;
        restore_deque(r, &mut self.backlog)?;
        restore_deque(r, &mut self.forward)?;
        restore_deque(r, &mut self.mem_tasks)?;
        let has_mdr = r.get_u8()?;
        match (&mut self.mdr, has_mdr) {
            (Some(m), 1) => m.restore(r)?,
            (None, 0) => {}
            _ => return Err(StateError::Corrupt("MDR controller presence mismatch")),
        }
        self.sampler.restore(r)?;
        self.offline = bool::get(r)?;
        self.stats.accesses = u64::get(r)?;
        self.stats.hits = u64::get(r)?;
        self.stats.replica_fills = u64::get(r)?;
        self.stats.replica_hits = u64::get(r)?;
        self.stats.forwarded = u64::get(r)?;
        Ok(())
    }
}

use nuba_types::state::{
    restore_deque, SaveState, StateError, StateReader, StateValue, StateWriter,
};

#[cfg(test)]
mod tests {
    use super::*;
    use nuba_types::{PhysAddr, ReqId, SmId, VirtAddr, WarpId};

    fn params() -> SliceParams {
        SliceParams {
            geometry: CacheGeometry::new(48, 16),
            mshrs: 8,
            latency: 4,
            out_bytes_per_cycle: 32,
            queue_capacity: 8,
            sample_sets: 8,
        }
    }

    fn slice() -> LlcSlice {
        LlcSlice::new(SliceId(0), PartitionId(0), params(), None, false)
    }

    fn req(id: u64, addr: u64, kind: AccessKind) -> MemRequest {
        MemRequest {
            id: ReqId(id),
            sm: SmId(1),
            warp: WarpId(2),
            vaddr: VirtAddr(addr),
            paddr: PhysAddr(addr),
            kind,
            issue_cycle: 0,
            wants_replica: false,
            bypass_l1: false,
        }
    }

    fn run(s: &mut LlcSlice, from: u64, to: u64) -> Vec<(u64, MemReply)> {
        let mut got = Vec::new();
        for c in from..=to {
            s.tick(c);
            while let Some(r) = s.pop_reply() {
                got.push((c, r));
            }
        }
        got
    }

    #[test]
    fn load_miss_fetches_then_hits() {
        let mut s = slice();
        s.ingress_local(req(1, 0x1000, AccessKind::Load), Role::Home);
        let got = run(&mut s, 0, 10);
        assert!(got.is_empty(), "miss produces no reply yet");
        assert_eq!(
            s.pop_mem_task(),
            Some(MemTask::Fetch(LineAddr::containing(0x1000)))
        );

        s.fill_from_memory(LineAddr::containing(0x1000), 11);
        let got = run(&mut s, 11, 30);
        assert_eq!(got.len(), 1);
        assert!(!got[0].1.llc_hit);

        // Second access: hit.
        s.ingress_local(req(2, 0x1000, AccessKind::Load), Role::Home);
        let got = run(&mut s, 31, 50);
        assert_eq!(got.len(), 1);
        assert!(got[0].1.llc_hit);
        assert_eq!(s.stats.hits, 1);
    }

    #[test]
    fn secondary_misses_merge() {
        let mut s = slice();
        s.ingress_local(req(1, 0x1000, AccessKind::Load), Role::Home);
        s.ingress_local(req(2, 0x1000, AccessKind::Load), Role::Home);
        let _ = run(&mut s, 0, 10);
        // Only one fetch for two requests.
        assert_eq!(
            s.pop_mem_task(),
            Some(MemTask::Fetch(LineAddr::containing(0x1000)))
        );
        assert_eq!(s.pop_mem_task(), None);
        s.fill_from_memory(LineAddr::containing(0x1000), 11);
        let got = run(&mut s, 11, 40);
        assert_eq!(got.len(), 2, "both waiters replied");
    }

    #[test]
    fn lmr_rmr_round_robin() {
        let mut s = slice();
        // Fill both queues with hits on a pre-warmed line.
        s.fill_from_memory(LineAddr::containing(0x80_000), 0);
        let _ = run(&mut s, 0, 2);
        for i in 0..4 {
            s.ingress_local(req(10 + i, 0x80_000, AccessKind::Load), Role::Home);
            s.ingress_remote(req(20 + i, 0x80_000, AccessKind::Load));
        }
        let got = run(&mut s, 3, 80);
        assert_eq!(got.len(), 8);
        // Grants alternate: ids interleave local/remote.
        let first_four: Vec<u64> = got.iter().take(4).map(|(_, r)| r.id.0).collect();
        let locals = first_four.iter().filter(|&&id| id < 20).count();
        assert_eq!(locals, 2, "round-robin must interleave, got {first_four:?}");
    }

    #[test]
    fn store_allocates_dirty_and_writes_back() {
        let mut s = slice();
        s.ingress_local(req(1, 0x2000, AccessKind::Store), Role::Home);
        let got = run(&mut s, 0, 20);
        assert_eq!(got.len(), 1, "store acked");
        assert_eq!(got[0].1.kind, AccessKind::Store);
        // Evict the dirty line by filling the set (48-set cache: lines
        // 0x2000 + k*48*128 collide).
        for k in 1..=16u64 {
            s.fill_from_memory(LineAddr::containing(0x2000 + k * 48 * 128), 20 + k);
        }
        let wb: Vec<MemTask> = std::iter::from_fn(|| s.pop_mem_task()).collect();
        assert!(
            wb.contains(&MemTask::Writeback(LineAddr::containing(0x2000))),
            "dirty line must write back: {wb:?}"
        );
    }

    #[test]
    fn atomic_marks_dirty() {
        let mut s = slice();
        s.ingress_local(req(1, 0x3000, AccessKind::Atomic), Role::Home);
        let _ = run(&mut s, 0, 10);
        s.fill_from_memory(LineAddr::containing(0x3000), 11);
        let got = run(&mut s, 11, 30);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1.kind, AccessKind::Atomic);
        // Dirty: flushing produces a writeback.
        while s.pop_mem_task().is_some() {}
        s.flush();
        assert_eq!(
            s.pop_mem_task(),
            Some(MemTask::Writeback(LineAddr::containing(0x3000)))
        );
    }

    #[test]
    fn replica_miss_forwards_with_flag() {
        let mut s = slice();
        s.ingress_local(req(1, 0x4000, AccessKind::LoadReadOnly), Role::Replica);
        let _ = run(&mut s, 0, 10);
        let fwd = s.pop_forward().expect("forwarded to home");
        assert!(fwd.wants_replica);
        assert_eq!(
            s.pop_mem_task(),
            None,
            "replica miss must not touch local DRAM"
        );
        // Home reply comes back: replica installed, waiter replied.
        let reply = MemReply {
            id: fwd.id,
            sm: fwd.sm,
            warp: fwd.warp,
            line: fwd.line(),
            kind: fwd.kind,
            serviced_by: SliceId(9),
            llc_hit: false,
            issue_cycle: 0,
            replica_fill: true,
            bypass_l1: false,
        };
        s.fill_replica(reply, 11);
        let got = run(&mut s, 11, 30);
        assert_eq!(got.len(), 1);
        assert!(!got[0].1.replica_fill, "SM-facing reply is plain");
        assert_eq!(s.stats.replica_fills, 1);
        assert_eq!(s.replica_lines(), 1);

        // Subsequent replica lookups hit locally.
        s.ingress_local(req(2, 0x4000, AccessKind::LoadReadOnly), Role::Replica);
        let got = run(&mut s, 31, 50);
        assert_eq!(got.len(), 1);
        assert!(got[0].1.llc_hit);
        assert_eq!(s.stats.replica_hits, 1);
    }

    #[test]
    fn out_gate_streams_at_32_bytes_per_cycle() {
        let mut s = slice();
        s.fill_from_memory(LineAddr::containing(0x5000), 0);
        let _ = run(&mut s, 0, 1);
        for i in 0..4 {
            s.ingress_local(req(i, 0x5000, AccessKind::Load), Role::Home);
        }
        let got = run(&mut s, 2, 80);
        assert_eq!(got.len(), 4);
        // Each 136 B reply needs ≥ ceil(136/32) = 5 gate cycles; four
        // replies span ≥ ~15 cycles even though tags grant 1/cycle.
        let span = got.last().unwrap().0 - got.first().unwrap().0;
        assert!(span >= 12, "data gate not limiting: span {span}");
    }

    #[test]
    fn mshr_exhaustion_parks_and_retries() {
        let mut s = slice();
        // 8 MSHRs; send 10 distinct misses.
        for i in 0..10u64 {
            s.ingress_local(req(i, 0x10_000 + i * 128, AccessKind::Load), Role::Home);
        }
        let _ = run(&mut s, 0, 30);
        let fetches: Vec<MemTask> = std::iter::from_fn(|| s.pop_mem_task()).collect();
        assert_eq!(fetches.len(), 8, "only 8 MSHRs worth of fetches");
        // Fill one: the parked request proceeds.
        s.fill_from_memory(LineAddr::containing(0x10_000), 31);
        let _ = run(&mut s, 31, 60);
        assert!(s.pop_mem_task().is_some(), "retried request fetched");
    }

    #[test]
    fn full_replication_flag() {
        let s = LlcSlice::new(SliceId(0), PartitionId(0), params(), None, true);
        assert!(s.replicating());
        let s2 = slice();
        assert!(!s2.replicating());
    }

    #[test]
    fn offline_slice_degrades_to_dram_without_losing_requests() {
        let mut s = slice();
        // Warm a line, then take the arrays offline.
        s.fill_from_memory(LineAddr::containing(0x6000), 0);
        let _ = run(&mut s, 0, 1);
        s.set_offline(true);
        assert!(s.is_offline());

        // A load that would hit now misses and goes to DRAM.
        s.ingress_local(req(1, 0x6000, AccessKind::Load), Role::Home);
        let _ = run(&mut s, 2, 12);
        assert_eq!(
            s.pop_mem_task(),
            Some(MemTask::Fetch(LineAddr::containing(0x6000))),
            "offline probe must miss"
        );
        // The fill is not installed but the waiter still completes.
        s.fill_from_memory(LineAddr::containing(0x6000), 13);
        let got = run(&mut s, 13, 40);
        assert_eq!(got.len(), 1, "request served despite offline arrays");
        assert!(!got[0].1.llc_hit);

        // Stores write through and ack.
        s.ingress_local(req(2, 0x6000, AccessKind::Store), Role::Home);
        let got = run(&mut s, 41, 60);
        assert_eq!(got.len(), 1);
        assert_eq!(
            s.pop_mem_task(),
            Some(MemTask::Writeback(LineAddr::containing(0x6000)))
        );

        // Revert: the pre-fault line is visible again.
        s.set_offline(false);
        s.ingress_local(req(3, 0x6000, AccessKind::Load), Role::Home);
        let got = run(&mut s, 61, 80);
        assert_eq!(got.len(), 1);
        assert!(got[0].1.llc_hit, "revert restores the arrays");
        assert_eq!(s.pending_work(), 0);
    }

    #[test]
    fn pending_work_drains_to_zero() {
        let mut s = slice();
        s.ingress_local(req(1, 0x7000, AccessKind::Load), Role::Home);
        assert!(s.pending_work() > 0);
        let _ = run(&mut s, 0, 10);
        s.fill_from_memory(LineAddr::containing(0x7000), 11);
        while s.pop_mem_task().is_some() {}
        let _ = run(&mut s, 11, 40);
        assert_eq!(s.pending_work(), 0);
    }
}
