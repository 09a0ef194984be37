//! The Streaming Multiprocessor model.
//!
//! A throughput-oriented SM: up to `issue_width` warp operations issue
//! per cycle under greedy-then-oldest (GTO-flavoured) warp selection;
//! loads complete out of order; warps stall only on translation, MSHR /
//! outstanding-request limits, or their per-warp MLP cap. Latency that
//! can be hidden by warp switching is hidden — performance is governed
//! by memory bandwidth and queueing, which is exactly the GPU property
//! the paper builds NUBA on ("memory bandwidth in GPU systems is
//! (practically) independent of latency").
//!
//! The L1 (48 KB, write-through, write-no-allocate, 128 MSHRs) lives
//! here; everything below it belongs to the owning simulator.

use nuba_cache::{CacheGeometry, MshrFile, TagArray};
use nuba_types::{AccessKind, IntMap, LineAddr, MemReply, SmId, WarpId};
use nuba_workloads::{Access, WarpOp, WarpStream};

/// SM sizing parameters.
#[derive(Debug, Clone, Copy)]
pub struct SmParams {
    /// Warp contexts.
    pub warps: usize,
    /// Maximum outstanding loads/atomics per warp before it stalls.
    pub warp_mlp: u32,
    /// Maximum outstanding requests for the whole SM.
    pub max_outstanding: usize,
    /// L1 geometry.
    pub l1_geometry: CacheGeometry,
    /// L1 MSHR entries.
    pub l1_mshrs: usize,
    /// Warp operations issued per cycle (2 schedulers in Table 1).
    pub issue_width: usize,
}

impl SmParams {
    /// Paper Table 1 parameters (48 KB 6-way L1, 64 warps, 2 schedulers).
    pub fn paper() -> SmParams {
        SmParams {
            warps: 64,
            warp_mlp: 2,
            max_outstanding: 64,
            l1_geometry: CacheGeometry::from_capacity(48 * 1024, 6),
            l1_mshrs: 128,
            issue_width: 2,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WarpState {
    Ready,
    /// Busy computing until the given cycle.
    Compute(u64),
    /// Waiting for the MMU.
    WaitTranslation,
    /// At the per-warp MLP limit.
    WaitMem,
}

struct WarpCtx {
    stream: WarpStream,
    state: WarpState,
    outstanding: u32,
    /// A fetched-but-unissued memory op (kept across stall cycles).
    pending: Option<Access>,
}

/// Why a candidate memory op could not issue this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// Downstream link/NoC port full.
    Downstream,
    /// L1 MSHRs exhausted.
    Mshr,
    /// SM outstanding-request budget exhausted.
    Outstanding,
}

/// Issue statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SmStats {
    /// Warp operations completed (memory + compute blocks).
    pub completed_ops: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// Memory requests sent downstream.
    pub issued_requests: u64,
    /// Read replies received.
    pub read_replies: u64,
    /// Replies serviced by the local partition.
    pub local_replies: u64,
    /// Replies serviced remotely.
    pub remote_replies: u64,
    /// Stall cycles by cause.
    pub stall_downstream: u64,
    /// Stalls on MSHR exhaustion.
    pub stall_mshr: u64,
    /// Stalls on the outstanding budget.
    pub stall_outstanding: u64,
    /// L1 accesses (for energy).
    pub l1_accesses: u64,
    /// Sum of issue-to-reply latencies over read replies (cycles).
    pub reply_latency_sum: u64,
    /// Maximum observed issue-to-reply latency.
    pub reply_latency_max: u64,
}

/// One SM instance.
pub struct Sm {
    id: SmId,
    params: SmParams,
    warps: Vec<WarpCtx>,
    l1: TagArray,
    l1_mshr: MshrFile<WarpId>,
    outstanding: usize,
    next_warp: usize,
    scanned: usize,
    translation_waiters: IntMap<u64, Vec<WarpId>>,
    /// Recycled waiter vectors for `translation_waiters` entries, so the
    /// translate-miss path stops allocating once warmed up.
    waiter_pool: Vec<Vec<WarpId>>,
    /// Derived wake state (DESIGN.md §18.5), never serialised: a full
    /// scan at some cycle found no warp `Ready` and no `Compute`
    /// deadline before this cycle, so until then — or until a wake
    /// edge clears it — another scan would find the same. `0` is
    /// "awake", `u64::MAX` "until woken".
    idle_until: u64,
    /// Statistics (public for the simulator's report).
    pub stats: SmStats,
}

impl Sm {
    /// Build an SM whose warps run the given streams.
    ///
    /// # Panics
    /// Panics if `streams` is empty or larger than `params.warps`.
    pub fn new(id: SmId, params: SmParams, streams: Vec<WarpStream>) -> Sm {
        assert!(!streams.is_empty() && streams.len() <= params.warps);
        Sm {
            id,
            params,
            warps: streams
                .into_iter()
                .map(|stream| WarpCtx {
                    stream,
                    state: WarpState::Ready,
                    outstanding: 0,
                    pending: None,
                })
                .collect(),
            l1: TagArray::new(params.l1_geometry),
            l1_mshr: MshrFile::with_waiters(params.l1_mshrs, 16, l1_waiter_bound(params)),
            outstanding: 0,
            next_warp: 0,
            scanned: 0,
            translation_waiters: IntMap::default(),
            waiter_pool: Vec::new(),
            idle_until: 0,
            stats: SmStats::default(),
        }
    }

    /// This SM's id.
    pub fn id(&self) -> SmId {
        self.id
    }

    /// Requests currently in flight below the L1.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Reset the per-cycle scan budget; call once per cycle before
    /// [`Sm::poll`].
    pub fn begin_cycle(&mut self) {
        self.scanned = 0;
    }

    /// Whether every warp is blocked past `now`: a scan this cycle
    /// would visit all of them, wake none and return nothing. The
    /// issue loop calls [`Sm::skip_idle`] instead of polling.
    pub fn asleep(&self, now: u64) -> bool {
        now < self.idle_until
    }

    /// Pick the next issuable warp and its pending memory access.
    ///
    /// Compute blocks are committed internally (they need no resources);
    /// only memory ops are returned, for the simulator to translate,
    /// route and then commit or stall. Returns `None` when no warp can
    /// issue this cycle.
    pub fn poll(&mut self, now: u64) -> Option<(WarpId, Access)> {
        let n = self.warps.len();
        let full_scan = self.scanned == 0;
        // Earliest `Compute` deadline among the warps this call passes
        // over (`u64::MAX`: none, they all wait on the MMU or a reply).
        let mut wake = u64::MAX;
        while self.scanned < n {
            // `next_warp < n` and `scanned < n`: one conditional
            // subtract wraps the index. (A `%` here is a hardware
            // divide per warp scanned, ~2 000 a simulated cycle.)
            let mut idx = self.next_warp + self.scanned;
            if idx >= n {
                idx -= n;
            }
            self.scanned += 1;
            let w = &mut self.warps[idx];
            // Lazy wake-ups.
            if let WarpState::Compute(until) = w.state {
                if until <= now {
                    w.state = WarpState::Ready;
                    self.stats.completed_ops += 1; // the compute block
                } else {
                    wake = wake.min(until);
                    continue;
                }
            }
            if w.state != WarpState::Ready {
                continue;
            }
            let access = match w.pending {
                Some(a) => a,
                None => match w.stream.next_op() {
                    WarpOp::Compute(c) => {
                        w.state = WarpState::Compute(now + c as u64);
                        wake = wake.min(now + c as u64);
                        continue;
                    }
                    WarpOp::Mem(a) => {
                        w.pending = Some(a);
                        a
                    }
                },
            };
            // Greedy: keep the pointer on this warp (GTO flavour).
            self.next_warp = idx;
            // Mark as scanned so a stalled warp is not retried this cycle.
            return Some((WarpId(idx), access));
        }
        if full_scan {
            // Every warp was visited by this one call and none can
            // issue: sleep until the first compute block ends.
            self.idle_until = wake;
        }
        None
    }

    /// The warp's op could not issue; it retries next cycle. Advances
    /// warp selection past it.
    pub fn stall(&mut self, warp: WarpId, reason: StallReason) {
        match reason {
            StallReason::Downstream => self.stats.stall_downstream += 1,
            StallReason::Mshr => self.stats.stall_mshr += 1,
            StallReason::Outstanding => self.stats.stall_outstanding += 1,
        }
        self.advance_past(warp);
    }

    /// Move warp selection to the warp after `warp` (`warp.0 < n`, so a
    /// compare wraps it; a `%` is a hardware divide per stalled poll).
    fn advance_past(&mut self, warp: WarpId) {
        let next = warp.0 + 1;
        self.next_warp = if next == self.warps.len() { 0 } else { next };
    }

    /// Whether a new downstream request fits the SM outstanding budget.
    pub fn can_issue_request(&self) -> bool {
        self.outstanding < self.params.max_outstanding
    }

    /// Probe the L1 for a load; on a hit the op completes immediately.
    /// Returns `true` on hit.
    pub fn l1_load_probe(&mut self, warp: WarpId, line: LineAddr, now: u64) -> bool {
        self.stats.l1_accesses += 1;
        if self.l1.probe_and_touch(line, now) {
            self.warps[warp.0].pending = None;
            self.stats.completed_ops += 1;
            self.stats.l1_hits += 1;
            true
        } else {
            false
        }
    }

    /// Whether a load miss on `line` can merge into an existing L1 MSHR
    /// (outstanding fill with merge-list room).
    pub fn mshr_mergeable(&self, line: LineAddr) -> bool {
        self.l1_mshr.can_merge(line)
    }

    /// Whether a fill for `line` is already outstanding (merge-list may
    /// be full).
    pub fn mshr_outstanding(&self, line: LineAddr) -> bool {
        self.l1_mshr.contains(line)
    }

    /// Whether a fresh primary miss can allocate an MSHR.
    pub fn mshr_available(&self) -> bool {
        self.l1_mshr.has_free_entry()
    }

    /// Read the L1 MSHR occupancy high-water mark and re-arm it at the
    /// current occupancy (telemetry samples per-window pressure).
    pub fn take_l1_mshr_peak(&mut self) -> usize {
        self.l1_mshr.take_peak()
    }

    /// Commit a load miss: allocate/merge the MSHR. Returns `true` if a
    /// downstream request must be sent (primary miss).
    ///
    /// # Panics
    /// Panics if the MSHR cannot accept (callers check first).
    pub fn commit_load_miss(&mut self, warp: WarpId, line: LineAddr) -> bool {
        let primary = match self.l1_mshr.allocate(line, warp) {
            Ok(nuba_cache::MshrOutcome::Primary) => true,
            Ok(nuba_cache::MshrOutcome::Secondary) => false,
            Ok(o) | Err((o, _)) => panic!("mshr refused after checks: {o:?}"),
        };
        let w = &mut self.warps[warp.0];
        w.pending = None;
        w.outstanding += 1;
        if w.outstanding >= self.params.warp_mlp {
            w.state = WarpState::WaitMem;
        }
        if primary {
            self.outstanding += 1;
            self.stats.issued_requests += 1;
        }
        primary
    }

    /// Commit a store or atomic going downstream.
    pub fn commit_write(&mut self, warp: WarpId, kind: AccessKind) {
        nuba_types::invariant!("sm_commit_write_is_write", kind.is_write(), "{kind:?}");
        let w = &mut self.warps[warp.0];
        w.pending = None;
        if kind == AccessKind::Atomic {
            w.outstanding += 1;
            if w.outstanding >= self.params.warp_mlp {
                w.state = WarpState::WaitMem;
            }
        }
        self.outstanding += 1;
        self.stats.issued_requests += 1;
        self.stats.l1_accesses += 1;
    }

    /// Block `warp` until the MMU resolves `vpage`.
    pub fn block_translation(&mut self, warp: WarpId, vpage: u64) {
        self.warps[warp.0].state = WarpState::WaitTranslation;
        self.translation_waiters
            .entry(vpage)
            .or_insert_with(|| self.waiter_pool.pop().unwrap_or_default())
            .push(warp);
        self.advance_past(warp);
    }

    /// The MMU resolved `vpage`; wake its waiters (they retry issue).
    pub fn complete_translation(&mut self, vpage: u64) {
        if let Some(mut waiters) = self.translation_waiters.remove(&vpage) {
            for warp in waiters.drain(..) {
                let w = &mut self.warps[warp.0];
                if w.state == WarpState::WaitTranslation {
                    w.state = WarpState::Ready;
                    self.idle_until = 0;
                }
            }
            self.waiter_pool.push(waiters);
        }
    }

    /// Deliver a memory reply; `local` says whether it was serviced in
    /// this SM's partition (Fig. 9 accounting).
    pub fn handle_reply(&mut self, reply: MemReply, now: u64, local: bool) {
        nuba_types::invariant!(
            "sm_reply_routed_home",
            reply.sm == self.id,
            "reply for {:?} delivered to {:?}",
            reply.sm,
            self.id
        );
        self.outstanding = self.outstanding.saturating_sub(1);
        if reply.kind.is_read() {
            self.stats.read_replies += 1;
            let lat = now.saturating_sub(reply.issue_cycle);
            self.stats.reply_latency_sum += lat;
            self.stats.reply_latency_max = self.stats.reply_latency_max.max(lat);
        }
        if local {
            self.stats.local_replies += 1;
        } else {
            self.stats.remote_replies += 1;
        }
        match reply.kind {
            AccessKind::Load | AccessKind::LoadReadOnly => {
                // Fill the L1 (write-through caches evict clean lines);
                // streaming loads bypass it.
                if !reply.bypass_l1 {
                    self.l1.insert(reply.line, false, false, now);
                }
                let mut waiters = self.l1_mshr.complete(reply.line);
                for warp in waiters.drain(..) {
                    self.finish_warp_access(warp);
                }
                self.l1_mshr.recycle(waiters);
            }
            AccessKind::Atomic => {
                self.finish_warp_access(reply.warp);
            }
            AccessKind::Store => {
                self.stats.completed_ops += 1;
            }
        }
    }

    fn finish_warp_access(&mut self, warp: WarpId) {
        self.stats.completed_ops += 1;
        let mlp = self.params.warp_mlp;
        let w = &mut self.warps[warp.0];
        w.outstanding = w.outstanding.saturating_sub(1);
        if w.state == WarpState::WaitMem && w.outstanding < mlp {
            w.state = WarpState::Ready;
            self.idle_until = 0;
        }
    }

    /// Drop all L1 contents (kernel boundary).
    pub fn flush_l1(&mut self) {
        let _ = self.l1.flush();
    }

    /// Earliest cycle `>= now` at which this SM does work (see
    /// [`nuba_engine::NextEvent`]): any `Ready` warp issues (or at
    /// least accrues stall accounting) every cycle; a computing warp
    /// wakes at its deadline; translation- and memory-blocked warps
    /// wait on events owned by the MMU and the reply path.
    pub fn next_event_cycle(&self, now: u64) -> Option<u64> {
        if self.asleep(now) {
            // The sleep deadline is the scan's answer, already taken.
            return (self.idle_until != u64::MAX).then_some(self.idle_until);
        }
        let mut next = None;
        for w in &self.warps {
            match w.state {
                WarpState::Ready => return Some(now),
                WarpState::Compute(until) => {
                    if until <= now {
                        return Some(now);
                    }
                    next = nuba_engine::earliest(next, Some(until));
                }
                WarpState::WaitTranslation | WarpState::WaitMem => {}
            }
        }
        next
    }

    /// Catch up the per-cycle scan budget after idle cycles that were
    /// not polled (a time-skip jump, or cycles spent [`asleep`]): a
    /// polled idle cycle ends with every warp scanned and nothing
    /// issued, so `scanned` lands on `warps.len()` (and `next_warp`
    /// stays put). Keeps checkpoints byte-identical to per-cycle
    /// polling.
    ///
    /// [`asleep`]: Sm::asleep
    pub fn skip_idle(&mut self) {
        self.scanned = self.warps.len();
    }
}

/// Most waiters an SM's L1 MSHR file can hold at once: each is a load
/// its warp has in flight, and a warp stops issuing at `warp_mlp`.
fn l1_waiter_bound(params: SmParams) -> usize {
    params.warps * params.warp_mlp as usize
}

impl StateValue for WarpState {
    fn put(&self, w: &mut StateWriter) {
        match self {
            WarpState::Ready => w.put_u8(0),
            WarpState::Compute(until) => {
                w.put_u8(1);
                until.put(w);
            }
            WarpState::WaitTranslation => w.put_u8(2),
            WarpState::WaitMem => w.put_u8(3),
        }
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(match r.get_u8()? {
            0 => WarpState::Ready,
            1 => WarpState::Compute(u64::get(r)?),
            2 => WarpState::WaitTranslation,
            3 => WarpState::WaitMem,
            tag => {
                return Err(StateError::BadTag {
                    what: "WarpState",
                    tag,
                })
            }
        })
    }
}

impl SaveState for WarpCtx {
    fn save(&self, w: &mut StateWriter) {
        self.stream.save(w);
        self.state.put(w);
        self.outstanding.put(w);
        self.pending.put(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.stream.restore(r)?;
        self.state = WarpState::get(r)?;
        self.outstanding = u32::get(r)?;
        self.pending = Option::get(r)?;
        Ok(())
    }
}

impl SaveState for Sm {
    fn save(&self, w: &mut StateWriter) {
        // Params and id are configuration; warp contexts, caches, scan
        // cursors and counters are the dynamic state.
        save_items(w, &self.warps);
        self.l1.save(w);
        self.l1_mshr.save(w);
        self.outstanding.put(w);
        self.next_warp.put(w);
        self.scanned.put(w);
        save_map(w, &self.translation_waiters);
        self.stats.completed_ops.put(w);
        self.stats.l1_hits.put(w);
        self.stats.issued_requests.put(w);
        self.stats.read_replies.put(w);
        self.stats.local_replies.put(w);
        self.stats.remote_replies.put(w);
        self.stats.stall_downstream.put(w);
        self.stats.stall_mshr.put(w);
        self.stats.stall_outstanding.put(w);
        self.stats.l1_accesses.put(w);
        self.stats.reply_latency_sum.put(w);
        self.stats.reply_latency_max.put(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        restore_items(r, "SM warp contexts", &mut self.warps)?;
        self.l1.restore(r)?;
        self.l1_mshr.restore(r)?;
        self.outstanding = usize::get(r)?;
        let next_warp = usize::get(r)?;
        if next_warp >= self.warps.len() {
            return Err(StateError::Corrupt("warp selection pointer out of range"));
        }
        self.next_warp = next_warp;
        self.scanned = usize::get(r)?;
        // Derived, not saved: awake, so the first poll re-derives it.
        self.idle_until = 0;
        restore_map(r, &mut self.translation_waiters)?;
        // The recycled-vector pool is scratch: waiters popped from it are
        // interchangeable empty vectors, so start it empty.
        self.waiter_pool.clear();
        self.stats.completed_ops = u64::get(r)?;
        self.stats.l1_hits = u64::get(r)?;
        self.stats.issued_requests = u64::get(r)?;
        self.stats.read_replies = u64::get(r)?;
        self.stats.local_replies = u64::get(r)?;
        self.stats.remote_replies = u64::get(r)?;
        self.stats.stall_downstream = u64::get(r)?;
        self.stats.stall_mshr = u64::get(r)?;
        self.stats.stall_outstanding = u64::get(r)?;
        self.stats.l1_accesses = u64::get(r)?;
        self.stats.reply_latency_sum = u64::get(r)?;
        self.stats.reply_latency_max = u64::get(r)?;
        Ok(())
    }
}

use nuba_types::state::{
    restore_items, restore_map, save_items, save_map, SaveState, StateError, StateReader,
    StateValue, StateWriter,
};

#[cfg(test)]
mod tests {
    use super::*;
    use nuba_types::SliceId;
    use nuba_workloads::{BenchmarkId, ScaleProfile, Workload};

    fn sm_with_streams(n: usize) -> Sm {
        let wl = Workload::build(BenchmarkId::Lbm, ScaleProfile::fast(), 64, 9);
        let streams = (0..n).map(|w| wl.stream(SmId(0), WarpId(w))).collect();
        Sm::new(
            SmId(0),
            SmParams {
                warps: n,
                ..SmParams::paper()
            },
            streams,
        )
    }

    fn reply(id: u64, line: u64, kind: AccessKind, warp: usize) -> MemReply {
        MemReply {
            id: nuba_types::ReqId(id),
            sm: SmId(0),
            warp: WarpId(warp),
            line: LineAddr::containing(line),
            kind,
            serviced_by: SliceId(0),
            llc_hit: true,
            issue_cycle: 0,
            replica_fill: false,
            bypass_l1: false,
        }
    }

    #[test]
    fn poll_returns_memory_ops() {
        let mut sm = sm_with_streams(4);
        sm.begin_cycle();
        let got = sm.poll(0);
        assert!(got.is_some());
    }

    #[test]
    fn stalled_warp_not_repolled_same_cycle() {
        let mut sm = sm_with_streams(1);
        sm.begin_cycle();
        let (w, _) = sm.poll(0).expect("one warp");
        sm.stall(w, StallReason::Downstream);
        assert!(sm.poll(0).is_none(), "single stalled warp must not re-poll");
        sm.begin_cycle();
        assert!(sm.poll(1).is_some(), "retries next cycle");
        assert_eq!(sm.stats.stall_downstream, 1);
    }

    #[test]
    fn l1_hit_completes_immediately() {
        let mut sm = sm_with_streams(2);
        let line = LineAddr::containing(0x5000);
        // Warm the L1 via a reply fill.
        sm.commit_load_miss_warmup(line);
        sm.begin_cycle();
        let (w, _) = sm.poll(0).unwrap();
        assert!(sm.l1_load_probe(w, line, 0));
        assert_eq!(sm.stats.l1_hits, 1);
        assert_eq!(sm.stats.completed_ops, 1);
    }

    impl Sm {
        /// Test helper: make `line` resident in the L1.
        fn commit_load_miss_warmup(&mut self, line: LineAddr) {
            self.l1.insert(line, false, false, 0);
        }
    }

    #[test]
    fn mlp_limit_blocks_warp() {
        let mut sm = sm_with_streams(1);
        sm.begin_cycle();
        let (w, _) = sm.poll(0).unwrap();
        assert!(sm.commit_load_miss(w, LineAddr::containing(0x100)));
        // warp_mlp = 2: a second miss parks the warp.
        sm.begin_cycle();
        let polled = sm.poll(1);
        if let Some((w2, _)) = polled {
            sm.commit_load_miss(w2, LineAddr::containing(0x200));
            sm.begin_cycle();
            assert!(sm.poll(2).is_none(), "warp at MLP limit must wait");
        }
        // A reply frees a slot; poll late enough that any interleaved
        // compute block has finished.
        sm.handle_reply(reply(1, 0x100, AccessKind::Load, 0), 3, true);
        sm.begin_cycle();
        assert!(sm.poll(50).is_some());
    }

    #[test]
    fn secondary_miss_sends_nothing() {
        let mut sm = sm_with_streams(2);
        let line = LineAddr::containing(0x900);
        sm.begin_cycle();
        let (w0, _) = sm.poll(0).unwrap();
        assert!(sm.commit_load_miss(w0, line), "primary sends");
        let (w1, _) = sm.poll(0).expect("second warp");
        assert_ne!(w0, w1);
        assert!(!sm.commit_load_miss(w1, line), "secondary merges");
        assert_eq!(sm.outstanding(), 1);
        // One reply wakes both waiters.
        sm.handle_reply(reply(1, 0x900, AccessKind::Load, 0), 5, false);
        assert_eq!(sm.stats.completed_ops, 2);
        assert_eq!(sm.outstanding(), 0);
        assert_eq!(sm.stats.remote_replies, 1);
    }

    #[test]
    fn translation_blocking_and_wake() {
        let mut sm = sm_with_streams(1);
        sm.begin_cycle();
        let (w, a) = sm.poll(0).unwrap();
        let vpage = a.vaddr.0 / 4096;
        sm.block_translation(w, vpage);
        sm.begin_cycle();
        assert!(sm.poll(1).is_none());
        sm.complete_translation(vpage);
        sm.begin_cycle();
        let retried = sm.poll(2).expect("woken warp retries");
        assert_eq!(retried.1, a, "pending op preserved across translation");
    }

    #[test]
    fn store_counts_on_ack() {
        let mut sm = sm_with_streams(1);
        sm.begin_cycle();
        let (w, _) = sm.poll(0).unwrap();
        sm.commit_write(w, AccessKind::Store);
        assert_eq!(sm.outstanding(), 1);
        assert_eq!(sm.stats.completed_ops, 0);
        sm.handle_reply(reply(2, 0x40, AccessKind::Store, 0), 9, true);
        assert_eq!(sm.stats.completed_ops, 1);
        assert_eq!(sm.stats.local_replies, 1);
    }

    #[test]
    fn compute_blocks_complete_later() {
        // Conv3d has gap 12 → every other op is compute.
        let wl = Workload::build(BenchmarkId::Conv3d, ScaleProfile::fast(), 64, 9);
        let streams = vec![wl.stream(SmId(0), WarpId(0))];
        let mut sm = Sm::new(
            SmId(0),
            SmParams {
                warps: 1,
                ..SmParams::paper()
            },
            streams,
        );
        let mut mem_ops = 0;
        for c in 0..200 {
            sm.begin_cycle();
            while let Some((w, a)) = sm.poll(c) {
                // Complete everything as L1 hits for simplicity.
                sm.commit_load_miss_warmup(LineAddr::containing(a.vaddr.0));
                assert!(sm.l1_load_probe(w, LineAddr::containing(a.vaddr.0), c));
                mem_ops += 1;
            }
        }
        assert!(mem_ops > 0);
        // Compute blocks completed too.
        assert!(sm.stats.completed_ops > mem_ops);
    }

    #[test]
    fn outstanding_budget_enforced() {
        let mut sm_params_small = SmParams::paper();
        sm_params_small.max_outstanding = 2;
        let wl = Workload::build(BenchmarkId::Lbm, ScaleProfile::fast(), 64, 9);
        let streams = (0..8).map(|w| wl.stream(SmId(0), WarpId(w))).collect();
        let mut sm = Sm::new(
            SmId(0),
            SmParams {
                warps: 8,
                ..sm_params_small
            },
            streams,
        );
        sm.begin_cycle();
        let mut issued = 0;
        let mut lines = 0x1000u64;
        while let Some((w, a)) = sm.poll(0) {
            if !sm.can_issue_request() {
                sm.stall(w, StallReason::Outstanding);
                continue;
            }
            let _ = a;
            lines += 128;
            sm.commit_load_miss(w, LineAddr::containing(lines));
            issued += 1;
        }
        assert_eq!(issued, 2);
        assert!(!sm.can_issue_request());
    }
}
