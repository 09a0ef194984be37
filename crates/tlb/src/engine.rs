//! The two-level translation engine: L1 TLBs, shared L2 TLB, walker pool
//! and page-fault path.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use nuba_types::addr::PageNum;
use nuba_types::{IntMap, SmId};

use crate::tlb::Tlb;

/// Timing/geometry parameters for the translation hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbParams {
    /// Entries in each SM's L1 TLB.
    pub l1_entries: usize,
    /// L1 TLB associativity (full associativity is modelled with a
    /// moderate way count for simulation speed; reach is what matters).
    pub l1_ways: usize,
    /// Entries in the shared L2 TLB.
    pub l2_entries: usize,
    /// L2 TLB associativity.
    pub l2_ways: usize,
    /// L2 TLB access latency in cycles.
    pub l2_latency: u64,
    /// L2 TLB ports (lookups that may start per cycle).
    pub l2_ports: usize,
    /// Concurrent page-table walkers.
    pub walkers: usize,
    /// Page-table walk latency in cycles.
    pub walk_latency: u64,
    /// Extra penalty when the page is unmapped (first-touch fault).
    pub fault_latency: u64,
}

impl TlbParams {
    /// The paper's Table 1 configuration (with the scaled-down fault
    /// penalty discussed in DESIGN.md).
    pub fn paper() -> TlbParams {
        TlbParams {
            l1_entries: 128,
            l1_ways: 8,
            l2_entries: 512,
            l2_ways: 16,
            l2_latency: 10,
            l2_ports: 2,
            walkers: 64,
            walk_latency: 160,
            fault_latency: 2_000,
        }
    }
}

/// Immediate outcome of a translation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslationOutcome {
    /// L1 TLB hit: translation available this cycle.
    HitL1,
    /// Miss: the engine will emit a [`CompletedTranslation`] later.
    Pending,
}

/// A finished translation delivered by [`TranslationEngine::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedTranslation {
    /// The SM that asked.
    pub sm: SmId,
    /// The translated virtual page.
    pub vpage: PageNum,
    /// Whether this translation took a first-touch page fault (the
    /// caller must have the driver allocate the page).
    pub faulted: bool,
}

/// Counters for the translation hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// L1 TLB hits across all SMs.
    pub l1_hits: u64,
    /// L1 TLB misses across all SMs.
    pub l1_misses: u64,
    /// L2 TLB hits.
    pub l2_hits: u64,
    /// L2 TLB misses (walks started or merged).
    pub l2_misses: u64,
    /// Page-table walks performed.
    pub walks: u64,
    /// First-touch page faults taken.
    pub faults: u64,
}

#[derive(Debug)]
enum Stage {
    L2Queued,
    L2Access { done_at: u64 },
    WalkQueued,
    Walking { done_at: u64 },
}

#[derive(Debug)]
struct Outstanding {
    waiters: Vec<SmId>,
    mapped: bool,
    stage: Stage,
}

/// The shared MMU: per-SM L1 TLBs, one L2 TLB, and a walker pool.
///
/// Outstanding translations are tracked per virtual page; concurrent
/// misses from different SMs merge into a single L2 access / walk.
#[derive(Debug)]
pub struct TranslationEngine {
    params: TlbParams,
    l1: Vec<Tlb>,
    l2: Tlb,
    outstanding: IntMap<PageNum, Outstanding>,
    /// FIFO of pages waiting for an L2 port.
    l2_queue: VecDeque<PageNum>,
    /// FIFO of pages waiting for a walker.
    walk_queue: VecDeque<PageNum>,
    active_walks: usize,
    /// Fault-injection flag: while set, in-flight walks complete but no
    /// new walk may start (the walker pool is stalled).
    walker_stall: bool,
    /// High-water mark of concurrently outstanding translations.
    peak_outstanding: usize,
    stats: TlbStats,
    /// In-flight L2 accesses as `(done_at, page)`, in start order. The
    /// latency is one constant, so start order is completion order.
    /// With `walks`, derived from the `stage`s in `outstanding`
    /// (DESIGN.md §18.5): never serialised, rebuilt in `restore`.
    l2_inflight: VecDeque<(u64, PageNum)>,
    /// In-flight walks, earliest `done_at` first. Not a FIFO: a
    /// faulting walk takes `fault_latency` longer than one started
    /// after it.
    walks: BinaryHeap<Reverse<(u64, PageNum)>>,
    /// Reusable scratch for the pages whose L2 access / walk finishes
    /// this cycle: avoids a per-cycle allocation and — because it is
    /// sorted by page — keeps completion order (which feeds fault
    /// handling and LRU state) a function of the pages alone.
    ready: Vec<PageNum>,
    /// Free list recycling the per-page waiter vectors.
    waiter_pool: Vec<Vec<SmId>>,
}

impl TranslationEngine {
    /// Build the hierarchy for `num_sms` SMs.
    ///
    /// # Panics
    /// Panics on zero-sized parameters.
    pub fn new(params: TlbParams, num_sms: usize) -> TranslationEngine {
        assert!(num_sms > 0 && params.l2_ports > 0 && params.walkers > 0);
        TranslationEngine {
            params,
            l1: (0..num_sms)
                .map(|_| Tlb::new(params.l1_entries, params.l1_ways.min(params.l1_entries)))
                .collect(),
            l2: Tlb::new(params.l2_entries, params.l2_ways),
            outstanding: IntMap::default(),
            l2_queue: VecDeque::new(),
            walk_queue: VecDeque::new(),
            active_walks: 0,
            walker_stall: false,
            peak_outstanding: 0,
            stats: TlbStats::default(),
            // At most `l2_ports` accesses start a cycle and each lasts
            // `l2_latency`; walks are bounded by the walker pool.
            l2_inflight: VecDeque::with_capacity(params.l2_ports * params.l2_latency as usize),
            walks: BinaryHeap::with_capacity(params.walkers),
            ready: Vec::new(),
            waiter_pool: Vec::new(),
        }
    }

    /// Request a translation for (`sm`, `vpage`). `mapped` tells the
    /// engine whether the page already exists in the page table — if not,
    /// the fault penalty is charged and the completion carries
    /// `faulted = true` so the caller can invoke the driver.
    pub fn request(
        &mut self,
        sm: SmId,
        vpage: PageNum,
        now: u64,
        mapped: bool,
    ) -> TranslationOutcome {
        self.request_with(sm, vpage, now, || mapped)
    }

    /// [`request`](TranslationEngine::request) for a caller that has to
    /// look `mapped` up: the engine only needs it when this request
    /// opens a new outstanding translation (an L1-TLB miss no earlier
    /// miss on the page is still resolving), so it asks only then. The
    /// simulator's issue loop hits the L1 TLB on nearly every poll and
    /// skips the page-table lookup entirely.
    pub fn request_with(
        &mut self,
        sm: SmId,
        vpage: PageNum,
        _now: u64,
        mapped: impl FnOnce() -> bool,
    ) -> TranslationOutcome {
        if self.l1[sm.0].lookup(vpage) {
            self.stats.l1_hits += 1;
            return TranslationOutcome::HitL1;
        }
        self.stats.l1_misses += 1;
        if let Some(o) = self.outstanding.get_mut(&vpage) {
            o.waiters.push(sm);
            return TranslationOutcome::Pending;
        }
        let mut waiters = self.waiter_pool.pop().unwrap_or_default();
        waiters.push(sm);
        self.outstanding.insert(
            vpage,
            Outstanding {
                waiters,
                mapped: mapped(),
                stage: Stage::L2Queued,
            },
        );
        self.l2_queue.push_back(vpage);
        self.peak_outstanding = self.peak_outstanding.max(self.outstanding.len());
        TranslationOutcome::Pending
    }

    /// Advance one cycle; completed translations are appended to `done`.
    pub fn tick(&mut self, now: u64, done: &mut Vec<CompletedTranslation>) {
        // Idle fast-path: nothing in flight means every section below is
        // a no-op (pages only sit in the port/walker queues while they
        // have an `outstanding` entry).
        if self.outstanding.is_empty() && self.l2_queue.is_empty() && self.walk_queue.is_empty() {
            return;
        }

        // Finish L2 accesses and walks: pop what is due off the two
        // time-ordered queues, then complete in page order — completion
        // order feeds fault handling (page placement) and L2 LRU state,
        // so it must not depend on which queue a page sat in.
        let mut ready = std::mem::take(&mut self.ready);
        while let Some(&(done_at, vpage)) = self.l2_inflight.front() {
            if done_at > now {
                break;
            }
            self.l2_inflight.pop_front();
            ready.push(vpage);
        }
        while let Some(&Reverse((done_at, vpage))) = self.walks.peek() {
            if done_at > now {
                break;
            }
            self.walks.pop();
            ready.push(vpage);
        }
        ready.sort_unstable();
        for &vpage in &ready {
            let o = self.outstanding.get_mut(&vpage).expect("present");
            match o.stage {
                Stage::L2Access { .. } => {
                    if self.l2.lookup(vpage) {
                        self.stats.l2_hits += 1;
                        let o = self.outstanding.remove(&vpage).expect("present");
                        Self::complete(&mut self.l1, vpage, false, &o.waiters, done);
                        self.recycle(o);
                    } else {
                        self.stats.l2_misses += 1;
                        o.stage = Stage::WalkQueued;
                        self.walk_queue.push_back(vpage);
                    }
                }
                Stage::Walking { .. } => {
                    self.active_walks -= 1;
                    let o = self.outstanding.remove(&vpage).expect("present");
                    self.l2.insert(vpage);
                    let faulted = !o.mapped;
                    if faulted {
                        self.stats.faults += 1;
                    }
                    Self::complete(&mut self.l1, vpage, faulted, &o.waiters, done);
                    self.recycle(o);
                }
                _ => unreachable!("only in-flight pages are queued by time"),
            }
        }
        ready.clear();
        self.ready = ready;

        // Start walks while walkers are free (unless fault-stalled).
        while !self.walker_stall && self.active_walks < self.params.walkers {
            let Some(vpage) = self.walk_queue.pop_front() else {
                break;
            };
            let Some(o) = self.outstanding.get_mut(&vpage) else {
                continue;
            };
            let extra = if o.mapped {
                0
            } else {
                self.params.fault_latency
            };
            let done_at = now + self.params.walk_latency + extra;
            o.stage = Stage::Walking { done_at };
            self.walks.push(Reverse((done_at, vpage)));
            self.active_walks += 1;
            self.stats.walks += 1;
        }

        // Start up to `l2_ports` L2 accesses.
        for _ in 0..self.params.l2_ports {
            let Some(vpage) = self.l2_queue.pop_front() else {
                break;
            };
            let Some(o) = self.outstanding.get_mut(&vpage) else {
                continue;
            };
            let done_at = now + self.params.l2_latency;
            o.stage = Stage::L2Access { done_at };
            self.l2_inflight.push_back((done_at, vpage));
        }
    }

    /// Earliest cycle `>= now` at which ticking changes state (see
    /// [`nuba_engine::NextEvent`]). Busy now when any access or walk
    /// has completed, or a queued page could start; otherwise the
    /// earliest in-flight `done_at`. A walk queue blocked behind a
    /// walker-stall fault with nothing in flight reports `None` — the
    /// reverting fault edge is a jump cap in the caller, so the stall
    /// window itself is skippable.
    pub fn next_event_cycle(&self, now: u64) -> Option<u64> {
        if !self.l2_queue.is_empty() {
            return Some(now);
        }
        if !self.walk_queue.is_empty()
            && !self.walker_stall
            && self.active_walks < self.params.walkers
        {
            return Some(now);
        }
        let l2 = self.l2_inflight.front().map(|&(t, _)| t);
        let walk = self.walks.peek().map(|&Reverse((t, _))| t);
        nuba_engine::earliest(l2, walk).map(|t| t.max(now))
    }

    fn recycle(&mut self, mut o: Outstanding) {
        o.waiters.clear();
        self.waiter_pool.push(o.waiters);
    }

    fn complete(
        l1: &mut [Tlb],
        vpage: PageNum,
        faulted: bool,
        waiters: &[SmId],
        done: &mut Vec<CompletedTranslation>,
    ) {
        for &sm in waiters {
            l1[sm.0].insert(vpage);
            done.push(CompletedTranslation { sm, vpage, faulted });
        }
    }

    /// Per-page shootdown: drop `vpage` from every L1 TLB and the L2
    /// (page migration/remap).
    pub fn invalidate(&mut self, vpage: PageNum) {
        for t in &mut self.l1 {
            t.invalidate(vpage);
        }
        self.l2.invalidate(vpage);
    }

    /// Flush all TLBs (kernel boundary).
    pub fn flush(&mut self) {
        for t in &mut self.l1 {
            t.flush();
        }
        self.l2.flush();
    }

    /// Fault-injection hook: stall (`true`) or release (`false`) the
    /// page-table walker pool. Walks already in flight finish normally;
    /// queued walks wait. Misses keep merging into `outstanding`
    /// entries while stalled, so releasing the stall drains the backlog
    /// without losing requests.
    pub fn set_walker_stall(&mut self, stalled: bool) {
        self.walker_stall = stalled;
    }

    /// Translations still in flight.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Read the outstanding-translation high-water mark and re-arm it
    /// at the current level (per-window MMU pressure sampling).
    pub fn take_peak_outstanding(&mut self) -> usize {
        let peak = self.peak_outstanding;
        self.peak_outstanding = self.outstanding.len();
        peak
    }

    /// Counters so far.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }
}

impl StateValue for Stage {
    fn put(&self, w: &mut StateWriter) {
        match *self {
            Stage::L2Queued => w.put_u8(0),
            Stage::L2Access { done_at } => {
                w.put_u8(1);
                done_at.put(w);
            }
            Stage::WalkQueued => w.put_u8(2),
            Stage::Walking { done_at } => {
                w.put_u8(3);
                done_at.put(w);
            }
        }
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(match r.get_u8()? {
            0 => Stage::L2Queued,
            1 => Stage::L2Access {
                done_at: u64::get(r)?,
            },
            2 => Stage::WalkQueued,
            3 => Stage::Walking {
                done_at: u64::get(r)?,
            },
            t => {
                return Err(StateError::BadTag {
                    what: "Stage",
                    tag: t,
                })
            }
        })
    }
}

impl StateValue for Outstanding {
    fn put(&self, w: &mut StateWriter) {
        self.waiters.put(w);
        self.mapped.put(w);
        self.stage.put(w);
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(Outstanding {
            waiters: Vec::<SmId>::get(r)?,
            mapped: bool::get(r)?,
            stage: Stage::get(r)?,
        })
    }
}

impl StateValue for TlbStats {
    fn put(&self, w: &mut StateWriter) {
        self.l1_hits.put(w);
        self.l1_misses.put(w);
        self.l2_hits.put(w);
        self.l2_misses.put(w);
        self.walks.put(w);
        self.faults.put(w);
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(TlbStats {
            l1_hits: u64::get(r)?,
            l1_misses: u64::get(r)?,
            l2_hits: u64::get(r)?,
            l2_misses: u64::get(r)?,
            walks: u64::get(r)?,
            faults: u64::get(r)?,
        })
    }
}

impl SaveState for TranslationEngine {
    fn save(&self, w: &mut StateWriter) {
        w.put_u32(self.l1.len() as u32);
        for t in &self.l1 {
            t.save(w);
        }
        self.l2.save(w);
        save_map(w, &self.outstanding);
        self.l2_queue.put(w);
        self.walk_queue.put(w);
        self.active_walks.put(w);
        self.walker_stall.put(w);
        self.peak_outstanding.put(w);
        self.stats.put(w);
        // `ready` is drained within each tick; the waiter pool is
        // rebuilt empty (its contents are recycled scratch vectors).
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let n = r.get_u32()? as usize;
        if n != self.l1.len() {
            return Err(StateError::LengthMismatch {
                what: "L1 TLB count",
                expected: self.l1.len(),
                found: n,
            });
        }
        for t in self.l1.iter_mut() {
            t.restore(r)?;
        }
        self.l2.restore(r)?;
        restore_map(r, &mut self.outstanding)?;
        let n = usize::get(r)?;
        self.l2_queue.clear();
        for _ in 0..n {
            self.l2_queue.push_back(PageNum::get(r)?);
        }
        let n = usize::get(r)?;
        self.walk_queue.clear();
        for _ in 0..n {
            self.walk_queue.push_back(PageNum::get(r)?);
        }
        self.active_walks = usize::get(r)?;
        self.walker_stall = bool::get(r)?;
        self.peak_outstanding = usize::get(r)?;
        self.stats = TlbStats::get(r)?;
        self.waiter_pool.clear();
        // Rebuild the time-ordered queues from the stages just read.
        // Map order is arbitrary, so sort the FIFO; ties in `done_at` go
        // by page, and `tick` re-sorts what it pops by page anyway.
        self.l2_inflight.clear();
        self.walks.clear();
        for (&vpage, o) in &self.outstanding {
            match o.stage {
                Stage::L2Access { done_at } => self.l2_inflight.push_back((done_at, vpage)),
                Stage::Walking { done_at } => self.walks.push(Reverse((done_at, vpage))),
                Stage::L2Queued | Stage::WalkQueued => {}
            }
        }
        self.l2_inflight.make_contiguous().sort_unstable();
        Ok(())
    }
}

use nuba_types::state::{
    restore_map, save_map, SaveState, StateError, StateReader, StateValue, StateWriter,
};

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> TranslationEngine {
        TranslationEngine::new(TlbParams::paper(), 4)
    }

    fn run(e: &mut TranslationEngine, from: u64, to: u64) -> Vec<(u64, CompletedTranslation)> {
        let mut got = Vec::new();
        let mut done = Vec::new();
        for c in from..=to {
            e.tick(c, &mut done);
            for d in done.drain(..) {
                got.push((c, d));
            }
        }
        got
    }

    #[test]
    fn cold_translation_walks() {
        let mut e = engine();
        assert_eq!(
            e.request(SmId(0), PageNum(7), 0, true),
            TranslationOutcome::Pending
        );
        let got = run(&mut e, 0, 400);
        assert_eq!(got.len(), 1);
        let (t, d) = got[0];
        assert!(!d.faulted);
        // L2 latency (10) + walk (160) plus a couple of scheduling cycles.
        assert!((170..=174).contains(&t), "completed at {t}");
        assert_eq!(e.stats().walks, 1);
        assert_eq!(e.stats().l2_misses, 1);
    }

    #[test]
    fn l1_hit_after_fill() {
        let mut e = engine();
        e.request(SmId(0), PageNum(7), 0, true);
        let _ = run(&mut e, 0, 400);
        assert_eq!(
            e.request(SmId(0), PageNum(7), 400, true),
            TranslationOutcome::HitL1
        );
        // A different SM misses L1 but hits L2.
        assert_eq!(
            e.request(SmId(1), PageNum(7), 400, true),
            TranslationOutcome::Pending
        );
        let got = run(&mut e, 400, 500);
        assert_eq!(got.len(), 1);
        assert!(got[0].0 <= 415, "L2 hit should be fast, got {}", got[0].0);
        assert_eq!(e.stats().l2_hits, 1);
    }

    #[test]
    fn fault_charges_penalty_and_flags() {
        let mut e = engine();
        e.request(SmId(0), PageNum(9), 0, false);
        let got = run(&mut e, 0, 4000);
        assert_eq!(got.len(), 1);
        let (t, d) = got[0];
        assert!(d.faulted);
        assert!(t >= 10 + 160 + 2000, "fault penalty missing, t={t}");
        assert_eq!(e.stats().faults, 1);
    }

    #[test]
    fn concurrent_misses_merge_into_one_walk() {
        let mut e = engine();
        e.request(SmId(0), PageNum(3), 0, true);
        e.request(SmId(1), PageNum(3), 0, true);
        e.request(SmId(2), PageNum(3), 0, true);
        let got = run(&mut e, 0, 400);
        assert_eq!(got.len(), 3);
        assert_eq!(e.stats().walks, 1, "walks must merge");
        // All waiters complete together.
        assert!(got.windows(2).all(|w| w[0].0 == w[1].0));
    }

    #[test]
    fn l2_port_limit_serializes() {
        let mut e = engine();
        // 6 distinct pages at once: 2 ports → L2 accesses start over 3
        // cycles, so completions spread.
        for i in 0..6 {
            e.request(SmId(0), PageNum(100 + i), 0, true);
        }
        let got = run(&mut e, 0, 1000);
        assert_eq!(got.len(), 6);
        let first = got.first().unwrap().0;
        let last = got.last().unwrap().0;
        assert!(last > first, "port limit should stagger completions");
    }

    #[test]
    fn walker_pool_limit() {
        let mut small = TranslationEngine::new(
            TlbParams {
                walkers: 1,
                ..TlbParams::paper()
            },
            2,
        );
        for i in 0..3 {
            small.request(SmId(0), PageNum(200 + i), 0, true);
        }
        let got = run(&mut small, 0, 2000);
        assert_eq!(got.len(), 3);
        // With one walker, walks serialize: spacing ≥ walk latency.
        assert!(got[1].0 - got[0].0 >= 160);
        assert!(got[2].0 - got[1].0 >= 160);
    }

    #[test]
    fn walker_stall_holds_walks_until_released() {
        let mut e = engine();
        e.set_walker_stall(true);
        e.request(SmId(0), PageNum(7), 0, true);
        // L2 access still completes (misses), but the walk never starts.
        let got = run(&mut e, 0, 1000);
        assert!(got.is_empty(), "stalled walker must not complete walks");
        assert_eq!(e.stats().walks, 0);
        assert_eq!(e.outstanding(), 1, "request is retained, not dropped");
        // Releasing the stall drains the backlog.
        e.set_walker_stall(false);
        let got = run(&mut e, 1001, 1400);
        assert_eq!(got.len(), 1);
        assert_eq!(e.stats().walks, 1);
    }

    #[test]
    fn flush_forces_rewalk() {
        let mut e = engine();
        e.request(SmId(0), PageNum(7), 0, true);
        let _ = run(&mut e, 0, 400);
        e.flush();
        assert_eq!(
            e.request(SmId(0), PageNum(7), 500, true),
            TranslationOutcome::Pending
        );
        let got = run(&mut e, 500, 1000);
        assert_eq!(got.len(), 1);
        assert_eq!(e.stats().walks, 2);
    }
}
