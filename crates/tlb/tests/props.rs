//! Property tests: every requested translation eventually completes
//! exactly once per request, regardless of interleaving.

use std::collections::{BTreeMap, VecDeque};

use proptest::prelude::*;

use nuba_tlb::{
    CompletedTranslation, Tlb, TlbParams, TlbStats, TranslationEngine, TranslationOutcome,
};
use nuba_types::addr::PageNum;
use nuba_types::state::{SaveState, StateReader, StateValue, StateWriter};
use nuba_types::SmId;

/// Where an outstanding translation is, as the reference tracks it.
#[derive(Clone, Copy)]
enum Stage {
    L2Queued,
    L2Access(u64),
    WalkQueued,
    Walking(u64),
}

struct Entry {
    waiters: Vec<SmId>,
    mapped: bool,
    stage: Stage,
}

/// The translation engine as it was before its in-flight accesses and
/// walks were queued by completion time: every tick walks the whole
/// outstanding map for stages that are due. Kept here as the reference
/// the queued `TranslationEngine::tick` must agree with, completion by
/// completion and byte by byte (`state_bytes` writes what
/// `TranslationEngine::save` writes).
struct ScanEngine {
    params: TlbParams,
    l1: Vec<Tlb>,
    l2: Tlb,
    /// Ordered by page, so iteration is the sorted ready set.
    outstanding: BTreeMap<PageNum, Entry>,
    l2_queue: VecDeque<PageNum>,
    walk_queue: VecDeque<PageNum>,
    active_walks: usize,
    walker_stall: bool,
    peak_outstanding: usize,
    stats: TlbStats,
}

impl ScanEngine {
    fn new(params: TlbParams, num_sms: usize) -> ScanEngine {
        ScanEngine {
            params,
            l1: (0..num_sms)
                .map(|_| Tlb::new(params.l1_entries, params.l1_ways))
                .collect(),
            l2: Tlb::new(params.l2_entries, params.l2_ways),
            outstanding: BTreeMap::new(),
            l2_queue: VecDeque::new(),
            walk_queue: VecDeque::new(),
            active_walks: 0,
            walker_stall: false,
            peak_outstanding: 0,
            stats: TlbStats::default(),
        }
    }

    fn request(&mut self, sm: SmId, vpage: PageNum, mapped: bool) -> TranslationOutcome {
        if self.l1[sm.0].lookup(vpage) {
            self.stats.l1_hits += 1;
            return TranslationOutcome::HitL1;
        }
        self.stats.l1_misses += 1;
        if let Some(e) = self.outstanding.get_mut(&vpage) {
            e.waiters.push(sm);
            return TranslationOutcome::Pending;
        }
        let entry = Entry {
            waiters: vec![sm],
            mapped,
            stage: Stage::L2Queued,
        };
        self.outstanding.insert(vpage, entry);
        self.l2_queue.push_back(vpage);
        self.peak_outstanding = self.peak_outstanding.max(self.outstanding.len());
        TranslationOutcome::Pending
    }

    fn tick(&mut self, now: u64, done: &mut Vec<CompletedTranslation>) {
        let ready: Vec<PageNum> = self
            .outstanding
            .iter()
            .filter_map(|(&p, e)| match e.stage {
                Stage::L2Access(at) | Stage::Walking(at) if at <= now => Some(p),
                _ => None,
            })
            .collect();
        for vpage in ready {
            let walked = matches!(self.outstanding[&vpage].stage, Stage::Walking(_));
            if !walked && !self.l2.lookup(vpage) {
                self.stats.l2_misses += 1;
                self.outstanding.get_mut(&vpage).expect("ready").stage = Stage::WalkQueued;
                self.walk_queue.push_back(vpage);
                continue;
            }
            let e = self.outstanding.remove(&vpage).expect("ready");
            let faulted = walked && !e.mapped;
            if walked {
                self.active_walks -= 1;
                self.l2.insert(vpage);
                self.stats.faults += u64::from(faulted);
            } else {
                self.stats.l2_hits += 1;
            }
            for sm in e.waiters {
                self.l1[sm.0].insert(vpage);
                done.push(CompletedTranslation { sm, vpage, faulted });
            }
        }
        while !self.walker_stall && self.active_walks < self.params.walkers {
            let Some(vpage) = self.walk_queue.pop_front() else {
                break;
            };
            let e = self.outstanding.get_mut(&vpage).expect("queued");
            let extra = if e.mapped {
                0
            } else {
                self.params.fault_latency
            };
            e.stage = Stage::Walking(now + self.params.walk_latency + extra);
            self.active_walks += 1;
            self.stats.walks += 1;
        }
        for _ in 0..self.params.l2_ports {
            let Some(vpage) = self.l2_queue.pop_front() else {
                break;
            };
            self.outstanding.get_mut(&vpage).expect("queued").stage =
                Stage::L2Access(now + self.params.l2_latency);
        }
    }

    fn state_bytes(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.put_u32(self.l1.len() as u32);
        for t in &self.l1 {
            t.save(&mut w);
        }
        self.l2.save(&mut w);
        w.put_u64(self.outstanding.len() as u64);
        for (vpage, e) in &self.outstanding {
            vpage.put(&mut w);
            e.waiters.put(&mut w);
            e.mapped.put(&mut w);
            match e.stage {
                Stage::L2Queued => w.put_u8(0),
                Stage::L2Access(at) => {
                    w.put_u8(1);
                    at.put(&mut w);
                }
                Stage::WalkQueued => w.put_u8(2),
                Stage::Walking(at) => {
                    w.put_u8(3);
                    at.put(&mut w);
                }
            }
        }
        self.l2_queue.put(&mut w);
        self.walk_queue.put(&mut w);
        self.active_walks.put(&mut w);
        self.walker_stall.put(&mut w);
        self.peak_outstanding.put(&mut w);
        self.stats.put(&mut w);
        w.into_bytes()
    }
}

fn state_bytes(mmu: &TranslationEngine) -> Vec<u8> {
    let mut w = StateWriter::new();
    mmu.save(&mut w);
    w.into_bytes()
}

/// A TLB entry as `Tlb` stored it before its valid bit moved into the
/// page number's top bit: three fields.
#[derive(Clone, Copy, Default)]
struct RefEntry {
    valid: bool,
    vpage: PageNum,
    last_use: u64,
}

/// The TLB over three-field entries, the reference the packed `Tlb`
/// must agree with operation by operation and byte by byte
/// (`state_bytes` writes what `Tlb::save` writes).
struct RefTlb {
    ways: usize,
    entries: Vec<RefEntry>,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl RefTlb {
    fn set(&mut self, vpage: PageNum) -> &mut [RefEntry] {
        let set = (vpage.0 % (self.entries.len() / self.ways) as u64) as usize;
        &mut self.entries[set * self.ways..(set + 1) * self.ways]
    }

    fn find(&mut self, vpage: PageNum) -> Option<&mut RefEntry> {
        self.set(vpage)
            .iter_mut()
            .find(|e| e.valid && e.vpage == vpage)
    }

    fn lookup(&mut self, vpage: PageNum) -> bool {
        self.stamp += 1;
        let stamp = self.stamp;
        let hit = self.find(vpage).map(|e| e.last_use = stamp).is_some();
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    fn insert(&mut self, vpage: PageNum) -> Option<PageNum> {
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(e) = self.find(vpage) {
            e.last_use = stamp;
            return None;
        }
        let fill = RefEntry {
            valid: true,
            vpage,
            last_use: stamp,
        };
        let set = self.set(vpage);
        if let Some(e) = set.iter_mut().find(|e| !e.valid) {
            *e = fill;
            return None;
        }
        let victim = set.iter_mut().min_by_key(|e| e.last_use).unwrap();
        Some(std::mem::replace(victim, fill).vpage)
    }

    fn invalidate(&mut self, vpage: PageNum) -> bool {
        self.find(vpage).map(|e| e.valid = false).is_some()
    }

    fn state_bytes(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        self.entries.len().put(&mut w);
        for e in &self.entries {
            e.valid.put(&mut w);
            e.vpage.put(&mut w);
            e.last_use.put(&mut w);
        }
        self.stamp.put(&mut w);
        self.hits.put(&mut w);
        self.misses.put(&mut w);
        w.into_bytes()
    }
}

proptest! {
    /// The packed TLB against three-field entries: the same hits,
    /// evictions and counters, and the same checkpoint bytes after every
    /// operation. A fresh TLB restored partway through continues
    /// identically. Page numbers reach bit 56, the highest one a
    /// 128 B page, the smallest `GpuConfig::validate` admits, can set.
    #[test]
    fn tlb_against_reference(
        ops in proptest::collection::vec((0u8..10, 0u64..40), 1..300),
        sets in 1usize..6,
        ways in 1usize..6,
        high in prop_oneof![Just(0u64), Just(1u64 << 56)],
        resume_at in 0usize..300,
    ) {
        let mut tlb = Tlb::new(sets * ways, ways);
        let mut reference = RefTlb {
            ways,
            entries: vec![RefEntry::default(); sets * ways],
            stamp: 0,
            hits: 0,
            misses: 0,
        };
        for (step, (op, page)) in ops.into_iter().enumerate() {
            let vpage = PageNum(high | page);
            if step == resume_at {
                let mut w = StateWriter::new();
                tlb.save(&mut w);
                tlb = Tlb::new(sets * ways, ways);
                tlb.restore(&mut StateReader::new(w.bytes())).expect("own section restores");
            }
            match op {
                0..=3 => prop_assert_eq!(tlb.lookup(vpage), reference.lookup(vpage)),
                4..=7 => prop_assert_eq!(tlb.insert(vpage), reference.insert(vpage)),
                8 => prop_assert_eq!(tlb.invalidate(vpage), reference.invalidate(vpage)),
                _ => {
                    tlb.flush();
                    reference.entries.iter_mut().for_each(|e| e.valid = false);
                }
            }
            prop_assert_eq!((tlb.hits(), tlb.misses()), (reference.hits, reference.misses));
            let mut w = StateWriter::new();
            tlb.save(&mut w);
            prop_assert_eq!(w.into_bytes(), reference.state_bytes());
        }
    }

    #[test]
    fn every_pending_request_completes_once(
        reqs in proptest::collection::vec((0usize..8, 0u64..40, any::<bool>()), 1..100),
        walkers in 1usize..8,
    ) {
        let params = TlbParams { walkers, fault_latency: 50, ..TlbParams::paper() };
        let mut mmu = TranslationEngine::new(params, 8);
        let mut pending = 0u64;
        let mut completed = 0u64;
        let mut hits = 0u64;
        let mut done = Vec::new();
        let mut now = 0u64;
        for (sm, vpage, mapped) in reqs.iter().copied() {
            match mmu.request(SmId(sm), PageNum(vpage), now, mapped) {
                TranslationOutcome::HitL1 => hits += 1,
                TranslationOutcome::Pending => pending += 1,
            }
            mmu.tick(now, &mut done);
            completed += done.drain(..).len() as u64;
            now += 1;
        }
        // Drain: serialized worst case is one walker doing
        // (walk 160 + fault 50) per distinct page plus L2 latency.
        for _ in 0..300 * reqs.len() as u64 + 2000 {
            mmu.tick(now, &mut done);
            completed += done.drain(..).len() as u64;
            now += 1;
        }
        prop_assert_eq!(completed, pending, "hits={}", hits);
        prop_assert_eq!(mmu.outstanding(), 0);
        let s = mmu.stats();
        prop_assert_eq!(s.l1_hits, hits);
        prop_assert_eq!(s.l1_misses, pending);
        prop_assert!(s.l2_hits + s.l2_misses <= pending, "each page resolves once per miss group");
    }

    #[test]
    fn repeated_page_becomes_an_l1_hit(vpage in 0u64..1000, sm in 0usize..4) {
        let mut mmu = TranslationEngine::new(TlbParams::paper(), 4);
        let mut done = Vec::new();
        mmu.request(SmId(sm), PageNum(vpage), 0, true);
        for t in 0..3000 {
            mmu.tick(t, &mut done);
        }
        prop_assert_eq!(done.len(), 1);
        prop_assert_eq!(
            mmu.request(SmId(sm), PageNum(vpage), 3000, true),
            TranslationOutcome::HitL1
        );
    }

    /// `request_with` (the page table is consulted only when a miss
    /// opens a new outstanding translation) is `request` with the
    /// answer deferred: over a random request/tick schedule, unmapped
    /// (faulting) pages included, both engines give the same outcomes,
    /// the same completions on the same cycles, the same counters and
    /// the same serialized state — and the lazy side asks exactly once
    /// per translation it opens, never on an L1 hit or a merge.
    #[test]
    fn lazy_mapped_lookup_matches_eager(
        reqs in proptest::collection::vec(
            (0usize..4, 0u64..24, any::<bool>(), 0u64..40), 1..60),
        walkers in 1usize..4,
    ) {
        use nuba_types::state::{SaveState, StateWriter};
        let params = TlbParams {
            l1_entries: 8,
            l1_ways: 2,
            l2_entries: 32,
            l2_ways: 4,
            walkers,
            fault_latency: 50,
            ..TlbParams::paper()
        };
        let mut eager = TranslationEngine::new(params, 4);
        let mut lazy = TranslationEngine::new(params, 4);
        let (mut eager_done, mut lazy_done) = (Vec::new(), Vec::new());
        let (mut asked, mut opened) = (0usize, 0usize);
        let mut now = 0u64;
        for (sm, vpage, mapped, gap) in reqs.iter().copied() {
            let before = lazy.outstanding();
            let a = eager.request(SmId(sm), PageNum(vpage), now, mapped);
            let b = lazy.request_with(SmId(sm), PageNum(vpage), now, || {
                asked += 1;
                mapped
            });
            prop_assert_eq!(a, b, "outcome at cycle {}", now);
            opened += lazy.outstanding() - before;
            for _ in 0..=gap {
                eager.tick(now, &mut eager_done);
                lazy.tick(now, &mut lazy_done);
                prop_assert_eq!(&eager_done, &lazy_done, "completions at cycle {}", now);
                eager_done.clear();
                lazy_done.clear();
                now += 1;
            }
        }
        prop_assert_eq!(asked, opened, "mapped() is asked once per translation opened");
        prop_assert_eq!(eager.stats(), lazy.stats());
        let bytes = |mmu: &TranslationEngine| {
            let mut w = StateWriter::new();
            mmu.save(&mut w);
            w.into_bytes()
        };
        prop_assert_eq!(bytes(&eager), bytes(&lazy));
    }

    /// `next_event_cycle` agrees with a step-until-change oracle across
    /// random arrival schedules mixing L1/L2 hits, walks, and faults:
    /// any cycle whose tick mutates engine state or completes a
    /// translation must have been predicted `Some(now)`, and a predicted
    /// gap must really be a no-op span.
    #[test]
    fn next_event_matches_step_oracle(
        reqs in proptest::collection::vec(
            (0usize..4, 0u64..12, any::<bool>(), 0u64..200), 1..10),
        walkers in 1usize..4,
    ) {
        use nuba_types::state::{SaveState, StateWriter};
        let state_bytes = |mmu: &TranslationEngine| {
            let mut w = StateWriter::new();
            mmu.save(&mut w);
            w.into_bytes()
        };
        // Small TLBs keep the per-cycle state snapshots cheap; the
        // timing parameters (latencies, walkers) are what the oracle
        // exercises.
        let params = TlbParams {
            l1_entries: 8,
            l1_ways: 2,
            l2_entries: 32,
            l2_ways: 4,
            walkers,
            fault_latency: 50,
            ..TlbParams::paper()
        };
        let mut mmu = TranslationEngine::new(params, 4);
        let mut arrivals: Vec<(u64, usize, u64, bool)> = reqs
            .iter()
            .map(|&(sm, vpage, mapped, at)| (at, sm, vpage, mapped))
            .collect();
        arrivals.sort_unstable();
        let mut done = Vec::new();
        // Last arrival + serialized worst case on one walker
        // (walk 160 + fault 50 per request) + L2 latency slack.
        let horizon = 200 + 210 * reqs.len() as u64 + 300;
        for t in 0..horizon {
            for &(_, sm, vpage, mapped) in arrivals.iter().filter(|&&(at, ..)| at == t) {
                let _ = mmu.request(SmId(sm), PageNum(vpage), t, mapped);
            }
            let predicted = mmu.next_event_cycle(t);
            let before = state_bytes(&mmu);
            mmu.tick(t, &mut done);
            let changed = state_bytes(&mmu) != before || !done.is_empty();
            done.clear();
            if changed {
                prop_assert_eq!(
                    predicted, Some(t),
                    "MMU state changed at {} but prediction was {:?}", t, predicted
                );
            } else if let Some(p) = predicted {
                prop_assert!(p > t, "predicted {} <= now {} with no change", p, t);
            }
        }
        prop_assert_eq!(mmu.outstanding(), 0, "horizon drains every walk");
        prop_assert!(mmu.next_event_cycle(horizon).is_none(), "drained engine must sleep");
    }

    /// The time-ordered queues against the map scan they replaced: over
    /// a random request/tick schedule with unmapped pages (a faulting
    /// walk finishes after walks started later, so completion is not
    /// start order), a window with the walker pool stalled, and a save →
    /// restore into a fresh engine part-way (the queues are not saved;
    /// `restore` rebuilds them), the engine and the reference complete
    /// the same translations on the same cycles in the same order, and
    /// their counters, next events and state bytes agree every cycle.
    #[test]
    fn queued_completions_match_the_map_scan(
        reqs in proptest::collection::vec(
            (0usize..4, 0u64..24, any::<bool>(), 0u64..12), 1..60),
        walkers in 1usize..4,
        stall in (0u64..300, 0u64..200),
        restore_at in 0u64..400,
    ) {
        let params = TlbParams {
            l1_entries: 8,
            l1_ways: 2,
            l2_entries: 32,
            l2_ways: 4,
            walkers,
            fault_latency: 50,
            ..TlbParams::paper()
        };
        let mut mmu = TranslationEngine::new(params, 4);
        let mut reference = ScanEngine::new(params, 4);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut arrivals = reqs.iter().copied();
        let mut next_arrival = 0u64;
        let mut restored = false;
        // Arrivals end by 12 * 60; the serialized worst case after that
        // is one walker doing walk 160 + fault 50 per distinct page.
        let horizon = 12 * 60 + 24 * 210 + 400 + stall.0 + stall.1;
        for now in 0..horizon {
            if now == stall.0 {
                mmu.set_walker_stall(true);
                reference.walker_stall = true;
            }
            if now == stall.0 + stall.1 {
                mmu.set_walker_stall(false);
                reference.walker_stall = false;
            }
            // A gap of zero puts the next request on the same cycle.
            while now == next_arrival {
                let Some((sm, vpage, mapped, gap)) = arrivals.next() else {
                    break;
                };
                let a = mmu.request(SmId(sm), PageNum(vpage), now, mapped);
                let b = reference.request(SmId(sm), PageNum(vpage), mapped);
                prop_assert_eq!(a, b, "outcome at cycle {}", now);
                next_arrival = now + gap;
            }
            if now >= restore_at && !restored && mmu.outstanding() > 0 {
                let saved = state_bytes(&mmu);
                let mut fresh = TranslationEngine::new(params, 4);
                fresh.restore(&mut StateReader::new(&saved)).expect("own bytes");
                mmu = fresh;
                restored = true;
            }
            let due = mmu.next_event_cycle(now);
            mmu.tick(now, &mut got);
            reference.tick(now, &mut want);
            prop_assert_eq!(&got, &want, "completions at cycle {}", now);
            prop_assert!(got.is_empty() || due == Some(now), "unannounced completion at {}", now);
            got.clear();
            want.clear();
            prop_assert_eq!(mmu.stats(), reference.stats);
            prop_assert!(state_bytes(&mmu) == reference.state_bytes(), "state bytes at {}", now);
        }
        prop_assert_eq!(mmu.outstanding(), 0, "horizon drains every walk");
    }
}
