//! Property tests: every requested translation eventually completes
//! exactly once per request, regardless of interleaving.

use proptest::prelude::*;

use nuba_tlb::{TlbParams, TranslationEngine, TranslationOutcome};
use nuba_types::addr::PageNum;
use nuba_types::SmId;

proptest! {
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
}
