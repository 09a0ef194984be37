//! Property test for the SM's derived sleep state (DESIGN.md §18.5).
//!
//! `Sm::idle_until` is invisible to `SaveState`, so the byte-identity
//! suites only catch a missed wake edge end to end. Here two SMs run
//! the same warps through one random schedule of issue outcomes,
//! translation completions and replies; one is driven as `issue_sms`
//! drives it (not polled while `asleep`), the other is polled every
//! cycle. A wake edge that failed to clear the sleep would leave the
//! first one behind, and their state bytes would part.

use std::sync::OnceLock;

use proptest::prelude::*;

use nuba_core::{Sm, SmParams, StallReason};
use nuba_types::state::{SaveState, StateWriter};
use nuba_types::{AccessKind, LineAddr, MemReply, ReqId, SliceId, SmId, WarpId};
use nuba_workloads::{Access, BenchmarkId, ScaleProfile, Workload};

const WARPS: usize = 6;
const PAGE_BYTES: u64 = 4096;

/// Conv3d interleaves compute blocks with its memory ops, so warps
/// pass through `Compute` deadlines as well as the two blocked states.
fn workload() -> &'static Workload {
    static WL: OnceLock<Workload> = OnceLock::new();
    WL.get_or_init(|| Workload::build(BenchmarkId::Conv3d, ScaleProfile::fast(), 64, 9))
}

fn sm() -> Sm {
    let streams = (0..WARPS)
        .map(|w| workload().stream(SmId(0), WarpId(w)))
        .collect();
    Sm::new(
        SmId(0),
        SmParams {
            warps: WARPS,
            max_outstanding: 4,
            l1_mshrs: 3,
            ..SmParams::paper()
        },
        streams,
    )
}

fn bytes(sm: &Sm) -> Vec<u8> {
    let mut w = StateWriter::new();
    sm.save(&mut w);
    w.into_bytes()
}

/// What the machine around the SM owes it at a later cycle.
#[derive(Clone, Copy)]
enum Due {
    Translation(u64),
    Reply(MemReply),
}

/// One issue attempt, as `GpuSimulator::issue_sms` makes it, with the
/// machine's answers (TLB miss, downstream back-pressure, reply delay)
/// drawn from `dice`. Returns what the machine now owes and when.
fn issue(
    sm: &mut Sm,
    warp: WarpId,
    access: Access,
    now: u64,
    dice: u8,
    next_id: &mut u64,
) -> Option<(u64, Due)> {
    let delay = 1 + u64::from(dice >> 3);
    let outcome = dice % 8;
    if outcome == 0 {
        let vpage = access.vaddr.page(PAGE_BYTES).0;
        sm.block_translation(warp, vpage);
        return Some((now + delay, Due::Translation(vpage)));
    }
    if outcome == 1 {
        sm.stall(warp, StallReason::Downstream);
        return None;
    }
    let line = LineAddr::containing(access.vaddr.0);
    *next_id += 1;
    let reply = MemReply {
        id: ReqId(*next_id),
        sm: SmId(0),
        warp,
        line,
        kind: access.kind,
        serviced_by: SliceId(0),
        llc_hit: true,
        issue_cycle: now,
        replica_fill: false,
        bypass_l1: access.bypass_l1,
    };
    match access.kind {
        AccessKind::Load | AccessKind::LoadReadOnly => {
            if !access.bypass_l1 && sm.l1_load_probe(warp, line, now) {
                return None;
            }
            if sm.mshr_mergeable(line) {
                sm.commit_load_miss(warp, line);
                return None;
            }
            if sm.mshr_outstanding(line) || !sm.mshr_available() {
                sm.stall(warp, StallReason::Mshr);
                return None;
            }
            if !sm.can_issue_request() {
                sm.stall(warp, StallReason::Outstanding);
                return None;
            }
            assert!(sm.commit_load_miss(warp, line), "checked: a primary miss");
        }
        AccessKind::Store | AccessKind::Atomic => {
            if !sm.can_issue_request() {
                sm.stall(warp, StallReason::Outstanding);
                return None;
            }
            sm.commit_write(warp, access.kind);
        }
    }
    Some((now + delay, Due::Reply(reply)))
}

proptest! {
    #[test]
    fn sleeping_sm_matches_one_polled_every_cycle(
        dice in proptest::collection::vec(any::<u8>(), 40..400),
    ) {
        let mut gated = sm();
        let mut scanned = sm();
        let mut owed: Vec<(u64, Due)> = Vec::new();
        let mut next_id = 0u64;
        let mut rolls = dice.iter().copied().cycle();
        let mut slept = 0u64;
        for now in 0..dice.len() as u64 * 4 {
            // What the MMU and the reply path deliver this cycle, in the
            // order it was promised, to both SMs alike.
            let mut k = 0;
            while k < owed.len() {
                if owed[k].0 > now {
                    k += 1;
                    continue;
                }
                match owed.remove(k).1 {
                    Due::Translation(vpage) => {
                        gated.complete_translation(vpage);
                        scanned.complete_translation(vpage);
                    }
                    Due::Reply(reply) => {
                        gated.handle_reply(reply, now, true);
                        scanned.handle_reply(reply, now, true);
                    }
                }
            }

            let asleep = gated.asleep(now);
            if asleep {
                slept += 1;
                let next = gated.next_event_cycle(now);
                prop_assert!(
                    next.is_none_or(|t| t > now),
                    "asleep at {} but next event {:?}", now, next
                );
                gated.skip_idle();
            } else {
                gated.begin_cycle();
            }
            scanned.begin_cycle();
            for _ in 0..4 {
                let polled = scanned.poll(now);
                if asleep {
                    prop_assert_eq!(polled, None, "a sleeping SM had a warp to issue at {}", now);
                    break;
                }
                prop_assert_eq!(gated.poll(now), polled, "poll at {}", now);
                let Some((warp, access)) = polled else {
                    break;
                };
                let roll = rolls.next().expect("cycled");
                let mut id = next_id;
                let a = issue(&mut gated, warp, access, now, roll, &mut id);
                let b = issue(&mut scanned, warp, access, now, roll, &mut next_id);
                prop_assert_eq!(a.map(|d| d.0), b.map(|d| d.0));
                owed.extend(b);
            }
            prop_assert!(bytes(&gated) == bytes(&scanned), "state bytes differ after cycle {}", now);
        }
        // Six warps behind compute blocks, a four-request budget and
        // replies up to 32 cycles away: the gate must have been used.
        prop_assert!(slept > 0, "the schedule never put the SM to sleep");
    }
}
