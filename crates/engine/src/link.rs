//! A bandwidth-gated, fixed-latency serialization link.

use std::collections::VecDeque;

use crate::{Cycle, Wire};

/// Error returned when a link's input queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Models a physical link: items serialize at `bytes_per_cycle`, then
/// arrive `latency` cycles later. The input queue is bounded, providing
/// back-pressure to the sender.
///
/// This single primitive models the paper's point-to-point links (L1 ↔
/// local LLC slice at 32 B/cycle, LLC ↔ memory controller) and the
/// per-port injection/ejection stages of the crossbar NoC (16 B/cycle at
/// 1.4 TB/s).
///
/// Fractional bandwidths are supported via a byte-credit accumulator, so a
/// 700 GB/s NoC port (≈7.8 B/cycle) serializes a 136 B packet in 18 cycles.
#[derive(Debug, Clone)]
pub struct BandwidthLink<T> {
    queue: VecDeque<T>,
    queue_capacity: usize,
    bytes_per_cycle: f64,
    latency: u64,
    credit: f64,
    /// Remaining bytes of the item currently serializing (head of queue).
    head_remaining: u64,
    inflight: VecDeque<(Cycle, T)>,
    /// Total bytes that completed serialization (for power/energy models).
    bytes_transferred: u64,
    /// Cycles in which the link was actively serializing.
    busy_cycles: u64,
    /// Sends refused because the input queue was full (back-pressure
    /// events seen by the producer; telemetry uses the delta per window).
    rejects: u64,
    last_tick: Option<Cycle>,
    /// Fault-injection multiplier on the effective bandwidth, in
    /// `[0, 1]`. `1.0` is the healthy link; `0.0` models a dead lane:
    /// queued items are retained (back-pressure propagates upstream)
    /// but nothing serializes until the fault is reverted.
    derate: f64,
}

impl<T: Wire> BandwidthLink<T> {
    /// Create a link with the given serialization bandwidth, delivery
    /// latency and input-queue capacity.
    ///
    /// # Panics
    /// Panics if `bytes_per_cycle` is not positive or `queue_capacity` is
    /// zero.
    pub fn new(bytes_per_cycle: f64, latency: u64, queue_capacity: usize) -> BandwidthLink<T> {
        assert!(bytes_per_cycle > 0.0, "link bandwidth must be positive");
        assert!(queue_capacity > 0, "link queue capacity must be non-zero");
        BandwidthLink {
            queue: VecDeque::with_capacity(queue_capacity),
            queue_capacity,
            bytes_per_cycle,
            latency,
            credit: 0.0,
            head_remaining: 0,
            // In-flight occupancy is bounded by what can finish
            // serializing inside one latency window; pre-size so ticks
            // never grow the ring buffer mid-simulation.
            inflight: VecDeque::with_capacity(queue_capacity + latency as usize),
            bytes_transferred: 0,
            busy_cycles: 0,
            rejects: 0,
            last_tick: None,
            derate: 1.0,
        }
    }

    /// Enqueue an item for transmission at `_now` (the cycle is accepted
    /// for interface symmetry and debug assertions).
    ///
    /// # Errors
    /// Returns [`SendError`] with the item when the input queue is full.
    pub fn try_send(&mut self, item: T, _now: Cycle) -> Result<(), SendError<T>> {
        if self.queue.len() >= self.queue_capacity {
            self.rejects += 1;
            return Err(SendError(item));
        }
        if self.queue.is_empty() && self.head_remaining == 0 {
            self.head_remaining = item.wire_bytes();
        }
        self.queue.push_back(item);
        Ok(())
    }

    /// Whether the input queue has room.
    pub fn can_send(&self) -> bool {
        self.queue.len() < self.queue_capacity
    }

    /// Advance one cycle: spend bandwidth credit on the head item and
    /// deliver anything whose latency has elapsed into `out`.
    ///
    /// Must be called with non-decreasing `now` values.
    pub fn tick(&mut self, now: Cycle, out: &mut Vec<T>) {
        nuba_types::invariant!(
            "link_time_monotonic",
            self.last_tick.is_none_or(|t| t <= now),
            "time went backwards"
        );
        // Idle fast-path: nothing serializing and nothing due for
        // delivery. Returning before the `last_tick` write keeps a
        // per-cycle-stepped idle span byte-identical to a skipped one,
        // which is what lets the simulator's run loop jump over these
        // cycles.
        if self.queue.is_empty() && self.inflight.front().is_none_or(|(r, _)| *r > now) {
            return;
        }
        self.last_tick = Some(now);

        if !self.queue.is_empty() {
            self.busy_cycles += 1;
            self.credit += self.bytes_per_cycle * self.derate;
            // A wide link may finish several small packets in one cycle.
            while self.credit >= self.head_remaining as f64 {
                let Some(item) = self.queue.pop_front() else {
                    break;
                };
                self.credit -= self.head_remaining as f64;
                self.bytes_transferred += item.wire_bytes();
                self.inflight.push_back((now + self.latency, item));
                self.head_remaining = self.queue.front().map_or(0, |i| i.wire_bytes());
            }
            // Credit does not accumulate across idle gaps beyond one item:
            // cap it so an idle link cannot burst above its bandwidth.
            if self.queue.is_empty() {
                self.credit = 0.0;
            }
        } else {
            self.credit = 0.0;
        }

        while self.inflight.front().is_some_and(|(r, _)| *r <= now) {
            if let Some((_, item)) = self.inflight.pop_front() {
                out.push(item);
            }
        }
    }

    /// Items waiting or serializing (not yet delivered).
    pub fn pending(&self) -> usize {
        self.queue.len() + self.inflight.len()
    }

    /// Total bytes that have completed serialization.
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes_transferred
    }

    /// Cycles spent actively serializing.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Sends refused with a full input queue (back-pressure events).
    pub fn rejects(&self) -> u64 {
        self.rejects
    }

    /// The configured serialization bandwidth.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.bytes_per_cycle
    }

    /// Set the fault-injection bandwidth multiplier (clamped to
    /// `[0, 1]`). The nominal `bytes_per_cycle` is untouched, so
    /// reverting a fault restores exactly the configured rate; a factor
    /// of `0.0` starves the link without violating the constructor's
    /// positive-bandwidth contract.
    pub fn set_derate(&mut self, factor: f64) {
        self.derate = factor.clamp(0.0, 1.0);
    }

    /// The current fault-injection bandwidth multiplier.
    pub fn derate(&self) -> f64 {
        self.derate
    }
}

impl<T: Wire> crate::NextEvent for BandwidthLink<T> {
    fn next_event_cycle(&self, now: Cycle) -> Option<Cycle> {
        // A non-empty input queue serializes (or, fully derated, at
        // least accrues busy accounting) every cycle — never skippable.
        if !self.queue.is_empty() {
            return Some(now);
        }
        // Otherwise the only future event is the head in-flight
        // delivery; a ready time already in the past fires now.
        self.inflight.front().map(|(r, _)| (*r).max(now))
    }
}

impl<T: Wire + StateValue> SaveState for BandwidthLink<T> {
    fn save(&self, w: &mut StateWriter) {
        self.queue.put(w);
        self.credit.put(w);
        self.head_remaining.put(w);
        self.inflight.put(w);
        self.bytes_transferred.put(w);
        self.busy_cycles.put(w);
        self.rejects.put(w);
        self.last_tick.put(w);
        self.derate.put(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        // Refill the pre-sized rings in place so their capacity survives.
        let n = usize::get(r)?;
        self.queue.clear();
        for _ in 0..n {
            self.queue.push_back(T::get(r)?);
        }
        self.credit = f64::get(r)?;
        self.head_remaining = u64::get(r)?;
        let n = usize::get(r)?;
        self.inflight.clear();
        for _ in 0..n {
            self.inflight.push_back(<(Cycle, T)>::get(r)?);
        }
        self.bytes_transferred = u64::get(r)?;
        self.busy_cycles = u64::get(r)?;
        self.rejects = u64::get(r)?;
        self.last_tick = Option::<Cycle>::get(r)?;
        self.derate = f64::get(r)?;
        Ok(())
    }
}

use nuba_types::state::{SaveState, StateError, StateReader, StateValue, StateWriter};

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Pkt(u64);
    impl Wire for Pkt {
        fn wire_bytes(&self) -> u64 {
            self.0
        }
    }
    impl StateValue for Pkt {
        fn put(&self, w: &mut StateWriter) {
            self.0.put(w);
        }
        fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
            Ok(Pkt(u64::get(r)?))
        }
    }

    fn run(link: &mut BandwidthLink<Pkt>, from: Cycle, to: Cycle) -> Vec<(Cycle, u64)> {
        let mut got = Vec::new();
        let mut out = Vec::new();
        for c in from..=to {
            link.tick(c, &mut out);
            for p in out.drain(..) {
                got.push((c, p.0));
            }
        }
        got
    }

    #[test]
    fn serialization_plus_latency() {
        // 16 B/cycle, 8-cycle latency: a 136 B packet takes ceil(136/16)=9
        // serialization cycles (finishing on the 9th tick, cycle 8) and
        // arrives at cycle 8 + 8 = 16.
        let mut link = BandwidthLink::new(16.0, 8, 4);
        link.try_send(Pkt(136), 0).unwrap();
        let got = run(&mut link, 0, 20);
        assert_eq!(got, vec![(16, 136)]);
        assert_eq!(link.bytes_transferred(), 136);
    }

    #[test]
    fn back_to_back_packets_respect_bandwidth() {
        // Two 136 B packets over a 16 B/cycle link: 272 B total needs
        // ceil(272/16) = 17 busy cycles; leftover credit from the first
        // packet carries into the second, sustaining the full link rate.
        let mut link = BandwidthLink::new(16.0, 0, 4);
        link.try_send(Pkt(136), 0).unwrap();
        link.try_send(Pkt(136), 0).unwrap();
        let got = run(&mut link, 0, 40);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 8); // ceil(136/16) ticks, last at cycle 8
        assert_eq!(got[1].0, 16); // 272 B served by the 17th tick
        assert_eq!(link.busy_cycles(), 17);
    }

    #[test]
    fn fractional_bandwidth() {
        // 0.5 B/cycle: an 8 B packet takes 16 cycles.
        let mut link = BandwidthLink::new(0.5, 0, 4);
        link.try_send(Pkt(8), 0).unwrap();
        let got = run(&mut link, 0, 31);
        assert_eq!(got, vec![(15, 8)]);
    }

    #[test]
    fn wide_link_moves_multiple_small_packets_per_cycle() {
        let mut link = BandwidthLink::new(32.0, 0, 8);
        for _ in 0..4 {
            link.try_send(Pkt(8), 0).unwrap();
        }
        let got = run(&mut link, 0, 2);
        // 32 B/cycle moves all four 8 B packets in the first cycle.
        assert_eq!(got.iter().filter(|(c, _)| *c == 0).count(), 4);
    }

    #[test]
    fn queue_full_gives_back_pressure() {
        let mut link = BandwidthLink::new(1.0, 0, 2);
        link.try_send(Pkt(100), 0).unwrap();
        link.try_send(Pkt(100), 0).unwrap();
        assert!(!link.can_send());
        let err = link.try_send(Pkt(1), 0).unwrap_err();
        assert_eq!(err.0, Pkt(1));
        assert_eq!(link.rejects(), 1);
    }

    #[test]
    fn idle_link_does_not_accumulate_credit() {
        let mut link = BandwidthLink::new(16.0, 0, 4);
        let _ = run(&mut link, 0, 99); // idle 100 cycles
        link.try_send(Pkt(136), 100).unwrap();
        let got = run(&mut link, 100, 130);
        // Still takes the full 9 serialization cycles.
        assert_eq!(got, vec![(108, 136)]);
    }

    #[test]
    fn busy_cycle_accounting() {
        let mut link = BandwidthLink::new(16.0, 0, 4);
        link.try_send(Pkt(32), 0).unwrap();
        let _ = run(&mut link, 0, 10);
        assert_eq!(link.busy_cycles(), 2); // 32 B at 16 B/cycle
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_panics() {
        let _ = BandwidthLink::<Pkt>::new(0.0, 1, 1);
    }

    #[test]
    fn derated_link_slows_by_the_given_factor() {
        // 16 B/cycle at 0.5 derate behaves like an 8 B/cycle link: a
        // 136 B packet finishes on the 17th tick instead of the 9th.
        let mut link = BandwidthLink::new(16.0, 0, 4);
        link.set_derate(0.5);
        link.try_send(Pkt(136), 0).unwrap();
        let got = run(&mut link, 0, 40);
        assert_eq!(got, vec![(16, 136)]);
    }

    #[test]
    fn zero_derate_starves_but_retains_and_recovers() {
        let mut link = BandwidthLink::new(16.0, 0, 4);
        link.set_derate(0.0);
        link.try_send(Pkt(32), 0).unwrap();
        assert!(run(&mut link, 0, 49).is_empty(), "dead link delivered");
        assert_eq!(link.pending(), 1, "queued item must be retained");
        // Reverting the fault restores the full configured rate.
        link.set_derate(1.0);
        let got = run(&mut link, 50, 60);
        assert_eq!(got, vec![(51, 32)]);
    }

    #[test]
    fn derate_is_clamped_to_unit_interval() {
        let mut link = BandwidthLink::<Pkt>::new(16.0, 0, 4);
        link.set_derate(7.0);
        assert_eq!(link.derate(), 1.0);
        link.set_derate(-1.0);
        assert_eq!(link.derate(), 0.0);
    }

    fn state_bytes(link: &BandwidthLink<Pkt>) -> Vec<u8> {
        let mut w = nuba_types::state::StateWriter::new();
        link.save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn idle_ticks_are_byte_exact_no_ops() {
        // Drain a packet, then tick through a long idle gap: the saved
        // state must not change at all, so a time-skipping loop may
        // jump the whole gap without ticking.
        let mut link = BandwidthLink::new(16.0, 4, 4);
        link.try_send(Pkt(16), 0).unwrap();
        let _ = run(&mut link, 0, 10);
        let before = state_bytes(&link);
        let mut out = Vec::new();
        for c in 11..100 {
            link.tick(c, &mut out);
        }
        assert!(out.is_empty());
        assert_eq!(state_bytes(&link), before);
    }

    #[test]
    fn next_event_tracks_queue_and_inflight() {
        use crate::NextEvent;
        let mut link = BandwidthLink::new(16.0, 8, 4);
        assert_eq!(link.next_event_cycle(0), None);
        link.try_send(Pkt(16), 0).unwrap();
        // Queued work serializes every cycle.
        assert_eq!(link.next_event_cycle(0), Some(0));
        let mut out = Vec::new();
        link.tick(0, &mut out);
        // Serialization done at cycle 0; delivery at 0 + 8.
        assert_eq!(link.next_event_cycle(1), Some(8));
        for c in 1..8 {
            link.tick(c, &mut out);
        }
        assert!(out.is_empty());
        assert_eq!(link.next_event_cycle(8), Some(8));
        link.tick(8, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(link.next_event_cycle(9), None);
    }
}
