//! Dynamic set sampling for the MDR profiler (paper §5.1, \[75\]).
//!
//! MDR must know, each epoch, the LLC hit rate *with* and *without*
//! replication while the slice only runs one of the two policies. The
//! hardware keeps two shadow tag directories over a small sample of sets
//! (8 sets × 16 ways × 24-bit tags = 384 B in the paper). Each shadow
//! here is a `sample_sets × ways` [`TagArray`]: sampled set `s` of the
//! slice is shadow set `s / stride`, and the slice's other sets have no
//! storage at all.
//!
//! - the **no-replication shadow** sees only accesses to lines homed at
//!   this slice (what the slice would cache under no replication), and
//! - the **full-replication shadow** additionally sees the local SMs'
//!   read-only accesses to *remote* lines (what the slice would cache if
//!   every read-only shared line were replicated locally).
//!
//! Hit/miss counts on the shadows estimate both policies' hit rates.

use nuba_types::LineAddr;

use crate::geometry::CacheGeometry;
use crate::tag::TagArray;

/// Hit-rate estimates produced by the sampler for one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerEstimate {
    /// Estimated LLC hit rate under no replication.
    pub hit_rate_no_rep: f64,
    /// Estimated LLC hit rate under full replication.
    pub hit_rate_full_rep: f64,
    /// Sampled accesses feeding the no-replication estimate.
    pub samples_no_rep: u64,
    /// Sampled accesses feeding the full-replication estimate.
    pub samples_full_rep: u64,
}

/// A two-policy shadow-directory set sampler for one LLC slice.
#[derive(Debug, Clone)]
pub struct SetSampler {
    geo: CacheGeometry,
    stride: usize,
    /// Both shadows hold `sample_sets × ways`: sampled set `s` of `geo`
    /// is their set `s / stride`.
    shadow_no_rep: TagArray,
    shadow_full_rep: TagArray,
    hits_no_rep: u64,
    accesses_no_rep: u64,
    hits_full_rep: u64,
    accesses_full_rep: u64,
    now: u64,
}

impl SetSampler {
    /// A sampler over `sample_sets` of the slice's sets.
    ///
    /// # Panics
    /// Panics if `sample_sets` is zero or exceeds the set count.
    pub fn new(geo: CacheGeometry, sample_sets: usize) -> SetSampler {
        assert!(
            sample_sets > 0 && sample_sets <= geo.sets(),
            "sample_sets must be in 1..=sets"
        );
        let shadow = CacheGeometry::new(sample_sets, geo.ways());
        SetSampler {
            geo,
            stride: (geo.sets() / sample_sets).max(1),
            shadow_no_rep: TagArray::new(shadow),
            shadow_full_rep: TagArray::new(shadow),
            hits_no_rep: 0,
            accesses_no_rep: 0,
            hits_full_rep: 0,
            accesses_full_rep: 0,
            now: 0,
        }
    }

    /// Whether `line` falls in a sampled set.
    ///
    /// Exactly `sample_sets` sets are sampled: multiples of the stride,
    /// capped so a non-dividing `sample_sets` (where `sets / sample_sets`
    /// rounds down and extra multiples fit) never over-samples.
    pub fn sampled(&self, line: LineAddr) -> bool {
        self.shadow_set(line).is_some()
    }

    /// The shadow set standing for `line`'s set, if that set is sampled.
    fn shadow_set(&self, line: LineAddr) -> Option<usize> {
        self.shadow_no_rep
            .own_set(self.geo.set_of(line), self.stride)
    }

    /// Observe one access that reached (or would reach) this slice.
    ///
    /// * `is_home`: the line is homed at this slice (reaches the slice
    ///   under both policies).
    /// * `is_replica_candidate`: a local SM's read-only access to a
    ///   *remote* line (reaches this slice only under full replication).
    ///
    /// Exactly one of the two should normally be true; an access that is
    /// neither (e.g. a local SM's read-write remote access) never touches
    /// this slice under either policy and is ignored.
    pub fn observe(&mut self, line: LineAddr, is_home: bool, is_replica_candidate: bool) {
        let Some(set) = self.shadow_set(line) else {
            return;
        };
        self.now += 1;
        if is_home {
            self.accesses_no_rep += 1;
            if self.shadow_no_rep.probe_and_touch_in(set, line) {
                self.hits_no_rep += 1;
            } else {
                self.shadow_no_rep.insert_in(set, line, false, false);
            }
        }
        if is_home || is_replica_candidate {
            self.accesses_full_rep += 1;
            if self.shadow_full_rep.probe_and_touch_in(set, line) {
                self.hits_full_rep += 1;
            } else {
                self.shadow_full_rep
                    .insert_in(set, line, false, is_replica_candidate);
            }
        }
    }

    /// Produce the epoch's estimates. Sparse samples fall back to a
    /// neutral 50% hit rate (cold epoch).
    pub fn estimate(&self) -> SamplerEstimate {
        let rate = |hits: u64, total: u64| {
            if total < 8 {
                0.5
            } else {
                hits as f64 / total as f64
            }
        };
        SamplerEstimate {
            hit_rate_no_rep: rate(self.hits_no_rep, self.accesses_no_rep),
            hit_rate_full_rep: rate(self.hits_full_rep, self.accesses_full_rep),
            samples_no_rep: self.accesses_no_rep,
            samples_full_rep: self.accesses_full_rep,
        }
    }

    /// Clear the epoch counters (shadow directories persist so estimates
    /// stay warm across epochs, as set-sampling hardware would).
    pub fn roll_epoch(&mut self) {
        self.hits_no_rep = 0;
        self.accesses_no_rep = 0;
        self.hits_full_rep = 0;
        self.accesses_full_rep = 0;
    }
}

impl SaveState for SetSampler {
    // The shadows are written spread over the slice's full geometry,
    // unsampled sets empty: the layout of full-size shadows, so
    // checkpoints do not depend on how much the sampler stores.
    fn save(&self, w: &mut StateWriter) {
        let (sets, stride) = (self.geo.sets(), self.stride);
        self.shadow_no_rep.save_spread(w, sets, stride);
        self.shadow_full_rep.save_spread(w, sets, stride);
        self.hits_no_rep.put(w);
        self.accesses_no_rep.put(w);
        self.hits_full_rep.put(w);
        self.accesses_full_rep.put(w);
        self.now.put(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let (sets, stride) = (self.geo.sets(), self.stride);
        self.shadow_no_rep.restore_spread(r, sets, stride)?;
        self.shadow_full_rep.restore_spread(r, sets, stride)?;
        self.hits_no_rep = u64::get(r)?;
        self.accesses_no_rep = u64::get(r)?;
        self.hits_full_rep = u64::get(r)?;
        self.accesses_full_rep = u64::get(r)?;
        self.now = u64::get(r)?;
        Ok(())
    }
}

use nuba_types::state::{SaveState, StateError, StateReader, StateValue, StateWriter};

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler() -> SetSampler {
        SetSampler::new(CacheGeometry::new(48, 16), 8)
    }

    /// A line that maps to sampled set 0.
    fn sampled_line(i: u64) -> LineAddr {
        LineAddr(i * 48 * 128) // every 48 lines wraps to set 0
    }

    #[test]
    fn only_sampled_sets_counted() {
        let mut s = sampler();
        // Set 1 is not sampled (stride 6).
        s.observe(LineAddr(128), true, false);
        assert_eq!(s.estimate().samples_no_rep, 0);
        s.observe(sampled_line(0), true, false);
        assert_eq!(s.estimate().samples_no_rep, 1);
    }

    #[test]
    fn rehitting_home_lines_raises_both_estimates() {
        let mut s = sampler();
        for _ in 0..4 {
            for i in 0..4 {
                s.observe(sampled_line(i), true, false);
            }
        }
        let e = s.estimate();
        // 4 cold misses, 12 hits on both shadows.
        assert!((e.hit_rate_no_rep - 0.75).abs() < 1e-12);
        assert!((e.hit_rate_full_rep - 0.75).abs() < 1e-12);
    }

    #[test]
    fn replica_traffic_thrashes_full_rep_shadow() {
        let mut s = sampler();
        // Working set of home lines that fits: 8 lines in a 16-way set.
        // Plus a huge replica stream: under full replication the set
        // thrashes; under no replication it stays hot.
        for round in 0..6 {
            for i in 0..8 {
                s.observe(sampled_line(i), true, false);
            }
            for j in 0..32 {
                s.observe(sampled_line(100 + round * 32 + j), false, true);
            }
        }
        let e = s.estimate();
        assert!(
            e.hit_rate_no_rep > e.hit_rate_full_rep + 0.2,
            "no-rep {} vs full-rep {}",
            e.hit_rate_no_rep,
            e.hit_rate_full_rep
        );
    }

    #[test]
    fn small_replica_set_raises_full_rep_hit_rate() {
        let mut s = sampler();
        // A small, hot read-only remote set: full replication hits, the
        // no-rep shadow never even sees the traffic.
        for _ in 0..10 {
            for i in 0..4 {
                s.observe(sampled_line(200 + i), false, true);
            }
        }
        let e = s.estimate();
        assert!(e.hit_rate_full_rep > 0.8);
        assert_eq!(e.samples_no_rep, 0);
        assert_eq!(e.hit_rate_no_rep, 0.5); // cold fallback
    }

    #[test]
    fn roll_epoch_resets_counts_keeps_warmth() {
        let mut s = sampler();
        for i in 0..4 {
            s.observe(sampled_line(i), true, false);
        }
        s.roll_epoch();
        assert_eq!(s.estimate().samples_no_rep, 0);
        // Shadow stays warm: immediate hits in the new epoch.
        for i in 0..4 {
            s.observe(sampled_line(i), true, false);
        }
        let e = s.estimate();
        assert_eq!(e.samples_no_rep, 4);
        assert_eq!(s.estimate().hit_rate_no_rep, 0.5); // <8 samples fallback
        for i in 0..4 {
            s.observe(sampled_line(i), true, false);
        }
        assert_eq!(s.estimate().hit_rate_no_rep, 1.0);
    }

    /// The shadows are saved over the slice's full geometry, so a
    /// section can decode cleanly and still put a way in a set the
    /// sampler does not sample, which it has no storage for. Restoring
    /// one is a typed error, whether the way is valid or an invalid way
    /// with a stale line or stamp.
    #[test]
    fn a_way_in_an_unsampled_shadow_set_is_rejected() {
        let mut s = sampler();
        s.observe(sampled_line(0), true, false);
        let mut w = StateWriter::new();
        s.save(&mut w);
        let bytes = w.into_bytes();
        let restore = |bytes: &[u8]| sampler().restore(&mut StateReader::new(bytes));
        assert_eq!(restore(&bytes), Ok(()));
        // The no-replication shadow's way count, then set 0's 16 ways of
        // 19 bytes (valid, line, dirty, replica, last use); set 1, which
        // stride 6 leaves unsampled, follows.
        let set1 = 8 + 16 * 19;
        assert_eq!(bytes[set1..set1 + 19], [0; 19]);
        for (field, byte) in [("valid", 0), ("line", 2), ("last use", 18)] {
            let mut bad = bytes.clone();
            bad[set1 + byte] = 1;
            assert_eq!(
                restore(&bad),
                Err(StateError::Corrupt(
                    "tag way in a set the array does not hold"
                )),
                "{field}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "sample_sets")]
    fn zero_samples_panics() {
        let _ = SetSampler::new(CacheGeometry::new(48, 16), 0);
    }

    #[test]
    fn non_dividing_sample_count_covers_exactly() {
        // 48 sets / 7 samples → stride 6; multiples of 6 in 0..48 are
        // eight sets, but only the first seven may be sampled.
        let geo = CacheGeometry::new(48, 16);
        let s = SetSampler::new(geo, 7);
        let sampled: Vec<usize> = (0..geo.sets())
            .filter(|&set| s.sampled(LineAddr(set as u64 * 128)))
            .collect();
        assert_eq!(sampled, vec![0, 6, 12, 18, 24, 30, 36]);
    }

    #[test]
    fn oversized_sample_count_covers_every_set() {
        // sample_sets == sets → stride 1, every set sampled, none more.
        let geo = CacheGeometry::new(48, 16);
        let s = SetSampler::new(geo, 48);
        let count = (0..geo.sets())
            .filter(|&set| s.sampled(LineAddr(set as u64 * 128)))
            .count();
        assert_eq!(count, 48);
    }
}
