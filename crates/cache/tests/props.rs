//! Property tests: the tag array, the set sampler and the MSHR file
//! against reference models, and MSHR waiter conservation.

use std::collections::BTreeMap;

use proptest::prelude::*;

use nuba_cache::{
    CacheGeometry, Eviction, MshrFile, MshrOutcome, ReplacementKind, SamplerEstimate, SetSampler,
    TagArray,
};
use nuba_types::state::{SaveState, StateReader, StateValue, StateWriter};
use nuba_types::LineAddr;

/// A way as `TagArray` stored it before its flags moved into the line's
/// low bits: five fields.
#[derive(Debug, Clone, Copy, Default)]
struct RefWay {
    valid: bool,
    line: LineAddr,
    dirty: bool,
    replica: bool,
    last_use: u64,
}

/// The tag array over five-field ways, the reference the packed
/// `TagArray` must agree with operation by operation and byte by byte
/// (`state_bytes` writes what `TagArray::save` writes).
struct RefTags {
    ways: usize,
    slots: Vec<RefWay>,
    random: bool,
    stamp: u64,
    rng_state: u64,
}

impl RefTags {
    fn new(sets: usize, ways: usize, random: bool) -> RefTags {
        RefTags {
            ways,
            slots: vec![RefWay::default(); sets * ways],
            random,
            stamp: 0,
            rng_state: 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn set(&mut self, line: LineAddr) -> &mut [RefWay] {
        let set = (line.index() % (self.slots.len() / self.ways) as u64) as usize;
        &mut self.slots[set * self.ways..(set + 1) * self.ways]
    }

    fn find(&mut self, line: LineAddr) -> Option<&mut RefWay> {
        self.set(line)
            .iter_mut()
            .find(|w| w.valid && w.line == line)
    }

    fn probe_and_touch(&mut self, line: LineAddr) -> bool {
        self.stamp += 1;
        let stamp = self.stamp;
        self.find(line).map(|w| w.last_use = stamp).is_some()
    }

    fn probe(&mut self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    fn mark_dirty(&mut self, line: LineAddr) -> bool {
        self.find(line).map(|w| w.dirty = true).is_some()
    }

    fn insert(&mut self, line: LineAddr, dirty: bool, replica: bool) -> Option<Eviction> {
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(w) = self.find(line) {
            w.last_use = stamp;
            w.dirty |= dirty;
            w.replica &= replica;
            return None;
        }
        let fill = RefWay {
            valid: true,
            line,
            dirty,
            replica,
            last_use: stamp,
        };
        if let Some(w) = self.set(line).iter_mut().find(|w| !w.valid) {
            *w = fill;
            return None;
        }
        let victim = if self.random {
            self.rng_state ^= self.rng_state << 13;
            self.rng_state ^= self.rng_state >> 7;
            self.rng_state ^= self.rng_state << 17;
            (self.rng_state % self.ways as u64) as usize
        } else {
            let set = self.set(line);
            (0..set.len())
                .min_by_key(|&i| (set[i].last_use, i))
                .unwrap()
        };
        let old = std::mem::replace(&mut self.set(line)[victim], fill);
        Some(Eviction {
            line: old.line,
            dirty: old.dirty,
            replica: old.replica,
        })
    }

    fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        self.find(line).map(|w| {
            w.valid = false;
            w.dirty
        })
    }

    fn flush(&mut self) -> Vec<LineAddr> {
        let mut dirty = Vec::new();
        for w in self.slots.iter_mut().filter(|w| w.valid) {
            if w.dirty {
                dirty.push(w.line);
            }
            w.valid = false;
        }
        dirty
    }

    fn occupancy(&self) -> usize {
        self.slots.iter().filter(|w| w.valid).count()
    }

    fn replica_count(&self) -> usize {
        self.slots.iter().filter(|w| w.valid && w.replica).count()
    }

    fn state_bytes(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        self.slots.len().put(&mut w);
        for way in &self.slots {
            way.valid.put(&mut w);
            way.line.put(&mut w);
            way.dirty.put(&mut w);
            way.replica.put(&mut w);
            way.last_use.put(&mut w);
        }
        self.stamp.put(&mut w);
        self.rng_state.put(&mut w);
        w.into_bytes()
    }
}

/// The set sampler as it was before its shadows shrank to the sampled
/// sets: two full-geometry tag arrays. The reference `SetSampler` must
/// agree with estimate by estimate and byte by byte.
struct RefSampler {
    geo: CacheGeometry,
    stride: usize,
    sample_sets: usize,
    shadow_no_rep: TagArray,
    shadow_full_rep: TagArray,
    counts: [u64; 4],
    now: u64,
}

impl RefSampler {
    fn new(geo: CacheGeometry, sample_sets: usize) -> RefSampler {
        RefSampler {
            geo,
            stride: (geo.sets() / sample_sets).max(1),
            sample_sets,
            shadow_no_rep: TagArray::new(geo),
            shadow_full_rep: TagArray::new(geo),
            counts: [0; 4],
            now: 0,
        }
    }

    fn sampled(&self, line: LineAddr) -> bool {
        let set = self.geo.set_of(line);
        set.is_multiple_of(self.stride) && set / self.stride < self.sample_sets
    }

    fn observe(&mut self, line: LineAddr, is_home: bool, is_replica_candidate: bool) {
        if !self.sampled(line) {
            return;
        }
        self.now += 1;
        let now = self.now;
        let [hits_no_rep, accesses_no_rep, hits_full_rep, accesses_full_rep] = &mut self.counts;
        if is_home {
            *accesses_no_rep += 1;
            if self.shadow_no_rep.probe_and_touch(line, now) {
                *hits_no_rep += 1;
            } else {
                self.shadow_no_rep.insert(line, false, false, now);
            }
        }
        if is_home || is_replica_candidate {
            *accesses_full_rep += 1;
            if self.shadow_full_rep.probe_and_touch(line, now) {
                *hits_full_rep += 1;
            } else {
                self.shadow_full_rep
                    .insert(line, false, is_replica_candidate, now);
            }
        }
    }

    fn estimate(&self) -> SamplerEstimate {
        let rate = |hits: u64, total: u64| {
            if total < 8 {
                0.5
            } else {
                hits as f64 / total as f64
            }
        };
        let [hits_no_rep, accesses_no_rep, hits_full_rep, accesses_full_rep] = self.counts;
        SamplerEstimate {
            hit_rate_no_rep: rate(hits_no_rep, accesses_no_rep),
            hit_rate_full_rep: rate(hits_full_rep, accesses_full_rep),
            samples_no_rep: accesses_no_rep,
            samples_full_rep: accesses_full_rep,
        }
    }

    fn state_bytes(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        self.shadow_no_rep.save(&mut w);
        self.shadow_full_rep.save(&mut w);
        for c in self.counts {
            c.put(&mut w);
        }
        self.now.put(&mut w);
        w.into_bytes()
    }
}

fn saved(state: &impl SaveState) -> Vec<u8> {
    let mut w = StateWriter::new();
    state.save(&mut w);
    w.into_bytes()
}

/// The checkpoint section an MSHR file holding `model` with high-water
/// mark `peak` must write: lines ascending, waiters in merge order.
fn reference_bytes(model: &BTreeMap<LineAddr, Vec<u32>>, peak: usize) -> Vec<u8> {
    let mut w = StateWriter::new();
    model.len().put(&mut w);
    for (line, waiters) in model {
        line.put(&mut w);
        waiters.put(&mut w);
    }
    peak.put(&mut w);
    w.into_bytes()
}

proptest! {
    /// The packed tag array against five-field ways: the same hits,
    /// evictions (with their dirty and replica bits), flush lists,
    /// occupancy and replica counts, and the same checkpoint bytes after
    /// every operation. A fresh array restored partway through continues
    /// identically. Inserts set both flags, and a resident line
    /// re-inserted without `replica` must drop it.
    #[test]
    fn tag_array_against_reference(
        ops in proptest::collection::vec((0u8..12, 0u64..48, any::<bool>(), any::<bool>()), 1..300),
        sets in 1usize..8,
        ways in 1usize..8,
        random in any::<bool>(),
        resume_at in 0usize..300,
    ) {
        let geo = CacheGeometry::new(sets, ways);
        let kind = if random { ReplacementKind::Random } else { ReplacementKind::Lru };
        let mut tags = TagArray::with_replacement(geo, kind);
        let mut reference = RefTags::new(sets, ways, random);
        for (step, (op, line_idx, dirty, replica)) in ops.into_iter().enumerate() {
            let line = LineAddr(line_idx * 128);
            if step == resume_at {
                let bytes = saved(&tags);
                tags = TagArray::with_replacement(geo, kind);
                tags.restore(&mut StateReader::new(&bytes)).expect("own section restores");
            }
            match op {
                0..=4 => prop_assert_eq!(
                    tags.insert(line, dirty, replica, step as u64),
                    reference.insert(line, dirty, replica)
                ),
                5 | 6 => prop_assert_eq!(
                    tags.probe_and_touch(line, step as u64),
                    reference.probe_and_touch(line)
                ),
                7 => prop_assert_eq!(tags.probe(line), reference.probe(line)),
                8 => prop_assert_eq!(tags.mark_dirty(line), reference.mark_dirty(line)),
                9 | 10 => prop_assert_eq!(tags.invalidate(line), reference.invalidate(line)),
                _ => prop_assert_eq!(tags.flush(), reference.flush()),
            }
            prop_assert_eq!(tags.occupancy(), reference.occupancy());
            prop_assert_eq!(tags.replica_count(), reference.replica_count());
            prop_assert_eq!(saved(&tags), reference.state_bytes());
        }
    }

    /// The sampler against one whose shadows are full-geometry tag
    /// arrays: the same estimates and the same checkpoint bytes after
    /// every observation, and a fresh sampler restored partway through
    /// continues identically. Set counts that `sample_sets` does not
    /// divide leave sets past the last sampled one unsampled.
    #[test]
    fn set_sampler_against_full_geometry_reference(
        ops in proptest::collection::vec((0u8..16, 0u64..512, any::<bool>(), any::<bool>()), 1..400),
        sets in 1usize..24,
        ways in 1usize..6,
        sample_sets in 1usize..24,
        resume_at in 0usize..400,
    ) {
        let geo = CacheGeometry::new(sets, ways);
        let sample_sets = sample_sets.min(sets);
        let mut sampler = SetSampler::new(geo, sample_sets);
        let mut reference = RefSampler::new(geo, sample_sets);
        for (step, (op, line_idx, is_home, is_replica_candidate)) in ops.into_iter().enumerate() {
            let line = LineAddr(line_idx * 128);
            if step == resume_at {
                let bytes = saved(&sampler);
                sampler = SetSampler::new(geo, sample_sets);
                sampler.restore(&mut StateReader::new(&bytes)).expect("own section restores");
            }
            if op == 0 {
                sampler.roll_epoch();
                reference.counts = [0; 4];
            } else {
                prop_assert_eq!(sampler.sampled(line), reference.sampled(line));
                sampler.observe(line, is_home, is_replica_candidate);
                reference.observe(line, is_home, is_replica_candidate);
            }
            prop_assert_eq!(sampler.estimate(), reference.estimate());
            prop_assert_eq!(saved(&sampler), reference.state_bytes());
        }
    }

    /// MRU line of each set survives a subsequent single insert.
    #[test]
    fn lru_protects_most_recent(ways in 2usize..8, churn in 1u64..32) {
        let geo = CacheGeometry::new(1, ways);
        let mut tags = TagArray::new(geo);
        let mut now = 0u64;
        // Fill the set.
        for i in 0..ways as u64 {
            tags.insert(LineAddr(i * 128), false, false, { now += 1; now });
        }
        // Touch line 0 making it MRU, then insert a new line.
        tags.probe_and_touch(LineAddr(0), { now += 1; now });
        tags.insert(LineAddr((ways as u64 + churn) * 128), false, false, { now += 1; now });
        prop_assert!(tags.probe(LineAddr(0)), "MRU line must survive one eviction");
    }

    /// Waiters in = waiters out, across arbitrary allocate/complete
    /// interleavings.
    #[test]
    fn mshr_conserves_waiters(
        ops in proptest::collection::vec((0u64..8, any::<bool>()), 1..200),
        entries in 1usize..8,
        merges in 1usize..8,
    ) {
        let mut mshr: MshrFile<u32> = MshrFile::new(entries, merges);
        let mut accepted = 0u64;
        let mut returned = 0u64;
        let mut token = 0u32;
        for (line_idx, complete) in ops {
            let line = LineAddr(line_idx * 128);
            if complete {
                returned += mshr.complete(line).len() as u64;
            } else {
                token += 1;
                if mshr.allocate(line, token).is_ok() {
                    accepted += 1;
                }
            }
            prop_assert!(mshr.occupancy() <= entries);
            prop_assert_eq!(
                mshr.total_waiters() as u64,
                accepted - returned,
                "waiters must be conserved"
            );
        }
        // Drain.
        for line_idx in 0u64..8 {
            returned += mshr.complete(LineAddr(line_idx * 128)).len() as u64;
        }
        prop_assert_eq!(accepted, returned);
        prop_assert_eq!(mshr.occupancy(), 0);
    }

    /// The waiter slab against a `BTreeMap` of waiter lists: the same
    /// outcomes and waiter order, the same checkpoint bytes after every
    /// operation, and a fresh file restored partway through continues
    /// identically. Up to 11 merges against short runs of 4 move lists
    /// to long runs, which a bare `MshrFile::new` grows the slab for.
    #[test]
    fn mshr_slab_against_reference(
        ops in proptest::collection::vec((0u8..8, 0u64..6), 1..400),
        entries in 1usize..5,
        merges in 1usize..12,
        resume_at in 0usize..400,
    ) {
        let mut mshr: MshrFile<u32> = MshrFile::new(entries, merges);
        let mut model: BTreeMap<LineAddr, Vec<u32>> = BTreeMap::new();
        let mut peak = 0usize;
        for (step, (op, line_idx)) in ops.into_iter().enumerate() {
            let line = LineAddr(line_idx * 128);
            let token = step as u32;
            if step == resume_at {
                let mut w = StateWriter::new();
                mshr.save(&mut w);
                mshr = MshrFile::new(entries, merges);
                mshr.restore(&mut StateReader::new(w.bytes())).expect("own section restores");
            }
            match op {
                // Half the operations allocate, so chains fill up.
                0..=3 => {
                    let full = model.len() >= entries;
                    let want = match model.get_mut(&line) {
                        Some(w) if w.len() >= merges => Err((MshrOutcome::MergeFull, token)),
                        Some(w) => {
                            w.push(token);
                            Ok(MshrOutcome::Secondary)
                        }
                        None if full => Err((MshrOutcome::NoEntry, token)),
                        None => {
                            model.insert(line, vec![token]);
                            peak = peak.max(model.len());
                            Ok(MshrOutcome::Primary)
                        }
                    };
                    prop_assert_eq!(mshr.allocate(line, token), want);
                }
                4 => {
                    let got = mshr.complete(line);
                    prop_assert_eq!(&got, &model.remove(&line).unwrap_or_default());
                    mshr.recycle(got);
                }
                5 => prop_assert_eq!(
                    mshr.can_merge(line),
                    model.get(&line).is_some_and(|w| w.len() < merges)
                ),
                6 => prop_assert_eq!(mshr.contains(line), model.contains_key(&line)),
                _ => {
                    prop_assert_eq!(mshr.take_peak(), peak);
                    peak = model.len();
                }
            }
            let mut w = StateWriter::new();
            mshr.save(&mut w);
            let want = reference_bytes(&model, peak);
            prop_assert_eq!(w.bytes(), want.as_slice());
        }
    }
}
