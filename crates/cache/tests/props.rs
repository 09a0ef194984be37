//! Property tests: the tag array and the MSHR file against reference
//! models, and MSHR waiter conservation.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;

use nuba_cache::{CacheGeometry, MshrFile, MshrOutcome, TagArray};
use nuba_types::state::{SaveState, StateReader, StateValue, StateWriter};
use nuba_types::LineAddr;

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
    /// The tag array must agree with an infinite-capacity reference on
    /// "never seen" lines, and occupancy may never exceed capacity.
    #[test]
    fn tag_array_against_reference(
        accesses in proptest::collection::vec((0u64..64, any::<bool>()), 1..300),
        sets in 1usize..8,
        ways in 1usize..8,
    ) {
        let geo = CacheGeometry::new(sets, ways);
        let mut tags = TagArray::new(geo);
        let mut ever_inserted: HashMap<u64, bool> = HashMap::new();
        for (now, (line_idx, dirty)) in accesses.iter().enumerate() {
            let line = LineAddr(line_idx * 128);
            let hit = tags.probe_and_touch(line, now as u64);
            if !ever_inserted.contains_key(line_idx) {
                prop_assert!(!hit, "hit on a never-inserted line");
            }
            if !hit {
                tags.insert(line, *dirty, false, now as u64);
                ever_inserted.insert(*line_idx, *dirty);
            }
            prop_assert!(tags.occupancy() <= sets * ways);
        }
        // Everything the cache still holds was inserted at some point.
        let dirty_lines = {
            let mut t = tags.clone();
            t.flush()
        };
        for l in dirty_lines {
            prop_assert!(ever_inserted.contains_key(&(l.0 / 128)));
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
