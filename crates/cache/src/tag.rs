//! Tag array with LRU (default) or random replacement.

use nuba_types::{LineAddr, LINE_BYTES};

use crate::geometry::CacheGeometry;

/// Replacement policy for a [`TagArray`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplacementKind {
    /// Least-recently-used (Table 1 default for all caches/TLBs).
    #[default]
    Lru,
    /// Pseudo-random victim selection (ablation).
    Random,
}

/// A line evicted by an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The evicted line address.
    pub line: LineAddr,
    /// Whether it was dirty (needs a write-back under write-back policy).
    pub dirty: bool,
    /// Whether it was a replicated read-only line (MDR accounting).
    pub replica: bool,
}

/// One way: the line address with its three flags packed into the
/// address's low bits, which [`LineAddr`]'s alignment keeps zero, and
/// its recency stamp. 16 bytes, so a 16-way LLC set spans four cache
/// lines of the host.
///
/// An invalidated way keeps its line and flags; only `VALID` clears.
/// Checkpoints carry them, so they are part of the state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Way {
    /// `line | VALID | DIRTY | REPLICA`.
    tag: u64,
    last_use: u64,
}

const VALID: u64 = 1;
const DIRTY: u64 = 2;
/// Marks replicated read-only lines cached away from their home slice.
const REPLICA: u64 = 4;
const FLAGS: u64 = VALID | DIRTY | REPLICA;
const _: () = assert!(FLAGS < LINE_BYTES, "the flags must fit below a line");

impl Way {
    fn new(line: LineAddr, dirty: bool, replica: bool, last_use: u64) -> Way {
        debug_assert_eq!(line.0 % LINE_BYTES, 0, "{line} is not line-aligned");
        let dirty = if dirty { DIRTY } else { 0 };
        let replica = if replica { REPLICA } else { 0 };
        Way {
            tag: line.0 | VALID | dirty | replica,
            last_use,
        }
    }

    fn line(self) -> LineAddr {
        LineAddr(self.tag & !FLAGS)
    }

    fn valid(self) -> bool {
        self.tag & VALID != 0
    }

    fn dirty(self) -> bool {
        self.tag & DIRTY != 0
    }

    fn replica(self) -> bool {
        self.tag & REPLICA != 0
    }

    /// Valid and holding `line`, whatever its dirty and replica bits.
    fn holds(self, line: LineAddr) -> bool {
        self.tag & !(DIRTY | REPLICA) == line.0 | VALID
    }
}

/// A set-associative tag array.
///
/// Pure bookkeeping — latency, MSHRs and bandwidth live in the component
/// that owns the array.
#[derive(Debug, Clone)]
pub struct TagArray {
    geo: CacheGeometry,
    ways: Vec<Way>,
    replacement: ReplacementKind,
    stamp: u64,
    rng_state: u64,
}

impl TagArray {
    /// A tag array with LRU replacement.
    pub fn new(geo: CacheGeometry) -> TagArray {
        TagArray::with_replacement(geo, ReplacementKind::Lru)
    }

    /// A tag array with an explicit replacement policy.
    pub fn with_replacement(geo: CacheGeometry, replacement: ReplacementKind) -> TagArray {
        TagArray {
            geo,
            ways: vec![Way::default(); geo.sets() * geo.ways()],
            replacement,
            stamp: 0,
            rng_state: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// The geometry of this array.
    pub fn geometry(&self) -> CacheGeometry {
        self.geo
    }

    fn set_slice(&mut self, set: usize) -> &mut [Way] {
        let w = self.geo.ways();
        &mut self.ways[set * w..(set + 1) * w]
    }

    /// Probe for `line`; on a hit, update recency and return `true`.
    pub fn probe_and_touch(&mut self, line: LineAddr, _now: u64) -> bool {
        self.probe_and_touch_in(self.geo.set_of(line), line)
    }

    /// [`probe_and_touch`](TagArray::probe_and_touch) in an explicit
    /// set, for arrays that hold a subset of a larger cache's sets.
    pub(crate) fn probe_and_touch_in(&mut self, set: usize, line: LineAddr) -> bool {
        self.stamp += 1;
        let stamp = self.stamp;
        for way in self.set_slice(set) {
            if way.holds(line) {
                way.last_use = stamp;
                return true;
            }
        }
        false
    }

    /// Probe without updating recency (used by profilers).
    pub fn probe(&self, line: LineAddr) -> bool {
        let set = self.geo.set_of(line);
        let w = self.geo.ways();
        self.ways[set * w..(set + 1) * w]
            .iter()
            .any(|way| way.holds(line))
    }

    /// Mark a resident line dirty (write hit under write-back policy).
    /// Returns `false` if the line is not resident.
    pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
        let set = self.geo.set_of(line);
        for way in self.set_slice(set) {
            if way.holds(line) {
                way.tag |= DIRTY;
                return true;
            }
        }
        false
    }

    /// Insert `line`, evicting the replacement victim if the set is full.
    ///
    /// Inserting a line that is already resident just refreshes its
    /// recency/flags and returns `None`.
    pub fn insert(
        &mut self,
        line: LineAddr,
        dirty: bool,
        replica: bool,
        _now: u64,
    ) -> Option<Eviction> {
        self.insert_in(self.geo.set_of(line), line, dirty, replica)
    }

    /// [`insert`](TagArray::insert) into an explicit set, for arrays
    /// that hold a subset of a larger cache's sets.
    pub(crate) fn insert_in(
        &mut self,
        set: usize,
        line: LineAddr,
        dirty: bool,
        replica: bool,
    ) -> Option<Eviction> {
        self.stamp += 1;
        let stamp = self.stamp;
        let replacement = self.replacement;
        // Already resident?
        for way in self.set_slice(set) {
            if way.holds(line) {
                way.last_use = stamp;
                if dirty {
                    way.tag |= DIRTY;
                }
                if !replica {
                    way.tag &= !REPLICA;
                }
                return None;
            }
        }
        let fill = Way::new(line, dirty, replica, stamp);
        // Free way?
        for way in self.set_slice(set) {
            if !way.valid() {
                *way = fill;
                return None;
            }
        }
        // Evict a victim.
        let victim_idx = match replacement {
            ReplacementKind::Lru => {
                let set_ways = self.set_slice(set);
                let mut best = 0;
                for (i, way) in set_ways.iter().enumerate() {
                    if way.last_use < set_ways[best].last_use {
                        best = i;
                    }
                }
                best
            }
            ReplacementKind::Random => {
                self.rng_state ^= self.rng_state << 13;
                self.rng_state ^= self.rng_state >> 7;
                self.rng_state ^= self.rng_state << 17;
                (self.rng_state % self.geo.ways() as u64) as usize
            }
        };
        let set_ways = self.set_slice(set);
        let victim = set_ways[victim_idx];
        set_ways[victim_idx] = fill;
        Some(Eviction {
            line: victim.line(),
            dirty: victim.dirty(),
            replica: victim.replica(),
        })
    }

    /// Invalidate `line` if resident; returns its dirty state.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let set = self.geo.set_of(line);
        for way in self.set_slice(set) {
            if way.holds(line) {
                way.tag &= !VALID;
                return Some(way.dirty());
            }
        }
        None
    }

    /// Invalidate everything, returning the dirty lines (kernel-boundary
    /// LLC flush, §5.3).
    pub fn flush(&mut self) -> Vec<LineAddr> {
        let mut dirty = Vec::new();
        for way in &mut self.ways {
            if way.valid() {
                if way.dirty() {
                    dirty.push(way.line());
                }
                way.tag &= !VALID;
            }
        }
        dirty
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.valid()).count()
    }

    /// Number of valid replica lines (MDR accounting).
    pub fn replica_count(&self) -> usize {
        self.ways
            .iter()
            .filter(|w| w.valid() && w.replica())
            .count()
    }

    /// Save each set `s` of this array as set `s * stride` of a
    /// `sets`-set array whose other sets are empty: the layout
    /// [`save`](SaveState::save) writes for that larger array.
    pub(crate) fn save_spread(&self, w: &mut StateWriter, sets: usize, stride: usize) {
        let ways = self.geo.ways();
        (sets * ways).put(w);
        for set in 0..sets {
            match self.own_set(set, stride) {
                Some(own) => self.ways[own * ways..(own + 1) * ways]
                    .iter()
                    .for_each(|way| way.put(w)),
                None => (0..ways).for_each(|_| Way::default().put(w)),
            }
        }
        self.stamp.put(w);
        self.rng_state.put(w);
    }

    /// Restore what [`save_spread`](TagArray::save_spread) wrote with the
    /// same `sets` and `stride`.
    ///
    /// # Errors
    /// [`StateError::Corrupt`] if a set this array does not hold is not
    /// empty, besides the decode errors of `restore`.
    pub(crate) fn restore_spread(
        &mut self,
        r: &mut StateReader<'_>,
        sets: usize,
        stride: usize,
    ) -> Result<(), StateError> {
        let ways = self.geo.ways();
        let n = usize::get(r)?;
        if n != sets * ways {
            return Err(StateError::LengthMismatch {
                what: "TagArray ways",
                expected: sets * ways,
                found: n,
            });
        }
        for set in 0..sets {
            let own = self.own_set(set, stride);
            for i in 0..ways {
                let way = Way::get(r)?;
                match own {
                    Some(own) => self.ways[own * ways + i] = way,
                    None if way != Way::default() => {
                        return Err(StateError::Corrupt(
                            "tag way in a set the array does not hold",
                        ))
                    }
                    None => {}
                }
            }
        }
        self.stamp = u64::get(r)?;
        self.rng_state = u64::get(r)?;
        Ok(())
    }

    /// The set of this array that stands for set `set` of a spread
    /// layout with `stride`, if it holds one.
    pub(crate) fn own_set(&self, set: usize, stride: usize) -> Option<usize> {
        (set.is_multiple_of(stride) && set / stride < self.geo.sets()).then_some(set / stride)
    }
}

impl StateValue for Way {
    fn put(&self, w: &mut StateWriter) {
        self.valid().put(w);
        self.line().put(w);
        self.dirty().put(w);
        self.replica().put(w);
        self.last_use.put(w);
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        let valid = bool::get(r)?;
        let line = LineAddr::get(r)?;
        let dirty = bool::get(r)?;
        let replica = bool::get(r)?;
        let last_use = u64::get(r)?;
        if line.0 % LINE_BYTES != 0 {
            return Err(StateError::Corrupt("tag way line not line-aligned"));
        }
        let mut way = Way::new(line, dirty, replica, last_use);
        if !valid {
            way.tag &= !VALID;
        }
        Ok(way)
    }
}

impl SaveState for TagArray {
    fn save(&self, w: &mut StateWriter) {
        // Geometry and policy are configuration; ways, the recency stamp
        // and the random-replacement state are the dynamic contents.
        self.save_spread(w, self.geo.sets(), 1);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.restore_spread(r, self.geo.sets(), 1)
    }
}

use nuba_types::state::{SaveState, StateError, StateReader, StateValue, StateWriter};

#[cfg(test)]
mod tests {
    use super::*;

    fn line(i: u64) -> LineAddr {
        LineAddr(i * 128)
    }

    #[test]
    fn miss_then_hit() {
        let mut t = TagArray::new(CacheGeometry::new(4, 2));
        assert!(!t.probe_and_touch(line(0), 0));
        assert_eq!(t.insert(line(0), false, false, 0), None);
        assert!(t.probe_and_touch(line(0), 1));
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 1 set × 2 ways; lines 0, 4, 8 collide (4-set geometry? use 1 set).
        let mut t = TagArray::new(CacheGeometry::new(1, 2));
        t.insert(line(0), false, false, 0);
        t.insert(line(1), false, false, 1);
        t.probe_and_touch(line(0), 2); // 0 is now MRU
        let ev = t.insert(line(2), false, false, 3).unwrap();
        assert_eq!(ev.line, line(1));
        assert!(t.probe(line(0)) && t.probe(line(2)) && !t.probe(line(1)));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut t = TagArray::new(CacheGeometry::new(1, 1));
        t.insert(line(0), true, false, 0);
        let ev = t.insert(line(1), false, false, 1).unwrap();
        assert!(ev.dirty);
    }

    #[test]
    fn mark_dirty_on_hit() {
        let mut t = TagArray::new(CacheGeometry::new(2, 2));
        t.insert(line(0), false, false, 0);
        assert!(t.mark_dirty(line(0)));
        assert!(!t.mark_dirty(line(5)));
        let dirty = t.flush();
        assert_eq!(dirty, vec![line(0)]);
    }

    #[test]
    fn reinsert_refreshes_instead_of_evicting() {
        let mut t = TagArray::new(CacheGeometry::new(1, 2));
        t.insert(line(0), false, false, 0);
        t.insert(line(1), false, false, 1);
        assert_eq!(t.insert(line(0), false, false, 2), None);
        assert_eq!(t.occupancy(), 2);
    }

    #[test]
    fn flush_empties_and_reports_dirty_only() {
        let mut t = TagArray::new(CacheGeometry::new(2, 2));
        t.insert(line(0), true, false, 0);
        t.insert(line(1), false, false, 0);
        let dirty = t.flush();
        assert_eq!(dirty, vec![line(0)]);
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn invalidate_returns_dirty_state() {
        let mut t = TagArray::new(CacheGeometry::new(2, 2));
        t.insert(line(0), true, false, 0);
        assert_eq!(t.invalidate(line(0)), Some(true));
        assert_eq!(t.invalidate(line(0)), None);
    }

    #[test]
    fn replica_tracking() {
        let mut t = TagArray::new(CacheGeometry::new(1, 2));
        t.insert(line(0), false, true, 0);
        assert_eq!(t.replica_count(), 1);
        let ev = t.insert(line(1), false, false, 1);
        assert!(ev.is_none());
        let ev = t.insert(line(2), false, false, 2).unwrap();
        // LRU victim is the replica line 0.
        assert!(ev.replica);
        assert_eq!(t.replica_count(), 0);
    }

    /// A way can decode cleanly and still hold a line `insert` never
    /// stores: one with a bit below the line size set, which the packed
    /// way would read as a flag. Restoring it is a typed error.
    #[test]
    fn a_way_whose_line_is_not_line_aligned_is_rejected() {
        let geo = CacheGeometry::new(1, 2);
        let mut t = TagArray::new(geo);
        t.insert(line(3), true, false, 0);
        let mut w = StateWriter::new();
        t.save(&mut w);
        let bytes = w.into_bytes();
        let restore = |bytes: &[u8]| TagArray::new(geo).restore(&mut StateReader::new(bytes));
        assert_eq!(restore(&bytes), Ok(()));
        // The way count, then the first way's valid byte and its line.
        let at = 8 + 1;
        assert_eq!(bytes[at..at + 8], line(3).0.to_le_bytes());
        for low in [1, 2, 4, 64] {
            let mut bad = bytes.clone();
            bad[at..at + 8].copy_from_slice(&(line(3).0 | low).to_le_bytes());
            assert_eq!(
                restore(&bad),
                Err(StateError::Corrupt("tag way line not line-aligned")),
                "low bit {low}"
            );
        }
    }

    #[test]
    fn random_replacement_stays_within_set() {
        let mut t = TagArray::with_replacement(CacheGeometry::new(2, 2), ReplacementKind::Random);
        for i in 0..100 {
            t.insert(line(i * 2), false, false, i); // all even lines → set 0
        }
        // Set 1 must remain empty.
        assert!(t.occupancy() <= 2);
    }
}
