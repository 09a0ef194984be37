//! A set-associative TLB over virtual page numbers.

use nuba_types::addr::PageNum;

/// One entry: the page number with `VALID` in its top bit, which no
/// page number reaches (`GpuConfig::validate` keeps a page at least one
/// 128 B line, so page numbers fit in 57 bits), and its recency stamp.
/// 16 bytes.
///
/// An invalidated entry keeps its page; only `VALID` clears.
/// Checkpoints carry it, so it is part of the state.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    /// `vpage | VALID`.
    tag: u64,
    last_use: u64,
}

const VALID: u64 = 1 << 63;

impl Entry {
    fn new(vpage: PageNum, last_use: u64) -> Entry {
        debug_assert_eq!(vpage.0 & VALID, 0, "page {vpage} uses the valid bit");
        Entry {
            tag: vpage.0 | VALID,
            last_use,
        }
    }

    fn vpage(self) -> PageNum {
        PageNum(self.tag & !VALID)
    }

    fn valid(self) -> bool {
        self.tag & VALID != 0
    }

    /// Valid and holding `vpage`.
    fn holds(self, vpage: PageNum) -> bool {
        self.tag == vpage.0 | VALID
    }
}

/// A set-associative, LRU-replaced TLB.
///
/// Stores only *presence* of a translation — the simulator looks actual
/// mappings up in the driver's page table, which is free at simulation
/// time; the TLB models the timing-relevant reach and miss behaviour.
#[derive(Debug, Clone)]
pub struct Tlb {
    sets: usize,
    ways: usize,
    entries: Vec<Entry>,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// A TLB with `entries` total entries and `ways` associativity
    /// (`ways == entries` gives a fully-associative TLB).
    ///
    /// # Panics
    /// Panics if `ways` is zero or does not divide `entries`.
    pub fn new(entries: usize, ways: usize) -> Tlb {
        assert!(ways > 0 && entries > 0, "TLB dimensions must be non-zero");
        assert!(entries.is_multiple_of(ways), "ways must divide entries");
        Tlb {
            sets: entries / ways,
            ways,
            entries: vec![Entry::default(); entries],
            stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_of(&self, vpage: PageNum) -> usize {
        (vpage.0 % self.sets as u64) as usize
    }

    /// Look up `vpage`, updating recency and hit/miss counters.
    pub fn lookup(&mut self, vpage: PageNum) -> bool {
        self.stamp += 1;
        let set = self.set_of(vpage);
        let base = set * self.ways;
        for e in &mut self.entries[base..base + self.ways] {
            if e.holds(vpage) {
                e.last_use = self.stamp;
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        false
    }

    /// Install `vpage`, evicting the set's LRU entry if needed. Returns
    /// the evicted page, if any.
    pub fn insert(&mut self, vpage: PageNum) -> Option<PageNum> {
        self.stamp += 1;
        let set = self.set_of(vpage);
        let base = set * self.ways;
        let ways = &mut self.entries[base..base + self.ways];
        if let Some(e) = ways.iter_mut().find(|e| e.holds(vpage)) {
            e.last_use = self.stamp;
            return None;
        }
        let fill = Entry::new(vpage, self.stamp);
        if let Some(e) = ways.iter_mut().find(|e| !e.valid()) {
            *e = fill;
            return None;
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|e| e.last_use)
            .expect("non-empty set");
        let evicted = victim.vpage();
        *victim = fill;
        Some(evicted)
    }

    /// Invalidate one page's entry if present (per-page shootdown).
    pub fn invalidate(&mut self, vpage: PageNum) -> bool {
        let set = self.set_of(vpage);
        let base = set * self.ways;
        for e in &mut self.entries[base..base + self.ways] {
            if e.holds(vpage) {
                e.tag &= !VALID;
                return true;
            }
        }
        false
    }

    /// Drop every entry (kernel boundary / TLB shootdown).
    pub fn flush(&mut self) {
        for e in &mut self.entries {
            e.tag &= !VALID;
        }
    }

    /// Hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate over all lookups (0 if none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl StateValue for Entry {
    fn put(&self, w: &mut StateWriter) {
        self.valid().put(w);
        self.vpage().put(w);
        self.last_use.put(w);
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        let valid = bool::get(r)?;
        let vpage = PageNum::get(r)?;
        let last_use = u64::get(r)?;
        if vpage.0 & VALID != 0 {
            return Err(StateError::Corrupt("TLB entry page uses the valid bit"));
        }
        let mut entry = Entry::new(vpage, last_use);
        if !valid {
            entry.tag &= !VALID;
        }
        Ok(entry)
    }
}

impl SaveState for Tlb {
    fn save(&self, w: &mut StateWriter) {
        save_items(w, &self.entries);
        self.stamp.put(w);
        self.hits.put(w);
        self.misses.put(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        restore_items(r, "TLB entries", &mut self.entries)?;
        self.stamp = u64::get(r)?;
        self.hits = u64::get(r)?;
        self.misses = u64::get(r)?;
        Ok(())
    }
}

use nuba_types::state::{
    restore_items, save_items, SaveState, StateError, StateReader, StateValue, StateWriter,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_insert_hit() {
        let mut t = Tlb::new(128, 128);
        assert!(!t.lookup(PageNum(5)));
        t.insert(PageNum(5));
        assert!(t.lookup(PageNum(5)));
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 1);
        assert_eq!(t.hit_rate(), 0.5);
    }

    #[test]
    fn lru_eviction_within_set() {
        // 2 entries, 2 ways → one set.
        let mut t = Tlb::new(2, 2);
        t.insert(PageNum(1));
        t.insert(PageNum(2));
        t.lookup(PageNum(1)); // 1 is MRU
        let evicted = t.insert(PageNum(3));
        assert_eq!(evicted, Some(PageNum(2)));
        assert!(t.lookup(PageNum(1)));
        assert!(!t.lookup(PageNum(2)));
    }

    #[test]
    fn set_associative_conflicts() {
        // 4 entries, 2 ways → 2 sets. Pages 0,2,4 collide in set 0.
        let mut t = Tlb::new(4, 2);
        t.insert(PageNum(0));
        t.insert(PageNum(2));
        t.insert(PageNum(4));
        // One of {0,2} evicted, page 1's set untouched.
        t.insert(PageNum(1));
        assert!(t.lookup(PageNum(1)));
        assert!(t.lookup(PageNum(4)));
    }

    #[test]
    fn reinsert_refreshes() {
        let mut t = Tlb::new(2, 2);
        t.insert(PageNum(1));
        t.insert(PageNum(2));
        assert_eq!(t.insert(PageNum(1)), None); // refresh, no eviction
        let evicted = t.insert(PageNum(3));
        assert_eq!(evicted, Some(PageNum(2)));
    }

    #[test]
    fn flush_empties() {
        let mut t = Tlb::new(8, 4);
        t.insert(PageNum(1));
        t.flush();
        assert!(!t.lookup(PageNum(1)));
    }

    /// An entry can decode cleanly and still hold a page number with
    /// its top bit set, which no page size `GpuConfig::validate` admits
    /// produces and the packed entry would read as its valid bit.
    /// Restoring it is a typed error.
    #[test]
    fn an_entry_whose_page_uses_the_valid_bit_is_rejected() {
        let mut t = Tlb::new(2, 2);
        t.insert(PageNum(5));
        let mut w = StateWriter::new();
        t.save(&mut w);
        let bytes = w.into_bytes();
        let restore = |bytes: &[u8]| Tlb::new(2, 2).restore(&mut StateReader::new(bytes));
        assert_eq!(restore(&bytes), Ok(()));
        // The entry count, then the first entry's valid byte and page.
        let at = 8 + 1;
        assert_eq!(bytes[at..at + 8], 5u64.to_le_bytes());
        let mut bad = bytes.clone();
        bad[at..at + 8].copy_from_slice(&(5 | 1u64 << 63).to_le_bytes());
        assert_eq!(
            restore(&bad),
            Err(StateError::Corrupt("TLB entry page uses the valid bit"))
        );
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn bad_geometry_panics() {
        let _ = Tlb::new(10, 4);
    }
}
