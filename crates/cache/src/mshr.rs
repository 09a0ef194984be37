//! Miss Status Holding Registers with primary/secondary miss merging.

use nuba_types::{IntMap, LineAddr};

/// Outcome of trying to allocate an MSHR for a missing line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// First miss on this line: the caller must send a fill request
    /// downstream.
    Primary,
    /// The line is already being fetched: the waiter was merged, no new
    /// downstream request is needed.
    Secondary,
    /// No MSHR entry available — the requester must stall.
    NoEntry,
    /// The entry exists but its merge list is full — stall.
    MergeFull,
}

/// An MSHR file tracking outstanding line fills.
///
/// `W` is the waiter payload returned when the fill completes (typically
/// the original request so the reply can be routed).
#[derive(Debug, Clone)]
pub struct MshrFile<W> {
    entries: IntMap<LineAddr, Vec<W>>,
    max_entries: usize,
    max_merges: usize,
    peak_occupancy: usize,
    /// Recycled waiter vectors (see [`MshrFile::recycle`]): keeps the
    /// allocate/complete churn on the per-cycle path allocation-free
    /// once warmed up.
    free: Vec<Vec<W>>,
}

impl<W> MshrFile<W> {
    /// An MSHR file with `max_entries` outstanding lines and up to
    /// `max_merges` waiters per line.
    ///
    /// # Panics
    /// Panics if either limit is zero.
    pub fn new(max_entries: usize, max_merges: usize) -> MshrFile<W> {
        assert!(
            max_entries > 0 && max_merges > 0,
            "mshr limits must be non-zero"
        );
        MshrFile {
            entries: IntMap::with_capacity_and_hasher(max_entries, Default::default()),
            max_entries,
            max_merges,
            peak_occupancy: 0,
            // Pre-size every pooled waiter list for a full merge chain so
            // allocate()/recycle() never grow a vector on the hot path.
            free: (0..max_entries)
                .map(|_| Vec::with_capacity(max_merges))
                .collect(),
        }
    }

    /// Try to record a miss on `line` with `waiter` to wake on fill.
    ///
    /// On [`MshrOutcome::NoEntry`] / [`MshrOutcome::MergeFull`] the waiter
    /// is handed back through the `Err` side so callers keep ownership.
    pub fn allocate(&mut self, line: LineAddr, waiter: W) -> Result<MshrOutcome, (MshrOutcome, W)> {
        if let Some(waiters) = self.entries.get_mut(&line) {
            if waiters.len() >= self.max_merges {
                return Err((MshrOutcome::MergeFull, waiter));
            }
            waiters.push(waiter);
            return Ok(MshrOutcome::Secondary);
        }
        if self.entries.len() >= self.max_entries {
            return Err((MshrOutcome::NoEntry, waiter));
        }
        let mut waiters = self.free.pop().unwrap_or_default();
        waiters.push(waiter);
        self.entries.insert(line, waiters);
        self.peak_occupancy = self.peak_occupancy.max(self.entries.len());
        Ok(MshrOutcome::Primary)
    }

    /// Whether a fill for `line` is outstanding.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.entries.contains_key(&line)
    }

    /// Whether a secondary miss on `line` can merge (entry exists and its
    /// merge list has room).
    pub fn can_merge(&self, line: LineAddr) -> bool {
        self.entries
            .get(&line)
            .is_some_and(|w| w.len() < self.max_merges)
    }

    /// Complete the fill for `line`, returning all merged waiters
    /// (empty if no entry existed).
    pub fn complete(&mut self, line: LineAddr) -> Vec<W> {
        self.entries.remove(&line).unwrap_or_default()
    }

    /// Hand a drained waiter vector (from [`MshrFile::complete`]) back
    /// for reuse by a later primary miss. The pool is bounded by the
    /// entry limit, matching the file's steady-state needs.
    pub fn recycle(&mut self, mut waiters: Vec<W>) {
        if self.free.len() < self.max_entries {
            waiters.clear();
            if waiters.capacity() < self.max_merges {
                waiters.reserve(self.max_merges);
            }
            self.free.push(waiters);
        }
    }

    /// Outstanding line count.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Whether a new primary miss can be accepted.
    pub fn has_free_entry(&self) -> bool {
        self.entries.len() < self.max_entries
    }

    /// Highest occupancy observed (for reports).
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Read the high-water mark and re-arm it at the current occupancy,
    /// so the next read reports the peak *since this call* (telemetry
    /// windows sample MSHR pressure per interval, not per run).
    pub fn take_peak(&mut self) -> usize {
        let peak = self.peak_occupancy;
        self.peak_occupancy = self.entries.len();
        peak
    }

    /// Total waiters across all entries.
    pub fn total_waiters(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }
}

impl<W: StateValue> SaveState for MshrFile<W> {
    fn save(&self, w: &mut StateWriter) {
        save_map(w, &self.entries);
        self.peak_occupancy.put(w);
        // The free pool is rebuilt on restore (its contents are recycled
        // empties); only the outstanding entries and the peak travel.
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        restore_map(r, &mut self.entries)?;
        if self.entries.len() > self.max_entries {
            return Err(StateError::LengthMismatch {
                what: "MSHR entries exceed file size",
                expected: self.max_entries,
                found: self.entries.len(),
            });
        }
        self.peak_occupancy = usize::get(r)?;
        // Re-balance the recycled-vector pool so pool + live entries
        // again cover the whole file, as in steady state.
        let want_free = self.max_entries - self.entries.len();
        self.free.truncate(want_free);
        while self.free.len() < want_free {
            self.free.push(Vec::with_capacity(self.max_merges));
        }
        Ok(())
    }
}

use nuba_types::state::{
    restore_map, save_map, SaveState, StateError, StateReader, StateValue, StateWriter,
};

#[cfg(test)]
mod tests {
    use super::*;

    fn line(i: u64) -> LineAddr {
        LineAddr(i * 128)
    }

    #[test]
    fn primary_then_secondary() {
        let mut m = MshrFile::new(4, 4);
        assert_eq!(m.allocate(line(0), "a"), Ok(MshrOutcome::Primary));
        assert_eq!(m.allocate(line(0), "b"), Ok(MshrOutcome::Secondary));
        assert!(m.contains(line(0)));
        let waiters = m.complete(line(0));
        assert_eq!(waiters, vec!["a", "b"]);
        assert!(!m.contains(line(0)));
    }

    #[test]
    fn entry_exhaustion_stalls() {
        let mut m = MshrFile::new(2, 4);
        m.allocate(line(0), 0).unwrap();
        m.allocate(line(1), 1).unwrap();
        assert!(!m.has_free_entry());
        let (outcome, waiter) = m.allocate(line(2), 2).unwrap_err();
        assert_eq!(outcome, MshrOutcome::NoEntry);
        assert_eq!(waiter, 2);
        // Secondary merges still work when entries are exhausted.
        assert_eq!(m.allocate(line(0), 3), Ok(MshrOutcome::Secondary));
    }

    #[test]
    fn merge_list_exhaustion() {
        let mut m = MshrFile::new(4, 2);
        m.allocate(line(0), 0).unwrap();
        m.allocate(line(0), 1).unwrap();
        let (outcome, _) = m.allocate(line(0), 2).unwrap_err();
        assert_eq!(outcome, MshrOutcome::MergeFull);
        assert_eq!(m.total_waiters(), 2);
    }

    #[test]
    fn complete_unknown_line_is_empty() {
        let mut m: MshrFile<u8> = MshrFile::new(2, 2);
        assert!(m.complete(line(9)).is_empty());
    }

    #[test]
    fn peak_occupancy_tracks_high_water() {
        let mut m = MshrFile::new(8, 2);
        for i in 0..5 {
            m.allocate(line(i), i).unwrap();
        }
        for i in 0..5 {
            m.complete(line(i));
        }
        assert_eq!(m.occupancy(), 0);
        assert_eq!(m.peak_occupancy(), 5);
    }

    #[test]
    fn take_peak_rearms_at_current_occupancy() {
        let mut m = MshrFile::new(8, 2);
        for i in 0..5 {
            m.allocate(line(i), i).unwrap();
        }
        for i in 0..4 {
            m.complete(line(i));
        }
        assert_eq!(m.take_peak(), 5);
        // Re-armed at the single outstanding entry, not zero.
        assert_eq!(m.peak_occupancy(), 1);
        m.allocate(line(9), 9).unwrap();
        assert_eq!(m.take_peak(), 2);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_limits_panic() {
        let _: MshrFile<u8> = MshrFile::new(0, 1);
    }
}
