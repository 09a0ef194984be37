//! Miss Status Holding Registers with primary/secondary miss merging.

use std::collections::hash_map::Entry;

use nuba_types::state::{SaveState, StateError, StateReader, StateValue, StateWriter};
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
///
/// Waiters live in the file's slab, not in a vector per entry. A line's
/// waiters fill a short run of four slots; a merge that finds the run
/// full moves the list to a run of `max_merges` slots. Freed runs go on
/// LIFO free lists. The slab holds as many runs of each length as the
/// file has ever used at once, so its memory tracks the traffic, not
/// `max_entries × max_merges` (DESIGN.md §9.3).
#[derive(Debug, Clone)]
pub struct MshrFile<W> {
    entries: IntMap<LineAddr, List>,
    slab: Slab<W>,
    max_entries: usize,
    max_merges: usize,
    peak_occupancy: usize,
    /// The vector [`MshrFile::complete`] copies a list into, handed back
    /// by [`MshrFile::recycle`]: sized for a full merge list, so the
    /// allocate/complete churn stays allocation-free.
    spare: Vec<W>,
}

/// Slots in a short run, the reservation per entry: twice the highest
/// LLC per-entry load measured over the Table-2 matrix.
const SHORT: usize = 4;

/// One outstanding line's waiters: the run that holds them (short while
/// `len <= SHORT`, long after) and how many there are.
#[derive(Debug, Clone, Copy)]
struct List {
    run: u32,
    len: u32,
}

/// Waiter runs, each kind with a LIFO stack of free run indices.
#[derive(Debug, Clone)]
struct Slab<W> {
    short: Vec<[W; SHORT]>,
    free_short: Vec<u32>,
    /// Long run `k` is `long[k * max_merges..][..max_merges]`.
    long: Vec<W>,
    free_long: Vec<u32>,
    max_merges: usize,
    /// Runs of one kind the file can ever hold at once: one per entry.
    max_runs: usize,
}

impl<W: Copy> Slab<W> {
    /// A list holding `waiter`, in a free short run.
    fn start(&mut self, waiter: W) -> List {
        let run = match self.free_short.pop() {
            Some(run) => {
                self.short[run as usize][0] = waiter;
                run
            }
            None => self.grow_short(waiter),
        };
        List { run, len: 1 }
    }

    /// Append `waiter` to `list`, moving the list to a long run when its
    /// short run is full.
    fn push(&mut self, list: &mut List, waiter: W) {
        let n = list.len as usize;
        if n < SHORT {
            self.short[list.run as usize][n] = waiter;
        } else {
            if n == SHORT {
                let long = match self.free_long.pop() {
                    Some(run) => run,
                    None => self.grow_long(waiter),
                };
                let at = long as usize * self.max_merges;
                self.long[at..at + SHORT].copy_from_slice(&self.short[list.run as usize]);
                self.free_short.push(list.run);
                list.run = long;
            }
            self.long[list.run as usize * self.max_merges + n] = waiter;
        }
        list.len += 1;
    }

    /// Append `list`'s waiters to `out` in merge order.
    fn copy_out(&self, list: List, out: &mut Vec<W>) {
        let n = list.len as usize;
        if n <= SHORT {
            // A fixed-size copy, then cut the stale slots.
            let end = out.len() + n;
            out.extend_from_slice(&self.short[list.run as usize]);
            out.truncate(end);
        } else {
            let at = list.run as usize * self.max_merges;
            out.extend_from_slice(&self.long[at..at + n]);
        }
    }

    /// Free `list`'s run.
    fn release(&mut self, list: List) {
        if list.len as usize <= SHORT {
            self.free_short.push(list.run);
        } else {
            self.free_long.push(list.run);
        }
    }

    /// A new short run holding `waiter`: the free stack was empty.
    #[cold]
    fn grow_short(&mut self, waiter: W) -> u32 {
        let runs = self.short.len();
        assert!(runs < self.max_runs, "MSHR slab out of runs: a run leaked");
        if runs == self.short.capacity() {
            // Double, but never past one run per entry; the free stack
            // keeps room for every run.
            self.short
                .reserve_exact(runs.clamp(1, self.max_runs - runs));
            self.free_short.reserve_exact(self.short.capacity());
        }
        self.short.push([waiter; SHORT]);
        runs as u32
    }

    /// A new long run, its slots filled with `fill`: the free stack was
    /// empty.
    #[cold]
    fn grow_long(&mut self, fill: W) -> u32 {
        let runs = self.long.len() / self.max_merges;
        assert!(runs < self.max_runs, "MSHR slab out of runs: a run leaked");
        if self.long.capacity() - self.long.len() < self.max_merges {
            let more = runs.clamp(1, self.max_runs - runs);
            self.long.reserve_exact(more * self.max_merges);
            self.free_long.reserve_exact(runs + more);
        }
        self.long.resize(self.long.len() + self.max_merges, fill);
        runs as u32
    }

    /// Drop every run, keeping the slab's capacity.
    fn clear(&mut self) {
        self.short.clear();
        self.free_short.clear();
        self.long.clear();
        self.free_long.clear();
    }
}

impl<W: Copy> MshrFile<W> {
    /// An MSHR file with `max_entries` outstanding lines and up to
    /// `max_merges` waiters per line.
    ///
    /// # Panics
    /// Panics if either limit is zero, or `max_entries` does not fit a
    /// `u32`.
    pub fn new(max_entries: usize, max_merges: usize) -> MshrFile<W> {
        MshrFile::with_waiters(max_entries, max_merges, 0)
    }

    /// As [`MshrFile::new`], for traffic known to keep at most
    /// `expected_waiters` waiters outstanding at once (an L1: active
    /// warps × per-warp loads in flight). The slab reserves a short run
    /// per entry, and the long runs that many waiters can fill.
    ///
    /// # Panics
    /// As [`MshrFile::new`].
    pub fn with_waiters(
        max_entries: usize,
        max_merges: usize,
        expected_waiters: usize,
    ) -> MshrFile<W> {
        assert!(
            max_entries > 0 && max_merges > 0,
            "mshr limits must be non-zero"
        );
        assert!(
            u32::try_from(max_entries).is_ok(),
            "mshr entries must fit a u32"
        );
        // A list takes a long run only past `SHORT` waiters.
        let long = if max_merges > SHORT {
            (expected_waiters / (SHORT + 1)).min(max_entries)
        } else {
            0
        };
        MshrFile {
            entries: IntMap::with_capacity_and_hasher(max_entries, Default::default()),
            slab: Slab {
                short: Vec::with_capacity(max_entries),
                free_short: Vec::with_capacity(max_entries),
                long: Vec::with_capacity(long * max_merges),
                free_long: Vec::with_capacity(long),
                max_merges,
                max_runs: max_entries,
            },
            max_entries,
            max_merges,
            peak_occupancy: 0,
            spare: Vec::with_capacity(max_merges.max(SHORT)),
        }
    }

    /// Try to record a miss on `line` with `waiter` to wake on fill.
    ///
    /// On [`MshrOutcome::NoEntry`] / [`MshrOutcome::MergeFull`] the waiter
    /// is handed back through the `Err` side so callers keep ownership.
    pub fn allocate(&mut self, line: LineAddr, waiter: W) -> Result<MshrOutcome, (MshrOutcome, W)> {
        // One hash lookup either way. A full file can only merge, and
        // looks up with `get_mut`: `entry` may grow the table for a new
        // key even when it is then refused.
        let list = if self.entries.len() >= self.max_entries {
            match self.entries.get_mut(&line) {
                Some(list) => list,
                None => return Err((MshrOutcome::NoEntry, waiter)),
            }
        } else {
            match self.entries.entry(line) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    e.insert(self.slab.start(waiter));
                    self.peak_occupancy = self.peak_occupancy.max(self.entries.len());
                    return Ok(MshrOutcome::Primary);
                }
            }
        };
        if list.len as usize >= self.max_merges {
            return Err((MshrOutcome::MergeFull, waiter));
        }
        self.slab.push(list, waiter);
        Ok(MshrOutcome::Secondary)
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
            .is_some_and(|l| (l.len as usize) < self.max_merges)
    }

    /// Complete the fill for `line`, returning all merged waiters in
    /// merge order (empty if no entry existed).
    pub fn complete(&mut self, line: LineAddr) -> Vec<W> {
        let Some(list) = self.entries.remove(&line) else {
            return Vec::new();
        };
        let mut waiters = std::mem::take(&mut self.spare);
        self.slab.copy_out(list, &mut waiters);
        self.slab.release(list);
        waiters
    }

    /// Hand a drained waiter vector (from [`MshrFile::complete`]) back
    /// for the next completion to fill.
    pub fn recycle(&mut self, mut waiters: Vec<W>) {
        if waiters.capacity() > self.spare.capacity() {
            waiters.clear();
            self.spare = waiters;
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
        self.entries.values().map(|l| l.len as usize).sum()
    }
}

impl<W: StateValue + Copy> SaveState for MshrFile<W> {
    fn save(&self, w: &mut StateWriter) {
        // The layout of a `save_map` of `line → Vec<W>`: entries in
        // ascending line order, each with its waiters in merge order,
        // then the peak. Free runs and the spare vector are scratch.
        let mut lines: Vec<(LineAddr, List)> = self.entries.iter().map(|(&l, &c)| (l, c)).collect();
        lines.sort_unstable_by_key(|&(line, _)| line);
        lines.len().put(w);
        let mut waiters = Vec::new();
        for (line, list) in lines {
            line.put(w);
            waiters.clear();
            self.slab.copy_out(list, &mut waiters);
            waiters.put(w);
        }
        self.peak_occupancy.put(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        // Reject what `allocate` can never produce: more entries than
        // the file holds, an entry with no waiters (its fill would wake
        // nobody) or one with more than `max_merges`.
        let n = usize::get(r)?;
        if n > self.max_entries {
            return Err(StateError::LengthMismatch {
                what: "MSHR entries exceed file size",
                expected: self.max_entries,
                found: n,
            });
        }
        self.entries.clear();
        self.slab.clear();
        let mut prev: Option<LineAddr> = None;
        for _ in 0..n {
            let line = LineAddr::get(r)?;
            if prev.is_some_and(|p| line <= p) {
                return Err(StateError::Corrupt("map keys not strictly ascending"));
            }
            prev = Some(line);
            let len = usize::get(r)?;
            if len == 0 {
                return Err(StateError::Corrupt("MSHR entry with no waiters"));
            }
            if len > self.max_merges {
                return Err(StateError::LengthMismatch {
                    what: "MSHR waiters exceed merge limit",
                    expected: self.max_merges,
                    found: len,
                });
            }
            let mut list = self.slab.start(W::get(r)?);
            for _ in 1..len {
                self.slab.push(&mut list, W::get(r)?);
            }
            self.entries.insert(line, list);
        }
        self.peak_occupancy = usize::get(r)?;
        Ok(())
    }
}

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
    fn long_lists_move_runs_and_keep_merge_order() {
        // 2 entries reserve a short run each; lists of 16 move to long
        // runs, which the slab grows for.
        let mut m = MshrFile::new(2, 16);
        for i in 0..32u32 {
            let outcome = if i < 2 {
                MshrOutcome::Primary
            } else {
                MshrOutcome::Secondary
            };
            assert_eq!(m.allocate(line(u64::from(i % 2)), i), Ok(outcome));
        }
        assert_eq!(m.total_waiters(), 32);
        let evens: Vec<u32> = (0..32).step_by(2).collect();
        assert_eq!(m.complete(line(0)), evens);
        // The freed runs serve the next list.
        m.allocate(line(5), 99).unwrap();
        m.allocate(line(5), 100).unwrap();
        assert_eq!(m.complete(line(5)), vec![99, 100]);
    }

    /// Entries `(line index, waiters)` plus a peak, as `save` writes them.
    fn section(entries: &[(u64, &[u32])]) -> Vec<u8> {
        let mut w = StateWriter::new();
        entries.len().put(&mut w);
        for (l, waiters) in entries {
            line(*l).put(&mut w);
            waiters.to_vec().put(&mut w);
        }
        3usize.put(&mut w);
        w.into_bytes()
    }

    #[test]
    fn save_writes_the_map_layout_and_restores_merge_order() {
        let mut m: MshrFile<u32> = MshrFile::new(4, 4);
        for (l, waiter) in [(2, 20), (0, 1), (2, 21), (1, 10), (0, 2), (2, 22)] {
            m.allocate(line(l), waiter).unwrap();
        }
        let mut w = StateWriter::new();
        m.save(&mut w);
        assert_eq!(
            w.bytes(),
            section(&[(0, &[1, 2]), (1, &[10]), (2, &[20, 21, 22])])
        );
        let mut back: MshrFile<u32> = MshrFile::new(4, 4);
        back.restore(&mut StateReader::new(w.bytes())).unwrap();
        assert_eq!(back.peak_occupancy(), 3);
        assert_eq!(back.complete(line(2)), vec![20, 21, 22]);
        assert_eq!(back.complete(line(0)), vec![1, 2]);
    }

    #[test]
    fn restore_rejects_entries_allocate_cannot_produce() {
        let mut m: MshrFile<u32> = MshrFile::new(4, 2);
        let restore =
            |m: &mut MshrFile<u32>, bytes: Vec<u8>| m.restore(&mut StateReader::new(&bytes));
        assert_eq!(restore(&mut m, section(&[(0, &[1]), (1, &[2, 3])])), Ok(()));
        assert_eq!(
            restore(&mut m, section(&[(0, &[1]), (1, &[])])),
            Err(StateError::Corrupt("MSHR entry with no waiters"))
        );
        assert_eq!(
            restore(&mut m, section(&[(0, &[1, 2, 3])])),
            Err(StateError::LengthMismatch {
                what: "MSHR waiters exceed merge limit",
                expected: 2,
                found: 3,
            })
        );
        assert_eq!(
            restore(
                &mut m,
                section(&[(0, &[1]), (1, &[2]), (2, &[3]), (3, &[4]), (4, &[5])])
            ),
            Err(StateError::LengthMismatch {
                what: "MSHR entries exceed file size",
                expected: 4,
                found: 5,
            })
        );
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_limits_panic() {
        let _: MshrFile<u8> = MshrFile::new(0, 1);
    }
}
