//! The GPU page table: virtual page → (channel, frame) mappings plus
//! the per-page sharing metadata the driver and the experiments use.

use nuba_types::addr::PageNum;
use nuba_types::{ChannelId, IntMap, PartitionId, SmId};

/// A virtual-to-physical mapping: the memory channel that homes the page
/// and the page-frame index within that channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Home memory channel.
    pub channel: ChannelId,
    /// Frame index within the channel (dense, allocated in order).
    pub frame: u64,
}

/// Per-page metadata.
#[derive(Debug, Clone)]
pub struct PageEntry {
    /// The primary mapping.
    pub home: Translation,
    /// The SM that first touched the page.
    pub first_toucher: SmId,
    /// Bitmask of SMs that have accessed the page (supports up to 128
    /// SMs — the largest configuration in the paper's evaluation).
    pub accessors: u128,
    /// Total recorded accesses.
    pub accesses: u64,
    /// Accesses per partition since the last maintenance interval
    /// (allocated lazily by the migration tracker).
    pub recent_by_partition: Vec<u32>,
    /// Replica mappings per partition (page-replication alternative,
    /// §7.6). Empty for the main policies.
    pub replicas: Vec<(PartitionId, Translation)>,
}

impl PageEntry {
    /// Number of distinct SMs that accessed the page (Fig. 3's sharing
    /// degree).
    pub fn sharer_count(&self) -> u32 {
        self.accessors.count_ones()
    }
}

/// The driver's page table plus per-channel frame allocators.
#[derive(Debug, Default)]
pub struct PageTable {
    entries: IntMap<PageNum, PageEntry>,
    next_frame: Vec<u64>,
}

impl PageTable {
    /// An empty table over `num_channels` channels.
    pub fn new(num_channels: usize) -> PageTable {
        PageTable {
            entries: IntMap::default(),
            next_frame: vec![0; num_channels],
        }
    }

    /// Whether `vpage` is mapped.
    pub fn is_mapped(&self, vpage: PageNum) -> bool {
        self.entries.contains_key(&vpage)
    }

    /// Look up the mapping an access from `partition` should use: the
    /// local replica if one exists, else the home mapping.
    pub fn translate(&self, vpage: PageNum, partition: PartitionId) -> Option<Translation> {
        let e = self.entries.get(&vpage)?;
        if let Some(&(_, t)) = e.replicas.iter().find(|(p, _)| *p == partition) {
            return Some(t);
        }
        Some(e.home)
    }

    /// The page's entry, if mapped.
    pub fn entry(&self, vpage: PageNum) -> Option<&PageEntry> {
        self.entries.get(&vpage)
    }

    /// Map `vpage` into `channel`, claiming the channel's next frame.
    ///
    /// # Panics
    /// Panics if the page is already mapped (faults are unique) or the
    /// channel id is out of range.
    pub fn map(&mut self, vpage: PageNum, channel: ChannelId, first_toucher: SmId) -> Translation {
        assert!(
            !self.entries.contains_key(&vpage),
            "page {vpage} double-mapped"
        );
        let frame = self.claim_frame(channel);
        let home = Translation { channel, frame };
        // Partition counters are sized eagerly here (partitions and
        // channels are 1:1 in every GpuConfig) so recording accesses on
        // the per-cycle path never allocates; `record_access` retains a
        // lazy fallback for tables driven with a different count.
        self.entries.insert(
            vpage,
            PageEntry {
                home,
                first_toucher,
                accessors: 0,
                accesses: 0,
                recent_by_partition: vec![0; self.next_frame.len()],
                replicas: Vec::new(),
            },
        );
        home
    }

    /// Claim the next frame in `channel` (also used for replicas and
    /// migrations). Every [`Translation`] is made here, so this is where
    /// its channel is checked — once per mapping, not on each access
    /// that later composes an address from it.
    ///
    /// # Panics
    /// Panics if `channel` is out of range.
    pub fn claim_frame(&mut self, channel: ChannelId) -> u64 {
        nuba_types::invariant!(
            "mapping_channel_in_range",
            channel.0 < self.next_frame.len(),
            "channel {} of {}",
            channel.0,
            self.next_frame.len()
        );
        let f = &mut self.next_frame[channel.0];
        let frame = *f;
        *f += 1;
        frame
    }

    /// Record an access for sharing statistics and migration tracking.
    ///
    /// `num_partitions` sizes the lazy per-partition counters.
    pub fn record_access(
        &mut self,
        vpage: PageNum,
        sm: SmId,
        partition: PartitionId,
        num_partitions: usize,
    ) {
        if let Some(e) = self.entries.get_mut(&vpage) {
            e.accessors |= 1u128 << (sm.0 as u32 % 128);
            e.accesses += 1;
            if e.recent_by_partition.len() < num_partitions {
                e.recent_by_partition.resize(num_partitions, 0);
            }
            e.recent_by_partition[partition.0] =
                e.recent_by_partition[partition.0].saturating_add(1);
        }
    }

    /// Move a page's home to `channel` (page migration, §7.6).
    ///
    /// # Panics
    /// Panics if the page is unmapped.
    pub fn migrate(&mut self, vpage: PageNum, channel: ChannelId) -> Translation {
        let frame = self.claim_frame(channel);
        let e = self
            .entries
            .get_mut(&vpage)
            .expect("migrating unmapped page");
        e.home = Translation { channel, frame };
        e.recent_by_partition.iter_mut().for_each(|c| *c = 0);
        e.home
    }

    /// Add a replica of `vpage` for `partition` in `channel`
    /// (page replication, §7.6). No-op if one already exists.
    pub fn add_replica(&mut self, vpage: PageNum, partition: PartitionId, channel: ChannelId) {
        let frame = self.claim_frame(channel);
        let Some(e) = self.entries.get_mut(&vpage) else {
            return;
        };
        if e.replicas.iter().any(|(p, _)| *p == partition) {
            return;
        }
        e.replicas.push((partition, Translation { channel, frame }));
    }

    /// Iterate over all mapped pages.
    pub fn iter(&self) -> impl Iterator<Item = (&PageNum, &PageEntry)> {
        self.entries.iter()
    }

    /// Number of mapped pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Histogram of sharing degrees: `result[k]` = pages accessed by
    /// exactly `k` SMs (index 0 counts never-accessed pages). Used to
    /// regenerate Fig. 3.
    pub fn sharing_histogram(&self, max_sms: usize) -> Vec<u64> {
        let mut hist = vec![0u64; max_sms + 1];
        for e in self.entries.values() {
            let s = (e.sharer_count() as usize).min(max_sms);
            hist[s] += 1;
        }
        hist
    }
}

impl StateValue for Translation {
    fn put(&self, w: &mut StateWriter) {
        self.channel.put(w);
        self.frame.put(w);
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(Translation {
            channel: ChannelId::get(r)?,
            frame: u64::get(r)?,
        })
    }
}

impl StateValue for PageEntry {
    fn put(&self, w: &mut StateWriter) {
        self.home.put(w);
        self.first_toucher.put(w);
        // u128 splits into two u64 halves (the writer is 64-bit native).
        ((self.accessors >> 64) as u64).put(w);
        (self.accessors as u64).put(w);
        self.accesses.put(w);
        self.recent_by_partition.put(w);
        self.replicas.put(w);
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        let home = Translation::get(r)?;
        let first_toucher = SmId::get(r)?;
        let hi = u64::get(r)?;
        let lo = u64::get(r)?;
        Ok(PageEntry {
            home,
            first_toucher,
            accessors: (u128::from(hi) << 64) | u128::from(lo),
            accesses: u64::get(r)?,
            recent_by_partition: Vec::<u32>::get(r)?,
            replicas: Vec::<(PartitionId, Translation)>::get(r)?,
        })
    }
}

impl SaveState for PageTable {
    fn save(&self, w: &mut StateWriter) {
        save_map(w, &self.entries);
        self.next_frame.put(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        restore_map(r, &mut self.entries)?;
        let next_frame = Vec::<u64>::get(r)?;
        if next_frame.len() != self.next_frame.len() {
            return Err(StateError::LengthMismatch {
                what: "page-table channel count",
                expected: self.next_frame.len(),
                found: next_frame.len(),
            });
        }
        self.next_frame = next_frame;
        Ok(())
    }
}

use nuba_types::state::{
    restore_map, save_map, SaveState, StateError, StateReader, StateValue, StateWriter,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_and_translate() {
        let mut t = PageTable::new(4);
        let tr = t.map(PageNum(9), ChannelId(2), SmId(0));
        assert_eq!(tr.channel, ChannelId(2));
        assert_eq!(tr.frame, 0);
        assert_eq!(t.translate(PageNum(9), PartitionId(0)), Some(tr));
        assert!(t.is_mapped(PageNum(9)));
        assert!(!t.is_mapped(PageNum(10)));
    }

    #[test]
    fn frames_are_dense_per_channel() {
        let mut t = PageTable::new(2);
        let a = t.map(PageNum(0), ChannelId(0), SmId(0));
        let b = t.map(PageNum(1), ChannelId(0), SmId(0));
        let c = t.map(PageNum(2), ChannelId(1), SmId(0));
        assert_eq!((a.frame, b.frame, c.frame), (0, 1, 0));
    }

    #[test]
    #[should_panic(expected = "double-mapped")]
    fn double_map_panics() {
        let mut t = PageTable::new(1);
        t.map(PageNum(0), ChannelId(0), SmId(0));
        t.map(PageNum(0), ChannelId(0), SmId(0));
    }

    #[test]
    fn sharing_metadata() {
        let mut t = PageTable::new(2);
        t.map(PageNum(0), ChannelId(0), SmId(3));
        t.record_access(PageNum(0), SmId(3), PartitionId(1), 2);
        t.record_access(PageNum(0), SmId(5), PartitionId(1), 2);
        t.record_access(PageNum(0), SmId(3), PartitionId(0), 2);
        let e = t.entry(PageNum(0)).unwrap();
        assert_eq!(e.sharer_count(), 2);
        assert_eq!(e.accesses, 3);
        assert_eq!(e.first_toucher, SmId(3));
        assert_eq!(e.recent_by_partition, vec![1, 2]);
    }

    #[test]
    fn migration_rehomes_and_resets_counters() {
        let mut t = PageTable::new(2);
        t.map(PageNum(0), ChannelId(0), SmId(0));
        t.record_access(PageNum(0), SmId(1), PartitionId(1), 2);
        let tr = t.migrate(PageNum(0), ChannelId(1));
        assert_eq!(tr.channel, ChannelId(1));
        assert_eq!(
            t.translate(PageNum(0), PartitionId(0)).unwrap().channel,
            ChannelId(1)
        );
        assert!(t
            .entry(PageNum(0))
            .unwrap()
            .recent_by_partition
            .iter()
            .all(|&c| c == 0));
    }

    #[test]
    fn replicas_serve_their_partition_only() {
        let mut t = PageTable::new(4);
        t.map(PageNum(0), ChannelId(0), SmId(0));
        t.add_replica(PageNum(0), PartitionId(2), ChannelId(2));
        assert_eq!(
            t.translate(PageNum(0), PartitionId(2)).unwrap().channel,
            ChannelId(2)
        );
        assert_eq!(
            t.translate(PageNum(0), PartitionId(1)).unwrap().channel,
            ChannelId(0)
        );
        // Idempotent.
        t.add_replica(PageNum(0), PartitionId(2), ChannelId(2));
        assert_eq!(t.entry(PageNum(0)).unwrap().replicas.len(), 1);
    }

    #[test]
    fn sharing_histogram_shape() {
        let mut t = PageTable::new(1);
        t.map(PageNum(0), ChannelId(0), SmId(0));
        t.map(PageNum(1), ChannelId(0), SmId(0));
        t.record_access(PageNum(0), SmId(0), PartitionId(0), 1);
        t.record_access(PageNum(1), SmId(0), PartitionId(0), 1);
        t.record_access(PageNum(1), SmId(1), PartitionId(0), 1);
        let h = t.sharing_histogram(4);
        assert_eq!(h, vec![0, 1, 1, 0, 0]);
    }
}
