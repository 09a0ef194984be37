//! Partition-aware physical address mapping (paper Fig. 2 and §2).
//!
//! The key requirement for NUBA is that the GPU driver controls *which
//! memory channel* a page lands in. The channel bits are therefore placed
//! immediately above the page offset and copied verbatim
//! ([`MappingKind::FixedChannel`]). Entropy across the row and bank bits is
//! still harvested to randomize the *bank* bits, as in the PAE policy
//! \[49\]; the least-significant bank bit(s) select the LLC slice within
//! the channel.
//!
//! [`MappingKind::Pae`] additionally randomizes the channel bits — the
//! conventional UBA configuration that trades driver control for
//! uniformity (used only in the Fig. 14 sensitivity study).
//!
//! Layout of a physical address (fixed-channel, 4 KB pages, 32 channels):
//!
//! ```text
//!   63            ...            17 16       12 11        0
//!  +--------------------------------+-----------+-----------+
//!  |       frame-within-channel     |  channel  |  page off |
//!  +--------------------------------+-----------+-----------+
//! ```
//!
//! Within a channel, the byte address (`frame * page_bytes + offset`)
//! decomposes into `| row | bank | column |` with a 1 KB row buffer and 16
//! banks, so one 4 KB page spans four banks — preserving bank-level
//! parallelism for streaming accesses.

use crate::addr::{PhysAddr, LINE_BYTES};
use crate::config::GpuConfig;
use crate::ids::{ChannelId, PartitionId, SliceId};

/// Which physical address mapping policy to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingKind {
    /// Fig. 2: channel bits sit right above the page offset and are
    /// copied verbatim so the driver controls page placement; bank bits
    /// are randomized with row entropy. Used for **both** UBA and NUBA in
    /// the paper's main evaluation to keep the comparison fair.
    FixedChannel,
    /// PAE \[49\]: like `FixedChannel`, but the channel bits are also
    /// XOR-randomized with row entropy. Gives UBA slightly better channel
    /// balance (+3.1% in the paper) at the cost of driver control.
    Pae,
}

/// The fields of a decoded physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedAddr {
    /// Memory channel / controller the address is homed in.
    pub channel: ChannelId,
    /// Bank within the channel (after randomization).
    pub bank: usize,
    /// DRAM row within the bank.
    pub row: u64,
    /// Byte column within the row.
    pub col: u64,
    /// LLC slice that homes this address (memory-side organizations).
    pub home_slice: SliceId,
    /// Partition that owns `channel`.
    pub home_partition: PartitionId,
}

/// A concrete address mapping for one [`GpuConfig`].
///
/// Construct once per simulation and share (it is `Copy`-cheap to clone).
///
/// # Example
/// ```
/// use nuba_types::{GpuConfig, ArchKind, AddressMapping};
/// use nuba_types::ids::ChannelId;
///
/// let cfg = GpuConfig::paper_baseline(ArchKind::Nuba);
/// let map = AddressMapping::new(&cfg);
/// let pa = map.compose(ChannelId(5), 42, 128);
/// let d = map.decode(pa);
/// assert_eq!(d.channel, ChannelId(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapping {
    kind: MappingKind,
    page_shift: u32,
    channel_bits: u32,
    num_channels: usize,
    banks: usize,
    row_bytes: u64,
    slices_per_channel: usize,
}

impl AddressMapping {
    /// Build the mapping implied by `cfg` (`cfg.mapping` selects the kind).
    ///
    /// # Panics
    /// Panics if `cfg` fails [`GpuConfig::validate`]-level invariants the
    /// mapping relies on (non-power-of-two channels or page size).
    pub fn new(cfg: &GpuConfig) -> AddressMapping {
        assert!(cfg.num_channels.is_power_of_two());
        assert!(cfg.page_bytes.is_power_of_two());
        assert!(cfg.dram_row_bytes.is_power_of_two());
        AddressMapping {
            kind: cfg.mapping,
            page_shift: cfg.page_bytes.trailing_zeros(),
            channel_bits: cfg.num_channels.trailing_zeros(),
            num_channels: cfg.num_channels,
            banks: cfg.banks_per_channel,
            row_bytes: cfg.dram_row_bytes,
            slices_per_channel: cfg.slices_per_channel(),
        }
    }

    /// The mapping policy in effect.
    pub fn kind(&self) -> MappingKind {
        self.kind
    }

    /// Compose a physical address from a channel, a page-frame index
    /// within that channel, and a byte offset within the page.
    ///
    /// This is the GPU driver's view: allocating frame `frame` of channel
    /// `channel` yields addresses whose channel bits decode back to
    /// `channel` under [`MappingKind::FixedChannel`].
    ///
    /// The fields are packed, not checked: `channel` must be one the
    /// page table handed out (it checks the range where it claims the
    /// frame, `mapping_channel_in_range`) and `offset` a
    /// [`VirtAddr::page_offset`](crate::VirtAddr::page_offset), which is
    /// below the page size by construction.
    pub fn compose(&self, channel: ChannelId, frame: u64, offset: u64) -> PhysAddr {
        let raw = offset
            | ((channel.0 as u64) << self.page_shift)
            | (frame << (self.page_shift + self.channel_bits));
        PhysAddr(raw)
    }

    /// Extract the literal (pre-randomization) channel bits.
    fn raw_channel(&self, pa: PhysAddr) -> usize {
        ((pa.0 >> self.page_shift) as usize) & (self.num_channels - 1)
    }

    /// The frame-within-channel index (bits above the channel field).
    pub fn frame(&self, pa: PhysAddr) -> u64 {
        pa.0 >> (self.page_shift + self.channel_bits)
    }

    /// Decode a physical address into channel / bank / row / column and
    /// the home LLC slice.
    pub fn decode(&self, pa: PhysAddr) -> DecodedAddr {
        // Byte address within the channel: frame * page + offset.
        let offset = pa.0 & ((1u64 << self.page_shift) - 1);
        let ca = self.frame(pa) << self.page_shift | offset;

        let col = ca & (self.row_bytes - 1);
        let bank_shift = self.row_bytes.trailing_zeros();
        let bank_raw = ((ca >> bank_shift) as usize) & (self.banks - 1);
        let row = ca >> (bank_shift + self.banks.trailing_zeros());

        // PAE-style entropy harvest: mix row bits into the bank bits
        // (both mapping kinds do this; Fig. 2 "randomized bank bits").
        let bank = bank_raw ^ (mix64(row) as usize & (self.banks - 1));

        let channel_raw = self.raw_channel(pa);
        let channel = match self.kind {
            MappingKind::FixedChannel => channel_raw,
            // PAE also randomizes the channel bits with row entropy.
            MappingKind::Pae => {
                channel_raw
                    ^ (mix64(row ^ 0x9e37_79b9_7f4a_7c15) as usize & (self.num_channels - 1))
            }
        };

        let home_slice =
            SliceId(channel * self.slices_per_channel + (bank & (self.slices_per_channel - 1)));
        DecodedAddr {
            channel: ChannelId(channel),
            bank,
            row,
            col,
            home_slice,
            home_partition: PartitionId(channel),
        }
    }

    /// The home LLC slice for a line address (memory-side routing).
    pub fn home_slice(&self, pa: PhysAddr) -> SliceId {
        self.decode(pa).home_slice
    }

    /// Number of distinct cache lines per DRAM row.
    pub fn lines_per_row(&self) -> u64 {
        self.row_bytes / LINE_BYTES
    }
}

/// splitmix64 finalizer: a cheap, well-mixed hash used to harvest address
/// entropy deterministically.
#[inline]
fn mix64(mut v: u64) -> u64 {
    v = (v ^ (v >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    v = (v ^ (v >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    v ^ (v >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ArchKind, GpuConfig};

    fn map(kind: MappingKind) -> AddressMapping {
        let mut cfg = GpuConfig::paper_baseline(ArchKind::Nuba);
        cfg.mapping = kind;
        AddressMapping::new(&cfg)
    }

    #[test]
    fn fixed_channel_preserves_driver_placement() {
        let m = map(MappingKind::FixedChannel);
        for ch in 0..32 {
            for frame in [0u64, 1, 7, 1000] {
                let pa = m.compose(ChannelId(ch), frame, 512);
                assert_eq!(m.decode(pa).channel, ChannelId(ch));
                assert_eq!(m.frame(pa), frame);
            }
        }
    }

    #[test]
    fn all_lines_of_a_page_share_the_channel() {
        let m = map(MappingKind::FixedChannel);
        let base = m.compose(ChannelId(9), 123, 0);
        for line in 0..(4096 / 128) {
            let pa = PhysAddr(base.0 + line * 128);
            assert_eq!(m.decode(pa).channel, ChannelId(9));
            assert_eq!(m.decode(pa).home_partition, PartitionId(9));
        }
    }

    #[test]
    fn page_spans_multiple_banks() {
        // One 4 KB page over 2 KB rows must touch 2 distinct banks for
        // bank-level parallelism.
        let m = map(MappingKind::FixedChannel);
        let base = m.compose(ChannelId(0), 5, 0);
        let mut banks = std::collections::HashSet::new();
        for chunk in 0..2 {
            banks.insert(m.decode(PhysAddr(base.0 + chunk * 2048)).bank);
        }
        assert_eq!(banks.len(), 2);
    }

    #[test]
    fn home_slice_within_channel_slices() {
        let m = map(MappingKind::FixedChannel);
        for frame in 0..64u64 {
            let pa = m.compose(ChannelId(3), frame, 0);
            let s = m.decode(pa).home_slice;
            assert!(s.0 == 6 || s.0 == 7, "slice {s} outside channel 3");
        }
    }

    #[test]
    fn pae_randomizes_channels() {
        let m = map(MappingKind::Pae);
        let mut channels = std::collections::HashSet::new();
        for frame in 0..256u64 {
            let pa = m.compose(ChannelId(0), frame, 0);
            channels.insert(m.decode(pa).channel.0);
        }
        // Entropy harvest should spread frames of "channel 0" across many
        // physical channels.
        assert!(
            channels.len() > 8,
            "PAE spread only {} channels",
            channels.len()
        );
    }

    #[test]
    fn fixed_channel_bank_randomization_spreads_rows() {
        let m = map(MappingKind::FixedChannel);
        let mut banks = std::collections::HashSet::new();
        for frame in 0..64u64 {
            let pa = m.compose(ChannelId(0), frame * 16, 0);
            banks.insert(m.decode(pa).bank);
        }
        assert!(banks.len() >= 8, "bank entropy too low: {}", banks.len());
    }

    #[test]
    fn decode_is_deterministic() {
        let m = map(MappingKind::Pae);
        let pa = m.compose(ChannelId(7), 99, 256);
        assert_eq!(m.decode(pa), m.decode(pa));
    }

    #[test]
    fn lines_per_row() {
        let m = map(MappingKind::FixedChannel);
        assert_eq!(m.lines_per_row(), 16); // 2 KB row / 128 B lines
    }

    #[test]
    fn decode_col_within_row() {
        let m = map(MappingKind::FixedChannel);
        let pa = m.compose(ChannelId(2), 11, 300);
        let d = m.decode(pa);
        assert!(d.col < 2048);
    }
}
