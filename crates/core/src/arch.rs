//! Topology and routing rules for each architecture (paper Figs. 1 & 15).

use nuba_types::mapping::DecodedAddr;
use nuba_types::{ArchKind, ChannelId, GpuConfig, ModuleId, PartitionId, SliceId, SmId};

/// Static routing helper derived from a [`GpuConfig`].
#[derive(Debug, Clone)]
pub struct Topology {
    arch: ArchKind,
    num_sms: usize,
    num_slices: usize,
    num_channels: usize,
    sms_per_partition: usize,
    slices_per_partition: usize,
    slices_per_channel: usize,
    num_modules: usize,
    partitions_per_module: usize,
}

impl Topology {
    /// Build the topology for `cfg`.
    pub fn new(cfg: &GpuConfig) -> Topology {
        let num_modules = if cfg.arch.is_mcm() {
            cfg.mcm.num_modules
        } else {
            1
        };
        Topology {
            arch: cfg.arch,
            num_sms: cfg.num_sms,
            num_slices: cfg.num_llc_slices,
            num_channels: cfg.num_channels,
            sms_per_partition: cfg.sms_per_partition(),
            slices_per_partition: cfg.slices_per_partition(),
            slices_per_channel: cfg.slices_per_channel(),
            num_modules,
            partitions_per_module: cfg.num_partitions().div_ceil(num_modules),
        }
    }

    /// The architecture being simulated.
    pub fn arch(&self) -> ArchKind {
        self.arch
    }

    /// Partition owning `sm`.
    pub fn partition_of_sm(&self, sm: SmId) -> PartitionId {
        PartitionId(sm.0 / self.sms_per_partition)
    }

    /// Partition owning `slice`.
    pub fn partition_of_slice(&self, slice: SliceId) -> PartitionId {
        PartitionId(slice.0 / self.slices_per_partition)
    }

    /// The memory channel co-located with `slice` (its point-to-point
    /// memory-controller link in every architecture).
    pub fn channel_of_slice(&self, slice: SliceId) -> ChannelId {
        ChannelId(slice.0 / self.slices_per_channel)
    }

    /// Module owning a partition (MCM only; module 0 otherwise).
    pub fn module_of_partition(&self, p: PartitionId) -> ModuleId {
        ModuleId(p.0 / self.partitions_per_module)
    }

    /// Module owning an SM.
    pub fn module_of_sm(&self, sm: SmId) -> ModuleId {
        self.module_of_partition(self.partition_of_sm(sm))
    }

    /// Module owning a slice.
    pub fn module_of_slice(&self, s: SliceId) -> ModuleId {
        self.module_of_partition(self.partition_of_slice(s))
    }

    /// Number of modules (1 for monolithic GPUs).
    pub fn num_modules(&self) -> usize {
        self.num_modules
    }

    /// Whether `d`'s home memory is in `sm`'s partition (the NUBA
    /// local/remote distinction).
    pub fn is_local(&self, sm: SmId, d: &DecodedAddr) -> bool {
        d.home_partition == self.partition_of_sm(sm)
    }

    /// The slice an L1 miss from `sm` is *sent to* first.
    ///
    /// - Memory-side UBA / MCM-UBA: the address-homed slice, over the
    ///   crossbar.
    /// - SM-side UBA: a slice in the SM's LLC partition, selected by the
    ///   address (slices cache any channel's data).
    /// - NUBA / MCM-NUBA: a slice in the SM's own partition, over the
    ///   local point-to-point link (the slice forwards remote requests,
    ///   Fig. 5 ②).
    pub fn first_hop_slice(&self, sm: SmId, d: &DecodedAddr) -> SliceId {
        match self.arch {
            ArchKind::MemSideUba | ArchKind::McmUba => d.home_slice,
            ArchKind::SmSideUba => {
                let half_slices = self.num_slices / 2;
                let half = sm.0 / (self.num_sms / 2);
                SliceId(half * half_slices + d.home_slice.0 % half_slices)
            }
            ArchKind::Nuba | ArchKind::McmNuba => {
                let part = self.partition_of_sm(sm);
                SliceId(
                    part.0 * self.slices_per_partition + d.home_slice.0 % self.slices_per_partition,
                )
            }
        }
    }

    /// For NUBA: the slice in `sm`'s partition that holds replicas of
    /// (and forwards requests for) `d`'s line — identical to the first
    /// hop by construction. Meaningful on NUBA topologies only; the
    /// simulator asserts that pairing once, where it builds the local
    /// links whose stages call this.
    pub fn local_slice(&self, sm: SmId, d: &DecodedAddr) -> SliceId {
        self.first_hop_slice(sm, d)
    }

    /// SM-side UBA: whether channel `ch` sits in the other LLC half than
    /// `slice` (the access must cross the inter-partition link).
    /// Meaningful on SM-side UBA only, asserted once where the simulator
    /// builds the cross-half links.
    pub fn crosses_half(&self, slice: SliceId, ch: ChannelId) -> bool {
        let slice_half = slice.0 / (self.num_slices / 2);
        let ch_half = ch.0 / (self.num_channels / 2);
        slice_half != ch_half
    }

    /// Resource counts: (SMs, slices, channels).
    pub fn counts(&self) -> (usize, usize, usize) {
        (self.num_sms, self.num_slices, self.num_channels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuba_types::mapping::AddressMapping;
    use nuba_types::{ChannelId, GpuConfig};

    fn topo(arch: ArchKind) -> (Topology, AddressMapping) {
        let cfg = if arch.is_mcm() {
            GpuConfig::paper_mcm(arch)
        } else {
            GpuConfig::paper_baseline(arch)
        };
        (Topology::new(&cfg), AddressMapping::new(&cfg))
    }

    #[test]
    fn memside_routes_to_home_slice() {
        let (t, m) = topo(ArchKind::MemSideUba);
        let pa = m.compose(ChannelId(9), 3, 0);
        let d = m.decode(pa);
        assert_eq!(t.first_hop_slice(SmId(0), &d), d.home_slice);
        assert_eq!(t.first_hop_slice(SmId(63), &d), d.home_slice);
    }

    #[test]
    fn smside_routes_within_own_half() {
        let (t, m) = topo(ArchKind::SmSideUba);
        let pa = m.compose(ChannelId(31), 3, 0); // homed in the top half
        let d = m.decode(pa);
        let s_low = t.first_hop_slice(SmId(0), &d);
        let s_high = t.first_hop_slice(SmId(63), &d);
        assert!(s_low.0 < 32, "SM0 must use half 0, got {s_low}");
        assert!(s_high.0 >= 32, "SM63 must use half 1, got {s_high}");
        // Cross-half detection: channel 31 is in half 1.
        assert!(t.crosses_half(s_low, d.channel));
        assert!(!t.crosses_half(s_high, d.channel));
    }

    #[test]
    fn nuba_first_hop_is_own_partition() {
        let (t, m) = topo(ArchKind::Nuba);
        for sm in [0usize, 1, 17, 63] {
            let pa = m.compose(ChannelId(5), 3, 0);
            let d = m.decode(pa);
            let s = t.first_hop_slice(SmId(sm), &d);
            assert_eq!(t.partition_of_slice(s), t.partition_of_sm(SmId(sm)));
        }
    }

    #[test]
    fn nuba_locality_matches_channel() {
        let (t, m) = topo(ArchKind::Nuba);
        // SM 10 is in partition 5 = channel 5.
        let local = m.decode(m.compose(ChannelId(5), 0, 0));
        let remote = m.decode(m.compose(ChannelId(6), 0, 0));
        assert!(t.is_local(SmId(10), &local));
        assert!(!t.is_local(SmId(10), &remote));
    }

    #[test]
    fn slice_channel_colocation() {
        let (t, _) = topo(ArchKind::Nuba);
        assert_eq!(t.channel_of_slice(SliceId(0)), ChannelId(0));
        assert_eq!(t.channel_of_slice(SliceId(1)), ChannelId(0));
        assert_eq!(t.channel_of_slice(SliceId(63)), ChannelId(31));
    }

    #[test]
    fn mcm_module_assignment() {
        let (t, _) = topo(ArchKind::McmNuba);
        assert_eq!(t.num_modules(), 4);
        assert_eq!(t.module_of_sm(SmId(0)), ModuleId(0));
        assert_eq!(t.module_of_sm(SmId(127)), ModuleId(3));
        assert_eq!(t.module_of_slice(SliceId(0)), ModuleId(0));
        assert_eq!(t.module_of_slice(SliceId(127)), ModuleId(3));
    }

    #[test]
    fn monolithic_has_one_module() {
        let (t, _) = topo(ArchKind::Nuba);
        assert_eq!(t.num_modules(), 1);
        assert_eq!(t.module_of_sm(SmId(63)), ModuleId(0));
    }
}
