//! Property tests: the partition-aware address map (paper Fig. 2) must
//! round-trip driver placements and keep pages channel-pure, the
//! checkpoint codec must reject arbitrary byte soup with typed errors,
//! never a panic, and `GpuConfig::validate` must answer every
//! single-field edit of a baseline without panicking.

use proptest::prelude::*;

use nuba_types::ids::ChannelId;
use nuba_types::mapping::MappingKind;
use nuba_types::{AddressMapping, ArchKind, GpuConfig, PhysAddr};

fn cfg(channels: usize, page_bytes: u64, kind: MappingKind) -> GpuConfig {
    let mut c = GpuConfig::paper_baseline(ArchKind::Nuba);
    c.num_channels = channels;
    c.num_sms = channels * 2;
    c.num_llc_slices = channels * 2;
    c.llc_total_bytes = c.num_llc_slices * 96 * 1024;
    c.page_bytes = page_bytes;
    c.mapping = kind;
    c
}

proptest! {
    #[test]
    fn fixed_channel_roundtrip(
        channels_log in 1u32..6,
        page_shift in 12u32..17,
        ch in 0usize..64,
        frame in 0u64..100_000,
        offset in 0u64..4096,
    ) {
        let channels = 1usize << channels_log;
        let page_bytes = 1u64 << page_shift;
        let m = AddressMapping::new(&cfg(channels, page_bytes, MappingKind::FixedChannel));
        let ch = ChannelId(ch % channels);
        let offset = offset % page_bytes;
        let pa = m.compose(ch, frame, offset);
        let d = m.decode(pa);
        prop_assert_eq!(d.channel, ch, "driver placement must be preserved");
        prop_assert_eq!(m.frame(pa), frame);
        prop_assert!(d.bank < 16);
        prop_assert!(d.col < 2048);
        prop_assert!(d.home_slice.0 < channels * 2);
        prop_assert_eq!(d.home_slice.0 / 2, ch.0, "home slice belongs to the channel");
    }

    #[test]
    fn whole_page_shares_one_channel(
        channels_log in 1u32..6,
        ch in 0usize..64,
        frame in 0u64..10_000,
    ) {
        let channels = 1usize << channels_log;
        let m = AddressMapping::new(&cfg(channels, 4096, MappingKind::FixedChannel));
        let ch = ChannelId(ch % channels);
        let base = m.compose(ch, frame, 0);
        for line in 0..32u64 {
            let d = m.decode(PhysAddr(base.0 + line * 128));
            prop_assert_eq!(d.channel, ch);
            prop_assert_eq!(d.home_partition.0, ch.0);
        }
    }

    #[test]
    fn pae_decode_is_deterministic_and_in_range(
        ch in 0usize..32,
        frame in 0u64..100_000,
    ) {
        let m = AddressMapping::new(&cfg(32, 4096, MappingKind::Pae));
        let pa = m.compose(ChannelId(ch % 32), frame, 0);
        let a = m.decode(pa);
        let b = m.decode(pa);
        prop_assert_eq!(a, b);
        prop_assert!(a.channel.0 < 32);
    }

    #[test]
    fn distinct_frames_give_distinct_addresses(
        f1 in 0u64..100_000,
        f2 in 0u64..100_000,
        ch in 0usize..32,
    ) {
        prop_assume!(f1 != f2);
        let m = AddressMapping::new(&cfg(32, 4096, MappingKind::FixedChannel));
        let a = m.compose(ChannelId(ch % 32), f1, 0);
        let b = m.compose(ChannelId(ch % 32), f2, 0);
        prop_assert_ne!(a, b);
    }
}

mod state_adversarial {
    //! The `StateReader` codec is the first line of defence under every
    //! checkpoint: arbitrary byte soup and arbitrary cursor programs
    //! must only ever produce typed `StateError`s.

    use proptest::prelude::*;

    use nuba_types::state::{StateError, StateReader, StateWriter};

    proptest! {
        #[test]
        fn reader_survives_arbitrary_programs(
            bytes in collection::vec(any::<u8>(), 0..128),
            ops in collection::vec(0usize..4, 1..32),
        ) {
            let mut r = StateReader::new(&bytes);
            for op in ops {
                // Every primitive either yields a value or a typed
                // UnexpectedEof; the cursor never goes out of bounds.
                let res: Result<(), StateError> = match op {
                    0 => r.get_u8().map(|_| ()),
                    1 => r.get_u32().map(|_| ()),
                    2 => r.get_u64().map(|_| ()),
                    _ => r.take(9).map(|_| ()),
                };
                if let Err(e) = res {
                    prop_assert!(
                        matches!(e, StateError::UnexpectedEof { .. }),
                        "primitive reads only fail with UnexpectedEof, got {e}"
                    );
                }
                prop_assert!(r.remaining() <= bytes.len());
            }
        }

        #[test]
        fn take_is_exact_or_typed_error(
            len in 0usize..64,
            ask in 0usize..128,
        ) {
            let bytes = vec![0xA5u8; len];
            let mut r = StateReader::new(&bytes);
            match r.take(ask) {
                Ok(slice) => {
                    prop_assert_eq!(slice.len(), ask);
                    prop_assert!(ask <= len);
                }
                Err(StateError::UnexpectedEof { needed, remaining }) => {
                    prop_assert!(ask > len);
                    prop_assert_eq!(needed, ask);
                    prop_assert_eq!(remaining, len);
                }
                Err(e) => prop_assert!(false, "unexpected error {e}"),
            }
        }

        #[test]
        fn writer_reader_roundtrip_survives_truncation(
            words in collection::vec(any::<u64>(), 1..16),
            cut in 0usize..128,
        ) {
            let mut w = StateWriter::new();
            for v in &words {
                w.put_u64(*v);
            }
            let bytes = w.into_bytes();
            let cut = cut % (bytes.len() + 1);
            let mut r = StateReader::new(&bytes[..cut]);
            // Reading back at any truncation: values decode exactly
            // until the cut, then a typed error — never a panic, never
            // a wrong value.
            for (i, v) in words.iter().enumerate() {
                match r.get_u64() {
                    Ok(got) => prop_assert_eq!(got, *v, "prefix decodes exactly"),
                    Err(StateError::UnexpectedEof { .. }) => {
                        prop_assert!(cut < (i + 1) * 8);
                        break;
                    }
                    Err(e) => prop_assert!(false, "unexpected error {e}"),
                }
            }
        }
    }
}

mod config_validate {
    //! `GpuConfig::validate` is the gate in front of the simulator's
    //! constructor: on any one-field edit of a baseline it must return a
    //! verdict, never panic, and an `Ok` must promise the cache
    //! geometries the constructor builds from the config.

    use std::panic::{catch_unwind, AssertUnwindSafe};

    use nuba_cache::CacheGeometry;
    use proptest::prelude::*;

    use nuba_types::{ArchKind, GpuConfig};

    const ARCHS: [ArchKind; 5] = [
        ArchKind::MemSideUba,
        ArchKind::SmSideUba,
        ArchKind::Nuba,
        ArchKind::McmUba,
        ArchKind::McmNuba,
    ];

    type Setter = fn(&mut GpuConfig, u64);

    /// Every integer field of the config, nested ones included.
    const FIELDS: &[(&str, Setter)] = &[
        ("num_sms", |c, v| c.num_sms = v as usize),
        ("num_llc_slices", |c, v| c.num_llc_slices = v as usize),
        ("num_channels", |c, v| c.num_channels = v as usize),
        ("warps_per_sm", |c, v| c.warps_per_sm = v as usize),
        ("sim_active_warps", |c, v| c.sim_active_warps = v as usize),
        ("threads_per_warp", |c, v| c.threads_per_warp = v as usize),
        ("sm_max_outstanding", |c, v| {
            c.sm_max_outstanding = v as usize
        }),
        ("l1_bytes", |c, v| c.l1_bytes = v as usize),
        ("l1_ways", |c, v| c.l1_ways = v as usize),
        ("l1_mshrs", |c, v| c.l1_mshrs = v as usize),
        ("l1_latency", |c, v| c.l1_latency = v),
        ("llc_total_bytes", |c, v| c.llc_total_bytes = v as usize),
        ("llc_ways", |c, v| c.llc_ways = v as usize),
        ("llc_latency", |c, v| c.llc_latency = v),
        ("llc_mshrs", |c, v| c.llc_mshrs = v as usize),
        ("llc_bytes_per_cycle", |c, v| c.llc_bytes_per_cycle = v),
        ("page_bytes", |c, v| c.page_bytes = v),
        ("l1_tlb_entries", |c, v| c.l1_tlb_entries = v as usize),
        ("l2_tlb_entries", |c, v| c.l2_tlb_entries = v as usize),
        ("l2_tlb_ways", |c, v| c.l2_tlb_ways = v as usize),
        ("l2_tlb_latency", |c, v| c.l2_tlb_latency = v),
        ("page_walkers", |c, v| c.page_walkers = v as usize),
        ("walk_latency", |c, v| c.walk_latency = v),
        ("page_fault_latency", |c, v| c.page_fault_latency = v),
        ("noc_stage_latency", |c, v| c.noc_stage_latency = v),
        ("noc_subxbars", |c, v| c.noc_subxbars = v as usize),
        ("local_link_bytes_per_cycle", |c, v| {
            c.local_link_bytes_per_cycle = v
        }),
        ("dram_clock_divider", |c, v| c.dram_clock_divider = v),
        ("banks_per_channel", |c, v| c.banks_per_channel = v as usize),
        ("mc_queue_entries", |c, v| c.mc_queue_entries = v as usize),
        ("dram_burst_bytes", |c, v| c.dram_burst_bytes = v),
        ("dram_row_bytes", |c, v| c.dram_row_bytes = v),
        ("mdr_epoch_cycles", |c, v| c.mdr_epoch_cycles = v),
        ("mdr_eval_cycles", |c, v| c.mdr_eval_cycles = v),
        ("mdr_sample_sets", |c, v| c.mdr_sample_sets = v as usize),
        ("kernel_boundary_cycles", |c, v| {
            c.kernel_boundary_cycles = Some(v)
        }),
        ("watchdog_cycles", |c, v| c.watchdog_cycles = Some(v)),
        ("seed", |c, v| c.seed = v),
        ("telemetry.window_cycles", |c, v| {
            c.telemetry.window_cycles = Some(v)
        }),
        ("telemetry.ring_windows", |c, v| {
            c.telemetry.ring_windows = v as usize
        }),
        ("telemetry.trace_sample_period", |c, v| {
            c.telemetry.trace_sample_period = v
        }),
        ("telemetry.trace_capacity", |c, v| {
            c.telemetry.trace_capacity = v as usize
        }),
        ("mcm.num_modules", |c, v| c.mcm.num_modules = v as usize),
    ];

    /// A field value: 0, 1, a small odd number, the largest, or any.
    fn value() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64).boxed(),
            Just(1u64).boxed(),
            (1u64..8).prop_map(|k| 2 * k + 1).boxed(),
            Just(u64::MAX).boxed(),
            any::<u64>().boxed(),
        ]
    }

    /// `Err` when `validate` panics, or accepts a config whose L1 or
    /// LLC-slice geometry cannot be built.
    fn check(cfg: &GpuConfig) -> Result<(), String> {
        let verdict = catch_unwind(AssertUnwindSafe(|| cfg.validate()))
            .map_err(|_| "validate panicked".to_string())?;
        if verdict.is_ok() {
            CacheGeometry::try_from_capacity(cfg.l1_bytes, cfg.l1_ways)
                .map_err(|e| format!("validated, but the L1: {e}"))?;
            CacheGeometry::try_new(cfg.llc_slice_sets(), cfg.llc_ways)
                .map_err(|e| format!("validated, but the LLC slice: {e}"))?;
        }
        Ok(())
    }

    /// Zero LLC ways used to divide by zero computing the slice's set
    /// count before the zero-ways check ran.
    #[test]
    fn zero_llc_ways_is_an_error_not_a_panic() {
        let mut cfg = GpuConfig::paper_baseline(ArchKind::Nuba);
        cfg.llc_ways = 0;
        assert_eq!(check(&cfg), Ok(()));
        assert!(cfg.validate().is_err());
    }

    /// A zero-byte L1 is a multiple of every set size, so it used to
    /// pass validation and then panic building the L1 geometry.
    #[test]
    fn zero_l1_bytes_is_rejected() {
        let mut cfg = GpuConfig::paper_baseline(ArchKind::Nuba);
        cfg.l1_bytes = 0;
        let e = cfg.validate().unwrap_err();
        assert!(e.0.contains("at least one set"), "{e}");
    }

    proptest! {
        #[test]
        fn validate_never_panics_and_ok_builds_the_caches(v in value()) {
            for arch in ARCHS {
                for (name, set) in FIELDS {
                    let mut cfg = GpuConfig::paper_baseline(arch);
                    set(&mut cfg, v);
                    let r = check(&cfg);
                    prop_assert!(r.is_ok(), "{arch:?} with {name} = {v}: {}", r.unwrap_err());
                }
            }
        }
    }
}
