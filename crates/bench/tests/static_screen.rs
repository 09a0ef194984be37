//! Integration tests tying the static kernel profiler to dynamic ground
//! truth across all 29 Table-2 benchmarks:
//!
//! - the static footprint covers every page the driver's page table
//!   would first-touch-map for sampled access streams (the ISSUE's
//!   superset acceptance criterion, at the driver-table level);
//! - the statically-proven read-only prefix of the address space is
//!   never written dynamically (stores and atomics land strictly above
//!   it);
//! - the advisory screen is inert unless `NUBA_SCREEN=1`.

use nuba_bench::screen::{print_screen_if_enabled, screen_benchmark};
use nuba_bench::{Harness, HarnessOptions};
use nuba_driver::PageTable;
use nuba_types::addr::PageNum;
use nuba_types::{AccessKind, ArchKind, ChannelId, GpuConfig, PartitionId, SmId, WarpId};
use nuba_workloads::{BenchmarkId, ScaleProfile, WarpOp, Workload};

const WARPS: usize = 2;
const OPS_PER_WARP: usize = 384;

fn nuba_cfg() -> GpuConfig {
    GpuConfig::paper_baseline(ArchKind::Nuba)
}

/// Drive a fresh driver page table with sampled warp streams exactly as
/// the simulator would: first touch maps the page, later touches record
/// accesses. Returns the table.
fn first_touch_table(wl: &Workload) -> PageTable {
    let cfg = nuba_cfg();
    let pb = wl.layout().page_bytes;
    let mut table = PageTable::new(cfg.num_channels);
    for sm in 0..wl.num_sms() {
        for w in 0..WARPS {
            let mut s = wl.stream(SmId(sm), WarpId(w));
            for _ in 0..OPS_PER_WARP {
                if let WarpOp::Mem(a) = s.next_op() {
                    let vpage = PageNum(a.vaddr.0 / pb);
                    if !table.is_mapped(vpage) {
                        table.map(
                            vpage,
                            ChannelId(vpage.0 as usize % cfg.num_channels),
                            SmId(sm),
                        );
                    }
                    table.record_access(vpage, SmId(sm), PartitionId(0), cfg.num_channels);
                }
            }
        }
    }
    table
}

/// The static footprint is a superset of the pages the driver table
/// first-touch-maps: every mapped virtual page index falls below the
/// profiler's predicted page count.
#[test]
fn static_footprint_covers_first_touched_pages() {
    let scale = ScaleProfile::fast();
    let cfg = nuba_cfg();
    for &b in BenchmarkId::ALL {
        let pred = screen_benchmark(b, &scale, &cfg);
        let predicted = pred.profile.total_pages();
        let wl = Workload::build(b, scale, cfg.num_sms, 42);
        let table = first_touch_table(&wl);
        assert!(!table.is_empty(), "{b}: sample touched no pages");
        for (vpage, _) in table.iter() {
            assert!(
                vpage.0 < predicted,
                "{b}: first-touched page {} outside the static footprint of {predicted} pages",
                vpage.0
            );
        }
        // The footprint stays a bounded over-approximation, not a
        // blanket "everything": it never exceeds the layout's own size.
        assert_eq!(
            predicted,
            wl.layout().total_pages,
            "{b}: static page count drifted from the layout"
        );
    }
}

/// The statically-proven read-only page prefix is never written: every
/// dynamically-sampled store or atomic lands at or above
/// `read_only_page_limit()`. This is the "static read-only set contains
/// every never-written page" criterion run in reverse — writes must
/// avoid the proven-read-only region.
#[test]
fn readonly_region_is_never_written() {
    let scale = ScaleProfile::fast();
    let cfg = nuba_cfg();
    let mut proven = 0u32;
    for &b in BenchmarkId::ALL {
        let pred = screen_benchmark(b, &scale, &cfg);
        let limit = pred.profile.read_only_page_limit();
        if limit == 0 {
            continue;
        }
        proven += 1;
        let wl = Workload::build(b, scale, cfg.num_sms, 42);
        let pb = wl.layout().page_bytes;
        for sm in 0..wl.num_sms() {
            for w in 0..WARPS {
                let mut s = wl.stream(SmId(sm), WarpId(w));
                for _ in 0..OPS_PER_WARP {
                    let WarpOp::Mem(a) = s.next_op() else {
                        continue;
                    };
                    if matches!(a.kind, AccessKind::Store | AccessKind::Atomic) {
                        assert!(
                            a.vaddr.0 / pb >= limit,
                            "{b}: write to page {} inside the proven read-only \
                             prefix [0, {limit})",
                            a.vaddr.0 / pb
                        );
                    }
                }
            }
        }
    }
    assert!(
        proven >= 20,
        "only {proven}/29 benchmarks have a proven read-only region"
    );
}

/// With `NUBA_SCREEN` unset the screen stage is inert: the options flag
/// is off and the runner hook prints nothing (it returns before
/// touching the jobs).
#[test]
fn screen_is_off_by_default() {
    assert!(
        std::env::var("NUBA_SCREEN").is_err(),
        "test environment must not pre-set NUBA_SCREEN"
    );
    assert!(!HarnessOptions::get().screen);
    let h = Harness {
        cycles: 100,
        scale: ScaleProfile::fast(),
        seed: 42,
    };
    // Inert even on an empty matrix — must not panic or print.
    print_screen_if_enabled(&h, &[]);
}
