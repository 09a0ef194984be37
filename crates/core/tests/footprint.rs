//! Host-memory footprint gate for building a machine.
//!
//! A counting global allocator measures the heap that
//! `GpuSimulator::try_new` keeps for the paper's 64-SM NUBA machine on
//! default-scale LBM. Storage sized by measured traffic (DESIGN.md §9.3)
//! keeps that near 13 MiB; reserving any component's worst case at
//! construction — 16 merge slots behind every MSHR entry cost 9 MiB —
//! crosses the bound below.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

use nuba_core::GpuSimulator;
use nuba_types::{ArchKind, GpuConfig};
use nuba_workloads::{BenchmarkId, ScaleProfile, Workload};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed while counting.
static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap the NUBA machine may hold right after construction.
const BOUND_MIB: f64 = 14.0;

#[test]
fn building_the_paper_machine_stays_under_its_heap_bound() {
    // One test in this file: the counting window must not race with
    // allocations from sibling test threads.
    let cfg = GpuConfig::paper_baseline(ArchKind::Nuba);
    let wl = Workload::build(
        BenchmarkId::Lbm,
        ScaleProfile::default(),
        cfg.num_sms,
        cfg.seed,
    );
    LIVE.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let gpu = GpuSimulator::try_new(cfg, &wl).expect("valid config");
    COUNTING.store(false, Ordering::SeqCst);
    let mib = LIVE.load(Ordering::SeqCst) as f64 / (1024.0 * 1024.0);
    drop(gpu);
    assert!(
        mib <= BOUND_MIB,
        "GpuSimulator::try_new holds {mib:.1} MiB of heap, over the {BOUND_MIB} MiB bound"
    );
}
