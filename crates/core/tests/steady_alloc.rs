//! Heap-allocation regression gate for the simulator hot path.
//!
//! A counting global allocator spot-checks that `GpuSimulator::step`
//! performs zero heap allocations once the simulation reaches steady
//! state: scratch vectors are hoisted and reused, MSHR waiters take
//! slots from their file's slab and complete into one recycled vector,
//! and per-tick collections keep their capacity. Any
//! `Vec::new()`/`collect()` reintroduced on the per-cycle path shows up
//! here as a nonzero count — and so does storage reserved too small for
//! the traffic, which then regrows mid-run. Its twin,
//! `footprint.rs`, bounds the other side: storage reserved too large.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use nuba_core::GpuSimulator;
use nuba_types::{ArchKind, GpuConfig};
use nuba_workloads::{BenchmarkId, ScaleProfile, Workload};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static TRAP_ALLOC: AtomicBool = AtomicBool::new(false);
static TRAP_REALLOC: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            if TRAP_ALLOC.load(Ordering::Relaxed) {
                COUNTING.store(false, Ordering::SeqCst);
                panic!("alloc {}", layout.size());
            }
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            REALLOCS.fetch_add(1, Ordering::Relaxed);
            if TRAP_REALLOC.load(Ordering::Relaxed) {
                COUNTING.store(false, Ordering::SeqCst);
                panic!("realloc {} -> {}", layout.size(), new_size);
            }
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Run `steps` cycles with allocation counting enabled; returns
/// (allocations, reallocations) observed in the window. `skipping`
/// drives the event-driven time-skipping loop instead of raw stepping —
/// jump decisions and idle catch-ups must be allocation-free too.
fn count_window(gpu: &mut GpuSimulator, steps: u64, skipping: bool) -> (u64, u64) {
    // Env flags are latched outside the counting window: reading them
    // from inside the allocator would itself allocate and recurse.
    TRAP_ALLOC.store(std::env::var_os("TRAP_ALLOC").is_some(), Ordering::SeqCst);
    TRAP_REALLOC.store(std::env::var_os("TRAP_REALLOC").is_some(), Ordering::SeqCst);
    ALLOCS.store(0, Ordering::SeqCst);
    REALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    if skipping {
        gpu.set_skip(true);
        gpu.advance(steps).expect("forward progress");
    } else {
        for _ in 0..steps {
            gpu.step();
        }
    }
    COUNTING.store(false, Ordering::SeqCst);
    (
        ALLOCS.load(Ordering::SeqCst),
        REALLOCS.load(Ordering::SeqCst),
    )
}

fn steady_state_gpu(arch: ArchKind) -> GpuSimulator {
    let mut cfg = GpuConfig::paper_baseline(arch);
    // Telemetry stays ON here: the zero-allocation contract must hold
    // with the windowed sampler flushing into its pre-sized ring, the
    // lifecycle tracer recording into its pre-sized tables, and every
    // latency histogram (per-tier, per-stage, per-window) recording —
    // histograms are fixed-size bucket arrays, so observing a value is
    // a pair of array increments, never a heap touch.
    cfg.telemetry.window_cycles = Some(256);
    cfg.telemetry.trace_sample_period = 64;
    cfg.telemetry.window_latency = true;
    let wl = Workload::build(BenchmarkId::Sgemm, ScaleProfile::fast(), cfg.num_sms, 42);
    let mut gpu = GpuSimulator::try_new(cfg, &wl).expect("valid config");
    gpu.warm(&wl, 256);
    // Reach steady state: first touches fault every working-set page in
    // and every queue/pool/table grows to its stable capacity.
    for _ in 0..6_000 {
        gpu.step();
    }
    gpu
}

#[test]
fn step_is_allocation_free_in_steady_state() {
    // One test in this file: the counting window must not race with
    // allocations from sibling test threads.
    for arch in [ArchKind::MemSideUba, ArchKind::Nuba] {
        let mut gpu = steady_state_gpu(arch);
        let (allocs, reallocs) = count_window(&mut gpu, 2_000, false);
        assert_eq!(
            (allocs, reallocs),
            (0, 0),
            "{arch:?}: steady-state step path allocated \
             ({allocs} allocs, {reallocs} reallocs over 2000 cycles)"
        );
        // The time-skipping loop shares the zero-allocation contract:
        // event aggregation, watchdog emulation, window flushing and
        // idle catch-ups all run on pre-sized state. Count over the
        // *same* cycle range on a fresh simulator: skipping is
        // byte-identical to stepping, so the component capacity
        // trajectory matches the stepped window that just passed — any
        // allocation observed here comes from the jump machinery
        // itself.
        let mut gpu = steady_state_gpu(arch);
        let (allocs, reallocs) = count_window(&mut gpu, 2_000, true);
        assert_eq!(
            (allocs, reallocs),
            (0, 0),
            "{arch:?}: steady-state skipping path allocated \
             ({allocs} allocs, {reallocs} reallocs over 2000 cycles)"
        );
    }
}
