//! Leaf components driven alone at a fixed synthetic load: host ns per
//! call, from outside, through the constructors and `tick`s that
//! `crates/bench/benches/components.rs` already uses. The loads are
//! fixed and take no seed; a probe times one instance, and README.md
//! gives the instance counts that scale it to a machine.

use std::hint::black_box;
use std::time::Instant;

use nuba_types::{LineAddr, PageNum, PartitionId, SmId, WarpId, Wire};
use nuba_workloads::{BenchmarkId, ScaleProfile, Workload};

use crate::stats::steady;

const BATCHES: usize = 5;

/// ns per call of `f`: the steady batch of [`BATCHES`], after one
/// untimed batch that fills tables and sizes buffers.
fn ns_per_call(iters: u64, mut f: impl FnMut()) -> f64 {
    let batch = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        t.elapsed().as_secs_f64() * 1e9 / iters as f64
    };
    batch(&mut f);
    let timed: Vec<f64> = (0..BATCHES).map(|_| batch(&mut f)).collect();
    steady(&timed)
}

/// What keeping a span costs over timing the same call without
/// keeping it, in seconds: a recording recorder against a disabled one.
pub fn span_cost_s() -> f64 {
    use crate::span::Recorder;
    let (mut on, mut off) = (Recorder::new(true), Recorder::new(false));
    let cost = |rec: &mut Recorder| {
        ns_per_call(20_000, || {
            let open = rec.enter("probe");
            black_box(rec.exit(open));
        })
    };
    (cost(&mut on) - cost(&mut off)).max(0.0) / 1e9
}

#[derive(Clone, Copy)]
struct Pkt;

impl Wire for Pkt {
    fn wire_bytes(&self) -> u64 {
        136
    }
}

/// Run every probe. `quick` cuts the iteration counts by 20.
pub fn run_all(quick: bool) -> Vec<(&'static str, f64)> {
    let n = |full: u64| if quick { full / 20 } else { full };
    let mut out = Vec::new();

    {
        let wl = Workload::build(BenchmarkId::Sgemm, ScaleProfile::default(), 64, 42);
        let mut stream = wl.stream(SmId(0), WarpId(0));
        out.push((
            "workloads.next_op_ns",
            ns_per_call(n(200_000), || {
                black_box(stream.next_op());
            }),
        ));
    }

    {
        use nuba_compiler::{analyze_kernel, parse_module, profile_kernel, ProfileAssumptions};
        use nuba_workloads::kernels::family_ptx;
        let sweep = || {
            for b in BenchmarkId::ALL {
                let module = parse_module(family_ptx(b.spec().family)).expect("built-in kernel");
                for k in &module.kernels {
                    black_box(analyze_kernel(k));
                    black_box(profile_kernel(k, ProfileAssumptions::default()));
                }
            }
        };
        out.push((
            "compiler.analyze_all_ms",
            ns_per_call(n(40).max(1), sweep) / 1e6,
        ));
    }

    {
        use nuba_core::mdr::paper_slice_bandwidths;
        use nuba_core::{mdr_evaluate, MdrProfile};
        let bw = paper_slice_bandwidths(15.6);
        let mut x = 0.0f64;
        out.push((
            "core.mdr.evaluate_ns",
            ns_per_call(n(1_000_000), || {
                x = (x + 0.001) % 1.0;
                black_box(mdr_evaluate(
                    bw,
                    MdrProfile {
                        frac_local: x,
                        hit_no_rep: 1.0 - x,
                        hit_full_rep: x * 0.5,
                    },
                ));
            }),
        ));
    }

    {
        use nuba_cache::{CacheGeometry, MshrFile, TagArray};
        let lines = 48 * 16;
        let mut tags = TagArray::new(CacheGeometry::new(48, 16));
        for i in 0..lines {
            tags.insert(LineAddr(i * 128), false, false, i);
        }
        let mut i = 0u64;
        out.push((
            "cache.tag_probe_ns",
            ns_per_call(n(1_000_000), || {
                i = (i + 1) % lines;
                black_box(tags.probe_and_touch(LineAddr(i * 128), i));
            }),
        ));
        out.push((
            "cache.tag_insert_ns",
            ns_per_call(n(1_000_000), || {
                i += 1;
                black_box(tags.insert(LineAddr(i * 128), false, false, i));
            }),
        ));
        let mut mshr: MshrFile<u32> = MshrFile::new(64, 16);
        out.push((
            "cache.mshr_cycle_ns",
            ns_per_call(n(1_000_000), || {
                i += 1;
                let line = LineAddr((i % 64) * 128);
                if mshr.allocate(line, 0).is_err() {
                    let waiters = mshr.complete(line);
                    mshr.recycle(black_box(waiters));
                }
            }),
        ));
    }

    {
        use nuba_engine::BandwidthLink;
        let mut sink = Vec::new();
        let mut t = 0u64;
        let mut idle: BandwidthLink<Pkt> = BandwidthLink::new(32.0, 2, 8);
        out.push((
            "engine.link_tick_ns.idle",
            ns_per_call(n(2_000_000), || {
                idle.tick(t, &mut sink);
                t += 1;
            }),
        ));
        let mut busy: BandwidthLink<Pkt> = BandwidthLink::new(32.0, 2, 8);
        out.push((
            "engine.link_tick_ns.busy",
            ns_per_call(n(1_000_000), || {
                if busy.can_send() {
                    let _ = busy.try_send(Pkt, t);
                }
                busy.tick(t, &mut sink);
                sink.clear();
                t += 1;
            }),
        ));
    }

    {
        use nuba_noc::CrossbarNoc;
        let mut sink = Vec::new();
        let mut t = 0u64;
        let mut idle: CrossbarNoc<Pkt> = CrossbarNoc::new(64, 64, 15.6, 4, 8);
        out.push((
            "noc.tick_ns.idle",
            ns_per_call(n(200_000), || {
                idle.tick(t);
                t += 1;
            }),
        ));
        let mut noc: CrossbarNoc<Pkt> = CrossbarNoc::new(64, 64, 15.6, 4, 8);
        out.push((
            "noc.tick_ns.saturated",
            ns_per_call(n(20_000), || {
                for p in 0..64 {
                    if noc.can_send(p) {
                        let _ = noc.try_send(p, (p + 7) % 64, Pkt, t);
                    }
                }
                noc.tick(t);
                for p in 0..64 {
                    noc.drain_port(p, &mut sink);
                }
                sink.clear();
                t += 1;
            }),
        ));
    }

    {
        use nuba_dram::{DramRequest, HbmTiming, MemoryController};
        let mut done = Vec::new();
        let mut t = 0u64;
        let mut idle = MemoryController::new(HbmTiming::paper(), 16, 64, 2);
        out.push((
            "dram.tick_ns.idle",
            ns_per_call(n(2_000_000), || {
                idle.tick(t, &mut done);
                t += 1;
            }),
        ));
        let mut mc = MemoryController::new(HbmTiming::paper(), 16, 64, 2);
        let mut id = 0u64;
        out.push((
            "dram.tick_ns.streaming",
            ns_per_call(n(500_000), || {
                if mc.can_accept() {
                    id += 1;
                    let _ = mc.try_enqueue(
                        DramRequest {
                            id,
                            bank: (id % 16) as usize,
                            row: id / 64,
                            is_write: false,
                        },
                        t,
                    );
                }
                mc.tick(t, &mut done);
                done.clear();
                t += 1;
            }),
        ));
    }

    {
        use nuba_tlb::{TlbParams, TranslationEngine};
        // One SM walking 256 pages in a ring: past the first lap every
        // request misses the 128-entry L1 TLB and hits the 512-entry
        // L2, one a cycle, which its two ports sustain without a queue.
        let mut tlb = TranslationEngine::new(TlbParams::paper(), 64);
        let mut done = Vec::new();
        let mut t = 0u64;
        out.push((
            "tlb.translate_ns",
            ns_per_call(n(200_000), || {
                black_box(tlb.request(SmId(0), PageNum(t % 256), t, true));
                tlb.tick(t, &mut done);
                done.clear();
                t += 1;
            }),
        ));
    }

    {
        use nuba_driver::GpuDriver;
        use nuba_types::PagePolicyKind;
        let mut driver = GpuDriver::new(PagePolicyKind::lab_default(), 32);
        let mut p = 0u64;
        out.push((
            "driver.fault_ns",
            ns_per_call(n(100_000), || {
                p += 1;
                black_box(driver.handle_fault(PageNum(p), PartitionId((p % 32) as usize), SmId(0)));
            }),
        ));
    }

    out
}
