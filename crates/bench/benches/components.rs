//! Criterion micro-benchmarks of the simulator's building blocks: the
//! host cost of one leaf operation (a tag probe, a controller tick, a
//! crossbar tick). Whole-machine speed — cycles simulated per second,
//! with repeats and a noise bar — is `nuba-perf`'s job (`benchmark/`).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use nuba_types::LineAddr;

fn bench_cache(c: &mut Criterion) {
    use nuba_cache::{CacheGeometry, MshrFile, TagArray};

    let mut g = c.benchmark_group("cache");
    g.throughput(Throughput::Elements(1));

    g.bench_function("tag_probe_hit", |b| {
        let geo = CacheGeometry::new(48, 16);
        let mut tags = TagArray::new(geo);
        for i in 0..48 * 16 {
            tags.insert(LineAddr(i * 128), false, false, i);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % (48 * 16);
            black_box(tags.probe_and_touch(LineAddr(i * 128), i))
        });
    });

    g.bench_function("tag_insert_evict", |b| {
        let geo = CacheGeometry::new(48, 16);
        let mut tags = TagArray::new(geo);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(tags.insert(LineAddr(i * 128), false, false, i))
        });
    });

    g.bench_function("mshr_allocate_complete", |b| {
        let mut mshr: MshrFile<u32> = MshrFile::new(64, 16);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let line = LineAddr((i % 64) * 128);
            if mshr.allocate(line, 0).is_err() {
                black_box(mshr.complete(line));
            }
        });
    });
    g.finish();
}

fn bench_dram(c: &mut Criterion) {
    use nuba_dram::{DramRequest, HbmTiming, MemoryController};

    let mut g = c.benchmark_group("dram");
    g.throughput(Throughput::Elements(1));
    g.bench_function("frfcfs_streaming_tick", |b| {
        let mut mc = MemoryController::new(HbmTiming::paper(), 16, 64, 2);
        let mut done = Vec::new();
        let mut t = 0u64;
        let mut id = 0u64;
        b.iter(|| {
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
        });
    });
    g.finish();
}

fn bench_noc(c: &mut Criterion) {
    use nuba_engine::Wire;
    use nuba_noc::CrossbarNoc;

    #[derive(Clone, Copy)]
    struct Pkt;
    impl Wire for Pkt {
        fn wire_bytes(&self) -> u64 {
            136
        }
    }

    let mut g = c.benchmark_group("noc");
    g.throughput(Throughput::Elements(1));
    g.bench_function("crossbar_64x64_saturated_tick", |b| {
        let mut noc: CrossbarNoc<Pkt> = CrossbarNoc::new(64, 64, 15.6, 4, 8);
        let mut t = 0u64;
        let mut out = Vec::new();
        b.iter(|| {
            for p in 0..64 {
                if noc.can_send(p) {
                    let _ = noc.try_send(p, (p + 7) % 64, Pkt, t);
                }
            }
            noc.tick(t);
            for p in 0..64 {
                noc.drain_port(p, &mut out);
            }
            out.clear();
            t += 1;
        });
    });
    g.finish();
}

fn bench_mdr_model(c: &mut Criterion) {
    use nuba_core::mdr::paper_slice_bandwidths;
    use nuba_core::{mdr_evaluate, MdrProfile};

    let bw = paper_slice_bandwidths(15.6);
    c.bench_function("mdr_model_evaluate", |b| {
        let mut x = 0.0f64;
        b.iter(|| {
            x = (x + 0.001) % 1.0;
            black_box(mdr_evaluate(
                bw,
                MdrProfile {
                    frac_local: x,
                    hit_no_rep: 1.0 - x,
                    hit_full_rep: x * 0.5,
                },
            ))
        });
    });
}

fn bench_driver(c: &mut Criterion) {
    use nuba_driver::GpuDriver;
    use nuba_types::addr::PageNum;
    use nuba_types::{PagePolicyKind, PartitionId, SmId};

    let mut g = c.benchmark_group("driver");
    g.throughput(Throughput::Elements(1));
    g.bench_function("lab_fault_allocation", |b| {
        let mut d = GpuDriver::new(PagePolicyKind::lab_default(), 32);
        let mut p = 0u64;
        b.iter(|| {
            p += 1;
            black_box(d.handle_fault(PageNum(p), PartitionId((p % 32) as usize), SmId(0)))
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_cache,
    bench_dram,
    bench_noc,
    bench_mdr_model,
    bench_driver
);
criterion_main!(benches);
