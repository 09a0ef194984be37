//! Property tests: workload streams stay inside their layouts and the
//! layouts honour their specifications, for arbitrary knob settings.

use proptest::prelude::*;

use nuba_types::{SmId, WarpId, LINE_BYTES};
use nuba_workloads::{
    sharing_buckets, BenchmarkId, BenchmarkSpec, PatternFamily, ScaleProfile, WarpOp, Workload,
};

fn family_strategy() -> impl Strategy<Value = PatternFamily> {
    prop_oneof![
        Just(PatternFamily::Stream),
        Just(PatternFamily::Stencil),
        Just(PatternFamily::Gemm),
        Just(PatternFamily::DnnInference),
        Just(PatternFamily::Irregular),
        Just(PatternFamily::MapReduce),
        Just(PatternFamily::Tree),
    ]
}

fn spec_strategy() -> impl Strategy<Value = BenchmarkSpec> {
    (
        family_strategy(),
        0.02f64..0.9, // shared page fraction
        0.0f64..0.9,  // shared access fraction
        0.0f64..1.0,  // skew
        0.01f64..1.0, // hot fraction
        0.0f64..0.5,  // write fraction
        0.0f64..0.7,  // l1 reuse
        0.0f64..0.8,  // llc reuse
        1.0f64..64.0, // footprint MB
    )
        .prop_map(|(family, fsp, saf, skew, hot, wf, l1, llc, mb)| {
            let mut s = BenchmarkId::Lbm.spec().clone();
            s.family = family;
            s.shared_page_fraction = fsp;
            s.shared_access_fraction = saf;
            s.shared_skew = skew;
            s.hot_fraction = hot;
            s.write_fraction = wf;
            s.l1_reuse = l1;
            s.llc_reuse = llc;
            s.footprint_mb = mb;
            s.ro_shared_mb = (mb * fsp * 0.5).max(0.01);
            s
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn streams_stay_in_bounds_for_any_spec(
        spec in spec_strategy(),
        sm in 0usize..16,
        warp in 0usize..8,
        seed in 0u64..100,
    ) {
        let spec: &'static BenchmarkSpec = Box::leak(Box::new(spec));
        let wl = Workload::custom(spec, ScaleProfile::fast(), 16, seed);
        let bytes = wl.layout().total_pages * wl.layout().page_bytes;
        let mut s = wl.stream(SmId(sm), WarpId(warp));
        for _ in 0..500 {
            match s.next_op() {
                WarpOp::Mem(a) => {
                    prop_assert_eq!(a.vaddr.0 % LINE_BYTES, 0, "line alignment");
                    prop_assert!(a.vaddr.0 < bytes, "address out of footprint");
                    let vpage = a.vaddr.0 / wl.layout().page_bytes;
                    if a.kind.is_read_only() {
                        prop_assert!(
                            wl.layout().is_ro_page(vpage),
                            "ld.global.ro outside the read-only region"
                        );
                    }
                    // MDR replicates the read-only region, so nothing
                    // may write it.
                    if a.kind.is_write() {
                        prop_assert!(
                            !wl.layout().is_ro_page(vpage),
                            "store or atomic inside the read-only region"
                        );
                    }
                }
                WarpOp::Compute(c) => prop_assert!(c >= 1),
            }
        }
    }

    #[test]
    fn layout_respects_spec_budgets(spec in spec_strategy(), seed in 0u64..100) {
        let spec: &'static BenchmarkSpec = Box::leak(Box::new(spec));
        let wl = Workload::custom(spec, ScaleProfile::fast(), 16, seed);
        let l = wl.layout();
        let shared = l.ro_pages.len() as u64 + l.rw_shared_pages.len() as u64;
        prop_assert_eq!(l.private_base, shared);
        prop_assert_eq!(l.total_pages, shared + 16 * l.private_pages_per_sm);
        // Every shared window covers at least two SMs.
        for p in l.ro_pages.iter().chain(&l.rw_shared_pages) {
            prop_assert!(p.window_len >= 2);
            let covered = (0..16).filter(|&sm| p.covers(sm, 16)).count();
            prop_assert_eq!(covered, p.window_len.min(16));
        }
        // Buckets sum to 1.
        let prof = sharing_buckets(l, 16);
        prop_assert!((prof.buckets.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn private_regions_are_disjoint(seed in 0u64..50) {
        let wl = Workload::build(BenchmarkId::Kmeans, ScaleProfile::fast(), 16, seed);
        let l = wl.layout();
        for sm in 0..16 {
            let start = l.private_start(sm);
            for off in [0, l.private_pages_per_sm - 1] {
                prop_assert_eq!(l.owner_of(start + off), Some(sm));
            }
        }
    }
}
