//! Static workload profiles: the compiler's [`KernelStaticProfile`]
//! bound to a benchmark's region layout — the input of `nuba-bench`'s
//! advisory static screen.
//!
//! A benchmark's kernel parameters map onto address regions by the
//! convention documented in [`crate::kernels`]: `S`/`S2` → the shared
//! read-only region, `W` → the shared read-write region, `P` → the
//! per-SM private region. Binding the kernel-level static profile to
//! the scaled layout yields, *without simulating a single cycle*:
//!
//! - predicted region sizes and total footprint in pages — pure
//!   arithmetic replay of [`WorkloadLayout::build`]'s sizing (the RNG
//!   only draws sharer windows, never region sizes, so the prediction
//!   is exact);
//! - the predicted Fig.-3 sharing class (single-SM page fraction);
//! - the cross-SM race set: parameters bound to shared regions that
//!   the kernel stores to non-atomically ([`RaceReport`]);
//! - the MDR screen inputs (local fraction, LLC hit estimates with and
//!   without replication) feeding `nuba-core`'s §5.1 bandwidth
//!   equations in the screen.
//!
//! [`WorkloadLayout::build`]: crate::layout::WorkloadLayout::build

use std::collections::BTreeSet;

use nuba_compiler::{
    detect_races, profile_kernel, KernelStaticProfile, ProfileAssumptions, RaceReport,
};

use crate::kernels::family_module;
use crate::scale::ScaleProfile;
use crate::spec::{BenchmarkId, BenchmarkSpec, SharingClass};

/// The address region a kernel parameter is bound to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// Shared read-only region (`S`, `S2`).
    SharedRo,
    /// Shared read-write region (`W`).
    SharedRw,
    /// Per-SM private region (`P`).
    Private,
}

/// The region a parameter name binds to under the kernel convention,
/// `None` for scalars / unknown names.
pub fn param_region(name: &str) -> Option<Region> {
    match name {
        "S" | "S2" => Some(Region::SharedRo),
        "W" => Some(Region::SharedRw),
        "P" => Some(Region::Private),
        _ => None,
    }
}

/// Predicted region sizes: an arithmetic mirror of the layout builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictedRegions {
    /// Shared read-only pages.
    pub ro_pages: u64,
    /// Shared read-write pages.
    pub rw_shared_pages: u64,
    /// Private pages per SM.
    pub private_pages_per_sm: u64,
    /// Total pages across regions (shared + private·num_sms).
    pub total_pages: u64,
    /// Page size in bytes.
    pub page_bytes: u64,
}

impl PredictedRegions {
    /// Replay the sizing arithmetic of `WorkloadLayout::build` (which
    /// draws RNG only for sharer windows, never sizes).
    pub fn compute(spec: &BenchmarkSpec, scale: &ScaleProfile, num_sms: usize) -> PredictedRegions {
        let total = scale.total_pages(spec);
        let shared_total = ((total as f64 * spec.shared_page_fraction).round() as u64)
            .min(total.saturating_sub(num_sms as u64))
            .max(1);
        let ro = scale.ro_pages(spec).min(shared_total);
        let rw = shared_total - ro;
        let private_per_sm = ((total - shared_total) / num_sms as u64).max(1);
        PredictedRegions {
            ro_pages: ro,
            rw_shared_pages: rw,
            private_pages_per_sm: private_per_sm,
            total_pages: shared_total + private_per_sm * num_sms as u64,
            page_bytes: scale.page_bytes,
        }
    }

    /// Predicted fraction of single-SM (private) pages — Fig. 3's first
    /// bar, which decides the sharing class.
    pub fn private_fraction(&self, num_sms: usize) -> f64 {
        self.private_pages_per_sm as f64 * num_sms as f64 / self.total_pages.max(1) as f64
    }

    /// Predicted sharing class per the paper's ≥80% rule.
    pub fn sharing_class(&self, num_sms: usize) -> SharingClass {
        if self.private_fraction(num_sms) >= 0.8 {
            SharingClass::Low
        } else {
            SharingClass::High
        }
    }
}

/// Inputs for the MDR §5.1 bandwidth equations, derived statically.
/// All values in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MdrInputs {
    /// Fraction of requests served by the local partition without
    /// replication: private accesses plus the `1/num_sms` of shared
    /// accesses that happen to hash locally.
    pub frac_local: f64,
    /// LLC hit-rate estimate without replication (the spec's LLC reuse
    /// knob, which drives the simulated hit rate).
    pub hit_no_rep: f64,
    /// LLC hit-rate estimate with the read-only hot set fully
    /// replicated: the no-replication rate plus the replicable share of
    /// the remaining misses.
    pub hit_full_rep: f64,
}

/// The full static profile of one benchmark.
#[derive(Debug, Clone)]
pub struct StaticWorkloadProfile {
    /// The benchmark.
    pub bench: BenchmarkId,
    /// The compiler's kernel-level profile.
    pub kernel: KernelStaticProfile,
    /// The kernel-level race report.
    pub races: RaceReport,
    /// Predicted region sizes.
    pub regions: PredictedRegions,
    /// SM count the prediction was made for.
    pub num_sms: usize,
    /// Parameters flagged as cross-SM write-shared races under this
    /// benchmark's region binding.
    pub racy_params: BTreeSet<String>,
}

impl StaticWorkloadProfile {
    /// Predicted sharing class.
    pub fn sharing_class(&self) -> SharingClass {
        self.regions.sharing_class(self.num_sms)
    }

    /// Predicted total page footprint.
    pub fn total_pages(&self) -> u64 {
        self.regions.total_pages
    }

    /// The page range `[0, n)` predicted read-only: pages the kernel
    /// can only reach through `ReadOnly`-mode parameters. Empty when a
    /// read-only-bound parameter is written (never the case for the
    /// shipped kernels, asserted in tests).
    pub fn read_only_page_limit(&self) -> u64 {
        let ro_sound = self
            .kernel
            .params
            .iter()
            .filter(|p| param_region(&p.name) == Some(Region::SharedRo))
            .all(|p| {
                matches!(
                    p.mode,
                    nuba_compiler::ParamMode::ReadOnly | nuba_compiler::ParamMode::Unused
                )
            })
            && !self.kernel.unknown_store;
        if ro_sound {
            self.regions.ro_pages
        } else {
            0
        }
    }

    /// MDR screen inputs (see [`MdrInputs`]).
    pub fn mdr_inputs(&self) -> MdrInputs {
        let spec = self.bench.spec();
        let saf = spec.shared_access_fraction.clamp(0.0, 1.0);
        let frac_local = (1.0 - saf) + saf / self.num_sms.max(1) as f64;
        let hit_no_rep = spec.llc_reuse.clamp(0.0, 1.0);
        // Replicable demand: shared accesses steered at the hot
        // read-only subset, weighted by how much of the kernel's
        // traffic the compiler proved read-only.
        let replicable =
            (saf * spec.shared_skew.clamp(0.0, 1.0)).min(self.kernel.demand.readonly_fraction());
        let hit_full_rep = (hit_no_rep + replicable * (1.0 - hit_no_rep)).clamp(0.0, 1.0);
        MdrInputs {
            frac_local: frac_local.clamp(0.0, 1.0),
            hit_no_rep,
            hit_full_rep,
        }
    }
}

/// Compute the static profile of one benchmark.
pub fn static_workload_profile(
    bench: BenchmarkId,
    scale: &ScaleProfile,
    num_sms: usize,
) -> StaticWorkloadProfile {
    let spec = bench.spec();
    let module = family_module(spec.family);
    let kernel = &module.kernels[0];
    let assumptions = ProfileAssumptions {
        page_bytes: scale.page_bytes,
        ..ProfileAssumptions::default()
    };
    let profile = profile_kernel(kernel, assumptions);
    let races = detect_races(kernel);
    let shared: BTreeSet<String> = kernel
        .params
        .iter()
        .filter(|p| {
            matches!(
                param_region(p),
                Some(Region::SharedRo) | Some(Region::SharedRw)
            )
        })
        .cloned()
        .collect();
    let racy_params = races.write_shared_races(&shared);
    StaticWorkloadProfile {
        bench,
        kernel: profile,
        races,
        regions: PredictedRegions::compute(spec, scale, num_sms),
        num_sms,
        racy_params,
    }
}

/// Static profiles for all 29 Table-2 benchmarks.
pub fn static_profiles_all(scale: &ScaleProfile, num_sms: usize) -> Vec<StaticWorkloadProfile> {
    BenchmarkId::ALL
        .iter()
        .map(|&b| static_workload_profile(b, scale, num_sms))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::WorkloadLayout;
    use crate::profile::sharing_buckets;
    use crate::spec::PatternFamily;

    #[test]
    fn predicted_regions_match_layout_exactly() {
        for &b in BenchmarkId::ALL {
            for (scale, sms) in [
                (ScaleProfile::default(), 64),
                (ScaleProfile::fast(), 64),
                (ScaleProfile::default(), 16),
                (ScaleProfile::huge_pages(), 64),
            ] {
                let pred = PredictedRegions::compute(b.spec(), &scale, sms);
                let layout = WorkloadLayout::build(b.spec(), &scale, sms, 42);
                assert_eq!(pred.ro_pages, layout.ro_pages.len() as u64, "{b} ro");
                assert_eq!(
                    pred.rw_shared_pages,
                    layout.rw_shared_pages.len() as u64,
                    "{b} rw"
                );
                assert_eq!(
                    pred.private_pages_per_sm, layout.private_pages_per_sm,
                    "{b} private"
                );
                assert_eq!(pred.total_pages, layout.total_pages, "{b} total");
            }
        }
    }

    #[test]
    fn predicted_class_matches_dynamic_histogram() {
        for &b in BenchmarkId::ALL {
            let p = static_workload_profile(b, &ScaleProfile::default(), 64);
            let layout = WorkloadLayout::build(b.spec(), &ScaleProfile::default(), 64, 3);
            let dynamic = sharing_buckets(&layout, 64);
            assert_eq!(p.sharing_class(), dynamic.classify(), "{b}");
            assert_eq!(p.sharing_class(), b.spec().sharing, "{b} vs Table 2");
        }
    }

    #[test]
    fn race_ground_truth_per_family() {
        let racy_w = [
            PatternFamily::Stream,
            PatternFamily::Stencil,
            PatternFamily::DnnInference,
            PatternFamily::Irregular,
            PatternFamily::Tree,
        ];
        for &b in BenchmarkId::ALL {
            let p = static_workload_profile(b, &ScaleProfile::default(), 64);
            let family = b.spec().family;
            if racy_w.contains(&family) {
                assert_eq!(
                    p.racy_params,
                    BTreeSet::from(["W".to_string()]),
                    "{b} ({family:?})"
                );
            } else {
                // GEMM stores only to private P; MapReduce's shared bins
                // are atomic-only.
                assert!(
                    p.racy_params.is_empty(),
                    "{b} ({family:?}): {:?}",
                    p.racy_params
                );
            }
            // Read-only-bound params are never racy (zero false
            // positives on the GEMM/stencil read-only family).
            assert!(!p.racy_params.contains("S"), "{b}");
            assert!(!p.racy_params.contains("S2"), "{b}");
        }
    }

    #[test]
    fn read_only_page_limit_covers_ro_region() {
        for &b in BenchmarkId::ALL {
            let p = static_workload_profile(b, &ScaleProfile::default(), 64);
            assert_eq!(
                p.read_only_page_limit(),
                p.regions.ro_pages,
                "{b}: S must be proven read-only"
            );
        }
    }

    #[test]
    fn mdr_inputs_are_probabilities() {
        for &b in BenchmarkId::ALL {
            let p = static_workload_profile(b, &ScaleProfile::default(), 64);
            let m = p.mdr_inputs();
            for (v, n) in [
                (m.frac_local, "frac_local"),
                (m.hit_no_rep, "hit_no_rep"),
                (m.hit_full_rep, "hit_full_rep"),
            ] {
                assert!((0.0..=1.0).contains(&v), "{b} {n} = {v}");
            }
            assert!(
                m.hit_full_rep >= m.hit_no_rep,
                "{b}: replication cannot lower the hit rate"
            );
        }
    }

    #[test]
    fn all_29_profiles_build() {
        let all = static_profiles_all(&ScaleProfile::fast(), 64);
        assert_eq!(all.len(), 29);
        for p in &all {
            assert!(p.total_pages() >= 8, "{}", p.bench);
            assert!(!p.kernel.params.is_empty(), "{}", p.bench);
        }
    }

    #[test]
    fn param_region_convention() {
        assert_eq!(param_region("S"), Some(Region::SharedRo));
        assert_eq!(param_region("S2"), Some(Region::SharedRo));
        assert_eq!(param_region("W"), Some(Region::SharedRw));
        assert_eq!(param_region("P"), Some(Region::Private));
        assert_eq!(param_region("N"), None);
    }
}
