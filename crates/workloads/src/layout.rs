//! Address-space layout of a scaled workload: which virtual pages exist,
//! which are shared and by which SMs.
//!
//! The virtual page space is laid out as
//!
//! ```text
//! | shared read-only (S) | shared read-write (W) | private per-SM (P) |
//! ```
//!
//! Each shared page carries a *sharer window*: the contiguous (wrapping)
//! range of SMs that access it, drawn from the benchmark's Fig. 3 bucket
//! distribution. Windows are what turn the spec's histogram into actual
//! cross-SM traffic.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::kernels::family_readonly_params;
use crate::scale::ScaleProfile;
use crate::spec::BenchmarkSpec;

/// One shared page and the SMs that access it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedPage {
    /// Virtual page number.
    pub vpage: u64,
    /// First SM of the sharer window.
    pub window_start: usize,
    /// Window length (number of sharing SMs, wraps modulo `num_sms`).
    pub window_len: usize,
    /// Whether the page belongs to the hot subset (read-only region).
    pub hot: bool,
}

impl SharedPage {
    /// Whether `sm` is inside this page's sharer window.
    pub fn covers(&self, sm: usize, num_sms: usize) -> bool {
        (sm + num_sms - self.window_start) % num_sms < self.window_len
    }
}

/// Per-SM accessible shared-page index lists (precomputed).
#[derive(Debug, Clone, Default)]
pub struct AccessSets {
    /// Indices into `ro_pages` marked hot.
    pub hot: Vec<u32>,
    /// Indices into `ro_pages` not marked hot.
    pub cold: Vec<u32>,
    /// Indices into `rw_shared_pages`.
    pub rw: Vec<u32>,
}

/// The instantiated layout for one (benchmark, scale, GPU-size) triple.
#[derive(Debug, Clone)]
pub struct WorkloadLayout {
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Total pages across all regions.
    pub total_pages: u64,
    /// Shared read-only pages (region `S`).
    pub ro_pages: Vec<SharedPage>,
    /// Shared read-write pages (region `W`).
    pub rw_shared_pages: Vec<SharedPage>,
    /// First private vpage (the regions before it are shared).
    pub private_base: u64,
    /// Private pages owned by each SM.
    pub private_pages_per_sm: u64,
    /// Whether the compiler proved region `S` read-only for this
    /// kernel family (it should — asserted in kernel tests).
    pub ro_marked: bool,
    sets: Vec<AccessSets>,
}

impl WorkloadLayout {
    /// Build the layout for `num_sms` SMs, deterministically from `seed`.
    pub fn build(
        spec: &BenchmarkSpec,
        scale: &ScaleProfile,
        num_sms: usize,
        seed: u64,
    ) -> WorkloadLayout {
        assert!(num_sms > 0);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xb16_b00 ^ spec.abbr.len() as u64);

        let total = scale.total_pages(spec);
        let shared_total = ((total as f64 * spec.shared_page_fraction).round() as u64)
            .min(total.saturating_sub(num_sms as u64))
            .max(1);
        let ro_count = scale.ro_pages(spec).min(shared_total);
        let rw_count = shared_total - ro_count;
        let private_total = total - shared_total;
        let private_per_sm = (private_total / num_sms as u64).max(1);

        let hot_count = ((ro_count as f64 * spec.hot_fraction).round() as u64)
            .max(1)
            .min(ro_count.max(1));

        let draw_window = |rng: &mut SmallRng| -> (usize, usize) {
            let b = rng.gen::<f64>();
            let [b1, b2, _] = spec.sharer_buckets;
            let len = if b < b1 {
                rng.gen_range(2..=10usize)
            } else if b < b1 + b2 {
                rng.gen_range(11..=25usize)
            } else {
                rng.gen_range(26..=64usize)
            };
            let len = len.min(num_sms.max(2)).max(2);
            (rng.gen_range(0..num_sms), len)
        };

        let ro_pages: Vec<SharedPage> = (0..ro_count)
            .map(|i| {
                let (start, len) = draw_window(&mut rng);
                SharedPage {
                    vpage: i,
                    window_start: start,
                    window_len: len,
                    hot: i < hot_count,
                }
            })
            .collect();
        let rw_shared_pages: Vec<SharedPage> = (0..rw_count)
            .map(|i| {
                let (start, len) = draw_window(&mut rng);
                SharedPage {
                    vpage: ro_count + i,
                    window_start: start,
                    window_len: len,
                    hot: false,
                }
            })
            .collect();

        let mut sets: Vec<AccessSets> = vec![AccessSets::default(); num_sms];
        for (i, p) in ro_pages.iter().enumerate() {
            for (sm, set) in sets.iter_mut().enumerate() {
                if p.covers(sm, num_sms) {
                    if p.hot {
                        set.hot.push(i as u32);
                    } else {
                        set.cold.push(i as u32);
                    }
                }
            }
        }
        for (i, p) in rw_shared_pages.iter().enumerate() {
            for (sm, set) in sets.iter_mut().enumerate() {
                if p.covers(sm, num_sms) {
                    set.rw.push(i as u32);
                }
            }
        }

        let ro_marked = family_readonly_params(spec.family).contains(&"S".to_string());

        WorkloadLayout {
            page_bytes: scale.page_bytes,
            total_pages: shared_total + private_per_sm * num_sms as u64,
            ro_pages,
            rw_shared_pages,
            private_base: shared_total,
            private_pages_per_sm: private_per_sm,
            ro_marked,
            sets,
        }
    }

    /// A minimal layout for a replayed trace: no shared regions, the
    /// recorded page span divided evenly for bookkeeping.
    pub fn for_trace(page_bytes: u64, total_pages: u64, num_sms: usize) -> WorkloadLayout {
        assert!(num_sms > 0 && page_bytes.is_power_of_two());
        WorkloadLayout {
            page_bytes,
            total_pages: total_pages.max(1),
            ro_pages: Vec::new(),
            rw_shared_pages: Vec::new(),
            private_base: 0,
            private_pages_per_sm: (total_pages.max(1) / num_sms as u64).max(1),
            ro_marked: false,
            sets: vec![AccessSets::default(); num_sms],
        }
    }

    /// The shared-page index lists accessible to `sm`.
    pub fn sets(&self, sm: usize) -> &AccessSets {
        &self.sets[sm]
    }

    /// First private vpage of `sm`.
    pub fn private_start(&self, sm: usize) -> u64 {
        self.private_base + sm as u64 * self.private_pages_per_sm
    }

    /// Whether `vpage` lies in the shared read-only region.
    pub fn is_ro_page(&self, vpage: u64) -> bool {
        vpage < self.ro_pages.len() as u64
    }

    /// Whether `vpage` lies in either shared region.
    pub fn is_shared_page(&self, vpage: u64) -> bool {
        vpage < self.private_base
    }

    /// The SM that owns a private `vpage` (`None` for shared pages).
    pub fn owner_of(&self, vpage: u64) -> Option<usize> {
        if vpage < self.private_base {
            return None;
        }
        Some(((vpage - self.private_base) / self.private_pages_per_sm) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::BenchmarkId;

    fn layout(b: BenchmarkId) -> WorkloadLayout {
        WorkloadLayout::build(b.spec(), &ScaleProfile::default(), 64, 7)
    }

    #[test]
    fn regions_are_disjoint_and_ordered() {
        let l = layout(BenchmarkId::Sgemm);
        let ro = l.ro_pages.len() as u64;
        let rw = l.rw_shared_pages.len() as u64;
        assert_eq!(l.private_base, ro + rw);
        assert!(l.is_ro_page(0));
        assert!(!l.is_ro_page(ro));
        assert!(l.is_shared_page(ro + rw - 1));
        assert!(!l.is_shared_page(l.private_base));
        assert_eq!(l.owner_of(l.private_start(5)), Some(5));
        assert_eq!(l.owner_of(0), None);
    }

    #[test]
    fn window_cover_wraps() {
        let p = SharedPage {
            vpage: 0,
            window_start: 60,
            window_len: 8,
            hot: false,
        };
        assert!(p.covers(60, 64));
        assert!(p.covers(63, 64));
        assert!(p.covers(0, 64)); // wrapped
        assert!(p.covers(3, 64));
        assert!(!p.covers(4, 64));
        assert!(!p.covers(30, 64));
    }

    #[test]
    fn access_sets_match_windows() {
        let l = layout(BenchmarkId::AlexNet);
        for sm in 0..64 {
            for &i in &l.sets(sm).hot {
                assert!(l.ro_pages[i as usize].covers(sm, 64));
                assert!(l.ro_pages[i as usize].hot);
            }
            for &i in &l.sets(sm).cold {
                assert!(l.ro_pages[i as usize].covers(sm, 64));
                assert!(!l.ro_pages[i as usize].hot);
            }
            for &i in &l.sets(sm).rw {
                assert!(l.rw_shared_pages[i as usize].covers(sm, 64));
            }
        }
    }

    #[test]
    fn high_sharing_has_wide_windows() {
        let l = layout(BenchmarkId::SqueezeNet);
        let avg: f64 =
            l.ro_pages.iter().map(|p| p.window_len as f64).sum::<f64>() / l.ro_pages.len() as f64;
        assert!(avg > 25.0, "SN windows too narrow: {avg}");
    }

    #[test]
    fn low_sharing_has_narrow_windows() {
        let l = layout(BenchmarkId::Lbm);
        let max = l
            .ro_pages
            .iter()
            .chain(&l.rw_shared_pages)
            .map(|p| p.window_len)
            .max()
            .unwrap();
        assert!(max <= 10, "LBM windows too wide: {max}");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = layout(BenchmarkId::BTree);
        let b = layout(BenchmarkId::BTree);
        assert_eq!(a.ro_pages, b.ro_pages);
        let c = WorkloadLayout::build(BenchmarkId::BTree.spec(), &ScaleProfile::default(), 64, 8);
        assert_ne!(a.ro_pages, c.ro_pages);
    }

    #[test]
    fn every_sm_owns_private_pages() {
        let l = layout(BenchmarkId::Mvt);
        assert!(l.private_pages_per_sm >= 1);
        for sm in 0..64 {
            let start = l.private_start(sm);
            assert_eq!(l.owner_of(start), Some(sm));
            assert_eq!(l.owner_of(start + l.private_pages_per_sm - 1), Some(sm));
        }
    }

    #[test]
    fn bt_ro_region_dominates() {
        // BT: 36 of 39 MB read-only shared — the layout must reflect it.
        let l = layout(BenchmarkId::BTree);
        assert!(l.ro_pages.len() as f64 > 0.6 * l.total_pages as f64);
    }
}
