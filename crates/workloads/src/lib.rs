#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # nuba-workloads
//!
//! The benchmark suite of the paper's evaluation (Table 2): 29 GPU
//! workloads from Rodinia, Parboil, Mars, Polybench, the CUDA SDK and
//! Tango, reproduced as *synthetic memory-behaviour models*.
//!
//! We cannot run CUDA binaries (see DESIGN.md substitution #1), so every
//! benchmark is modelled by:
//!
//! 1. a [`BenchmarkSpec`] carrying the paper's published characteristics
//!    (sharing class, memory footprint, read-only shared footprint) plus
//!    the access-model knobs that realize them;
//! 2. a mini-PTX kernel (per [`PatternFamily`]) that `nuba-compiler`
//!    analyzes exactly as the paper's dataflow pass does — the analysis
//!    result, not the spec, decides which accesses are tagged
//!    `ld.global.ro`;
//! 3. a deterministic per-warp access-stream generator
//!    ([`WarpStream`]) over a [`WorkloadLayout`] whose page-sharing
//!    windows reproduce the Fig. 3 sharing-degree histograms.
//!
//! ## Example
//!
//! ```
//! use nuba_workloads::{BenchmarkId, Workload, ScaleProfile};
//! use nuba_types::{SmId, WarpId};
//!
//! let wl = Workload::build(BenchmarkId::Sgemm, ScaleProfile::default(), 64, 42);
//! let mut stream = wl.stream(SmId(0), WarpId(0));
//! let op = stream.next_op();
//! println!("first op: {op:?}");
//! assert!(wl.spec().sharing.is_high());
//! ```

pub mod cta;
pub mod kernels;
pub mod layout;
pub mod profile;
pub mod scale;
pub mod spec;
pub mod static_profile;
pub mod stream;
pub mod trace;

pub use cta::CtaScheduler;
pub use kernels::{family_module, family_readonly_params};
pub use layout::{SharedPage, WorkloadLayout};
pub use profile::{sharing_buckets, SharingProfile};
pub use scale::ScaleProfile;
pub use spec::{BenchmarkId, BenchmarkSpec, PatternFamily, SharingClass};
pub use static_profile::{
    param_region, static_profiles_all, static_workload_profile, MdrInputs, PredictedRegions,
    Region, StaticWorkloadProfile,
};
pub use stream::{Access, WarpOp, WarpStream};
pub use trace::Trace;

use nuba_types::{SmId, WarpId};

/// A fully-instantiated workload: spec + scaled layout, ready to hand
/// access streams to the simulator's SMs.
#[derive(Debug, Clone)]
pub struct Workload {
    spec: Option<&'static BenchmarkSpec>,
    trace: Option<std::sync::Arc<Trace>>,
    layout: std::sync::Arc<WorkloadLayout>,
    num_sms: usize,
    seed: u64,
}

impl Workload {
    /// Instantiate `id` for a GPU with `num_sms` SMs.
    pub fn build(id: BenchmarkId, scale: ScaleProfile, num_sms: usize, seed: u64) -> Workload {
        Workload::custom(id.spec(), scale, num_sms, seed)
    }

    /// Instantiate a hand-built specification (custom workloads, ablation
    /// studies). The spec must be `'static` — leak one with
    /// `Box::leak(Box::new(spec))` if constructed at runtime.
    pub fn custom(
        spec: &'static BenchmarkSpec,
        scale: ScaleProfile,
        num_sms: usize,
        seed: u64,
    ) -> Workload {
        let layout = WorkloadLayout::build(spec, &scale, num_sms, seed);
        Workload {
            spec: Some(spec),
            trace: None,
            layout: std::sync::Arc::new(layout),
            num_sms,
            seed,
        }
    }

    /// A workload that replays a captured [`Trace`]. Warps beyond the
    /// trace's recorded `warps_per_sm` replay the recorded streams
    /// round-robin.
    pub fn from_trace(trace: Trace) -> Workload {
        let num_sms = trace.num_sms;
        let layout = WorkloadLayout::for_trace(trace.page_bytes, trace.total_pages, num_sms);
        Workload {
            spec: None,
            trace: Some(std::sync::Arc::new(trace)),
            layout: std::sync::Arc::new(layout),
            num_sms,
            seed: 0,
        }
    }

    /// The benchmark's static specification.
    ///
    /// # Panics
    /// Panics for trace-replay workloads, which have no benchmark spec;
    /// check [`Workload::is_trace`] first.
    pub fn spec(&self) -> &'static BenchmarkSpec {
        self.spec.expect("trace workloads have no benchmark spec")
    }

    /// Whether this workload replays a captured trace.
    pub fn is_trace(&self) -> bool {
        self.trace.is_some()
    }

    /// The scaled address-space layout.
    pub fn layout(&self) -> &WorkloadLayout {
        &self.layout
    }

    /// Number of SMs this instance was built for.
    pub fn num_sms(&self) -> usize {
        self.num_sms
    }

    /// A stable identity hash over everything that shapes this
    /// workload's access streams: the benchmark (or trace), the scaled
    /// layout, the SM count and the seed. Checkpoints store it so a
    /// restore against a different workload is rejected instead of
    /// silently producing garbage streams.
    #[must_use]
    pub fn state_hash(&self) -> u64 {
        use nuba_types::state::{fnv1a, StateValue, StateWriter};
        let mut w = StateWriter::new();
        match self.spec {
            Some(s) => {
                w.put_u8(0);
                s.abbr.to_string().put(&mut w);
            }
            None => w.put_u8(1),
        }
        self.layout.page_bytes.put(&mut w);
        self.layout.total_pages.put(&mut w);
        self.layout.private_base.put(&mut w);
        self.layout.private_pages_per_sm.put(&mut w);
        self.layout.ro_marked.put(&mut w);
        (self.layout.ro_pages.len()).put(&mut w);
        (self.layout.rw_shared_pages.len()).put(&mut w);
        for p in self
            .layout
            .ro_pages
            .iter()
            .chain(&self.layout.rw_shared_pages)
        {
            p.vpage.put(&mut w);
            p.window_start.put(&mut w);
            p.window_len.put(&mut w);
            p.hot.put(&mut w);
        }
        self.num_sms.put(&mut w);
        self.seed.put(&mut w);
        fnv1a(w.bytes())
    }

    /// A deterministic access stream for one warp.
    ///
    /// # Panics
    /// Panics if `sm` is out of range.
    pub fn stream(&self, sm: SmId, warp: WarpId) -> WarpStream {
        match &self.trace {
            Some(t) => {
                let w = WarpId(warp.0 % t.warps_per_sm);
                WarpStream::replay(t.ops(sm, w).clone())
            }
            None => WarpStream::new(
                self.spec.expect("synthetic workload"),
                self.layout.clone(),
                sm,
                warp,
                self.num_sms,
                self.seed,
            ),
        }
    }
}
