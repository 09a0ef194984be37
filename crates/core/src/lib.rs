#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # nuba-core
//!
//! The NUBA GPU system-architecture simulator: the paper's primary
//! contribution (Non-Uniform Bandwidth Architecture with LAB page
//! allocation and Model-Driven Replication) together with the two
//! Uniform Bandwidth Architecture baselines and the MCM variants, all
//! assembled from the workspace's substrate crates.
//!
//! The documented entry point is [`SimSession`]: build it from a
//! [`GpuConfig`] (architecture, resources, NoC bandwidth, page policy,
//! replication policy) and a [`Workload`], warm it, run a timed
//! window, and read back a [`SimReport`] with the metrics every figure
//! of the paper is built from. Sessions also
//! [`checkpoint`](SimSession::checkpoint) and
//! [`resume`](SimSession::resume) —
//! see the [`session`] module for the snapshot format and guarantees.
//! [`GpuSimulator`] remains available underneath
//! ([`SimSession::gpu_mut`]) for single-stepping and fault injection.
//!
//! ## Example
//!
//! ```
//! use nuba_core::SimSession;
//! use nuba_types::{ArchKind, GpuConfig};
//! use nuba_workloads::{BenchmarkId, ScaleProfile, Workload};
//!
//! let cfg = GpuConfig::paper_baseline(ArchKind::Nuba)
//!     .with_geometry(8, 8, 4, 8)
//!     .with_page_fault_latency(200); // keep the doc example short
//! let wl = Workload::build(BenchmarkId::Sgemm, ScaleProfile::fast(), 8, 1);
//! let mut session = SimSession::builder(cfg, wl).build().expect("valid config");
//! let report = session.run_window(5_000).expect("forward progress");
//! assert!(report.warp_ops > 0);
//! ```

pub mod arch;
pub mod energy;
pub mod error;
pub mod gpu;
pub mod llc;
pub mod mdr;
pub mod metrics;
pub mod session;
pub mod sm;
pub mod telemetry;

pub use arch::Topology;
pub use energy::{energy_report, EnergyCounters, EnergyParams, EnergyReport};
pub use error::{DeadlockReport, SimError};
pub use gpu::GpuSimulator;
pub use llc::{LlcSlice, MemTask, Role, SliceParams, SliceStats};
pub use mdr::{evaluate as mdr_evaluate, MdrBandwidths, MdrController, MdrEstimate, MdrProfile};
pub use metrics::{BottleneckBreakdown, LatencyReport, SimReport};
pub use session::{default_warm_accesses, first_touches, Checkpoint, SessionBuilder, SimSession};
pub use sm::{Sm, SmParams, SmStats, StallReason};
pub use telemetry::{
    Telemetry, TelemetryWindow, TraceRecord, WindowCounter, NUM_STAGES, NUM_TIERS,
    NUM_WINDOW_COUNTERS, STAGE_NAMES, TIER_NAMES,
};

// Re-exports for downstream convenience (bench harness, examples).
pub use nuba_types::{ArchKind, GpuConfig, PagePolicyKind, ReplicationKind};
pub use nuba_workloads::{BenchmarkId, ScaleProfile, Workload};
