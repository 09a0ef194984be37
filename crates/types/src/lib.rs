#![warn(missing_docs)]

//! # nuba-types
//!
//! Foundational vocabulary types for the NUBA GPU simulator: addresses,
//! hardware identifiers, memory request/reply packets, the simulated-machine
//! configuration ([`GpuConfig`], paper Table 1) and statistics helpers.
//!
//! Every other crate in the workspace builds on these types, so this crate
//! is dependency-free and deliberately small-surfaced: plain data, newtypes
//! and pure functions, plus the [`invariant!`](crate::invariant!) /
//! [`check_conserved!`](crate::check_conserved!) machinery every layer
//! uses to name and count its conservation checks (see [`mod@invariant`]).
//!
//! ## Example
//!
//! ```
//! use nuba_types::{GpuConfig, ArchKind};
//!
//! let cfg = GpuConfig::paper_baseline(ArchKind::Nuba);
//! assert_eq!(cfg.num_sms, 64);
//! assert_eq!(cfg.num_partitions(), 32);
//! assert_eq!(cfg.slices_per_partition(), 2);
//! ```

pub mod addr;
pub mod config;
pub mod hash;
pub mod ids;
pub mod invariant;
pub mod mapping;
pub mod metrics;
pub mod packet;
pub mod state;
pub mod stats;

pub use addr::{LineAddr, PageNum, PhysAddr, VirtAddr, LINE_BYTES};
pub use config::{
    ArchKind, ConfigError, GpuConfig, McmConfig, NocPowerParams, PagePolicyKind, ReplicationKind,
    TelemetryConfig,
};
pub use hash::IntMap;
pub use ids::{ChannelId, ModuleId, PartitionId, SliceId, SmId, WarpId};
pub use mapping::{AddressMapping, DecodedAddr, MappingKind};
pub use metrics::{Histogram, LatencySummary, MetricsRegistry, HISTOGRAM_BUCKETS};
pub use packet::{AccessKind, MemReply, MemRequest, ReqId, Wire};
pub use state::{SaveState, StateError, StateReader, StateValue, StateWriter};
pub use stats::{harmonic_mean_speedup, percent_improvement, Counter, RateTracker};
