#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # nuba-cache
//!
//! Set-associative cache building blocks for the NUBA GPU simulator: a
//! tag array with pluggable replacement, an MSHR file with primary /
//! secondary miss merging, write-policy glue, and the dynamic set sampler
//! MDR uses for profiling (paper §5.1, after Qureshi et al. \[75\]).
//!
//! These primitives are assembled into the SM's L1 (write-through,
//! write-no-allocate) and the LLC slice (write-back, Fig. 5) in
//! `nuba-core`.
//!
//! ## Example
//!
//! ```
//! use nuba_cache::{CacheGeometry, TagArray};
//! use nuba_types::LineAddr;
//!
//! // One 96 KB LLC slice: 48 sets × 16 ways × 128 B.
//! let geo = CacheGeometry::new(48, 16);
//! let mut tags = TagArray::new(geo);
//! let line = LineAddr::containing(0x8000);
//! assert!(!tags.probe_and_touch(line, 0));
//! tags.insert(line, false, false, 0);
//! assert!(tags.probe_and_touch(line, 1));
//! ```

pub mod geometry;
pub mod mshr;
pub mod sampler;
pub mod tag;

pub use geometry::{CacheGeometry, GeometryError};
pub use mshr::{MshrFile, MshrOutcome};
pub use sampler::{SamplerEstimate, SetSampler};
pub use tag::{Eviction, ReplacementKind, TagArray};
