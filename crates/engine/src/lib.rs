#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # nuba-engine
//!
//! Cycle-stepped simulation primitives used by every hardware model in the
//! NUBA workspace: bounded queues with back-pressure, bandwidth-gated
//! serialization links, fixed-latency pipes, round-robin arbiters and a
//! deterministic RNG.
//!
//! The engine is intentionally minimal: components are plain structs that
//! the owning simulator steps once per cycle in dataflow order. All
//! capacity limits are explicit so that congestion propagates — a full NoC
//! queue stalls the LLC slice, a full MSHR stalls the SM — which is the
//! mechanism behind every bandwidth cliff the paper measures.
//!
//! ## Example
//!
//! ```
//! use nuba_engine::{BandwidthLink, Wire};
//!
//! struct Packet;
//! impl Wire for Packet {
//!     fn wire_bytes(&self) -> u64 { 136 }
//! }
//!
//! // A 16 B/cycle link with 8 cycles of latency: a 136 B reply needs
//! // ceil(136/16) = 9 cycles of serialization plus the pipe latency.
//! let mut link = BandwidthLink::new(16.0, 8, 4);
//! assert!(link.try_send(Packet, 0).is_ok());
//! let mut out = Vec::new();
//! for cycle in 0..=17 {
//!     link.tick(cycle, &mut out);
//! }
//! assert_eq!(out.len(), 1);
//! ```

pub mod arbiter;
pub mod event;
pub mod fault;
pub mod link;
pub mod pipe;
pub mod queue;
pub mod rng;

pub use arbiter::RoundRobinArbiter;
pub use event::{earliest, NextEvent};
pub use fault::{Fault, FaultEvent, FaultPlan, FaultSchedule, LinkSite};
pub use link::{BandwidthLink, SendError};
pub use pipe::LatencyPipe;
pub use queue::BoundedQueue;
pub use rng::DetRng;

// Re-export so engine users need not import nuba-types for the trait.
pub use nuba_types::Wire;

/// A simulation cycle count (SM clock domain unless stated otherwise).
pub type Cycle = u64;
