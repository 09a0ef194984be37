#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # nuba-noc
//!
//! Interconnect models for the NUBA GPU simulator:
//!
//! - [`CrossbarNoc`]: a hierarchical-crossbar NoC modelled as per-port
//!   bandwidth-gated injection and ejection stages with head-of-line
//!   blocking at the inputs and round-robin output arbitration. With the
//!   paper's baseline parameters (64 ports, 16 B/cycle per port, two
//!   4-cycle 8×8 stages) it reproduces the 1.4 TB/s aggregate crossbar of
//!   Table 1; sweeping the aggregate bandwidth rescales the port gates
//!   (700 GB/s … 5.6 TB/s in Fig. 10).
//! - [`power`]: the DSENT-substitute analytical crossbar power model
//!   (dynamic energy per byte growing with port width, static power
//!   growing with radix² — the quadratic endpoint scaling the paper
//!   cites as the root cause of UBA's overhead).
//!
//! Point-to-point links (NUBA's local L1↔LLC connections) are plain
//! [`nuba_engine::BandwidthLink`]s and need no extra machinery here.
//!
//! ## Example
//!
//! ```
//! use nuba_noc::CrossbarNoc;
//! use nuba_types::Wire;
//!
//! #[derive(Debug)]
//! struct P(u64);
//! impl Wire for P {
//!     fn wire_bytes(&self) -> u64 { self.0 }
//! }
//!
//! let mut noc: CrossbarNoc<P> = CrossbarNoc::new(4, 4, 16.0, 4, 8);
//! noc.try_send(0, 3, P(136), 0).unwrap();
//! let mut out = Vec::new();
//! for c in 0..40 {
//!     noc.tick(c);
//!     noc.drain_port(3, &mut out);
//! }
//! assert_eq!(out.len(), 1);
//! ```

pub mod power;
pub mod xbar;

pub use power::NocPowerModel;
pub use xbar::{CrossbarNoc, NocStats};
