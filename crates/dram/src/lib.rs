#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # nuba-dram
//!
//! A bank-accurate HBM channel model in the spirit of Ramulator \[44\],
//! which the paper integrates into GPGPU-sim to model the memory
//! subsystem faithfully. Implements the paper's HBM timing table
//! (Table 1), per-bank row-buffer state machines, tFAW/tRRD activation
//! windows, data-bus occupancy and an FR-FCFS scheduler with a 64-entry
//! queue per channel.
//!
//! All times in this crate are **memory cycles** (350 MHz); the owning
//! simulator converts with the 4:1 SM-clock divider.
//!
//! ## Example
//!
//! ```
//! use nuba_dram::{HbmTiming, MemoryController, DramRequest};
//!
//! let mut mc = MemoryController::new(HbmTiming::paper(), 16, 64, 2);
//! mc.try_enqueue(DramRequest { id: 1, bank: 0, row: 5, is_write: false }, 0).unwrap();
//! let mut done = Vec::new();
//! for t in 0..64 {
//!     mc.tick(t, &mut done);
//! }
//! assert_eq!(done.len(), 1);
//! ```

pub mod bank;
pub mod controller;
pub mod timing;

pub use bank::BankState;
pub use controller::{DramRequest, DramStats, MemoryController};
pub use timing::HbmTiming;
