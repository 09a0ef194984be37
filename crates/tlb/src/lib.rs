#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # nuba-tlb
//!
//! Address-translation hardware for the NUBA GPU simulator: per-SM L1
//! TLBs, a shared set-associative L2 TLB with a limited number of ports,
//! and a pool of concurrent page-table walkers, following the two-level
//! design the paper adopts from prior work \[8, 80, 81, 9, 91\]
//! (Table 1: 128-entry L1 TLB per SM, 512-entry 16-way L2 TLB with 2
//! ports and 10-cycle latency, 64 concurrent walkers, fixed page-fault
//! penalty).
//!
//! The [`TranslationEngine`] tracks outstanding translations per virtual
//! page, merging concurrent requests from different SMs into one walk —
//! the MMU equivalent of MSHR secondary misses.
//!
//! ## Example
//!
//! ```
//! use nuba_tlb::{TlbParams, TranslationEngine, TranslationOutcome};
//! use nuba_types::{addr::PageNum, SmId};
//!
//! let mut mmu = TranslationEngine::new(TlbParams::paper(), 64);
//! // Cold access: goes to L2 TLB, then the walkers.
//! let out = mmu.request(SmId(0), PageNum(7), 0, true);
//! assert_eq!(out, TranslationOutcome::Pending);
//! let mut done = Vec::new();
//! for c in 0..400 {
//!     mmu.tick(c, &mut done);
//! }
//! assert_eq!(done.len(), 1);
//! // Warm access: L1 TLB hit.
//! let out = mmu.request(SmId(0), PageNum(7), 400, true);
//! assert_eq!(out, TranslationOutcome::HitL1);
//! ```

pub mod engine;
pub mod tlb;

pub use engine::{
    CompletedTranslation, TlbParams, TlbStats, TranslationEngine, TranslationOutcome,
};
pub use tlb::Tlb;
