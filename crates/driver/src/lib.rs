#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # nuba-driver
//!
//! The GPU driver's memory-management responsibilities (paper §4 and
//! §7.6): the page table, page-allocation policies — first-touch,
//! round-robin and the proposed **Local-And-Balanced (LAB)** policy built
//! on the Normalized Page Balance metric (Eq. 1) — and the alternative
//! count-based page-migration and page-replication schemes evaluated in
//! §7.6.
//!
//! The driver runs on the host CPU in a real system; here it is a plain
//! in-simulation object invoked on first-touch page faults. LAB's only
//! hardware-visible state is a per-channel allocated-page counter array,
//! exactly as the paper describes ("a 32-entry array in CPU memory").
//!
//! ## Example
//!
//! ```
//! use nuba_driver::GpuDriver;
//! use nuba_types::{PagePolicyKind, PartitionId, SmId};
//! use nuba_types::addr::PageNum;
//!
//! let mut driver = GpuDriver::new(PagePolicyKind::lab_default(), 32);
//! // First touch by partition 3: LAB places the page locally while
//! // balance is good.
//! let t = driver.handle_fault(PageNum(0), PartitionId(3), SmId(6));
//! assert_eq!(t.channel.0, 3);
//! assert!(driver.translate(PageNum(0), PartitionId(3)).is_some());
//! ```

pub mod alt;
pub mod lab;
pub mod policy;
pub mod table;

pub use alt::{MigrationConfig, MigrationEvent, PageAccessTracker};
pub use lab::normalized_page_balance;
pub use policy::{DriverStats, GpuDriver};
pub use table::{PageEntry, PageTable, Translation};
