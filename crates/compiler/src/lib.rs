#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # nuba-compiler
//!
//! The compile-time half of Model-Driven Replication (paper §5.2): a
//! parser for a practical subset of NVIDIA PTX \[62\], an intra-kernel
//! dataflow analysis that classifies each kernel parameter (global-memory
//! array) as **read-only** or **read-write**, and a rewriter that turns
//! `ld.global` instructions whose addresses provably derive from
//! read-only arrays into the new `ld.global.ro` form the hardware uses to
//! identify replication candidates.
//!
//! Two analyses are provided:
//!
//! - [`analyze_kernel`] is flow-insensitive and conservative: register
//!   provenance (which params a register's value may derive from) is
//!   propagated to a fixpoint, any store through a register with
//!   unknown provenance taints *all* params, and a param stored through
//!   on **any** path is read-write for the whole kernel, matching the
//!   paper's "if a data structure is never written to within a kernel,
//!   it is marked read-only".
//! - [`analyze_kernel_flow`] is flow-sensitive, built on a generic
//!   worklist dataflow framework ([`dataflow`], [`mod@dominators`]): CFG
//!   edges whose guard predicate is provably constant-false are pruned,
//!   pointer provenance is tracked per program point with strong
//!   updates, and surviving stores are classified as guarded or
//!   unconditional via post-dominance. Its `read_only` set is always a
//!   superset of the flow-insensitive one, so it only ever *adds*
//!   replication candidates.
//!
//! ## Example
//!
//! ```
//! use nuba_compiler::{analyze_kernel, parse_module, rewrite_readonly_loads};
//!
//! let src = r#"
//! .visible .entry saxpy(.param .u64 X, .param .u64 Y)
//! {
//!     ld.param.u64 %rdx, [X];
//!     ld.param.u64 %rdy, [Y];
//!     cvta.to.global.u64 %rdx, %rdx;
//!     cvta.to.global.u64 %rdy, %rdy;
//!     ld.global.f32 %f1, [%rdx];
//!     ld.global.f32 %f2, [%rdy];
//!     fma.rn.f32 %f3, %f1, %f0, %f2;
//!     st.global.f32 [%rdy], %f3;
//!     ret;
//! }
//! "#;
//! let module = parse_module(src)?;
//! let summary = analyze_kernel(&module.kernels[0]);
//! assert!(summary.read_only.contains("X"));
//! assert!(!summary.read_only.contains("Y")); // stored through
//! let rewritten = rewrite_readonly_loads(&module.kernels[0]);
//! assert_eq!(rewritten.to_ptx().matches("ld.global.ro").count(), 1);
//! # Ok::<(), nuba_compiler::PtxError>(())
//! ```

pub mod affine;
pub mod analysis;
pub mod ast;
pub mod cfg;
pub mod dataflow;
pub mod dominators;
pub mod induction;
pub mod interp;
pub mod parse;
pub mod profile;
pub mod race;
pub mod replication_safety;
pub mod rewrite;

pub use affine::{affine_accesses, AccessExpr, AffineAccesses, AffineForm, GlobalAccessKind};
pub use analysis::{analyze_kernel, analyze_kernel_reachable, KernelAccessSummary};
pub use ast::{Instr, Kernel, MemBase, Module, Operand};
pub use cfg::{BasicBlock, Cfg};
pub use dataflow::{
    solve as solve_dataflow, BlockFacts, DataflowProblem, Direction, Liveness, ReachingDefs,
};
pub use dominators::{dominators, post_dominators, Dominance};
pub use induction::{analyze_induction, InductionSummary, InductionVar, NaturalLoop, ValueRange};
pub use interp::{interpret, InterpConfig, InterpResult, RecordedAccess};
pub use parse::{parse_module, PtxError};
pub use profile::{
    profile_kernel, Footprint, KernelStaticProfile, ParamMode, ParamProfile, ProfileAssumptions,
    TierDemand,
};
pub use race::{detect_races, ParamWriteSummary, RaceReport};
pub use replication_safety::{analyze_kernel_flow, ReplicationSafety};
pub use rewrite::{rewrite_readonly_loads, rewrite_readonly_loads_precise};
