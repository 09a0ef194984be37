//! The static kernel profiler: per-parameter footprint, access mode,
//! and bandwidth-tier demand, computed from the affine access analysis
//! ([`crate::affine`]) without executing the kernel.
//!
//! For every parameter the profiler reports:
//!
//! - **mode** — `ReadOnly` / `AtomicOnly` / `Written` / `Unused`, the
//!   static analogue of the NUBA placement decision (read-only data is
//!   MDR-replication-eligible, written shared data is not);
//! - **footprint** — the byte extent reachable by the parameter's
//!   affine accesses with `tid ∈ [0, threads)` and every loop counter
//!   ranging over its (proven or assumed) trip count. Accesses whose
//!   address escapes the affine form clamp the parameter to an
//!   *unbounded* footprint, which callers resolve to the whole region.
//!   The extent is an interval hull, so it is a **superset** of the
//!   dynamically-touched bytes whenever the assumptions cover the
//!   dynamic thread/trip counts — the property the bench proptests pin;
//! - **thread-disjoint writes** — every store lands at
//!   `|tid-coefficient| ≥ width` with no loop term, so two threads of
//!   one SM never collide.
//!
//! The per-kernel [`TierDemand`] weights each access by the product of
//! enclosing loop trip counts and reports bytes-per-instruction split
//! by destination mode — the demand vector the `nuba-core` MDR
//! bandwidth equations consume.

use std::collections::{BTreeMap, BTreeSet};

use crate::affine::{affine_accesses, AccessExpr, AffineForm, GlobalAccessKind};
use crate::analysis::provenance_fixpoint;
use crate::ast::{Instr, Kernel, MemBase, Operand};
use crate::cfg::Cfg;

/// Knobs the static profile is computed under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileAssumptions {
    /// Distinct thread ids per SM (`tid ∈ [0, threads)`).
    pub threads: u64,
    /// Assumed trip count for loops whose bound is not provable.
    pub default_trip: u64,
    /// Page size used to convert byte extents to page counts.
    pub page_bytes: u64,
}

impl Default for ProfileAssumptions {
    fn default() -> Self {
        ProfileAssumptions {
            threads: 1024,
            default_trip: 64,
            page_bytes: 4096,
        }
    }
}

/// How a kernel treats one parameter's array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamMode {
    /// Never accessed.
    Unused,
    /// Loads only — replication-eligible.
    ReadOnly,
    /// Atomics (and possibly loads), no plain stores.
    AtomicOnly,
    /// At least one non-atomic store reaches it.
    Written,
}

/// Byte extent of a parameter's accesses relative to its base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Footprint {
    /// No attributed access.
    Empty,
    /// Accesses span `[lo, hi)` bytes from the parameter base.
    Span {
        /// Lowest touched offset.
        lo: i64,
        /// One past the highest touched offset.
        hi: i64,
    },
    /// Some attributed access has an unknown address: the whole region
    /// must be assumed.
    Unbounded,
}

impl Footprint {
    fn widen(&mut self, lo: i64, hi: i64) {
        *self = match *self {
            Footprint::Empty => Footprint::Span { lo, hi },
            Footprint::Span { lo: a, hi: b } => Footprint::Span {
                lo: a.min(lo),
                hi: b.max(hi),
            },
            Footprint::Unbounded => Footprint::Unbounded,
        };
    }

    /// Pages touched, assuming the parameter base is page-aligned.
    /// `None` for unbounded footprints.
    pub fn pages(&self, page_bytes: u64) -> Option<u64> {
        let pb = page_bytes.max(1) as i64;
        match *self {
            Footprint::Empty => Some(0),
            Footprint::Span { lo, hi } if hi > lo => {
                Some((((hi - 1).div_euclid(pb)) - lo.div_euclid(pb) + 1) as u64)
            }
            Footprint::Span { .. } => Some(0),
            Footprint::Unbounded => None,
        }
    }

    /// Byte length of the span (`None` when unbounded).
    pub fn bytes(&self) -> Option<u64> {
        match *self {
            Footprint::Empty => Some(0),
            Footprint::Span { lo, hi } => Some((hi - lo).max(0) as u64),
            Footprint::Unbounded => None,
        }
    }
}

/// Static profile of one kernel parameter.
#[derive(Debug, Clone)]
pub struct ParamProfile {
    /// Parameter name.
    pub name: String,
    /// Static count of load instructions attributed here.
    pub loads: u32,
    /// Static count of non-atomic store instructions attributed here.
    pub stores: u32,
    /// Static count of atomic/reduction instructions attributed here.
    pub atomics: u32,
    /// Accesses attributed only via provenance (address unknown).
    pub unknown_addr: u32,
    /// Access mode (placement / replication eligibility).
    pub mode: ParamMode,
    /// Predicted byte extent.
    pub footprint: Footprint,
    /// Every non-atomic store is provably disjoint across threads of
    /// one SM (`|tid coeff| ≥ width`, no loop term, known address).
    /// Vacuously true when there are no stores.
    pub thread_disjoint_writes: bool,
}

/// Loop-weighted bytes-per-instruction demand, split by the mode of the
/// parameter each access lands in. Feeds the MDR bandwidth equations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TierDemand {
    /// Trip-weighted dynamic instruction estimate.
    pub weighted_instrs: f64,
    /// Weighted bytes loaded from `ReadOnly`-mode parameters.
    pub readonly_load_bytes: f64,
    /// Weighted bytes loaded from all other parameters.
    pub other_load_bytes: f64,
    /// Weighted bytes written by plain stores.
    pub store_bytes: f64,
    /// Weighted bytes touched by atomics.
    pub atomic_bytes: f64,
}

impl TierDemand {
    /// Total global bytes per estimated instruction.
    pub fn bytes_per_instr(&self) -> f64 {
        if self.weighted_instrs <= 0.0 {
            return 0.0;
        }
        (self.readonly_load_bytes + self.other_load_bytes + self.store_bytes + self.atomic_bytes)
            / self.weighted_instrs
    }

    /// Fraction of global traffic that targets read-only (replicable)
    /// data — the demand MDR can serve from local slices.
    pub fn readonly_fraction(&self) -> f64 {
        let total =
            self.readonly_load_bytes + self.other_load_bytes + self.store_bytes + self.atomic_bytes;
        if total <= 0.0 {
            return 0.0;
        }
        self.readonly_load_bytes / total
    }

    /// Fraction of global traffic that writes (stores + atomics).
    pub fn write_fraction(&self) -> f64 {
        let total =
            self.readonly_load_bytes + self.other_load_bytes + self.store_bytes + self.atomic_bytes;
        if total <= 0.0 {
            return 0.0;
        }
        (self.store_bytes + self.atomic_bytes) / total
    }
}

/// The static profile of one kernel.
#[derive(Debug, Clone)]
pub struct KernelStaticProfile {
    /// Kernel name.
    pub kernel: String,
    /// One profile per declared parameter, in declaration order.
    pub params: Vec<ParamProfile>,
    /// Bandwidth-tier demand estimate.
    pub demand: TierDemand,
    /// A store/atomic could not be attributed to any parameter: every
    /// parameter is conservatively `Written` and unbounded.
    pub unknown_store: bool,
    /// The assumptions the profile was computed under.
    pub assumptions: ProfileAssumptions,
}

impl KernelStaticProfile {
    /// The profile of parameter `name`.
    pub fn param(&self, name: &str) -> Option<&ParamProfile> {
        self.params.iter().find(|p| p.name == name)
    }

    /// Parameters proven read-only (mode `ReadOnly`).
    pub fn read_only_params(&self) -> BTreeSet<&str> {
        self.params
            .iter()
            .filter(|p| p.mode == ParamMode::ReadOnly)
            .map(|p| p.name.as_str())
            .collect()
    }

    /// Parameters reached by a non-atomic store (mode `Written`).
    pub fn written_params(&self) -> BTreeSet<&str> {
        self.params
            .iter()
            .filter(|p| p.mode == ParamMode::Written)
            .map(|p| p.name.as_str())
            .collect()
    }
}

/// Contribution `[lo, hi]` of `coeff·x` with `x ∈ [0, range)`.
fn coeff_extent(coeff: i64, range: u64) -> (i64, i64) {
    let top = range.saturating_sub(1).min(i64::MAX as u64) as i64;
    let edge = coeff.saturating_mul(top);
    if coeff >= 0 {
        (0, edge)
    } else {
        (edge, 0)
    }
}

/// The `[lo, hi)` byte extent of one affine access relative to its
/// anchor parameter, under the given tid/trip ranges.
fn access_extent(
    form: &AffineForm,
    width: u32,
    assume: &ProfileAssumptions,
    trips: &BTreeMap<usize, u64>,
) -> (i64, i64) {
    let (mut lo, mut hi) = (form.konst, form.konst);
    let (l, h) = coeff_extent(form.tid, assume.threads);
    lo = lo.saturating_add(l);
    hi = hi.saturating_add(h);
    for (header, &coeff) in &form.iters {
        let range = trips.get(header).copied().unwrap_or(assume.default_trip);
        let (l, h) = coeff_extent(coeff, range);
        lo = lo.saturating_add(l);
        hi = hi.saturating_add(h);
    }
    (lo, hi.saturating_add(width as i64))
}

/// Whether stores at this address never collide across the threads of
/// one SM: exact affine form, no loop term, stride at least the width.
fn store_thread_disjoint(access: &AccessExpr) -> bool {
    match &access.addr {
        Some(form) => form.iters.is_empty() && form.tid.unsigned_abs() >= access.width as u64,
        None => false,
    }
}

/// Compute the static profile of `kernel`.
pub fn profile_kernel(kernel: &Kernel, assumptions: ProfileAssumptions) -> KernelStaticProfile {
    let cfg = Cfg::build(kernel);
    let aff = affine_accesses(kernel, &cfg);
    let reachable = cfg.reachable_instrs();
    let prov = provenance_fixpoint(kernel, &|i| reachable.binary_search(&i).is_ok());

    let mut params: Vec<ParamProfile> = kernel
        .params
        .iter()
        .map(|name| ParamProfile {
            name: name.clone(),
            loads: 0,
            stores: 0,
            atomics: 0,
            unknown_addr: 0,
            mode: ParamMode::Unused,
            footprint: Footprint::Empty,
            thread_disjoint_writes: true,
        })
        .collect();
    let index_of: BTreeMap<&str, usize> = kernel
        .params
        .iter()
        .enumerate()
        .map(|(i, p)| (p.as_str(), i))
        .collect();

    // Attribution: (param index, known extent?) per access target.
    let mut unknown_store = false;
    let mut attributions: Vec<(usize, Vec<(usize, bool)>)> = Vec::new();
    for (a_idx, access) in aff.accesses.iter().enumerate() {
        let mut targets: Vec<(usize, bool)> = Vec::new();
        match &access.addr {
            Some(form) => {
                if let Some(anchor) = form.anchor() {
                    if let Some(&pi) = index_of.get(anchor) {
                        targets.push((pi, true));
                    }
                } else {
                    // Affine but multi-anchored: attribute to every
                    // involved param without a usable extent.
                    for p in form.params.keys() {
                        if let Some(&pi) = index_of.get(p.as_str()) {
                            targets.push((pi, false));
                        }
                    }
                }
            }
            None => {
                // Unknown address: fall back to flow-insensitive
                // provenance of the base register.
                let base = instr_mem_base(&kernel.body[access.idx]);
                if let Some(set) = base.and_then(|r| prov.get(r)) {
                    for p in set {
                        if let Some(&pi) = index_of.get(p.as_str()) {
                            targets.push((pi, false));
                        }
                    }
                }
            }
        }
        if targets.is_empty() && access.kind != GlobalAccessKind::Load {
            unknown_store = true;
        }
        attributions.push((a_idx, targets));
    }

    // Counts, footprints, modes.
    for (a_idx, targets) in &attributions {
        let access = &aff.accesses[*a_idx];
        for &(pi, known_extent) in targets {
            let p = &mut params[pi];
            match access.kind {
                GlobalAccessKind::Load => p.loads += 1,
                GlobalAccessKind::Store => {
                    p.stores += 1;
                    if !store_thread_disjoint(access) {
                        p.thread_disjoint_writes = false;
                    }
                }
                GlobalAccessKind::Atomic => p.atomics += 1,
            }
            if known_extent {
                let form = access.addr.as_ref().expect("anchored access is affine");
                let (lo, hi) =
                    access_extent(form, access.width, &assumptions, &aff.induction.trips);
                p.footprint.widen(lo, hi);
            } else {
                p.unknown_addr += 1;
                p.footprint = Footprint::Unbounded;
            }
        }
    }
    for p in &mut params {
        p.mode = if unknown_store || p.stores > 0 {
            ParamMode::Written
        } else if p.atomics > 0 {
            ParamMode::AtomicOnly
        } else if p.loads > 0 {
            ParamMode::ReadOnly
        } else {
            ParamMode::Unused
        };
        if unknown_store {
            p.footprint = Footprint::Unbounded;
            p.thread_disjoint_writes = false;
        }
    }

    // Loop-trip-weighted demand.
    let weight_of = |idx: usize| -> f64 {
        aff.induction
            .loops
            .iter()
            .filter(|l| l.contains_instr(&cfg, idx))
            .map(|l| {
                aff.induction
                    .trips
                    .get(&l.header)
                    .copied()
                    .unwrap_or(assumptions.default_trip) as f64
            })
            .product()
    };
    let mut demand = TierDemand::default();
    for &idx in &reachable {
        if matches!(kernel.body[idx], Instr::Op { .. }) {
            demand.weighted_instrs += weight_of(idx);
        }
    }
    for (a_idx, targets) in &attributions {
        let access = &aff.accesses[*a_idx];
        let bytes = weight_of(access.idx) * access.width as f64;
        let readonly = targets
            .iter()
            .all(|&(pi, _)| params[pi].mode == ParamMode::ReadOnly)
            && !targets.is_empty();
        match access.kind {
            GlobalAccessKind::Load if readonly => demand.readonly_load_bytes += bytes,
            GlobalAccessKind::Load => demand.other_load_bytes += bytes,
            GlobalAccessKind::Store => demand.store_bytes += bytes,
            GlobalAccessKind::Atomic => demand.atomic_bytes += bytes,
        }
    }

    KernelStaticProfile {
        kernel: kernel.name.clone(),
        params,
        demand,
        unknown_store,
        assumptions,
    }
}

/// The base register of an instruction's memory operand, if any.
fn instr_mem_base(instr: &Instr) -> Option<&str> {
    let Instr::Op { operands, .. } = instr else {
        return None;
    };
    operands.iter().find_map(|op| match op {
        Operand::Mem {
            base: MemBase::Reg(r),
            ..
        } => Some(r.as_str()),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_module;

    fn profile(src: &str) -> KernelStaticProfile {
        let m = parse_module(src).unwrap();
        profile_kernel(&m.kernels[0], ProfileAssumptions::default())
    }

    const STREAM_LIKE: &str = r#"
.visible .entry k(.param .u64 S, .param .u64 W, .param .u64 P)
{
    ld.param.u64 %rds, [S];
    ld.param.u64 %rdw, [W];
    ld.param.u64 %rdp, [P];
    cvta.to.global.u64 %rds, %rds;
    cvta.to.global.u64 %rdw, %rdw;
    cvta.to.global.u64 %rdp, %rdp;
    mov.u32 %r1, %tid_x;
    mul.wide.u32 %rd4, %r1, 4;
    add.s64 %rd5, %rds, %rd4;
    add.s64 %rd6, %rdp, %rd4;
    add.s64 %rd8, %rdw, %rd4;
    ld.global.f32 %f1, [%rd5];
    ld.global.f32 %f2, [%rd6];
    ld.global.f32 %f4, [%rd8];
    fma.rn.f32 %f3, %f1, %f2, %f4;
    st.global.f32 [%rd6], %f3;
    st.global.f32 [%rd8], %f3;
    ret;
}
"#;

    #[test]
    fn stream_modes_and_footprints() {
        let p = profile(STREAM_LIKE);
        assert!(!p.unknown_store);
        let s = p.param("S").unwrap();
        assert_eq!(s.mode, ParamMode::ReadOnly);
        assert_eq!(s.loads, 1);
        // 1024 threads × stride 4 → 4096 bytes → exactly one 4K page.
        assert_eq!(s.footprint.bytes(), Some(4096));
        assert_eq!(s.footprint.pages(4096), Some(1));
        let w = p.param("W").unwrap();
        assert_eq!(w.mode, ParamMode::Written);
        assert!(w.thread_disjoint_writes, "stride-4 f32 stores are disjoint");
        assert_eq!(p.read_only_params(), BTreeSet::from(["S"]));
        assert_eq!(p.written_params(), BTreeSet::from(["P", "W"]));
    }

    #[test]
    fn loop_footprint_uses_trip_assumption() {
        // GEMM-like: S walked by a stride-4 IV with unknown bound.
        let p = profile(
            r#"
.visible .entry k(.param .u64 S, .param .u64 P)
{
    ld.param.u64 %rds, [S];
    ld.param.u64 %rdp, [P];
    cvta.to.global.u64 %rds, %rds;
    mov.u32 %r1, %tid_x;
    mul.wide.u32 %rd4, %r1, 4;
    add.s64 %rd5, %rds, %rd4;
LOOP:
    ld.global.f32 %f1, [%rd5];
    add.s64 %rd5, %rd5, 4;
    add.u32 %r2, %r2, 1;
    setp.lt.u32 %p1, %r2, %r3;
    @%p1 bra LOOP;
    add.s64 %rd7, %rdp, %rd4;
    st.global.f32 [%rd7], %f3;
    ret;
}
"#,
        );
        let s = p.param("S").unwrap();
        // tid ∈ [0,1024): 4·1023; iter ∈ [0,64): 4·63; +4 width.
        assert_eq!(s.footprint.bytes(), Some(4 * 1023 + 4 * 63 + 4));
        assert_eq!(s.mode, ParamMode::ReadOnly);
        // Demand: the loop load is weighted 64×, the store once.
        assert!(p.demand.readonly_load_bytes >= 64.0 * 4.0);
        assert_eq!(p.demand.store_bytes, 4.0);
        assert!(p.demand.readonly_fraction() > 0.9);
    }

    #[test]
    fn proven_trip_overrides_assumption() {
        let p = profile(
            r#"
.visible .entry k(.param .u64 S)
{
    ld.param.u64 %rds, [S];
    cvta.to.global.u64 %rds, %rds;
    mov.u64 %rd5, %rds;
    mov.u32 %r2, 0;
    mov.u32 %r3, 8;
LOOP:
    ld.global.f32 %f1, [%rd5];
    add.s64 %rd5, %rd5, 4;
    add.u32 %r2, %r2, 1;
    setp.lt.u32 %p1, %r2, %r3;
    @%p1 bra LOOP;
    ret;
}
"#,
        );
        let s = p.param("S").unwrap();
        // No tid term; 8 iterations × stride 4 + width.
        assert_eq!(s.footprint.bytes(), Some(8 * 4));
    }

    #[test]
    fn pointer_chase_is_unbounded_but_attributed() {
        let p = profile(
            r#"
.visible .entry k(.param .u64 S, .param .u64 P)
{
    ld.param.u64 %rdt, [S];
    ld.param.u64 %rdp, [P];
    cvta.to.global.u64 %rdt, %rdt;
    mov.u32 %r2, 0;
LOOP:
    mul.wide.u32 %rd4, %r2, 64;
    add.s64 %rd5, %rdt, %rd4;
    ld.global.u32 %r2, [%rd5];
    add.u32 %r3, %r3, 1;
    setp.lt.u32 %p1, %r3, %r4;
    @%p1 bra LOOP;
    mov.u32 %r1, %tid_x;
    mul.wide.u32 %rd6, %r1, 4;
    add.s64 %rd7, %rdp, %rd6;
    st.global.u32 [%rd7], %r2;
    ret;
}
"#,
        );
        let s = p.param("S").unwrap();
        assert_eq!(s.mode, ParamMode::ReadOnly);
        assert_eq!(s.footprint, Footprint::Unbounded);
        assert_eq!(s.footprint.pages(4096), None);
        assert_eq!(s.unknown_addr, 1);
        assert!(!p.unknown_store);
        let pp = p.param("P").unwrap();
        assert_eq!(pp.mode, ParamMode::Written);
        assert_ne!(pp.footprint, Footprint::Unbounded);
    }

    #[test]
    fn atomic_only_param() {
        let p = profile(
            r#"
.visible .entry k(.param .u64 W)
{
    ld.param.u64 %rdb, [W];
    cvta.to.global.u64 %rdb, %rdb;
    mov.u32 %r1, %tid_x;
    mul.wide.u32 %rd4, %r1, 4;
    add.s64 %rd8, %rdb, %rd4;
    atom.global.add.u32 %r4, [%rd8], 1;
    ret;
}
"#,
        );
        let w = p.param("W").unwrap();
        assert_eq!(w.mode, ParamMode::AtomicOnly);
        assert_eq!(w.atomics, 1);
        assert!(w.thread_disjoint_writes, "no plain stores");
        assert!(p.demand.atomic_bytes > 0.0);
    }

    #[test]
    fn unattributable_store_taints_everything() {
        let p = profile(
            r#"
.visible .entry k(.param .u64 A, .param .u64 B)
{
    ld.param.u64 %rd1, [A];
    cvta.to.global.u64 %rd1, %rd1;
    ld.global.f32 %f1, [%rd1];
    st.global.f32 [%rd9], %f1;
    ret;
}
"#,
        );
        assert!(p.unknown_store);
        for param in &p.params {
            assert_eq!(param.mode, ParamMode::Written, "{}", param.name);
            assert_eq!(param.footprint, Footprint::Unbounded);
        }
    }

    #[test]
    fn broadcast_store_is_not_thread_disjoint() {
        // Every thread stores to the same element: tid coeff 0.
        let p = profile(
            r#"
.visible .entry k(.param .u64 P)
{
    ld.param.u64 %rdp, [P];
    cvta.to.global.u64 %rdp, %rdp;
    st.global.f32 [%rdp+8], %f1;
    ret;
}
"#,
        );
        let pp = p.param("P").unwrap();
        assert_eq!(pp.mode, ParamMode::Written);
        assert!(!pp.thread_disjoint_writes);
        assert_eq!(pp.footprint.bytes(), Some(4));
    }

    #[test]
    fn unused_param() {
        let p = profile(
            r#"
.visible .entry k(.param .u64 A, .param .u64 N)
{
    ld.param.u64 %rd1, [A];
    cvta.to.global.u64 %rd1, %rd1;
    ld.global.f32 %f1, [%rd1];
    ret;
}
"#,
        );
        assert_eq!(p.param("N").unwrap().mode, ParamMode::Unused);
        assert_eq!(p.param("N").unwrap().footprint, Footprint::Empty);
        assert_eq!(p.param("N").unwrap().footprint.pages(4096), Some(0));
    }

    #[test]
    fn modes_agree_with_flow_analysis() {
        use crate::replication_safety::analyze_kernel_flow;
        for src in [
            STREAM_LIKE,
            r#"
.visible .entry k(.param .u64 S, .param .u64 W)
{
    ld.param.u64 %rds, [S];
    ld.param.u64 %rdw, [W];
    cvta.to.global.u64 %rds, %rds;
    cvta.to.global.u64 %rdw, %rdw;
    mov.u32 %r1, %tid_x;
    mul.wide.u32 %rd4, %r1, 4;
    add.s64 %rd5, %rds, %rd4;
    add.s64 %rd8, %rdw, %rd4;
    ld.global.f32 %f1, [%rd5];
    atom.global.add.u32 %r4, [%rd8], 1;
    ret;
}
"#,
        ] {
            let m = parse_module(src).unwrap();
            let prof = profile_kernel(&m.kernels[0], ProfileAssumptions::default());
            let flow = analyze_kernel_flow(&m.kernels[0]);
            // Static-profile ReadOnly params are exactly the loaded,
            // never-written ones the flow pass proves.
            for p in &prof.params {
                if p.mode == ParamMode::ReadOnly {
                    assert!(
                        flow.summary.read_only.contains(&p.name),
                        "{}: profiler says ReadOnly, flow pass disagrees",
                        p.name
                    );
                }
            }
        }
    }

    #[test]
    fn demand_zero_for_empty_kernel() {
        let p = profile(".visible .entry k(.param .u64 A)\n{\n ret;\n}\n");
        assert_eq!(p.demand.bytes_per_instr(), 0.0);
        assert_eq!(p.demand.readonly_fraction(), 0.0);
        assert_eq!(p.demand.write_fraction(), 0.0);
    }
}
