//! Loop structure, induction variables, and value ranges.
//!
//! Three pieces feed the static profiler ([`crate::profile`]):
//!
//! - **Natural loops** over the [`Cfg`]: back edges `b → h` where the
//!   header `h` dominates `b`, each with its body block set. Back edges
//!   whose target does not dominate the source mark the CFG
//!   *irreducible* and every downstream analysis degrades to ⊤.
//! - **Basic induction variables**: registers whose only definitions
//!   inside a loop are self-increments `add/sub r, r, imm`. Their
//!   per-iteration step is the sum of the increments on the single
//!   in-loop def (multiple defs disqualify the register — a join of
//!   differently-advanced copies is not affine).
//! - **Value ranges**: a forward interval analysis on the generic
//!   worklist solver ([`crate::dataflow`]). The lattice per register is
//!   `⊥ < [lo, hi] < ⊤` with *widening at joins* — when a bound grows
//!   it jumps straight to unbounded, so the lattice height is finite
//!   and loops converge in one round trip at the cost of precision
//!   (an `i = 0..n` counter reads as `[0, +∞)`). Trip counts recover
//!   the lost bound where the exit guard compares a basic IV against a
//!   constant-range register.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{Instr, Kernel, Operand};
use crate::cfg::Cfg;
use crate::dataflow::{forward_instr_facts, solve, DataflowProblem, Direction};
use crate::dominators::dominators;

/// A closed-ish integer interval; `None` bounds are ±∞.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueRange {
    /// Lower bound (`None` = −∞).
    pub lo: Option<i64>,
    /// Upper bound (`None` = +∞).
    pub hi: Option<i64>,
}

impl ValueRange {
    /// The full range ⊤.
    pub fn top() -> ValueRange {
        ValueRange { lo: None, hi: None }
    }

    /// A single value.
    pub fn exact(v: i64) -> ValueRange {
        ValueRange {
            lo: Some(v),
            hi: Some(v),
        }
    }

    /// `[lo, +∞)`.
    pub fn at_least(lo: i64) -> ValueRange {
        ValueRange {
            lo: Some(lo),
            hi: None,
        }
    }

    /// The constant this range pins down, if both bounds agree.
    pub fn as_const(&self) -> Option<i64> {
        match (self.lo, self.hi) {
            (Some(a), Some(b)) if a == b => Some(a),
            _ => None,
        }
    }

    /// Widening join: a bound that differs between the operands goes
    /// straight to unbounded, so chains of joins terminate.
    fn widen_join(&self, other: &ValueRange) -> ValueRange {
        ValueRange {
            lo: match (self.lo, other.lo) {
                (Some(a), Some(b)) if a == b => Some(a),
                _ => None,
            },
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) if a == b => Some(a),
                _ => None,
            },
        }
    }

    fn add(&self, other: &ValueRange) -> ValueRange {
        let add = |a: Option<i64>, b: Option<i64>| a.zip(b).and_then(|(a, b)| a.checked_add(b));
        ValueRange {
            lo: add(self.lo, other.lo),
            hi: add(self.hi, other.hi),
        }
    }

    fn sub(&self, other: &ValueRange) -> ValueRange {
        let sub = |a: Option<i64>, b: Option<i64>| a.zip(b).and_then(|(a, b)| a.checked_sub(b));
        ValueRange {
            lo: sub(self.lo, other.hi),
            hi: sub(self.hi, other.lo),
        }
    }

    fn mul_const(&self, k: i64) -> ValueRange {
        let mul = |a: Option<i64>| a.and_then(|a| a.checked_mul(k));
        let (lo, hi) = if k >= 0 {
            (mul(self.lo), mul(self.hi))
        } else {
            (mul(self.hi), mul(self.lo))
        };
        ValueRange { lo, hi }
    }
}

/// One natural loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    /// Header block id (the back edges' target).
    pub header: usize,
    /// Back edges `(source, header)` forming this loop.
    pub back_edges: Vec<(usize, usize)>,
    /// Block ids in the loop body, header included.
    pub body: BTreeSet<usize>,
}

impl NaturalLoop {
    /// Whether body index `idx` (an instruction) sits inside the loop.
    pub fn contains_instr(&self, cfg: &Cfg, idx: usize) -> bool {
        self.body
            .iter()
            .any(|&b| cfg.blocks[b].instrs.contains(&idx))
    }
}

/// A basic induction variable of one loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InductionVar {
    /// Register name.
    pub reg: String,
    /// Loop header block id.
    pub header: usize,
    /// Per-iteration step (signed).
    pub step: i64,
    /// Body index of the self-increment instruction.
    pub def_idx: usize,
}

/// Loop structure + induction variables + trip counts for one kernel.
#[derive(Debug, Clone, Default)]
pub struct InductionSummary {
    /// Natural loops, one per distinct header, headers ascending.
    pub loops: Vec<NaturalLoop>,
    /// Basic IVs by register name.
    pub ivs: BTreeMap<String, InductionVar>,
    /// Proven iteration counts per loop header (absent = unknown).
    pub trips: BTreeMap<usize, u64>,
    /// The CFG has a back edge whose target does not dominate its
    /// source (or a cycle with no back edge at all): loop-based
    /// reasoning is unsound, callers must degrade to ⊤.
    pub irreducible: bool,
}

/// Find the natural loops of `cfg`. Returns `(loops, irreducible)`.
pub fn natural_loops(cfg: &Cfg) -> (Vec<NaturalLoop>, bool) {
    let dom = dominators(cfg);
    let mut by_header: BTreeMap<usize, NaturalLoop> = BTreeMap::new();
    for b in &cfg.blocks {
        for &s in &b.successors {
            if dom.dominates(s, b.id) {
                // Back edge b → s with the header dominating the source.
                let l = by_header.entry(s).or_insert_with(|| NaturalLoop {
                    header: s,
                    back_edges: Vec::new(),
                    body: BTreeSet::from([s]),
                });
                l.back_edges.push((b.id, s));
                // Body: header plus every block reaching the back-edge
                // source without passing through the header.
                let preds = cfg.predecessors();
                let mut stack = vec![b.id];
                while let Some(x) = stack.pop() {
                    if l.body.insert(x) {
                        for &p in &preds[x] {
                            if !l.body.contains(&p) {
                                stack.push(p);
                            }
                        }
                    }
                }
            }
        }
    }
    // Any remaining cycle not accounted for by natural back edges means
    // the graph is irreducible: removing the natural back edges must
    // leave an acyclic graph.
    let loops: Vec<NaturalLoop> = by_header.into_values().collect();
    let back: BTreeSet<(usize, usize)> = loops
        .iter()
        .flat_map(|l| l.back_edges.iter().copied())
        .collect();
    let irreducible = has_cycle_without(cfg, &back);
    (loops, irreducible)
}

/// DFS cycle check ignoring the given edges.
fn has_cycle_without(cfg: &Cfg, skip: &BTreeSet<(usize, usize)>) -> bool {
    #[derive(Clone, Copy, PartialEq)]
    enum C {
        White,
        Gray,
        Black,
    }
    fn dfs(cfg: &Cfg, skip: &BTreeSet<(usize, usize)>, b: usize, color: &mut [C]) -> bool {
        color[b] = C::Gray;
        for &s in &cfg.blocks[b].successors {
            if skip.contains(&(b, s)) {
                continue;
            }
            match color[s] {
                C::Gray => return true,
                C::White => {
                    if dfs(cfg, skip, s, color) {
                        return true;
                    }
                }
                C::Black => {}
            }
        }
        color[b] = C::Black;
        false
    }
    let n = cfg.blocks.len();
    let mut color = vec![C::White; n];
    (0..n).any(|b| color[b] == C::White && dfs(cfg, skip, b, &mut color))
}

/// Whether `instr` is a self-increment `add/sub r, r, imm`, returning
/// the signed step.
fn self_increment(instr: &Instr) -> Option<(&str, i64)> {
    let Instr::Op {
        opcode,
        operands,
        pred: None,
    } = instr
    else {
        return None;
    };
    let sign = match opcode.first().map(String::as_str) {
        Some("add") => 1,
        Some("sub") => -1,
        _ => return None,
    };
    match operands.as_slice() {
        [Operand::Reg(d), Operand::Reg(a), Operand::Imm(k)] if d == a => Some((d, sign * k)),
        _ => None,
    }
}

/// Basic IVs of each loop: registers whose *only* in-loop definition is
/// an unpredicated self-increment.
pub fn induction_variables(
    kernel: &Kernel,
    cfg: &Cfg,
    loops: &[NaturalLoop],
) -> BTreeMap<String, InductionVar> {
    let mut ivs = BTreeMap::new();
    for l in loops {
        // Count every in-loop def per register.
        let mut defs: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for &b in &l.body {
            for &i in &cfg.blocks[b].instrs {
                if let Some(d) = kernel.body[i].def_register() {
                    defs.entry(d).or_default().push(i);
                }
            }
        }
        for (reg, sites) in defs {
            let [site] = sites.as_slice() else { continue };
            if let Some((r, step)) = self_increment(&kernel.body[*site]) {
                debug_assert_eq!(r, reg);
                // Step 0 (`add r, r, 0`) still qualifies: the register
                // is loop-invariant in disguise, and an iter
                // coefficient of 0 keeps its addresses affine instead
                // of tainting them unbounded.
                ivs.insert(
                    reg.to_string(),
                    InductionVar {
                        reg: reg.to_string(),
                        header: l.header,
                        step,
                        def_idx: *site,
                    },
                );
            }
        }
    }
    ivs
}

/// Interval analysis over registers (see module docs for the widening
/// discipline). Absent map entries are ⊥ (never written / unreachable).
pub struct RangeAnalysis;

/// The per-point fact: register → interval.
pub type RangeFact = BTreeMap<String, ValueRange>;

/// Evaluate an operand's range under `fact`. Registers named `tid_x` /
/// `ctaid_x` (the special-register movs) are non-negative.
fn operand_range(op: &Operand, fact: &RangeFact) -> ValueRange {
    match op {
        Operand::Imm(k) => ValueRange::exact(*k),
        Operand::Reg(r) if r.starts_with("tid") || r.starts_with("ctaid") => {
            ValueRange::at_least(0)
        }
        Operand::Reg(r) => fact.get(r).copied().unwrap_or_else(ValueRange::top),
        _ => ValueRange::top(),
    }
}

impl DataflowProblem for RangeAnalysis {
    type Fact = RangeFact;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary_fact(&self) -> Self::Fact {
        BTreeMap::new()
    }

    fn init_fact(&self) -> Self::Fact {
        BTreeMap::new()
    }

    fn join_into(&self, acc: &mut Self::Fact, from: &Self::Fact) {
        for (reg, r) in from {
            match acc.get_mut(reg) {
                // ⊥ ⊔ r = r.
                None => {
                    acc.insert(reg.clone(), *r);
                }
                Some(a) => *a = a.widen_join(r),
            }
        }
    }

    fn transfer(&self, _idx: usize, instr: &Instr, fact: &mut Self::Fact) {
        let Instr::Op {
            opcode,
            operands,
            pred,
        } = instr
        else {
            return;
        };
        let Some(dst) = instr.def_register() else {
            return;
        };
        let head = opcode.first().map(String::as_str).unwrap_or("");
        let computed = match (head, operands.as_slice()) {
            ("mov" | "cvta" | "cvt", [_, src, ..]) => operand_range(src, fact),
            ("add", [_, a, b]) => operand_range(a, fact).add(&operand_range(b, fact)),
            ("sub", [_, a, b]) => operand_range(a, fact).sub(&operand_range(b, fact)),
            ("mul" | "mad" | "shl", [_, a, b]) => {
                // Only constant scaling stays precise; `mad` and
                // variable shifts degrade to ⊤ below.
                match (head, operand_range(b, fact).as_const()) {
                    ("mul", Some(k)) => operand_range(a, fact).mul_const(k),
                    ("shl", Some(k)) if (0..63).contains(&k) => {
                        operand_range(a, fact).mul_const(1i64 << k)
                    }
                    _ => ValueRange::top(),
                }
            }
            _ => ValueRange::top(),
        };
        // A predicated def may not execute: widen with the incoming
        // value for monotonicity (mirrors ReachingDefs' gen-no-kill).
        let out = if pred.is_some() {
            fact.get(dst)
                .copied()
                .map(|old| old.widen_join(&computed))
                .unwrap_or(computed)
        } else {
            computed
        };
        fact.insert(dst.to_string(), out);
    }
}

/// Trip counts: for each loop, find the guard `setp.lt/le.* %p, iv, B`
/// whose predicate controls the back-edge branch, with `iv` a basic IV
/// of that loop with positive step and a known init, and `B` of
/// constant range at the guard. `trip = ceil((B - init) / step)`
/// (`+1` for `le`), clamped at 1.
fn trip_counts(
    kernel: &Kernel,
    cfg: &Cfg,
    loops: &[NaturalLoop],
    ivs: &BTreeMap<String, InductionVar>,
) -> BTreeMap<usize, u64> {
    let ranges = solve(&RangeAnalysis, kernel, cfg);
    let mut trips = BTreeMap::new();
    for l in loops {
        let Some(trip) = trip_of_loop(kernel, cfg, l, ivs, &ranges.entry) else {
            continue;
        };
        trips.insert(l.header, trip);
    }
    trips
}

fn trip_of_loop(
    kernel: &Kernel,
    cfg: &Cfg,
    l: &NaturalLoop,
    ivs: &BTreeMap<String, InductionVar>,
    entry_facts: &[RangeFact],
) -> Option<u64> {
    // The back-edge branch: `@%p bra HEADER` at the end of a source
    // block. One back edge only — multi-latch loops stay unknown.
    let [(src, _)] = l.back_edges.as_slice() else {
        return None;
    };
    let &branch_idx = cfg.blocks[*src].instrs.last()?;
    let Instr::Op {
        opcode,
        pred: Some(p),
        ..
    } = &kernel.body[branch_idx]
    else {
        return None;
    };
    if opcode.first().map(String::as_str) != Some("bra") {
        return None;
    }
    // The setp defining the predicate, in the same block, before the
    // branch (the common codegen shape).
    let setp_idx = cfg.blocks[*src]
        .instrs
        .iter()
        .rev()
        .copied()
        .find(|&i| kernel.body[i].def_register() == Some(p.as_str()))?;
    let Instr::Op {
        opcode: setp_op,
        operands,
        ..
    } = &kernel.body[setp_idx]
    else {
        return None;
    };
    if setp_op.first().map(String::as_str) != Some("setp") {
        return None;
    }
    let cmp = setp_op.get(1).map(String::as_str)?;
    let inclusive = match cmp {
        "lt" => false,
        "le" => true,
        _ => return None,
    };
    let [Operand::Reg(_), Operand::Reg(iv_reg), bound] = operands.as_slice() else {
        return None;
    };
    let iv = ivs.get(iv_reg)?;
    if iv.header != l.header || iv.step <= 0 {
        return None;
    }
    // Bound range at the guard (replayed within the block).
    let per_instr = forward_instr_facts(&RangeAnalysis, kernel, &cfg.blocks[*src], {
        &entry_facts[*src]
    });
    let fact = per_instr
        .iter()
        .find(|(i, _)| *i == setp_idx)
        .map(|(_, f)| f)?;
    let bound = operand_range(bound, fact).as_const()?;
    // IV init: the interval entering the header from outside must pin
    // the register exactly. The header's entry fact joins the back edge
    // (widened), so look at the init along the preheader path instead:
    // the last unpredicated `mov iv, imm` before the header's first
    // instruction, with no other outside-loop def after it.
    let init = iv_init(kernel, cfg, l, iv_reg)?;
    let distance = bound - init + i64::from(inclusive);
    if distance <= 0 {
        return Some(1); // guard false after the mandatory first iteration
    }
    let trip = (distance as u64).div_ceil(iv.step as u64);
    Some(trip.max(1))
}

/// The constant initial value of `reg` on loop entry: the unique
/// outside-loop definition, which must be an unpredicated `mov reg, imm`.
/// No outside-loop def at all means the register starts at an
/// undefined value — callers treat it as unknown.
fn iv_init(kernel: &Kernel, cfg: &Cfg, l: &NaturalLoop, reg: &str) -> Option<i64> {
    let mut init = None;
    for b in &cfg.blocks {
        if l.body.contains(&b.id) {
            continue;
        }
        for &i in &b.instrs {
            if kernel.body[i].def_register() == Some(reg) {
                if init.is_some() {
                    return None; // multiple outside defs: ambiguous
                }
                let Instr::Op {
                    opcode,
                    operands,
                    pred: None,
                } = &kernel.body[i]
                else {
                    return None;
                };
                if opcode.first().map(String::as_str) != Some("mov") {
                    return None;
                }
                match operands.as_slice() {
                    [_, Operand::Imm(k)] => init = Some(*k),
                    _ => return None,
                }
            }
        }
    }
    init
}

/// Run the whole loop analysis for one kernel.
pub fn analyze_induction(kernel: &Kernel, cfg: &Cfg) -> InductionSummary {
    let (loops, irreducible) = natural_loops(cfg);
    if irreducible {
        return InductionSummary {
            loops,
            irreducible,
            ..InductionSummary::default()
        };
    }
    let ivs = induction_variables(kernel, cfg, &loops);
    let trips = trip_counts(kernel, cfg, &loops, &ivs);
    InductionSummary {
        loops,
        ivs,
        trips,
        irreducible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_module;

    fn kernel(src: &str) -> Kernel {
        parse_module(src).unwrap().kernels.remove(0)
    }

    const COUNTED: &str = r#"
.visible .entry k(.param .u64 A)
{
    mov.u32 %r1, 0;
LOOP:
    add.u32 %r1, %r1, 1;
    setp.lt.u32 %p1, %r1, %r2;
    @%p1 bra LOOP;
    ret;
}
"#;

    #[test]
    fn finds_the_loop_and_iv() {
        let k = kernel(COUNTED);
        let cfg = Cfg::build(&k);
        let s = analyze_induction(&k, &cfg);
        assert!(!s.irreducible);
        assert_eq!(s.loops.len(), 1);
        let iv = s.ivs.get("r1").expect("r1 is a basic IV");
        assert_eq!(iv.step, 1);
        assert_eq!(iv.header, s.loops[0].header);
        // Bound %r2 is unknown: no trip count.
        assert!(s.trips.is_empty());
    }

    #[test]
    fn constant_bound_gives_trip_count() {
        let k = kernel(
            r#"
.visible .entry k(.param .u64 A)
{
    mov.u32 %r1, 0;
    mov.u32 %r2, 12;
LOOP:
    add.u32 %r1, %r1, 2;
    setp.lt.u32 %p1, %r1, %r2;
    @%p1 bra LOOP;
    ret;
}
"#,
        );
        let cfg = Cfg::build(&k);
        let s = analyze_induction(&k, &cfg);
        let header = s.loops[0].header;
        // r1: 0,2,4,...; loop repeats while r1 < 12 → 6 iterations.
        assert_eq!(s.trips.get(&header), Some(&6));
    }

    #[test]
    fn le_bound_is_inclusive() {
        let k = kernel(
            r#"
.visible .entry k(.param .u64 A)
{
    mov.u32 %r1, 0;
    mov.u32 %r2, 3;
LOOP:
    add.u32 %r1, %r1, 1;
    setp.le.u32 %p1, %r1, %r2;
    @%p1 bra LOOP;
    ret;
}
"#,
        );
        let cfg = Cfg::build(&k);
        let s = analyze_induction(&k, &cfg);
        // r1 = 1..=3 pass the guard, the r1=4 check fails → 4 iterations.
        assert_eq!(s.trips.get(&s.loops[0].header), Some(&4));
    }

    #[test]
    fn multiple_in_loop_defs_disqualify_iv() {
        let k = kernel(
            r#"
.visible .entry k(.param .u64 A)
{
    mov.u32 %r1, 0;
LOOP:
    add.u32 %r1, %r1, 1;
    add.u32 %r1, %r1, 1;
    setp.lt.u32 %p1, %r1, %r2;
    @%p1 bra LOOP;
    ret;
}
"#,
        );
        let cfg = Cfg::build(&k);
        let s = analyze_induction(&k, &cfg);
        assert!(s.ivs.is_empty(), "{:?}", s.ivs);
    }

    #[test]
    fn non_self_increment_is_not_iv() {
        let k = kernel(
            r#"
.visible .entry k(.param .u64 A)
{
    mov.u32 %r1, 0;
LOOP:
    mul.lo.u32 %r1, %r1, 3;
    setp.lt.u32 %p1, %r1, %r2;
    @%p1 bra LOOP;
    ret;
}
"#,
        );
        let cfg = Cfg::build(&k);
        let s = analyze_induction(&k, &cfg);
        assert!(s.ivs.is_empty());
    }

    #[test]
    fn straight_line_has_no_loops() {
        let k = kernel(".visible .entry k(.param .u64 A)\n{\n mov.u32 %r1, 1;\n ret;\n}\n");
        let cfg = Cfg::build(&k);
        let s = analyze_induction(&k, &cfg);
        assert!(s.loops.is_empty() && s.ivs.is_empty() && !s.irreducible);
    }

    #[test]
    fn ranges_track_constants_and_widen_in_loops() {
        let k = kernel(COUNTED);
        let cfg = Cfg::build(&k);
        let facts = solve(&RangeAnalysis, &k, &cfg);
        // In the exit block, r1 is widened (known ≥ nothing after the
        // loop join drops the bound).
        let exit = cfg.blocks.len() - 1;
        let r1 = facts.entry[exit].get("r1").copied().unwrap();
        assert_eq!(r1, ValueRange::top());
        // But the constant init is exact at the header's first visit —
        // check the straight-line prefix block.
        let r1_entry = facts.exit[0].get("r1").copied().unwrap();
        assert_eq!(r1_entry, ValueRange::exact(0));
    }

    #[test]
    fn range_arithmetic() {
        let a = ValueRange::exact(4);
        let b = ValueRange {
            lo: Some(0),
            hi: Some(10),
        };
        assert_eq!(a.add(&b).lo, Some(4));
        assert_eq!(a.add(&b).hi, Some(14));
        assert_eq!(b.mul_const(-2).lo, Some(-20));
        assert_eq!(b.mul_const(-2).hi, Some(0));
        assert_eq!(a.sub(&b).lo, Some(-6));
        assert_eq!(a.sub(&b).hi, Some(4));
        assert_eq!(ValueRange::top().add(&a), ValueRange::top());
    }

    #[test]
    fn nested_loops_found() {
        let k = kernel(
            r#"
.visible .entry k(.param .u64 A)
{
    mov.u32 %r1, 0;
OUTER:
    mov.u32 %r2, 0;
INNER:
    add.u32 %r2, %r2, 1;
    setp.lt.u32 %p1, %r2, %r8;
    @%p1 bra INNER;
    add.u32 %r1, %r1, 1;
    setp.lt.u32 %p2, %r1, %r9;
    @%p2 bra OUTER;
    ret;
}
"#,
        );
        let cfg = Cfg::build(&k);
        let s = analyze_induction(&k, &cfg);
        assert_eq!(s.loops.len(), 2);
        assert!(!s.irreducible);
        assert!(s.ivs.contains_key("r1") && s.ivs.contains_key("r2"));
        // The inner loop's body is a subset of the outer's.
        let (outer, inner) = {
            let a = &s.loops[0];
            let b = &s.loops[1];
            if a.body.len() > b.body.len() {
                (a, b)
            } else {
                (b, a)
            }
        };
        assert!(inner.body.is_subset(&outer.body));
    }
}
