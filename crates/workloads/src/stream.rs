//! Deterministic per-warp access-stream generation.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use nuba_types::{AccessKind, SmId, VirtAddr, WarpId, LINE_BYTES};

use crate::layout::WorkloadLayout;
use crate::spec::{BenchmarkSpec, PatternFamily};

/// Accesses a stream keeps for L1-distance replay.
const RECENT: usize = 8;

/// One warp-level (coalesced) memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Coalesced virtual address (line-aligned).
    pub vaddr: VirtAddr,
    /// Kind, including the compiler's `ld.global.ro` marking.
    pub kind: AccessKind,
    /// Streaming access issued with L1 bypass (`ld.global.cg`): private
    /// array traffic whose only useful cache level is the LLC. L1 hits
    /// come from the explicit short-distance replay knob instead.
    pub bypass_l1: bool,
}

/// What a warp does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpOp {
    /// Issue a memory access.
    Mem(Access),
    /// Execute for this many cycles without touching memory.
    Compute(u32),
}

/// An infinite, deterministic stream of [`WarpOp`]s for one warp:
/// either synthesized from a benchmark model or replayed from a
/// captured [`Trace`](crate::trace::Trace).
#[derive(Debug, Clone)]
pub struct WarpStream {
    inner: Inner,
}

#[derive(Debug, Clone)]
enum Inner {
    Synthetic(Box<SyntheticStream>),
    Replay {
        ops: std::sync::Arc<Vec<WarpOp>>,
        pos: usize,
    },
}

impl WarpStream {
    /// A synthetic stream realizing the benchmark's model knobs:
    /// shared-region access probability, hot-set skew, write fraction,
    /// L1 temporal reuse, and the pattern family's private-region
    /// ordering.
    pub fn new(
        spec: &'static BenchmarkSpec,
        layout: Arc<WorkloadLayout>,
        sm: SmId,
        warp: WarpId,
        num_sms: usize,
        seed: u64,
    ) -> WarpStream {
        WarpStream {
            inner: Inner::Synthetic(Box::new(SyntheticStream::new(
                spec, layout, sm, warp, num_sms, seed,
            ))),
        }
    }

    /// A stream replaying recorded operations, cycling at the end.
    ///
    /// # Panics
    /// Panics if `ops` is empty — a warp must always have a next op.
    pub fn replay(ops: std::sync::Arc<Vec<WarpOp>>) -> WarpStream {
        assert!(!ops.is_empty(), "cannot replay an empty trace stream");
        WarpStream {
            inner: Inner::Replay { ops, pos: 0 },
        }
    }

    /// Produce the next warp operation.
    ///
    /// Reaches no invariant site: the warm-up walk calls this on several
    /// threads at once, and a site's tally is exact on one thread only.
    pub fn next_op(&mut self) -> WarpOp {
        match &mut self.inner {
            Inner::Synthetic(s) => s.next_op(),
            Inner::Replay { ops, pos } => {
                let op = ops[*pos];
                *pos = (*pos + 1) % ops.len();
                op
            }
        }
    }
}

#[derive(Debug, Clone)]
struct SyntheticStream {
    spec: &'static BenchmarkSpec,
    layout: Arc<WorkloadLayout>,
    sm: usize,
    rng: SmallRng,
    /// Sequential private-line cursor (global line index within the SM's
    /// private region).
    cursor: u64,
    /// Recently produced accesses, replayed for L1-distance reuse. The
    /// access kind is preserved so a replayed read-only load stays
    /// replicable (`ld.global.ro`). The ring is held inline, so a warp's
    /// stream owns no heap block for it.
    recent: Recent,
    pending_compute: bool,
    lines_per_page: u64,
    /// Memory accesses generated so far (drives phase progression).
    seq: u64,
    num_sms: usize,
    /// Probability a shared access targets the read-only region.
    p_ro_given_shared: f64,
}

impl SyntheticStream {
    /// Create the stream for (`sm`, `warp`); deterministic in
    /// (`spec`, layout seed, `sm`, `warp`, `seed`).
    fn new(
        spec: &'static BenchmarkSpec,
        layout: Arc<WorkloadLayout>,
        sm: SmId,
        warp: WarpId,
        num_sms: usize,
        seed: u64,
    ) -> SyntheticStream {
        assert!(sm.0 < num_sms);
        let lines_per_page = layout.page_bytes / LINE_BYTES;
        let region_lines = layout.private_pages_per_sm * lines_per_page;
        // Warps are grouped into CTAs: each CTA's warps sweep a dense
        // tile together (a couple of lines apart - the source of DRAM
        // row locality at the memory controller), while CTAs start on
        // disjoint tiles spread across the SM's private region (the
        // source of streaming behaviour and bank parallelism).
        let region = region_lines.max(1);
        let cta = warp.0 as u64 / 4;
        let lane = warp.0 as u64 % 4;
        let start = (cta * (region / 8 + 1) + lane * 2) % region;
        let ro = layout.ro_pages.len() as f64;
        let rw = layout.rw_shared_pages.len() as f64;
        // Read-only share of shared traffic: weight RO pages 3× — shared
        // read-only data (weights, matrices) is consulted far more often
        // per page than shared mutable state.
        let p_ro_given_shared = if ro + rw == 0.0 {
            0.0
        } else {
            3.0 * ro / (3.0 * ro + rw)
        };
        SyntheticStream {
            spec,
            layout,
            sm: sm.0,
            rng: SmallRng::seed_from_u64(
                seed ^ (sm.0 as u64) << 32 ^ (warp.0 as u64) << 16 ^ spec.abbr.len() as u64,
            ),
            cursor: start,
            recent: Recent::EMPTY,
            pending_compute: false,
            lines_per_page,
            seq: 0,
            num_sms,
            p_ro_given_shared,
        }
    }

    /// Produce the next warp operation.
    fn next_op(&mut self) -> WarpOp {
        if self.pending_compute {
            self.pending_compute = false;
            let gap = self.spec.compute_gap;
            // ±50% jitter to avoid lockstep across warps.
            let jittered = if gap > 1 {
                self.rng.gen_range(gap / 2..=gap + gap / 2)
            } else {
                gap
            };
            return WarpOp::Compute(jittered.max(1));
        }
        if self.spec.compute_gap > 0 {
            self.pending_compute = true;
        }
        WarpOp::Mem(self.gen_access())
    }

    fn gen_access(&mut self) -> Access {
        self.seq += 1;
        // Temporal replay for L1 locality: re-issue a recent access.
        // Writes replay as reads of the same data; read-only marking and
        // the L1-bypass attribute are preserved.
        if self.recent.len > 0 && self.rng.gen::<f64>() < self.spec.l1_reuse {
            let idx = self.rng.gen_range(0..self.recent.len);
            let mut a = self.recent.get(idx);
            if a.kind.is_write() {
                a.kind = AccessKind::Load;
            }
            return a;
        }

        let sets = self.layout.sets(self.sm);
        let has_shared = !(sets.hot.is_empty() && sets.cold.is_empty() && sets.rw.is_empty());
        let access = if has_shared && self.rng.gen::<f64>() < self.spec.shared_access_fraction {
            self.gen_shared(sets_snapshot(sets))
        } else {
            self.gen_private()
        };
        self.recent.push(access);
        access
    }

    fn gen_shared(&mut self, (hot, cold, rw): (usize, usize, usize)) -> Access {
        let sets = self.layout.sets(self.sm);
        let want_ro =
            (hot + cold > 0) && (rw == 0 || self.rng.gen::<f64>() < self.p_ro_given_shared);
        if want_ro {
            let use_hot = hot > 0 && (cold == 0 || self.rng.gen::<f64>() < self.spec.shared_skew);
            let page = if self.spec.phase_len > 0 && use_hot {
                // Phased kernels (tiled GEMM): the hot window is a small
                // contiguous slice of the read-only region that advances
                // every `phase_len` accesses; warps progress at similar
                // rates, so phases roughly align across the GPU and the
                // per-phase working set stays replication-friendly.
                let total_ro = self.layout.ro_pages.len() as u64;
                let window = ((total_ro as f64 * self.spec.hot_fraction).ceil() as u64).max(1);
                let phase = self.seq / self.spec.phase_len as u64;
                let start = (phase * window) % total_ro;
                let idx = (start + self.rng.gen_range(0..window)) % total_ro;
                if self.layout.ro_pages[idx as usize].covers(self.sm, self.num_sms) {
                    self.layout.ro_pages[idx as usize].vpage
                } else if hot > 0 {
                    self.layout.ro_pages[sets.hot[self.rng.gen_range(0..hot)] as usize].vpage
                } else {
                    self.layout.ro_pages[sets.cold[self.rng.gen_range(0..cold)] as usize].vpage
                }
            } else {
                let idx = if use_hot {
                    sets.hot[self.rng.gen_range(0..hot)]
                } else {
                    sets.cold[windowed_pick(&mut self.rng, self.seq, self.sm, cold)]
                };
                self.layout.ro_pages[idx as usize].vpage
            };
            let line = self.skewed_line();
            let kind = if self.layout.ro_marked {
                AccessKind::LoadReadOnly
            } else {
                AccessKind::Load
            };
            Access {
                vaddr: self.addr(page, line),
                kind,
                bypass_l1: false,
            }
        } else {
            let idx = sets.rw[windowed_pick(&mut self.rng, self.seq, self.sm, rw)];
            let page = self.layout.rw_shared_pages[idx as usize].vpage;
            let line = self.skewed_line();
            let kind = if self.spec.family == PatternFamily::MapReduce {
                // MapReduce updates shared bins atomically.
                if self.rng.gen::<f64>() < self.spec.write_fraction {
                    AccessKind::Atomic
                } else {
                    AccessKind::Load
                }
            } else if self.rng.gen::<f64>() < self.spec.write_fraction {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            Access {
                vaddr: self.addr(page, line),
                kind,
                bypass_l1: false,
            }
        }
    }

    fn gen_private(&mut self) -> Access {
        let region_lines = (self.layout.private_pages_per_sm * self.lines_per_page).max(1);
        let line_in_region = match self.spec.family {
            // Pointer chasing is genuinely random; the "irregular"
            // matrix-vector kernels (MVT, ATAX, BICG…) stream their
            // matrix sequentially and get reuse from the small vectors.
            PatternFamily::Tree => self.rng.gen_range(0..region_lines),
            _ => {
                // LLC-distance reuse: occasionally jump back to a line
                // streamed past recently — beyond L1 reach (the recent-8
                // replay covers that) but within this SM's LLC share, so
                // it hits the LLC. This is what makes regular kernels
                // LLC-bandwidth-bound, the property UBA's NoC cannot
                // keep up with.
                if region_lines > 256 && self.rng.gen::<f64>() < self.spec.llc_reuse {
                    // A short hop back into the warp's recent stream.
                    // Streaming loads bypass the L1, so this reuse is
                    // served by the LLC (the warp's trail survives ~20+
                    // own-lines there) - the traffic that makes regular
                    // kernels LLC-bandwidth-bound.
                    let delta = self.rng.gen_range(2..16u64);
                    (self.cursor + region_lines - delta.min(region_lines - 1)) % region_lines
                } else {
                    self.cursor = (self.cursor + 1) % region_lines;
                    self.cursor
                }
            }
        };
        let page = self.layout.private_start(self.sm) + line_in_region / self.lines_per_page;
        let line = line_in_region % self.lines_per_page;
        let kind = if self.rng.gen::<f64>() < self.spec.write_fraction {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        let bypass = kind == AccessKind::Load && self.spec.family != PatternFamily::Tree;
        Access {
            vaddr: self.addr(page, line),
            kind,
            bypass_l1: bypass,
        }
    }

    /// Hot-skewed line within a page: min of two uniforms biases towards
    /// the low lines (hot headers / early elements).
    fn skewed_line(&mut self) -> u64 {
        let a = self.rng.gen_range(0..self.lines_per_page);
        let b = self.rng.gen_range(0..self.lines_per_page);
        a.min(b)
    }

    fn addr(&self, vpage: u64, line: u64) -> VirtAddr {
        VirtAddr(vpage * self.layout.page_bytes + line * LINE_BYTES)
    }
}

fn sets_snapshot(sets: &crate::layout::AccessSets) -> (usize, usize, usize) {
    (sets.hot.len(), sets.cold.len(), sets.rw.len())
}

/// Pick an index in `0..len` with tile-style temporal locality: most
/// picks fall in a sliding window that advances with the warp's progress
/// (real kernels sweep shared arrays tile by tile; uniform spraying
/// would thrash the TLB in a way no tiled kernel does), plus a small
/// uniform spill. Windows are offset per SM — different CTAs work on
/// different tiles, so SMs do not all camp on the same shared pages at
/// the same instant. `len` must be non-zero: `gen_range(0..0)` panics.
fn windowed_pick(rng: &mut SmallRng, seq: u64, sm: usize, len: usize) -> usize {
    let w = len.min(128);
    if w == len || rng.gen::<f64>() < 0.02 {
        return rng.gen_range(0..len);
    }
    let start = ((seq as usize / 2048) * (w / 2) + sm * 17) % len;
    (start + rng.gen_range(0..w)) % len
}

/// The last [`RECENT`] accesses a stream generated, oldest first, in a
/// ring held inline in the stream rather than in a heap block per warp.
#[derive(Debug, Clone, Copy)]
struct Recent {
    ring: [Access; RECENT],
    /// Slot of the oldest access.
    head: usize,
    len: usize,
}

impl Recent {
    const EMPTY: Recent = Recent {
        ring: [Access {
            vaddr: VirtAddr(0),
            kind: AccessKind::Load,
            bypass_l1: false,
        }; RECENT],
        head: 0,
        len: 0,
    };

    /// The `i`-th oldest access (`i < len`).
    fn get(&self, i: usize) -> Access {
        self.ring[(self.head + i) % RECENT]
    }

    /// Append `a`, dropping the oldest access once the ring is full.
    fn push(&mut self, a: Access) {
        if self.len == RECENT {
            self.ring[self.head] = a;
            self.head = (self.head + 1) % RECENT;
        } else {
            self.ring[(self.head + self.len) % RECENT] = a;
            self.len += 1;
        }
    }
}

impl StateValue for Access {
    fn put(&self, w: &mut StateWriter) {
        self.vaddr.put(w);
        self.kind.put(w);
        self.bypass_l1.put(w);
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(Access {
            vaddr: VirtAddr::get(r)?,
            kind: AccessKind::get(r)?,
            bypass_l1: bool::get(r)?,
        })
    }
}

impl SaveState for WarpStream {
    fn save(&self, w: &mut StateWriter) {
        // The spec/layout structure is rebuilt from the workload on
        // restore; only the generator's dynamic fields travel.
        match &self.inner {
            Inner::Synthetic(s) => {
                w.put_u8(0);
                s.rng.state().put(w);
                s.cursor.put(w);
                s.recent.len.put(w);
                for i in 0..s.recent.len {
                    s.recent.get(i).put(w);
                }
                s.pending_compute.put(w);
                s.seq.put(w);
            }
            Inner::Replay { pos, .. } => {
                w.put_u8(1);
                pos.put(w);
            }
        }
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let tag = r.get_u8()?;
        match (&mut self.inner, tag) {
            (Inner::Synthetic(s), 0) => {
                s.rng = SmallRng::from_state(u64::get(r)?);
                s.cursor = u64::get(r)?;
                let n = usize::get(r)?;
                if n > RECENT {
                    return Err(StateError::LengthMismatch {
                        what: "stream replay window",
                        expected: RECENT,
                        found: n,
                    });
                }
                s.recent = Recent::EMPTY;
                for _ in 0..n {
                    s.recent.push(Access::get(r)?);
                }
                s.pending_compute = bool::get(r)?;
                s.seq = u64::get(r)?;
                Ok(())
            }
            (Inner::Replay { ops, pos }, 1) => {
                let p = usize::get(r)?;
                if p >= ops.len() {
                    return Err(StateError::Corrupt("replay cursor past end of trace"));
                }
                *pos = p;
                Ok(())
            }
            (_, t) => Err(StateError::BadTag {
                what: "WarpStream kind",
                tag: t,
            }),
        }
    }
}

use nuba_types::state::{SaveState, StateError, StateReader, StateValue, StateWriter};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ScaleProfile;
    use crate::spec::BenchmarkId;
    use crate::Workload;

    fn sample(b: BenchmarkId, sm: usize, n: usize) -> Vec<Access> {
        let wl = Workload::build(b, ScaleProfile::default(), 64, 1);
        let mut s = wl.stream(SmId(sm), WarpId(0));
        let mut out = Vec::new();
        while out.len() < n {
            if let WarpOp::Mem(a) = s.next_op() {
                out.push(a);
            }
        }
        out
    }

    #[test]
    fn streams_are_deterministic() {
        let wl = Workload::build(BenchmarkId::Sgemm, ScaleProfile::default(), 64, 1);
        let mut a = wl.stream(SmId(3), WarpId(5));
        let mut b = wl.stream(SmId(3), WarpId(5));
        for _ in 0..200 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn different_warps_differ() {
        let wl = Workload::build(BenchmarkId::Sgemm, ScaleProfile::default(), 64, 1);
        let mut a = wl.stream(SmId(3), WarpId(0));
        let mut b = wl.stream(SmId(3), WarpId(1));
        let ops_a: Vec<_> = (0..50).map(|_| a.next_op()).collect();
        let ops_b: Vec<_> = (0..50).map(|_| b.next_op()).collect();
        assert_ne!(ops_a, ops_b);
    }

    #[test]
    fn addresses_are_line_aligned_and_in_bounds() {
        let wl = Workload::build(BenchmarkId::Bicg, ScaleProfile::default(), 64, 1);
        let bytes = wl.layout().total_pages * wl.layout().page_bytes;
        for a in sample(BenchmarkId::Bicg, 7, 2000) {
            assert_eq!(a.vaddr.0 % LINE_BYTES, 0);
            assert!(a.vaddr.0 < bytes, "{:#x} beyond {bytes:#x}", a.vaddr.0);
        }
    }

    #[test]
    fn gemm_emits_readonly_loads() {
        let accs = sample(BenchmarkId::Sgemm, 0, 4000);
        let ro = accs
            .iter()
            .filter(|a| a.kind == AccessKind::LoadReadOnly)
            .count();
        assert!(
            ro as f64 > 0.2 * accs.len() as f64,
            "SGEMM should issue plenty of ld.global.ro ({ro}/{})",
            accs.len()
        );
    }

    #[test]
    fn low_sharing_mostly_private() {
        let wl = Workload::build(BenchmarkId::Lbm, ScaleProfile::default(), 64, 1);
        let accs = sample(BenchmarkId::Lbm, 9, 4000);
        let private_base = wl.layout().private_base * wl.layout().page_bytes;
        let private = accs.iter().filter(|a| a.vaddr.0 >= private_base).count();
        assert!(
            private as f64 > 0.8 * accs.len() as f64,
            "LBM should be mostly private: {private}/{}",
            accs.len()
        );
    }

    #[test]
    fn high_sharing_hits_shared_region() {
        let wl = Workload::build(BenchmarkId::SqueezeNet, ScaleProfile::default(), 64, 1);
        let accs = sample(BenchmarkId::SqueezeNet, 9, 4000);
        let private_base = wl.layout().private_base * wl.layout().page_bytes;
        let shared = accs.iter().filter(|a| a.vaddr.0 < private_base).count();
        assert!(
            shared as f64 > 0.4 * accs.len() as f64,
            "SN should hit shared region: {shared}/{}",
            accs.len()
        );
    }

    #[test]
    fn mapreduce_issues_atomics() {
        let accs = sample(BenchmarkId::Pvc, 0, 8000);
        assert!(accs.iter().any(|a| a.kind == AccessKind::Atomic));
    }

    #[test]
    fn write_fraction_controls_stores() {
        let lbm = sample(BenchmarkId::Lbm, 0, 4000); // wf 0.30
        let bicg = sample(BenchmarkId::Bicg, 0, 4000); // wf 0.05
        let frac = |v: &[Access]| {
            v.iter().filter(|a| a.kind == AccessKind::Store).count() as f64 / v.len() as f64
        };
        assert!(
            frac(&lbm) > frac(&bicg) + 0.05,
            "{} vs {}",
            frac(&lbm),
            frac(&bicg)
        );
    }

    #[test]
    fn compute_gaps_present_for_compute_heavy() {
        let wl = Workload::build(BenchmarkId::Conv3d, ScaleProfile::default(), 64, 1);
        let mut s = wl.stream(SmId(0), WarpId(0));
        let mut computes = 0;
        for _ in 0..200 {
            if matches!(s.next_op(), WarpOp::Compute(_)) {
                computes += 1;
            }
        }
        assert!(computes >= 90, "3DCONV alternates compute/mem: {computes}");
    }

    #[test]
    fn restore_continues_the_stream_and_rejects_a_long_window() {
        let wl = Workload::build(BenchmarkId::Sgemm, ScaleProfile::default(), 64, 1);
        let mut a = wl.stream(SmId(3), WarpId(5));
        for _ in 0..100 {
            a.next_op();
        }
        let mut w = StateWriter::new();
        a.save(&mut w);
        let mut b = wl.stream(SmId(3), WarpId(5));
        b.restore(&mut StateReader::new(w.bytes())).unwrap();
        for _ in 0..200 {
            assert_eq!(a.next_op(), b.next_op());
        }
        // A kind tag, the RNG state and the cursor precede the window's
        // length; each entry is 10 bytes. Forge a ninth entry.
        let mut long = w.into_bytes();
        assert_eq!(long[17..25], 8u64.to_le_bytes());
        long[17..25].copy_from_slice(&9u64.to_le_bytes());
        let ninth = long[25..35].to_vec();
        long.splice(105..105, ninth);
        assert_eq!(
            b.restore(&mut StateReader::new(&long)),
            Err(StateError::LengthMismatch {
                what: "stream replay window",
                expected: 8,
                found: 9,
            })
        );
    }

    #[test]
    fn private_streaming_is_sequential() {
        // With reuse knobs off, the private stream advances one line at
        // a time (the source of DRAM row locality).
        let mut spec = BenchmarkId::Lbm.spec().clone();
        spec.shared_access_fraction = 0.0;
        spec.l1_reuse = 0.0;
        spec.llc_reuse = 0.0;
        spec.write_fraction = 0.0;
        let spec: &'static crate::spec::BenchmarkSpec = Box::leak(Box::new(spec));
        let wl = crate::Workload::custom(spec, ScaleProfile::default(), 64, 2);
        let mut s = wl.stream(SmId(0), WarpId(0));
        let mut seq = 0;
        let mut total = 0;
        let mut prev: Option<u64> = None;
        for _ in 0..2000 {
            if let WarpOp::Mem(a) = s.next_op() {
                let line = a.vaddr.0 / LINE_BYTES;
                if let Some(p) = prev {
                    total += 1;
                    if line == p + 1 {
                        seq += 1;
                    }
                }
                prev = Some(line);
            }
        }
        assert!(seq as f64 > 0.95 * total as f64, "sequential {seq}/{total}");
    }
}
