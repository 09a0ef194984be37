//! Cycle-windowed telemetry and request-lifecycle tracing.
//!
//! Three pillars (DESIGN.md §11):
//!
//! 1. **Windowed time-series** — every `window_cycles` the simulator
//!    snapshots its components' cumulative counters and records the
//!    per-window *delta* as a [`TelemetryWindow`] in a pre-sized ring
//!    (the last `ring_windows` windows survive; older ones are
//!    overwritten). All fields are integral so the ring can be embedded
//!    in a `DeadlockReport` without losing its `Eq` derive, and the
//!    per-cycle path stays allocation-free (`steady_alloc` runs with
//!    telemetry enabled).
//! 2. **Stall attribution** — each window (and the whole run, via
//!    `SimReport::bottleneck_breakdown`) can be collapsed into a
//!    top-down cycle-accounting mix; see
//!    [`crate::metrics::BottleneckBreakdown`].
//! 3. **Lifecycle tracing** — one in `trace_sample_period` read
//!    requests (keyed on the monotonic request id, so the sample set is
//!    identical at any worker count) carries timestamps through
//!    issue → slice enqueue → slice grant → DRAM enqueue → reply,
//!    retained as [`TraceRecord`]s and exportable as Chrome
//!    `trace_event` JSON.
//!
//! Everything here is inert by default: with `window_cycles = None` and
//! `trace_sample_period = 0` (the [`TelemetryConfig`] default) no ring
//! is allocated, no sampling happens, and simulator output is
//! bit-identical to a build without this module.

use std::fmt::Write;
use std::ops::{Index, IndexMut};

use nuba_types::{
    AccessKind, GpuConfig, Histogram, LineAddr, MemReply, ReqId, SmId, TelemetryConfig, WarpId,
};

use crate::metrics::{noc_serialization_cycles, BottleneckBreakdown};

/// Concurrently-tracked sampled requests. Sampling is 1-in-K over a
/// bounded outstanding-request population, so a small fixed table
/// suffices; overflow increments [`Telemetry::trace_dropped`] instead
/// of allocating.
const INFLIGHT_CAP: usize = 64;

/// Bandwidth-tier index: reply served by an LLC slice in the SM's own
/// NUBA partition (always false on UBA, whose replies cross the
/// crossbar).
pub const TIER_LOCAL: usize = 0;
/// Bandwidth-tier index: reply served by a remote LLC slice across the
/// NoC (every UBA LLC hit lands here).
pub const TIER_REMOTE: usize = 1;
/// Bandwidth-tier index: reply that missed the LLC and went to DRAM.
pub const TIER_DRAM: usize = 2;
/// Number of bandwidth tiers.
pub const NUM_TIERS: usize = 3;
/// Stable tier labels for reports and exports, indexed by `TIER_*`.
pub const TIER_NAMES: [&str; NUM_TIERS] = ["local", "remote", "dram"];

/// Stage index: SM issue → LLC slice enqueue (sampled requests only).
pub const STAGE_SM_TO_SLICE: usize = 0;
/// Stage index: slice enqueue → arbiter grant into the tag pipe.
pub const STAGE_SLICE_QUEUE: usize = 1;
/// Stage index: grant → DRAM enqueue on a miss, or grant → reply on a
/// hit (LLC service time).
pub const STAGE_LLC: usize = 2;
/// Stage index: DRAM enqueue → reply delivery (misses only).
pub const STAGE_DRAM_REPLY: usize = 3;
/// Number of lifecycle stages.
pub const NUM_STAGES: usize = 4;
/// Stable stage labels for reports and exports, indexed by `STAGE_*`.
pub const STAGE_NAMES: [&str; NUM_STAGES] = ["sm_to_slice", "slice_queue", "llc", "dram_reply"];

/// How a window counter is taken at the flush edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// The change of a cumulative machine counter since the last flush.
    Delta,
    /// Taken as is: an instantaneous gauge, a high-water mark re-armed
    /// at each flush, or a latency percentile the sampler stamps.
    AsIs,
}

macro_rules! window_counters {
    ($( $variant:ident $key:literal $kind:ident $doc:literal; )+) => {
        /// Index of one counter in [`TelemetryWindow::counters`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum WindowCounter {
            $( #[doc = $doc] $variant, )+
        }

        /// Number of counters a window carries.
        pub const NUM_WINDOW_COUNTERS: usize = [$($key),+].len();

        /// `(JSONL key, kind)` of every window counter, indexed by
        /// [`WindowCounter`]. Table order is the `timeseries.jsonl` key
        /// order and the checkpoint order.
        pub const WINDOW_COUNTERS: [(&str, CounterKind); NUM_WINDOW_COUNTERS] =
            [$( ($key, CounterKind::$kind), )+];
    };
}

// The window's counters, written once: variant, JSONL key, kind, meaning.
// Peaks and latencies cover the window's cycles; the four latencies stay
// 0 unless `TelemetryConfig::window_latency` is on.
window_counters! {
    Issued              "issued"                Delta "Memory requests issued by all SMs.";
    Retired             "retired"               Delta "Warp ops retired by all SMs.";
    Replies             "replies"               Delta "Read replies delivered to all SMs.";
    L1Accesses          "l1_accesses"           Delta "L1 accesses across all SMs.";
    L1Hits              "l1_hits"               Delta "L1 hits across all SMs.";
    StallDownstream     "stall_downstream"      Delta "Issue slots lost to a full link or port.";
    StallMshr           "stall_mshr"            Delta "Issue slots lost to L1 MSHR exhaustion.";
    StallOutstanding    "stall_outstanding"     Delta "Issue slots lost to the outstanding budget.";
    LlcAccesses         "llc_accesses"          Delta "LLC tag-pipe grants across all slices.";
    LlcHits             "llc_hits"              Delta "LLC hits across all slices.";
    LmrQueued           "lmr_queued"            AsIs  "Requests queued in LMR queues, all slices.";
    RmrQueued           "rmr_queued"            AsIs  "Requests queued in RMR queues, all slices.";
    SliceMshrPeak       "slice_mshr_peak"       AsIs  "Highest LLC MSHR occupancy of one slice.";
    SmMshrPeak          "sm_mshr_peak"          AsIs  "Highest L1 MSHR occupancy of one SM.";
    DramRowHits         "dram_row_hits"         Delta "DRAM row-buffer hits, all channels.";
    DramRowAccesses     "dram_row_accesses"     Delta "DRAM row-buffer probes, all channels.";
    DramBusBusy         "dram_bus_busy"         Delta "DRAM data-bus busy cycles, all channels.";
    NocBytes            "noc_bytes"             Delta "Bytes delivered by both crossbars.";
    NocPeakInFlight     "noc_peak_in_flight"    AsIs  "Most packets in flight in one NoC.";
    LocalLinkBytes      "local_link_bytes"      Delta "Bytes over the NUBA local links (0 on UBA).";
    LocalLinkBusy       "local_link_busy"       Delta "Local-link busy cycles, both directions.";
    LocalLinkRejects    "local_link_rejects"    Delta "Sends refused by full local-link queues.";
    TlbWalks            "tlb_walks"             Delta "Page-table walks started.";
    TlbPeakOutstanding  "tlb_peak_outstanding"  AsIs  "Most translations outstanding at once.";
    LatP50              "lat_p50"               AsIs  "Median read latency.";
    LatP95              "lat_p95"               AsIs  "95th-percentile read latency.";
    LatP99              "lat_p99"               AsIs  "99th-percentile read latency.";
    LatMax              "lat_max"               AsIs  "Largest read latency.";
}

/// Table positions of the [`CounterKind::Delta`] counters, in order.
fn delta_counters() -> impl Iterator<Item = usize> {
    (0..NUM_WINDOW_COUNTERS).filter(|&i| WINDOW_COUNTERS[i].1 == CounterKind::Delta)
}

/// One flushed telemetry window: one value per [`WindowCounter`],
/// indexed by it (`w[WindowCounter::Replies]`).
///
/// All values are integral (`u64`) so `DeadlockReport` keeps `Eq`;
/// rates are derived on demand ([`TelemetryWindow::llc_hit_rate`] and
/// friends).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryWindow {
    /// First cycle covered by this window (inclusive).
    pub start_cycle: u64,
    /// One past the last cycle covered (exclusive).
    pub end_cycle: u64,
    /// Counter values, indexed by [`WindowCounter`].
    pub counters: [u64; NUM_WINDOW_COUNTERS],
}

impl Index<WindowCounter> for TelemetryWindow {
    type Output = u64;
    fn index(&self, c: WindowCounter) -> &u64 {
        &self.counters[c as usize]
    }
}

impl IndexMut<WindowCounter> for TelemetryWindow {
    fn index_mut(&mut self, c: WindowCounter) -> &mut u64 {
        &mut self.counters[c as usize]
    }
}

impl TelemetryWindow {
    /// Cycles covered by this window.
    pub fn cycles(&self) -> u64 {
        self.end_cycle - self.start_cycle
    }

    /// `num / den` as a rate, 0 when `den` is 0.
    fn ratio(num: u64, den: u64) -> f64 {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    }

    /// Read replies per cycle within the window.
    pub fn replies_per_cycle(&self) -> f64 {
        Self::ratio(self[WindowCounter::Replies], self.cycles())
    }

    /// LLC hit rate within the window (0 when idle).
    pub fn llc_hit_rate(&self) -> f64 {
        use WindowCounter::*;
        Self::ratio(self[LlcHits], self[LlcAccesses])
    }

    /// DRAM row-buffer hit rate within the window (0 when idle).
    pub fn dram_row_hit_rate(&self) -> f64 {
        use WindowCounter::*;
        Self::ratio(self[DramRowHits], self[DramRowAccesses])
    }

    /// Top-down cycle-accounting mix for this window, using the same
    /// attribution model and the same NoC serialization cycles (crossbar
    /// bytes over `cfg.noc_total_bytes_per_cycle`) as
    /// `SimReport::bottleneck_breakdown`.
    pub fn bottleneck_mix(&self, cfg: &GpuConfig) -> BottleneckBreakdown {
        use WindowCounter::*;
        BottleneckBreakdown::from_counters(
            self[Retired],
            self[StallMshr],
            self[StallDownstream],
            self[StallOutstanding],
            self[LocalLinkBusy] as f64,
            noc_serialization_cycles(cfg, self[NocBytes]),
            self[LlcAccesses] as f64,
            self[DramBusBusy] as f64,
        )
    }

    /// One line of the `timeseries.jsonl` file `NUBA_OBS` writes: the
    /// job and window identity, then every counter under its
    /// [`WINDOW_COUNTERS`] key in table order, then the derived rates.
    /// Counters are emitted raw; the rates use fixed six-digit precision
    /// so output is byte-stable across platforms and worker counts.
    pub fn jsonl_line(&self, label: &str, job: usize, window: usize) -> String {
        let mut line = format!(
            "{{\"job\":\"{}\",\"job_index\":{job},\"window\":{window},\"start\":{},\"end\":{}",
            escape_json(label),
            self.start_cycle,
            self.end_cycle,
        );
        for ((key, _), v) in WINDOW_COUNTERS.iter().zip(self.counters) {
            let _ = write!(line, ",\"{key}\":{v}");
        }
        let _ = write!(
            line,
            ",\"replies_per_cycle\":{:.6},\"llc_hit_rate\":{:.6},\"dram_row_hit_rate\":{:.6}}}",
            self.replies_per_cycle(),
            self.llc_hit_rate(),
            self.dram_row_hit_rate(),
        );
        line
    }
}

/// The lifecycle of one sampled read request, as simulation-cycle
/// timestamps. Stages a request never reached (e.g. DRAM on an LLC
/// hit) stay `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// The request id (monotonic issue order).
    pub id: u64,
    /// Issuing SM.
    pub sm: usize,
    /// Issuing warp.
    pub warp: usize,
    /// Line address accessed.
    pub line: u64,
    /// Cycle the SM issued the request (== the L1 miss cycle: requests
    /// are only created for accesses that missed the L1 this cycle).
    pub issue_cycle: u64,
    /// Cycle the request entered an LLC slice queue.
    pub slice_enqueue: Option<u64>,
    /// Cycle the slice arbiter granted the request into the tag pipe.
    pub slice_grant: Option<u64>,
    /// Cycle the miss was enqueued at a memory controller.
    pub dram_enqueue: Option<u64>,
    /// Cycle the reply reached the SM.
    pub reply_cycle: Option<u64>,
}

impl TraceRecord {
    /// Chrome `trace_event` objects for this (completed) record, one
    /// complete-event (`"ph":"X"`) per lifecycle span. Timestamps are
    /// simulation cycles reported in the `ts`/`dur` microsecond fields:
    /// one cycle renders as one microsecond in the viewer.
    pub fn trace_events(&self, pid: usize, label: &str) -> Vec<String> {
        let Some(reply) = self.reply_cycle else {
            return Vec::new();
        };
        let cat = escape_json(label);
        let mut events = Vec::new();
        let mut span = |name: &str, from: u64, to: u64| {
            events.push(format!(
                concat!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",",
                    "\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},",
                    "\"args\":{{\"req\":{},\"warp\":{},\"line\":\"0x{:x}\"}}}}"
                ),
                name,
                cat,
                from,
                to.saturating_sub(from),
                pid,
                self.sm,
                self.id,
                self.warp,
                self.line,
            ));
        };
        span("request", self.issue_cycle, reply);
        if let Some(enq) = self.slice_enqueue {
            span("sm-to-slice", self.issue_cycle, enq);
            let grant = self.slice_grant.unwrap_or(reply);
            span("slice-queue", enq, grant);
            if let Some(dram) = self.dram_enqueue {
                span("llc-miss", grant, dram);
                span("dram-and-reply", dram, reply);
            } else {
                span("llc-and-reply", grant, reply);
            }
        }
        events
    }
}

/// Escape a string for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The telemetry sampler: a ring of recent [`TelemetryWindow`]s plus
/// the sampled-request lifecycle tables. All storage is allocated at
/// construction; recording never allocates.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// Window length in cycles; `0` disables windowed sampling.
    window_cycles: u64,
    /// Pre-sized ring of the most recent windows.
    ring: Vec<TelemetryWindow>,
    ring_cap: usize,
    /// Next ring slot to (over)write.
    head: usize,
    /// Filled slots, saturating at `ring_cap`.
    len: usize,
    /// Cumulative [`CounterKind::Delta`] values at the previous flush.
    prev: [u64; NUM_WINDOW_COUNTERS],
    /// First cycle of the window currently accumulating.
    window_start: u64,
    /// 1-in-K sampling period; `0` disables tracing.
    sample_period: u64,
    /// Sampled requests still in flight (bounded scan table).
    inflight: Vec<TraceRecord>,
    /// Completed lifecycle records, capped at `trace_capacity`.
    done: Vec<TraceRecord>,
    done_cap: usize,
    /// Sampled requests not recorded because a table was full.
    dropped: u64,
    /// End-to-end read latency per bandwidth tier (every read reply,
    /// not just sampled ones). Always on: fixed-size, zero-alloc.
    tier_hist: [Histogram; NUM_TIERS],
    /// Per-stage queueing/service delay, fed from completed sampled
    /// lifecycle records (requires tracing to be populated).
    stage_hist: [Histogram; NUM_STAGES],
    /// Whether windows stamp per-window latency percentiles.
    window_lat: bool,
    /// Read latencies observed since the last window flush
    /// (reset at each flush; only recorded when `window_lat`).
    window_hist: Histogram,
}

impl Telemetry {
    /// Build a sampler for `cfg`, pre-sizing every table. With the
    /// default (inert) config this allocates nothing.
    pub fn new(cfg: &TelemetryConfig) -> Telemetry {
        let window_cycles = cfg.window_cycles.unwrap_or(0);
        let ring_cap = if window_cycles > 0 {
            cfg.ring_windows
        } else {
            0
        };
        let (inflight_cap, done_cap) = if cfg.trace_sample_period > 0 {
            (INFLIGHT_CAP, cfg.trace_capacity)
        } else {
            (0, 0)
        };
        Telemetry {
            window_cycles,
            ring: vec![TelemetryWindow::default(); ring_cap],
            ring_cap,
            head: 0,
            len: 0,
            prev: [0; NUM_WINDOW_COUNTERS],
            window_start: 0,
            sample_period: cfg.trace_sample_period,
            inflight: Vec::with_capacity(inflight_cap),
            done: Vec::with_capacity(done_cap),
            done_cap,
            dropped: 0,
            tier_hist: [Histogram::new(); NUM_TIERS],
            stage_hist: [Histogram::new(); NUM_STAGES],
            window_lat: cfg.window_latency,
            window_hist: Histogram::new(),
        }
    }

    /// Whether windowed sampling is enabled.
    pub fn windowing(&self) -> bool {
        self.window_cycles > 0 && self.ring_cap > 0
    }

    /// Whether lifecycle tracing is enabled.
    pub fn tracing(&self) -> bool {
        self.sample_period > 0
    }

    /// Whether a window flush is due once the simulator finishes the
    /// cycle ending at `cycle_after` (exclusive).
    pub fn window_due(&self, cycle_after: u64) -> bool {
        self.windowing() && cycle_after.is_multiple_of(self.window_cycles)
    }

    /// Window length in cycles when windowed sampling is enabled. The
    /// time-skipping run loop uses this to enumerate every boundary a
    /// jump crosses so each window is flushed exactly as it would be
    /// under per-cycle stepping.
    pub fn window_stride(&self) -> Option<u64> {
        self.windowing().then_some(self.window_cycles)
    }

    /// Record the window ending at `end_cycle` from `totals`, which holds
    /// the cumulative value of every [`CounterKind::Delta`] counter (diffed
    /// against the previous flush) and the flush-edge value of every
    /// gauge and peak. The sampler stamps the latency percentiles itself.
    /// Overwrites the oldest slot when the ring is full; never allocates.
    pub fn flush_window(&mut self, end_cycle: u64, totals: &[u64; NUM_WINDOW_COUNTERS]) {
        use WindowCounter::*;
        debug_assert!(self.windowing());
        let mut w = TelemetryWindow {
            start_cycle: self.window_start,
            end_cycle,
            counters: *totals,
        };
        for i in delta_counters() {
            w.counters[i] -= self.prev[i];
            self.prev[i] = totals[i];
        }
        let h = &self.window_hist;
        let lat = if self.window_lat && !h.is_empty() {
            [
                h.quantile(1, 2),
                h.quantile(19, 20),
                h.quantile(99, 100),
                h.max(),
            ]
        } else {
            [0; 4]
        };
        for (c, v) in [LatP50, LatP95, LatP99, LatMax].into_iter().zip(lat) {
            w[c] = v;
        }
        self.window_hist.reset();
        self.ring[self.head] = w;
        self.head = (self.head + 1) % self.ring_cap;
        self.len = (self.len + 1).min(self.ring_cap);
        self.window_start = end_cycle;
    }

    /// Retained windows in chronological order (oldest first).
    pub fn windows(&self) -> impl Iterator<Item = &TelemetryWindow> + '_ {
        let (older, newer) = if self.len < self.ring_cap {
            (&self.ring[0..self.len], &self.ring[0..0])
        } else {
            (&self.ring[self.head..], &self.ring[..self.head])
        };
        older.iter().chain(newer.iter())
    }

    /// Retained windows as an owned vector (error paths and exports;
    /// allocates, so never called from `step`).
    pub fn windows_vec(&self) -> Vec<TelemetryWindow> {
        self.windows().copied().collect()
    }

    /// Start tracking `id` if tracing is on, the access is a read, and
    /// the id lands on the deterministic 1-in-K sample grid.
    #[allow(clippy::too_many_arguments)]
    pub fn maybe_sample(
        &mut self,
        id: ReqId,
        sm: SmId,
        warp: WarpId,
        line: LineAddr,
        kind: AccessKind,
        now: u64,
    ) {
        if self.sample_period == 0 || !kind.is_read() || !id.0.is_multiple_of(self.sample_period) {
            return;
        }
        if self.inflight.len() == self.inflight.capacity() {
            self.dropped += 1;
            return;
        }
        self.inflight.push(TraceRecord {
            id: id.0,
            sm: sm.0,
            warp: warp.0,
            line: line.0,
            issue_cycle: now,
            slice_enqueue: None,
            slice_grant: None,
            dram_enqueue: None,
            reply_cycle: None,
        });
    }

    /// Mark `id` as entering an LLC slice queue (first enqueue wins:
    /// a replica-miss forward keeps its original enqueue timestamp).
    pub fn note_slice_enqueue(&mut self, id: ReqId, now: u64) {
        if let Some(r) = self.inflight.iter_mut().find(|r| r.id == id.0) {
            r.slice_enqueue.get_or_insert(now);
        }
    }

    /// Mark `id` as granted into a slice tag pipe.
    pub fn note_slice_grant(&mut self, id: ReqId, now: u64) {
        if let Some(r) = self.inflight.iter_mut().find(|r| r.id == id.0) {
            r.slice_grant.get_or_insert(now);
        }
    }

    /// Mark every sampled request waiting on `line` as reaching DRAM
    /// (the controller works on merged line fills, not request ids).
    pub fn note_dram(&mut self, line: LineAddr, now: u64) {
        for r in self
            .inflight
            .iter_mut()
            .filter(|r| r.line == line.0 && r.dram_enqueue.is_none())
        {
            r.dram_enqueue = Some(now);
        }
    }

    /// Complete the lifecycle of `id`: stamp the reply cycle and move
    /// the record to the retained set (or count it dropped when the
    /// retained set is full).
    pub fn note_reply(&mut self, id: ReqId, now: u64) {
        if self.sample_period == 0 {
            return;
        }
        let Some(pos) = self.inflight.iter().position(|r| r.id == id.0) else {
            return;
        };
        let mut rec = self.inflight.swap_remove(pos);
        rec.reply_cycle = Some(now);
        self.record_stages(&rec, now);
        if self.done.len() < self.done_cap {
            self.done.push(rec);
        } else {
            self.dropped += 1;
        }
    }

    /// Fold a completed sampled lifecycle into the per-stage delay
    /// histograms. Stages the request never reached contribute nothing.
    fn record_stages(&mut self, rec: &TraceRecord, reply: u64) {
        let Some(enq) = rec.slice_enqueue else {
            return;
        };
        self.stage_hist[STAGE_SM_TO_SLICE].record(enq.saturating_sub(rec.issue_cycle));
        let grant = rec.slice_grant.unwrap_or(reply);
        self.stage_hist[STAGE_SLICE_QUEUE].record(grant.saturating_sub(enq));
        if let Some(dram) = rec.dram_enqueue {
            self.stage_hist[STAGE_LLC].record(dram.saturating_sub(grant));
            self.stage_hist[STAGE_DRAM_REPLY].record(reply.saturating_sub(dram));
        } else {
            self.stage_hist[STAGE_LLC].record(reply.saturating_sub(grant));
        }
    }

    /// Record one end-to-end read latency against its bandwidth tier
    /// (and the current window's histogram when per-window percentiles
    /// are enabled). Called for every read reply; never allocates.
    #[inline]
    pub fn record_read_latency(&mut self, tier: usize, lat: u64) {
        self.tier_hist[tier].record(lat);
        if self.window_lat {
            self.window_hist.record(lat);
        }
    }

    /// Classify a delivered reply into its bandwidth tier — DRAM when
    /// the LLC missed, otherwise local vs remote by whether the serving
    /// slice sat in the SM's own partition — and record its end-to-end
    /// latency. Writes carry no SM-observed latency and are skipped.
    #[inline]
    pub fn record_read_latency_of(&mut self, reply: &MemReply, local: bool, now: u64) {
        if !reply.kind.is_read() {
            return;
        }
        let tier = if !reply.llc_hit {
            TIER_DRAM
        } else if local {
            TIER_LOCAL
        } else {
            TIER_REMOTE
        };
        self.record_read_latency(tier, now.saturating_sub(reply.issue_cycle));
    }

    /// End-to-end read-latency histograms indexed by `TIER_*`.
    pub fn tier_histograms(&self) -> &[Histogram; NUM_TIERS] {
        &self.tier_hist
    }

    /// Per-stage delay histograms indexed by `STAGE_*` (populated only
    /// when lifecycle tracing samples requests).
    pub fn stage_histograms(&self) -> &[Histogram; NUM_STAGES] {
        &self.stage_hist
    }

    /// Completed lifecycle records, in completion order.
    pub fn trace_records(&self) -> &[TraceRecord] {
        &self.done
    }

    /// Sampled requests that could not be recorded (full tables).
    pub fn trace_dropped(&self) -> u64 {
        self.dropped
    }
}

impl StateValue for TelemetryWindow {
    fn put(&self, w: &mut StateWriter) {
        self.start_cycle.put(w);
        self.end_cycle.put(w);
        for v in self.counters {
            v.put(w);
        }
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        let mut w = TelemetryWindow {
            start_cycle: u64::get(r)?,
            end_cycle: u64::get(r)?,
            ..TelemetryWindow::default()
        };
        for slot in &mut w.counters {
            *slot = u64::get(r)?;
        }
        Ok(w)
    }
}

impl StateValue for TraceRecord {
    fn put(&self, w: &mut StateWriter) {
        self.id.put(w);
        self.sm.put(w);
        self.warp.put(w);
        self.line.put(w);
        self.issue_cycle.put(w);
        self.slice_enqueue.put(w);
        self.slice_grant.put(w);
        self.dram_enqueue.put(w);
        self.reply_cycle.put(w);
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(TraceRecord {
            id: StateValue::get(r)?,
            sm: StateValue::get(r)?,
            warp: StateValue::get(r)?,
            line: StateValue::get(r)?,
            issue_cycle: StateValue::get(r)?,
            slice_enqueue: StateValue::get(r)?,
            slice_grant: StateValue::get(r)?,
            dram_enqueue: StateValue::get(r)?,
            reply_cycle: StateValue::get(r)?,
        })
    }
}

impl SaveState for Telemetry {
    fn save(&self, w: &mut StateWriter) {
        // Window length, ring capacity, sample period and trace capacity
        // are configuration; the ring contents, cursors, previous-flush
        // snapshot and sampled-request tables are state.
        save_items(w, &self.ring);
        self.head.put(w);
        self.len.put(w);
        for i in delta_counters() {
            self.prev[i].put(w);
        }
        self.window_start.put(w);
        self.inflight.put(w);
        self.done.put(w);
        self.dropped.put(w);
        for h in &self.tier_hist {
            h.put(w);
        }
        for h in &self.stage_hist {
            h.put(w);
        }
        self.window_hist.put(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        restore_items(r, "telemetry ring", &mut self.ring)?;
        let head = usize::get(r)?;
        if self.ring_cap > 0 && head >= self.ring_cap || self.ring_cap == 0 && head != 0 {
            return Err(StateError::Corrupt("telemetry ring head out of range"));
        }
        self.head = head;
        let len = usize::get(r)?;
        if len > self.ring_cap {
            return Err(StateError::LengthMismatch {
                what: "telemetry ring fill",
                expected: self.ring_cap,
                found: len,
            });
        }
        self.len = len;
        for i in delta_counters() {
            self.prev[i] = u64::get(r)?;
        }
        self.window_start = u64::get(r)?;
        restore_vec(r, &mut self.inflight)?;
        if self.inflight.len() > INFLIGHT_CAP {
            return Err(StateError::LengthMismatch {
                what: "telemetry in-flight trace table",
                expected: INFLIGHT_CAP,
                found: self.inflight.len(),
            });
        }
        restore_vec(r, &mut self.done)?;
        if self.done.len() > self.done_cap {
            return Err(StateError::LengthMismatch {
                what: "telemetry completed trace table",
                expected: self.done_cap,
                found: self.done.len(),
            });
        }
        self.dropped = u64::get(r)?;
        for h in &mut self.tier_hist {
            *h = Histogram::get(r)?;
        }
        for h in &mut self.stage_hist {
            *h = Histogram::get(r)?;
        }
        self.window_hist = Histogram::get(r)?;
        Ok(())
    }
}

use nuba_types::state::{
    restore_items, restore_vec, save_items, SaveState, StateError, StateReader, StateValue,
    StateWriter,
};

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(window: u64, ring: usize, period: u64) -> TelemetryConfig {
        TelemetryConfig {
            window_cycles: (window > 0).then_some(window),
            ring_windows: ring,
            trace_sample_period: period,
            trace_capacity: 8,
            window_latency: false,
        }
    }

    fn totals(retired: u64) -> [u64; NUM_WINDOW_COUNTERS] {
        let mut t = [0; NUM_WINDOW_COUNTERS];
        t[WindowCounter::Retired as usize] = retired;
        t
    }

    #[test]
    fn inert_by_default() {
        let t = Telemetry::new(&TelemetryConfig::default());
        assert!(!t.windowing());
        assert!(!t.tracing());
        assert_eq!(t.windows().count(), 0);
        assert!(t.trace_records().is_empty());
    }

    #[test]
    fn ring_keeps_last_n_windows_in_order() {
        let mut t = Telemetry::new(&cfg(10, 3, 0));
        for i in 1..=5u64 {
            assert!(t.window_due(i * 10));
            t.flush_window(i * 10, &totals(i * 100));
        }
        let got: Vec<_> = t.windows().map(|w| (w.start_cycle, w.end_cycle)).collect();
        assert_eq!(got, vec![(20, 30), (30, 40), (40, 50)]);
        // Deltas, not cumulative values.
        for w in t.windows() {
            assert_eq!(w[WindowCounter::Retired], 100);
        }
        assert_eq!(t.windows_vec().len(), 3);
    }

    #[test]
    fn window_due_only_on_boundaries() {
        let t = Telemetry::new(&cfg(128, 4, 0));
        assert!(!t.window_due(127));
        assert!(t.window_due(128));
        assert!(!t.window_due(129));
        assert!(t.window_due(256));
    }

    #[test]
    fn sampling_is_one_in_k_reads_only() {
        let mut t = Telemetry::new(&cfg(0, 0, 4));
        for i in 1..=16u64 {
            t.maybe_sample(
                ReqId(i),
                SmId(0),
                WarpId(0),
                LineAddr(i * 128),
                AccessKind::Load,
                i,
            );
        }
        // A store on the grid must not be sampled.
        t.maybe_sample(
            ReqId(20),
            SmId(0),
            WarpId(0),
            LineAddr(0),
            AccessKind::Store,
            20,
        );
        assert_eq!(t.inflight.len(), 4); // ids 4, 8, 12, 16
        for (i, id) in [4u64, 8, 12, 16].into_iter().enumerate() {
            assert_eq!(t.inflight[i].id, id);
        }
    }

    #[test]
    fn lifecycle_stamps_flow_into_completed_records() {
        let mut t = Telemetry::new(&cfg(0, 0, 1));
        t.maybe_sample(
            ReqId(1),
            SmId(3),
            WarpId(7),
            LineAddr(0x1000),
            AccessKind::Load,
            5,
        );
        t.note_slice_enqueue(ReqId(1), 9);
        t.note_slice_enqueue(ReqId(1), 11); // first wins
        t.note_slice_grant(ReqId(1), 12);
        t.note_dram(LineAddr(0x1000), 20);
        t.note_reply(ReqId(1), 80);
        let recs = t.trace_records();
        assert_eq!(recs.len(), 1);
        let r = recs[0];
        assert_eq!(r.slice_enqueue, Some(9));
        assert_eq!(r.slice_grant, Some(12));
        assert_eq!(r.dram_enqueue, Some(20));
        assert_eq!(r.reply_cycle, Some(80));
        // Five spans: request + four lifecycle stages.
        assert_eq!(r.trace_events(0, "job").len(), 5);
        // Unknown ids are ignored, not panics.
        t.note_reply(ReqId(99), 100);
    }

    #[test]
    fn full_tables_drop_instead_of_growing() {
        let mut t = Telemetry::new(&cfg(0, 0, 1));
        let cap = t.inflight.capacity();
        for i in 1..=(cap as u64 + 3) {
            t.maybe_sample(
                ReqId(i),
                SmId(0),
                WarpId(0),
                LineAddr(0),
                AccessKind::Load,
                i,
            );
        }
        assert_eq!(t.inflight.len(), cap);
        assert_eq!(t.trace_dropped(), 3);
    }

    #[test]
    fn tier_histograms_record_end_to_end_latency() {
        let mut t = Telemetry::new(&TelemetryConfig::default());
        t.record_read_latency(TIER_LOCAL, 40);
        t.record_read_latency(TIER_REMOTE, 90);
        t.record_read_latency(TIER_REMOTE, 100);
        t.record_read_latency(TIER_DRAM, 400);
        assert_eq!(t.tier_histograms()[TIER_LOCAL].count(), 1);
        assert_eq!(t.tier_histograms()[TIER_REMOTE].count(), 2);
        assert_eq!(t.tier_histograms()[TIER_REMOTE].max(), 100);
        assert_eq!(t.tier_histograms()[TIER_DRAM].sum(), 400);
    }

    #[test]
    fn stage_histograms_fed_from_completed_lifecycles() {
        let mut t = Telemetry::new(&cfg(0, 0, 1));
        // A miss: issue 5 → enqueue 9 → grant 12 → dram 20 → reply 80.
        t.maybe_sample(
            ReqId(1),
            SmId(0),
            WarpId(0),
            LineAddr(64),
            AccessKind::Load,
            5,
        );
        t.note_slice_enqueue(ReqId(1), 9);
        t.note_slice_grant(ReqId(1), 12);
        t.note_dram(LineAddr(64), 20);
        t.note_reply(ReqId(1), 80);
        // A hit: issue 10 → enqueue 13 → grant 15 → reply 30.
        t.maybe_sample(
            ReqId(2),
            SmId(0),
            WarpId(0),
            LineAddr(128),
            AccessKind::Load,
            10,
        );
        t.note_slice_enqueue(ReqId(2), 13);
        t.note_slice_grant(ReqId(2), 15);
        t.note_reply(ReqId(2), 30);
        let s = t.stage_histograms();
        assert_eq!(s[STAGE_SM_TO_SLICE].count(), 2);
        assert_eq!(s[STAGE_SM_TO_SLICE].sum(), 4 + 3);
        assert_eq!(s[STAGE_SLICE_QUEUE].sum(), 3 + 2);
        // Miss contributes grant→dram, hit contributes grant→reply.
        assert_eq!(s[STAGE_LLC].count(), 2);
        assert_eq!(s[STAGE_LLC].sum(), 8 + 15);
        // Only the miss reached DRAM.
        assert_eq!(s[STAGE_DRAM_REPLY].count(), 1);
        assert_eq!(s[STAGE_DRAM_REPLY].sum(), 60);
    }

    #[test]
    fn window_latency_percentiles_stamp_and_reset() {
        let mut t = Telemetry::new(&TelemetryConfig {
            window_latency: true,
            ..cfg(10, 4, 0)
        });
        for lat in [10u64, 20, 30, 1000] {
            t.record_read_latency(TIER_REMOTE, lat);
        }
        t.flush_window(10, &totals(1));
        // No samples in the second window: percentiles are zero.
        t.flush_window(20, &totals(2));
        let ws = t.windows_vec();
        // p50 is the upper bound of the log2 bucket holding the median
        // sample (20 → bucket [16, 31]).
        use WindowCounter::*;
        assert_eq!(ws[0][LatP50], 31);
        assert_eq!(ws[0][LatMax], 1000);
        assert!(ws[0][LatP99] <= 1000);
        assert_eq!((ws[1][LatP50], ws[1][LatMax]), (0, 0));
        // The cumulative tier histogram is unaffected by flushes.
        assert_eq!(t.tier_histograms()[TIER_REMOTE].count(), 4);
    }

    #[test]
    fn save_restore_roundtrips_histograms() {
        let mut t = Telemetry::new(&cfg(0, 0, 1));
        t.record_read_latency(TIER_DRAM, 250);
        t.maybe_sample(
            ReqId(1),
            SmId(0),
            WarpId(0),
            LineAddr(64),
            AccessKind::Load,
            5,
        );
        t.note_slice_enqueue(ReqId(1), 9);
        t.note_reply(ReqId(1), 40);
        let mut w = StateWriter::new();
        t.save(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = Telemetry::new(&cfg(0, 0, 1));
        let mut r = StateReader::new(&bytes);
        fresh.restore(&mut r).expect("restore telemetry");
        assert_eq!(fresh.tier_histograms(), t.tier_histograms());
        assert_eq!(fresh.stage_histograms(), t.stage_histograms());
        assert_eq!(fresh.trace_records(), t.trace_records());
    }

    /// A window whose counter `i` (table order) holds `i + 1`.
    fn numbered_window() -> TelemetryWindow {
        TelemetryWindow {
            start_cycle: 100,
            end_cycle: 200,
            counters: std::array::from_fn(|i| i as u64 + 1),
        }
    }

    #[test]
    fn jsonl_line_pins_every_key_in_order() {
        assert_eq!(
            numbered_window().jsonl_line("job", 3, 4),
            concat!(
                "{\"job\":\"job\",\"job_index\":3,\"window\":4,\"start\":100,\"end\":200,",
                "\"issued\":1,\"retired\":2,\"replies\":3,\"l1_accesses\":4,\"l1_hits\":5,",
                "\"stall_downstream\":6,\"stall_mshr\":7,\"stall_outstanding\":8,",
                "\"llc_accesses\":9,\"llc_hits\":10,\"lmr_queued\":11,\"rmr_queued\":12,",
                "\"slice_mshr_peak\":13,\"sm_mshr_peak\":14,\"dram_row_hits\":15,",
                "\"dram_row_accesses\":16,\"dram_bus_busy\":17,\"noc_bytes\":18,",
                "\"noc_peak_in_flight\":19,\"local_link_bytes\":20,\"local_link_busy\":21,",
                "\"local_link_rejects\":22,\"tlb_walks\":23,\"tlb_peak_outstanding\":24,",
                "\"lat_p50\":25,\"lat_p95\":26,\"lat_p99\":27,\"lat_max\":28,",
                "\"replies_per_cycle\":0.030000,\"llc_hit_rate\":1.111111,",
                "\"dram_row_hit_rate\":0.937500}"
            )
        );
    }

    /// Cumulative counters and flush-edge gauges for the `k`-th flush:
    /// the entry at table position `i` holds `k * 100 + i + 1`.
    fn flush(t: &mut Telemetry, end_cycle: u64, k: u64) {
        t.flush_window(end_cycle, &std::array::from_fn(|i| k * 100 + i as u64 + 1));
    }

    #[test]
    fn save_bytes_pin_the_checkpoint_layout() {
        let mut t = Telemetry::new(&TelemetryConfig {
            window_latency: true,
            ..cfg(10, 2, 1)
        });
        for (k, lat) in [(1u64, 40u64), (2, 300), (3, 7)] {
            t.record_read_latency(TIER_REMOTE, lat);
            flush(&mut t, k * 10, k);
        }
        t.maybe_sample(
            ReqId(5),
            SmId(2),
            WarpId(3),
            LineAddr(0x80),
            AccessKind::Load,
            31,
        );
        t.note_slice_enqueue(ReqId(5), 34);
        t.note_slice_grant(ReqId(5), 36);
        t.note_dram(LineAddr(0x80), 41);
        t.note_reply(ReqId(5), 90);
        let mut w = StateWriter::new();
        t.save(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(nuba_types::state::fnv1a(&bytes), 0xfacd_14d9_6cec_c8e7);
        let mut fresh = Telemetry::new(&TelemetryConfig {
            window_latency: true,
            ..cfg(10, 2, 1)
        });
        fresh
            .restore(&mut StateReader::new(&bytes))
            .expect("restore telemetry");
        assert_eq!(fresh.windows_vec(), t.windows_vec());
    }

    #[test]
    fn jsonl_line_is_valid_shape_and_escaped() {
        let mut w = TelemetryWindow {
            start_cycle: 0,
            end_cycle: 100,
            ..TelemetryWindow::default()
        };
        w[WindowCounter::Replies] = 50;
        w[WindowCounter::LlcAccesses] = 10;
        w[WindowCounter::LlcHits] = 5;
        let line = w.jsonl_line("a\"b", 2, 7);
        assert!(line.starts_with("{\"job\":\"a\\\"b\",\"job_index\":2,\"window\":7,"));
        assert!(line.contains("\"replies_per_cycle\":0.500000"));
        assert!(line.contains("\"llc_hit_rate\":0.500000"));
        assert!(line.ends_with('}'));
    }
}
