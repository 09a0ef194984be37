//! Unified metrics primitives: deterministic log2-bucketed histograms,
//! percentile summaries, and a named counter/gauge/histogram registry
//! with Prometheus text exposition.
//!
//! Everything here is `u64`-only so `Eq` and the [`state`](crate::state)
//! codec survive: no floats, no wall-clock, no platform-dependent
//! values. A [`Histogram`] is a fixed `[u64; 64]` — recording is two
//! array writes and four scalar updates, zero allocations, so the
//! simulator can keep histograms *always on* without violating the
//! steady-state allocation budget (`steady_alloc.rs`).
//!
//! The [`MetricsRegistry`] is the harness-level aggregation point:
//! `BTreeMap`-keyed so iteration order — and therefore every exported
//! artifact — is deterministic by construction (the determinism lint
//! checks this module for unordered map iteration). The simulator hot
//! path never touches the registry; it records into fixed `Histogram`
//! fields and the harness folds them in after the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::state::{StateError, StateReader, StateValue, StateWriter};

/// Number of histogram buckets. Bucket `b` (for `1 <= b <= 62`) holds
/// values in `[2^(b-1), 2^b - 1]`; bucket 0 holds exactly the value 0;
/// bucket 63 holds everything from `2^62` up.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A deterministic log2-bucketed histogram of `u64` samples.
///
/// Fixed-size, `Copy`, `Eq`, zero-alloc in steady state. The bucket of
/// a value is its significant-bit count (0 → bucket 0, else
/// `64 - leading_zeros`, clamped to 63), so recording costs a
/// `leading_zeros` and two increments — cheap enough for the
/// per-reply hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    /// `u64::MAX` while empty so the first sample always wins.
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket a value lands in: its significant-bit count, clamped
    /// into the fixed array.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Largest value bucket `index` can hold (used for quantile
    /// reporting and CDF rendering).
    pub const fn bucket_upper_bound(index: usize) -> u64 {
        if index >= HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else if index == 0 {
            0
        } else {
            (1u64 << index) - 1
        }
    }

    /// Record one sample. Zero-alloc; safe on the simulator hot path.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
    }

    /// Clear every bucket (per-window delta histograms reset here; a
    /// `Copy` overwrite, no allocation).
    pub fn reset(&mut self) {
        *self = Histogram::new();
    }

    /// Deterministic quantile `num/den` (e.g. `quantile(99, 100)` for
    /// p99): the upper bound of the bucket containing the
    /// `ceil(count * num / den)`-th sample, clamped to the observed
    /// max. Integer-only — no float rounding, no interpolation
    /// ambiguity — so it is byte-stable across platforms.
    pub fn quantile(&self, num: u64, den: u64) -> u64 {
        if self.count == 0 || den == 0 {
            return 0;
        }
        let rank = ((self.count as u128 * num as u128)
            .div_ceil(den as u128)
            .max(1)) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::bucket_upper_bound(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// CDF points `(bucket upper bound, cumulative count)` for every
    /// bucket up to the highest occupied one. Allocates — figure
    /// rendering only, never the hot path.
    pub fn cdf_points(&self) -> Vec<(u64, u64)> {
        let last = match self.buckets.iter().rposition(|&c| c > 0) {
            Some(i) => i,
            None => return Vec::new(),
        };
        let mut cum = 0u64;
        self.buckets[..=last]
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                cum += c;
                (Self::bucket_upper_bound(i).min(self.max), cum)
            })
            .collect()
    }
}

impl StateValue for Histogram {
    fn put(&self, w: &mut StateWriter) {
        for b in &self.buckets {
            b.put(w);
        }
        self.count.put(w);
        self.sum.put(w);
        self.min.put(w);
        self.max.put(w);
    }

    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        let mut h = Histogram::new();
        for b in h.buckets.iter_mut() {
            *b = u64::get(r)?;
        }
        h.count = u64::get(r)?;
        h.sum = u64::get(r)?;
        h.min = u64::get(r)?;
        h.max = u64::get(r)?;
        if h.buckets.iter().sum::<u64>() != h.count {
            return Err(StateError::Corrupt("histogram bucket/count mismatch"));
        }
        Ok(h)
    }
}

/// Percentile summary of one histogram: all `u64`, so reports carrying
/// it stay `Eq`-comparable and byte-stable in JSON.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Median (bucket upper bound, see [`Histogram::quantile`]).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest observed sample.
    pub max: u64,
    /// Samples observed.
    pub count: u64,
}

impl LatencySummary {
    /// Summarize a histogram.
    pub fn of(h: &Histogram) -> LatencySummary {
        LatencySummary {
            p50: h.quantile(1, 2),
            p95: h.quantile(19, 20),
            p99: h.quantile(99, 100),
            max: h.max(),
            count: h.count(),
        }
    }

    /// Render as a JSON object fragment (stable key order, integers
    /// only).
    pub fn json(&self) -> String {
        format!(
            "{{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}, \"count\": {}}}",
            self.p50, self.p95, self.p99, self.max, self.count
        )
    }
}

/// Named counters, gauges, and histograms with deterministic iteration
/// and Prometheus text exposition.
///
/// `BTreeMap`-backed so [`render_prometheus`](Self::render_prometheus)
/// emits families in sorted name order — the export is a pure function
/// of the recorded values, never of insertion or schedule order. This
/// is the harness-level registry (`runner.rs`/`store.rs` counters fold
/// in here at matrix end); the simulator's per-reply path uses fixed
/// [`Histogram`] fields directly to stay zero-alloc.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `by` to counter `name` (created at 0).
    pub fn counter_add(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set gauge `name` to `value`.
    pub fn gauge_set(&mut self, name: &str, value: u64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Current value of gauge `name` (0 if never set).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// The histogram registered under `name`, created empty on first
    /// use.
    pub fn histogram_mut(&mut self, name: &str) -> &mut Histogram {
        self.histograms.entry(name.to_string()).or_default()
    }

    /// Record one sample into histogram `name`.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histogram_mut(name).record(value);
    }

    /// The histogram registered under `name`, if any.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Whether nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Render the whole registry in the Prometheus text exposition
    /// format (version 0.0.4): `# TYPE` headers, sorted family names,
    /// histograms as cumulative `_bucket{le="..."}` series plus `_sum`
    /// and `_count`. Deterministic: integers only, sorted maps, no
    /// timestamps.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cum = 0u64;
            let last = h.buckets().iter().rposition(|&c| c > 0).unwrap_or(0);
            for (i, &c) in h.buckets()[..=last].iter().enumerate() {
                cum += c;
                let le = Histogram::bucket_upper_bound(i);
                if le == u64::MAX {
                    continue; // folded into +Inf below
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{name}_sum {}", h.sum());
            let _ = writeln!(out, "{name}_count {}", h.count());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 63);
        // Upper bounds bracket their bucket.
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 1 << 40] {
            let b = Histogram::bucket_index(v);
            assert!(v <= Histogram::bucket_upper_bound(b), "{v} in bucket {b}");
            if b > 0 {
                assert!(v > Histogram::bucket_upper_bound(b - 1));
            }
        }
    }

    #[test]
    fn record_tracks_count_sum_min_max() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!((h.min(), h.max()), (0, 0));
        for v in [5u64, 100, 1, 1 << 20] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 5 + 100 + 1 + (1 << 20));
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1 << 20);
    }

    #[test]
    fn quantiles_are_deterministic_and_ordered() {
        let mut h = Histogram::new();
        // 99 samples around 100 cycles, one tail sample at ~1M.
        for _ in 0..99 {
            h.record(100);
        }
        h.record(1_000_000);
        let s = LatencySummary::of(&h);
        assert_eq!(s.count, 100);
        // p50/p95 land in the bucket holding 100 (64..=127 → ub 127).
        assert_eq!(s.p50, 127);
        assert_eq!(s.p95, 127);
        // p99 rank is 99 — still the common bucket; max shows the tail.
        assert_eq!(s.p99, 127);
        assert_eq!(s.max, 1_000_000);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        // The tail sample is visible one rank later.
        assert_eq!(h.quantile(100, 100), 1_000_000);
    }

    #[test]
    fn quantile_clamps_to_observed_range() {
        let mut h = Histogram::new();
        h.record(1 << 62); // last bucket, upper bound u64::MAX
        assert_eq!(h.quantile(1, 2), 1 << 62, "clamped to max, not +Inf");
        let mut low = Histogram::new();
        low.record(100);
        assert_eq!(low.quantile(1, 100), 100, "raised to min within bucket");
    }

    #[test]
    fn merge_matches_sequential_recording() {
        let (mut a, mut b, mut all) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [3u64, 9, 27] {
            a.record(v);
            all.record(v);
        }
        for v in [81u64, 243, 1] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        // Merging an empty histogram is the identity.
        a.merge(&Histogram::new());
        assert_eq!(a, all);
    }

    #[test]
    fn state_roundtrip_and_corruption_detected() {
        let mut h = Histogram::new();
        for v in [1u64, 50, 5000, 1 << 30] {
            h.record(v);
        }
        let mut w = StateWriter::new();
        h.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(Histogram::get(&mut r).unwrap(), h);
        // A tampered bucket count no longer sums to `count`.
        let mut bad = bytes.clone();
        bad[8] ^= 1;
        let mut r = StateReader::new(&bad);
        assert!(Histogram::get(&mut r).is_err());
    }

    #[test]
    fn cdf_points_cover_all_samples() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let pts = h.cdf_points();
        assert_eq!(pts.last().unwrap().1, 5, "CDF reaches total count");
        assert!(pts.windows(2).all(|w| w[0].1 <= w[1].1), "monotone");
        assert!(Histogram::new().cdf_points().is_empty());
    }

    #[test]
    fn registry_renders_sorted_prometheus_text() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("nuba_warp_ops_total", 3);
        reg.counter_add("nuba_jobs_total", 7);
        reg.gauge_set("nuba_matrix_workers", 4);
        reg.observe("nuba_read_latency_cycles", 100);
        reg.observe("nuba_read_latency_cycles", 300);
        let text = reg.render_prometheus();
        // Families sorted by name within each section.
        let jobs = text.find("nuba_jobs_total 7").unwrap();
        let ops = text.find("nuba_warp_ops_total 3").unwrap();
        assert!(jobs < ops);
        assert!(text.contains("# TYPE nuba_jobs_total counter"));
        assert!(text.contains("# TYPE nuba_matrix_workers gauge"));
        assert!(text.contains("# TYPE nuba_read_latency_cycles histogram"));
        assert!(text.contains("nuba_read_latency_cycles_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("nuba_read_latency_cycles_sum 400"));
        assert!(text.contains("nuba_read_latency_cycles_count 2"));
        // Insertion order never shows: a fresh registry filled in a
        // different order renders byte-identically.
        let mut reg2 = MetricsRegistry::new();
        reg2.observe("nuba_read_latency_cycles", 300);
        reg2.observe("nuba_read_latency_cycles", 100);
        reg2.gauge_set("nuba_matrix_workers", 4);
        reg2.counter_add("nuba_jobs_total", 7);
        reg2.counter_add("nuba_warp_ops_total", 3);
        assert_eq!(reg2.render_prometheus(), text);
    }

    #[test]
    fn empty_registry_renders_empty() {
        assert!(MetricsRegistry::new().render_prometheus().is_empty());
        assert!(MetricsRegistry::new().is_empty());
    }
}
