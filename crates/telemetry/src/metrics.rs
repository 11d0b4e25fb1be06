//! The metrics registry: counters, gauges, and fixed-bucket log2 histograms.
//!
//! Instruments are cheap enough for the per-device hot loop: a recorded
//! observation is a handful of relaxed atomic increments with no allocation.
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`s obtained once
//! from a [`Registry`] and then hammered freely; the registry's name table
//! is only touched at handle-creation and snapshot time.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::subscriber::{enabled, with_registry};

/// Source of unique [`Registry::id`] values; lets cached handles detect
/// that a different registry has been installed.
static REGISTRY_IDS: AtomicU64 = AtomicU64::new(1);

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge holding an `f64` (stored as its bit pattern).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge reading 0.0.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrite the reading.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current reading.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `i`
/// (1 ≤ i ≤ 64) holds values in `[2^(i-1), 2^i)`; bucket 64's upper edge
/// saturates at `u64::MAX`.
pub const BUCKETS: usize = 65;

/// A fixed-bucket log2 histogram over `u64` observations (latencies in
/// nanoseconds, sizes in bytes…). Recording is allocation-free: one bucket
/// increment plus count/sum/min/max updates, all relaxed atomics.
///
/// Percentiles are bucket-resolved: [`percentile`](Histogram::percentile)
/// returns the upper edge of the bucket containing the requested rank, i.e.
/// an upper bound tight to within the bucket's 2× width. Exact `min` and
/// `max` are tracked separately.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Index of the bucket a value falls in.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    match value {
        0 => 0,
        v => (v.ilog2() + 1) as usize,
    }
}

/// Inclusive upper edge of a bucket (`0` for bucket 0, `2^i - 1`
/// otherwise, saturating at `u64::MAX`).
pub fn bucket_upper_edge(index: usize) -> u64 {
    match index {
        0 => 0,
        64.. => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating sum: overflow would need >2^64 ns (~584 years) total.
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations (wraps only past 2^64).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        match self.count() {
            0 => None,
            _ => Some(self.min.load(Ordering::Relaxed)),
        }
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        match self.count() {
            0 => None,
            _ => Some(self.max.load(Ordering::Relaxed)),
        }
    }

    /// Bucket-resolved percentile: the upper edge of the bucket holding the
    /// observation of rank `⌈q·count⌉` (`q` in `[0, 1]`). Returns `None`
    /// when the histogram is empty.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                // Tighten the edges with the exact extremes.
                let edge = bucket_upper_edge(i);
                let max = self.max.load(Ordering::Relaxed);
                return Some(edge.min(max));
            }
        }
        Some(self.max.load(Ordering::Relaxed))
    }

    /// A point-in-time snapshot of the per-bucket counts. Used by the SLO
    /// monitor to diff consecutive windows; pairs with [`bucket_upper_edge`]
    /// to resolve each slot's value range.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }

    /// A point-in-time summary (count, mean, extremes, p50/p90/p99).
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count();
        HistogramSummary {
            count,
            sum: self.sum(),
            mean: if count == 0 {
                0.0
            } else {
                self.sum() as f64 / count as f64
            },
            min: self.min().unwrap_or(0),
            max: self.max().unwrap_or(0),
            p50: self.percentile(0.50).unwrap_or(0),
            p90: self.percentile(0.90).unwrap_or(0),
            p99: self.percentile(0.99).unwrap_or(0),
        }
    }
}

/// Snapshot of one histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Mean observation.
    pub mean: f64,
    /// Exact smallest observation (0 when empty).
    pub min: u64,
    /// Exact largest observation (0 when empty).
    pub max: u64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 90th percentile (bucket upper bound).
    pub p90: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
}

/// A name-keyed registry of instruments. Handle creation is get-or-create;
/// the same name always resolves to the same instrument.
pub struct Registry {
    id: u64,
    counters: RefCell<BTreeMap<String, Arc<Counter>>>,
    gauges: RefCell<BTreeMap<String, Arc<Gauge>>>,
    histograms: RefCell<BTreeMap<String, Arc<Histogram>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            id: REGISTRY_IDS.fetch_add(1, Ordering::Relaxed),
            counters: RefCell::default(),
            gauges: RefCell::default(),
            histograms: RefCell::default(),
        }
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// This registry's process-unique id (used by [`CachedCounter`] and
    /// [`CachedHistogram`] to invalidate their handles when the installed
    /// registry changes).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.borrow().get(name) {
            return c.clone();
        }
        self.counters
            .borrow_mut()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.borrow().get(name) {
            return g.clone();
        }
        self.gauges
            .borrow_mut()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.borrow().get(name) {
            return h.clone();
        }
        self.histograms
            .borrow_mut()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// All counters with their current values, name order.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        self.counters
            .borrow()
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect()
    }

    /// All gauges with their current readings, name order.
    pub fn gauge_values(&self) -> Vec<(String, f64)> {
        self.gauges
            .borrow()
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect()
    }

    /// All histograms with their summaries, name order.
    pub fn histogram_summaries(&self) -> Vec<(String, HistogramSummary)> {
        self.histograms
            .borrow()
            .iter()
            .map(|(name, h)| (name.clone(), h.summary()))
            .collect()
    }

    /// Render the whole registry as the percentile summary table the CLI
    /// prints after a traced run. Histograms whose name ends in a `ns`
    /// segment (`guard.ns`) hold nanoseconds and print in adaptive units;
    /// any other histogram (batch sizes, queue ticks) prints plain integers.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        let histograms = self.histogram_summaries();
        if !histograms.is_empty() {
            let _ = writeln!(
                out,
                "{:<28} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "histogram", "count", "mean", "p50", "p90", "p99", "max"
            );
            for (name, s) in &histograms {
                let fmt: fn(u64) -> String = if name.rsplit('.').next() == Some("ns") {
                    fmt_ns
                } else {
                    |v| v.to_string()
                };
                let _ = writeln!(
                    out,
                    "{:<28} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
                    name,
                    s.count,
                    fmt(s.mean as u64),
                    fmt(s.p50),
                    fmt(s.p90),
                    fmt(s.p99),
                    fmt(s.max),
                );
            }
        }
        let counters = self.counter_values();
        if !counters.is_empty() {
            let _ = writeln!(out, "{:<28} {:>10}", "counter", "value");
            for (name, v) in &counters {
                let _ = writeln!(out, "{name:<28} {v:>10}");
            }
        }
        let gauges = self.gauge_values();
        if !gauges.is_empty() {
            let _ = writeln!(out, "{:<28} {:>10}", "gauge", "value");
            for (name, v) in &gauges {
                let _ = writeln!(out, "{name:<28} {v:>10.3}");
            }
        }
        out
    }
}

/// A statically named counter handle that caches the [`Registry`] lookup.
///
/// The first observation against a given installed registry resolves the
/// name once; subsequent observations are a registry-id compare plus one
/// relaxed atomic add. Embed these in hot structs (guard stacks, ledgers)
/// so per-call instrumentation never touches the name table. Observations
/// made while no dispatch is installed are dropped, like any other
/// registry access.
pub struct CachedCounter {
    name: &'static str,
    slot: RefCell<Option<(u64, Arc<Counter>)>>,
}

impl CachedCounter {
    /// A handle for the counter named `name`; resolves lazily.
    pub const fn new(name: &'static str) -> Self {
        CachedCounter {
            name,
            slot: RefCell::new(None),
        }
    }

    /// Add `n` to the counter in the currently installed registry.
    #[inline]
    pub fn add(&self, n: u64) {
        with_registry(|reg| {
            let mut slot = self.slot.borrow_mut();
            match slot.as_ref() {
                Some((id, c)) if *id == reg.id() => c.add(n),
                _ => {
                    let c = reg.counter(self.name);
                    c.add(n);
                    *slot = Some((reg.id(), c));
                }
            }
        });
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
}

impl Clone for CachedCounter {
    fn clone(&self) -> Self {
        CachedCounter::new(self.name)
    }
}

impl std::fmt::Debug for CachedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedCounter")
            .field("name", &self.name)
            .finish()
    }
}

/// A statically named histogram handle that caches the [`Registry`] lookup;
/// the histogram analogue of [`CachedCounter`].
pub struct CachedHistogram {
    name: &'static str,
    slot: RefCell<Option<(u64, Arc<Histogram>)>>,
}

impl CachedHistogram {
    /// A handle for the histogram named `name`; resolves lazily.
    pub const fn new(name: &'static str) -> Self {
        CachedHistogram {
            name,
            slot: RefCell::new(None),
        }
    }

    /// Record one observation into the currently installed registry.
    #[inline]
    pub fn record(&self, value: u64) {
        with_registry(|reg| {
            let mut slot = self.slot.borrow_mut();
            match slot.as_ref() {
                Some((id, h)) if *id == reg.id() => h.record(value),
                _ => {
                    let h = reg.histogram(self.name);
                    h.record(value);
                    *slot = Some((reg.id(), h));
                }
            }
        });
    }
}

impl Clone for CachedHistogram {
    fn clone(&self) -> Self {
        CachedHistogram::new(self.name)
    }
}

impl std::fmt::Debug for CachedHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedHistogram")
            .field("name", &self.name)
            .finish()
    }
}

/// A deterministic counter-based sampler for hot-path latency timing.
///
/// `sample()` returns `true` on the first call and every `period`-th call
/// after, so call sites can take the two clock reads a latency observation
/// costs only on a fixed fraction of calls. No RNG and no wall clock are
/// involved: the decision sequence is a pure function of the call count,
/// keeping instrumented runs deterministic. Histograms fed this way hold a
/// 1-in-`period` systematic sample of the latency distribution; pair them
/// with exact counters when totals matter.
#[derive(Debug)]
pub struct Sampler {
    period: u32,
    calls: std::cell::Cell<u32>,
}

impl Sampler {
    /// Sample the first and every `period`-th call (`period` 0 and 1 both
    /// mean "every call").
    pub const fn every(period: u32) -> Self {
        Sampler {
            period,
            calls: std::cell::Cell::new(0),
        }
    }

    /// Should this call be timed?
    #[inline]
    pub fn sample(&self) -> bool {
        let n = self.calls.get();
        self.calls.set(if n + 1 >= self.period { 0 } else { n + 1 });
        n == 0
    }
}

impl Clone for Sampler {
    fn clone(&self) -> Self {
        Sampler::every(self.period)
    }
}

/// Nanoseconds elapsed since `started`, saturating at `u64::MAX`.
#[inline]
pub fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Run `f`, recording its wall latency into `hist` when a telemetry
/// dispatch is installed; a bare call otherwise.
#[inline]
pub fn timed<R>(hist: &CachedHistogram, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let started = Instant::now();
    let out = f();
    hist.record(elapsed_ns(started));
    out
}

/// Like [`timed`], but only calls that `sampler` picks pay the clock reads.
#[inline]
pub fn sampled_timed<R>(hist: &CachedHistogram, sampler: &Sampler, f: impl FnOnce() -> R) -> R {
    if !enabled() || !sampler.sample() {
        return f();
    }
    let started = Instant::now();
    let out = f();
    hist.record(elapsed_ns(started));
    out
}

/// Format a nanosecond quantity with an adaptive unit.
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns}ns"),
        10_000..=9_999_999 => format!("{:.1}us", ns as f64 / 1_000.0),
        10_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1_000_000.0),
        _ => format!("{:.2}s", ns as f64 / 1_000_000_000.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index((1 << 63) - 1), 63);
        assert_eq!(bucket_index(1 << 63), 64);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_edges_cover_the_domain() {
        assert_eq!(bucket_upper_edge(0), 0);
        assert_eq!(bucket_upper_edge(1), 1);
        assert_eq!(bucket_upper_edge(2), 3);
        assert_eq!(bucket_upper_edge(64), u64::MAX);
        // Every value is ≤ its own bucket's upper edge and > the previous
        // bucket's edge.
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX - 1, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_edge(i), "{v} in bucket {i}");
            if i > 0 {
                assert!(v > bucket_upper_edge(i - 1), "{v} above bucket {}", i - 1);
            }
        }
    }

    #[test]
    fn histogram_boundary_values_round_trip() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        // Ranks: p≤1/3 → bucket 0, p≤2/3 → bucket 1, above → bucket 64.
        assert_eq!(h.percentile(0.0), Some(0));
        assert_eq!(h.percentile(0.33), Some(0));
        assert_eq!(h.percentile(0.5), Some(1));
        assert_eq!(h.percentile(1.0), Some(u64::MAX));
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, 0);
    }

    #[test]
    fn single_observation_pins_every_percentile() {
        let h = Histogram::new();
        h.record(1000);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            // Edge-tightening caps the bucket bound at the exact max.
            assert_eq!(h.percentile(q), Some(1000), "q={q}");
        }
    }

    #[test]
    fn percentiles_are_upper_bounds_within_a_bucket() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(0.5).unwrap();
        // Rank 500 lands in bucket ⌈log2(500)⌉: upper edge 511.
        assert_eq!(p50, 511);
        assert!(h.percentile(0.99).unwrap() >= 990);
        assert_eq!(h.percentile(1.0), Some(1000), "max-tightened");
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        assert!((s.mean - 500.5).abs() < 1e-9);
    }

    #[test]
    fn registry_handles_are_shared_by_name() {
        let reg = Registry::new();
        reg.counter("a").add(2);
        reg.counter("a").inc();
        assert_eq!(reg.counter("a").get(), 3);
        reg.gauge("g").set(2.5);
        assert_eq!(reg.gauge("g").get(), 2.5);
        reg.histogram("h").record(7);
        assert_eq!(reg.histogram("h").count(), 1);
        assert_eq!(reg.counter_values(), vec![("a".to_string(), 3)]);
    }

    #[test]
    fn summary_table_renders_all_sections() {
        let reg = Registry::new();
        reg.counter("events.total").add(5);
        reg.gauge("fleet.active").set(12.0);
        reg.histogram("guard.ns").record(1500);
        let table = reg.render_summary();
        assert!(table.contains("histogram"));
        assert!(table.contains("guard.ns"));
        assert!(table.contains("events.total"));
        assert!(table.contains("fleet.active"));
    }

    #[test]
    fn summary_table_prints_units_only_for_ns_histograms() {
        let reg = Registry::new();
        reg.histogram("guard.ns").record(1500);
        reg.histogram("serve.batch.size").record(2);
        reg.histogram("serve.latency.queue_ticks").record(69);
        reg.histogram("dns.lookups").record(3);
        let table = reg.render_summary();
        let row = |name: &str| -> Vec<String> {
            let line = table.lines().find(|l| l.starts_with(name)).unwrap();
            line.split_whitespace()
                .skip(1)
                .map(str::to_string)
                .collect()
        };
        assert!(row("guard.ns").iter().skip(1).all(|v| v.ends_with("ns")));
        for name in [
            "serve.batch.size",
            "serve.latency.queue_ticks",
            "dns.lookups",
        ] {
            for value in row(name) {
                assert!(value.parse::<u64>().is_ok(), "{name} printed `{value}`");
            }
        }
    }

    #[test]
    fn cached_handles_revalidate_across_registries() {
        use std::rc::Rc;
        let c = CachedCounter::new("cached.hits");
        let h = CachedHistogram::new("cached.lat");
        c.inc(); // no dispatch installed: dropped, like a raw registry access
        {
            let _g = crate::install(Rc::new(crate::RingCollector::new(8)));
            c.add(2);
            h.record(5);
            crate::with_registry(|r| assert_eq!(r.counter("cached.hits").get(), 2));
        }
        // A fresh registry: the stale handle must re-resolve, not write to
        // the old instrument.
        {
            let _g = crate::install(Rc::new(crate::RingCollector::new(8)));
            c.inc();
            h.record(7);
            crate::with_registry(|r| {
                assert_eq!(r.counter("cached.hits").get(), 1);
                assert_eq!(r.histogram("cached.lat").count(), 1);
                assert_eq!(r.histogram("cached.lat").max(), Some(7));
            });
        }
    }

    #[test]
    fn sampler_is_periodic_and_deterministic() {
        let s = Sampler::every(4);
        let pattern: Vec<bool> = (0..10).map(|_| s.sample()).collect();
        assert_eq!(
            pattern,
            vec![true, false, false, false, true, false, false, false, true, false]
        );
        let always = Sampler::every(1);
        assert!((0..5).all(|_| always.sample()));
        let degenerate = Sampler::every(0);
        assert!((0..5).all(|_| degenerate.sample()));
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(0), "0ns");
        assert_eq!(fmt_ns(9_999), "9999ns");
        assert_eq!(fmt_ns(15_000), "15.0us");
        assert_eq!(fmt_ns(2_500_000_000), "2.50s");
    }
}
