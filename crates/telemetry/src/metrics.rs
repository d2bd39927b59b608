//! Named counters, gauges, and histograms with per-epoch snapshotting.
//!
//! Publishers (`ViyojitStats`, SSD wear/queue state, the battery model)
//! write cumulative counters and instantaneous gauges under stable
//! `&'static str` names. [`MetricsRegistry::snapshot`] closes an epoch:
//! it captures each counter's delta since the previous snapshot, so the
//! deltas of a metric across all snapshots sum back to its final total.
//! Maps are `BTreeMap`s so iteration (and therefore sink output) is
//! deterministic.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, OnceLock};

use sim_clock::{Histogram, SimDuration, SimTime};

fn intern_pool() -> &'static Mutex<BTreeSet<&'static str>> {
    static POOL: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(BTreeSet::new()))
}

/// Interns a runtime-built metric name into the `&'static str` namespace
/// the registry keys on.
///
/// Metric maps key on `&'static str` so the common case (compile-time
/// names) allocates nothing; dynamically-shaped publishers (e.g. one
/// gauge per shard) intern their names once at construction. Interning
/// is deduplicated: the first intern of a name leaks it, every later
/// intern of the same name returns the same pointer, so repeated
/// per-shard/per-tenant name construction costs one leak per distinct
/// name rather than one per call.
pub fn intern_metric_name(name: String) -> &'static str {
    let mut pool = intern_pool().lock().expect("intern pool poisoned");
    if let Some(&existing) = pool.get(name.as_str()) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.into_boxed_str());
    pool.insert(leaked);
    leaked
}

/// How a counter is written, which determines how per-shard values merge.
///
/// Incrementally written counters ([`MetricsRegistry::counter_add`]) are
/// disjoint per shard and merge by summing. Cumulative counters
/// ([`MetricsRegistry::counter_set`]) are published as owner-side totals
/// and historically shared one registry across shards, where the stored
/// value saturates to the maximum publisher; merging per-shard replicas
/// therefore takes the max so a merged view is byte-identical to what a
/// single shared registry would have held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// Written with `counter_add`: per-shard deltas, merged by sum.
    Sum,
    /// Written with `counter_set`: owner-published totals, merged by max.
    Cumulative,
}

/// The per-tenant metric names a multi-tenant frontend publishes,
/// interned once at construction (the registry keys on `&'static str`).
///
/// Both sharded frontends (sequential and thread-parallel) publish these
/// under `sharded.tenant{i}.*` at every rebalance, so tenant-level QoS —
/// budget received, stall time suffered, pages lost to power failures —
/// is observable without re-aggregating the per-shard gauges.
#[derive(Debug, Clone, Copy)]
pub struct TenantMetricNames {
    /// Gauge: sum of the budgets assigned to the tenant's shards.
    pub budget_pages: &'static str,
    /// Gauge: pages the tenant's shards currently count dirty.
    pub dirty_pages: &'static str,
    /// Counter: virtual nanoseconds the tenant's writers spent stalled.
    pub stall_nanos: &'static str,
    /// Counter: pages the tenant lost to emergency flushes.
    pub pages_lost: &'static str,
}

impl TenantMetricNames {
    /// Interns the name set for tenant `index`.
    pub fn for_tenant(index: usize) -> Self {
        TenantMetricNames {
            budget_pages: intern_metric_name(format!("sharded.tenant{index}.budget_pages")),
            dirty_pages: intern_metric_name(format!("sharded.tenant{index}.dirty_pages")),
            stall_nanos: intern_metric_name(format!("sharded.tenant{index}.stall_nanos")),
            pages_lost: intern_metric_name(format!("sharded.tenant{index}.pages_lost")),
        }
    }
}

/// A counter's position at one epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSample {
    /// Increase since the previous snapshot (or since zero for the first).
    pub delta: u64,
    /// Cumulative value at the snapshot instant.
    pub total: u64,
}

/// The registry's state at one epoch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSnapshot {
    /// Epoch number the snapshot closes.
    pub epoch: u64,
    /// Virtual instant the snapshot was taken.
    pub at: SimTime,
    /// Counter deltas and totals, sorted by name.
    pub counters: Vec<(&'static str, CounterSample)>,
    /// Gauge values at the instant, sorted by name.
    pub gauges: Vec<(&'static str, f64)>,
}

impl EpochSnapshot {
    /// Looks up one counter sample by name.
    pub fn counter(&self, name: &str) -> Option<CounterSample> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
    }

    /// Looks up one gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// Named metric store shared by every instrumented crate.
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
    /// Write discipline per counter, recorded at first write; drives the
    /// shard merge rule ([`CounterKind`]).
    kinds: BTreeMap<&'static str, CounterKind>,
    /// Counter totals at the previous snapshot, for delta computation.
    snapshotted: BTreeMap<&'static str, u64>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to a monotonic counter, creating it at zero.
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        self.kinds.entry(name).or_insert(CounterKind::Sum);
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Sets a counter to a cumulative value published by its owner.
    ///
    /// Saturates upward: publishers own the cumulative value, and a
    /// re-publish of an unchanged total must not rewind the counter.
    pub fn counter_set(&mut self, name: &'static str, total: u64) {
        self.kinds.entry(name).or_insert(CounterKind::Cumulative);
        let slot = self.counters.entry(name).or_insert(0);
        *slot = (*slot).max(total);
    }

    /// The write discipline of a counter, if it was ever written.
    pub fn counter_kind(&self, name: &str) -> Option<CounterKind> {
        self.kinds.get(name).copied()
    }

    /// Current cumulative value of a counter (zero if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets an instantaneous gauge.
    pub fn gauge_set(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Current value of a gauge, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records one duration sample into a named histogram.
    pub fn histogram_record(&mut self, name: &'static str, sample: SimDuration) {
        self.histograms.entry(name).or_default().record(sample);
    }

    /// Read access to a named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters as `(name, value)` pairs, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&n, &v)| (n, v))
    }

    /// All gauges as `(name, value)` pairs, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(&n, &v)| (n, v))
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&n, h)| (n, h))
    }

    /// Folds another registry (a telemetry shard's) into this one using
    /// the per-kind merge rules: [`CounterKind::Sum`] counters add,
    /// [`CounterKind::Cumulative`] counters take the max (reproducing
    /// what a single shared registry would have saturated to), gauges are
    /// last-writer (`other` wins, so merging parent-then-shards in fork
    /// order keys the survivor by shard), and histograms merge
    /// bucket-wise.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (name, value) in other.counters() {
            match other.counter_kind(name).unwrap_or(CounterKind::Sum) {
                CounterKind::Sum => self.counter_add(name, value),
                CounterKind::Cumulative => self.counter_set(name, value),
            }
        }
        for (name, value) in other.gauges() {
            self.gauge_set(name, value);
        }
        for (name, hist) in other.histograms() {
            self.histograms.entry(name).or_default().merge(hist);
        }
    }

    fn render_snapshot(&self, epoch: u64, at: SimTime) -> EpochSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(&name, &total)| {
                let prev = self.snapshotted.get(name).copied().unwrap_or(0);
                (
                    name,
                    CounterSample {
                        delta: total - prev,
                        total,
                    },
                )
            })
            .collect();
        EpochSnapshot {
            epoch,
            at,
            counters,
            gauges: self.gauges.iter().map(|(&n, &v)| (n, v)).collect(),
        }
    }

    /// Closes an epoch: captures counter deltas since the previous
    /// snapshot plus current gauge values.
    pub fn snapshot(&mut self, epoch: u64, at: SimTime) -> EpochSnapshot {
        let snap = self.render_snapshot(epoch, at);
        self.snapshotted = self.counters.clone();
        snap
    }

    /// Renders the snapshot [`MetricsRegistry::snapshot`] would produce
    /// *without* advancing the delta baseline. The flight recorder uses
    /// this so a mid-run postmortem dump never perturbs the deltas of
    /// later real snapshots.
    pub fn peek_snapshot(&self, epoch: u64, at: SimTime) -> EpochSnapshot {
        self.render_snapshot(epoch, at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_deltas_sum_to_totals() {
        let mut reg = MetricsRegistry::new();
        let mut snaps = Vec::new();
        let mut cum = 0;
        for epoch in 0..5 {
            cum += epoch + 1;
            reg.counter_set("faults", cum);
            reg.counter_add("walks", 1);
            snaps.push(reg.snapshot(epoch, SimTime::from_nanos(epoch)));
        }
        let fault_sum: u64 = snaps
            .iter()
            .map(|s| s.counter("faults").unwrap().delta)
            .sum();
        let walk_sum: u64 = snaps
            .iter()
            .map(|s| s.counter("walks").unwrap().delta)
            .sum();
        assert_eq!(fault_sum, reg.counter("faults"));
        assert_eq!(walk_sum, reg.counter("walks"));
        assert_eq!(snaps.last().unwrap().counter("faults").unwrap().total, cum);
    }

    #[test]
    fn counter_set_never_rewinds() {
        let mut reg = MetricsRegistry::new();
        reg.counter_set("x", 10);
        reg.counter_set("x", 7);
        assert_eq!(reg.counter("x"), 10);
    }

    #[test]
    fn gauges_report_latest_value_only() {
        let mut reg = MetricsRegistry::new();
        reg.gauge_set("dirty", 3.0);
        reg.gauge_set("dirty", 5.0);
        let snap = reg.snapshot(0, SimTime::ZERO);
        assert_eq!(snap.gauge("dirty"), Some(5.0));
        assert_eq!(reg.gauge("missing"), None);
    }

    #[test]
    fn interning_the_same_name_twice_returns_one_pointer() {
        let a = intern_metric_name("test.intern.dedupe.alpha".to_string());
        let b = intern_metric_name("test.intern.dedupe.alpha".to_string());
        assert!(
            std::ptr::eq(a, b),
            "two interns of one name must be the same allocation"
        );
        let c = intern_metric_name("test.intern.dedupe.beta".to_string());
        assert!(!std::ptr::eq(a, c));
        assert_eq!(a, b);
    }

    #[test]
    fn counter_kinds_follow_the_first_write() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("added", 1);
        reg.counter_set("published", 5);
        assert_eq!(reg.counter_kind("added"), Some(CounterKind::Sum));
        assert_eq!(reg.counter_kind("published"), Some(CounterKind::Cumulative));
        assert_eq!(reg.counter_kind("never"), None);
    }

    #[test]
    fn merge_sums_added_counters_and_maxes_published_ones() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.counter_add("faults", 3);
        b.counter_add("faults", 4);
        a.counter_set("viyojit.epochs", 10);
        b.counter_set("viyojit.epochs", 7);
        a.gauge_set("dirty", 1.0);
        b.gauge_set("dirty", 2.0);
        a.histogram_record("lat", SimDuration::from_nanos(100));
        b.histogram_record("lat", SimDuration::from_nanos(300));
        a.merge_from(&b);
        assert_eq!(a.counter("faults"), 7);
        assert_eq!(a.counter("viyojit.epochs"), 10);
        assert_eq!(a.gauge("dirty"), Some(2.0));
        assert_eq!(a.histogram("lat").unwrap().len(), 2);
    }

    #[test]
    fn peek_snapshot_leaves_the_delta_baseline_alone() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("faults", 2);
        reg.snapshot(0, SimTime::ZERO);
        reg.counter_add("faults", 3);
        let peek = reg.peek_snapshot(1, SimTime::from_nanos(1));
        assert_eq!(peek.counter("faults").unwrap().delta, 3);
        let real = reg.snapshot(1, SimTime::from_nanos(1));
        assert_eq!(real.counter("faults").unwrap().delta, 3);
    }

    #[test]
    fn histograms_accumulate_samples() {
        let mut reg = MetricsRegistry::new();
        reg.histogram_record("lat", SimDuration::from_nanos(100));
        reg.histogram_record("lat", SimDuration::from_nanos(300));
        assert_eq!(reg.histogram("lat").unwrap().len(), 2);
        assert!(reg.histogram("none").is_none());
    }
}
