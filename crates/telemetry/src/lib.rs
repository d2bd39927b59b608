//! Virtual-time telemetry for the Viyojit simulation stack.
//!
//! Four pieces, all driven by the shared virtual clock and free of
//! external dependencies (plain `std::fmt`, no serde):
//!
//! - **Trace events** ([`TraceEvent`]) — typed steps of the Fig. 6
//!   control flow (write faults, forced/proactive flush issue, flush
//!   completion, budget stalls, epoch walks, TLB flushes, SSD traffic,
//!   battery recalculations), stamped with [`sim_clock::SimTime`] and
//!   recorded into a bounded ring buffer ([`TraceRing`]).
//! - **Metrics** ([`MetricsRegistry`]) — named counters/gauges/histograms
//!   into which `ViyojitStats`, SSD wear/queue state, and battery state
//!   publish, with per-epoch snapshotting ([`EpochSnapshot`]) whose
//!   counter deltas sum back to the end-of-run totals. A handle holds
//!   two instances of this one type: the virtual-plane registry above,
//!   and a wall-plane registry for host-time facts
//!   ([`Telemetry::record_wall`], [`Telemetry::set_wall_counter`]). They
//!   share every write and merge rule; what differs is who may read
//!   them — only the exporter and [`Telemetry::merged_wall_registry`]
//!   see the wall plane, never the ring, snapshots, drains or flight
//!   dumps, which must stay byte-identical between runs.
//! - **Sinks** ([`Sink`]) — [`CsvSink`] (the historical figure layout,
//!   byte for byte), [`JsonlSink`], and [`NullSink`], plus the shared
//!   [`Report`] writer used by every bench binary.
//! - **Profiler** ([`Profiler`]) — causal span attribution of every
//!   virtual nanosecond to a [`CostClass`], with an exact conservation
//!   invariant and folded-stack (flamegraph) export.
//!
//! # Determinism
//!
//! Telemetry observes the clock; it never advances it. A disabled
//! [`Telemetry`] handle ([`Telemetry::disabled`], the default) skips even
//! event construction — the recording closure is not called — so runs
//! with telemetry off are bit-identical to uninstrumented runs, and runs
//! with it on differ only in what is *recorded*, never in virtual time.
//!
//! # Example
//!
//! ```
//! use sim_clock::{Clock, SimDuration};
//! use telemetry::{Telemetry, TraceEvent};
//!
//! let clock = Clock::new();
//! let telemetry = Telemetry::recording(clock.clone());
//! clock.advance(SimDuration::from_micros(3));
//! telemetry.emit(|| TraceEvent::WriteFault { page: 42 });
//! telemetry.metrics(|m| m.counter_add("faults", 1));
//!
//! let events = telemetry.events();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].at.as_micros(), 3);
//! ```

mod event;
mod export;
mod flight;
mod metrics;
mod profile;
mod report;
mod ring;
mod sink;

pub use event::{FaultKind, FlushReason, TraceEvent, TracedEvent};
pub use export::{render_prometheus, spawn_exporter, ExporterConfig, ExporterHandle};
pub use flight::FlightRecorder;
pub use metrics::{
    intern_metric_name, CounterKind, CounterSample, EpochSnapshot, MetricsRegistry,
    TenantMetricNames,
};
pub use profile::{fnv1a_64, CostClass, ProfileReport, Profiler, RunMeta, SpanGuard, ROOT_FRAME};
pub use report::Report;
pub use ring::{TraceRing, DEFAULT_RING_CAPACITY};
pub use sink::{csv_stdout, CsvSink, JsonlSink, NullSink, Sink};

use std::sync::{Arc, Mutex};
use std::time::Instant;

use sim_clock::{Clock, SimDuration, SimTime};

/// Tuning knobs for a recording [`Telemetry`] handle.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// Maximum trace events retained (oldest evicted beyond this).
    pub ring_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            ring_capacity: DEFAULT_RING_CAPACITY,
        }
    }
}

#[derive(Debug)]
struct Recorder {
    clock: Clock,
    ring: TraceRing,
    registry: MetricsRegistry,
    snapshots: Vec<EpochSnapshot>,
    /// Ring capacity this recorder was built with, inherited by shards.
    ring_capacity: usize,
    /// The wall plane: host-time histograms and host-side totals in a
    /// second registry that is never snapshotted, drained or dumped.
    wall: MetricsRegistry,
    /// Telemetry shards forked off this recorder ([`Telemetry::fork_shard`]),
    /// in fork order. Read paths merge them on demand; the write path of a
    /// shard touches only its own (uncontended) mutex.
    shards: Vec<Arc<Mutex<Recorder>>>,
}

impl Recorder {
    fn new(clock: Clock, ring_capacity: usize) -> Recorder {
        Recorder {
            clock,
            ring: TraceRing::new(ring_capacity),
            registry: MetricsRegistry::new(),
            snapshots: Vec::new(),
            ring_capacity,
            wall: MetricsRegistry::new(),
            shards: Vec::new(),
        }
    }
}

/// Shared, cheaply clonable instrumentation handle.
///
/// Every instrumented component (`Viyojit`, the SSD, the battery
/// governor) holds a clone; all clones record into the same ring and
/// registry. The default handle is disabled and zero-cost: `emit` does
/// not even build the event.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    recorder: Option<Arc<Mutex<Recorder>>>,
}

impl Telemetry {
    /// A disabled handle: records nothing, costs one branch per hook.
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// A recording handle with default configuration.
    pub fn recording(clock: Clock) -> Self {
        Telemetry::with_config(clock, TelemetryConfig::default())
    }

    /// A recording handle with explicit configuration.
    pub fn with_config(clock: Clock, config: TelemetryConfig) -> Self {
        Telemetry {
            recorder: Some(Arc::new(Mutex::new(Recorder::new(
                clock,
                config.ring_capacity,
            )))),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// Forks a per-thread telemetry shard driven by `clock`.
    ///
    /// The shard is a full recording handle — its own trace ring and
    /// both registries — whose write path locks only its own mutex, so a
    /// worker thread recording into its shard never contends with other
    /// workers or with the parent. The parent keeps
    /// the shard registered (in fork order) and its read paths
    /// ([`Telemetry::events`], [`Telemetry::counter`],
    /// [`Telemetry::snapshots`], [`Telemetry::drain_into`], the exporter)
    /// merge all shards on demand. Forking from a disabled handle
    /// returns a disabled handle.
    pub fn fork_shard(&self, clock: Clock) -> Telemetry {
        let Some(recorder) = &self.recorder else {
            return Telemetry::disabled();
        };
        let mut rec = recorder.lock().expect("telemetry poisoned");
        let child = Arc::new(Mutex::new(Recorder::new(clock, rec.ring_capacity)));
        rec.shards.push(Arc::clone(&child));
        Telemetry {
            recorder: Some(child),
        }
    }

    /// The one read-side walk: folds `f` over this handle's recorder
    /// (rank 0), then every forked shard's in fork order (rank 1..), each
    /// under its own lock and never two at once. `None` when disabled.
    fn fold<A>(&self, init: A, mut f: impl FnMut(A, usize, &Recorder) -> A) -> Option<A> {
        let recorder = self.recorder.as_ref()?;
        let (mut acc, shards) = {
            let rec = recorder.lock().expect("telemetry poisoned");
            (f(init, 0, &rec), rec.shards.clone())
        };
        for (i, shard) in shards.iter().enumerate() {
            acc = f(acc, i + 1, &shard.lock().expect("telemetry poisoned"));
        }
        Some(acc)
    }

    /// One plane's registry merged parent-then-shards under the per-kind
    /// rules of [`MetricsRegistry::merge_from`].
    fn merged(&self, plane: impl Fn(&Recorder) -> &MetricsRegistry) -> Option<MetricsRegistry> {
        self.fold(MetricsRegistry::new(), |mut merged, _, rec| {
            merged.merge_from(plane(rec));
            merged
        })
    }

    /// Records an event stamped with the current virtual time.
    ///
    /// The closure runs only when recording, so payload construction is
    /// free on the disabled path.
    #[inline]
    pub fn emit(&self, event: impl FnOnce() -> TraceEvent) {
        if let Some(recorder) = &self.recorder {
            let mut rec = recorder.lock().expect("telemetry poisoned");
            let at = rec.clock.now();
            let seq = rec.ring.recorded();
            let event = event();
            rec.ring.push(TracedEvent { at, seq, event });
        }
    }

    /// Records an event stamped with an explicit instant (e.g. an SSD
    /// completion scheduled in the future of the submitting call).
    #[inline]
    pub fn emit_at(&self, at: SimTime, event: impl FnOnce() -> TraceEvent) {
        if let Some(recorder) = &self.recorder {
            let mut rec = recorder.lock().expect("telemetry poisoned");
            let seq = rec.ring.recorded();
            let event = event();
            rec.ring.push(TracedEvent { at, seq, event });
        }
    }

    /// Runs `f` against the metrics registry when recording.
    #[inline]
    pub fn metrics<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> Option<R> {
        self.recorder.as_ref().map(|recorder| {
            let mut rec = recorder.lock().expect("telemetry poisoned");
            f(&mut rec.registry)
        })
    }

    /// Closes an epoch: snapshots the registry at the current virtual
    /// time and appends it to the snapshot log.
    ///
    /// Ring overflow is surfaced here: once any event has been evicted,
    /// every subsequent snapshot carries a `telemetry.dropped_events`
    /// counter so the loss is visible in reports and traces.
    pub fn snapshot_epoch(&self, epoch: u64) {
        if let Some(recorder) = &self.recorder {
            let mut rec = recorder.lock().expect("telemetry poisoned");
            let at = rec.clock.now();
            let dropped = rec.ring.dropped();
            if dropped > 0 {
                rec.registry
                    .counter_set("telemetry.dropped_events", dropped);
            }
            let snap = rec.registry.snapshot(epoch, at);
            rec.snapshots.push(snap);
        }
    }

    /// Copies out the retained trace events, oldest first.
    ///
    /// With telemetry shards forked, the per-shard rings are merged into
    /// one stream ordered by `(virtual time, fork rank, shard seq)` and
    /// re-sequenced so the merged stream keeps the strictly-increasing
    /// `seq` invariant the trace checker enforces. Without shards this is
    /// exactly the handle's own ring, byte for byte.
    pub fn events(&self) -> Vec<TracedEvent> {
        let mut shards = 0;
        let mut keyed = self
            .fold(Vec::new(), |mut keyed, rank, rec| {
                shards = rank;
                keyed.extend(rec.ring.iter().map(|e| (rank, *e)));
                keyed
            })
            .unwrap_or_default();
        if shards > 0 {
            // (at, fork rank, local seq) is a unique total order, so the
            // merged stream is deterministic for a deterministic workload.
            keyed.sort_by_key(|&(rank, e)| (e.at, rank, e.seq));
            for (i, (_, event)) in keyed.iter_mut().enumerate() {
                event.seq = i as u64;
            }
        }
        keyed.into_iter().map(|(_, event)| event).collect()
    }

    /// This handle's own retained events, without merging shards.
    ///
    /// A worker's flight-recorder dump uses this: the per-thread ring is
    /// deterministic for a deterministic workload even when sibling
    /// threads are at nondeterministic points of their own timelines.
    pub fn local_events(&self) -> Vec<TracedEvent> {
        match &self.recorder {
            Some(recorder) => recorder.lock().expect("telemetry poisoned").ring.to_vec(),
            None => Vec::new(),
        }
    }

    /// Events evicted because a ring was full, summed across shards.
    pub fn dropped_events(&self) -> u64 {
        self.fold(0, |n, _, rec| n + rec.ring.dropped())
            .unwrap_or(0)
    }

    /// Total events ever recorded, retained or not, across shards.
    pub fn recorded_events(&self) -> u64 {
        self.fold(0, |n, _, rec| n + rec.ring.recorded())
            .unwrap_or(0)
    }

    /// Copies out all per-epoch snapshots taken so far: this handle's
    /// own, then each shard's, in fork order.
    pub fn snapshots(&self) -> Vec<EpochSnapshot> {
        self.fold(Vec::new(), |mut snaps, _, rec| {
            snaps.extend(rec.snapshots.iter().cloned());
            snaps
        })
        .unwrap_or_default()
    }

    /// Current cumulative value of a counter (zero when disabled),
    /// merged across shards by the counter's [`CounterKind`].
    pub fn counter(&self, name: &str) -> u64 {
        self.merged_registry().map_or(0, |m| m.counter(name))
    }

    /// A merged view of this registry plus every shard's, applying the
    /// per-kind merge rules ([`MetricsRegistry::merge_from`]).
    pub fn merged_registry(&self) -> Option<MetricsRegistry> {
        self.merged(|rec| &rec.registry)
    }

    /// The wall plane merged the same way: host-time histograms add
    /// bucket-wise, republished host-side totals keep the maximum.
    pub fn merged_wall_registry(&self) -> Option<MetricsRegistry> {
        self.merged(|rec| &rec.wall)
    }

    /// Starts a wall-clock measurement, or `None` when disabled (no
    /// syscall on the disabled path).
    pub fn wall_start(&self) -> Option<Instant> {
        self.recorder.as_ref().map(|_| Instant::now())
    }

    /// Records the host time elapsed since a [`Telemetry::wall_start`]
    /// into the wall-plane histogram `name`.
    ///
    /// The wall plane never reaches the trace ring, snapshots, drains or
    /// flight dumps, so virtual-time output stays byte-identical whether
    /// or not the host is slow.
    pub fn record_wall(&self, name: &'static str, start: Option<Instant>) {
        if let (Some(recorder), Some(start)) = (&self.recorder, start) {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            recorder
                .lock()
                .expect("telemetry poisoned")
                .wall
                .histogram_record(name, SimDuration::from_nanos(nanos));
        }
    }

    /// Publishes a wall-plane counter: a named monotone host-side total
    /// (e.g. the bitmap scan count) with [`CounterKind::Cumulative`]
    /// semantics, so republishing the same process-global figure from
    /// several shards never inflates it. How often the host scanned is
    /// as invisible to virtual-time output as how long it took.
    pub fn set_wall_counter(&self, name: &'static str, value: u64) {
        if let Some(recorder) = &self.recorder {
            recorder
                .lock()
                .expect("telemetry poisoned")
                .wall
                .counter_set(name, value);
        }
    }

    /// The current virtual instant of this handle's clock, when enabled.
    pub fn now(&self) -> Option<SimTime> {
        self.recorder
            .as_ref()
            .map(|r| r.lock().expect("telemetry poisoned").clock.now())
    }

    /// Renders the snapshot a `snapshot_epoch(epoch)` would take right
    /// now — this handle's own registry only, at its own clock — without
    /// advancing the delta baseline or appending to the snapshot log.
    pub fn peek_snapshot(&self, epoch: u64) -> Option<EpochSnapshot> {
        self.recorder.as_ref().map(|recorder| {
            let rec = recorder.lock().expect("telemetry poisoned");
            let at = rec.clock.now();
            rec.registry.peek_snapshot(epoch, at)
        })
    }

    /// Streams every retained event, then every snapshot, into a sink.
    ///
    /// With shards, events are the merged re-sequenced stream of
    /// [`Telemetry::events`] and snapshots follow in
    /// parent-then-fork-order; without shards the output is byte-identical
    /// to the historical single-recorder drain. If any ring overflowed, a
    /// note reporting the total evicted-event count precedes the
    /// snapshots instead of the loss staying silent.
    pub fn drain_into(&self, sink: &mut dyn Sink) {
        if self.recorder.is_some() {
            for event in self.events() {
                sink.event(&event);
            }
            let dropped = self.dropped_events();
            if dropped > 0 {
                sink.note(&format!(
                    "telemetry: trace ring overflowed, {dropped} oldest events dropped"
                ));
            }
            for snap in self.snapshots() {
                sink.snapshot(&snap);
            }
        }
        sink.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_clock::SimDuration;

    #[test]
    fn disabled_handle_skips_event_construction() {
        let telemetry = Telemetry::disabled();
        let mut built = false;
        telemetry.emit(|| {
            built = true;
            TraceEvent::TlbFlush { epoch: 0 }
        });
        assert!(!built);
        assert!(!telemetry.is_enabled());
        assert!(telemetry.events().is_empty());
        assert_eq!(telemetry.metrics(|m| m.counter("x")), None);
    }

    #[test]
    fn clones_share_one_recorder() {
        let clock = Clock::new();
        let a = Telemetry::recording(clock.clone());
        let b = a.clone();
        clock.advance(SimDuration::from_nanos(5));
        a.emit(|| TraceEvent::WriteFault { page: 1 });
        b.emit(|| TraceEvent::FlushComplete { page: 1 });
        let events = a.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[1].at.as_nanos(), 5);
    }

    #[test]
    fn snapshot_epochs_accumulate_in_order() {
        let clock = Clock::new();
        let telemetry = Telemetry::recording(clock.clone());
        telemetry.metrics(|m| m.counter_add("faults", 2));
        telemetry.snapshot_epoch(0);
        telemetry.metrics(|m| m.counter_add("faults", 3));
        clock.advance(SimDuration::from_micros(1));
        telemetry.snapshot_epoch(1);
        let snaps = telemetry.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].counter("faults").unwrap().delta, 2);
        assert_eq!(snaps[1].counter("faults").unwrap().delta, 3);
        assert_eq!(snaps[1].counter("faults").unwrap().total, 5);
        assert_eq!(snaps[1].at.as_micros(), 1);
    }

    #[test]
    fn forked_shards_merge_on_demand() {
        let clock = Clock::new();
        let parent = Telemetry::recording(clock.clone());
        let shard_clock_a = Clock::new();
        let shard_clock_b = Clock::new();
        let a = parent.fork_shard(shard_clock_a.clone());
        let b = parent.fork_shard(shard_clock_b.clone());

        // Sum-kind counters add across shards; cumulative take the max.
        a.metrics(|m| m.counter_add("parallel.round_timeouts", 1));
        b.metrics(|m| m.counter_add("parallel.round_timeouts", 2));
        a.metrics(|m| m.counter_set("viyojit.epochs", 9));
        b.metrics(|m| m.counter_set("viyojit.epochs", 4));
        assert_eq!(parent.counter("parallel.round_timeouts"), 3);
        assert_eq!(parent.counter("viyojit.epochs"), 9);

        // Events merge by (at, fork rank, seq) and re-sequence.
        shard_clock_a.advance(SimDuration::from_nanos(20));
        shard_clock_b.advance(SimDuration::from_nanos(10));
        a.emit(|| TraceEvent::WriteFault { page: 1 });
        b.emit(|| TraceEvent::WriteFault { page: 2 });
        clock.advance(SimDuration::from_nanos(10));
        parent.emit(|| TraceEvent::TlbFlush { epoch: 0 });
        let events = parent.events();
        assert_eq!(events.len(), 3);
        // at=10: parent (rank 0) before shard b (rank 2); then at=20 shard a.
        assert_eq!(events[0].event, TraceEvent::TlbFlush { epoch: 0 });
        assert_eq!(events[1].event, TraceEvent::WriteFault { page: 2 });
        assert_eq!(events[2].event, TraceEvent::WriteFault { page: 1 });
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );

        // Shard handles stay plain recording handles for their owner.
        assert_eq!(a.local_events().len(), 1);
        assert_eq!(parent.recorded_events(), 3);

        // The wall plane merges by the same rules: histograms add
        // bucket-wise, and a process-global total republished (staler)
        // from a shard keeps the max instead of inflating.
        a.record_wall("viyojit.wall.step_nanos", a.wall_start());
        a.record_wall("viyojit.wall.step_nanos", a.wall_start());
        b.record_wall("viyojit.wall.step_nanos", b.wall_start());
        parent.set_wall_counter("bitmap.dispatch.skip", 25);
        a.set_wall_counter("bitmap.dispatch.skip", 20);
        b.set_wall_counter("bitmap.dispatch.dense", 7);
        let wall = parent.merged_wall_registry().unwrap();
        let step = wall.histogram("viyojit.wall.step_nanos").unwrap();
        assert_eq!(step.len(), 3);
        assert_eq!(step.bucket_counts().map(|(_, c)| c).sum::<u64>(), 3);
        let shard_sums = [&a, &b].map(|t| {
            let own = t.merged_wall_registry().unwrap();
            own.histogram("viyojit.wall.step_nanos")
                .unwrap()
                .sum_nanos()
        });
        assert_eq!(step.sum_nanos(), shard_sums.iter().sum::<u128>());
        assert_eq!(
            wall.counters().collect::<Vec<_>>(),
            vec![("bitmap.dispatch.dense", 7), ("bitmap.dispatch.skip", 25)]
        );
    }

    #[test]
    fn shardless_reads_are_the_plain_single_recorder_paths() {
        let clock = Clock::new();
        let telemetry = Telemetry::recording(clock.clone());
        telemetry.emit(|| TraceEvent::WriteFault { page: 3 });
        telemetry.metrics(|m| m.counter_add("faults", 1));
        assert_eq!(telemetry.events(), telemetry.local_events());
        assert_eq!(telemetry.counter("faults"), 1);
        let disabled = Telemetry::disabled();
        assert!(!disabled.fork_shard(clock).is_enabled());
        assert!(disabled.merged_registry().is_none());
        assert!(disabled.merged_wall_registry().is_none());
    }

    #[test]
    fn shard_snapshots_follow_parent_in_fork_order() {
        let clock = Clock::new();
        let parent = Telemetry::recording(clock.clone());
        let shard = parent.fork_shard(Clock::new());
        shard.metrics(|m| m.counter_add("s", 1));
        shard.snapshot_epoch(7);
        parent.metrics(|m| m.counter_add("p", 1));
        parent.snapshot_epoch(1);
        let snaps = parent.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].epoch, 1);
        assert_eq!(snaps[1].epoch, 7);
    }

    #[test]
    fn wall_histograms_merge_and_stay_out_of_traces() {
        let clock = Clock::new();
        let parent = Telemetry::recording(clock.clone());
        let shard = parent.fork_shard(Clock::new());
        parent.record_wall("viyojit.wall.step_nanos", parent.wall_start());
        shard.record_wall("viyojit.wall.step_nanos", shard.wall_start());
        shard.record_wall("viyojit.wall.emergency_nanos", shard.wall_start());
        shard.set_wall_counter("bitmap.dispatch.skip", 3);
        let merged = parent.merged_wall_registry().unwrap();
        let step = merged.histogram("viyojit.wall.step_nanos");
        assert_eq!(step.map(|h| h.len()), Some(2));
        // Nothing wall-clock leaks into the virtual-time surfaces.
        assert!(parent.events().is_empty());
        assert!(parent.snapshots().is_empty());
        assert_eq!(parent.merged_registry().unwrap().counters().count(), 0);
        let mut sink = CsvSink::new(Vec::new());
        parent.drain_into(&mut sink);
        assert!(String::from_utf8(sink.into_inner()).unwrap().is_empty());
        // ... nor into a flight dump, which snapshots the virtual plane.
        let dir = std::env::temp_dir().join(format!("viyojit-wall-dump-{}", std::process::id()));
        let meta = RunMeta::new("wall_test", "Viyojit", "", None);
        let flight = FlightRecorder::new(&dir, meta).unwrap();
        let dump = std::fs::read_to_string(flight.dump("w", "panic", 0, &shard).unwrap()).unwrap();
        assert!(dump.contains("\"type\":\"snapshot\""), "{dump}");
        assert!(!dump.contains("viyojit.wall.") && !dump.contains("bitmap.dispatch."));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(Telemetry::disabled().wall_start(), None);
    }

    #[test]
    fn drain_streams_events_then_snapshots() {
        let clock = Clock::new();
        let telemetry = Telemetry::recording(clock);
        telemetry.emit(|| TraceEvent::WriteFault { page: 3 });
        telemetry.metrics(|m| m.counter_add("faults", 1));
        telemetry.snapshot_epoch(0);
        let mut sink = CsvSink::new(Vec::new());
        telemetry.drain_into(&mut sink);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(text.starts_with("trace,0,0,write_fault,page=3\n"));
        assert!(text.contains("snapshot,0,0,"));
    }
}
