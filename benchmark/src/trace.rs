//! Host-clock spans recorded from outside the program.
//!
//! Operations are sampled by index, so the sample is the same on every
//! run of a seed. One in eight is timed at two nested boundaries,
//! `driver.op` ⊃ `kvstore.<call>`; another one in eight also at the third,
//! `viyojit.read|write`. The host clock costs about as much to read as an
//! `NvHeap` call takes, so the operations whose `NvHeap` calls are timed
//! contribute only those innermost spans to the aggregates: their outer
//! spans, stretched by two dozen clock reads, go to the trace file alone.
//! Spans are aggregated in memory; a bounded sample of raw spans is
//! written out when the pass ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use sim_clock::{Histogram, SimDuration};

use crate::store::HeapSpan;

/// One operation in this many is traced.
pub const SAMPLE_EVERY: u64 = 8;
/// Sampled operations whose raw spans are kept for the trace file.
const RAW_OPS: u64 = 256;

/// What timing one `NvHeap` call costs; measured by `drives::timer_cost`.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimerCost {
    /// The part that lands inside the recorded span.
    pub inner_ns: f64,
    /// The whole of it: what a timed call adds to the span around it.
    pub outer_ns: f64,
}

#[derive(Debug, Default)]
pub struct SpanAgg {
    pub count: u64,
    pub sum_ns: u64,
    pub hist: Histogram,
}

impl SpanAgg {
    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns += ns;
        self.hist.record(SimDuration::from_nanos(ns));
    }

    /// Mean duration, less the timer cost that lands inside a span.
    pub fn mean_ns(&self, inner_ns: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        (self.sum_ns as f64 / self.count as f64 - inner_ns).max(0.0)
    }

    pub fn percentile_ns(&self, p: f64, inner_ns: f64) -> f64 {
        (self.hist.percentile(p).as_nanos() as f64 - inner_ns).max(0.0)
    }
}

#[derive(Debug)]
pub struct Tracer {
    pub timer: TimerCost,
    /// Whether the second sample times `NvHeap` calls (else it is skipped).
    pub heap_spans: bool,
    pub spans: BTreeMap<&'static str, SpanAgg>,
    /// Operations timed at the outer two boundaries only.
    pub light_ops: u64,
    /// Operations whose `NvHeap` calls were timed as well.
    pub heavy_ops: u64,
    light_op_ns: u64,
    light_call_ns: u64,
    heap_call_ns: u64,
    heap_calls: u64,
    raw: String,
    next_span_id: u64,
}

impl Tracer {
    /// A tracer that corrects nothing until `timer` is set; aggregates hold
    /// raw sums, so calibrating after the pass is enough.
    pub fn new() -> Self {
        Tracer {
            timer: TimerCost::default(),
            heap_spans: true,
            spans: BTreeMap::new(),
            light_ops: 0,
            heavy_ops: 0,
            light_op_ns: 0,
            light_call_ns: 0,
            heap_call_ns: 0,
            heap_calls: 0,
            raw: String::new(),
            next_span_id: 0,
        }
    }

    fn raw_span(&mut self, op: u64, parent: Option<u64>, name: &str, span: (u64, u64)) -> u64 {
        let id = self.next_span_id;
        self.next_span_id += 1;
        if self.light_ops + self.heavy_ops <= RAW_OPS {
            let parent = parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                self.raw,
                "{{\"op\":{op},\"span\":{id},\"parent\":{parent},\"name\":\"{name}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                span.0, span.1
            );
        }
        id
    }

    fn aggregate(&mut self, name: &'static str, span: (u64, u64)) {
        self.spans.entry(name).or_default().record(span.1 - span.0);
    }

    /// Records one sampled operation: the whole-operation span, the one
    /// program call inside it and, where they were timed, the `NvHeap`
    /// calls inside that.
    pub fn record_op(
        &mut self,
        op: u64,
        call_name: &'static str,
        op_span: (u64, u64),
        call_span: (u64, u64),
        heap: Option<&[HeapSpan]>,
    ) {
        match heap {
            None => self.light_ops += 1,
            Some(_) => self.heavy_ops += 1,
        }
        let root = self.raw_span(op, None, "driver.op", op_span);
        let call = self.raw_span(op, Some(root), call_name, call_span);
        let Some(heap) = heap else {
            self.aggregate("driver.op", op_span);
            self.aggregate(call_name, call_span);
            self.light_op_ns += op_span.1 - op_span.0;
            self.light_call_ns += call_span.1 - call_span.0;
            return;
        };
        for h in heap {
            let name = if h.write {
                "viyojit.write"
            } else {
                "viyojit.read"
            };
            self.raw_span(op, Some(call), name, (h.start_ns, h.end_ns));
            self.aggregate(name, (h.start_ns, h.end_ns));
            self.heap_call_ns += h.end_ns - h.start_ns;
        }
        self.heap_calls += heap.len() as u64;
    }

    /// Records a span that has no parent (the shard workloads' calls).
    pub fn record_flat(&mut self, name: &'static str, ns: u64) {
        self.aggregate(name, (0, ns));
    }

    pub fn mean_ns(&self, name: &str) -> f64 {
        self.spans
            .get(name)
            .map_or(0.0, |s| s.mean_ns(self.timer.inner_ns))
    }

    pub fn percentile_ns(&self, name: &str, p: f64) -> f64 {
        self.spans
            .get(name)
            .map_or(0.0, |s| s.percentile_ns(p, self.timer.inner_ns))
    }

    /// Mean time per operation inside the program call, whatever it calls.
    pub fn call_ns_per_op(&self) -> f64 {
        if self.light_ops == 0 {
            return 0.0;
        }
        (self.light_call_ns as f64 / self.light_ops as f64 - self.timer.inner_ns).max(0.0)
    }

    /// Mean time per operation outside the program call: op generation,
    /// the virtual `app_op_base` charge and the oracle check. Timing the
    /// call puts one whole timer cost into the span around it.
    pub fn driver_self_ns_per_op(&self) -> f64 {
        if self.light_ops == 0 {
            return 0.0;
        }
        let outside = (self.light_op_ns - self.light_call_ns) as f64 / self.light_ops as f64;
        (outside - self.timer.outer_ns).max(0.0)
    }

    /// Mean time per operation inside `NvHeap` calls as the spans saw it.
    /// Reading the clock around a 50 ns call slows the call itself, so
    /// this overstates; the ledger uses a figure without inner timers.
    pub fn span_busy_ns_per_op(&self) -> f64 {
        if self.heavy_ops == 0 {
            return 0.0;
        }
        let work = self.heap_call_ns as f64 - self.heap_calls as f64 * self.timer.inner_ns;
        (work / self.heavy_ops as f64).max(0.0)
    }

    /// The bounded raw sample, one JSON object per line.
    pub fn raw_jsonl(&self) -> &str {
        &self.raw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_two_samples_feed_different_aggregates() {
        let mut t = Tracer::new();
        t.timer = TimerCost {
            inner_ns: 10.0,
            outer_ns: 30.0,
        };
        let heap = [
            HeapSpan {
                write: false,
                start_ns: 120,
                end_ns: 220,
            },
            HeapSpan {
                write: true,
                start_ns: 300,
                end_ns: 500,
            },
        ];
        t.record_op(0, "kvstore.get", (0, 5_000), (100, 4_700), Some(&heap));
        t.record_op(4, "kvstore.get", (0, 1_000), (100, 700), None);
        assert_eq!((t.heavy_ops, t.light_ops), (1, 1));
        // Only the operation without inner timers reaches the outer spans.
        assert_eq!(t.mean_ns("driver.op"), 990.0);
        assert_eq!(t.mean_ns("kvstore.get"), 590.0);
        assert_eq!(t.call_ns_per_op(), 590.0);
        assert_eq!(t.driver_self_ns_per_op(), 370.0);
        assert_eq!(t.mean_ns("viyojit.read"), 90.0);
        assert_eq!(t.mean_ns("viyojit.write"), 190.0);
        assert_eq!(t.span_busy_ns_per_op(), 280.0);
        // The trace file keeps the whole tree of both.
        assert_eq!(t.raw_jsonl().lines().count(), 6);
        assert!(t
            .raw_jsonl()
            .contains("\"parent\":1,\"name\":\"viyojit.write\""));
    }

    #[test]
    fn raw_sample_is_bounded() {
        let mut t = Tracer::new();
        for op in 0..RAW_OPS + 50 {
            t.record_op(op, "kvstore.get", (0, 10), (1, 9), None);
        }
        assert_eq!(t.raw_jsonl().lines().count() as u64, 2 * RAW_OPS);
        assert_eq!(t.light_ops, RAW_OPS + 50);
    }
}
