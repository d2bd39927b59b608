//! Every metric the benchmark reports, by name, unit and direction — the
//! one table `BENCHMARK.json`, the result line and `compare` all read.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the simulator sees, on both clocks. Each applies to all
/// six workloads and is never zero on any of them; the metrics that cannot
/// meet that (latency percentiles, paper overhead and fidelity error, the
/// failure-flush time) are reported by the traced pass instead.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("host_ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.05),
    e2e("virt_ops_per_s", "1/s", Better::Higher, 0.01),
    e2e("battery_need_pct", "%", Better::Lower, 0.25),
    e2e("ssd_bytes_per_nv_byte", "B/B", Better::Lower, 0.15),
];

/// Layer by layer; a metric that does not apply to a workload reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // The harness itself.
    lo("driver.gen_ns_per_op", "ns"),
    lo("driver.op_p50_ns", "ns"),
    lo("driver.op_p999_ns", "ns"),
    lo("driver.slice_spread_pct", "%"),
    lo("trace.timer_ns", "ns"),
    lo("trace.overhead_pct", "%"),
    lo("ledger.unattributed_share", "share"),
    // End-to-end figures that apply to some workloads only.
    lo("kv.virt_p50_us", "us"),
    lo("kv.virt_p99_us", "us"),
    hi("kv.virt_latency_samples", "count"),
    lo("paper.virt_overhead_pct", "%"),
    lo("paper.fidelity_err_pp", "pp"),
    // kvstore (spans).
    lo("kvstore.get.ns_per_call", "ns"),
    lo("kvstore.set.ns_per_call", "ns"),
    lo("kvstore.delete.ns_per_call", "ns"),
    lo("kvstore.scan.ns_per_call", "ns"),
    lo("kvstore.above_nvheap_ns_per_op", "ns"),
    lo("kvstore.est_self_ns_per_op", "ns"),
    // pheap (counts, drives).
    lo("pheap.nvheap_calls_per_op", "count"),
    lo("pheap.nvheap_bytes_per_op", "B"),
    lo("pheap.read8.self_ns", "ns"),
    lo("pheap.write8.self_ns", "ns"),
    lo("pheap.write976.self_ns", "ns"),
    lo("pheap.alloc_free.self_ns", "ns"),
    lo("pheap.alloc_free.nvheap_calls", "count"),
    lo("pheap.est_self_ns_per_op", "ns"),
    // viyojit (spans, counts, drives).
    lo("viyojit.read.ns_per_call", "ns"),
    lo("viyojit.write.ns_per_call", "ns"),
    lo("viyojit.write.p50_ns", "ns"),
    lo("viyojit.write.p999_ns", "ns"),
    lo("viyojit.busy_ns_per_op", "ns"),
    lo("viyojit.est_self_ns_per_op", "ns"),
    lo("viyojit.call_overhead_ns", "ns"),
    lo("viyojit.snapshot_copy_ns", "ns"),
    lo("viyojit.faults_per_kop", "count"),
    lo("viyojit.pages_dirtied_per_kop", "count"),
    lo("viyojit.forced_flushes_per_kop", "count"),
    lo("viyojit.proactive_flushes_per_kop", "count"),
    hi("viyojit.proactive_share", "share"),
    lo("viyojit.budget_stalls_per_kop", "count"),
    lo("viyojit.stall_virt_share", "share"),
    lo("viyojit.in_flight_collisions_per_kop", "count"),
    lo("viyojit.epochs_per_kop", "count"),
    lo("viyojit.walk_touches_per_epoch", "count"),
    lo("viyojit.dirty_at_failure_pages", "count"),
    lo("viyojit.failure_flush_ms", "ms"),
    lo("viyojit.dirtyset.cycle_ns", "ns"),
    lo("viyojit.selector.cycle_ns", "ns"),
    lo("viyojit.history.touch_ns", "ns"),
    lo("viyojit.power_failure.host_ms", "ms"),
    lo("viyojit.recover.host_ms", "ms"),
    lo("viyojit.shard.write.ns_per_call", "ns"),
    lo("viyojit.shard.step.ns_per_call", "ns"),
    lo("viyojit.shard.sync.ns_per_call", "ns"),
    lo("viyojit.shard.rebalances", "count"),
    hi("viyojit.shard.par_over_seq", "ratio"),
    // mem-sim (counts, drives).
    lo("mem-sim.accesses_per_op", "count"),
    hi("mem-sim.tlb_hit_rate", "share"),
    lo("mem-sim.tlb_flushes_per_kop", "count"),
    lo("mem-sim.write_faults_per_kop", "count"),
    lo("mem-sim.pte_dirtied_per_kop", "count"),
    lo("mem-sim.read.ns_per_call", "ns"),
    lo("mem-sim.write.ns_per_call", "ns"),
    lo("mem-sim.fault_cycle.ns", "ns"),
    lo("mem-sim.walk.ns_per_page", "ns"),
    lo("mem-sim.dispatch.skip", "count"),
    lo("mem-sim.dispatch.dense", "count"),
    lo("mem-sim.dispatch.unrolled", "count"),
    lo("mem-sim.est_ns_per_op", "ns"),
    // ssd-sim (counts, drive).
    lo("ssd-sim.writes_per_kop", "count"),
    lo("ssd-sim.bytes_written", "B"),
    lo("ssd-sim.write_errors", "count"),
    lo("ssd-sim.erases", "count"),
    lo("ssd-sim.submit.ns_per_call", "ns"),
    lo("ssd-sim.est_ns_per_op", "ns"),
    // sim-clock (drive).
    lo("sim-clock.advance.ns_per_call", "ns"),
    // Observers, attached in passes of their own.
    lo("telemetry.on_overhead_pct", "%"),
    lo("telemetry.profiler_overhead_pct", "%"),
    lo("telemetry.dropped_events", "count"),
    // Where the virtual time went, from the existing `Profiler`.
    lo("virt.wp_trap_share", "share"),
    lo("virt.tlb_miss_share", "share"),
    lo("virt.tlb_flush_share", "share"),
    lo("virt.pte_update_share", "share"),
    lo("virt.pte_walk_share", "share"),
    lo("virt.dram_access_share", "share"),
    lo("virt.epoch_walk_share", "share"),
    lo("virt.copy_out_io_share", "share"),
    lo("virt.budget_stall_share", "share"),
    lo("virt.ssd_queue_wait_share", "share"),
    lo("virt.ssd_transfer_share", "share"),
    hi("virt.app_share", "share"),
    hi("virt.conserved", "bool"),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Measured values by metric name.
#[derive(Debug, Clone, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(find(name).is_some(), "{name} is not a declared metric");
        assert!(value.is_finite(), "{name} measured {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Printed, not a metric: simulated statistics that must repeat exactly.
    pub virt_digest: String,
    /// Free-form `name: text` lines for the table.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    pub fn defs(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// A run is correct when nothing failed and, where the profiler ran,
    /// it accounted for every virtual nanosecond.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.values.get("virt.conserved") != Some(0.0)
    }

    /// The value of a metric of this run's set; end-to-end metrics must
    /// all be measured, per-layer ones read 0 where they do not apply.
    pub fn value(&self, def: &MetricDef) -> f64 {
        match self.values.get(def.name) {
            Some(v) => v,
            None if self.traced => 0.0,
            None => panic!("end-to-end metric {} was not measured", def.name),
        }
    }

    /// The one-line result the pipeline reads.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .defs()
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_number(self.value(d)),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn table(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "workload {workload}");
        for d in self.defs() {
            let _ = writeln!(
                out,
                "  {:<40} {:>18} {}",
                d.name,
                json_number(self.value(d)),
                d.unit
            );
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "  {:<40} {:>18} ({} of {})",
            "failed_share", share, self.failed, self.attempted
        );
        let _ = writeln!(out, "  {:<40} {:>18}", "virt_digest", self.virt_digest);
        for (name, text) in &self.notes {
            let _ = writeln!(out, "  {name:<40} {text}");
        }
        out
    }
}

/// Shortest decimal that round-trips, never `NaN`/`inf` (checked on entry).
pub fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The text of `BENCHMARK.json`, generated from the tables above.
pub fn manifest(run_seconds: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {run_seconds},");
    let rows = |defs: &[MetricDef]| -> String {
        defs.iter()
            .map(|d| {
                let bound = d
                    .bound
                    .map_or(String::new(), |b| format!(", \"bound\": {b}"));
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                    d.name,
                    d.unit,
                    d.better.name()
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let workloads: Vec<String> = workload::all()
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let _ = writeln!(out, "  \"workloads\": [\n{}\n  ],", workloads.join(",\n"));
    let _ = writeln!(out, "  \"end_to_end\": [\n{}\n  ],", rows(END_TO_END));
    let _ = writeln!(out, "  \"per_layer\": [\n{}\n  ]", rows(PER_LAYER));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn the_tables_meet_the_manifest_limits() {
        let mut names = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(names.insert(d.name), "{} is declared twice", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                d.unit
            );
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );

        let workloads = workload::all();
        assert!((2..=8).contains(&workloads.len()));
        for w in &workloads {
            assert!(valid_name(w.name) && names.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
            assert!(!w.why.contains('"') && !w.why.contains('\\'));
        }
    }

    #[test]
    fn the_committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest(crate::RUN_SECONDS));
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn result_lines_carry_exactly_the_declared_metrics() {
        let mut values = Values::default();
        for d in END_TO_END {
            values.set(d.name, 1.5);
        }
        let mut outcome = Outcome {
            traced: false,
            attempted: 10,
            failed: 0,
            values,
            virt_digest: String::new(),
            notes: Vec::new(),
        };
        let line = outcome.result_line();
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));

        outcome.traced = true;
        outcome.values = Values::default();
        outcome.values.set("virt.conserved", 0.0);
        let line = outcome.result_line();
        assert!(
            line.starts_with("{\"correct\": false"),
            "an unconserved profile fails the run"
        );
        assert_eq!(line.matches("\"value\"").count(), PER_LAYER.len());
        assert!(line.contains("\"kvstore.get.ns_per_call\": {\"value\": 0.0, \"unit\": \"ns\"}"));
    }

    #[test]
    fn numbers_print_with_all_their_digits() {
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(1234567.891), "1234567.891");
    }
}
