//! Property tests of the telemetry subsystem's two core guarantees:
//!
//! 1. **Zero observational cost** — attaching a recording telemetry
//!    handle (whatever sink later drains it) never changes virtual time
//!    or runtime counters relative to the same run with telemetry
//!    disabled (the NullSink-equivalent default).
//! 2. **Snapshot conservation** — per-epoch metric snapshot deltas sum
//!    exactly to the end-of-run counter totals.

use propcheck::{check, int, vec_of, weighted};
use sim_clock::{Clock, CostModel, SimDuration, SplitMix64};
use ssd_sim::SsdConfig;
use viyojit::{CsvSink, NvHeap, Telemetry, Viyojit, ViyojitConfig, ViyojitStats};

const PAGE: u64 = 4096;
const REGION_PAGES: u64 = 24;

/// One step of a random workload.
#[derive(Debug)]
enum Op {
    /// Dirty a page.
    Write { page: u64, fill: u8 },
    /// Let virtual time pass (epochs run, IOs retire).
    Idle { micros: u16 },
}

fn gen_op(rng: &mut SplitMix64) -> Op {
    match weighted(rng, &[4, 1]) {
        0 => Op::Write {
            page: int(rng, 0..REGION_PAGES),
            fill: rng.next_u64() as u8,
        },
        _ => Op::Idle {
            micros: int(rng, 1..1500) as u16,
        },
    }
}

/// Runs `ops` on a tight-budget Viyojit; returns the final virtual time,
/// the runtime counters, and the telemetry handle (disabled when
/// `record` is false).
fn run(ops: &[Op], record: bool) -> (u64, ViyojitStats, Telemetry) {
    let clock = Clock::new();
    let telemetry = if record {
        Telemetry::recording(clock.clone())
    } else {
        Telemetry::disabled()
    };
    let mut v = Viyojit::new(
        32,
        ViyojitConfig::builder(6)
            .total_pages(32)
            .build()
            .expect("valid property-test configuration"),
        clock.clone(),
        CostModel::calibrated(),
        SsdConfig::datacenter(),
    );
    v.attach_telemetry(telemetry.clone());
    let r = v.map(REGION_PAGES * PAGE).unwrap();
    for op in ops {
        match *op {
            Op::Write { page, fill } => {
                v.write(r, page * PAGE, &[fill; 64]).unwrap();
            }
            Op::Idle { micros } => {
                clock.advance(SimDuration::from_micros(micros as u64));
            }
        }
    }
    (clock.now().as_nanos(), v.stats(), telemetry)
}

const CASES: u32 = 32;

#[test]
fn recording_telemetry_never_perturbs_the_run() {
    check("recording_telemetry_never_perturbs_the_run", CASES, |rng| {
        let ops = vec_of(rng, 1..120, gen_op);
        let (plain_nanos, plain_stats, _) = run(&ops, false);
        let (recorded_nanos, recorded_stats, telemetry) = run(&ops, true);

        assert_eq!(
            plain_nanos, recorded_nanos,
            "virtual time diverged under recording telemetry"
        );
        assert_eq!(
            plain_stats, recorded_stats,
            "runtime counters diverged under recording telemetry"
        );

        // Draining through a CSV sink is pure observation too. Counters
        // publish at epoch boundaries, so the registry can only lag the
        // live stats, never exceed them.
        let mut sink = CsvSink::new(Vec::new());
        telemetry.drain_into(&mut sink);
        assert!(telemetry.counter("viyojit.faults_handled") <= recorded_stats.faults_handled);
    });
}

#[test]
fn epoch_snapshot_deltas_sum_to_final_totals() {
    check("epoch_snapshot_deltas_sum_to_final_totals", CASES, |rng| {
        let ops = vec_of(rng, 1..120, gen_op);
        let (_, _, telemetry) = run(&ops, true);
        // Close the run with one final snapshot so any counters advanced
        // since the last epoch boundary are captured.
        telemetry.snapshot_epoch(u64::MAX);
        let snaps = telemetry.snapshots();
        let last = snaps.last().expect("at least the closing snapshot");

        for (name, final_sample) in &last.counters {
            let summed: u64 = snaps
                .iter()
                .filter_map(|s| s.counter(name).map(|c| c.delta))
                .sum();
            assert_eq!(
                summed, final_sample.total,
                "snapshot deltas of {} do not sum to its total",
                name
            );
            assert_eq!(telemetry.counter(name), final_sample.total);
        }
    });
}
