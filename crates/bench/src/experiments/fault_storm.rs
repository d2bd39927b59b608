//! Emergency-flush survival under fault injection: sweeps SSD/battery
//! fault rate x battery safety margin and reports the probability that
//! the executed emergency flush completes (no pages lost).
//!
//! Where `shutdown_time` measures how *long* a clean emergency flush
//! takes, this storm asks whether it *finishes at all* when the SSD
//! throws transient write errors, latency spikes, and device stalls while
//! the battery under-delivers its gauge. Every run is reproducible from
//! its seed: rerun with the same seed and the report is bit-identical
//! (the final section proves it in-run).
//!
//! Ten seeds per cell; `--quick` runs five, as the golden and CI do.

use crate::profile::ProfileCapture;
use battery_sim::PowerModel;
use mem_sim::PAGE_SIZE;
use sim_clock::{Clock, CostModel};
use ssd_sim::SsdConfig;
use telemetry::{note, row, Report};
use viyojit::{
    FaultConfig, FaultPlan, FlushOutcome, NvHeap, PowerFailureReport, Viyojit, ViyojitConfig,
};

const TOTAL_PAGES: usize = 4_096;
const BUDGET_PAGES: u64 = 256;
/// Per-write fault probabilities. A 2 ms device stall costs ~235x one
/// page's conservative drain time, so even low-looking rates demand large
/// margins — the sweep is tuned to straddle that survival frontier.
const FAULT_RATES: [f64; 5] = [0.0, 0.002, 0.005, 0.01, 0.02];
const MARGINS: [f64; 4] = [1.0, 2.0, 4.0, 8.0];

/// One storm run: dirty up to the budget, pull the plug, race the flush
/// on a battery of `margin` full-budget flushes.
fn run_once(fault_rate: f64, margin: f64, seed: u64) -> PowerFailureReport {
    let power = PowerModel::datacenter_server(0.064);
    let battery = super::margin_battery(BUDGET_PAGES, margin);
    let clock = Clock::new();
    let capture = ProfileCapture::from_env(
        &format!("r{fault_rate}-m{margin}-s{seed}"),
        "Viyojit",
        &format!("rate={fault_rate} margin={margin} pages={TOTAL_PAGES} budget={BUDGET_PAGES}"),
        Some(seed),
        &clock,
    );
    let mut nv = Viyojit::new(
        TOTAL_PAGES,
        ViyojitConfig::with_budget_pages(BUDGET_PAGES),
        clock,
        CostModel::calibrated(),
        SsdConfig::datacenter(),
    );
    if let Some(capture) = &capture {
        capture.attach(&mut nv);
    }
    nv.attach_faults(FaultPlan::seeded(seed, FaultConfig::storm(fault_rate)));
    let region = nv.map(2_048 * PAGE_SIZE as u64).expect("map");
    for i in 0..BUDGET_PAGES {
        nv.write(
            region,
            (i * 3 % 2_048) * PAGE_SIZE as u64,
            &[seed as u8; 64],
        )
        .expect("write");
    }
    let report = nv.power_failure_powered(&battery, &power);
    assert!(
        report.all_pages_accounted(),
        "every dirty page must be flushed or reported lost \
         (rate={fault_rate} margin={margin} seed={seed}: {report:?})"
    );
    if let Some(capture) = capture {
        capture.finish();
    }
    report
}

pub(crate) fn run(args: &super::Args) {
    let seeds: u64 = if args.quick { 5 } else { 10 };
    let mut report = Report::stdout_csv();

    report.section("emergency-flush survival: fault rate x battery margin");
    report.columns(&[
        "fault_rate",
        "margin",
        "runs",
        "survival",
        "avg_pages_lost",
        "avg_retries",
        "worst_outcome",
    ]);
    for &rate in &FAULT_RATES {
        for &margin in &MARGINS {
            let mut survived = 0u64;
            let mut lost = 0u64;
            let mut retries = 0u64;
            let mut worst = FlushOutcome::Complete;
            for seed in 0..seeds {
                let r = run_once(rate, margin, seed);
                if r.outcome == FlushOutcome::Complete {
                    survived += 1;
                }
                lost += r.pages_lost;
                retries += r.retries;
                worst = worst.max(r.outcome);
            }
            row!(
                report,
                "{rate},{margin},{seeds},{:.2},{:.1},{:.1},{worst:?}",
                survived as f64 / seeds as f64,
                lost as f64 / seeds as f64,
                retries as f64 / seeds as f64,
            );
        }
    }

    report.section("seeded reproducibility: one storm run, twice");
    report.columns(&[
        "seed",
        "outcome",
        "dirty_pages",
        "pages_flushed",
        "pages_lost",
        "retries",
        "flush_ms",
        "energy_margin_j",
    ]);
    let seed = 42;
    let a = run_once(0.01, 2.0, seed);
    let b = run_once(0.01, 2.0, seed);
    assert_eq!(a, b, "the same seed must reproduce the same partial flush");
    row!(
        report,
        "{seed},{:?},{},{},{},{},{:.3},{:.3}",
        a.outcome,
        a.dirty_pages,
        a.pages_flushed,
        a.pages_lost,
        a.retries,
        a.flush_time.as_secs_f64() * 1e3,
        a.energy_margin_joules,
    );
    note!(
        report,
        "identical reports across reruns of seed {seed}; replay any cell with \
         FaultPlan::seeded(seed, FaultConfig::storm(rate))"
    );
}
