//! Fig. 8: average and 99th-percentile latency of each workload's focus
//! operation (update / update / read / insert / read-modify-write) versus
//! the dirty budget, against the NV-DRAM baseline.
//!
//! Expected shape: Viyojit's p99 sits above the baseline at *every*
//! budget (write-protection faults never fully disappear), while the
//! average converges to the baseline once the budget covers the write
//! working set.

use crate::{gb_units_to_pages, run_baseline, run_viyojit, ExperimentConfig, BUDGET_SWEEP_GB};
use telemetry::{row, Report};
use workloads::YcsbWorkload;

pub(crate) fn run(_: &super::Args) {
    let mut report = Report::stdout_csv();
    report.section("Fig. 8 — focus-op latency vs dirty budget (us)");
    report.columns(&[
        "workload",
        "focus_op",
        "system",
        "budget_gb",
        "avg_us",
        "p99_us",
    ]);

    let mut summary = Vec::new();
    for workload in YcsbWorkload::ALL {
        let cfg = ExperimentConfig::for_workload(workload);
        let baseline = run_baseline(&cfg);
        let base_focus = baseline.latencies.focus(workload);
        let base_avg = base_focus.mean();
        row!(
            report,
            "{},{},NV-DRAM,,{:.1},{:.1}",
            workload.name(),
            workload.focus_op(),
            base_avg.as_nanos() as f64 / 1e3,
            base_focus.percentile(99.0).as_nanos() as f64 / 1e3,
        );

        let mut overheads = Vec::new();
        for &gb in &BUDGET_SWEEP_GB {
            let result = run_viyojit(&cfg, gb_units_to_pages(gb));
            let focus = result.latencies.focus(workload);
            row!(
                report,
                "{},{},Viyojit,{:.0},{:.1},{:.1}",
                workload.name(),
                workload.focus_op(),
                gb,
                focus.mean().as_nanos() as f64 / 1e3,
                focus.percentile(99.0).as_nanos() as f64 / 1e3,
            );
            overheads
                .push(100.0 * (focus.mean().as_nanos() as f64 / base_avg.as_nanos() as f64 - 1.0));
        }
        summary.push((workload, overheads));
    }

    report.section("Fig. 8(f) — average focus-op latency overhead summary (%)");
    report.columns(&[
        "workload",
        "focus_op",
        "at_11pct_2GB",
        "at_23pct_4GB",
        "at_46pct_8GB",
    ]);
    for (workload, overheads) in &summary {
        row!(
            report,
            "{},{},{:.1},{:.1},{:.1}",
            workload.name(),
            workload.focus_op(),
            overheads[0],
            overheads[1],
            overheads[3]
        );
    }
}
