//! Fig. 7: throughput of YCSB A/B/C/D/F under Viyojit as the dirty budget
//! sweeps from 2 GB-units (11% of the initial heap) to 18 GB-units (103%),
//! against the full-battery NV-DRAM baseline, plus the Fig. 7(f) summary
//! at 11/23/46%.
//!
//! Expected shape: Viyojit always at or below baseline; at the 11% budget
//! read-heavy workloads lose single-digit percent and write-heavy ones
//! ~20-30%; overhead decays monotonically and is near zero by the largest
//! budgets.

use crate::{gb_units_to_pages, run_baseline, run_viyojit, ExperimentConfig, BUDGET_SWEEP_GB};
use telemetry::{row, Report};
use workloads::YcsbWorkload;

pub(crate) fn run(_: &super::Args) {
    let mut report = Report::stdout_csv();
    report.section("Fig. 7 — YCSB throughput vs dirty budget");
    report.columns(&[
        "workload",
        "system",
        "budget_gb",
        "budget_pct_of_heap",
        "throughput_kops",
        "overhead_pct",
    ]);

    let mut summary: Vec<(YcsbWorkload, Vec<f64>)> = Vec::new();
    for workload in YcsbWorkload::ALL {
        let cfg = ExperimentConfig::for_workload(workload);
        let heap_units = cfg.initial_heap_gb_units();
        let baseline = run_baseline(&cfg);
        row!(
            report,
            "{},NV-DRAM,,,{:.1},0.0",
            workload.name(),
            baseline.throughput_kops
        );

        let mut per_workload = Vec::new();
        for &gb in &BUDGET_SWEEP_GB {
            let result = run_viyojit(&cfg, gb_units_to_pages(gb));
            let overhead = result.overhead_vs(&baseline);
            row!(
                report,
                "{},Viyojit,{:.0},{:.0},{:.1},{:.1}",
                workload.name(),
                gb,
                100.0 * gb / heap_units,
                result.throughput_kops,
                overhead
            );
            per_workload.push(overhead);
        }
        summary.push((workload, per_workload));
    }

    report.section("Fig. 7(f) — throughput overhead summary (%)");
    report.columns(&["workload", "at_11pct_2GB", "at_23pct_4GB", "at_46pct_8GB"]);
    for (workload, overheads) in &summary {
        // Sweep indices: 2 GB = 0, 4 GB = 1, 8 GB = 3.
        row!(
            report,
            "{},{:.1},{:.1},{:.1}",
            workload.name(),
            overheads[0],
            overheads[1],
            overheads[3]
        );
    }
}
