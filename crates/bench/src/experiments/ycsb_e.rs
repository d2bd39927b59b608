//! YCSB-E — the paper's future work, implemented.
//!
//! §6.1: "We could not run YCSB-E because it requires cross key
//! transactions which we do not support for now. We wish to add this to
//! our NV-DRAM based Redis in the future." This reproduction's store keeps
//! a volatile ordered index over its persistent hash table, rebuilt from
//! the table at recovery, so the scan workload (95% short range scans, 5%
//! inserts) runs like the other five.
//!
//! Expected shape: scans are read-dominated, but every scan stamps the
//! LRU field of each visited entry header, so E dirties metadata pages
//! faster than C — overhead lands between C and the write-heavy
//! workloads and decays with budget like the rest of Fig. 7.

use crate::{gb_units_to_pages, run_baseline, run_viyojit, ExperimentConfig, BUDGET_SWEEP_GB};
use telemetry::{row, Report};
use workloads::YcsbWorkload;

pub(crate) fn run(_: &super::Args) {
    let mut report = Report::stdout_csv();
    report.section("YCSB-E (future work) — scan throughput vs dirty budget");
    report.columns(&[
        "system",
        "budget_gb",
        "budget_pct_of_heap",
        "throughput_kops",
        "overhead_pct",
        "scan_p99_us",
    ]);

    let cfg = ExperimentConfig {
        // Scans visit up to 100 records per op; scale the op count down to
        // keep record-touches comparable to the other workloads.
        operations: 40_000,
        ..ExperimentConfig::for_workload(YcsbWorkload::E)
    };
    let heap_units = cfg.initial_heap_gb_units();
    let baseline = run_baseline(&cfg);
    row!(
        report,
        "NV-DRAM,,,{:.1},0.0,{:.1}",
        baseline.throughput_kops,
        baseline.latencies.scan.percentile(99.0).as_nanos() as f64 / 1e3,
    );

    for &gb in &BUDGET_SWEEP_GB {
        let result = run_viyojit(&cfg, gb_units_to_pages(gb));
        row!(
            report,
            "Viyojit,{:.0},{:.0},{:.1},{:.1},{:.1}",
            gb,
            100.0 * gb / heap_units,
            result.throughput_kops,
            result.overhead_vs(&baseline),
            result.latencies.scan.percentile(99.0).as_nanos() as f64 / 1e3,
        );
    }
}
