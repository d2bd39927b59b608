//! §6.3 ablation: disable the TLB flush on epoch walks.
//!
//! Without the flush, dirty bits cached in the TLB hide re-writes from the
//! walker, the least-recently-updated history goes stale, and the copier
//! evicts *hot* pages. The paper measures throughput dropping "by more
//! than half in cases with low battery provisioning such as with 2 or 3 GB
//! dirty budget"; the cheap TLB flush is well worth it.

use crate::{gb_units_to_pages, run_viyojit, ExperimentConfig};
use telemetry::{note, row, Report};
use workloads::YcsbWorkload;

pub(crate) fn run(_: &super::Args) {
    let mut report = Report::stdout_csv();
    report.section("§6.3 ablation — epoch walks with vs without TLB flushes (YCSB-A)");
    report.columns(&[
        "budget_gb",
        "flush_kops",
        "stale_kops",
        "slowdown_pct",
        "flush_faults",
        "stale_faults",
    ]);

    for &gb in &[2.0, 3.0, 4.0, 8.0] {
        let exact_cfg = ExperimentConfig::for_workload(YcsbWorkload::A);
        let stale_cfg = ExperimentConfig {
            tlb_flush_on_walk: false,
            ..ExperimentConfig::for_workload(YcsbWorkload::A)
        };
        let budget = gb_units_to_pages(gb);
        let exact = run_viyojit(&exact_cfg, budget);
        let stale = run_viyojit(&stale_cfg, budget);
        row!(
            report,
            "{:.0},{:.1},{:.1},{:.1},{},{}",
            gb,
            exact.throughput_kops,
            stale.throughput_kops,
            100.0 * (1.0 - stale.throughput_kops / exact.throughput_kops),
            exact.stats.expect("viyojit run").faults_handled,
            stale.stats.expect("viyojit run").faults_handled,
        );
    }

    note!(
        report,
        "expected: stale dirty bits degrade victim selection, multiplying faults and \
         cutting throughput hardest at the smallest budgets"
    );
}
