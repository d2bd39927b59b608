//! §5.4 ablation: the software write-protection implementation vs the
//! MMU-offloaded alternative.
//!
//! The paper attributes Viyojit's consistently elevated tail latency to
//! the traps its software tracking requires, and predicts a hardware
//! implementation "could eradicate such tail latency overheads". This
//! harness runs YCSB-A on both implementations across budgets and
//! compares throughput and the focus-op tail against the NV-DRAM
//! baseline.

use crate::{gb_units_to_pages, run_baseline, run_mmu_assisted, run_viyojit, ExperimentConfig};
use telemetry::{note, row, Report};
use workloads::YcsbWorkload;

pub(crate) fn run(_: &super::Args) {
    let mut report = Report::stdout_csv();
    report.section("§5.4 ablation — software traps vs MMU offload (YCSB-A)");
    report.columns(&[
        "budget_gb",
        "system",
        "throughput_kops",
        "overhead_pct",
        "update_p99_us",
        "traps",
    ]);

    let cfg = ExperimentConfig::for_workload(YcsbWorkload::A);
    let baseline = run_baseline(&cfg);
    row!(
        report,
        ",NV-DRAM,{:.1},0.0,{:.1},0",
        baseline.throughput_kops,
        baseline.latencies.update.percentile(99.0).as_nanos() as f64 / 1e3,
    );

    for &gb in &[2.0, 4.0, 8.0, 18.0] {
        let budget = gb_units_to_pages(gb);
        for (run, label) in [
            (run_viyojit(&cfg, budget), "Viyojit-SW"),
            (run_mmu_assisted(&cfg, budget), "Viyojit-MMU"),
        ] {
            row!(
                report,
                "{:.0},{},{:.1},{:.1},{:.1},{}",
                gb,
                label,
                run.throughput_kops,
                run.overhead_vs(&baseline),
                run.latencies.update.percentile(99.0).as_nanos() as f64 / 1e3,
                run.stats.expect("tracked run").faults_handled,
            );
        }
    }

    note!(
        report,
        "expected: the MMU variant's trap count collapses (interrupts only at the \
         budget boundary), pulling its p99 toward the baseline, as §5.4 predicts"
    );
}
