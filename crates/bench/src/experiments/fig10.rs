//! Fig. 10: throughput overhead at equal battery *fractions* (11/23/46%)
//! for two initial heap sizes, 17.5 and 52.5 GB-units, on YCSB A/B/C/F.
//! (YCSB-D is excluded, as in the paper: its inserts outgrow the NV-DRAM
//! at the larger heap.)
//!
//! Expected shape: at the same budget fraction, the larger heap shows
//! *lower* overhead — write skew deepens as datasets grow (the Fig. 5
//! effect), which is the paper's argument that Viyojit gets better with
//! scale.

use crate::{gb_units_to_pages, run_baseline, run_viyojit, ExperimentConfig};
use telemetry::{note, row, Report};
use workloads::YcsbWorkload;

pub(crate) fn run(_: &super::Args) {
    let mut report = Report::stdout_csv();
    report.section("Fig. 10 — overhead at equal budget fractions, 17.5 vs 52.5 GB heaps (%)");
    report.columns(&[
        "workload",
        "heap_gb",
        "budget_pct",
        "budget_gb",
        "overhead_pct",
    ]);

    // The paper's footnote 6 / legend: 11% -> 2 GB of 17.5 and 6 GB of
    // 52.5; 23% -> 4 / 12; 46% -> 8 / 24.
    let heap_budgets: [(f64, [f64; 3]); 2] = [(17.5, [2.0, 4.0, 8.0]), (52.5, [6.0, 12.0, 24.0])];
    let fractions = [11.0, 23.0, 46.0];

    let workloads = [
        YcsbWorkload::A,
        YcsbWorkload::B,
        YcsbWorkload::C,
        YcsbWorkload::F,
    ];
    let mut regressions = 0;
    let mut comparisons = 0;
    for workload in workloads {
        let mut per_fraction: Vec<Vec<f64>> = vec![Vec::new(); fractions.len()];
        for &(heap_gb, budgets) in &heap_budgets {
            let cfg = ExperimentConfig::for_heap_gb_units(workload, heap_gb);
            let baseline = run_baseline(&cfg);
            for (fi, &budget_gb) in budgets.iter().enumerate() {
                let result = run_viyojit(&cfg, gb_units_to_pages(budget_gb));
                let overhead = result.overhead_vs(&baseline);
                row!(
                    report,
                    "{},{},{:.0},{:.0},{:.1}",
                    workload.name(),
                    heap_gb,
                    fractions[fi],
                    budget_gb,
                    overhead
                );
                per_fraction[fi].push(overhead);
            }
        }
        for pair in &per_fraction {
            if let [small_heap, large_heap] = pair[..] {
                comparisons += 1;
                if large_heap > small_heap + 1.0 {
                    regressions += 1;
                }
            }
        }
    }

    note!(
        report,
        "larger heap at least as fast in {}/{comparisons} comparisons \
         (paper: overheads decrease with heap size)",
        comparisons - regressions
    );
}
