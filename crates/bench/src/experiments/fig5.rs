//! Fig. 5: under a Zipf write distribution, the fraction of pages needed
//! to cover a given write percentile shrinks as the total page population
//! grows — so bigger NV-DRAMs make the battery/DRAM decoupling *more*
//! attractive.

use telemetry::{note, row, Report};
use trace_analysis::zipf_scaling_series;

pub(crate) fn run(_: &super::Args) {
    let mut report = Report::stdout_csv();
    report.section("Fig. 5 — Zipf page fraction per write percentile vs population size");
    report.columns(&[
        "total_pages",
        "p90_fraction",
        "p95_fraction",
        "p99_fraction",
    ]);

    let sizes = [10_000u64, 100_000, 1_000_000, 10_000_000];
    let pcts = [90.0, 95.0, 99.0];
    let series = zipf_scaling_series(&sizes, &pcts, 0.99);
    for chunk in series.chunks(pcts.len()) {
        row!(
            report,
            "{},{:.4},{:.4},{:.4}",
            chunk[0].total_pages,
            chunk[0].page_fraction,
            chunk[1].page_fraction,
            chunk[2].page_fraction
        );
    }

    let first = series.first().expect("non-empty series");
    let last = &series[series.len() - pcts.len()];
    note!(
        report,
        "p90 fraction shrinks {:.1}x as the population grows {}x",
        first.page_fraction / last.page_fraction,
        sizes[sizes.len() - 1] / sizes[0]
    );
}
