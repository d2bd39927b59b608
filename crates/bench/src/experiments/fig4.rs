//! Fig. 4: pages required to account for 90/95/99% of all writes, as a
//! percentage of the *total* pages in the volume.
//!
//! Expected shape: the same trends as Fig. 3, but uniformly lower, since
//! the total volume is larger than the touched set.

use telemetry::{row, Report};
use trace_analysis::WriteSkewAnalysis;
use workloads::{paper_trace_suite, TraceGenerator};

pub(crate) fn run(_: &super::Args) {
    let mut report = Report::stdout_csv();
    report.section("Fig. 4 — pages for write percentiles (% of total volume pages)");
    report.columns(&["app", "volume", "p90_pct", "p95_pct", "p99_pct"]);

    for app in paper_trace_suite() {
        for (vi, vol) in app.volumes.iter().enumerate() {
            // Same seed as fig3 so the two figures describe one trace.
            let events = TraceGenerator::new(vol, app.duration, 0xF163 + vi as u64);
            let skew = WriteSkewAnalysis::from_events(events);
            row!(
                report,
                "{},{},{:.1},{:.1},{:.1}",
                app.app.name(),
                vol.name,
                skew.percent_of_total(90.0, vol.pages),
                skew.percent_of_total(95.0, vol.pages),
                skew.percent_of_total(99.0, vol.pages),
            );
        }
    }
}
