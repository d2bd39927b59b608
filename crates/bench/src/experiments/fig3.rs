//! Fig. 3: pages required to account for 90/95/99% of all writes, as a
//! percentage of the pages *touched* (read or written) during the trace.
//!
//! Expected shape: volumes with skewed writes (Cosmos B/C/F) need a small
//! page fraction even at the 99th percentile; unique-write volumes
//! (category 1/4) approach 100%.

use telemetry::{row, Report};
use trace_analysis::WriteSkewAnalysis;
use workloads::{paper_trace_suite, TraceGenerator};

pub(crate) fn run(_: &super::Args) {
    let mut report = Report::stdout_csv();
    report.section("Fig. 3 — pages for write percentiles (% of pages touched)");
    report.columns(&["app", "volume", "p90_pct", "p95_pct", "p99_pct"]);

    for app in paper_trace_suite() {
        for (vi, vol) in app.volumes.iter().enumerate() {
            let events = TraceGenerator::new(vol, app.duration, 0xF163 + vi as u64);
            let skew = WriteSkewAnalysis::from_events(events);
            row!(
                report,
                "{},{},{:.1},{:.1},{:.1}",
                app.app.name(),
                vol.name,
                skew.percent_of_touched(90.0),
                skew.percent_of_touched(95.0),
                skew.percent_of_touched(99.0),
            );
        }
    }
}
