//! Fig. 2: data written per interval as a fraction of total volume size,
//! for 1-minute, 10-minute, and 1-hour intervals, across the four
//! datacenter applications' volumes (synthetic stand-ins for the Microsoft
//! traces; see DESIGN.md's substitution table).
//!
//! Expected shape: for a majority of volumes, even the worst 1-hour
//! interval writes less than 15% of the volume.

use sim_clock::SimDuration;
use telemetry::{note, row, Report};
use trace_analysis::worst_interval_write_fraction;
use workloads::{paper_trace_suite, TraceGenerator};

pub(crate) fn run(_: &super::Args) {
    let mut report = Report::stdout_csv();
    report.section("Fig. 2 — worst-interval data written (% of volume size)");
    report.columns(&[
        "app",
        "volume",
        "one_minute_pct",
        "ten_minutes_pct",
        "one_hour_pct",
    ]);

    let intervals = [
        SimDuration::from_secs(60),
        SimDuration::from_secs(600),
        SimDuration::from_secs(3600),
    ];

    let mut volumes_total = 0;
    let mut volumes_under_15pct = 0;
    for app in paper_trace_suite() {
        for (vi, vol) in app.volumes.iter().enumerate() {
            let fractions: Vec<f64> = intervals
                .iter()
                .map(|&ivl| {
                    let events = TraceGenerator::new(vol, app.duration, 0xF162 + vi as u64);
                    100.0 * worst_interval_write_fraction(events, ivl, vol.pages)
                })
                .collect();
            row!(
                report,
                "{},{},{:.2},{:.2},{:.2}",
                app.app.name(),
                vol.name,
                fractions[0],
                fractions[1],
                fractions[2]
            );
            volumes_total += 1;
            if fractions[2] < 15.0 {
                volumes_under_15pct += 1;
            }
        }
    }

    note!(
        report,
        "volumes with worst one-hour write fraction < 15%: {volumes_under_15pct}/{volumes_total} \
         (paper: \"for a majority of the scenarios, the fraction of data written is less than 15%\")"
    );
}
