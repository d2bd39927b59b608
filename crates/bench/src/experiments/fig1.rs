//! Fig. 1: DRAM capacity growth out-paces lithium energy-density growth.
//!
//! Regenerates the two relative-growth curves (1990 baseline) with the
//! post-2015 region flagged as projected, plus the divergence ratio the
//! paper's argument rests on.

use battery_sim::density_series;
use telemetry::{note, row, Report};

pub(crate) fn run(_: &super::Args) {
    let mut report = Report::stdout_csv();
    report.section("Fig. 1 — DRAM vs lithium density growth (relative to 1990)");
    report.columns(&[
        "year",
        "dram_relative",
        "lithium_relative",
        "divergence",
        "projected",
    ]);
    for p in density_series(1990, 2020, 2015) {
        row!(
            report,
            "{},{:.4e},{:.4},{:.4e},{}",
            p.year,
            p.dram_relative,
            p.lithium_relative,
            p.divergence(),
            p.projected
        );
    }

    let at_2015 = density_series(1990, 2015, 2015)
        .pop()
        .expect("non-empty series");
    note!(
        report,
        "paper anchors: 25-year DRAM growth {:.0}x (paper: >50,000x), lithium {:.1}x (paper: 3.3x)",
        at_2015.dram_relative,
        at_2015.lithium_relative
    );
}
