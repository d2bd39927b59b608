//! §8 "Increased availability": bounding the dirty pages bounds the flush
//! time on shutdown.
//!
//! The paper's example: writing out 4 TB of DRAM at 4 GB/s takes ~17
//! minutes; a Viyojit dirty budget caps that at `budget / bandwidth`
//! regardless of DRAM size. This harness prints shutdown flush time vs
//! dirty budget at the paper's full (unscaled) capacities, plus the
//! battery energy each obligation demands.

use battery_sim::{DirtyBudget, PowerModel};
use telemetry::{note, row, Report};

const GB: u64 = 1024 * 1024 * 1024;
const FLUSH_BANDWIDTH: u64 = 4_000_000_000; // 4 GB/s, the paper's figure

pub(crate) fn run(_: &super::Args) {
    let mut report = Report::stdout_csv();
    report.section("§8 — shutdown flush time and battery energy vs dirty budget (4 TB server)");
    report.columns(&[
        "dirty_budget_gb",
        "flush_time_s",
        "battery_joules_at_terminals",
        "vs_full_backup_pct",
    ]);

    let power = PowerModel::datacenter_server(4096.0);
    let full = DirtyBudget::from_bytes(4096 * GB);
    let full_time = full.flush_time(FLUSH_BANDWIDTH);

    for &budget_gb in &[16u64, 64, 128, 256, 512, 1024, 4096] {
        let budget = DirtyBudget::from_bytes(budget_gb * GB);
        let t = budget.flush_time(FLUSH_BANDWIDTH);
        let joules = t.as_secs_f64() * power.total_watts();
        row!(
            report,
            "{},{:.1},{:.0},{:.1}",
            budget_gb,
            t.as_secs_f64(),
            joules,
            100.0 * t.as_secs_f64() / full_time.as_secs_f64()
        );
    }

    note!(
        report,
        "full 4 TB backup: {:.1} minutes of flush ({:.0} kJ at the terminals) — the paper's \
         ~17-minute / ~300 kJ example; a 64 GB budget cuts shutdown to {:.0} s",
        full_time.as_secs_f64() / 60.0,
        full_time.as_secs_f64() * power.total_watts() / 1e3,
        DirtyBudget::from_bytes(64 * GB)
            .flush_time(FLUSH_BANDWIDTH)
            .as_secs_f64()
    );
}
