//! §8 "Handling battery cell failures" end-to-end: a Viyojit instance
//! rides a battery through three years of aging, discharge cycles, and
//! daily temperature swings. The budget governor re-derives the dirty
//! budget at every sample, the manager flushes down when capacity drops,
//! and durability is proven by a simulated power failure at every step.
//!
//! The scenario is backend-generic: `battery_fluctuation` runs the
//! software write-protection tracker (the paper's §8 setting), and
//! `battery_fluctuation_mmu` drives the same battery life through the
//! §5.4 hardware-assisted backend. `battery_fluctuation_capacity_drop`
//! is the abrupt cell-failure scenario: an injected 50% capacity drop
//! trips the degradation governor, whose emergency budget shrink stalls
//! writers until the dirty population fits the halved budget.

use battery_sim::{Battery, BatteryConfig, BudgetGovernor, HealthModel, PowerModel};
use mem_sim::PAGE_SIZE;
use sim_clock::{Clock, CostModel, SimDuration};
use ssd_sim::SsdConfig;
use telemetry::{note, row, Report};
use viyojit::{
    DegradationConfig, DegradationGovernor, DegradedMode, DirtyTracker, Engine, FaultConfig,
    FaultPlan, MmuAssisted, NvHeap, SoftwareWalk, Viyojit, ViyojitConfig,
};

const FLUSH_BW: u64 = 2_000_000_000;

pub(crate) fn run(_: &super::Args) {
    battery_life::<SoftwareWalk>("§8 — dirty budget tracking battery health over 3 years");
}

pub(crate) fn run_mmu(_: &super::Args) {
    battery_life::<MmuAssisted>(
        "§8 — dirty budget tracking battery health over 3 years (MMU-assisted backend)",
    );
}

fn battery_life<B: DirtyTracker>(title: &str) {
    let mut report = Report::stdout_csv();
    report.section(title);
    report.columns(&[
        "day",
        "health",
        "budget_pages",
        "dirty_after_adjust",
        "failure_survives",
    ]);
    let power = PowerModel::datacenter_server(0.064);
    let mut governor = BudgetGovernor::new(
        Battery::new(BatteryConfig::with_capacity_joules(12.0)),
        power,
        FLUSH_BW,
        HealthModel::datacenter_default(),
    );
    let initial = governor.current_budget().pages().max(1);

    let mut nv = Engine::<B>::new(
        16_384,
        ViyojitConfig::builder(initial)
            .total_pages(16_384)
            .build()
            .expect("valid governor-derived configuration"),
        Clock::new(),
        CostModel::calibrated(),
        SsdConfig::datacenter(),
    );
    let region = nv.map(12_000 * 4096).expect("map");

    let mut all_survived = true;
    let mut cursor = 0u64;
    // Sample every 90 days, plus day zero at the coolest (06:00) and
    // hottest (noon) hours to show the diurnal swing.
    for &(day, label_hours) in &[
        (0u64, 6u64),
        (0, 12),
        (90, 12),
        (180, 12),
        (365, 12),
        (548, 12),
        (730, 12),
        (913, 12),
        (1095, 12),
    ] {
        let elapsed = SimDuration::from_secs(day * 24 * 3600 + label_hours * 3600)
            .saturating_sub(governor.age());
        let budget = governor.advance(elapsed).pages().max(1);
        nv.set_dirty_budget(budget);

        // Ongoing workload between samples.
        for _ in 0..2_000u64 {
            nv.write(region, (cursor % 12_000) * 4096, &[day as u8; 64])
                .expect("write");
            cursor += 7;
        }
        governor.record_discharge();

        let failure = nv.power_failure();
        let survives = failure.survives(governor.battery(), &PowerModel::datacenter_server(0.064));
        all_survived &= survives;
        nv.recover();
        row!(
            report,
            "{}.{:02},{:.3},{},{},{}",
            day,
            label_hours,
            governor.battery().health(),
            budget,
            nv.dirty_count(),
            survives
        );
    }

    note!(
        report,
        "every simulated failure across the battery's life was covered: {all_survived} \
         (the §8 alternative to over-provisioning for worst-case aging)"
    );
}

/// The abrupt cell-failure scenario: a seeded fault plan halves the
/// battery's capacity mid-run; the degradation governor sees the reported
/// health collapse and shrinks the dirty budget through the
/// stall-until-safe path, restoring `dirty_count <= budget` before any
/// further write is admitted. A powered power failure then proves the
/// halved battery still covers the shrunk obligation, and a full recovery
/// of the gauge restores the nominal budget.
pub(crate) fn run_capacity_drop(_: &super::Args) {
    let mut report = Report::stdout_csv();
    report.section("§8 — abrupt battery capacity drop and the degradation governor");
    report.columns(&[
        "phase",
        "health",
        "budget_pages",
        "dirty_pages",
        "budget_stalls",
        "degraded",
        "invariants_ok",
    ]);
    const BUDGET: u64 = 128;
    let power = PowerModel::datacenter_server(0.064);
    // Provision the battery 4x the §5.1 need so it survives the flush
    // even at half capacity (the governor halves the budget in step).
    let mut battery = super::margin_battery(BUDGET, 4.0);
    let mut nv = Viyojit::new(
        4_096,
        ViyojitConfig::with_budget_pages(BUDGET),
        Clock::new(),
        CostModel::calibrated(),
        SsdConfig::datacenter(),
    );
    let mut governor = DegradationGovernor::new(BUDGET, DegradationConfig::default());
    let region = nv.map(1_024 * PAGE_SIZE as u64).expect("map");

    // A fault plan that fires a 50% capacity drop the first time the
    // battery is polled; everything else stays off.
    let mut fault_config = FaultConfig::none();
    fault_config.capacity_drop_rate = 1.0;
    fault_config.capacity_drop_factor = 0.5;
    let plan = FaultPlan::seeded(7, fault_config);

    fn emit(
        report: &mut Report,
        phase: &str,
        nv: &Viyojit,
        battery: &Battery,
        governor: &DegradationGovernor,
    ) {
        row!(
            report,
            "{phase},{:.2},{},{},{},{},{}",
            battery.health(),
            governor.current_budget(),
            nv.dirty_count(),
            nv.stats().budget_stalls,
            matches!(governor.mode(), DegradedMode::Degraded(_)),
            nv.check_invariants().is_ok(),
        );
    }

    // Dirty the heap up to the nominal budget.
    for i in 0..BUDGET {
        nv.write(region, (i * 5 % 1_024) * PAGE_SIZE as u64, &[1u8; 64])
            .expect("write");
    }
    emit(&mut report, "nominal", &nv, &battery, &governor);

    // The cell fails: capacity halves, the governor degrades, and the
    // budget shrink stalls writers until the dirty population fits.
    let new_health = battery
        .apply_capacity_drop(&plan)
        .expect("the plan fires a capacity drop");
    let shrunk = nv.govern_degradation(&mut governor, battery.reported_health(&plan));
    assert_eq!(shrunk, Some(BUDGET / 2), "50% health -> 50% budget");
    assert!(new_health < 0.55, "below the governor's entry threshold");
    assert!(
        nv.dirty_count() <= BUDGET / 2,
        "the shrink stalls until the dirty population fits the new budget"
    );
    nv.check_invariants().expect("degraded-mode invariants");
    emit(&mut report, "after_drop", &nv, &battery, &governor);

    // The halved battery must still cover the halved obligation.
    let failure = nv.power_failure_powered(&battery, &power);
    assert!(failure.all_pages_accounted());
    nv.recover();
    row!(
        report,
        "powered_failure,{:.2},{},{},{},{},{:?}",
        battery.health(),
        governor.current_budget(),
        failure.dirty_pages,
        failure.pages_lost,
        failure.all_pages_accounted(),
        failure.outcome,
    );

    // The pack is replaced: reported health recovers, the governor exits
    // degraded mode and restores the nominal budget.
    battery.set_health(1.0);
    let restored = nv.govern_degradation(&mut governor, battery.reported_health(&plan));
    assert_eq!(restored, Some(BUDGET));
    emit(&mut report, "recovered", &nv, &battery, &governor);

    note!(
        report,
        "an injected 50% capacity drop halves the budget through the \
         stall-until-safe path and full recovery restores it — the §8 \
         re-derivation, executed under fault injection"
    );
}
