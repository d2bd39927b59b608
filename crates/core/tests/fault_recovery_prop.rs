//! Seeded property tests for the executed emergency flush under fault
//! injection: recovery after a faulty power failure must reproduce the
//! durable state exactly, across every tracking backend and the sharded
//! manager.
//!
//! Every scenario is a pure function of a `u64` seed, driven through the
//! same splitmix64 generator the fault plans use, and `propcheck` sweeps
//! the seeds: a failure names its seed, `FAULT_SEED=<n>` replays it alone.
//! On any violation the run's full telemetry trace is dumped to
//! `target/fault-telemetry/seed-<n>.jsonl`.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use battery_sim::{Battery, BatteryConfig, PowerModel};
use mem_sim::PAGE_SIZE;
use propcheck::check_seeds;
use sim_clock::{Clock, CostModel, SimDuration, SplitMix64};
use ssd_sim::SsdConfig;
use viyojit::{
    CrashSchedule, CrashSignal, DegradationConfig, DegradationGovernor, DegradedMode, DirtyTracker,
    Engine, FaultConfig, FaultPlan, FlushOutcome, FullDirty, JsonlSink, MmuAssisted, NvHeap,
    PowerFailureReport, ShardedViyojitBuilder, SoftwareWalk, Telemetry, ViyojitConfig,
};

const PAGE: u64 = PAGE_SIZE as u64;
const TOTAL_PAGES: usize = 256;
const REGION_PAGES: u64 = 128;
const BUDGET: u64 = 32;
const WRITES: u64 = 1_024;
const STORM_RATE: f64 = 0.02;
const SEEDS_PER_PROPERTY: u64 = 16;

/// Everything one storm scenario produced, kept around so a failed check
/// can dump the telemetry trace before panicking.
struct Run {
    seed: u64,
    report: PowerFailureReport,
    pre: Vec<u8>,
    post: Vec<u8>,
    invariant_violation: Option<String>,
    telemetry: Telemetry,
}

impl Run {
    /// Dumps the trace to `target/fault-telemetry/seed-<n>.jsonl` and
    /// panics with the seed and where the trace is.
    fn fail(&self, why: &str) -> ! {
        let dir =
            PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
                .join("fault-telemetry");
        fs::create_dir_all(&dir).expect("create fault-telemetry dir");
        let path = dir.join(format!("seed-{}.jsonl", self.seed));
        let file = fs::File::create(&path).expect("create telemetry dump");
        let mut sink = JsonlSink::new(file);
        self.telemetry.drain_into(&mut sink);
        panic!(
            "[seed {}] {why}\nreport: {:?}\ntrace at {}",
            self.seed,
            self.report,
            path.display()
        );
    }

    fn check(&self, cond: bool, why: &str) {
        if !cond {
            self.fail(why);
        }
    }
}

/// One full storm life: seeded workload, seeded faults, powered emergency
/// flush, recovery. `battery_pages` sizes the battery against that many
/// pages of conservative drain time (the §5.1 rule); the margin cycles
/// with the seed so the sweep exercises Complete, PagesLost, and
/// BatteryExhausted outcomes alike.
fn storm_scenario<B: DirtyTracker>(seed: u64, battery_pages: u64) -> Run {
    let clock = Clock::new();
    let telemetry = Telemetry::recording(clock.clone());
    let ssd_config = SsdConfig::datacenter();
    let mut nv = Engine::<B>::new(
        TOTAL_PAGES,
        ViyojitConfig::with_budget_pages(BUDGET),
        clock,
        CostModel::calibrated(),
        ssd_config.clone(),
    );
    nv.attach_telemetry(telemetry.clone());
    nv.attach_faults(FaultPlan::seeded(seed, FaultConfig::storm(STORM_RATE)));
    let region = nv.map(REGION_PAGES * PAGE).expect("map");

    let mut rng = SplitMix64::new(seed);
    for _ in 0..WRITES {
        let page = rng.below(REGION_PAGES);
        let offset = rng.below(PAGE - 8);
        let fill = rng.next_u64() as u8;
        nv.write(region, page * PAGE + offset, &[fill; 8])
            .expect("write");
    }

    let mut pre = vec![0u8; (REGION_PAGES * PAGE) as usize];
    nv.read(region, 0, &mut pre).expect("read pre-failure");

    let power = PowerModel::datacenter_server(0.064);
    let margin = 1.0 + (seed % 4) as f64;
    let needed = ssd_config.drain_time(battery_pages * PAGE).as_secs_f64() * power.total_watts();
    let battery = Battery::new(
        BatteryConfig::with_capacity_joules(needed * margin).with_depth_of_discharge(1.0),
    );

    let report = nv.power_failure_powered(&battery, &power);
    nv.recover();
    let invariant_violation = nv.check_invariants().err().map(|v| v.to_string());
    let mut post = vec![0u8; (REGION_PAGES * PAGE) as usize];
    nv.read(region, 0, &mut post).expect("read post-recovery");

    Run {
        seed,
        report,
        pre,
        post,
        invariant_violation,
        telemetry,
    }
}

/// The durability property: every dirty page is flushed or reported lost;
/// post-recovery memory differs from the pre-failure image on at most
/// `pages_lost` pages (a lost page reverts to its older durable copy);
/// a loss-free flush reproduces the image exactly; and the recovered
/// engine satisfies every invariant.
fn check_recovery(run: &Run) {
    run.check(
        run.report.all_pages_accounted(),
        "every dirty page must be flushed or reported lost",
    );
    if let Some(violation) = &run.invariant_violation {
        run.fail(&format!("post-recovery invariant violated: {violation}"));
    }
    let mismatches = (0..REGION_PAGES as usize)
        .filter(|&p| {
            run.pre[p * PAGE_SIZE..(p + 1) * PAGE_SIZE]
                != run.post[p * PAGE_SIZE..(p + 1) * PAGE_SIZE]
        })
        .count() as u64;
    run.check(
        mismatches <= run.report.pages_lost,
        &format!(
            "{mismatches} pages differ post-recovery but only {} were reported lost",
            run.report.pages_lost
        ),
    );
    if run.report.pages_lost == 0 {
        run.check(
            run.pre == run.post,
            "a loss-free flush must reproduce the durable state exactly",
        );
        run.check(
            run.report.outcome == FlushOutcome::Complete,
            "zero lost pages must report a Complete outcome",
        );
    } else {
        run.check(
            run.report.outcome != FlushOutcome::Complete,
            "lost pages must degrade the outcome",
        );
    }
}

#[test]
fn software_walk_recovers_durable_state_under_faults() {
    check_seeds(
        "software_walk_recovers_durable_state_under_faults",
        0..SEEDS_PER_PROPERTY,
        |seed| {
            check_recovery(&storm_scenario::<SoftwareWalk>(seed, BUDGET));
        },
    );
}

#[test]
fn mmu_assisted_recovers_durable_state_under_faults() {
    check_seeds(
        "mmu_assisted_recovers_durable_state_under_faults",
        0..SEEDS_PER_PROPERTY,
        |seed| {
            check_recovery(&storm_scenario::<MmuAssisted>(seed, BUDGET));
        },
    );
}

#[test]
fn full_dirty_baseline_recovers_durable_state_under_faults() {
    // The baseline's obligation is the whole DRAM, so its battery is
    // sized against every page, not the budget.
    check_seeds(
        "full_dirty_baseline_recovers_durable_state_under_faults",
        0..SEEDS_PER_PROPERTY,
        |seed| {
            check_recovery(&storm_scenario::<FullDirty>(seed, TOTAL_PAGES as u64));
        },
    );
}

#[test]
fn same_seed_reproduces_the_same_partial_flush() {
    check_seeds(
        "same_seed_reproduces_the_same_partial_flush",
        0..SEEDS_PER_PROPERTY,
        |seed| {
            let a = storm_scenario::<SoftwareWalk>(seed, BUDGET);
            let b = storm_scenario::<SoftwareWalk>(seed, BUDGET);
            a.check(
                a.report == b.report,
                &format!(
                    "same seed must reproduce the same report: {:?} vs {:?}",
                    a.report, b.report
                ),
            );
            a.check(
                a.post == b.post,
                "same seed must reproduce the same post-recovery memory",
            );
        },
    );
}

/// One crash-armed storm life: the seeded [`CrashSchedule`] picks its own
/// crashpoint and ordinal, the workload (or the emergency flush itself)
/// trips it, and recovery runs from the exact intermediate state the
/// unwind left behind. Returns the firing, the final report, and the
/// post-recovery memory so the determinism property can compare runs.
fn crash_storm_scenario(seed: u64) -> (Option<CrashSignal>, PowerFailureReport, Vec<u8>) {
    let clock = Clock::new();
    let ssd_config = SsdConfig::datacenter();
    let crashes = CrashSchedule::seeded(seed);
    let mut nv = Engine::<SoftwareWalk>::new(
        TOTAL_PAGES,
        ViyojitConfig::with_budget_pages(BUDGET),
        clock,
        CostModel::calibrated(),
        ssd_config.clone(),
    );
    nv.attach_faults(FaultPlan::seeded(seed, FaultConfig::storm(STORM_RATE)));
    nv.attach_crashes(crashes.clone());
    let region = nv.map(REGION_PAGES * PAGE).expect("map");

    let mut rng = SplitMix64::new(seed);
    let workload = catch_unwind(AssertUnwindSafe(|| {
        for _ in 0..WRITES {
            let page = rng.below(REGION_PAGES);
            let offset = rng.below(PAGE - 8);
            let fill = rng.next_u64() as u8;
            nv.write(region, page * PAGE + offset, &[fill; 8])
                .expect("write");
        }
    }));
    if let Err(payload) = workload {
        payload
            .downcast::<CrashSignal>()
            .expect("only injected crashes unwind the workload");
    }

    let power = PowerModel::datacenter_server(0.064);
    let needed = ssd_config.drain_time(BUDGET * PAGE).as_secs_f64() * power.total_watts();
    let battery = Battery::new(
        BatteryConfig::with_capacity_joules(needed * (1.0 + (seed % 4) as f64))
            .with_depth_of_discharge(1.0),
    );
    // The armed point may sit inside the emergency flush itself
    // (emergency_retry); the schedule is latched, so the re-run flushes
    // the remaining obligation without re-firing.
    let report = catch_unwind(AssertUnwindSafe(|| {
        nv.power_failure_powered(&battery, &power)
    }))
    .unwrap_or_else(|_| nv.power_failure_powered(&battery, &power));
    nv.recover();
    let mut post = vec![0u8; (REGION_PAGES * PAGE) as usize];
    nv.read(region, 0, &mut post).expect("read post-recovery");
    (crashes.fired(), report, post)
}

#[test]
fn same_seed_fires_the_same_crashpoint_and_report() {
    check_seeds(
        "same_seed_fires_the_same_crashpoint_and_report",
        0..SEEDS_PER_PROPERTY,
        |seed| {
            let (fired_a, report_a, post_a) = crash_storm_scenario(seed);
            let (fired_b, report_b, post_b) = crash_storm_scenario(seed);
            assert_eq!(
                fired_a, fired_b,
                "[seed {seed}] the same FAULT_SEED must fire the same crashpoint"
            );
            assert_eq!(
                report_a, report_b,
                "[seed {seed}] the same FAULT_SEED must reproduce the same report"
            );
            assert_eq!(
                post_a, post_b,
                "[seed {seed}] the same FAULT_SEED must reproduce the same durable state"
            );
        },
    );
}

#[test]
fn sharded_aggregate_accounts_every_page_under_faults() {
    check_seeds(
        "sharded_aggregate_accounts_every_page_under_faults",
        0..SEEDS_PER_PROPERTY,
        |seed| {
            let clock = Clock::new();
            let telemetry = Telemetry::recording(clock.clone());
            let ssd_config = SsdConfig::datacenter();
            let mut nv =
                ShardedViyojitBuilder::new(4, 64, ViyojitConfig::with_budget_pages(BUDGET))
                    .backend::<SoftwareWalk>()
                    .min_per_shard(4)
                    .rebalance_period(SimDuration::from_millis(10))
                    .clock(clock)
                    .cost_model(CostModel::calibrated())
                    .ssd(ssd_config.clone())
                    .telemetry(telemetry.clone())
                    .faults(FaultPlan::seeded(seed, FaultConfig::storm(STORM_RATE)))
                    .build_sequential()
                    .expect("a valid sharded configuration");
            let regions: Vec<_> = (0..4).map(|_| nv.map(32 * PAGE).expect("map")).collect();

            let mut rng = SplitMix64::new(seed);
            for _ in 0..WRITES {
                let region = regions[rng.below(4) as usize];
                let page = rng.below(32);
                nv.write(region, page * PAGE, &[rng.next_u64() as u8; 8])
                    .expect("write");
            }

            let power = PowerModel::datacenter_server(0.064);
            let margin = 1.0 + (seed % 4) as f64;
            let needed = ssd_config.drain_time(BUDGET * PAGE).as_secs_f64() * power.total_watts();
            let battery = Battery::new(
                BatteryConfig::with_capacity_joules(needed * margin).with_depth_of_discharge(1.0),
            );
            let report = nv.power_failure_powered(&battery, &power);
            nv.recover();
            let run = Run {
                seed,
                report,
                pre: Vec::new(),
                post: Vec::new(),
                invariant_violation: nv.check_invariants().err().map(|v| v.to_string()),
                telemetry,
            };
            run.check(
                run.report.all_pages_accounted(),
                "the sharded aggregate must account for every dirty page",
            );
            if let Some(violation) = &run.invariant_violation {
                run.fail(&format!("post-recovery invariant violated: {violation}"));
            }
            run.check(
                (run.report.outcome == FlushOutcome::Complete) == (run.report.pages_lost == 0),
                "the aggregated outcome must agree with the aggregated losses",
            );
        },
    );
}

#[test]
fn governor_restores_budget_invariant_after_capacity_drop() {
    check_seeds(
        "governor_restores_budget_invariant_after_capacity_drop",
        0..SEEDS_PER_PROPERTY,
        |seed| {
            let clock = Clock::new();
            let telemetry = Telemetry::recording(clock.clone());
            let mut nv = Engine::<SoftwareWalk>::new(
                TOTAL_PAGES,
                ViyojitConfig::with_budget_pages(BUDGET),
                clock,
                CostModel::calibrated(),
                SsdConfig::datacenter(),
            );
            nv.attach_telemetry(telemetry.clone());
            let region = nv.map(REGION_PAGES * PAGE).expect("map");
            let mut rng = SplitMix64::new(seed);
            for _ in 0..WRITES {
                let page = rng.below(REGION_PAGES);
                nv.write(region, page * PAGE, &[rng.next_u64() as u8; 8])
                    .expect("write");
            }

            // The injected 50% capacity drop fires on the first poll.
            let mut config = FaultConfig::none();
            config.capacity_drop_rate = 1.0;
            config.capacity_drop_factor = 0.5;
            let plan = FaultPlan::seeded(seed, config);
            let mut battery = Battery::new(
                BatteryConfig::with_capacity_joules(12.0).with_depth_of_discharge(1.0),
            );
            battery
                .apply_capacity_drop(&plan)
                .expect("the plan always fires a capacity drop");

            let mut governor = DegradationGovernor::new(BUDGET, DegradationConfig::default());
            let applied = nv.govern_degradation(&mut governor, battery.reported_health(&plan));
            let run = Run {
                seed,
                report: PowerFailureReport {
                    dirty_pages: 0,
                    pages_flushed: 0,
                    pages_lost: 0,
                    retries: 0,
                    bytes_flushed: 0,
                    flush_time: SimDuration::ZERO,
                    energy_margin_joules: f64::INFINITY,
                    outcome: FlushOutcome::Complete,
                },
                pre: Vec::new(),
                post: Vec::new(),
                invariant_violation: nv.check_invariants().err().map(|v| v.to_string()),
                telemetry,
            };
            run.check(
                applied == Some(BUDGET / 2),
                &format!("a 50% capacity drop must halve the budget, got {applied:?}"),
            );
            run.check(
                matches!(governor.mode(), DegradedMode::Degraded(_)),
                "the governor must report degraded mode",
            );
            run.check(
                nv.dirty_count() <= BUDGET / 2,
                &format!(
                    "the shrink must stall until dirty_count ({}) fits the halved budget ({})",
                    nv.dirty_count(),
                    BUDGET / 2
                ),
            );
            if let Some(violation) = &run.invariant_violation {
                run.fail(&format!("degraded-mode invariant violated: {violation}"));
            }
        },
    );
}
