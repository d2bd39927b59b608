//! Seeded property tests for the virtual-time profiler: every virtual
//! nanosecond the engine charges must be attributed to exactly one leaf
//! span (the conservation invariant behind the folded-stack export), and
//! attaching a profiler must never change what the engine computes.
//!
//! Seed sweeps like `fault_recovery_prop`: every scenario is a pure
//! function of a `u64` seed through splitmix64. Set `FAULT_SEED=<n>` to
//! replay a single seed.

use battery_sim::{Battery, BatteryConfig, PowerModel};
use mem_sim::PAGE_SIZE;
use propcheck::check_seeds;
use sim_clock::{Clock, CostModel, SimDuration, SplitMix64};
use ssd_sim::SsdConfig;
use viyojit::{
    DirtyTracker, Engine, FaultConfig, FaultPlan, FullDirty, MmuAssisted, NvHeap, ProfileReport,
    Profiler, ShardedViyojitBuilder, SoftwareWalk, ViyojitConfig, ViyojitStats,
};

const PAGE: u64 = PAGE_SIZE as u64;
const TOTAL_PAGES: usize = 256;
const REGION_PAGES: u64 = 128;
const BUDGET: u64 = 32;
const OPS: u64 = 768;
const STORM_RATE: f64 = 0.02;
const SEEDS_PER_PROPERTY: u64 = 12;

/// What one engine scenario produced: the final virtual instant, the
/// runtime counters, and the attribution report when profiling was on.
struct Outcome {
    end_nanos: u64,
    stats: ViyojitStats,
    report: Option<ProfileReport>,
}

/// One seeded life of a single engine: seeded writes and reads, a
/// mid-run budget shrink and restore (exercising the stall path), an
/// optional fault storm, and a powered emergency flush at the end. The
/// workload is a pure function of the seed, so the profiled and
/// unprofiled runs see identical operation streams.
fn engine_scenario<B: DirtyTracker>(seed: u64, profiled: bool, faults: bool) -> Outcome {
    let clock = Clock::new();
    let profiler = if profiled {
        Profiler::enabled(clock.clone())
    } else {
        Profiler::disabled()
    };
    let ssd_config = SsdConfig::datacenter();
    let mut nv = Engine::<B>::new(
        TOTAL_PAGES,
        ViyojitConfig::with_budget_pages(BUDGET),
        clock.clone(),
        CostModel::calibrated(),
        ssd_config.clone(),
    );
    nv.attach_profiler(profiler.clone());
    if faults {
        nv.attach_faults(FaultPlan::seeded(seed, FaultConfig::storm(STORM_RATE)));
    }
    let region = nv.map(REGION_PAGES * PAGE).expect("map");

    let mut rng = SplitMix64::new(seed);
    let mut buf = [0u8; 8];
    for op in 0..OPS {
        let page = rng.below(REGION_PAGES);
        let offset = rng.below(PAGE - 8);
        if rng.next_u64().is_multiple_of(4) {
            nv.read(region, page * PAGE + offset, &mut buf)
                .expect("read");
        } else {
            let fill = rng.next_u64() as u8;
            nv.write(region, page * PAGE + offset, &[fill; 8])
                .expect("write");
        }
        if op == OPS / 2 {
            // A §8 re-derivation mid-run: shrink (stalling down), restore.
            nv.set_dirty_budget(BUDGET / 2);
            nv.set_dirty_budget(BUDGET);
        }
    }

    let power = PowerModel::datacenter_server(0.064);
    let needed = ssd_config.drain_time(BUDGET * PAGE).as_secs_f64() * power.total_watts();
    let battery = Battery::new(
        BatteryConfig::with_capacity_joules(needed * 2.0).with_depth_of_discharge(1.0),
    );
    let report = nv.power_failure_powered(&battery, &power);
    assert!(report.all_pages_accounted());

    Outcome {
        end_nanos: clock.now().as_nanos(),
        stats: nv.stats(),
        report: profiler.report(),
    }
}

/// The conservation property: the folded leaf spans sum exactly to the
/// virtual time that elapsed while the profiler watched.
fn check_conserved(seed: u64, outcome: &Outcome) {
    let report = outcome
        .report
        .as_ref()
        .expect("profiled runs produce a report");
    assert_eq!(
        report.elapsed.as_nanos(),
        outcome.end_nanos,
        "[seed {seed}] the profiler watched the whole run"
    );
    assert!(
        report.is_conserved(),
        "[seed {seed}] leaf spans must sum to elapsed virtual time: \
         attributed {} of {} ns\nfolded:\n{}",
        report.attributed.as_nanos(),
        report.elapsed.as_nanos(),
        report.render_folded()
    );
}

#[test]
fn software_walk_attributes_every_nanosecond() {
    check_seeds(
        "software_walk_attributes_every_nanosecond",
        0..SEEDS_PER_PROPERTY,
        |seed| {
            check_conserved(seed, &engine_scenario::<SoftwareWalk>(seed, true, false));
            check_conserved(seed, &engine_scenario::<SoftwareWalk>(seed, true, true));
        },
    );
}

#[test]
fn mmu_assisted_attributes_every_nanosecond() {
    check_seeds(
        "mmu_assisted_attributes_every_nanosecond",
        0..SEEDS_PER_PROPERTY,
        |seed| {
            check_conserved(seed, &engine_scenario::<MmuAssisted>(seed, true, false));
            check_conserved(seed, &engine_scenario::<MmuAssisted>(seed, true, true));
        },
    );
}

#[test]
fn full_dirty_baseline_attributes_every_nanosecond() {
    check_seeds(
        "full_dirty_baseline_attributes_every_nanosecond",
        0..SEEDS_PER_PROPERTY,
        |seed| {
            check_conserved(seed, &engine_scenario::<FullDirty>(seed, true, false));
        },
    );
}

#[test]
fn profiling_never_changes_virtual_time_or_stats() {
    check_seeds(
        "profiling_never_changes_virtual_time_or_stats",
        0..SEEDS_PER_PROPERTY,
        |seed| {
            for faults in [false, true] {
                let off = engine_scenario::<SoftwareWalk>(seed, false, faults);
                let on = engine_scenario::<SoftwareWalk>(seed, true, faults);
                assert_eq!(
                    off.end_nanos, on.end_nanos,
                    "[seed {seed}] profiling must not move the virtual clock"
                );
                assert_eq!(
                    off.stats, on.stats,
                    "[seed {seed}] profiling must not change the control loop"
                );
                assert!(off.report.is_none(), "a disabled profiler reports nothing");
            }
        },
    );
}

#[test]
fn sharded_manager_attributes_every_nanosecond_per_shard() {
    check_seeds(
        "sharded_manager_attributes_every_nanosecond_per_shard",
        0..SEEDS_PER_PROPERTY,
        |seed| {
            let clock = Clock::new();
            let profiler = Profiler::enabled(clock.clone());
            let mut nv =
                ShardedViyojitBuilder::new(4, 64, ViyojitConfig::with_budget_pages(BUDGET))
                    .backend::<SoftwareWalk>()
                    .min_per_shard(4)
                    .rebalance_period(SimDuration::from_millis(10))
                    .clock(clock.clone())
                    .cost_model(CostModel::calibrated())
                    .ssd(SsdConfig::datacenter())
                    .profiler(profiler.clone())
                    .build_sequential()
                    .expect("a valid sharded configuration");
            // Construction charged the initial protection pass to the clock
            // before any shard scope existed; that time stays at the root.
            let setup_nanos = clock.now().as_nanos();
            let regions: Vec<_> = (0..4).map(|_| nv.map(32 * PAGE).expect("map")).collect();
            let mut rng = SplitMix64::new(seed);
            for _ in 0..OPS {
                let region = regions[rng.below(4) as usize];
                let page = rng.below(32);
                nv.write(region, page * PAGE, &[rng.next_u64() as u8; 8])
                    .expect("write");
            }
            let report = profiler.report().expect("enabled profiler reports");
            assert_eq!(report.elapsed.as_nanos(), clock.now().as_nanos());
            assert!(
                report.is_conserved(),
                "[seed {seed}] sharded attribution must conserve: {} of {} ns\n{}",
                report.attributed.as_nanos(),
                report.elapsed.as_nanos(),
                report.render_folded()
            );
            // Per-shard attribution: everything after construction descends
            // into a shard frame, so the flamegraph splits by shard.
            let shard_time: u64 = report
                .folded
                .iter()
                .filter(|(path, _)| path.starts_with("app;shard"))
                .map(|&(_, nanos)| nanos)
                .sum();
            assert_eq!(
                report.nanos_for("app"),
                setup_nanos,
                "[seed {seed}] only construction time stays at the root\n{}",
                report.render_folded()
            );
            assert_eq!(
                shard_time + setup_nanos,
                report.attributed.as_nanos(),
                "[seed {seed}] all post-setup time routes through shard scopes\n{}",
                report.render_folded()
            );
        },
    );
}
