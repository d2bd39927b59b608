//! Crash-point torture properties: bounded loss at every interleaving.
//!
//! Each test arms one named [`Crashpoint`] — a state-mutation seam where
//! an instantaneous power cut would abandon a multi-step mutation half
//! applied — lets the seeded workload (or the emergency flush itself)
//! trip it, then runs the *real* stepped emergency executor from that
//! exact intermediate state, recovers, and oracle-checks the paper's
//! durability contract:
//!
//! - every dirty page is flushed or reported lost;
//! - post-recovery memory diverges from the crash-instant image on at
//!   most `pages_lost` pages (at most the budget when the crash fired
//!   inside the flush itself, whose partial report is lost to the
//!   unwind);
//! - `pages_lost` never exceeds the dirty budget;
//! - every engine invariant holds after recovery.
//!
//! The parallel tests exercise the supervised runtime instead: a worker
//! panicking between its `ShardStats` upload and its budget-grant
//! download is quarantined, respawned from its shards' durable state,
//! and rejoined — siblings untouched, quarantined budget returned at the
//! next round — while a zero restart budget degrades to the fatal typed
//! error. Set `FAULT_SEED=<n>` to replay a single seed.

use std::panic::{catch_unwind, AssertUnwindSafe};

use battery_sim::{Battery, BatteryConfig, PowerModel};
use mem_sim::PAGE_SIZE;
use propcheck::{check_seeds, replayed_seed};
use sim_clock::{Clock, CostModel, SimDuration, SplitMix64};
use ssd_sim::SsdConfig;
use viyojit::{
    CrashSchedule, CrashSignal, Crashpoint, DirtyTracker, Engine, FaultConfig, FaultPlan,
    MmuAssisted, NvHeap, PowerFailureReport, ShardControlHandle, ShardControlPlane,
    ShardDataHandle, ShardDataPlane, ShardedViyojitBuilder, Sink, SoftwareWalk, Telemetry,
    TraceEvent, TracedEvent, ViyojitConfig, ViyojitError,
};

const PAGE: u64 = PAGE_SIZE as u64;
const TOTAL_PAGES: usize = 256;
const REGION_PAGES: u64 = 128;
const BUDGET: u64 = 32;
const WRITES: u64 = 1_024;
const STORM_RATE: f64 = 0.02;
const SEEDS_PER_PROPERTY: u64 = 16;

/// Every seam must fire somewhere in the full sweep (a seam no seed reaches
/// is dead instrumentation, not a passing test). One replayed seed owes
/// only the oracle: most seeds never reach the rarer seams.
fn assert_reachable(point: Crashpoint, fired: u32) {
    assert!(
        fired > 0 || replayed_seed().is_some(),
        "crashpoint {} never fired across the sweep — the seam is unreachable",
        point.name()
    );
}

fn mismatched_pages(a: &[u8], b: &[u8]) -> u64 {
    (0..a.len() / PAGE_SIZE)
        .filter(|&p| a[p * PAGE_SIZE..(p + 1) * PAGE_SIZE] != b[p * PAGE_SIZE..(p + 1) * PAGE_SIZE])
        .count() as u64
}

/// Everything one crash-armed life produced, for the bounded-loss oracle.
struct CrashRun {
    seed: u64,
    point: Crashpoint,
    fired: Option<CrashSignal>,
    /// The crash interrupted the powered flush itself, so `report` is the
    /// re-run's and the first attempt's partial accounting is lost.
    fired_in_flush: bool,
    crash_image: Vec<u8>,
    post: Vec<u8>,
    report: PowerFailureReport,
    invariant_violation: Option<String>,
    durable_consistent: bool,
}

/// One crash-armed storm life on a single engine: seeded workload under
/// fault injection with `point` armed at hit `hit`, the crash-instant
/// memory image captured through the costless [`Engine::peek`] (the
/// shadow reference), then the real powered emergency flush from the
/// abandoned intermediate state, and recovery.
fn engine_crash_scenario<B: DirtyTracker>(seed: u64, point: Crashpoint, hit: u64) -> CrashRun {
    let clock = Clock::new();
    let ssd_config = SsdConfig::datacenter();
    let crashes = CrashSchedule::armed(point, hit);
    let mut nv = Engine::<B>::new(
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

    // The crash-instant image, read without touching the engine state the
    // unwind abandoned.
    let mut crash_image = vec![0u8; (REGION_PAGES * PAGE) as usize];
    nv.peek(region, 0, &mut crash_image).expect("peek");

    let power = PowerModel::datacenter_server(0.064);
    let needed = ssd_config.drain_time(BUDGET * PAGE).as_secs_f64() * power.total_watts();
    let battery = Battery::new(
        BatteryConfig::with_capacity_joules(needed * (1.0 + (seed % 4) as f64))
            .with_depth_of_discharge(1.0),
    );
    let flush = catch_unwind(AssertUnwindSafe(|| {
        nv.power_failure_powered(&battery, &power)
    }));
    let fired_in_flush = flush.is_err();
    let report = flush.unwrap_or_else(|payload| {
        payload
            .downcast::<CrashSignal>()
            .expect("only injected crashes unwind the flush");
        // The schedule is latched, so the re-run flushes the remaining
        // obligation from the interrupted retry state without re-firing.
        nv.power_failure_powered(&battery, &power)
    });
    nv.recover();
    let mut post = vec![0u8; (REGION_PAGES * PAGE) as usize];
    nv.peek(region, 0, &mut post).expect("peek post-recovery");

    CrashRun {
        seed,
        point,
        fired: crashes.fired(),
        fired_in_flush,
        crash_image,
        post,
        report,
        invariant_violation: nv.check_invariants().err().map(|v| v.to_string()),
        durable_consistent: nv.durable_state_consistent(),
    }
}

/// The bounded-loss oracle, checked from whatever intermediate state the
/// unwind left behind.
fn check_bounded_loss(run: &CrashRun) {
    let ctx = format!(
        "[seed {} point {} fired {:?}]",
        run.seed,
        run.point.name(),
        run.fired
    );
    if let Some(violation) = &run.invariant_violation {
        panic!("{ctx} post-recovery invariant violated: {violation}");
    }
    assert!(
        run.durable_consistent,
        "{ctx} recovered memory must match the durable copies"
    );
    assert!(
        run.report.all_pages_accounted(),
        "{ctx} every dirty page must be flushed or reported lost: {:?}",
        run.report
    );
    assert!(
        run.report.pages_lost <= BUDGET,
        "{ctx} loss must respect the budget bound: {} > {BUDGET}",
        run.report.pages_lost
    );
    // A crash inside the flush loses that attempt's partial report to the
    // unwind, so the per-page accounting degrades to the budget bound.
    let bound = if run.fired_in_flush {
        BUDGET
    } else {
        run.report.pages_lost
    };
    let mismatches = mismatched_pages(&run.crash_image, &run.post);
    assert!(
        mismatches <= bound,
        "{ctx} {mismatches} pages diverge from the crash-instant image but the bound is {bound}"
    );
}

/// Sweeps `points` over the seed set on backend `B`, checking the oracle
/// on every run and that every seam is reachable.
fn sweep_engine_crashpoints<B: DirtyTracker>(name: &str, points: &[Crashpoint]) {
    for &point in points {
        let mut fired = 0u32;
        check_seeds(name, 0..SEEDS_PER_PROPERTY, |seed| {
            // Deep retries are rarer than walks; always take the first.
            let hit = if point == Crashpoint::EmergencyRetry {
                1
            } else {
                1 + seed % 4
            };
            let run = engine_crash_scenario::<B>(seed, point, hit);
            if let Some(signal) = run.fired {
                assert_eq!(
                    signal.point, point,
                    "an armed schedule must fire only its own point"
                );
                fired += 1;
            }
            check_bounded_loss(&run);
        });
        assert_reachable(point, fired);
    }
}

#[test]
fn software_walk_bounds_loss_at_every_reachable_crashpoint() {
    sweep_engine_crashpoints::<SoftwareWalk>(
        "software_walk_bounds_loss_at_every_reachable_crashpoint",
        &[
            Crashpoint::EpochWalk,
            Crashpoint::FlushInFlight,
            Crashpoint::EmergencyRetry,
        ],
    );
}

#[test]
fn mmu_assisted_bounds_loss_at_discovery_and_walk_crashpoints() {
    sweep_engine_crashpoints::<MmuAssisted>(
        "mmu_assisted_bounds_loss_at_discovery_and_walk_crashpoints",
        &[Crashpoint::DiscoveryScan, Crashpoint::EpochWalk],
    );
}

/// One crash-armed life on the sequential sharded frontend, where the
/// rebalance seams live: mid-rebalance (targets planned, no engine
/// touched) and between the shrink and grow passes of the apply loop.
fn sharded_crash_scenario(
    seed: u64,
    point: Crashpoint,
    hit: u64,
) -> (Option<CrashSignal>, PowerFailureReport, Option<String>) {
    let clock = Clock::new();
    let ssd_config = SsdConfig::datacenter();
    let crashes = CrashSchedule::armed(point, hit);
    let mut nv = ShardedViyojitBuilder::new(4, 64, ViyojitConfig::with_budget_pages(BUDGET))
        .backend::<SoftwareWalk>()
        .min_per_shard(4)
        .rebalance_period(SimDuration::from_micros(200))
        .clock(clock)
        .cost_model(CostModel::calibrated())
        .ssd(ssd_config.clone())
        .faults(FaultPlan::seeded(seed, FaultConfig::storm(STORM_RATE)))
        .crashes(crashes.clone())
        .build_sequential()
        .expect("a valid sharded configuration");
    let regions: Vec<_> = (0..4).map(|_| nv.map(32 * PAGE).expect("map")).collect();

    let mut rng = SplitMix64::new(seed);
    let workload = catch_unwind(AssertUnwindSafe(|| {
        for _ in 0..WRITES {
            let region = regions[rng.below(4) as usize];
            let page = rng.below(32);
            nv.write(region, page * PAGE, &[rng.next_u64() as u8; 8])
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
    let report = catch_unwind(AssertUnwindSafe(|| {
        nv.power_failure_powered(&battery, &power)
    }))
    .unwrap_or_else(|_| nv.power_failure_powered(&battery, &power));
    nv.recover();
    let violation = nv.check_invariants().err().map(|v| v.to_string());
    (crashes.fired(), report, violation)
}

#[test]
fn sharded_survives_rebalance_and_shrink_grow_crashes() {
    for &point in &[Crashpoint::Rebalance, Crashpoint::BudgetShrinkGrow] {
        let mut fired = 0u32;
        let name = "sharded_survives_rebalance_and_shrink_grow_crashes";
        check_seeds(name, 0..SEEDS_PER_PROPERTY, |seed| {
            let hit = 1 + seed % 3;
            let (signal, report, violation) = sharded_crash_scenario(seed, point, hit);
            let ctx = format!("[seed {seed} point {}]", point.name());
            if let Some(signal) = signal {
                assert_eq!(signal.point, point, "{ctx} wrong seam fired");
                fired += 1;
            }
            if let Some(violation) = violation {
                panic!("{ctx} post-recovery invariant violated: {violation}");
            }
            assert!(
                report.all_pages_accounted(),
                "{ctx} the aggregate must account for every dirty page: {report:?}"
            );
            assert!(
                report.pages_lost <= BUDGET,
                "{ctx} aggregate loss must respect the global budget: {} > {BUDGET}",
                report.pages_lost
            );
        });
        assert_reachable(point, fired);
    }
}

/// Collects drained trace events so the supervision tests can assert on
/// the panic/respawn lifecycle.
#[derive(Default)]
struct EventLog(Vec<TraceEvent>);

impl Sink for EventLog {
    fn event(&mut self, event: &TracedEvent) {
        self.0.push(event.event);
    }
}

/// A supervised parallel cluster: 4 shards of 64 pages, free costs and an
/// instant SSD so a respawn's emergency flush is lossless, rounds only
/// when the test asks for them.
fn supervised_cluster(
    threads: usize,
    restart_budget: u32,
    crashes: CrashSchedule,
    telemetry: Telemetry,
) -> (ShardDataHandle, ShardControlHandle) {
    ShardedViyojitBuilder::new(4, 64, ViyojitConfig::with_budget_pages(BUDGET))
        .backend::<SoftwareWalk>()
        .min_per_shard(2)
        .rebalance_period(SimDuration::from_secs(3_600))
        .clock(Clock::new())
        .cost_model(CostModel::free())
        .ssd(SsdConfig::instant())
        .telemetry(telemetry)
        .crashes(crashes)
        .restart_budget(restart_budget)
        .threads(threads)
        .build_parallel()
        .expect("a valid supervised configuration")
}

/// The satellite supervision property: a worker panicking inside a budget
/// round — after the arbiter owns its stats, before any grant lands — is
/// quarantined, respawned from durable state, and rejoined. The round
/// still completes, sibling shards' state is untouched, the panicked
/// shards recover losslessly at the floor budget, and the next round
/// returns the quarantined budget to the full provisioned total.
fn panic_mid_budget_round_is_survived(threads: usize) {
    let crashes = CrashSchedule::armed(Crashpoint::BudgetRound, 1);
    let clock = Clock::new();
    let telemetry = Telemetry::recording(clock);
    let (mut data, mut ctrl) = supervised_cluster(threads, 1, crashes.clone(), telemetry.clone());
    // Shard-sized regions force a 1:1 region/shard placement, so every
    // shard carries data and the respawned worker is identifiable.
    let regions: Vec<_> = (0..4).map(|_| data.map(64 * PAGE).expect("map")).collect();
    for (i, &region) in regions.iter().enumerate() {
        for page in 0..4u64 {
            data.write(region, page * PAGE, &[i as u8 + 1; 64])
                .expect("write");
        }
    }
    data.sync().expect("drain staged writes");
    let before = ctrl.shard_stats().expect("stats before the crash");
    for s in &before {
        assert!(s.dirty_pages > 0, "every shard starts dirty");
    }

    // The round one worker never finishes: it panics between its stats
    // upload and its grant download, and the arbiter finishes the round
    // over synthesized floor stats while the worker respawns.
    ctrl.rebalance().expect("the crashed round must complete");
    let fired = crashes.fired().expect("the armed budget_round seam fires");
    assert_eq!(fired.point, Crashpoint::BudgetRound);

    let after = ctrl.shard_stats().expect("stats after the respawn");
    let respawned: Vec<usize> = after
        .iter()
        .filter(|s| s.dirty_pages == 0)
        .map(|s| s.shard)
        .collect();
    assert_eq!(
        respawned.len(),
        4 / threads,
        "exactly one worker's shards were power-cycled: {respawned:?}"
    );
    for (b, a) in before.iter().zip(&after) {
        if respawned.contains(&a.shard) {
            assert_eq!(
                a.budget_pages, 2,
                "shard {} respawns pinned to the floor budget",
                a.shard
            );
        } else {
            assert_eq!(
                a.dirty_pages, b.dirty_pages,
                "sibling shard {} must keep its dirty set across the respawn",
                a.shard
            );
            assert_eq!(
                a.stats.bytes_flushed, b.stats.bytes_flushed,
                "sibling shard {} must not flush during the respawn",
                a.shard
            );
        }
    }

    let mut log = EventLog::default();
    telemetry.drain_into(&mut log);
    let panicked: Vec<_> = log
        .0
        .iter()
        .filter(|e| matches!(e, TraceEvent::ShardPanicked { .. }))
        .collect();
    assert_eq!(panicked.len(), 1, "exactly one worker panics: {panicked:?}");
    let respawn_losses: Vec<u64> = log
        .0
        .iter()
        .filter_map(|e| match e {
            TraceEvent::ShardRespawned { pages_lost, .. } => Some(*pages_lost),
            _ => None,
        })
        .collect();
    assert_eq!(
        respawn_losses,
        vec![0],
        "one lossless respawn (instant SSD, free costs)"
    );

    // Every byte survives: siblings never flushed, the panicked worker's
    // shards flushed everything before reloading from durable copies.
    for (i, &region) in regions.iter().enumerate() {
        for page in 0..4u64 {
            let mut buf = [0u8; 64];
            data.read(region, page * PAGE, &mut buf).expect("read");
            assert_eq!(
                buf,
                [i as u8 + 1; 64],
                "region {i} page {page} survives the supervised respawn"
            );
        }
    }

    // The quarantine lifted with the respawn: the next round replans the
    // full provisioned total across all shards, floors included.
    ctrl.rebalance().expect("post-respawn round");
    let rebalanced = ctrl.shard_stats().expect("stats after the next round");
    let assigned: u64 = rebalanced.iter().map(|s| s.budget_pages).sum();
    assert_eq!(
        assigned, BUDGET,
        "the quarantined budget returns once the worker rejoins"
    );
}

#[test]
fn panic_mid_budget_round_is_survived_at_two_threads() {
    panic_mid_budget_round_is_survived(2);
}

#[test]
fn panic_mid_budget_round_is_survived_at_four_threads() {
    panic_mid_budget_round_is_survived(4);
}

#[test]
fn exhausted_restart_budget_degrades_to_the_typed_error() {
    let crashes = CrashSchedule::armed(Crashpoint::BudgetRound, 1);
    let clock = Clock::new();
    let telemetry = Telemetry::recording(clock);
    let (mut data, mut ctrl) = supervised_cluster(2, 0, crashes, telemetry);
    let region = data.map(32 * PAGE).expect("map");
    data.write(region, 0, &[7u8; 64]).expect("write");
    data.sync().expect("drain staged writes");

    let err = ctrl
        .rebalance()
        .expect_err("with no restart budget the panic is fatal");
    assert!(
        matches!(err, ViyojitError::ShardFailed { .. }),
        "a dead worker surfaces as ShardFailed, got {err:?}"
    );
}
