//! Crash-point torture sweep: arms every instrumented state-mutation
//! seam in turn, crashes a seeded storm workload there, runs the real
//! emergency executor from the abandoned intermediate state, and reports
//! survival and loss per seam.
//!
//! Where `fault_storm` asks whether the emergency flush finishes under
//! device faults, this torture asks whether the *durability contract*
//! holds when execution is cut mid-mutation: every dirty page flushed or
//! reported lost, loss never above the dirty budget, and (for the
//! parallel seam) a panicked worker respawned from durable state without
//! touching its siblings. Every row is an assertion as well as a
//! measurement — a violated bound aborts the sweep with the seed in the
//! panic message.
//!
//! Usage: `crash_torture [seeds-per-cell]` (default 10).

use std::panic::{catch_unwind, AssertUnwindSafe};

use battery_sim::{Battery, BatteryConfig, PowerModel};
use mem_sim::PAGE_SIZE;
use sim_clock::{Clock, CostModel, SimDuration, SplitMix64};
use ssd_sim::SsdConfig;
use telemetry::{note, row, Report, Sink, TraceEvent, TracedEvent};
use viyojit::{
    CrashSchedule, CrashSignal, Crashpoint, DirtyTracker, Engine, FaultConfig, FaultPlan,
    FlushOutcome, MmuAssisted, NvHeap, PowerFailureReport, ShardControlPlane, ShardDataPlane,
    ShardedViyojitBuilder, SoftwareWalk, Telemetry, ViyojitConfig,
};

const PAGE: u64 = PAGE_SIZE as u64;
const TOTAL_PAGES: usize = 256;
const REGION_PAGES: u64 = 128;
const BUDGET: u64 = 32;
const WRITES: u64 = 1_024;
const STORM_RATE: f64 = 0.02;

fn storm_battery(seed: u64, ssd: &SsdConfig, power: &PowerModel) -> Battery {
    let needed = ssd.drain_time(BUDGET * PAGE).as_secs_f64() * power.total_watts();
    Battery::new(
        BatteryConfig::with_capacity_joules(needed * (1.0 + (seed % 4) as f64))
            .with_depth_of_discharge(1.0),
    )
}

/// What one crash-armed life produced, reduced to the sweep's columns.
struct Outcome {
    fired: Option<CrashSignal>,
    report: PowerFailureReport,
}

/// One crash-armed storm life on a single engine (the per-engine seams:
/// epoch walk, discovery scan, in-flight flush, emergency retry).
fn engine_torture<B: DirtyTracker>(seed: u64, point: Crashpoint, hit: u64) -> Outcome {
    let ssd_config = SsdConfig::datacenter();
    let crashes = CrashSchedule::armed(point, hit);
    let mut nv = Engine::<B>::new(
        TOTAL_PAGES,
        ViyojitConfig::with_budget_pages(BUDGET),
        Clock::new(),
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
    let battery = storm_battery(seed, &ssd_config, &power);
    // The armed seam may sit inside the flush itself; the schedule is
    // latched, so the re-run completes the remaining obligation.
    let report = catch_unwind(AssertUnwindSafe(|| {
        nv.power_failure_powered(&battery, &power)
    }))
    .unwrap_or_else(|_| nv.power_failure_powered(&battery, &power));
    nv.recover();

    assert!(
        report.all_pages_accounted(),
        "[{} seed {seed}] unaccounted pages: {report:?}",
        point.name()
    );
    assert!(
        report.pages_lost <= BUDGET,
        "[{} seed {seed}] loss above the budget bound: {report:?}",
        point.name()
    );
    if let Err(violation) = nv.check_invariants() {
        panic!(
            "[{} seed {seed}] invariant violated: {violation}",
            point.name()
        );
    }
    Outcome {
        fired: crashes.fired(),
        report,
    }
}

/// One crash-armed storm life on the sequential sharded frontend (the
/// rebalance seams: mid-rebalance and between shrink and grow).
fn sharded_torture(seed: u64, point: Crashpoint, hit: u64) -> Outcome {
    let ssd_config = SsdConfig::datacenter();
    let crashes = CrashSchedule::armed(point, hit);
    let mut nv = ShardedViyojitBuilder::new(4, 64, ViyojitConfig::with_budget_pages(BUDGET))
        .backend::<SoftwareWalk>()
        .min_per_shard(4)
        .rebalance_period(SimDuration::from_micros(200))
        .clock(Clock::new())
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
    let battery = storm_battery(seed, &ssd_config, &power);
    let report = catch_unwind(AssertUnwindSafe(|| {
        nv.power_failure_powered(&battery, &power)
    }))
    .unwrap_or_else(|_| nv.power_failure_powered(&battery, &power));
    nv.recover();

    assert!(
        report.all_pages_accounted(),
        "[{} seed {seed}] unaccounted pages: {report:?}",
        point.name()
    );
    assert!(
        report.pages_lost <= BUDGET,
        "[{} seed {seed}] loss above the budget bound: {report:?}",
        point.name()
    );
    if let Err(violation) = nv.check_invariants() {
        panic!(
            "[{} seed {seed}] invariant violated: {violation}",
            point.name()
        );
    }
    Outcome {
        fired: crashes.fired(),
        report,
    }
}

#[derive(Default)]
struct EventLog(Vec<TraceEvent>);

impl Sink for EventLog {
    fn event(&mut self, event: &TracedEvent) {
        self.0.push(event.event);
    }
}

/// One supervised-parallel life: a worker panics between its stats upload
/// and its grant download, is respawned from durable state, and the next
/// round hands the quarantined budget back. Loss is the respawn flush's.
fn parallel_torture(seed: u64, threads: usize) -> Outcome {
    let crashes = CrashSchedule::armed(Crashpoint::BudgetRound, 1);
    let telemetry = Telemetry::recording(Clock::new());
    let (mut data, mut ctrl) =
        ShardedViyojitBuilder::new(4, 64, ViyojitConfig::with_budget_pages(BUDGET))
            .backend::<SoftwareWalk>()
            .min_per_shard(2)
            .rebalance_period(SimDuration::from_secs(3_600))
            .clock(Clock::new())
            .cost_model(CostModel::free())
            .ssd(SsdConfig::instant())
            .telemetry(telemetry.clone())
            .crashes(crashes.clone())
            .restart_budget(1)
            .threads(threads)
            .build_parallel()
            .expect("a valid supervised configuration");
    let regions: Vec<_> = (0..4).map(|_| data.map(64 * PAGE).expect("map")).collect();
    let mut rng = SplitMix64::new(seed);
    for &region in &regions {
        for page in 0..4u64 {
            data.write(region, page * PAGE, &[rng.next_u64() as u8; 64])
                .expect("write");
        }
    }
    data.sync().expect("drain staged writes");

    ctrl.rebalance()
        .unwrap_or_else(|e| panic!("[budget_round seed {seed}] crashed round failed: {e}"));
    let fired = crashes.fired();
    assert!(
        fired.is_some(),
        "[budget_round seed {seed}] the armed seam never fired"
    );
    ctrl.rebalance()
        .unwrap_or_else(|e| panic!("[budget_round seed {seed}] post-respawn round failed: {e}"));
    let stats = ctrl.shard_stats().expect("post-respawn stats");
    let assigned: u64 = stats.iter().map(|s| s.budget_pages).sum();
    assert_eq!(
        assigned, BUDGET,
        "[budget_round seed {seed}] quarantined budget never returned"
    );

    let mut log = EventLog::default();
    telemetry.drain_into(&mut log);
    let pages_lost: u64 = log
        .0
        .iter()
        .filter_map(|e| match e {
            TraceEvent::ShardRespawned { pages_lost, .. } => Some(*pages_lost),
            _ => None,
        })
        .sum();
    Outcome {
        fired,
        report: PowerFailureReport {
            dirty_pages: pages_lost,
            pages_flushed: 0,
            pages_lost,
            retries: 0,
            bytes_flushed: 0,
            flush_time: SimDuration::ZERO,
            energy_margin_joules: f64::INFINITY,
            outcome: FlushOutcome::Complete,
        },
    }
}

/// The sweep cells: every instrumented seam, in the execution context
/// where it is reachable.
const CELLS: [(Crashpoint, &str); 7] = [
    (Crashpoint::EpochWalk, "engine/software-walk"),
    (Crashpoint::FlushInFlight, "engine/software-walk"),
    (Crashpoint::EmergencyRetry, "engine/software-walk"),
    (Crashpoint::DiscoveryScan, "engine/mmu-assisted"),
    (Crashpoint::Rebalance, "sharded/sequential"),
    (Crashpoint::BudgetShrinkGrow, "sharded/sequential"),
    (Crashpoint::BudgetRound, "sharded/parallel-2t"),
];

fn run_cell(point: Crashpoint, seed: u64) -> Outcome {
    match point {
        Crashpoint::EmergencyRetry => engine_torture::<SoftwareWalk>(seed, point, 1),
        Crashpoint::EpochWalk | Crashpoint::FlushInFlight => {
            engine_torture::<SoftwareWalk>(seed, point, 1 + seed % 4)
        }
        Crashpoint::DiscoveryScan => engine_torture::<MmuAssisted>(seed, point, 1 + seed % 4),
        Crashpoint::Rebalance | Crashpoint::BudgetShrinkGrow => {
            sharded_torture(seed, point, 1 + seed % 3)
        }
        Crashpoint::BudgetRound => parallel_torture(seed, 2),
    }
}

fn main() {
    // Injected crashes unwind with a CrashSignal payload and are always
    // caught at the harness; keep the default hook (and its backtrace
    // spew) for genuine failures only.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<CrashSignal>().is_none() {
            default_hook(info);
        }
    }));

    let seeds: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seeds-per-cell must be a number"))
        .unwrap_or(10);
    let mut report = Report::stdout_csv();
    report.meta(&telemetry::RunMeta::new(
        "crash_torture",
        "Viyojit",
        &format!("seeds_per_cell={seeds} storm_rate={STORM_RATE}"),
        Some(42),
    ));

    report.section("crash-point torture: survival and loss per seam");
    report.columns(&[
        "crashpoint",
        "context",
        "runs",
        "fired",
        "survival",
        "avg_pages_lost",
        "max_pages_lost",
    ]);
    for (point, context) in CELLS {
        let mut fired = 0u64;
        let mut lost = 0u64;
        let mut worst = 0u64;
        for seed in 0..seeds {
            let outcome = run_cell(point, seed);
            if outcome.fired.is_some() {
                fired += 1;
            }
            lost += outcome.report.pages_lost;
            worst = worst.max(outcome.report.pages_lost);
        }
        // Every run that reaches this line passed the recovery oracle.
        row!(
            report,
            "{},{context},{seeds},{fired},1.00,{:.1},{worst}",
            point.name(),
            lost as f64 / seeds as f64,
        );
    }

    report.section("seeded reproducibility: one crashed life, twice");
    report.columns(&["crashpoint", "seed", "fired_hit", "pages_lost", "outcome"]);
    let seed = 42;
    let a = engine_torture::<SoftwareWalk>(seed, Crashpoint::FlushInFlight, 1);
    let b = engine_torture::<SoftwareWalk>(seed, Crashpoint::FlushInFlight, 1);
    assert_eq!(a.fired, b.fired, "the same seed must fire the same hit");
    assert_eq!(a.report, b.report, "the same seed must lose the same pages");
    row!(
        report,
        "flush_in_flight,{seed},{:?},{},{:?}",
        a.fired.map(|f| f.hit),
        a.report.pages_lost,
        a.report.outcome,
    );
    note!(
        report,
        "identical reports across reruns of seed {seed}; every row above also \
         asserted the bounded-loss oracle in-run"
    );
}
