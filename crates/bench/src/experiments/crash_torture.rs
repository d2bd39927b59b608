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
//! Ten seeds per cell; `--quick` runs five, as CI does.

use std::panic::{catch_unwind, AssertUnwindSafe};

use battery_sim::{Battery, PowerModel};
use mem_sim::PAGE_SIZE;
use sim_clock::{Clock, CostModel, SimDuration, SplitMix64};
use ssd_sim::SsdConfig;
use telemetry::{note, row, Report, Sink, TraceEvent, TracedEvent};
use viyojit::{
    CrashSchedule, CrashSignal, Crashpoint, DirtyTracker, Engine, FaultConfig, FaultPlan,
    FlushOutcome, InvariantViolation, MmuAssisted, NvHeap, PowerFailureReport, ShardControlPlane,
    ShardDataPlane, ShardedViyojit, ShardedViyojitBuilder, SoftwareWalk, Telemetry, ViyojitConfig,
};

const PAGE: u64 = PAGE_SIZE as u64;
const TOTAL_PAGES: usize = 256;
const REGION_PAGES: u64 = 128;
const BUDGET: u64 = 32;
const WRITES: u64 = 1_024;
const STORM_RATE: f64 = 0.02;

/// What one crash-armed life produced, reduced to the sweep's columns.
struct Outcome {
    fired: Option<CrashSignal>,
    report: PowerFailureReport,
}

/// A store a crash-armed life runs on: one engine or the sequential
/// sharded frontend.
trait Store: NvHeap {
    fn fail(&mut self, battery: &Battery, power: &PowerModel) -> PowerFailureReport;
    fn recover_and_check(&mut self) -> Result<(), InvariantViolation>;
}

impl<B: DirtyTracker> Store for Engine<B> {
    fn fail(&mut self, battery: &Battery, power: &PowerModel) -> PowerFailureReport {
        self.power_failure_powered(battery, power)
    }

    fn recover_and_check(&mut self) -> Result<(), InvariantViolation> {
        self.recover();
        self.check_invariants()
    }
}

impl Store for ShardedViyojit {
    fn fail(&mut self, battery: &Battery, power: &PowerModel) -> PowerFailureReport {
        self.power_failure_powered(battery, power)
    }

    fn recover_and_check(&mut self) -> Result<(), InvariantViolation> {
        self.recover();
        // The inherent check, not `ShardControlPlane`'s wrapped one.
        ShardedViyojit::check_invariants(self)
    }
}

/// Runs `WRITES` storm writes (`write` makes one) until the armed seam
/// crashes the workload or it ends, cuts power on a battery of 1-4 budget
/// flushes, and holds the recovered store to the bounded-loss oracle.
fn survive<S: Store>(
    mut nv: S,
    seed: u64,
    point: Crashpoint,
    crashes: &CrashSchedule,
    mut write: impl FnMut(&mut S, &mut SplitMix64),
) -> Outcome {
    let mut rng = SplitMix64::new(seed);
    let workload = catch_unwind(AssertUnwindSafe(|| {
        for _ in 0..WRITES {
            write(&mut nv, &mut rng);
        }
    }));
    if let Err(payload) = workload {
        payload
            .downcast::<CrashSignal>()
            .expect("only injected crashes unwind the workload");
    }

    let power = PowerModel::datacenter_server(0.064);
    let battery = super::margin_battery(BUDGET, 1.0 + (seed % 4) as f64);
    // The armed seam may sit inside the flush itself; the schedule is
    // latched, so the re-run completes the remaining obligation.
    let report = catch_unwind(AssertUnwindSafe(|| nv.fail(&battery, &power)))
        .unwrap_or_else(|_| nv.fail(&battery, &power));
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
    if let Err(violation) = nv.recover_and_check() {
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

/// One crash-armed storm life on a single engine (the per-engine seams:
/// epoch walk, discovery scan, in-flight flush, emergency retry).
fn engine_torture<B: DirtyTracker>(seed: u64, point: Crashpoint, hit: u64) -> Outcome {
    let crashes = CrashSchedule::armed(point, hit);
    let mut nv = Engine::<B>::new(
        TOTAL_PAGES,
        ViyojitConfig::with_budget_pages(BUDGET),
        Clock::new(),
        CostModel::calibrated(),
        SsdConfig::datacenter(),
    );
    nv.attach_faults(FaultPlan::seeded(seed, FaultConfig::storm(STORM_RATE)));
    nv.attach_crashes(crashes.clone());
    let region = nv.map(REGION_PAGES * PAGE).expect("map");
    survive(nv, seed, point, &crashes, |nv, rng| {
        let page = rng.below(REGION_PAGES);
        let offset = rng.below(PAGE - 8);
        let fill = rng.next_u64() as u8;
        nv.write(region, page * PAGE + offset, &[fill; 8])
            .expect("write");
    })
}

/// One crash-armed storm life on the sequential sharded frontend (the
/// rebalance seams: mid-rebalance and between shrink and grow).
fn sharded_torture(seed: u64, point: Crashpoint, hit: u64) -> Outcome {
    let crashes = CrashSchedule::armed(point, hit);
    let mut nv = ShardedViyojitBuilder::new(4, 64, ViyojitConfig::with_budget_pages(BUDGET))
        .backend::<SoftwareWalk>()
        .min_per_shard(4)
        .rebalance_period(SimDuration::from_micros(200))
        .clock(Clock::new())
        .cost_model(CostModel::calibrated())
        .ssd(SsdConfig::datacenter())
        .faults(FaultPlan::seeded(seed, FaultConfig::storm(STORM_RATE)))
        .crashes(crashes.clone())
        .build_sequential()
        .expect("a valid sharded configuration");
    let regions: Vec<_> = (0..4).map(|_| nv.map(32 * PAGE).expect("map")).collect();
    survive(nv, seed, point, &crashes, |nv, rng| {
        let region = regions[rng.below(4) as usize];
        let page = rng.below(32);
        nv.write(region, page * PAGE, &[rng.next_u64() as u8; 8])
            .expect("write");
    })
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

pub(crate) fn run(args: &super::Args) {
    // Injected crashes are always caught at the harness.
    super::quiet_injected_crashes();
    let seeds: u64 = if args.quick { 5 } else { 10 };
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
