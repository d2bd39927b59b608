//! Property tests of the observability plane's two core contracts:
//!
//! 1. **Merge fidelity** — the merged view of per-thread telemetry
//!    shards is indistinguishable from the single shared registry the
//!    sequential frontend writes: counters agree exactly (`Sum`-kind
//!    counters add across shards, `Cumulative`-kind counters saturate to
//!    the max, reproducing what the one shared registry would hold) and
//!    histograms agree bucket-for-bucket. This is what lets dashboards
//!    and the exporter treat a parallel deployment as one machine.
//! 2. **Black-box determinism** — under the `FAULT_SEED` contract, a
//!    crash-armed parallel run dumps a byte-identical
//!    `postmortem-<thread>.jsonl` every time: the flight recorder
//!    captures only per-thread virtual-time data (no wall clock), so a
//!    crash report is reproducible evidence, not a race snapshot.
//! 3. **Mode-blind control black box** — entering degraded mode leaves
//!    the same `control` dump whichever execution mode runs the
//!    deployment: taken before the shrinking round, stamped with the
//!    last completed round.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Once;

use mem_sim::PAGE_SIZE;
use propcheck::{check, int, vec_of, weighted};
use sim_clock::{Clock, CostModel, SimDuration, SplitMix64};
use ssd_sim::SsdConfig;
use telemetry::{FlightRecorder, RunMeta};
use viyojit::{
    CrashSchedule, CrashSignal, Crashpoint, DegradationConfig, DegradationGovernor, FaultConfig,
    FaultPlan, NvHeap, ShardControlHandle, ShardControlPlane, ShardDataHandle, ShardDataPlane,
    ShardedViyojit, ShardedViyojitBuilder, SoftwareWalk, Telemetry, ViyojitConfig, ViyojitError,
};

const PAGE: u64 = PAGE_SIZE as u64;
const REGION_PAGES: u64 = 24;
const FAULT_SEED: u64 = 42;

/// Injected crashes unwind worker threads with a [`CrashSignal`]
/// payload; the supervisor absorbs them, so their backtraces are noise.
/// Genuine panics (a failing property among them) keep the default hook.
fn suppress_crash_signal_backtraces() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashSignal>().is_none() {
                default_hook(info);
            }
        }));
    });
}

#[derive(Debug)]
enum Op {
    Write { offset: u64, len: u16, fill: u8 },
    Idle { micros: u16 },
    SetBudget { pages: u64 },
}

fn gen_op(rng: &mut SplitMix64) -> Op {
    let max_off = REGION_PAGES * PAGE - u16::MAX as u64;
    match weighted(rng, &[6, 2, 1]) {
        0 => Op::Write {
            offset: int(rng, 0..max_off),
            len: int(rng, 1..2048) as u16,
            fill: rng.next_u64() as u8,
        },
        1 => Op::Idle {
            micros: int(rng, 1..2000) as u16,
        },
        _ => Op::SetBudget {
            pages: int(rng, 2..14),
        },
    }
}

/// One sharded deployment in either execution mode, seen through the
/// plane traits (the same shape as the engine-equivalence driver).
enum Cluster {
    Sequential(Box<ShardedViyojit>),
    Parallel(ShardDataHandle, ShardControlHandle),
}

impl Cluster {
    fn data(&mut self) -> &mut dyn ShardDataPlane {
        match self {
            Cluster::Sequential(nv) => &mut **nv,
            Cluster::Parallel(data, _) => data,
        }
    }

    fn ctrl(&mut self) -> &mut dyn ShardControlPlane {
        match self {
            Cluster::Sequential(nv) => &mut **nv,
            Cluster::Parallel(_, ctrl) => ctrl,
        }
    }
}

/// Free writes and an instant SSD freeze the clock between steps, so the
/// only timeline is the driver's — the precondition for identical
/// virtual-time metrics across execution modes.
fn observed_builder(shards: usize, budget: u64, telemetry: Telemetry) -> ShardedViyojitBuilder {
    ShardedViyojitBuilder::new(shards, 64, ViyojitConfig::with_budget_pages(budget))
        .min_per_shard(2)
        .rebalance_period(SimDuration::from_micros(500))
        .clock(Clock::new())
        .cost_model(CostModel::free())
        .ssd(SsdConfig::instant())
        .telemetry(telemetry)
}

/// One histogram's comparable shape: sample count plus its occupied
/// `(bucket, count)` pairs.
type HistogramShape = (u64, Vec<(u64, u64)>);

/// Everything the merge-fidelity property compares: every counter by
/// name, and every histogram as (sample count, occupied buckets).
#[derive(Debug, PartialEq)]
struct MetricsOutcome {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, HistogramShape>,
}

/// Drives one deployment through the shared workload and returns its
/// merged metrics. Besides the engine-published metrics, the driver
/// records its own samples — in sequential mode into the one shared
/// handle, in parallel mode round-robined across two explicitly forked
/// telemetry shards — so the property exercises every merge rule
/// (`Sum` add, `Cumulative` max, bucket-wise histograms), not just the
/// engine's publication pattern.
fn drive_observed(
    threads: Option<usize>,
    shards: usize,
    budget: u64,
    ops: &[Op],
) -> Result<MetricsOutcome, ViyojitError> {
    let telemetry = Telemetry::recording(Clock::new());
    let builder = observed_builder(shards, budget, telemetry.clone());
    let (mut nv, recorders) = match threads {
        None => (
            Cluster::Sequential(Box::new(builder.build_sequential()?)),
            vec![telemetry.clone()],
        ),
        Some(t) => {
            let (data, ctrl) = builder.threads(t).build_parallel()?;
            let recorders = (0..2).map(|_| telemetry.fork_shard(Clock::new())).collect();
            (Cluster::Parallel(data, ctrl), recorders)
        }
    };

    let region_bytes = (REGION_PAGES / 4 * PAGE) as usize;
    let regions = (0..4)
        .map(|_| nv.data().map(region_bytes as u64))
        .collect::<Result<Vec<_>, _>>()?;

    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Write { offset, len, fill } => {
                let region = i % regions.len();
                let off = offset as usize % (region_bytes - len as usize);
                nv.data()
                    .write(regions[region], off as u64, &vec![fill; len as usize])?;
            }
            Op::Idle { micros } => {
                nv.data().step(SimDuration::from_micros(micros as u64))?;
            }
            Op::SetBudget { pages } => {
                nv.data().sync()?;
                match nv.ctrl().set_total_budget(pages) {
                    Ok(()) | Err(ViyojitError::InvalidConfig(_)) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        recorders[i % recorders.len()].metrics(|m| {
            m.counter_add("driver.ops", 1);
            m.counter_set("driver.high_water", i as u64 + 1);
            m.histogram_record(
                "driver.op_nanos",
                SimDuration::from_nanos((i as u64 % 13) * 97 + 1),
            );
        });
    }

    nv.data().sync()?;
    nv.ctrl().check_invariants()?;
    nv.ctrl().power_failure()?;
    let merged = telemetry
        .merged_registry()
        .expect("a recording telemetry always merges");
    Ok(MetricsOutcome {
        counters: merged.counters().collect(),
        histograms: merged
            .histograms()
            .map(|(name, h)| (name, (h.len(), h.bucket_counts().collect())))
            .collect(),
    })
}

/// The merge-fidelity property: whatever the workload, the merged
/// multi-thread registry replays the sequential shared registry —
/// every counter exactly (engine `Cumulative` publications saturate
/// to the same max, driver `Sum` counters add to the same total)
/// and every histogram bucket-for-bucket.
#[test]
fn merged_parallel_metrics_replay_the_sequential_registry() {
    check(
        "merged_parallel_metrics_replay_the_sequential_registry",
        16,
        |rng| {
            let ops = vec_of(rng, 1..60, gen_op);
            let shards = int(rng, 2..5) as usize;
            let budget = int(rng, 8..40);
            let seq = drive_observed(None, shards, budget, &ops)
                .expect("the sequential run must not fail");
            assert_eq!(
                seq.counters.get("driver.ops").copied(),
                Some(ops.len() as u64),
                "the driver's Sum counter must total the op count"
            );
            for &threads in &[2usize, 4] {
                let par = drive_observed(Some(threads), shards, budget, &ops)
                    .expect("the parallel run must not fail");
                assert_eq!(
                    &par.counters, &seq.counters,
                    "{} threads: merged counters must replay the shared registry",
                    threads
                );
                assert_eq!(
                    &par.histograms, &seq.histograms,
                    "{} threads: merged histograms must agree bucket-for-bucket",
                    threads
                );
            }
        },
    );
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("viyojit-obsprop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One crash-armed single-worker parallel run under the `FAULT_SEED`
/// contract; returns the bytes of the worker's black box.
fn crashed_run_dump(dir: &PathBuf) -> Vec<u8> {
    suppress_crash_signal_backtraces();
    let meta = RunMeta::new(
        "observability_prop",
        "Viyojit",
        "shards=2 budget=16 storm=0.05",
        Some(FAULT_SEED),
    );
    let flight = FlightRecorder::new(dir, meta).expect("create flight recorder");
    let crashes = CrashSchedule::armed(Crashpoint::BudgetRound, 1);
    let (mut data, mut ctrl) =
        ShardedViyojitBuilder::new(2, 64, ViyojitConfig::with_budget_pages(16))
            .backend::<SoftwareWalk>()
            .min_per_shard(2)
            .rebalance_period(SimDuration::from_micros(500))
            .clock(Clock::new())
            .cost_model(CostModel::free())
            .ssd(SsdConfig::instant())
            .telemetry(Telemetry::recording(Clock::new()))
            .faults(FaultPlan::seeded(FAULT_SEED, FaultConfig::storm(0.05)))
            .crashes(crashes.clone())
            .restart_budget(1)
            .threads(1)
            .flight_recorder(flight)
            .build_parallel()
            .expect("a valid crash-armed configuration");

    let regions: Vec<_> = (0..2).map(|_| data.map(8 * PAGE).expect("map")).collect();
    for (i, &region) in regions.iter().enumerate() {
        for page in 0..8u64 {
            data.write(region, page * PAGE, &[(i as u8) ^ (page as u8); 64])
                .expect("write");
        }
    }
    data.sync().expect("drain staged writes");
    ctrl.rebalance().expect("the armed round must be absorbed");
    assert!(
        crashes.fired().is_some(),
        "the armed budget_round seam never fired"
    );
    data.write(regions[0], 0, &[0xAB; 64])
        .expect("post-respawn write");
    data.sync().expect("drain staged writes");
    drop(data);
    drop(ctrl);

    std::fs::read(dir.join("postmortem-worker0.jsonl")).expect("the black box must exist")
}

/// The black-box determinism property: two crash-armed runs under the
/// same `FAULT_SEED` leave byte-identical postmortem dumps, and the
/// dump carries the full renderable structure — run-identity header,
/// crash seam, retained events, and the final registry snapshot.
#[test]
fn flight_recorder_dumps_are_deterministic_under_the_fault_seed() {
    let dir_a = temp_dir("seed-a");
    let dir_b = temp_dir("seed-b");
    let first = crashed_run_dump(&dir_a);
    let second = crashed_run_dump(&dir_b);
    assert_eq!(
        first, second,
        "the same seed must reproduce the black box byte-for-byte"
    );

    let text = String::from_utf8(first).expect("dumps are UTF-8 JSONL");
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines[0].starts_with("{\"type\":\"meta\"") && lines[0].contains("\"fault_seed\":42"),
        "the dump must open with the run-identity record: {}",
        lines[0]
    );
    assert!(
        lines[1].starts_with("{\"type\":\"postmortem\"")
            && lines[1].contains("\"label\":\"worker0\"")
            && lines[1].contains("\"trigger\":\"crash_signal:budget_round\""),
        "the dump must name the dumping thread and the firing seam: {}",
        lines[1]
    );
    assert!(
        lines[2..lines.len() - 1]
            .iter()
            .all(|l| l.starts_with("{\"type\":\"event\"")),
        "the body must be the thread's retained trace events"
    );
    assert!(
        lines.len() > 3,
        "a crash mid-workload must retain at least one event"
    );
    assert!(
        lines[lines.len() - 1].starts_with("{\"type\":\"snapshot\""),
        "the dump must close with the registry snapshot: {}",
        lines[lines.len() - 1]
    );
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Drives one deployment through two idle budget rounds and then into
/// degraded mode; returns its `control` black box's header `last_round`
/// and the kinds of the events the box retained.
fn degraded_mode_dump(threads: Option<usize>) -> (u64, Vec<String>) {
    let dir = temp_dir(&format!("degraded-{}", threads.unwrap_or(0)));
    let meta = RunMeta::new("observability_prop", "Viyojit", "shards=4 budget=32", None);
    let flight = FlightRecorder::new(&dir, meta).expect("create flight recorder");
    let telemetry = Telemetry::recording(Clock::new());
    let builder = observed_builder(4, 32, telemetry.clone()).flight_recorder(flight);
    let mut nv = match threads {
        None => Cluster::Sequential(Box::new(
            builder.build_sequential().expect("a valid configuration"),
        )),
        Some(t) => {
            let (data, ctrl) = builder
                .threads(t)
                .build_parallel()
                .expect("a valid configuration");
            Cluster::Parallel(data, ctrl)
        }
    };
    for _ in 0..2 {
        nv.data()
            .step(SimDuration::from_micros(600))
            .expect("an idle step crosses one rebalance boundary");
    }
    assert_eq!(nv.ctrl().rebalances().expect("rounds"), 2);

    // A collapsing battery gauge: degraded fraction 0.5 of the nominal 32.
    let mut governor = DegradationGovernor::new(32, DegradationConfig::default());
    let applied = nv
        .ctrl()
        .govern_degradation(&mut governor, 0.1)
        .expect("the degradation round must complete");
    assert_eq!(applied, Some(16), "an unhealthy battery must degrade");
    assert_eq!(nv.ctrl().total_budget_pages(), 16);
    assert_eq!(
        nv.ctrl().rebalances().expect("rounds"),
        3,
        "the transition shrinks through one more round"
    );
    assert!(
        telemetry
            .events()
            .iter()
            .any(|e| e.event.kind() == "battery_recalc"),
        "the shrinking round must have re-budgeted the shards"
    );

    let text = std::fs::read_to_string(dir.join("postmortem-control.jsonl"))
        .expect("degraded-mode entry must leave a control black box");
    let _ = std::fs::remove_dir_all(&dir);
    let field = |line: &str, key: &str| -> String {
        let start = line.find(key).expect("the field is present") + key.len();
        let rest = &line[start..];
        rest[..rest.find(['"', ',', '}']).expect("the field ends")].to_string()
    };
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines[1].contains("\"label\":\"control\"")
            && lines[1].contains("\"trigger\":\"degraded_mode\""),
        "the dump must name its side and its trigger: {}",
        lines[1]
    );
    let last_round = field(lines[1], "\"last_round\":")
        .parse()
        .expect("last_round is a number");
    let kinds = lines
        .iter()
        .filter(|l| l.starts_with("{\"type\":\"event\""))
        .map(|l| field(l, "\"kind\":\""))
        .collect();
    (last_round, kinds)
}

/// The control black box is mode-blind: both execution modes dump on
/// degraded-mode entry *before* the shrinking round — so the box holds
/// the state that tripped the governor, not the shrink's own
/// re-budgeting — and stamp it with the last *completed* round.
#[test]
fn degraded_mode_black_boxes_agree_across_execution_modes() {
    let seq = degraded_mode_dump(None);
    assert_eq!(seq.0, 2, "the header names the last completed round");
    assert_eq!(
        seq.1,
        ["degraded_mode_changed"],
        "the box is taken before the shrink re-budgets any shard"
    );
    for threads in [1usize, 2] {
        assert_eq!(
            degraded_mode_dump(Some(threads)),
            seq,
            "{threads} threads must leave the sequential frontend's black box"
        );
    }
}

/// Guards the merge property against vacuity: a handcrafted workload in
/// parallel mode must actually cross budget rounds and dirty pages, and
/// its merged registry must carry the engine counters, the per-shard
/// gauges, and the driver histogram the property compares.
#[test]
fn the_observed_workload_populates_the_merged_registry() {
    let mut ops = Vec::new();
    for round in 0..4u64 {
        for i in 0..12u64 {
            ops.push(Op::Write {
                offset: (i % 6) * PAGE,
                len: 16,
                fill: (round * 12 + i) as u8,
            });
        }
        ops.push(Op::Idle { micros: 1500 });
    }
    let outcome =
        drive_observed(Some(2), 4, 16, &ops).expect("the handcrafted workload must not fail");
    assert!(outcome.counters["viyojit.pages_dirtied"] > 0);
    assert!(outcome.counters["viyojit.epochs"] > 0, "no epoch walk ran");
    assert!(
        outcome.counters["sharded.rebalances"] > 0,
        "no budget round ran"
    );
    assert_eq!(outcome.counters["driver.ops"], ops.len() as u64);
    assert_eq!(outcome.counters["driver.high_water"], ops.len() as u64);
    let (samples, buckets) = &outcome.histograms["driver.op_nanos"];
    assert_eq!(*samples, ops.len() as u64);
    assert!(!buckets.is_empty());
}
