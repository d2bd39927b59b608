//! Shard-count sweep for the sharded multi-tenant frontend: one battery's
//! dirty budget, split across 1/2/4/8 shards by the budget arbiter.
//!
//! A skewed multi-region workload (a few hot regions, many cold ones)
//! drives each configuration for the same number of operations. With one
//! shard the engine sees the global budget directly; with more shards the
//! arbiter must keep re-dividing the same budget toward whichever shards'
//! regions are hot. The interesting outputs are the stall counts (how
//! much of the budget each configuration actually gets to use where it is
//! needed) and the rebalance count, with the power-failure flush proving
//! the global bound held regardless of shard count.

use crate::profile::ProfileCapture;
use mem_sim::PAGE_SIZE;
use sim_clock::{Clock, CostModel, SimDuration, SplitMix64};
use ssd_sim::SsdConfig;
use telemetry::{note, row, Report};
use viyojit::{NvHeap, ShardedViyojit, ShardedViyojitBuilder, ViyojitConfig};

pub(super) const PAGE: u64 = PAGE_SIZE as u64;
pub(super) const GLOBAL_BUDGET: u64 = 512;
const MIN_PER_SHARD: u64 = 16;
const PAGES_PER_SHARD: usize = 4096;
pub(super) const REGIONS: u64 = 16;
pub(super) const REGION_PAGES: u64 = 256;
const OPS: u64 = 60_000;
/// Writes between 1 ms clock advances (the epoch/rebalance heartbeat).
pub(super) const OPS_PER_TICK: u64 = 200;

/// `shards` shards of `PAGES_PER_SHARD` pages sharing one battery's
/// `GLOBAL_BUDGET`, re-divided every 5 ms.
pub(super) fn cluster(shards: usize) -> ShardedViyojitBuilder {
    ShardedViyojitBuilder::new(
        shards,
        PAGES_PER_SHARD,
        ViyojitConfig::builder(GLOBAL_BUDGET)
            .total_pages(PAGES_PER_SHARD as u64)
            .build()
            .expect("valid shard configuration"),
    )
    .min_per_shard(MIN_PER_SHARD)
    .rebalance_period(SimDuration::from_millis(5))
}

/// The region and page the write drawn as `r` lands on: 80% of writes
/// rewrite a compact 160-page working set in the 3 hot regions, the rest
/// wander anywhere in the cold ones.
pub(super) fn skewed_target(r: u64) -> (usize, u64) {
    if r % 10 < 8 {
        (((r >> 8) % 3) as usize, (r >> 24) % 160)
    } else {
        (
            (3 + (r >> 8) % (REGIONS - 3)) as usize,
            (r >> 24) % REGION_PAGES,
        )
    }
}

fn drive(shards: usize) -> (u64, u64, u64, u64, u64, bool) {
    let clock = Clock::new();
    let capture = ProfileCapture::from_env(
        &format!("s{shards}"),
        "Sharded-Viyojit",
        &format!(
            "shards={shards} pages_per_shard={PAGES_PER_SHARD} budget={GLOBAL_BUDGET} \
             min_per_shard={MIN_PER_SHARD} ops={OPS}"
        ),
        None,
        &clock,
    );
    let mut nv: ShardedViyojit = cluster(shards)
        .clock(clock.clone())
        .cost_model(CostModel::calibrated())
        .ssd(SsdConfig::datacenter())
        .build_sequential()
        .expect("valid shard configuration");
    if let Some(capture) = &capture {
        capture.attach(&mut nv);
    }

    let regions: Vec<_> = (0..REGIONS)
        .map(|_| nv.map(REGION_PAGES * PAGE).expect("map region"))
        .collect();

    let mut rng = SplitMix64::new(0x9E37_79B9_7F4A_7C15);
    for op in 0..OPS {
        let (region, page) = skewed_target(rng.next_u64());
        nv.write(regions[region], page * PAGE, &[(op % 251) as u8; 64])
            .expect("write");
        if (op + 1).is_multiple_of(OPS_PER_TICK) {
            clock.advance(SimDuration::from_millis(1));
        }
    }

    let stats = nv.stats();
    let rebalances = nv.rebalances();
    let dirty = nv.dirty_count();
    let report = nv.power_failure();
    nv.check_invariants().expect("sharded invariants hold");
    if let Some(capture) = capture {
        capture.finish();
    }
    (
        stats.budget_stalls,
        stats.pages_dirtied,
        stats.stall_time.as_millis(),
        rebalances,
        dirty,
        report.dirty_pages <= GLOBAL_BUDGET,
    )
}

pub(crate) fn run(_: &super::Args) {
    let mut report = Report::stdout_csv();
    report.section("sharded frontend — shard-count sweep under one battery budget");
    report.columns(&[
        "shards",
        "budget_pages",
        "stalls",
        "stall_ms",
        "pages_dirtied",
        "rebalances",
        "dirty_at_failure",
        "budget_held",
    ]);

    let mut all_held = true;
    for &shards in &[1usize, 2, 4, 8] {
        let (stalls, dirtied, stall_ms, rebalances, dirty, held) = drive(shards);
        all_held &= held;
        row!(
            report,
            "{shards},{GLOBAL_BUDGET},{stalls},{stall_ms},{dirtied},{rebalances},{dirty},{held}"
        );
    }

    note!(
        report,
        "the arbiter kept every configuration inside the single battery's {GLOBAL_BUDGET}-page \
         budget: {all_held}"
    );
}
