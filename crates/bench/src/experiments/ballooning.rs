//! §6.3 extension: battery as a first-class, ballooned resource.
//!
//! Two co-located tenants with anti-correlated write phases share one
//! battery. A static 50/50 split wastes the idle tenant's share exactly
//! when the busy tenant needs it; ballooning re-divides the dirty budget
//! each rebalance period and harvests the statistical multiplexing the
//! paper predicts.
//!
//! The deployment is the sharded frontend with two single-shard tenants
//! whose guarantee is their floor and whose burst is unbounded, so a
//! budget round is a flat demand-proportional division between them. The
//! static scheme is the same deployment with no round ever run: each
//! tenant keeps its even initial share.

use mem_sim::PAGE_SIZE;
use sim_clock::{CostModel, SimDuration};
use ssd_sim::SsdConfig;
use telemetry::{note, row, Report};
use viyojit::{
    NvHeap, ShardControlPlane, ShardDataPlane, ShardedViyojit, ShardedViyojitBuilder, TenantQos,
    ViyojitConfig,
};

const PAGE: u64 = PAGE_SIZE as u64;
const TOTAL_BUDGET: u64 = 512;
/// The busy tenant rewrites this working set every epoch. It fits the
/// ballooned share (~480 pages) but not a static half (256 pages) — the
/// regime where lending the idle tenant's budget pays off.
const HOT_SET: u64 = 400;
const PHASES: u64 = 40;
const EPOCHS_PER_PHASE: u64 = 25;
/// Rebalance period in epochs.
const REBALANCE_EVERY: u64 = 5;

fn make_cluster() -> ShardedViyojit {
    ShardedViyojitBuilder::new(2, 4096, ViyojitConfig::with_budget_pages(TOTAL_BUDGET))
        .min_per_shard(16)
        .tenant("tenant0", 1, TenantQos::guaranteed(16))
        .tenant("tenant1", 1, TenantQos::guaranteed(16))
        // Longer than the run: rounds happen only where `drive` asks for one.
        .rebalance_period(SimDuration::from_secs(3600))
        .cost_model(CostModel::calibrated())
        .ssd(SsdConfig::datacenter())
        .build_sequential()
        .expect("valid two-tenant deployment")
}

/// Runs the anti-correlated two-tenant workload; returns per-tenant
/// (stalls, stall time) and the virtual duration.
fn drive(rebalance: bool) -> ([u64; 2], [SimDuration; 2], SimDuration) {
    let mut cluster = make_cluster();
    let regions = [0, 1].map(|tenant| {
        let region = cluster.map(PAGE * 3000).expect("map");
        assert_eq!(
            cluster.shard_of(region),
            Some(tenant),
            "each tenant's region lives on its own shard"
        );
        region
    });

    let t0 = cluster.clock().now();
    let mut trickle = [0u64; 2];
    let mut epoch_count = 0u64;
    for phase in 0..PHASES {
        let busy = (phase % 2) as usize;
        for _ in 0..EPOCHS_PER_PHASE {
            // The busy tenant rewrites its hot set; it stays performant
            // only if the whole set can remain dirty.
            for page in 0..HOT_SET {
                cluster
                    .write(regions[busy], page * PAGE, &[phase as u8; 64])
                    .expect("busy write");
            }
            // The idle tenant trickles over cold pages.
            let idle = 1 - busy;
            let page = HOT_SET + trickle[idle] % 2000;
            trickle[idle] += 1;
            cluster
                .write(regions[idle], page * PAGE, &[phase as u8; 64])
                .expect("idle write");
            cluster.step(SimDuration::from_millis(1)).expect("step");
            epoch_count += 1;
            if rebalance && epoch_count.is_multiple_of(REBALANCE_EVERY) {
                cluster.rebalance().expect("rebalance");
                cluster
                    .check_invariants()
                    .unwrap_or_else(|violation| panic!("{violation}"));
            }
        }
    }
    let duration = cluster.clock().now() - t0;
    let stats = [0, 1].map(|tenant| cluster.shard(tenant).stats());
    (
        stats.map(|s| s.budget_stalls),
        stats.map(|s| s.stall_time),
        duration,
    )
}

pub(crate) fn run(_: &super::Args) {
    let mut report = Report::stdout_csv();
    report.section("§6.3 extension — static battery split vs ballooning (anti-correlated tenants)");
    report.columns(&[
        "scheme",
        "stalls_t0",
        "stalls_t1",
        "stall_ms_total",
        "virtual_duration_s",
    ]);

    let (static_stalls, static_time, static_dur) = drive(false);
    row!(
        report,
        "static 50/50,{},{},{},{:.2}",
        static_stalls[0],
        static_stalls[1],
        (static_time[0] + static_time[1]).as_millis(),
        static_dur.as_secs_f64()
    );
    let (balloon_stalls, balloon_time, balloon_dur) = drive(true);
    row!(
        report,
        "ballooned,{},{},{},{:.2}",
        balloon_stalls[0],
        balloon_stalls[1],
        (balloon_time[0] + balloon_time[1]).as_millis(),
        balloon_dur.as_secs_f64()
    );

    let static_ms = (static_time[0] + static_time[1]).as_millis();
    let balloon_ms = (balloon_time[0] + balloon_time[1]).as_millis();
    if balloon_ms < static_ms {
        note!(
            report,
            "ballooning removed {:.0}% of stall time by lending the idle tenant's budget \
             to the busy one",
            100.0 * (static_ms - balloon_ms) as f64 / static_ms.max(1) as f64
        );
    } else {
        note!(
            report,
            "no multiplexing benefit observed at these parameters"
        );
    }
}
