//! Per-tenant QoS isolation under a seeded fault storm: three tenants
//! with Zipf-skewed write intensities share one battery's dirty budget
//! through the machine → tenant → shard hierarchy, while the hottest
//! tenant's shards also suffer injected SSD faults. Its per-tenant
//! degradation governor must throttle *only* that tenant — siblings keep
//! their guarantees, lose no pages at the final power failure, and stall
//! within a stated bound.
//!
//! Every run is reproducible from its `--seed` (default 42; the final
//! section proves it in-run). With `--check` the experiment additionally
//! asserts the isolation contract and exits non-zero on violation, which
//! is how CI consumes it.

use crate::profile::ProfileCapture;
use battery_sim::PowerModel;
use mem_sim::PAGE_SIZE;
use sim_clock::{Clock, CostModel, SimDuration, SplitMix64};
use ssd_sim::SsdConfig;
use telemetry::{note, row, Report};
use viyojit::{
    DegradationConfig, DegradationGovernor, FaultConfig, FaultPlan, NvHeap, PowerFailureReport,
    RegionId, ShardedViyojit, ShardedViyojitBuilder, TenantId, TenantQos, TenantStats,
    ViyojitConfig,
};
use workloads::ZipfGenerator;

const PAGE: u64 = PAGE_SIZE as u64;
/// Tenant layout: name, shard count, guaranteed pages, burst pages. The
/// shard counts are Zipf-ish on purpose — the hottest tenant is also the
/// biggest, as consolidation studies keep finding.
const TENANTS: [(&str, usize, u64, u64); 3] = [
    ("alpha", 4, 144, 112),
    ("beta", 2, 96, u64::MAX),
    ("gamma", 2, 80, u64::MAX),
];
const SHARDS: usize = 8;
const PAGES_PER_SHARD: usize = 2_048;
const GLOBAL_BUDGET: u64 = 384;
const MIN_PER_SHARD: u64 = 8;
const REGIONS: usize = 64;
const REGION_PAGES: u64 = 64;
const OPS: u64 = 30_000;
/// Writes between 1 ms clock advances (the rebalance heartbeat).
const OPS_PER_TICK: u64 = 200;
/// Writes between governor observations.
const OPS_PER_OBSERVATION: u64 = 1_000;
/// Per-write SSD fault probability on the faulty tenant's shards — above
/// the governor's 5% error-rate entry threshold, so the storm must trip
/// the per-tenant throttle.
const FAULT_RATE: f64 = 0.08;
/// Battery sized at this multiple of a full-budget flush (§5.1 rule).
const MARGIN: f64 = 2.0;
/// How skewed the per-tenant write intensity is (Zipf over tenant ranks).
const TENANT_THETA: f64 = 0.9;
/// How skewed pages are within a region (Viyojit's write-skew premise).
const PAGE_THETA: f64 = 0.8;
/// Stated isolation bound: a sibling tenant's stall time *per page it
/// dirtied* must stay below the storm tenant's by at least this factor —
/// the throttle's pain lands on the tenant that caused it.
const SIBLING_STALL_RATIO: f64 = 2.0;

struct StormOutcome {
    tenants: Vec<TenantStats>,
    transitions: Vec<u64>,
    rebalances: u64,
    failure: PowerFailureReport,
}

fn build(seed: u64) -> (ShardedViyojit, Clock, Option<ProfileCapture>) {
    let clock = Clock::new();
    let capture = ProfileCapture::from_env(
        &format!("s{seed}"),
        "Sharded-Viyojit",
        &format!(
            "tenants={} shards={SHARDS} budget={GLOBAL_BUDGET} min_per_shard={MIN_PER_SHARD} \
             rate={FAULT_RATE} ops={OPS}",
            TENANTS.len()
        ),
        Some(seed),
        &clock,
    );
    let mut builder = ShardedViyojitBuilder::new(
        SHARDS,
        PAGES_PER_SHARD,
        ViyojitConfig::builder(GLOBAL_BUDGET)
            .total_pages(PAGES_PER_SHARD as u64)
            .build()
            .expect("valid shard configuration"),
    )
    .min_per_shard(MIN_PER_SHARD)
    .rebalance_period(SimDuration::from_millis(5))
    .clock(clock.clone())
    .cost_model(CostModel::calibrated())
    .ssd(SsdConfig::datacenter());
    for (i, &(name, shards, guaranteed, burst)) in TENANTS.iter().enumerate() {
        let qos = if burst == u64::MAX {
            TenantQos::guaranteed(guaranteed)
        } else {
            TenantQos::guaranteed(guaranteed).burst(burst)
        };
        builder = builder.tenant(name, shards, qos);
        if i == 0 {
            // Only the hot tenant's shards see the storm.
            builder =
                builder.tenant_faults(FaultPlan::seeded(seed, FaultConfig::storm(FAULT_RATE)));
        }
    }
    let mut nv = builder.build_sequential().expect("valid tenant layout");
    if let Some(capture) = &capture {
        capture.attach(&mut nv);
    }
    (nv, clock, capture)
}

/// Buckets mapped regions by owning tenant (mapping hashes regions across
/// shards, so tenancy falls out of `shard_of`), topping up until every
/// tenant has at least one region to write into.
fn map_regions(nv: &mut ShardedViyojit) -> Vec<Vec<RegionId>> {
    let mut by_tenant: Vec<Vec<RegionId>> = vec![Vec::new(); TENANTS.len()];
    let mut mapped = 0;
    while mapped < REGIONS || by_tenant.iter().any(|r| r.is_empty()) {
        assert!(mapped < 4 * REGIONS, "region hashing starved a tenant");
        let region = nv.map(REGION_PAGES * PAGE).expect("map region");
        let shard = nv.shard_of(region).expect("region is mapped");
        by_tenant[nv.tenant_of_shard(shard).0].push(region);
        mapped += 1;
    }
    by_tenant
}

/// One storm run: drive the skewed multi-tenant workload with per-tenant
/// governors watching, then pull the plug against the margin battery.
fn run_once(seed: u64) -> StormOutcome {
    let power = PowerModel::datacenter_server(0.064);
    let battery = super::margin_battery(GLOBAL_BUDGET, MARGIN);
    let (mut nv, clock, capture) = build(seed);
    let regions = map_regions(&mut nv);

    let mut governors: Vec<DegradationGovernor> = TENANTS
        .iter()
        .map(|&(_, _, guaranteed, _)| {
            DegradationGovernor::new(guaranteed, DegradationConfig::default())
        })
        .collect();

    let mut rng = SplitMix64::new(seed);
    let tenant_zipf = ZipfGenerator::new(TENANTS.len() as u64, TENANT_THETA);
    let page_zipf = ZipfGenerator::new(REGION_PAGES, PAGE_THETA);
    for op in 0..OPS {
        // Zipf rank 0 (the hottest) is tenant 0 — the faulty one.
        let tenant = tenant_zipf.sample(&mut rng) as usize;
        let bucket = &regions[tenant];
        let region = bucket[rng.below(bucket.len() as u64) as usize];
        let page = page_zipf.sample(&mut rng);
        nv.write(region, page * PAGE, &[(op % 251) as u8; 64])
            .expect("write");
        if (op + 1).is_multiple_of(OPS_PER_TICK) {
            clock.advance(SimDuration::from_millis(1));
        }
        if (op + 1).is_multiple_of(OPS_PER_OBSERVATION) {
            // The battery gauge reads healthy throughout: only the
            // per-tenant SSD error signal can trip a governor, and only
            // the storm tenant's shards produce errors.
            for (t, governor) in governors.iter_mut().enumerate() {
                nv.govern_tenant_degradation(TenantId(t), governor, 1.0);
            }
        }
    }

    let rebalances = nv.rebalances();
    let failure = nv.power_failure_powered(&battery, &power);
    assert!(
        failure.all_pages_accounted(),
        "every dirty page must be flushed or reported lost (seed={seed}: {failure:?})"
    );
    let tenants = nv.tenant_stats();
    nv.check_invariants().expect("sharded invariants hold");
    if let Some(capture) = capture {
        capture.finish();
    }
    StormOutcome {
        tenants,
        transitions: governors.iter().map(|g| g.transitions()).collect(),
        rebalances,
        failure,
    }
}

fn check_isolation(outcome: &StormOutcome) {
    assert!(
        outcome.transitions[0] >= 1,
        "the storm tenant's governor must trip at least once \
         (error rate {FAULT_RATE} is above the entry threshold)"
    );
    let storm = &outcome.tenants[0];
    let storm_stall_per_page =
        storm.stats.stall_time.as_nanos() as f64 / storm.stats.pages_dirtied.max(1) as f64;
    for t in 1..TENANTS.len() {
        let s = &outcome.tenants[t];
        assert_eq!(
            s.pages_lost, 0,
            "sibling tenant {} must lose no pages to the storm tenant's faults",
            s.name
        );
        assert_eq!(
            outcome.transitions[t], 0,
            "sibling tenant {}'s governor must never trip",
            s.name
        );
        let stall_per_page =
            s.stats.stall_time.as_nanos() as f64 / s.stats.pages_dirtied.max(1) as f64;
        assert!(
            stall_per_page * SIBLING_STALL_RATIO <= storm_stall_per_page,
            "sibling tenant {} stalled {stall_per_page:.0} ns/page, not {SIBLING_STALL_RATIO}x \
             below the storm tenant's {storm_stall_per_page:.0} ns/page",
            s.name
        );
        assert!(
            !s.throttled,
            "sibling tenant {} must not end the run throttled",
            s.name
        );
    }
}

fn tenant_rows(report: &mut Report, outcome: &StormOutcome) {
    for (t, s) in outcome.tenants.iter().enumerate() {
        let (_, shards, guaranteed, burst) = TENANTS[t];
        let burst = if burst == u64::MAX {
            "unbounded".to_string()
        } else {
            burst.to_string()
        };
        row!(
            report,
            "{t},{},{shards},{guaranteed},{burst},{},{},{},{},{},{},{},{}",
            s.name,
            s.budget_pages,
            s.dirty_pages,
            s.stats.budget_stalls,
            s.stats.stall_time.as_millis(),
            s.stats.pages_dirtied,
            s.throttled,
            outcome.transitions[t],
            s.pages_lost,
        );
    }
}

pub(crate) fn run(args: &super::Args) {
    let seed = args.seed.unwrap_or(42);
    let mut report = Report::stdout_csv();
    report.section("per-tenant QoS isolation under a seeded fault storm");
    report.columns(&[
        "tenant",
        "name",
        "shards",
        "guaranteed",
        "burst",
        "budget_pages",
        "dirty_pages",
        "stalls",
        "stall_ms",
        "pages_dirtied",
        "throttled",
        "governor_transitions",
        "pages_lost",
    ]);
    let outcome = run_once(seed);
    tenant_rows(&mut report, &outcome);

    report.section("global power failure against the margin battery");
    report.columns(&[
        "seed",
        "outcome",
        "dirty_pages",
        "pages_flushed",
        "pages_lost",
        "retries",
        "flush_ms",
        "rebalances",
    ]);
    let f = &outcome.failure;
    row!(
        report,
        "{seed},{:?},{},{},{},{},{:.3},{}",
        f.outcome,
        f.dirty_pages,
        f.pages_flushed,
        f.pages_lost,
        f.retries,
        f.flush_time.as_secs_f64() * 1e3,
        outcome.rebalances,
    );

    report.section("seeded reproducibility: the same storm, twice");
    report.columns(&["seed", "identical"]);
    let again = run_once(seed);
    assert_eq!(
        outcome.tenants, again.tenants,
        "the same seed must reproduce the same per-tenant accounting"
    );
    assert_eq!(
        outcome.failure, again.failure,
        "the same seed must reproduce the same power-failure report"
    );
    row!(report, "{seed},true");

    if args.check {
        check_isolation(&outcome);
        note!(
            report,
            "isolation checks passed: siblings lost 0 pages, never tripped their governors, \
             and stalled {SIBLING_STALL_RATIO}x less per dirtied page than the throttled \
             storm tenant"
        );
    } else {
        note!(
            report,
            "rerun with --check to assert the isolation contract; replay any run with \
             viyojit-bench tenant_storm --seed <seed>"
        );
    }
}
