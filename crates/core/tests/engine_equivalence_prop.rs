//! Property tests of the unified engine: the pluggable dirty-tracking
//! backends are different *mechanisms* for the same Fig. 6 policy, so
//! under a cost-free clock the software walker and the MMU-assisted
//! tracker must agree on everything the policy observes — dirty counts,
//! flush counts, and the power-failure obligation. A second property
//! pins the sharded frontend's global invariant: however the arbiter
//! re-divides the budget, the cluster-wide dirty population never
//! exceeds what the battery provisions.

use mem_sim::PAGE_SIZE;
use propcheck::{check, int, vec_of, weighted};
use sim_clock::{Clock, CostModel, SimDuration, SplitMix64};
use ssd_sim::SsdConfig;
use viyojit::{
    DegradationConfig, DegradationGovernor, DirtyTracker, MmuAssisted, MmuAssistedViyojit, NvHeap,
    PowerFailureReport, RegionId, ShardControlHandle, ShardControlPlane, ShardDataHandle,
    ShardDataPlane, ShardedViyojit, ShardedViyojitBuilder, SoftwareWalk, TenantId, TenantQos,
    TenantStats, Viyojit, ViyojitConfig, ViyojitError, ViyojitStats,
};

const PAGE: u64 = PAGE_SIZE as u64;
const REGION_PAGES: u64 = 24;

#[derive(Debug)]
enum Op {
    Write {
        offset: u64,
        len: u16,
        fill: u8,
    },
    Idle {
        micros: u16,
    },
    SetBudget {
        pages: u64,
    },
    /// Read back mid-run and compare against the model.
    Read {
        offset: u64,
        len: u16,
    },
    /// A write straddling the end of its region: a typed error, no effect.
    OutOfRange {
        past: u16,
    },
    /// Cluster only: unmap a region and map it afresh.
    Remap {
        fill: u8,
    },
    /// Cluster only: cap (or un-cap) one tenant's allocation.
    Throttle {
        tenant: usize,
        cap: Option<u64>,
    },
}

fn gen_op(rng: &mut SplitMix64) -> Op {
    let max_off = REGION_PAGES * PAGE - u16::MAX as u64;
    match weighted(rng, &[12, 4, 2, 3, 1, 1, 1]) {
        0 => Op::Write {
            offset: int(rng, 0..max_off),
            len: int(rng, 1..2048) as u16,
            fill: rng.next_u64() as u8,
        },
        1 => Op::Idle {
            micros: int(rng, 1..2000) as u16,
        },
        2 => Op::SetBudget {
            pages: int(rng, 2..14),
        },
        3 => Op::Read {
            offset: int(rng, 0..max_off),
            len: int(rng, 1..2048) as u16,
        },
        4 => Op::OutOfRange {
            past: int(rng, 1..64) as u16,
        },
        5 => Op::Remap {
            fill: rng.next_u64() as u8,
        },
        _ => {
            let (tenant, cap) = (int(rng, 0..3) as usize, int(rng, 0..24));
            Op::Throttle {
                tenant,
                cap: (cap > 0).then_some(cap),
            }
        }
    }
}

/// The cross-backend equivalence property: with writes free and the
/// SSD instant, the same operation sequence must produce *identical*
/// dirty counts for as long as neither backend has flushed anything —
/// first-write detection by trap and by hardware counter are the same
/// observation. Once the copier acts the mechanisms legitimately
/// diverge (the walker feeds fault-time recency and pressure into
/// victim choice, the hardware backend only walk-time discovery —
/// §5.4's coarser observability), so past that point the property
/// weakens to what the *policy* guarantees both backends: the bound
/// holds at every step, budgets re-derive identically, and a crash at
/// the end loses nothing on either.
#[test]
fn software_and_mmu_backends_are_policy_equivalent() {
    check(
        "software_and_mmu_backends_are_policy_equivalent",
        40,
        |rng| {
            let ops = vec_of(rng, 1..100, gen_op);
            let budget = int(rng, 2..16);
            let mut sw = Viyojit::new(
                32,
                ViyojitConfig::with_budget_pages(budget),
                Clock::new(),
                CostModel::free(),
                SsdConfig::instant(),
            );
            let mut hw = MmuAssistedViyojit::new(
                32,
                ViyojitConfig::with_budget_pages(budget),
                Clock::new(),
                CostModel::free(),
                SsdConfig::instant(),
            );
            let rs = sw.map(REGION_PAGES * PAGE).unwrap();
            let rh = hw.map(REGION_PAGES * PAGE).unwrap();
            let mut model = vec![0u8; (REGION_PAGES * PAGE) as usize];

            for op in &ops {
                match *op {
                    Op::Write { offset, len, fill } => {
                        let data = vec![fill; len as usize];
                        sw.write(rs, offset, &data).unwrap();
                        hw.write(rh, offset, &data).unwrap();
                        model[offset as usize..offset as usize + len as usize].fill(fill);
                    }
                    Op::Idle { micros } => {
                        sw.clock().advance(SimDuration::from_micros(micros as u64));
                        hw.clock().advance(SimDuration::from_micros(micros as u64));
                    }
                    Op::SetBudget { pages } => {
                        sw.set_dirty_budget(pages);
                        hw.set_dirty_budget(pages);
                    }
                    Op::Read { offset, len } => {
                        let (mut a, mut b) = (vec![0u8; len as usize], vec![0u8; len as usize]);
                        sw.read(rs, offset, &mut a).unwrap();
                        hw.read(rh, offset, &mut b).unwrap();
                        let want = &model[offset as usize..offset as usize + len as usize];
                        assert_eq!(&a[..], want, "software read diverged from the model");
                        assert_eq!(&b[..], want, "hardware read diverged from the model");
                    }
                    Op::OutOfRange { past } => {
                        let offset = REGION_PAGES * PAGE - 1;
                        let data = vec![0xEE; past as usize + 1];
                        let len = data.len();
                        let refused = |region| {
                            Err(ViyojitError::OutOfRange {
                                region,
                                offset,
                                len,
                            })
                        };
                        assert_eq!(sw.write(rs, offset, &data), refused(rs));
                        assert_eq!(hw.write(rh, offset, &data), refused(rh));
                    }
                    // Routing and tenancy exist only on the sharded frontend.
                    Op::Remap { .. } | Op::Throttle { .. } => {}
                }
                if sw.stats().flushes_issued() == 0 && hw.stats().flushes_issued() == 0 {
                    assert_eq!(
                        sw.dirty_count(),
                        hw.dirty_count(),
                        "backends disagree on the dirty population after {:?}",
                        op
                    );
                }
                assert_eq!(sw.dirty_budget(), hw.dirty_budget());
                assert!(sw.dirty_count() <= sw.dirty_budget());
                assert!(hw.dirty_count() <= hw.dirty_budget());
                sw.check_invariants().unwrap();
                hw.check_invariants().unwrap();
            }

            let (sr, hr) = (sw.power_failure(), hw.power_failure());
            assert!(sr.dirty_pages <= sw.dirty_budget());
            assert!(hr.dirty_pages <= hw.dirty_budget());

            sw.recover();
            hw.recover();
            assert!(sw.durable_state_consistent());
            assert!(hw.durable_state_consistent());
            let mut a = vec![0u8; model.len()];
            let mut b = a.clone();
            sw.read(rs, 0, &mut a).unwrap();
            hw.read(rh, 0, &mut b).unwrap();
            assert_eq!(&a, &model, "software contents survive the power cycle");
            assert_eq!(&b, &model, "hardware contents survive the power cycle");
        },
    );
}

/// The sharded frontend's global invariant: across routing, epoch
/// processing, and arbiter rebalances, the *sum* of per-shard dirty
/// pages never exceeds the single global budget, reads agree with a
/// flat model, and the power-failure obligation stays inside the
/// battery's provisioning.
#[test]
fn sharded_dirty_population_stays_inside_the_global_budget() {
    check(
        "sharded_dirty_population_stays_inside_the_global_budget",
        40,
        |rng| {
            let ops = vec_of(rng, 1..120, gen_op);
            let shards = int(rng, 1..5) as usize;
            let budget = int(rng, 8..40);
            let mut nv: ShardedViyojit =
                ShardedViyojitBuilder::new(shards, 64, ViyojitConfig::with_budget_pages(budget))
                    .min_per_shard(2)
                    .rebalance_period(SimDuration::from_micros(500))
                    .build_sequential()
                    .unwrap();
            let regions: Vec<_> = (0..4)
                .map(|_| nv.map(REGION_PAGES / 4 * PAGE).unwrap())
                .collect();
            let region_bytes = (REGION_PAGES / 4 * PAGE) as usize;
            let mut model = vec![vec![0u8; region_bytes]; regions.len()];

            for (i, op) in ops.iter().enumerate() {
                match *op {
                    Op::Write { offset, len, fill } => {
                        let region = i % regions.len();
                        let off = offset as usize % (region_bytes - len as usize);
                        nv.write(regions[region], off as u64, &vec![fill; len as usize])
                            .unwrap();
                        model[region][off..off + len as usize].fill(fill);
                    }
                    Op::Idle { micros } => {
                        nv.clock().advance(SimDuration::from_micros(micros as u64));
                    }
                    Op::Read { offset, len } => {
                        let region = i % regions.len();
                        let off = offset as usize % (region_bytes - len as usize);
                        let mut buf = vec![0u8; len as usize];
                        nv.read(regions[region], off as u64, &mut buf).unwrap();
                        assert_eq!(&buf[..], &model[region][off..off + len as usize]);
                    }
                    // The sharded frontend owns its shards' budgets; a burst
                    // of idle time triggers rebalances instead (the mode
                    // equivalence property below drives the remaining ops).
                    Op::SetBudget { .. }
                    | Op::OutOfRange { .. }
                    | Op::Remap { .. }
                    | Op::Throttle { .. } => {
                        nv.clock().advance(SimDuration::from_micros(700));
                    }
                }
                assert!(
                    nv.dirty_count() <= budget,
                    "shard dirty sum {} exceeded the global budget {}",
                    nv.dirty_count(),
                    budget
                );
                nv.check_invariants().unwrap();
            }

            let report = nv.power_failure();
            assert!(report.dirty_pages <= budget);
            nv.recover();
            for (region, contents) in regions.iter().zip(&model) {
                let mut buf = vec![0u8; region_bytes];
                nv.read(*region, 0, &mut buf).unwrap();
                assert_eq!(&buf, contents, "region contents survive the power cycle");
            }
        },
    );
}

/// One sharded deployment in either execution mode, seen through the
/// plane traits. The enum lets the same driver exercise the sequential
/// frontend (one object implementing both planes) and the parallel
/// runtime (a data handle and a control handle) without duplicating the
/// workload logic the equivalence property depends on.
enum Cluster<B: DirtyTracker = SoftwareWalk> {
    Sequential(Box<ShardedViyojit<B>>),
    Parallel(ShardDataHandle, ShardControlHandle),
}

impl<B: DirtyTracker + Send + 'static> Cluster<B> {
    fn sequential_from(builder: ShardedViyojitBuilder<B>) -> Result<Self, ViyojitError> {
        Ok(Cluster::Sequential(Box::new(builder.build_sequential()?)))
    }

    fn parallel_from(
        builder: ShardedViyojitBuilder<B>,
        threads: usize,
    ) -> Result<Self, ViyojitError> {
        let (data, ctrl) = builder.threads(threads).build_parallel()?;
        Ok(Cluster::Parallel(data, ctrl))
    }

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

    fn shard_of(&self, region: RegionId) -> Option<usize> {
        match self {
            Cluster::Sequential(nv) => nv.shard_of(region),
            Cluster::Parallel(data, _) => data.shard_of(region),
        }
    }
}

/// Free writes and an instant SSD freeze the clock between [`step`]s, so
/// the only timeline is the one the driver advances explicitly — the
/// precondition for bit-equal virtual-time results across modes.
///
/// [`step`]: ShardDataPlane::step
fn equivalence_builder<B: DirtyTracker>(shards: usize, budget: u64) -> ShardedViyojitBuilder<B> {
    ShardedViyojitBuilder::new(shards, 64, ViyojitConfig::with_budget_pages(budget))
        .backend::<B>()
        .min_per_shard(2)
        .rebalance_period(SimDuration::from_micros(500))
        .clock(Clock::new())
        .cost_model(CostModel::free())
        .ssd(SsdConfig::instant())
}

/// The equivalence deployment, split on request into two tenants (when
/// it has the shards for it), each guaranteed exactly its shard floors:
/// the first bursts by at most 8 pages, the second without bound.
fn tenanted_builder<B: DirtyTracker>(
    tenants: bool,
    shards: usize,
    budget: u64,
) -> ShardedViyojitBuilder<B> {
    let builder = equivalence_builder(shards, budget);
    if !tenants || shards < 2 {
        return builder;
    }
    let first = shards / 2;
    builder
        .tenant(
            "first",
            first,
            TenantQos::guaranteed(2 * first as u64).burst(8),
        )
        .tenant(
            "second",
            shards - first,
            TenantQos::guaranteed(2 * (shards - first) as u64),
        )
}

/// Everything the equivalence property compares across execution modes.
#[derive(Debug, PartialEq)]
struct ClusterOutcome {
    stats: ViyojitStats,
    dirty: u64,
    budget: u64,
    rebalances: u64,
    floor_rejections: u32,
    /// Where every `Remap` landed: the reused handle and its shard.
    placements: Vec<(RegionId, Option<usize>)>,
    /// The typed error of every `OutOfRange` write.
    refusals: Vec<ViyojitError>,
    throttles_applied: u32,
    throttle_rejections: u32,
    tenants: Vec<TenantStats>,
    report: PowerFailureReport,
    contents: Vec<Vec<u8>>,
    model: Vec<Vec<u8>>,
}

/// Drives one deployment through the shared workload: routed writes and
/// reads, refused writes, remaps, explicit [`ShardDataPlane::step`]s, and
/// mid-run budget re-provisioning and tenant throttling through the
/// control plane, then a power cycle and a full audit read.
fn drive_cluster<B: DirtyTracker + Send + 'static>(
    mut nv: Cluster<B>,
    ops: &[Op],
) -> Result<ClusterOutcome, ViyojitError> {
    let region_bytes = (REGION_PAGES / 4 * PAGE) as usize;
    let mut regions = (0..4)
        .map(|_| nv.data().map(region_bytes as u64))
        .collect::<Result<Vec<_>, _>>()?;
    let mut model = vec![vec![0u8; region_bytes]; regions.len()];
    let mut floor_rejections = 0u32;
    let mut placements = Vec::new();
    let mut refusals = Vec::new();
    let (mut throttles_applied, mut throttle_rejections) = (0u32, 0u32);

    for (i, op) in ops.iter().enumerate() {
        let region = i % regions.len();
        match *op {
            Op::Write { offset, len, fill } => {
                let off = offset as usize % (region_bytes - len as usize);
                nv.data()
                    .write(regions[region], off as u64, &vec![fill; len as usize])?;
                model[region][off..off + len as usize].fill(fill);
            }
            Op::Read { offset, len } => {
                let off = offset as usize % (region_bytes - len as usize);
                let mut buf = vec![0u8; len as usize];
                nv.data().read(regions[region], off as u64, &mut buf)?;
                assert_eq!(
                    &buf[..],
                    &model[region][off..off + len as usize],
                    "a mid-run read must see every earlier write"
                );
            }
            Op::OutOfRange { past } => {
                let data = vec![0xEE; past as usize + 1];
                let refused = nv
                    .data()
                    .write(regions[region], region_bytes as u64 - 1, &data)
                    .expect_err("a write past the end of its region is refused");
                assert!(matches!(refused, ViyojitError::OutOfRange { .. }));
                refusals.push(refused);
            }
            Op::Remap { fill } => {
                nv.data().unmap(regions[region])?;
                let fresh = nv.data().map(region_bytes as u64)?;
                assert_eq!(fresh, regions[region], "the freed slot is reused");
                placements.push((fresh, nv.shard_of(fresh)));
                regions[region] = fresh;
                // The old contents died with the mapping; a full rewrite
                // makes the new one's model exact again.
                nv.data().write(fresh, 0, &vec![fill; region_bytes])?;
                model[region].fill(fill);
            }
            Op::Idle { micros } => {
                nv.data().step(SimDuration::from_micros(micros as u64))?;
            }
            Op::SetBudget { pages } => {
                // Cross-plane handoff: drain the data plane first (the
                // documented consistency rule), then re-provision. The
                // floors may reject the new total; both modes must agree
                // on when they did.
                nv.data().sync()?;
                match nv.ctrl().set_total_budget(pages) {
                    Ok(()) => {}
                    Err(ViyojitError::InvalidConfig(_)) => floor_rejections += 1,
                    Err(e) => return Err(e),
                }
            }
            Op::Throttle { tenant, cap } => {
                nv.data().sync()?;
                match nv.ctrl().throttle_tenant(TenantId(tenant), cap) {
                    Ok(()) => throttles_applied += 1,
                    Err(ViyojitError::InvalidConfig(_)) => throttle_rejections += 1,
                    Err(e) => return Err(e),
                }
            }
        }
    }

    nv.data().sync()?;
    nv.ctrl().check_invariants()?;
    let stats = nv.ctrl().stats()?;
    let dirty = nv.ctrl().dirty_count()?;
    let budget = nv.ctrl().total_budget_pages();
    let rebalances = nv.ctrl().rebalances()?;
    let report = nv.ctrl().power_failure()?;
    let tenants = nv.ctrl().tenant_stats()?;
    nv.ctrl().recover()?;
    let mut contents = Vec::with_capacity(regions.len());
    for &region in &regions {
        let mut buf = vec![0u8; region_bytes];
        nv.data().read(region, 0, &mut buf)?;
        contents.push(buf);
    }
    Ok(ClusterOutcome {
        stats,
        dirty,
        budget,
        rebalances,
        floor_rejections,
        placements,
        refusals,
        throttles_applied,
        throttle_rejections,
        tenants,
        report,
        contents,
        model,
    })
}

/// The mode-equivalence check for one backend: the sequential outcome,
/// then 1, 2 and 4 worker threads (counts above the shard count clamp).
fn check_modes_agree<B: DirtyTracker + Send + 'static>(
    builder: impl Fn() -> ShardedViyojitBuilder<B>,
    ops: &[Op],
) {
    let seq = drive_cluster(
        Cluster::sequential_from(builder()).expect("a valid sequential configuration"),
        ops,
    )
    .expect("the sequential run must not fail");
    assert_eq!(
        &seq.contents,
        &seq.model,
        "{}: sequential contents must survive the power cycle",
        B::SYSTEM
    );
    for threads in [1usize, 2, 4] {
        let par = drive_cluster(
            Cluster::parallel_from(builder(), threads).expect("a valid parallel configuration"),
            ops,
        )
        .expect("the parallel run must not fail");
        assert_eq!(
            &par,
            &seq,
            "{}: {} threads must replay the sequential outcome exactly",
            B::SYSTEM,
            threads
        );
    }
}

/// The execution-mode equivalence property: the thread-parallel
/// runtime is an *implementation* of the sharded frontend, not a
/// variant of it. With writes free and the SSD instant, the same
/// operation sequence driven through [`ShardDataPlane`] /
/// [`ShardControlPlane`] must produce identical aggregated and
/// per-tenant stats, dirty populations, rebalance counts, placements,
/// typed refusals, power-failure reports, and post-recovery memory
/// images at every thread count, on both tracking backends, with and
/// without declared tenants.
#[test]
fn parallel_and_sequential_sharding_are_equivalent() {
    check(
        "parallel_and_sequential_sharding_are_equivalent",
        24,
        |rng| {
            let ops = vec_of(rng, 1..80, gen_op);
            let shards = int(rng, 1..5) as usize;
            let budget = int(rng, 8..40);
            let tenants = rng.chance(0.5);
            check_modes_agree::<SoftwareWalk>(|| tenanted_builder(tenants, shards, budget), &ops);
            check_modes_agree::<MmuAssisted>(|| tenanted_builder(tenants, shards, budget), &ops);
        },
    );
}

/// One explicitly declared tenant spanning every shard, with its
/// guarantee exactly at the shard floors and an unbounded burst — the
/// hierarchy configuration that must be indistinguishable from the flat
/// (no-tenant) arbiter, down to the implicit tenant's name.
fn whole_machine_tenant_builder(shards: usize, budget: u64) -> ShardedViyojitBuilder {
    equivalence_builder(shards, budget).tenant(
        "default",
        shards,
        TenantQos::guaranteed(2 * shards as u64),
    )
}

/// The hierarchy equivalence property: routing the budget through the
/// machine → tenant → shard tree with a single whole-machine tenant
/// must replay the flat arbiter byte-for-byte — identical stats,
/// dirty populations, rebalance counts, floor rejections,
/// power-failure reports, and post-recovery contents — in both
/// execution modes. This is what keeps every pre-hierarchy golden
/// valid.
#[test]
fn a_single_declared_tenant_replays_the_flat_arbiter() {
    check(
        "a_single_declared_tenant_replays_the_flat_arbiter",
        16,
        |rng| {
            let ops = vec_of(rng, 1..80, gen_op);
            let shards = int(rng, 1..5) as usize;
            let budget = int(rng, 8..40);
            let flat = drive_cluster(
                Cluster::sequential_from(equivalence_builder::<SoftwareWalk>(shards, budget))
                    .expect("a valid flat configuration"),
                &ops,
            )
            .expect("the flat run must not fail");
            let tree_seq = drive_cluster(
                Cluster::sequential_from(whole_machine_tenant_builder(shards, budget))
                    .expect("a valid single-tenant configuration"),
                &ops,
            )
            .expect("the single-tenant sequential run must not fail");
            assert_eq!(
                &tree_seq, &flat,
                "the single-tenant tree must replay the flat arbiter (sequential)"
            );
            let tree_par = drive_cluster(
                Cluster::parallel_from(whole_machine_tenant_builder(shards, budget), 2)
                    .expect("a valid single-tenant parallel configuration"),
                &ops,
            )
            .expect("the single-tenant parallel run must not fail");
            assert_eq!(
                &tree_par, &flat,
                "the single-tenant tree must replay the flat arbiter (parallel)"
            );
        },
    );
}

/// The tenant control surface must behave identically in both execution
/// modes: a degradation-governed throttle squeezes only the governed
/// tenant, the freed pages flow to the sibling, lifting the cap restores
/// demand division, and every per-tenant observable matches between the
/// sequential frontend and the parallel runtime.
#[test]
fn tenant_throttles_agree_across_execution_modes() -> Result<(), ViyojitError> {
    let build = |threads: Option<usize>| -> Result<Cluster, ViyojitError> {
        let b = equivalence_builder(4, 32)
            .tenant("hot", 2, TenantQos::guaranteed(16).burst(8))
            .tenant("cold", 2, TenantQos::guaranteed(8));
        match threads {
            None => Cluster::sequential_from(b),
            Some(t) => Cluster::parallel_from(b, t),
        }
    };
    let mut outcomes = Vec::new();
    for threads in [None, Some(2)] {
        let mut c = build(threads)?;
        let region = c.data().map(8 * PAGE)?;
        for i in 0..16u64 {
            c.data().write(region, (i % 8) * PAGE, &[i as u8; 32])?;
        }
        c.data().sync()?;

        // A collapsing battery gauge trips the hot tenant's governor:
        // degraded fraction 0.5 of its 16-page nominal budget.
        let mut gov = DegradationGovernor::new(16, DegradationConfig::default());
        let prescribed = c
            .ctrl()
            .govern_tenant_degradation(TenantId(0), &mut gov, 0.1)?;
        assert_eq!(prescribed, Some(8), "an unhealthy battery must degrade");
        let throttled = c.ctrl().tenant_stats()?;
        assert!(throttled[0].throttled && !throttled[1].throttled);
        assert_eq!(
            throttled[0].budget_pages, 8,
            "capped at the governor's budget"
        );
        assert_eq!(
            throttled.iter().map(|t| t.budget_pages).sum::<u64>(),
            32,
            "the sibling absorbs whatever the throttle frees"
        );

        c.ctrl().throttle_tenant(TenantId(0), None)?;
        let released = c.ctrl().tenant_stats()?;
        assert!(
            !released[0].throttled,
            "lifting the cap restores the tenant"
        );

        let err = c
            .ctrl()
            .throttle_tenant(TenantId(5), None)
            .expect_err("tenant 5 does not exist");
        assert!(matches!(err, ViyojitError::InvalidConfig(_)));
        outcomes.push((throttled, released));
    }
    assert_eq!(
        outcomes[0], outcomes[1],
        "parallel must agree with sequential on every per-tenant observable"
    );
    Ok(())
}

/// Guards the property above against vacuity: a handcrafted workload
/// must actually cross rebalance boundaries, dirty pages, remap a region,
/// throttle a tenant, and exercise both outcomes of a mid-run
/// re-provisioning — in parallel mode — or the equivalence comparison
/// would be comparing idle clusters.
#[test]
fn the_equivalence_workload_exercises_rounds_and_reprovisioning() {
    let mut ops = Vec::new();
    for i in 0..48u64 {
        ops.push(Op::Write {
            offset: (i % 6) * PAGE,
            len: 16,
            fill: i as u8,
        });
    }
    ops.push(Op::Idle { micros: 600 });
    ops.push(Op::Read {
        offset: PAGE,
        len: 16,
    });
    ops.push(Op::Remap { fill: 0x5A });
    ops.push(Op::OutOfRange { past: 3 });
    // Squeeze the first tenant to its floors, then release it; a tenant
    // that does not exist is refused.
    ops.push(Op::Throttle {
        tenant: 0,
        cap: Some(4),
    });
    ops.push(Op::Throttle {
        tenant: 0,
        cap: None,
    });
    ops.push(Op::Throttle {
        tenant: 2,
        cap: None,
    });
    // Four shards with a floor of 2: 7 pages must be rejected, 8 applied.
    ops.push(Op::SetBudget { pages: 7 });
    ops.push(Op::SetBudget { pages: 8 });
    for i in 0..24u64 {
        ops.push(Op::Write {
            offset: (i % 6) * PAGE,
            len: 16,
            fill: !i as u8,
        });
    }
    ops.push(Op::Idle { micros: 1200 });

    let outcome = drive_cluster(
        Cluster::parallel_from(tenanted_builder::<SoftwareWalk>(true, 4, 16), 2)
            .expect("a valid parallel configuration"),
        &ops,
    )
    .expect("the workload must complete");
    assert!(outcome.rebalances > 0, "no budget round ever ran");
    assert!(outcome.stats.pages_dirtied > 0, "no page was ever dirtied");
    assert_eq!(outcome.floor_rejections, 1, "the floor check never fired");
    assert_eq!(outcome.budget, 8, "the accepted re-provisioning stuck");
    assert_eq!(outcome.placements.len(), 1, "no region was ever remapped");
    assert!(outcome.placements[0].1.is_some(), "the remap must route");
    assert_eq!(outcome.refusals.len(), 1, "no write was ever refused");
    assert_eq!(outcome.throttles_applied, 2, "no throttle was ever applied");
    assert_eq!(outcome.throttle_rejections, 1, "tenant 2 does not exist");
    assert_eq!(outcome.tenants.len(), 2);
    assert_eq!(&outcome.contents, &outcome.model);
}

/// The backend consts are part of the public contract benchmarks key on.
#[test]
fn backend_system_names_are_stable() {
    use viyojit::FullDirty;
    assert_eq!(SoftwareWalk::SYSTEM, "Viyojit");
    assert_eq!(MmuAssisted::SYSTEM, "Viyojit-MMU");
    assert_eq!(FullDirty::SYSTEM, "NV-DRAM");
}
