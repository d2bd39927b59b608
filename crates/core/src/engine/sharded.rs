//! The sequential sharded frontend: one inline driver holding every
//! shard.
//!
//! The ROADMAP's scale-out story: a large NV-DRAM space is split into
//! shards, each running its own [`Engine`] over its own slice of memory
//! and SSD, while the budget tree (`hierarchy`) periodically
//! re-divides the single battery's dirty budget among them in proportion
//! to observed demand — first across tenants (honouring each tenant's
//! [`TenantQos`](super::TenantQos) guarantee and burst cap), then across
//! each tenant's shards. Regions hash to shards at `map` time, so
//! independent working sets land on independent control loops; the
//! statistical-multiplexing win of §6.3's ballooning accrues both between
//! tenants and between *shards of one tenant*. A build with no declared
//! tenants is the degenerate one-tenant tree, byte-identical to the
//! historical flat arbiter; a build of single-shard tenants, each
//! guaranteed its floor with unbounded burst, is §6.3's ballooning
//! between co-located tenants (the `ballooning` bench binary).
//!
//! Durability composes: every shard enforces its assigned bound at every
//! instant, budgets are shrunk (stalling the shrinking shard down) before
//! any shard grows, and the tree never assigns more than the battery
//! provisions — so the cluster-wide dirty population never exceeds the
//! global budget.
//!
//! [`ShardedViyojit`] is the coordinator (see [`super::coordinator`])
//! over the [`Inline`] transport.

use std::ops::{Deref, DerefMut};

use battery_sim::{Battery, PowerModel};
use fault_sim::{Crashpoint, FaultPlan};
use mem_sim::MmuStats;
use sim_clock::{Clock, SimDuration, SimTime};
use ssd_sim::SsdStats;
use telemetry::{Profiler, Telemetry};

use crate::{InvariantViolation, NvHeap, PowerFailureReport, RegionId, ViyojitError, ViyojitStats};

use super::builder::ShardedViyojitBuilder;
use super::coordinator::{Coordinated, Coordinator, Lost, Router, Transport};
use super::driver::{BudgetGrant, Phase, ShardDriver, ShardStats};
use super::plane::ShardDataPlane;
use super::{DegradationGovernor, DirtyTracker, Engine, SoftwareWalk, TenantId, TenantStats};

/// The inline transport: the coordinator's calls land on the one driver
/// directly, over borrowed slices. "Now" is the shared clock — checked
/// after every routed access, because calibrated costs move it — and a
/// panic unwinds to the caller, so no call here can lose its driver.
#[derive(Debug)]
pub(super) struct Inline<B: DirtyTracker>(ShardDriver<B>);

impl<B: DirtyTracker> Transport for Inline<B> {
    fn now(&self) -> SimTime {
        self.0.clock().now()
    }

    fn advance(&mut self, d: SimDuration) -> Result<(), Lost> {
        self.0.clock().advance(d);
        Ok(())
    }

    fn seam(&self, point: Crashpoint) {
        self.0.crashes().check(point);
    }

    fn stats(&self, _down: Option<&mut Vec<bool>>) -> Result<Vec<ShardStats>, Lost> {
        Ok(self.0.shard_stats().collect())
    }

    fn ssd_stats(&self) -> Result<Vec<SsdStats>, Lost> {
        Ok(self.0.ssd_stats().map(|(_, s)| s).collect())
    }

    fn apply(
        &mut self,
        phase: Phase,
        grants: &[BudgetGrant],
        _down: &mut Vec<bool>,
    ) -> Result<(), Lost> {
        self.0.apply_grants(phase, grants);
        Ok(())
    }

    fn power_failure(
        &mut self,
        supply: Option<(&Battery, &PowerModel)>,
    ) -> Result<Vec<PowerFailureReport>, Lost> {
        let reports = self.0.power_failure(supply);
        Ok(reports.into_iter().map(|(_, r)| r).collect())
    }

    fn recover(&mut self) -> Result<(), Lost> {
        self.0.recover();
        Ok(())
    }

    fn check_engines(&self) -> Result<Result<(), InvariantViolation>, Lost> {
        Ok(self.0.check_invariants())
    }
}

/// Unwraps a control-plane result the inline transport cannot fail: what
/// is left is the documented panic of the inherent methods (a budget
/// below the floors, a tenant out of range).
fn inline<T>(result: Result<T, ViyojitError>) -> T {
    result.unwrap_or_else(|e| panic!("{e}"))
}

/// N Viyojit shards sharing one battery's dirty budget.
///
/// Generic over the same [`DirtyTracker`] backends as [`Engine`]; the
/// default is the software walker, matching [`Viyojit`](crate::Viyojit).
/// The inherent methods are the infallible spelling of the
/// [`ShardControlPlane`](super::ShardControlPlane) this type also
/// implements: nothing can fail between the caller and an inline shard.
///
/// # Examples
///
/// ```
/// use sim_clock::SimDuration;
/// use viyojit::{NvHeap, ShardedViyojitBuilder, ViyojitConfig};
///
/// let mut nv = ShardedViyojitBuilder::new(4, 256, ViyojitConfig::with_budget_pages(64))
///     .min_per_shard(4)
///     .rebalance_period(SimDuration::from_millis(10))
///     .build_sequential()?;
/// let r = nv.map(4096 * 8)?;
/// nv.write(r, 0, b"routed to one shard's engine")?;
/// assert_eq!(nv.dirty_count(), 1);
/// assert!(nv.dirty_count() <= nv.total_budget_pages());
/// # Ok::<(), viyojit::ViyojitError>(())
/// ```
#[derive(Debug)]
pub struct ShardedViyojit<B: DirtyTracker = SoftwareWalk> {
    coord: Coordinator<Inline<B>>,
    router: Router,
}

impl<B: DirtyTracker> Coordinated for ShardedViyojit<B> {
    type Transport = Inline<B>;

    fn coordinator(&self) -> impl Deref<Target = Coordinator<Inline<B>>> {
        &self.coord
    }

    fn coordinator_mut(&mut self) -> impl DerefMut<Target = Coordinator<Inline<B>>> {
        &mut self.coord
    }
}

impl<B: DirtyTracker> ShardedViyojit<B> {
    /// Construction body of
    /// [`ShardedViyojitBuilder::build_sequential`]: one driver owning
    /// every shard of the (already validated) deployment, on the shared
    /// clock.
    pub(super) fn assemble(b: ShardedViyojitBuilder<B>) -> Self {
        let tree = b.tree();
        let driver = ShardDriver::build(
            &b,
            &tree,
            0..b.shards,
            b.clock.clone(),
            &b.telemetry,
            b.profiler.clone(),
        );
        ShardedViyojit {
            router: Router::new(b.shards),
            coord: Coordinator::new(Inline(driver), tree, b),
        }
    }

    fn driver(&self) -> &ShardDriver<B> {
        &self.coord.transport.0
    }

    fn driver_mut(&mut self) -> &mut ShardDriver<B> {
        &mut self.coord.transport.0
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.router.shards()
    }

    /// Shared access to one shard's engine.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn shard(&self, idx: usize) -> &Engine<B> {
        self.driver().engine(idx)
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Clock {
        self.driver().clock()
    }

    /// The provisioned global budget.
    pub fn total_budget_pages(&self) -> u64 {
        self.coord.tree().total_budget_pages()
    }

    /// Number of tenants in the budget hierarchy (one for a build with no
    /// declared tenants).
    pub fn tenant_count(&self) -> usize {
        self.coord.tree().tenant_count()
    }

    /// The tenant owning shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn tenant_of_shard(&self, shard: usize) -> TenantId {
        self.coord.tree().tenant_of_shard(shard)
    }

    /// The shard a global region handle routes to, if mapped.
    pub fn shard_of(&self, region: RegionId) -> Option<usize> {
        self.router.shard_of(region)
    }

    /// Sum of budgets currently assigned to shards. At most the global
    /// budget at every instant.
    pub fn total_assigned(&self) -> u64 {
        self.driver().engines().map(|e| e.dirty_budget()).sum()
    }

    /// Pages counted dirty across all shards.
    pub fn dirty_count(&self) -> u64 {
        inline(self.coord.dirty_count())
    }

    /// Budget rebalances performed so far.
    pub fn rebalances(&self) -> u64 {
        self.coord.tree().rebalances()
    }

    /// Aggregated runtime counters (field-wise sum over shards).
    pub fn stats(&self) -> ViyojitStats {
        inline(self.coord.stats())
    }

    /// Per-tenant accounting: each tenant's summed counters, current
    /// budget and dirty population, cumulative pages lost to power
    /// failures, and whether a degraded-mode throttle is active.
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        inline(self.coord.tenant_stats())
    }

    /// Aggregated MMU access counters.
    pub fn mmu_stats(&self) -> MmuStats {
        let mut total = MmuStats::default();
        for e in self.driver().engines() {
            total.accumulate(&e.mmu_stats());
        }
        total
    }

    /// Aggregated SSD counters.
    pub fn ssd_stats(&self) -> SsdStats {
        inline(self.coord.ssd_stats(None))
    }

    /// Attaches telemetry to the frontend and every shard after the fact
    /// (the [`NvStore`](crate::NvStore) surface; prefer the builder).
    pub(crate) fn install_telemetry(&mut self, telemetry: Telemetry) {
        for engine in self.driver_mut().engines_mut() {
            engine.attach_telemetry(telemetry.clone());
        }
        self.coord.telemetry = telemetry;
    }

    /// Attaches a virtual-time profiler to the frontend and every shard
    /// after the fact.
    pub(crate) fn install_profiler(&mut self, profiler: Profiler) {
        for engine in self.driver_mut().engines_mut() {
            engine.attach_profiler(profiler.clone());
        }
        self.driver_mut().set_profiler(profiler);
    }

    /// Attaches one fault plan to every shard after the fact.
    pub(crate) fn install_faults(&mut self, faults: FaultPlan) {
        for engine in self.driver_mut().engines_mut() {
            engine.attach_faults(faults.clone());
        }
    }

    /// Simulates a global power failure: every shard flushes its counted
    /// dirty pages; the report sums pages and keeps the slowest shard's
    /// flush time.
    pub fn power_failure(&mut self) -> PowerFailureReport {
        inline(self.coord.power_failure(None))
    }

    /// Simulates a global power failure racing one shared battery (see
    /// [`Engine::power_failure_powered`]); the aggregate keeps the worst
    /// outcome and the smallest energy margin across shards.
    pub fn power_failure_powered(
        &mut self,
        battery: &Battery,
        power: &PowerModel,
    ) -> PowerFailureReport {
        inline(self.coord.power_failure(Some((battery, power))))
    }

    /// Caps one tenant's allocation at `cap` pages (clamped up to its
    /// shard floors), or lifts the cap with `None`, effective immediately.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    pub fn throttle_tenant(&mut self, tenant: TenantId, cap: Option<u64>) {
        inline(self.coord.throttle_tenant(tenant, cap));
    }

    /// Feeds a *per-tenant* degradation governor that tenant's signals
    /// and, on a mode transition, throttles (or un-throttles) only that
    /// tenant. Returns the prescribed tenant budget if a transition
    /// happened.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    pub fn govern_tenant_degradation(
        &mut self,
        tenant: TenantId,
        governor: &mut DegradationGovernor,
        reported_health: f64,
    ) -> Option<u64> {
        inline(
            self.coord
                .govern_tenant_degradation(tenant, governor, reported_health),
        )
    }

    /// Recovers every shard from its SSD after a power cycle. Routes
    /// survive (region metadata lives in the flushed superblock, as in
    /// [`Engine::recover`]).
    pub fn recover(&mut self) {
        inline(self.coord.recover());
    }

    /// Checks the cluster-wide invariants: assigned budgets fit the
    /// battery, the global dirty population fits the battery, and every
    /// shard's own invariants hold.
    ///
    /// # Errors
    ///
    /// The first [`InvariantViolation`] found.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        match self.coord.check_invariants() {
            Err(ViyojitError::Invariant(violation)) => Err(violation),
            other => {
                inline(other);
                Ok(())
            }
        }
    }
}

impl<B: DirtyTracker> NvHeap for ShardedViyojit<B> {
    /// Maps a region on the preferred (hashed) shard, probing the other
    /// shards in order when that shard's space is exhausted.
    fn map(&mut self, len_bytes: u64) -> Result<RegionId, ViyojitError> {
        let driver = &mut self.coord.transport.0;
        self.router
            .map(len_bytes, |shard| driver.map(shard, len_bytes))
    }

    fn unmap(&mut self, region: RegionId) -> Result<(), ViyojitError> {
        let route = self.router.route(region)?;
        self.driver_mut().unmap(route)?;
        self.router.unmap(region);
        Ok(())
    }

    fn read(&mut self, region: RegionId, offset: u64, buf: &mut [u8]) -> Result<(), ViyojitError> {
        let route = self.router.route(region)?;
        self.driver_mut().read(route, offset, buf)?;
        self.coord.maybe_rebalance()
    }

    fn write(&mut self, region: RegionId, offset: u64, data: &[u8]) -> Result<(), ViyojitError> {
        let route = self.router.route(region)?;
        self.driver_mut().write(route, offset, data)?;
        self.coord.maybe_rebalance()
    }

    fn region_len(&self, region: RegionId) -> Result<u64, ViyojitError> {
        Ok(self.router.route(region)?.len_bytes)
    }
}

impl<B: DirtyTracker> ShardDataPlane for ShardedViyojit<B> {
    /// Advances the shared virtual clock and runs a rebalance if the
    /// period boundary was crossed — equivalent to the historical pattern
    /// of `clock.advance(d)` followed by the next routed access.
    fn step(&mut self, d: SimDuration) -> Result<(), ViyojitError> {
        self.coord.step(d)
    }

    /// The sequential frontend buffers nothing; always `Ok`.
    fn sync(&mut self) -> Result<(), ViyojitError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::{MmuAssisted, ShardControlPlane, TenantQos};
    use super::*;
    use crate::ViyojitConfig;
    use mem_sim::PAGE_SIZE;

    fn cluster(shards: usize, budget: u64) -> Result<ShardedViyojit, ViyojitError> {
        ShardedViyojitBuilder::new(shards, 256, ViyojitConfig::with_budget_pages(budget))
            .min_per_shard(2)
            .rebalance_period(SimDuration::from_millis(1))
            .build_sequential()
    }

    #[test]
    fn regions_spread_across_shards_and_round_trip() -> Result<(), ViyojitError> {
        let mut nv = cluster(4, 64)?;
        let regions = (0..8)
            .map(|_| nv.map(PAGE_SIZE as u64 * 4))
            .collect::<Result<Vec<RegionId>, ViyojitError>>()?;
        let used: std::collections::HashSet<usize> =
            regions.iter().filter_map(|&r| nv.shard_of(r)).collect();
        assert!(used.len() > 1, "hashing should use more than one shard");
        for (i, &r) in regions.iter().enumerate() {
            nv.write(r, 0, &[i as u8; 64])?;
        }
        let mut buf = [0u8; 64];
        for (i, &r) in regions.iter().enumerate() {
            nv.read(r, 0, &mut buf)?;
            assert_eq!(buf, [i as u8; 64]);
        }
        nv.check_invariants().map_err(ViyojitError::from)
    }

    #[test]
    fn unmapping_yields_a_typed_bad_region_and_frees_the_slot() -> Result<(), ViyojitError> {
        let mut nv = cluster(2, 16)?;
        let a = nv.map(PAGE_SIZE as u64)?;
        let b = nv.map(PAGE_SIZE as u64)?;
        nv.unmap(a)?;
        assert_eq!(
            nv.read(a, 0, &mut [0u8; 1]),
            Err(ViyojitError::BadRegion(a)),
            "a freed handle must name itself in the error"
        );
        let c = nv.map(PAGE_SIZE as u64)?;
        assert_eq!(c, a, "freed route slots are reused");
        nv.write(b, 0, b"x")?;
        nv.write(c, 0, b"y")?;
        nv.check_invariants().map_err(ViyojitError::from)
    }

    #[test]
    fn map_probes_past_a_full_shard_then_reports_out_of_space() -> Result<(), ViyojitError> {
        // Two tiny shards: one large mapping fills the preferred shard,
        // the next must land on the other; a third finds no free run
        // anywhere and the error carries the exact shortfall.
        let mut nv = ShardedViyojitBuilder::new(2, 8, ViyojitConfig::with_budget_pages(8))
            .min_per_shard(2)
            .rebalance_period(SimDuration::from_millis(1))
            .build_sequential()?;
        let a = nv.map(PAGE_SIZE as u64 * 8)?;
        let b = nv.map(PAGE_SIZE as u64 * 8)?;
        assert_ne!(nv.shard_of(a), nv.shard_of(b));
        assert_eq!(
            nv.map(PAGE_SIZE as u64),
            Err(ViyojitError::OutOfSpace {
                requested_pages: 1,
                largest_free_run: 0,
            })
        );
        Ok(())
    }

    #[test]
    fn rebalance_conserves_the_global_budget() -> Result<(), ViyojitError> {
        let mut nv = cluster(4, 64)?;
        let r = nv.map(PAGE_SIZE as u64 * 32)?;
        for i in 0..32u64 {
            nv.write(r, i * PAGE_SIZE as u64, &[1])?;
        }
        ShardControlPlane::rebalance(&mut nv)?;
        assert_eq!(nv.total_assigned(), 64);
        assert!(nv.rebalances() >= 1);
        nv.check_invariants().map_err(ViyojitError::from)
    }

    #[test]
    fn dirty_total_never_exceeds_the_battery() -> Result<(), ViyojitError> {
        let mut nv = cluster(4, 16)?;
        let regions = (0..4)
            .map(|_| nv.map(PAGE_SIZE as u64 * 32))
            .collect::<Result<Vec<RegionId>, ViyojitError>>()?;
        for round in 0..64u64 {
            for &r in &regions {
                let page = (round * 7) % 32;
                nv.write(r, page * PAGE_SIZE as u64, &[round as u8])?;
                assert!(nv.dirty_count() <= nv.total_budget_pages());
            }
        }
        nv.check_invariants()?;
        let report = nv.power_failure();
        assert!(report.dirty_pages <= nv.total_budget_pages());
        Ok(())
    }

    #[test]
    fn recovery_restores_every_shard() -> Result<(), ViyojitError> {
        let mut nv = cluster(2, 8)?;
        let r = nv.map(PAGE_SIZE as u64 * 4)?;
        nv.write(r, 0, b"durable across the cycle")?;
        nv.power_failure();
        nv.recover();
        let mut buf = [0u8; 24];
        nv.read(r, 0, &mut buf)?;
        assert_eq!(&buf, b"durable across the cycle");
        nv.check_invariants().map_err(ViyojitError::from)
    }

    #[test]
    fn step_crosses_rebalance_boundaries_like_routed_accesses() -> Result<(), ViyojitError> {
        let mut nv = cluster(2, 16)?;
        assert_eq!(ShardControlPlane::rebalances(&mut nv)?, 0);
        ShardDataPlane::step(&mut nv, SimDuration::from_millis(5))?;
        assert_eq!(
            ShardControlPlane::rebalances(&mut nv)?,
            1,
            "one rebalance per gap, however many boundaries it spans"
        );
        ShardDataPlane::sync(&mut nv)?;
        ShardDataPlane::step(&mut nv, SimDuration::from_micros(10))?;
        assert_eq!(ShardControlPlane::rebalances(&mut nv)?, 1);
        Ok(())
    }

    #[test]
    fn control_plane_rejects_budgets_below_the_floors() -> Result<(), ViyojitError> {
        let mut nv = cluster(4, 64)?;
        let err = ShardControlPlane::set_total_budget(&mut nv, 7)
            .expect_err("4 shards with floor 2 cannot fit 7 pages");
        assert!(matches!(err, ViyojitError::InvalidConfig(_)));
        assert_eq!(ShardControlPlane::total_budget_pages(&nv), 64);
        ShardControlPlane::set_total_budget(&mut nv, 8)?;
        assert_eq!(ShardControlPlane::total_budget_pages(&nv), 8);
        Ok(())
    }

    #[test]
    fn throttling_one_tenant_moves_its_burst_to_the_sibling() -> Result<(), ViyojitError> {
        let mut nv = ShardedViyojitBuilder::new(4, 256, ViyojitConfig::with_budget_pages(64))
            .min_per_shard(2)
            .rebalance_period(SimDuration::from_millis(1))
            .tenant("noisy", 2, TenantQos::guaranteed(16).burst(32))
            .tenant("quiet", 2, TenantQos::guaranteed(16))
            .build_sequential()?;
        assert_eq!(nv.tenant_count(), 2);
        let stats = ShardedViyojit::tenant_stats(&nv);
        assert_eq!(stats[0].name, "noisy");
        assert_eq!(stats[1].name, "quiet");
        assert_eq!(
            stats.iter().map(|t| t.budget_pages).sum::<u64>(),
            64,
            "the whole budget is divided across tenants"
        );

        // Squeeze the noisy tenant to its shard floors: everything above
        // them must flow to the quiet sibling.
        ShardControlPlane::throttle_tenant(&mut nv, TenantId(0), Some(4))?;
        let stats = ShardedViyojit::tenant_stats(&nv);
        assert!(stats[0].throttled && !stats[1].throttled);
        assert_eq!(stats[0].budget_pages, 4, "capped at the clamped floor");
        assert_eq!(stats[1].budget_pages, 60, "the sibling absorbs the rest");

        // Lifting the cap restores demand-driven division.
        ShardControlPlane::throttle_tenant(&mut nv, TenantId(0), None)?;
        let stats = ShardedViyojit::tenant_stats(&nv);
        assert!(!stats[0].throttled);
        assert_eq!(stats.iter().map(|t| t.budget_pages).sum::<u64>(), 64);

        let err = ShardControlPlane::throttle_tenant(&mut nv, TenantId(2), None)
            .expect_err("tenant 2 does not exist");
        assert!(matches!(err, ViyojitError::InvalidConfig(_)));
        nv.check_invariants().map_err(ViyojitError::from)
    }

    /// §6.3's ballooning between co-located tenants: two single-shard
    /// tenants, each guaranteed its floor with unbounded burst, so a round
    /// is a flat division of `total` by demand. Rounds run only on request.
    fn two_tenants<B: DirtyTracker>(
        total: u64,
    ) -> Result<(ShardedViyojit<B>, [RegionId; 2]), ViyojitError> {
        let mut nv = ShardedViyojitBuilder::new(2, 512, ViyojitConfig::with_budget_pages(total))
            .backend::<B>()
            .min_per_shard(4)
            .rebalance_period(SimDuration::from_secs(3600))
            .tenant("tenant0", 1, TenantQos::guaranteed(4))
            .tenant("tenant1", 1, TenantQos::guaranteed(4))
            .build_sequential()?;
        let regions = [
            nv.map(PAGE_SIZE as u64 * 200)?,
            nv.map(PAGE_SIZE as u64 * 200)?,
        ];
        assert_eq!(regions.map(|r| nv.shard_of(r)), [Some(0), Some(1)]);
        Ok((nv, regions))
    }

    fn dirty_pages<B: DirtyTracker>(
        nv: &mut ShardedViyojit<B>,
        region: RegionId,
        pages: u64,
    ) -> Result<(), ViyojitError> {
        (0..pages).try_for_each(|page| nv.write(region, page * PAGE_SIZE as u64, &[1]))
    }

    fn budget_follows_demand<B: DirtyTracker>() -> Result<(), ViyojitError> {
        let (mut nv, [r0, r1]) = two_tenants::<B>(64)?;
        let budgets = |nv: &ShardedViyojit<B>| [0, 1].map(|i| nv.shard(i).dirty_budget());
        assert_eq!(budgets(&nv), [32, 32], "the initial division is even");
        // Tenant 0 writes far beyond its share; tenant 1 sleeps.
        dirty_pages(&mut nv, r0, 200)?;
        ShardControlPlane::rebalance(&mut nv)?;
        let [busy, idle] = budgets(&nv);
        assert!(busy > idle * 3, "busy {busy} vs idle {idle}");
        assert!(idle >= 4, "the floor protects the idle tenant");
        assert_eq!(nv.total_assigned(), 64);
        // Demand flips; so must the division.
        dirty_pages(&mut nv, r1, 200)?;
        ShardControlPlane::rebalance(&mut nv)?;
        let [was_busy, now_busy] = budgets(&nv);
        assert!(
            now_busy > was_busy,
            "{now_busy} must follow demand past {was_busy}"
        );
        assert_eq!(nv.total_assigned(), 64);
        assert_eq!(nv.rebalances(), 2);
        nv.check_invariants().map_err(ViyojitError::from)
    }

    fn a_shrinking_tenant_flushes_down<B: DirtyTracker>() -> Result<(), ViyojitError> {
        let (mut nv, [r0, r1]) = two_tenants::<B>(40)?;
        // Tenant 0 fills its whole initial share with dirty pages, then
        // tenant 1 becomes the hot one.
        dirty_pages(&mut nv, r0, 20)?;
        assert_eq!(nv.shard(0).dirty_count(), 20);
        dirty_pages(&mut nv, r1, 60)?;
        ShardControlPlane::rebalance(&mut nv)?;
        assert!(nv.shard(0).dirty_budget() < 20, "tenant 0's share shrank");
        assert!(nv.shard(1).dirty_budget() > 20, "tenant 1's share grew");
        for shard in 0..2 {
            let engine = nv.shard(shard);
            assert!(engine.dirty_count() <= engine.dirty_budget());
        }
        assert_eq!(nv.total_assigned(), 40);
        nv.check_invariants().map_err(ViyojitError::from)
    }

    #[test]
    fn budget_follows_the_busy_tenant_and_flips_with_demand() -> Result<(), ViyojitError> {
        budget_follows_demand::<SoftwareWalk>()
    }

    #[test]
    fn a_tenant_whose_share_shrinks_has_flushed_down_to_it() -> Result<(), ViyojitError> {
        a_shrinking_tenant_flushes_down::<SoftwareWalk>()
    }

    #[test]
    fn mmu_assisted_tenants_balloon_the_same_way() -> Result<(), ViyojitError> {
        budget_follows_demand::<MmuAssisted>()?;
        a_shrinking_tenant_flushes_down::<MmuAssisted>()
    }
}
