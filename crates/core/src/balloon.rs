//! Dirty-budget ballooning across co-located tenants (§6.3's discussion).
//!
//! The paper envisions cloud providers treating battery as a first-class
//! resource: "cloud providers can employ techniques similar to memory
//! ballooning to reallocate battery/dirty-budget among co-located tenants
//! to benefit from inherent statistical multiplexing effects."
//!
//! [`BalloonedCluster`] implements that: several tenants share one
//! provisioned battery budget. The cluster is expressed on the same
//! [`BudgetTree`] hierarchy the sharded frontends plan through — each
//! balloon tenant is a single-shard tenant whose guarantee equals its
//! floor and whose burst is unbounded, which makes the tree's plan a
//! flat demand-proportional division: budget moves
//! in proportion to each tenant's observed *demand* (write stalls and
//! fresh dirty pages since the last rebalance), subject to the floor.
//! Durability composes: every tenant enforces its own bound, and the
//! broker never hands out more than the battery covers in total.
//!
//! Since the engine unification the cluster is generic over the
//! [`DirtyTracker`] backend, so software-tracked and MMU-assisted tenants
//! balloon identically (the historical implementation was limited to the
//! software runtime, which alone exposed `set_dirty_budget`).

use crate::engine::{
    apply_budgets, BudgetTree, DirtyTracker, Engine, SoftwareWalk, TenantId, TenantQos,
};
use crate::{InvariantViolation, ViyojitStats};

/// A set of Viyojit tenants multiplexing one battery's dirty budget.
///
/// # Examples
///
/// ```
/// use sim_clock::{Clock, CostModel};
/// use ssd_sim::SsdConfig;
/// use viyojit::{BalloonedCluster, NvHeap, Viyojit, ViyojitConfig};
///
/// let clock = Clock::new();
/// let make = || Viyojit::new(
///     256,
///     ViyojitConfig::with_budget_pages(1), // placeholder; broker assigns
///     clock.clone(),
///     CostModel::free(),
///     SsdConfig::instant(),
/// );
/// let mut cluster = BalloonedCluster::new(vec![make(), make()], 64, 8);
/// let t0 = cluster.tenant_mut(viyojit::TenantId(0));
/// let r = t0.map(4096 * 16)?;
/// t0.write(r, 0, b"tenant zero data")?;
/// cluster.rebalance();
/// assert_eq!(cluster.total_assigned(), 64);
/// # Ok::<(), viyojit::ViyojitError>(())
/// ```
#[derive(Debug)]
pub struct BalloonedCluster<B: DirtyTracker = SoftwareWalk> {
    tenants: Vec<Engine<B>>,
    tree: BudgetTree,
}

impl<B: DirtyTracker> BalloonedCluster<B> {
    /// Creates a cluster sharing `total_budget_pages` across `tenants`,
    /// guaranteeing each at least `min_per_tenant`. The initial division
    /// is even.
    ///
    /// # Panics
    ///
    /// Panics if there are no tenants, `min_per_tenant` is zero, or the
    /// floors alone exceed the total.
    pub fn new(tenants: Vec<Engine<B>>, total_budget_pages: u64, min_per_tenant: u64) -> Self {
        assert!(!tenants.is_empty(), "a cluster needs at least one tenant");
        assert!(min_per_tenant > 0, "tenants need at least one dirty page");
        let tree = BudgetTree::with_tenants(
            (0..tenants.len())
                .map(|i| {
                    (
                        format!("tenant{i}"),
                        1,
                        TenantQos::guaranteed(min_per_tenant),
                    )
                })
                .collect(),
            total_budget_pages,
            min_per_tenant,
        );
        let mut cluster = BalloonedCluster { tenants, tree };
        let initial = cluster.tree.initial_shares();
        for (tenant, &share) in cluster.tenants.iter_mut().zip(&initial) {
            tenant.set_dirty_budget(share);
        }
        cluster
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// `true` if the cluster has no tenants (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// The shared provisioned budget.
    pub fn total_budget_pages(&self) -> u64 {
        self.tree.total_budget_pages()
    }

    /// Sum of budgets currently assigned to tenants. Always at most
    /// [`BalloonedCluster::total_budget_pages`] after a rebalance.
    pub fn total_assigned(&self) -> u64 {
        self.tenants.iter().map(|t| t.dirty_budget()).sum()
    }

    /// Rebalances performed so far.
    pub fn rebalances(&self) -> u64 {
        self.tree.rebalances()
    }

    /// Exclusive access to one tenant.
    ///
    /// # Panics
    ///
    /// Panics if the tenant id is out of range.
    pub fn tenant_mut(&mut self, id: TenantId) -> &mut Engine<B> {
        &mut self.tenants[id.0]
    }

    /// Shared access to one tenant.
    ///
    /// # Panics
    ///
    /// Panics if the tenant id is out of range.
    pub fn tenant(&self, id: TenantId) -> &Engine<B> {
        &self.tenants[id.0]
    }

    /// Re-divides the shared budget in proportion to observed demand.
    ///
    /// Tenants whose assignment shrinks flush down synchronously (the §8
    /// machinery), so durability holds at every instant — before, during,
    /// and after the rebalance the dirty total never exceeds the battery.
    pub fn rebalance(&mut self) {
        let before: Vec<ViyojitStats> = self.tenants.iter().map(|t| t.stats()).collect();
        let targets = self.tree.plan(&before);

        // Shrink first (freeing pages), then grow, so the instantaneous
        // sum never exceeds the provisioned total.
        apply_budgets(&mut self.tenants, &targets);

        // The post-apply stats become the next demand baseline: stalls
        // incurred while shrinking count toward the *next* rebalance.
        let after: Vec<ViyojitStats> = self.tenants.iter().map(|t| t.stats()).collect();
        self.tree.commit(&after);
    }

    /// Checks the cluster-wide durability invariant: assigned budgets and
    /// the dirty totals of all tenants fit the provisioned budget, and
    /// every tenant's own invariants hold.
    ///
    /// # Errors
    ///
    /// The first [`InvariantViolation`] found.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        self.tree.check_assignment(self.total_assigned())?;
        let dirty: u64 = self.tenants.iter().map(|t| t.dirty_count()).sum();
        if dirty > self.total_budget_pages() {
            return Err(InvariantViolation::BudgetExceeded {
                dirty,
                budget: self.total_budget_pages(),
            });
        }
        for t in &self.tenants {
            t.check_invariants()?;
        }
        Ok(())
    }

    /// Panicking wrapper over [`BalloonedCluster::check_invariants`].
    ///
    /// # Panics
    ///
    /// Panics with the violation's `Display` text if the invariant is
    /// violated.
    pub fn validate(&self) {
        if let Err(violation) = self.check_invariants() {
            panic!("{violation}");
        }
    }

    /// Consumes the cluster, returning its tenants.
    pub fn into_tenants(self) -> Vec<Engine<B>> {
        self.tenants
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MmuAssistedViyojit, NvHeap, Viyojit, ViyojitConfig};
    use sim_clock::{Clock, CostModel};
    use ssd_sim::SsdConfig;

    fn tenant(clock: &Clock) -> Viyojit {
        Viyojit::new(
            512,
            ViyojitConfig::with_budget_pages(1),
            clock.clone(),
            CostModel::free(),
            SsdConfig::instant(),
        )
    }

    fn cluster(n: usize, total: u64) -> BalloonedCluster {
        let clock = Clock::new();
        BalloonedCluster::new((0..n).map(|_| tenant(&clock)).collect(), total, 4)
    }

    #[test]
    fn initial_division_is_even_and_within_total() {
        let c = cluster(4, 64);
        assert_eq!(c.total_assigned(), 64);
        for i in 0..4 {
            assert_eq!(c.tenant(TenantId(i)).dirty_budget(), 16);
        }
        c.validate();
    }

    #[test]
    fn demand_shifts_budget_toward_the_busy_tenant() {
        let mut c = cluster(2, 64);
        let busy = TenantId(0);
        let r = c.tenant_mut(busy).map(4096 * 200).unwrap();
        // The busy tenant writes far beyond its share; the idle one sleeps.
        for page in 0..200u64 {
            c.tenant_mut(busy).write(r, page * 4096, &[1]).unwrap();
        }
        c.rebalance();
        c.validate();
        let busy_budget = c.tenant(busy).dirty_budget();
        let idle_budget = c.tenant(TenantId(1)).dirty_budget();
        assert!(
            busy_budget > idle_budget * 3,
            "busy {busy_budget} vs idle {idle_budget}"
        );
        assert_eq!(c.total_assigned(), 64);
    }

    #[test]
    fn floors_protect_idle_tenants() {
        let mut c = cluster(2, 64);
        let r = c.tenant_mut(TenantId(0)).map(4096 * 100).unwrap();
        for page in 0..100u64 {
            c.tenant_mut(TenantId(0))
                .write(r, page * 4096, &[1])
                .unwrap();
        }
        c.rebalance();
        assert!(c.tenant(TenantId(1)).dirty_budget() >= 4, "floor respected");
    }

    #[test]
    fn rebalance_with_uniform_demand_stays_even() {
        let mut c = cluster(4, 64);
        let regions: Vec<_> = (0..4)
            .map(|i| c.tenant_mut(TenantId(i)).map(4096 * 8).unwrap())
            .collect();
        for (i, &r) in regions.iter().enumerate() {
            for page in 0..8u64 {
                c.tenant_mut(TenantId(i))
                    .write(r, page * 4096, &[1])
                    .unwrap();
            }
        }
        c.rebalance();
        c.validate();
        for i in 0..4 {
            let b = c.tenant(TenantId(i)).dirty_budget();
            assert!((12..=20).contains(&b), "tenant {i} got {b}");
        }
    }

    #[test]
    fn repeated_rebalances_track_shifting_demand() {
        let mut c = cluster(2, 64);
        let r0 = c.tenant_mut(TenantId(0)).map(4096 * 120).unwrap();
        let r1 = c.tenant_mut(TenantId(1)).map(4096 * 120).unwrap();
        // Phase 1: tenant 0 busy.
        for page in 0..120u64 {
            c.tenant_mut(TenantId(0))
                .write(r0, page * 4096, &[1])
                .unwrap();
        }
        c.rebalance();
        assert!(c.tenant(TenantId(0)).dirty_budget() > c.tenant(TenantId(1)).dirty_budget());
        // Phase 2: demand flips.
        for page in 0..120u64 {
            c.tenant_mut(TenantId(1))
                .write(r1, page * 4096, &[2])
                .unwrap();
        }
        c.rebalance();
        c.validate();
        assert!(
            c.tenant(TenantId(1)).dirty_budget() > c.tenant(TenantId(0)).dirty_budget(),
            "budget must follow demand"
        );
        assert_eq!(c.rebalances(), 2);
    }

    #[test]
    fn shrinking_assignments_flush_down_preserving_durability() {
        let mut c = cluster(2, 40);
        let r0 = c.tenant_mut(TenantId(0)).map(4096 * 64).unwrap();
        // Tenant 0 fills its entire initial share with dirty pages.
        for page in 0..20u64 {
            c.tenant_mut(TenantId(0))
                .write(r0, page * 4096, &[1])
                .unwrap();
        }
        // Tenant 1 suddenly becomes the hot one.
        let r1 = c.tenant_mut(TenantId(1)).map(4096 * 64).unwrap();
        for page in 0..60u64 {
            c.tenant_mut(TenantId(1))
                .write(r1, page * 4096, &[2])
                .unwrap();
        }
        c.rebalance();
        c.validate(); // tenant 0 must have flushed down to its new share
        assert!(c.tenant(TenantId(0)).dirty_count() <= c.tenant(TenantId(0)).dirty_budget());
    }

    #[test]
    #[should_panic(expected = "floors exceed")]
    fn overcommitted_floors_panic() {
        let clock = Clock::new();
        let _ = BalloonedCluster::new(vec![tenant(&clock), tenant(&clock)], 4, 4);
    }

    #[test]
    fn mmu_assisted_tenants_balloon_too() {
        // The historical cluster required the software runtime; the
        // generic engine lets hardware-tracked tenants share a battery.
        let clock = Clock::new();
        let make = || {
            MmuAssistedViyojit::new(
                512,
                ViyojitConfig::with_budget_pages(1),
                clock.clone(),
                CostModel::free(),
                SsdConfig::instant(),
            )
        };
        let mut c = BalloonedCluster::new(vec![make(), make()], 32, 4);
        let r = c.tenant_mut(TenantId(0)).map(4096 * 64).unwrap();
        for page in 0..64u64 {
            c.tenant_mut(TenantId(0))
                .write(r, page * 4096, &[1])
                .unwrap();
        }
        c.rebalance();
        c.validate();
        assert!(c.tenant(TenantId(0)).dirty_budget() > c.tenant(TenantId(1)).dirty_budget());
        assert_eq!(c.total_assigned(), 32);
    }
}
