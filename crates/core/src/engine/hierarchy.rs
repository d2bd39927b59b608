//! The hierarchical budget tree: machine → tenant → shard.
//!
//! One server, many tenants, one battery (ROADMAP open item 3; the
//! paper's §5.1 budget derivation promoted to a cloud-operator scenario).
//! [`BudgetTree`] generalises the flat [`BudgetArbiter`] into two levels:
//!
//! - the **machine** level divides the battery's provisioned dirty budget
//!   among tenants, honouring each tenant's [`TenantQos`] — a
//!   `guaranteed` allocation plus a `burst` allowance above it. Burst
//!   pages are granted demand-proportionally from whatever the
//!   guarantees leave over; under pressure (the total no longer covers
//!   the guarantees) the burst pool collapses *first* and the guarantees
//!   themselves then scale proportionally, never below the per-shard
//!   floors — the weighted-reclaim rule;
//! - the **shard** level is each tenant's private [`BudgetArbiter`],
//!   dividing the tenant's allocation among its shards exactly as the
//!   flat arbiter always has.
//!
//! Both levels run the same largest-remainder division as the flat
//! arbiter always has, and a tenant's demand is
//! the *sum* of its shards' demand scores — so a tree with one tenant
//! owning every shard plans byte-identically to the flat arbiter it
//! replaced. The equivalence property in `engine_equivalence_prop.rs`
//! pins that down.
//!
//! Degraded-mode policy composes per tenant: a [`throttle`]
//! (typically set by a per-tenant
//! [`DegradationGovernor`](super::DegradationGovernor)) caps the
//! tenant's allocation — burst first, then guarantee — while sibling
//! tenants keep their QoS.
//!
//! [`throttle`]: BudgetTree::throttle

use crate::{InvariantViolation, ViyojitStats};

use super::arbiter::{divide_with_caps, BudgetArbiter};
use super::{DirtyTracker, Engine};

/// Identifies a tenant within a budget hierarchy (or the historical
/// [`BalloonedCluster`](crate::BalloonedCluster), whose tenants are
/// one-shard tree nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub usize);

/// Per-tenant dirty-budget QoS: a guaranteed allocation plus a burst
/// allowance above it.
///
/// `guaranteed_pages` is honoured whenever the machine total covers the
/// sum of guarantees; `burst_pages` bounds how far above the guarantee
/// demand-proportional ballooning may carry the tenant.
///
/// # Examples
///
/// ```
/// use viyojit::TenantQos;
///
/// let qos = TenantQos::guaranteed(64).burst(32);
/// assert_eq!(qos.guaranteed_pages, 64);
/// assert_eq!(qos.capacity(), 96);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQos {
    /// Pages the tenant is entitled to whenever the machine total covers
    /// the sum of all guarantees.
    pub guaranteed_pages: u64,
    /// Pages of burst headroom above the guarantee (saturating; the
    /// default is unbounded).
    pub burst_pages: u64,
}

impl TenantQos {
    /// A QoS of `pages` guaranteed with unbounded burst.
    pub fn guaranteed(pages: u64) -> Self {
        TenantQos {
            guaranteed_pages: pages,
            burst_pages: u64::MAX,
        }
    }

    /// Caps burst headroom above the guarantee at `pages`.
    pub fn burst(mut self, pages: u64) -> Self {
        self.burst_pages = pages;
        self
    }

    /// The most the tenant may ever hold: guarantee plus burst.
    pub fn capacity(&self) -> u64 {
        self.guaranteed_pages.saturating_add(self.burst_pages)
    }
}

/// One tenant's point-in-time accounting, as reported by
/// [`ShardControlPlane::tenant_stats`](super::ShardControlPlane::tenant_stats).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    /// The tenant.
    pub tenant: TenantId,
    /// The tenant's configured name.
    pub name: String,
    /// Sum of the budgets currently assigned to the tenant's shards.
    pub budget_pages: u64,
    /// Pages the tenant's shards currently count dirty.
    pub dirty_pages: u64,
    /// Field-wise sum of the tenant's shard counters.
    pub stats: ViyojitStats,
    /// Pages this tenant lost to emergency flushes so far (cumulative
    /// across power failures).
    pub pages_lost: u64,
    /// `true` while a degraded-mode throttle caps the tenant.
    pub throttled: bool,
}

#[derive(Debug)]
struct TenantNode {
    name: String,
    first_shard: usize,
    qos: TenantQos,
    /// Degraded-mode cap on the tenant's allocation; `None` when nominal.
    throttle: Option<u64>,
    /// The tenant's private shard-level arbiter (holds the per-shard
    /// demand baselines).
    inner: BudgetArbiter,
}

impl TenantNode {
    fn shards(&self) -> usize {
        self.inner.members()
    }

    /// The tenant's absolute floor: its shards' per-shard minima.
    fn base(&self, min_per_shard: u64) -> u64 {
        min_per_shard * self.shards() as u64
    }

    /// The tenant's allocation ceiling: QoS capacity, further capped by
    /// an active throttle, never below the shard floors.
    fn cap(&self, min_per_shard: u64) -> u64 {
        self.qos
            .capacity()
            .min(self.throttle.unwrap_or(u64::MAX))
            .max(self.base(min_per_shard))
    }

    /// The tenant's effective guarantee: at least the shard floors, at
    /// most the ceiling.
    fn floor(&self, min_per_shard: u64) -> u64 {
        self.qos
            .guaranteed_pages
            .max(self.base(min_per_shard))
            .min(self.cap(min_per_shard))
    }
}

/// The two-level budget hierarchy dividing one battery's dirty budget
/// across tenants, and each tenant's allocation across its shards.
///
/// Replaces the flat [`BudgetArbiter`] in the sharded frontends; the flat
/// arbiter survives as the per-tenant inner node. The same
/// `plan` / apply shrink-first / `commit` cycle applies, now producing
/// one target per *shard* with tenant QoS enforced in between.
#[derive(Debug)]
pub struct BudgetTree {
    total_budget_pages: u64,
    min_per_shard: u64,
    nodes: Vec<TenantNode>,
    /// Shard index → tenant index (shards are contiguous per tenant).
    shard_tenant: Vec<usize>,
    rebalances: u64,
}

impl BudgetTree {
    /// The degenerate hierarchy: one tenant owning all `shards`, with its
    /// guarantee at the shard floors and unbounded burst — plans
    /// byte-identically to `BudgetArbiter::new(shards, total, min)`.
    ///
    /// # Panics
    ///
    /// As [`BudgetTree::with_tenants`].
    pub fn single(shards: usize, total_budget_pages: u64, min_per_shard: u64) -> Self {
        Self::with_tenants(
            vec![(
                "default".to_string(),
                shards,
                TenantQos::guaranteed(min_per_shard * shards as u64),
            )],
            total_budget_pages,
            min_per_shard,
        )
    }

    /// Builds the hierarchy from `(name, shards, qos)` tenant specs;
    /// tenants own contiguous shard ranges in spec order.
    ///
    /// # Panics
    ///
    /// Panics if there are no tenants, a tenant has no shards, the
    /// per-shard floor is zero, the floors exceed the total, or a
    /// tenant's guarantee is below its shard floors. (The builder
    /// validates these into typed errors first.)
    pub fn with_tenants(
        tenants: Vec<(String, usize, TenantQos)>,
        total_budget_pages: u64,
        min_per_shard: u64,
    ) -> Self {
        assert!(
            !tenants.is_empty(),
            "a budget tree needs at least one tenant"
        );
        assert!(min_per_shard > 0, "shards need at least one dirty page");
        let mut nodes = Vec::with_capacity(tenants.len());
        let mut shard_tenant = Vec::new();
        let mut first_shard = 0usize;
        for (t, (name, shards, qos)) in tenants.into_iter().enumerate() {
            assert!(shards > 0, "tenant {name:?} needs at least one shard");
            assert!(
                qos.guaranteed_pages >= min_per_shard * shards as u64,
                "tenant {name:?}'s guarantee is below its shard floors"
            );
            // The inner arbiter's own floor check runs against the
            // guarantee (the least the tenant can be allocated under
            // nominal totals).
            let inner = BudgetArbiter::new(shards, qos.guaranteed_pages, min_per_shard);
            shard_tenant.extend(std::iter::repeat_n(t, shards));
            nodes.push(TenantNode {
                name,
                first_shard,
                qos,
                throttle: None,
                inner,
            });
            first_shard += shards;
        }
        assert!(
            min_per_shard * shard_tenant.len() as u64 <= total_budget_pages,
            "per-member floors exceed the provisioned budget"
        );
        BudgetTree {
            total_budget_pages,
            min_per_shard,
            nodes,
            shard_tenant,
            rebalances: 0,
        }
    }

    /// Total shard count across all tenants.
    pub fn members(&self) -> usize {
        self.shard_tenant.len()
    }

    /// Number of tenants.
    pub fn tenant_count(&self) -> usize {
        self.nodes.len()
    }

    /// The shared provisioned budget.
    pub fn total_budget_pages(&self) -> u64 {
        self.total_budget_pages
    }

    /// The per-shard floor.
    pub fn min_per_shard(&self) -> u64 {
        self.min_per_shard
    }

    /// Rebalances committed so far.
    pub fn rebalances(&self) -> u64 {
        self.rebalances
    }

    /// The tenant owning shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn tenant_of_shard(&self, shard: usize) -> TenantId {
        TenantId(self.shard_tenant[shard])
    }

    /// The contiguous shard range tenant `t` owns.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn tenant_shards(&self, t: TenantId) -> std::ops::Range<usize> {
        let node = &self.nodes[t.0];
        node.first_shard..node.first_shard + node.shards()
    }

    /// Tenant `t`'s configured name.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn tenant_name(&self, t: TenantId) -> &str {
        &self.nodes[t.0].name
    }

    /// Tenant `t`'s QoS.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn tenant_qos(&self, t: TenantId) -> TenantQos {
        self.nodes[t.0].qos
    }

    /// Tenant `t`'s active degraded-mode cap, if any.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn throttle_of(&self, t: TenantId) -> Option<u64> {
        self.nodes[t.0].throttle
    }

    /// Caps tenant `t`'s allocation at `cap` pages (clamped up to the
    /// tenant's shard floors so its writers cannot deadlock), or lifts
    /// the cap with `None`. Takes effect at the next plan; the caller
    /// follows with a plan/apply/commit cycle, exactly as after
    /// [`BudgetTree::set_total_budget`].
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn throttle(&mut self, t: TenantId, cap: Option<u64>) {
        let base = self.nodes[t.0].base(self.min_per_shard);
        self.nodes[t.0].throttle = cap.map(|c| c.max(base));
    }

    /// Re-provisions the machine total at runtime. Guarantees may now
    /// exceed the total — the weighted-reclaim path scales them — but the
    /// absolute per-shard floors must still fit.
    ///
    /// # Panics
    ///
    /// Panics if the per-shard floors no longer fit `pages`.
    pub fn set_total_budget(&mut self, pages: u64) {
        assert!(
            self.min_per_shard * self.members() as u64 <= pages,
            "per-member floors exceed the re-provisioned budget"
        );
        self.total_budget_pages = pages;
    }

    /// Divides the machine total among tenants given each tenant's summed
    /// demand score. Guarantees first; the remainder demand-proportionally
    /// up to each tenant's cap; under pressure the guarantees themselves
    /// scale, never below the shard floors.
    fn tenant_allocations(&self, tenant_demands: &[u64]) -> Vec<u64> {
        let min = self.min_per_shard;
        let bases: Vec<u64> = self.nodes.iter().map(|n| n.base(min)).collect();
        let floors: Vec<u64> = self.nodes.iter().map(|n| n.floor(min)).collect();
        let caps: Vec<u64> = self.nodes.iter().map(|n| n.cap(min)).collect();
        // Construction/re-provisioning guarantee the bases fit the total.
        let available = self.total_budget_pages - bases.iter().sum::<u64>();
        let extras: Vec<u64> = floors.iter().zip(&bases).map(|(f, b)| f - b).collect();
        let extras_sum: u64 = extras.iter().sum();

        if extras_sum <= available {
            // Nominal: full guarantees, then the burst pool by demand.
            let burst_pool = available - extras_sum;
            let headroom: Vec<u64> = caps.iter().zip(&floors).map(|(c, f)| c - f).collect();
            let burst = divide_with_caps(burst_pool, tenant_demands, &headroom);
            floors.iter().zip(&burst).map(|(f, b)| f + b).collect()
        } else {
            // Pressure: the burst pool is already gone; shrink the
            // guarantees proportionally to their size, never below the
            // shard floors (weights double as caps, so no tenant is
            // granted past its own guarantee).
            let granted = divide_with_caps(available, &extras, &extras);
            bases.iter().zip(&granted).map(|(b, g)| b + g).collect()
        }
    }

    /// Computes one target budget per shard: tenant-level division of the
    /// machine total, then each tenant's inner largest-remainder division
    /// of its allocation.
    ///
    /// # Panics
    ///
    /// Panics if `stats` does not have one entry per shard.
    pub fn plan(&self, stats: &[ViyojitStats]) -> Vec<u64> {
        assert_eq!(stats.len(), self.members(), "one stats snapshot per shard");
        let tenant_demands: Vec<u64> = self
            .nodes
            .iter()
            .map(|n| {
                let range = n.first_shard..n.first_shard + n.shards();
                n.inner.demands(&stats[range]).iter().sum()
            })
            .collect();
        let allocs = self.tenant_allocations(&tenant_demands);
        let mut targets = Vec::with_capacity(self.members());
        for (node, &alloc) in self.nodes.iter().zip(&allocs) {
            let range = node.first_shard..node.first_shard + node.shards();
            targets.extend(node.inner.plan_with_total(alloc, &stats[range]));
        }
        targets
    }

    /// The initial per-shard division before any demand is observed:
    /// tenant allocations under uniform demand, spread evenly inside each
    /// tenant (raised to the floor) — for a single tenant this reproduces
    /// the flat arbiter's `initial_share` exactly.
    pub fn initial_shares(&self) -> Vec<u64> {
        let uniform: Vec<u64> = self.nodes.iter().map(|n| n.shards() as u64).collect();
        let allocs = self.tenant_allocations(&uniform);
        let mut shares = Vec::with_capacity(self.members());
        for (node, &alloc) in self.nodes.iter().zip(&allocs) {
            let even = (alloc / node.shards() as u64).max(self.min_per_shard);
            shares.extend(std::iter::repeat_n(even, node.shards()));
        }
        shares
    }

    /// Records the post-apply stats as each tenant's new demand baseline
    /// and counts the rebalance.
    ///
    /// # Panics
    ///
    /// Panics if `stats` does not have one entry per shard.
    pub fn commit(&mut self, stats: &[ViyojitStats]) {
        assert_eq!(stats.len(), self.members(), "one stats snapshot per shard");
        for node in &mut self.nodes {
            let range = node.first_shard..node.first_shard + node.shards();
            node.inner.commit(&stats[range]);
        }
        self.rebalances += 1;
    }

    /// Checks that `assigned` budgets fit the provisioned total.
    ///
    /// # Errors
    ///
    /// [`InvariantViolation::OverCommit`] when they do not.
    pub fn check_assignment(&self, assigned: u64) -> Result<(), InvariantViolation> {
        if assigned > self.total_budget_pages {
            return Err(InvariantViolation::OverCommit {
                assigned,
                provisioned: self.total_budget_pages,
            });
        }
        Ok(())
    }
}

/// Applies `targets` to `engines` shrink-first then grow, so the
/// instantaneous sum of assigned budgets never exceeds the provisioned
/// total — [`BalloonedCluster`](crate::BalloonedCluster)'s apply loop
/// over the engines it owns directly (the sharded frontends play the
/// same two phases through their drivers).
pub(crate) fn apply_budgets<B: DirtyTracker>(engines: &mut [Engine<B>], targets: &[u64]) {
    for (engine, &target) in engines.iter_mut().zip(targets) {
        if target < engine.dirty_budget() {
            engine.set_dirty_budget(target);
        }
    }
    // Power cut between the phases: donors already shrunk, receivers not
    // yet grown — the total is under-assigned but never over-assigned.
    if let Some(engine) = engines.first() {
        fault_sim::crashpoint!(engine.core.crashes, BudgetShrinkGrow);
    }
    for (engine, &target) in engines.iter_mut().zip(targets) {
        if target > engine.dirty_budget() {
            engine.set_dirty_budget(target);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(stalls: u64, dirtied: u64) -> ViyojitStats {
        ViyojitStats {
            budget_stalls: stalls,
            pages_dirtied: dirtied,
            ..ViyojitStats::default()
        }
    }

    fn two_tenants(total: u64) -> BudgetTree {
        BudgetTree::with_tenants(
            vec![
                ("alpha".into(), 2, TenantQos::guaranteed(8).burst(100)),
                ("beta".into(), 2, TenantQos::guaranteed(8).burst(100)),
            ],
            total,
            2,
        )
    }

    #[test]
    fn single_tenant_tree_plans_like_the_flat_arbiter() {
        let mut tree = BudgetTree::single(3, 100, 5);
        let mut flat = BudgetArbiter::new(3, 100, 5);
        let snapshots = [
            vec![stats(0, 7), stats(3, 50), stats(0, 0)],
            vec![stats(1, 80), stats(3, 50), stats(2, 9)],
            vec![stats(4, 81), stats(3, 50), stats(2, 200)],
        ];
        assert_eq!(
            tree.initial_shares(),
            vec![flat.initial_share(); 3],
            "initial division must match the flat even rule"
        );
        for snap in &snapshots {
            assert_eq!(tree.plan(snap), flat.plan(snap));
            tree.commit(snap);
            flat.commit(snap);
        }
        assert_eq!(tree.rebalances(), flat.rebalances());
    }

    #[test]
    fn guarantees_are_honoured_and_burst_follows_demand() {
        let tree = two_tenants(64);
        // beta stalls hard; alpha sleeps. Both keep their guarantee of 8;
        // the burst pool (64 - 16 = 48) flows to beta.
        let snap = [stats(0, 0), stats(0, 0), stats(20, 300), stats(20, 300)];
        let t = tree.plan(&snap);
        let alpha: u64 = t[..2].iter().sum();
        let beta: u64 = t[2..].iter().sum();
        assert!(alpha >= 8, "alpha keeps its guarantee, got {alpha}");
        assert!(beta > alpha * 3, "burst follows demand: {alpha} vs {beta}");
        assert_eq!(alpha + beta, 64);
    }

    #[test]
    fn burst_caps_bound_ballooning() {
        let tree = BudgetTree::with_tenants(
            vec![
                ("greedy".into(), 1, TenantQos::guaranteed(4).burst(6)),
                ("quiet".into(), 1, TenantQos::guaranteed(4)),
            ],
            64,
            2,
        );
        let t = tree.plan(&[stats(50, 500), stats(0, 0)]);
        assert_eq!(t[0], 10, "guarantee 4 + burst 6 caps the greedy tenant");
        assert_eq!(t[0] + t[1], 64, "the excess flows to the sibling");
    }

    #[test]
    fn pressure_shrinks_burst_before_guarantees() {
        let mut tree = two_tenants(64);
        let busy = [stats(5, 50), stats(5, 50), stats(5, 50), stats(5, 50)];
        // Above the guarantee sum (16): both tenants keep 8 and split the rest.
        let t = tree.plan(&busy);
        assert!(t[..2].iter().sum::<u64>() >= 8);
        assert!(t[2..].iter().sum::<u64>() >= 8);
        // Shrink to exactly the guarantee sum: burst gone, guarantees whole.
        tree.set_total_budget(16);
        let t = tree.plan(&busy);
        assert_eq!(t[..2].iter().sum::<u64>(), 8);
        assert_eq!(t[2..].iter().sum::<u64>(), 8);
        // Below the guarantee sum: guarantees scale, floors hold.
        tree.set_total_budget(12);
        let t = tree.plan(&busy);
        assert_eq!(t.iter().sum::<u64>(), 12);
        assert!(t.iter().all(|&x| x >= 2), "shard floors hold: {t:?}");
    }

    #[test]
    fn throttle_caps_one_tenant_and_frees_its_pages() {
        let mut tree = two_tenants(64);
        let snap = [stats(9, 90), stats(9, 90), stats(1, 5), stats(1, 5)];
        let before = tree.plan(&snap);
        assert!(before[..2].iter().sum::<u64>() > 32);
        tree.throttle(TenantId(0), Some(10));
        let after = tree.plan(&snap);
        assert_eq!(after[..2].iter().sum::<u64>(), 10, "cap binds");
        assert!(
            after[2..].iter().sum::<u64>() >= before[2..].iter().sum::<u64>(),
            "the sibling inherits the freed pages"
        );
        // Lifting the throttle restores demand-proportional ballooning.
        tree.throttle(TenantId(0), None);
        assert_eq!(tree.plan(&snap), before);
        // A cap below the shard floors clamps up: writers never deadlock.
        tree.throttle(TenantId(0), Some(1));
        assert_eq!(tree.throttle_of(TenantId(0)), Some(4));
    }

    #[test]
    fn shard_routing_metadata_is_consistent() {
        let tree = two_tenants(64);
        assert_eq!(tree.members(), 4);
        assert_eq!(tree.tenant_count(), 2);
        assert_eq!(tree.tenant_of_shard(0), TenantId(0));
        assert_eq!(tree.tenant_of_shard(3), TenantId(1));
        assert_eq!(tree.tenant_shards(TenantId(1)), 2..4);
        assert_eq!(tree.tenant_name(TenantId(0)), "alpha");
        assert_eq!(tree.tenant_qos(TenantId(1)).guaranteed_pages, 8);
    }

    #[test]
    #[should_panic(expected = "guarantee is below its shard floors")]
    fn guarantees_below_shard_floors_panic() {
        BudgetTree::with_tenants(vec![("t".into(), 4, TenantQos::guaranteed(3))], 64, 2);
    }
}
