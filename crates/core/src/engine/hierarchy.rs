//! The hierarchical budget tree: machine → tenant → shard.
//!
//! One server, many tenants, one battery (ROADMAP open item 3; the
//! paper's §5.1 budget derivation promoted to a cloud-operator scenario).
//! [`BudgetTree`] is the pure redistribution policy: it sees only each
//! shard's [`ViyojitStats`], and leaves the *application* of the new
//! budgets (and the shrink-before-grow ordering that keeps the
//! instantaneous sum under the battery) to its one caller, the
//! coordinator's round, which hands them to the shard drivers as grants.
//! It divides on two levels:
//!
//! - the **machine** level divides the battery's provisioned dirty budget
//!   among tenants, honouring each tenant's [`TenantQos`] — a
//!   `guaranteed` allocation plus a `burst` allowance above it. Burst
//!   pages are granted demand-proportionally from whatever the
//!   guarantees leave over; under pressure (the total no longer covers
//!   the guarantees) the burst pool collapses *first* and the guarantees
//!   themselves then scale proportionally, never below the per-shard
//!   floors — the weighted-reclaim rule;
//! - the **shard** level divides each tenant's allocation among its
//!   shards in proportion to the demand observed since the last
//!   rebalance (write stalls and dirty-page churn), with a per-shard
//!   floor.
//!
//! Both levels run the same largest-remainder division, and a tenant's
//! demand is the *sum* of its shards' demand scores — so a tree with one
//! tenant owning every shard ([`BudgetTree::single`]) is a flat
//! demand-proportional division of the whole total, and so is a tree of
//! single-shard tenants whose guarantee is their floor and whose burst is
//! unbounded: §6.3's ballooning between co-located tenants.
//!
//! Degraded-mode policy composes per tenant: a [`throttle`]
//! (typically set by a per-tenant
//! [`DegradationGovernor`](super::DegradationGovernor)) caps the
//! tenant's allocation — burst first, then guarantee — while sibling
//! tenants keep their QoS.
//!
//! [`throttle`]: BudgetTree::throttle

use crate::{InvariantViolation, ViyojitStats};

/// Largest-remainder division of `distributable` pages in proportion to
/// `demands`: floor shares first, then the remainder awarded one page at a
/// time cycling over members from highest demand down (stable order for
/// ties). Conserves the total exactly.
///
/// This is *the* division every level of the budget hierarchy uses — the
/// tenant level, the shard level and the weighted-reclaim path.
///
/// # Panics
///
/// Panics if `demands` is empty or sums to zero while `distributable` is
/// nonzero (callers guarantee every demand is at least 1).
fn divide_proportionally(distributable: u64, demands: &[u64]) -> Vec<u64> {
    let n = demands.len();
    let total_demand: u64 = demands.iter().sum();
    let mut shares: Vec<u64> = demands
        .iter()
        .map(|&d| distributable * d / total_demand)
        .collect();
    let mut leftover = distributable - shares.iter().sum::<u64>();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(demands[i]));
    for &i in order.iter().cycle().take(leftover as usize) {
        shares[i] += 1;
        leftover -= 1;
        if leftover == 0 {
            break;
        }
    }
    shares
}

/// [`divide_proportionally`] with a per-member ceiling: members whose
/// proportional share overflows their cap are pinned to it and the excess
/// is re-divided among the uncapped members, iterating until no cap binds.
/// When every member is capped, the residue stays unallocated (the caller
/// keeps it — budgets may undershoot the total, never overshoot).
///
/// When no cap binds this is exactly one pass of [`divide_proportionally`].
fn divide_with_caps(distributable: u64, demands: &[u64], caps: &[u64]) -> Vec<u64> {
    debug_assert_eq!(demands.len(), caps.len());
    let n = demands.len();
    let mut out = vec![0u64; n];
    let mut active: Vec<usize> = (0..n).collect();
    let mut remaining = distributable;
    while remaining > 0 && !active.is_empty() {
        let local: Vec<u64> = active.iter().map(|&i| demands[i]).collect();
        let shares = divide_proportionally(remaining, &local);
        let mut next_active = Vec::with_capacity(active.len());
        let mut any_capped = false;
        for (&i, &share) in active.iter().zip(&shares) {
            let room = caps[i] - out[i];
            if share >= room {
                out[i] = caps[i];
                remaining -= room;
                any_capped = true;
            } else {
                next_active.push(i);
            }
        }
        if !any_capped {
            for (&i, &share) in active.iter().zip(&shares) {
                out[i] += share;
            }
            break;
        }
        active = next_active;
    }
    out
}

/// The counters one shard's demand is measured from, as of the last
/// committed rebalance.
#[derive(Debug, Clone, Copy, Default)]
struct DemandSnapshot {
    budget_stalls: u64,
    pages_dirtied: u64,
}

/// Identifies a tenant within a budget hierarchy, in declaration order.
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
    /// Per-shard demand baselines: stalls incurred *while shrinking*
    /// count toward the shard's demand at the next rebalance, not this one.
    last_seen: Vec<DemandSnapshot>,
}

impl TenantNode {
    fn shards(&self) -> usize {
        self.last_seen.len()
    }

    /// The contiguous shard range the tenant owns.
    fn range(&self) -> std::ops::Range<usize> {
        self.first_shard..self.first_shard + self.shards()
    }

    /// Demand score per shard against the committed baseline: stalls hurt
    /// most (a writer blocked on the SSD), dirty-page churn indicates an
    /// active write working set. `stats` is the tenant's own slice.
    fn demands(&self, stats: &[ViyojitStats]) -> Vec<u64> {
        self.last_seen
            .iter()
            .zip(stats)
            .map(|(prev, s)| {
                // Saturating: a quarantined shard's synthesized report (all
                // zeros) can sit below the committed baseline; that is zero
                // new demand, not an underflow.
                let stalls = s.budget_stalls.saturating_sub(prev.budget_stalls);
                let dirtied = s.pages_dirtied.saturating_sub(prev.pages_dirtied);
                10 * stalls + dirtied + 1 // +1 keeps idle shards from starving the score
            })
            .collect()
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
/// A rebalance is a `plan` / apply / `commit` cycle:
///
/// 1. [`BudgetTree::plan`] computes one target per *shard* from current
///    stats, with tenant QoS enforced in between;
/// 2. the coordinator applies them shrink-first, then grow (so the
///    assigned sum never exceeds the provisioned total at any instant —
///    shrinking shards may stall flushing down, which is the point);
/// 3. [`BudgetTree::commit`] records the post-apply stats as the new
///    demand baseline.
#[derive(Debug)]
pub(super) struct BudgetTree {
    total_budget_pages: u64,
    min_per_shard: u64,
    nodes: Vec<TenantNode>,
    /// Shard index → tenant index (shards are contiguous per tenant).
    shard_tenant: Vec<usize>,
    rebalances: u64,
}

impl BudgetTree {
    /// The degenerate hierarchy: one tenant owning all `shards`, with its
    /// guarantee at the shard floors and unbounded burst — a flat
    /// demand-proportional division of `total_budget_pages`.
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
            shard_tenant.extend(std::iter::repeat_n(t, shards));
            nodes.push(TenantNode {
                name,
                first_shard,
                qos,
                throttle: None,
                last_seen: vec![DemandSnapshot::default(); shards],
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
        self.nodes[t.0].range()
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
    /// machine total, then a largest-remainder division of each tenant's
    /// allocation above its shard floors, remainders awarded to the
    /// highest-demand shards first.
    ///
    /// # Panics
    ///
    /// Panics if `stats` does not have one entry per shard.
    pub fn plan(&self, stats: &[ViyojitStats]) -> Vec<u64> {
        assert_eq!(stats.len(), self.members(), "one stats snapshot per shard");
        let min = self.min_per_shard;
        let shard_demands: Vec<Vec<u64>> = self
            .nodes
            .iter()
            .map(|n| n.demands(&stats[n.range()]))
            .collect();
        let tenant_demands: Vec<u64> = shard_demands.iter().map(|d| d.iter().sum()).collect();
        let allocs = self.tenant_allocations(&tenant_demands);
        let mut targets = Vec::with_capacity(self.members());
        for ((node, demands), &alloc) in self.nodes.iter().zip(&shard_demands).zip(&allocs) {
            // `tenant_allocations` never grants below the shard floors.
            let shares = divide_proportionally(alloc - node.base(min), demands);
            targets.extend(shares.iter().map(|s| s + min));
        }
        targets
    }

    /// The initial per-shard division before any demand is observed:
    /// tenant allocations under uniform demand, spread evenly inside each
    /// tenant (raised to the floor). (The even shares may sum above the
    /// total when the floor dominates; construction asserts the floors
    /// themselves fit.)
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
            let range = node.range();
            for (seen, s) in node.last_seen.iter_mut().zip(&stats[range]) {
                *seen = DemandSnapshot {
                    budget_stalls: s.budget_stalls,
                    pages_dirtied: s.pages_dirtied,
                };
            }
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
    fn plan_conserves_the_total() {
        let tree = BudgetTree::single(3, 100, 5);
        let targets = tree.plan(&[stats(0, 7), stats(3, 50), stats(0, 0)]);
        assert_eq!(targets.iter().sum::<u64>(), 100);
        assert!(targets.iter().all(|&t| t >= 5));
    }

    #[test]
    fn demand_is_proportional_and_deltas_reset_on_commit() {
        let mut tree = BudgetTree::single(2, 64, 4);
        let busy = [stats(10, 200), stats(0, 0)];
        let t1 = tree.plan(&busy);
        assert!(t1[0] > t1[1], "the stalling shard gets the larger share");
        tree.commit(&busy);
        // Demand is measured since the last commit: with no new activity
        // the shards are equally (un)deserving.
        let t2 = tree.plan(&busy);
        assert_eq!(t2[0], t2[1]);
        assert_eq!(tree.rebalances(), 1);
    }

    #[test]
    fn remainders_go_to_the_highest_demand_shards() {
        let tree = BudgetTree::single(3, 10, 1);
        // distributable = 7 over demands 2:2:3 leaves no leftover; 1:1:2
        // is uneven enough to force remainders.
        let targets = tree.plan(&[stats(0, 1), stats(0, 1), stats(0, 2)]);
        assert_eq!(targets.iter().sum::<u64>(), 10);
        assert!(targets[2] >= targets[0]);
    }

    #[test]
    #[should_panic(expected = "floors exceed")]
    fn overcommitted_floors_panic() {
        BudgetTree::single(4, 10, 3);
    }

    #[test]
    #[should_panic(expected = "floors exceed")]
    fn zero_total_budget_is_rejected() {
        // A zero total cannot cover even one shard's floor.
        BudgetTree::single(1, 0, 1);
    }

    #[test]
    fn overcommit_check_reports_the_violation() {
        let tree = BudgetTree::single(2, 10, 1);
        assert!(tree.check_assignment(10).is_ok());
        assert_eq!(
            tree.check_assignment(11),
            Err(InvariantViolation::OverCommit {
                assigned: 11,
                provisioned: 10,
            })
        );
    }

    #[test]
    fn single_shard_always_receives_the_whole_total() {
        let mut tree = BudgetTree::single(1, 37, 1);
        // Idle, busy, or stalling: one shard is the only destination.
        assert_eq!(tree.plan(&[stats(0, 0)]), vec![37]);
        assert_eq!(tree.plan(&[stats(9, 400)]), vec![37]);
        tree.commit(&[stats(9, 400)]);
        assert_eq!(tree.plan(&[stats(9, 400)]), vec![37]);
        assert_eq!(tree.initial_shares(), vec![37]);
    }

    #[test]
    fn initial_shares_are_even_and_raised_to_the_floor() {
        assert_eq!(BudgetTree::single(3, 100, 5).initial_shares(), vec![33; 3]);
        assert_eq!(BudgetTree::single(3, 16, 5).initial_shares(), vec![5; 3]);
    }

    #[test]
    fn shrink_below_assigned_mid_run_replans_under_the_new_total() {
        let mut tree = BudgetTree::single(2, 64, 4);
        let busy = [stats(5, 100), stats(0, 0)];
        let t1 = tree.plan(&busy);
        assert_eq!(t1.iter().sum::<u64>(), 64);
        tree.commit(&busy);
        // The operator shrinks the total below what is currently assigned;
        // the next plan must fit the new total and the old assignment must
        // now register as an overcommit until the caller applies it.
        tree.set_total_budget(16);
        assert_eq!(
            tree.check_assignment(t1.iter().sum()),
            Err(InvariantViolation::OverCommit {
                assigned: 64,
                provisioned: 16,
            })
        );
        let t2 = tree.plan(&busy);
        assert_eq!(t2.iter().sum::<u64>(), 16);
        assert!(t2.iter().all(|&t| t >= 4));
        assert!(tree.check_assignment(t2.iter().sum()).is_ok());
    }

    #[test]
    fn floor_rejection_keeps_the_previous_total() {
        let mut tree = BudgetTree::single(4, 64, 4);
        // 4 shards x 4 floor = 16 > 15: the re-provisioning must panic
        // (callers route this through a validating error path) without
        // having touched the total.
        let reject =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tree.set_total_budget(15)));
        assert!(reject.is_err(), "15 pages cannot cover 4 floors of 4");
        assert_eq!(
            tree.total_budget_pages(),
            64,
            "a rejected re-provisioning must not change the total"
        );
        assert_eq!(tree.rebalances(), 0, "rejection is not a rebalance");
        // The tree still plans consistently under the old total.
        let t = tree.plan(&[ViyojitStats::default(); 4]);
        assert_eq!(t.iter().sum::<u64>(), 64);
    }

    #[test]
    fn capped_division_matches_uncapped_when_no_cap_binds() {
        let demands = [3u64, 7, 1, 9];
        assert_eq!(
            divide_with_caps(100, &demands, &[u64::MAX; 4]),
            divide_proportionally(100, &demands)
        );
    }

    #[test]
    fn capped_division_pins_overflow_and_redistributes() {
        // Member 1 demands most but is capped at 5; its excess flows to
        // the others. Totals conserve exactly while caps hold.
        let out = divide_with_caps(30, &[1, 100, 1], &[u64::MAX, 5, u64::MAX]);
        assert_eq!(out[1], 5);
        assert_eq!(out.iter().sum::<u64>(), 30);
        // Everyone capped: the residue stays unallocated, never oversubscribed.
        let tight = divide_with_caps(30, &[1, 1], &[4, 4]);
        assert_eq!(tight, vec![4, 4]);
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
