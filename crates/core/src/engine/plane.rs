//! The data-plane / control-plane split of the sharded engine.
//!
//! The redesigned sharding API separates the two roles the old monolithic
//! [`ShardedViyojit`](super::ShardedViyojit) facade mixed together:
//!
//! - the **data plane** ([`ShardDataPlane`]) is the application-visible
//!   heap surface — `map`/`read`/`write` via [`NvHeap`], plus [`step`]
//!   (explicitly advancing virtual time) and [`sync`] (draining any
//!   buffered work) — the path that must run at memory speed;
//! - the **control plane** ([`ShardControlPlane`]) is everything the
//!   operator or the budget governor does — rebalances, budget
//!   re-provisioning, power failures, recovery, invariant audits — the
//!   path that may coordinate across shards.
//!
//! Both the sequential frontend ([`ShardedViyojit`](super::ShardedViyojit))
//! and the thread-parallel runtime
//! ([`ShardDataHandle`](super::ShardDataHandle) /
//! [`ShardControlHandle`](super::ShardControlHandle)) implement these
//! traits, so experiments can swap execution modes without touching
//! workload code. The control plane has a single implementation — the
//! coordinator's — which the sequential frontend reaches directly and
//! the control handle by locking it; the data planes differ by nature
//! (inline calls versus staged batches). See DESIGN.md "Threading model
//! & plane split".
//!
//! [`step`]: ShardDataPlane::step
//! [`sync`]: ShardDataPlane::sync

use battery_sim::{Battery, PowerModel};
use sim_clock::SimDuration;

use crate::{NvHeap, PowerFailureReport, ViyojitError, ViyojitStats};

use super::{DegradationGovernor, TenantId, TenantStats};

/// The application-facing half of a sharded deployment: the [`NvHeap`]
/// surface plus explicit virtual-time advancement.
///
/// Implementations must be driveable by a single caller thread; all
/// determinism contracts (see DESIGN.md) are stated for one driver
/// issuing operations in program order.
pub trait ShardDataPlane: NvHeap {
    /// Advances virtual time by `d` and runs any budget rebalances whose
    /// period boundary was crossed (at most one per call; the boundary
    /// then fast-forwards past "now", mirroring the sequential
    /// frontend's catch-up rule).
    ///
    /// # Errors
    ///
    /// Propagates rebalance failures; the parallel runtime also surfaces
    /// [`ViyojitError::ShardFailed`] when a shard thread has died.
    fn step(&mut self, d: SimDuration) -> Result<(), ViyojitError>;

    /// Drains any buffered data-plane work (the parallel runtime batches
    /// writes per shard) and surfaces any asynchronous error. A no-op on
    /// the sequential frontend.
    ///
    /// Call this before handing off to control-plane queries when exact
    /// cross-plane consistency matters — e.g. before comparing stats
    /// against another run.
    ///
    /// # Errors
    ///
    /// The first error any buffered operation produced.
    fn sync(&mut self) -> Result<(), ViyojitError>;
}

/// The operator-facing half of a sharded deployment: budget control,
/// failure simulation, recovery, and audits.
///
/// Every method takes `&mut self` and returns `Result` — on the parallel
/// runtime each call is a message exchange with shard threads that can
/// fail with [`ViyojitError::ShardFailed`] (a dead worker) or
/// [`ViyojitError::RoundTimeout`] (a wedged one); the sequential
/// frontend never fails except where documented.
pub trait ShardControlPlane {
    /// Forces a demand-driven budget rebalance now.
    ///
    /// # Errors
    ///
    /// [`ViyojitError::ShardFailed`] if a shard thread has died.
    fn rebalance(&mut self) -> Result<(), ViyojitError>;

    /// Re-provisions the global dirty budget and rebalances under the new
    /// total (shrinking before growing, as always).
    ///
    /// # Errors
    ///
    /// [`ViyojitError::InvalidConfig`] if the per-shard floors no longer
    /// fit `pages`; [`ViyojitError::ShardFailed`] if a shard thread died.
    fn set_total_budget(&mut self, pages: u64) -> Result<(), ViyojitError>;

    /// Feeds the degradation governor the cluster-wide signals and, on a
    /// mode transition, applies the prescribed budget. Returns the
    /// applied global budget if a transition happened.
    ///
    /// # Errors
    ///
    /// As for [`ShardControlPlane::set_total_budget`].
    fn govern_degradation(
        &mut self,
        governor: &mut DegradationGovernor,
        reported_health: f64,
    ) -> Result<Option<u64>, ViyojitError>;

    /// Simulates a global power failure: every shard flushes its counted
    /// dirty pages; the report sums pages and keeps the slowest shard's
    /// flush time.
    ///
    /// # Errors
    ///
    /// [`ViyojitError::ShardFailed`] if a shard thread has died.
    fn power_failure(&mut self) -> Result<PowerFailureReport, ViyojitError>;

    /// Simulates a global power failure racing one shared battery; the
    /// aggregate keeps the worst outcome and smallest energy margin.
    ///
    /// # Errors
    ///
    /// [`ViyojitError::ShardFailed`] if a shard thread has died.
    fn power_failure_powered(
        &mut self,
        battery: &Battery,
        power: &PowerModel,
    ) -> Result<PowerFailureReport, ViyojitError>;

    /// Recovers every shard from its SSD after a power cycle.
    ///
    /// # Errors
    ///
    /// [`ViyojitError::ShardFailed`] if a shard thread has died.
    fn recover(&mut self) -> Result<(), ViyojitError>;

    /// Aggregated runtime counters (field-wise sum over shards).
    ///
    /// # Errors
    ///
    /// [`ViyojitError::ShardFailed`] if a shard thread has died.
    fn stats(&mut self) -> Result<ViyojitStats, ViyojitError>;

    /// Pages counted dirty across all shards.
    ///
    /// # Errors
    ///
    /// [`ViyojitError::ShardFailed`] if a shard thread has died.
    fn dirty_count(&mut self) -> Result<u64, ViyojitError>;

    /// The provisioned global budget.
    fn total_budget_pages(&self) -> u64;

    /// Budget rebalances performed so far.
    ///
    /// # Errors
    ///
    /// None today; `Result` for symmetry with the other queries.
    fn rebalances(&mut self) -> Result<u64, ViyojitError>;

    /// Checks the cluster-wide invariants (assigned budgets fit the
    /// battery, global dirty population fits the battery, every shard's
    /// own invariants hold).
    ///
    /// # Errors
    ///
    /// The first violation found (as [`ViyojitError::Invariant`]), or
    /// [`ViyojitError::ShardFailed`] if a shard thread has died.
    fn check_invariants(&mut self) -> Result<(), ViyojitError>;

    /// Per-tenant QoS observables: budget received, dirty population,
    /// summed runtime counters, pages lost to power failures, and whether
    /// a throttle is currently applied. One entry per declared tenant, in
    /// declaration order (a single implicit tenant when none were
    /// declared).
    ///
    /// # Errors
    ///
    /// [`ViyojitError::ShardFailed`] if a shard thread has died.
    fn tenant_stats(&mut self) -> Result<Vec<TenantStats>, ViyojitError>;

    /// Caps one tenant's allocation at `cap` pages (clamped up to its
    /// shard floors) or lifts the cap with `None`, then rebalances.
    ///
    /// # Errors
    ///
    /// [`ViyojitError::InvalidConfig`] if `tenant` is out of range;
    /// [`ViyojitError::ShardFailed`] if a shard thread has died.
    fn throttle_tenant(&mut self, tenant: TenantId, cap: Option<u64>) -> Result<(), ViyojitError>;

    /// Feeds a per-tenant degradation governor that tenant's signals and,
    /// on a mode transition, throttles (or un-throttles) only that
    /// tenant. Returns the prescribed tenant budget if a transition
    /// happened.
    ///
    /// # Errors
    ///
    /// [`ViyojitError::InvalidConfig`] if `tenant` is out of range;
    /// [`ViyojitError::ShardFailed`] if a shard thread has died.
    fn govern_tenant_degradation(
        &mut self,
        tenant: TenantId,
        governor: &mut DegradationGovernor,
        reported_health: f64,
    ) -> Result<Option<u64>, ViyojitError>;
}
