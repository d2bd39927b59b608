//! The coordinator: the one control plane of a sharded deployment.
//!
//! A [`Coordinator`] owns what is global to a deployment — the
//! [`BudgetTree`], the rebalance timeline, the per-tenant loss ledger and
//! the metric names — and implements the rebalance round, metric
//! publication, the degradation governors and the invariant audit once.
//! Everything it needs from the shard engines it asks of a [`Transport`]:
//! the sequential frontend's transport calls its one
//! [`ShardDriver`](super::driver::ShardDriver) inline, the parallel
//! runtime's exchanges messages with one driver per worker thread. The
//! [`Router`] is the other half both modes share: the handle → shard
//! table behind `map`/`unmap` and every routed access.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use battery_sim::{Battery, PowerModel};
use fault_sim::Crashpoint;
use sim_clock::{SimDuration, SimTime};
use ssd_sim::SsdStats;
use telemetry::{
    intern_metric_name, ExporterHandle, FlightRecorder, Telemetry, TenantMetricNames, TraceEvent,
};

use crate::{InvariantViolation, PowerFailureReport, RegionId, ViyojitError, ViyojitStats};

use super::builder::ShardedViyojitBuilder;
use super::driver::{BudgetGrant, Phase, Route, ShardStats};
use super::plane::ShardControlPlane;
use super::{BudgetTree, DegradationGovernor, DegradedMode, DirtyTracker, TenantId, TenantStats};

/// Wall-plane histograms (`Telemetry::record_wall`): host time of one
/// data-plane `step` and of one budget round.
const WALL_STEP_NANOS: &str = "viyojit.wall.step_nanos";
const WALL_BUDGET_ROUND_NANOS: &str = "viyojit.wall.budget_round_nanos";

/// A driver that did not answer a request (threaded transport only: the
/// inline driver cannot be lost, a panic there unwinds to the caller).
#[derive(Debug, Clone, Copy)]
pub(super) enum Lost {
    /// The driver's worker panicked — answering the request in flight, or
    /// earlier and for good.
    Down { driver: usize },
    /// The driver's worker stayed silent past
    /// [`ROUND_TIMEOUT`](super::ROUND_TIMEOUT): alive but wedged.
    Silent { driver: usize },
}

/// How the coordinator reaches the shard drivers. Per-shard answers come
/// back indexed by global shard.
///
/// The calls a round makes take `down`, the drivers that dropped out of
/// the round in flight: a supervised worker that panics mid-round is
/// added to it and, for the rest of that round only, skipped — its
/// shards report [`quarantine_stats`], exactly what its respawning worker
/// pins. The inline transport never touches `down`.
pub(super) trait Transport {
    /// "Now" on the rebalance timeline.
    fn now(&self) -> SimTime;

    /// Advances every driver's clock by `d`.
    fn advance(&mut self, d: SimDuration) -> Result<(), Lost>;

    /// A crash seam on the coordinator's side of a round. Only the inline
    /// transport has any; the threaded transport's seam sits on the
    /// worker, between its stats reply and its first grant.
    fn seam(&self, _point: Crashpoint) {}

    /// One demand report per shard. Outside a round (`down` is `None`) a
    /// driver lost for any reason is an error.
    fn stats(&self, down: Option<&mut Vec<bool>>) -> Result<Vec<ShardStats>, Lost>;

    /// Every shard's SSD counters.
    fn ssd_stats(&self) -> Result<Vec<SsdStats>, Lost>;

    /// Applies one phase's grants, returning once every driver has.
    fn apply(
        &mut self,
        phase: Phase,
        grants: &[BudgetGrant],
        down: &mut Vec<bool>,
    ) -> Result<(), Lost>;

    /// Fails power on every shard (racing `supply` when given).
    fn power_failure(
        &mut self,
        supply: Option<(&Battery, &PowerModel)>,
    ) -> Result<Vec<PowerFailureReport>, Lost>;

    /// Recovers every shard from its SSD.
    fn recover(&mut self) -> Result<(), Lost>;

    /// Every shard's own invariants, first violation first.
    fn check_engines(&self) -> Result<Result<(), InvariantViolation>, Lost>;
}

/// What a shard of a driver that dropped out of the round reports: floor
/// budget, zero demand — exactly what its respawning worker pins, and
/// what makes the tree's plan reclaim the freed budget for siblings
/// burst-first.
pub(super) fn quarantine_stats(shard: usize, floor: u64) -> ShardStats {
    ShardStats {
        shard,
        stats: ViyojitStats::default(),
        dirty_pages: 0,
        budget_pages: floor,
    }
}

/// What a round does to the tree between collecting demand and planning.
#[derive(Debug, Clone, Copy)]
pub(super) enum RoundKind {
    /// A plain demand-driven rebalance.
    Demand,
    /// Re-provision the machine total first (pre-validated against the
    /// floors).
    SetTotal(u64),
    /// Cap (or un-cap) one tenant first.
    Throttle { tenant: TenantId, cap: Option<u64> },
}

/// The control plane of one sharded deployment, over transport `T`.
#[derive(Debug)]
pub(super) struct Coordinator<T> {
    pub(super) transport: T,
    tree: BudgetTree,
    rebalance_period: SimDuration,
    next_rebalance_at: SimTime,
    /// Pages each tenant lost to emergency flushes, cumulative across
    /// power failures (the per-shard reports are attributed here).
    tenant_pages_lost: Vec<u64>,
    /// Per-shard `(dirty_pages, budget_pages)` gauge names, interned once
    /// (the registry keys on `&'static str`).
    shard_gauges: Vec<(&'static str, &'static str)>,
    tenant_names: Vec<TenantMetricNames>,
    pub(super) telemetry: Telemetry,
    /// Black-box recorder for the control side: dumped on degraded-mode
    /// entry and when a driver goes silent.
    flight: Option<Arc<FlightRecorder>>,
    /// Live metrics exporter; stopped (with a final render) when the
    /// deployment is dropped.
    _exporter: Option<ExporterHandle>,
}

impl<T: Transport> Coordinator<T> {
    /// The coordinator of the deployment `b` describes: `tree` divided
    /// over `transport`'s shards every `b.rebalance_period` of virtual
    /// time.
    pub(super) fn new<B: DirtyTracker>(
        transport: T,
        tree: BudgetTree,
        b: ShardedViyojitBuilder<B>,
    ) -> Self {
        Coordinator {
            next_rebalance_at: transport.now() + b.rebalance_period,
            transport,
            rebalance_period: b.rebalance_period,
            tenant_pages_lost: vec![0; tree.tenant_count()],
            shard_gauges: (0..tree.members())
                .map(|i| {
                    (
                        intern_metric_name(format!("sharded.shard{i}.dirty_pages")),
                        intern_metric_name(format!("sharded.shard{i}.budget_pages")),
                    )
                })
                .collect(),
            tenant_names: (0..tree.tenant_count())
                .map(TenantMetricNames::for_tenant)
                .collect(),
            tree,
            _exporter: b
                .exporter
                .map(|config| telemetry::spawn_exporter(b.telemetry.clone(), config)),
            telemetry: b.telemetry,
            flight: b.flight,
        }
    }

    pub(super) fn tree(&self) -> &BudgetTree {
        &self.tree
    }

    /// Maps a lost driver to the caller's error. Silence is the
    /// supervised seam here: the side that waited traces it, counts it
    /// and leaves a black box.
    fn lost(&self, lost: Lost) -> ViyojitError {
        match lost {
            Lost::Down { driver } => ViyojitError::ShardFailed { shard: driver },
            Lost::Silent { driver } => {
                let last_round = self.tree.rebalances();
                self.telemetry.emit(|| TraceEvent::RoundTimedOut {
                    round: last_round + 1,
                    thread: driver as u64,
                });
                self.telemetry
                    .metrics(|m| m.counter_add("parallel.round_timeouts", 1));
                self.dump_black_box("round_timeout", last_round);
                ViyojitError::RoundTimeout
            }
        }
    }

    /// Dumps the control side's flight-recorder black box. Best-effort:
    /// a supervised seam must never die on a full disk.
    fn dump_black_box(&self, trigger: &str, last_round: u64) {
        if let Some(flight) = &self.flight {
            let _ = flight.dump("control", trigger, last_round, &self.telemetry);
        }
    }

    fn check_tenant(&self, tenant: TenantId) -> Result<(), ViyojitError> {
        if tenant.0 >= self.tree.tenant_count() {
            return Err(ViyojitError::InvalidConfig("tenant id out of range"));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // The timeline and the round
    // ------------------------------------------------------------------

    /// Advances virtual time by `d` and runs a round if that crossed the
    /// period boundary.
    pub(super) fn step(&mut self, d: SimDuration) -> Result<(), ViyojitError> {
        let wall = self.telemetry.wall_start();
        self.transport.advance(d).map_err(|l| self.lost(l))?;
        self.maybe_rebalance()?;
        self.telemetry.record_wall(WALL_STEP_NANOS, wall);
        Ok(())
    }

    /// Runs a round if "now" crossed the boundary, then fast-forwards the
    /// boundary past "now" (one round per gap; the tree sees cumulative
    /// demand either way).
    #[inline]
    pub(super) fn maybe_rebalance(&mut self) -> Result<(), ViyojitError> {
        if self.transport.now() < self.next_rebalance_at {
            return Ok(());
        }
        self.round(RoundKind::Demand)?;
        while self.next_rebalance_at <= self.transport.now() {
            self.next_rebalance_at += self.rebalance_period;
        }
        Ok(())
    }

    /// One rebalance round: collect every shard's demand, let `kind`
    /// touch the tree, plan through the tenant hierarchy, shrink the
    /// losers (stalling them down to their new bound), and only once
    /// every shrink has landed grow the winners — so the instantaneous
    /// sum of assigned budgets never exceeds the battery, even observed
    /// mid-round — then commit the post-apply stats as the next baseline
    /// and publish.
    pub(super) fn round(&mut self, kind: RoundKind) -> Result<(), ViyojitError> {
        let wall = self.telemetry.wall_start();
        let mut down = Vec::new();
        let before = self.round_stats(&mut down)?;
        match kind {
            RoundKind::Demand => {}
            RoundKind::SetTotal(pages) => self.tree.set_total_budget(pages),
            RoundKind::Throttle { tenant, cap } => {
                self.tree.throttle(tenant, cap);
                let throttle = self.tree.throttle_of(tenant);
                let cap_pages = throttle.unwrap_or_else(|| self.tree.tenant_qos(tenant).capacity());
                self.telemetry.emit(|| TraceEvent::TenantThrottled {
                    tenant: tenant.0 as u64,
                    throttled: throttle.is_some(),
                    cap_pages,
                });
            }
        }
        let demand: Vec<ViyojitStats> = before.iter().map(|s| s.stats).collect();
        let targets = self.tree.plan(&demand);
        // Power cut mid-rebalance: targets planned, no engine touched yet.
        self.transport.seam(Crashpoint::Rebalance);
        for phase in [Phase::Shrink, Phase::Grow] {
            let grants: Vec<BudgetGrant> = before
                .iter()
                .zip(&targets)
                .filter(|(s, &target)| phase.moves(s.budget_pages, target))
                .map(|(s, &target)| BudgetGrant {
                    shard: s.shard,
                    budget_pages: target,
                })
                .collect();
            let applied = self.transport.apply(phase, &grants, &mut down);
            applied.map_err(|l| self.lost(l))?;
            if phase == Phase::Shrink {
                // Power cut between the phases: donors already shrunk,
                // receivers not yet grown — the total is under-assigned
                // but never over-assigned.
                self.transport.seam(Crashpoint::BudgetShrinkGrow);
            }
        }
        let after = self.round_stats(&mut down)?;
        let baseline: Vec<ViyojitStats> = after.iter().map(|s| s.stats).collect();
        self.tree.commit(&baseline);
        self.publish(&after);
        self.telemetry.record_wall(WALL_BUDGET_ROUND_NANOS, wall);
        Ok(())
    }

    /// One demand report per shard, quarantine stats for drivers `down`.
    fn round_stats(&self, down: &mut Vec<bool>) -> Result<Vec<ShardStats>, ViyojitError> {
        self.transport.stats(Some(down)).map_err(|l| self.lost(l))
    }

    /// Publishes the per-shard gauges and per-tenant aggregates.
    fn publish(&self, shards: &[ShardStats]) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let rebalances = self.tree.rebalances();
        let tenants = self.tenant_stats_of(shards);
        self.telemetry.metrics(|m| {
            m.counter_set("sharded.rebalances", rebalances);
            for (s, (dirty_name, budget_name)) in shards.iter().zip(&self.shard_gauges) {
                m.gauge_set(dirty_name, s.dirty_pages as f64);
                m.gauge_set(budget_name, s.budget_pages as f64);
            }
            for (t, names) in tenants.iter().zip(&self.tenant_names) {
                m.gauge_set(names.budget_pages, t.budget_pages as f64);
                m.gauge_set(names.dirty_pages, t.dirty_pages as f64);
                m.counter_set(names.stall_nanos, t.stats.stall_time.as_nanos());
                m.counter_set(names.pages_lost, t.pages_lost);
            }
        });
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// One [`ShardStats`] per shard, ascending by shard index — the view
    /// a round starts from.
    pub(super) fn shard_stats(&self) -> Result<Vec<ShardStats>, ViyojitError> {
        self.transport.stats(None).map_err(|l| self.lost(l))
    }

    pub(super) fn stats(&self) -> Result<ViyojitStats, ViyojitError> {
        let mut total = ViyojitStats::default();
        for s in self.shard_stats()? {
            total.accumulate(&s.stats);
        }
        Ok(total)
    }

    pub(super) fn dirty_count(&self) -> Result<u64, ViyojitError> {
        Ok(self.shard_stats()?.iter().map(|s| s.dirty_pages).sum())
    }

    /// SSD counters summed over every shard, or over one tenant's shards.
    pub(super) fn ssd_stats(&self, tenant: Option<TenantId>) -> Result<SsdStats, ViyojitError> {
        let per_shard = self.transport.ssd_stats().map_err(|l| self.lost(l))?;
        let range = tenant.map_or(0..per_shard.len(), |t| self.tree.tenant_shards(t));
        let mut total = SsdStats::default();
        for s in &per_shard[range] {
            total.accumulate(s);
        }
        Ok(total)
    }

    /// Per-tenant accounting over a per-shard view: each tenant's summed
    /// counters, budget and dirty population, its cumulative pages lost
    /// to power failures, and whether a throttle is active.
    fn tenant_stats_of(&self, shards: &[ShardStats]) -> Vec<TenantStats> {
        (0..self.tree.tenant_count())
            .map(|t| {
                let tenant = TenantId(t);
                let mut out = TenantStats {
                    tenant,
                    name: self.tree.tenant_name(tenant).to_string(),
                    budget_pages: 0,
                    dirty_pages: 0,
                    stats: ViyojitStats::default(),
                    pages_lost: self.tenant_pages_lost[t],
                    throttled: self.tree.throttle_of(tenant).is_some(),
                };
                for s in &shards[self.tree.tenant_shards(tenant)] {
                    out.budget_pages += s.budget_pages;
                    out.dirty_pages += s.dirty_pages;
                    out.stats.accumulate(&s.stats);
                }
                out
            })
            .collect()
    }

    pub(super) fn tenant_stats(&self) -> Result<Vec<TenantStats>, ViyojitError> {
        Ok(self.tenant_stats_of(&self.shard_stats()?))
    }

    /// The cluster-wide audit: assigned budgets fit the battery, the
    /// global dirty population fits the battery, and every shard's own
    /// invariants hold.
    pub(super) fn check_invariants(&self) -> Result<(), ViyojitError> {
        let shards = self.shard_stats()?;
        self.tree
            .check_assignment(shards.iter().map(|s| s.budget_pages).sum())?;
        let dirty = shards.iter().map(|s| s.dirty_pages).sum();
        let budget = self.tree.total_budget_pages();
        if dirty > budget {
            return Err(InvariantViolation::BudgetExceeded { dirty, budget }.into());
        }
        Ok(self.transport.check_engines().map_err(|l| self.lost(l))??)
    }

    // ------------------------------------------------------------------
    // Budget control and failure
    // ------------------------------------------------------------------

    /// Re-provisions the global budget (a §8 re-derivation or a
    /// degradation transition): an immediate round under the new total
    /// shrinks losers before growing winners, so the cluster-wide dirty
    /// population fits the new budget on return.
    pub(super) fn set_total_budget(&mut self, pages: u64) -> Result<(), ViyojitError> {
        if self.tree.min_per_shard() * self.tree.members() as u64 > pages {
            return Err(ViyojitError::InvalidConfig(
                "per-shard floors exceed the re-provisioned budget",
            ));
        }
        self.round(RoundKind::SetTotal(pages))
    }

    /// Caps one tenant's allocation at `cap` pages (clamped up to its
    /// shard floors), or lifts the cap with `None`, in an immediate round
    /// — the freed pages flow to sibling tenants' burst pools.
    pub(super) fn throttle_tenant(
        &mut self,
        tenant: TenantId,
        cap: Option<u64>,
    ) -> Result<(), ViyojitError> {
        self.check_tenant(tenant)?;
        self.round(RoundKind::Throttle { tenant, cap })
    }

    /// Feeds the cluster-wide governor the reported battery health plus
    /// the summed shard SSD error counters and, on a mode transition,
    /// applies the prescribed budget. Entering degraded mode leaves a
    /// black box first — the state that tripped the governor, stamped
    /// with the last completed round, before the shrink rewrites it.
    pub(super) fn govern_degradation(
        &mut self,
        governor: &mut DegradationGovernor,
        reported_health: f64,
    ) -> Result<Option<u64>, ViyojitError> {
        let ssd = self.ssd_stats(None)?;
        let Some(budget) = governor.observe(reported_health, &ssd) else {
            return Ok(None);
        };
        let degraded = matches!(governor.mode(), DegradedMode::Degraded(_));
        self.telemetry.emit(|| TraceEvent::DegradedModeChanged {
            degraded,
            budget_pages: budget,
        });
        if degraded {
            self.dump_black_box("degraded_mode", self.tree.rebalances());
        }
        self.set_total_budget(budget)?;
        Ok(Some(budget))
    }

    /// Feeds a *per-tenant* governor that tenant's signals (reported
    /// battery health plus its shards' SSD error counters) and, on a mode
    /// transition, squeezes only that tenant: entering degraded mode caps
    /// it at the governor's prescribed budget, recovery lifts the cap,
    /// and sibling tenants keep their QoS.
    pub(super) fn govern_tenant_degradation(
        &mut self,
        tenant: TenantId,
        governor: &mut DegradationGovernor,
        reported_health: f64,
    ) -> Result<Option<u64>, ViyojitError> {
        self.check_tenant(tenant)?;
        let ssd = self.ssd_stats(Some(tenant))?;
        let Some(budget) = governor.observe(reported_health, &ssd) else {
            return Ok(None);
        };
        let throttled = matches!(governor.mode(), DegradedMode::Degraded(_));
        self.throttle_tenant(tenant, throttled.then_some(budget))?;
        Ok(Some(budget))
    }

    /// A global power failure: every shard flushes its counted dirty
    /// pages to its own SSD in parallel, so the battery obligation is the
    /// page *sum* but the drain *time* is the slowest shard's.
    pub(super) fn power_failure(
        &mut self,
        supply: Option<(&Battery, &PowerModel)>,
    ) -> Result<PowerFailureReport, ViyojitError> {
        let reports = self.transport.power_failure(supply);
        let reports = reports.map_err(|l| self.lost(l))?;
        let mut total = reports[0];
        for (shard, report) in reports.iter().enumerate() {
            self.tenant_pages_lost[self.tree.tenant_of_shard(shard).0] += report.pages_lost;
            if shard > 0 {
                total.merge(report);
            }
        }
        // The loss ledger is published here as well as at every round, so
        // a power failure before the first round still leaves the
        // per-tenant counters in the registry.
        self.telemetry.metrics(|m| {
            for (names, &lost) in self.tenant_names.iter().zip(&self.tenant_pages_lost) {
                m.counter_set(names.pages_lost, lost);
            }
        });
        Ok(total)
    }

    /// Recovers every shard from its SSD after a power cycle and restarts
    /// the rebalance period from "now".
    pub(super) fn recover(&mut self) -> Result<(), ViyojitError> {
        self.transport.recover().map_err(|l| self.lost(l))?;
        self.next_rebalance_at = self.transport.now() + self.rebalance_period;
        Ok(())
    }
}

/// A deployment handle that can lend out its coordinator: directly
/// (sequential) or by locking it (parallel). Every such handle gets the
/// control plane from the one implementation below.
pub(super) trait Coordinated {
    type Transport: Transport;

    fn coordinator(&self) -> impl Deref<Target = Coordinator<Self::Transport>>;

    fn coordinator_mut(&mut self) -> impl DerefMut<Target = Coordinator<Self::Transport>>;
}

impl<C: Coordinated> ShardControlPlane for C {
    fn rebalance(&mut self) -> Result<(), ViyojitError> {
        self.coordinator_mut().round(RoundKind::Demand)
    }

    fn set_total_budget(&mut self, pages: u64) -> Result<(), ViyojitError> {
        self.coordinator_mut().set_total_budget(pages)
    }

    fn govern_degradation(
        &mut self,
        governor: &mut DegradationGovernor,
        reported_health: f64,
    ) -> Result<Option<u64>, ViyojitError> {
        self.coordinator_mut()
            .govern_degradation(governor, reported_health)
    }

    fn power_failure(&mut self) -> Result<PowerFailureReport, ViyojitError> {
        self.coordinator_mut().power_failure(None)
    }

    fn power_failure_powered(
        &mut self,
        battery: &Battery,
        power: &PowerModel,
    ) -> Result<PowerFailureReport, ViyojitError> {
        self.coordinator_mut().power_failure(Some((battery, power)))
    }

    fn recover(&mut self) -> Result<(), ViyojitError> {
        self.coordinator_mut().recover()
    }

    fn stats(&mut self) -> Result<ViyojitStats, ViyojitError> {
        self.coordinator().stats()
    }

    fn dirty_count(&mut self) -> Result<u64, ViyojitError> {
        self.coordinator().dirty_count()
    }

    fn total_budget_pages(&self) -> u64 {
        self.coordinator().tree.total_budget_pages()
    }

    fn rebalances(&mut self) -> Result<u64, ViyojitError> {
        Ok(self.coordinator().tree.rebalances())
    }

    fn check_invariants(&mut self) -> Result<(), ViyojitError> {
        self.coordinator().check_invariants()
    }

    fn tenant_stats(&mut self) -> Result<Vec<TenantStats>, ViyojitError> {
        self.coordinator().tenant_stats()
    }

    fn throttle_tenant(&mut self, tenant: TenantId, cap: Option<u64>) -> Result<(), ViyojitError> {
        self.coordinator_mut().throttle_tenant(tenant, cap)
    }

    fn govern_tenant_degradation(
        &mut self,
        tenant: TenantId,
        governor: &mut DegradationGovernor,
        reported_health: f64,
    ) -> Result<Option<u64>, ViyojitError> {
        self.coordinator_mut()
            .govern_tenant_degradation(tenant, governor, reported_health)
    }
}

// ----------------------------------------------------------------------
// Routing
// ----------------------------------------------------------------------

/// The global region handle → shard table of a deployment.
#[derive(Debug)]
pub(super) struct Router {
    shards: usize,
    /// Indexed by global handle; freed slots are `None` and reused.
    routes: Vec<Option<Route>>,
}

impl Router {
    pub(super) fn new(shards: usize) -> Self {
        Router {
            shards,
            routes: Vec::new(),
        }
    }

    pub(super) fn shards(&self) -> usize {
        self.shards
    }

    pub(super) fn route(&self, region: RegionId) -> Result<Route, ViyojitError> {
        self.routes
            .get(region.0 as usize)
            .and_then(|r| *r)
            .ok_or(ViyojitError::BadRegion(region))
    }

    /// The shard a global region handle routes to, if mapped.
    pub(super) fn shard_of(&self, region: RegionId) -> Option<usize> {
        self.route(region).ok().map(|r| r.shard)
    }

    /// Preferred shard for the mapping in `slot` (Fibonacci hashing keeps
    /// consecutive handles well spread).
    fn preferred_shard(&self, slot: usize) -> usize {
        let hash = (slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        (hash % self.shards as u64) as usize
    }

    /// Maps a region on the preferred (hashed) shard of the first free
    /// slot, probing the other shards in order while `map_on` reports a
    /// shard's space exhausted; any other error ends the probe.
    pub(super) fn map(
        &mut self,
        len_bytes: u64,
        mut map_on: impl FnMut(usize) -> Result<RegionId, ViyojitError>,
    ) -> Result<RegionId, ViyojitError> {
        let slot = self
            .routes
            .iter()
            .position(|r| r.is_none())
            .unwrap_or(self.routes.len());
        let preferred = self.preferred_shard(slot);
        let mut full = None;
        for probe in 0..self.shards {
            let shard = (preferred + probe) % self.shards;
            match map_on(shard) {
                Ok(local) => {
                    let route = Some(Route {
                        shard,
                        local,
                        len_bytes,
                    });
                    if slot == self.routes.len() {
                        self.routes.push(route);
                    } else {
                        self.routes[slot] = route;
                    }
                    return Ok(RegionId(slot as u32));
                }
                Err(e @ ViyojitError::OutOfSpace { .. }) => full = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(full.expect("at least one shard was probed"))
    }

    /// Frees `region`'s slot for reuse.
    pub(super) fn unmap(&mut self, region: RegionId) {
        self.routes[region.0 as usize] = None;
    }
}
