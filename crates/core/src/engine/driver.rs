//! The shard driver: a set of shard engines and everything one can ask
//! of them.
//!
//! Both execution modes of the sharded frontend run on this type. The
//! sequential [`ShardedViyojit`](super::ShardedViyojit) holds one driver
//! owning every shard and calls it inline; the parallel runtime gives
//! each worker thread a driver over that thread's shards and reaches it
//! through a command loop. Either way the engines are built and wired by
//! [`ShardDriver::build`] and answer the same calls — routed heap
//! accesses on the data plane; stats, budget grants, power failure,
//! recovery and audits on the control plane — so what differs between
//! the modes is only how a call travels.

use battery_sim::{Battery, PowerModel};
use fault_sim::CrashSchedule;
use sim_clock::Clock;
use ssd_sim::SsdStats;
use telemetry::{intern_metric_name, Profiler, Telemetry};

use crate::{InvariantViolation, NvHeap, PowerFailureReport, RegionId, ViyojitError, ViyojitStats};

use super::builder::ShardedViyojitBuilder;
use super::{BudgetTree, DirtyTracker, Engine};

/// One shard's demand report: what its driver answers at the start of
/// every rebalance round (and again, post-apply, as the commit baseline).
#[derive(Debug, Clone, Copy)]
pub struct ShardStats {
    /// Global shard index.
    pub shard: usize,
    /// The shard engine's runtime counters.
    pub stats: ViyojitStats,
    /// Pages the shard currently counts dirty.
    pub dirty_pages: u64,
    /// The shard's currently assigned budget.
    pub budget_pages: u64,
}

/// A budget assignment for one shard, handed to the shard's driver during
/// a round (shrink phase first, then grow).
#[derive(Debug, Clone, Copy)]
pub(super) struct BudgetGrant {
    /// Global shard index.
    pub(super) shard: usize,
    /// The new budget the shard must adopt.
    pub(super) budget_pages: u64,
}

/// Where a global region handle lives.
#[derive(Debug, Clone, Copy)]
pub(super) struct Route {
    pub(super) shard: usize,
    /// The region's id inside its shard's engine.
    pub(super) local: RegionId,
    pub(super) len_bytes: u64,
}

impl Route {
    /// The bounds rule of `RegionTable::resolve`, evaluated against the
    /// route so a staged write never defers a validation error; the error
    /// names the shard-local region, as the engine's own does.
    pub(super) fn check(&self, offset: u64, len: usize) -> Result<(), ViyojitError> {
        if offset
            .checked_add(len as u64)
            .is_none_or(|end| end > self.len_bytes)
        {
            return Err(ViyojitError::OutOfRange {
                region: self.local,
                offset,
                len,
            });
        }
        Ok(())
    }
}

/// The two grant phases of a round. Every shrink lands (stalling its
/// shard down to the new bound) before any grow is issued, so the
/// instantaneous sum of assigned budgets never exceeds the battery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Phase {
    Shrink,
    Grow,
}

impl Phase {
    /// Whether moving a shard from `current` to `target` belongs to this
    /// phase.
    pub(super) fn moves(self, current: u64, target: u64) -> bool {
        match self {
            Phase::Shrink => target < current,
            Phase::Grow => target > current,
        }
    }
}

/// A set of shard engines sharing one clock, answering data-plane and
/// control-plane calls by global shard index.
#[derive(Debug)]
pub(super) struct ShardDriver<B: DirtyTracker> {
    /// `(global shard index, engine)`, ascending by shard index.
    engines: Vec<(usize, Engine<B>)>,
    /// Global shard index → position in `engines`; `usize::MAX` for a
    /// shard another driver owns.
    slot_of_shard: Vec<usize>,
    /// Per-engine profiler frame names (`shard{i}`), so one flamegraph
    /// shows which shard's control loop the virtual time went to — the
    /// engine's own spans nest underneath (`app;shard2;wp_trap;...`).
    frames: Vec<&'static str>,
    profiler: Profiler,
    /// The clock every owned engine runs on.
    clock: Clock,
}

impl<B: DirtyTracker> ShardDriver<B> {
    /// Builds and wires the engines of the `owned` shards of the
    /// deployment `spec` describes, each starting at its tenant's even
    /// initial share of `tree`. This is the one place an engine of a
    /// sharded deployment is constructed: every observer and injector is
    /// attached before the engine is visible to anything else, which is
    /// what lets a worker thread take its driver over at spawn time.
    ///
    /// All shards publish the standard `viyojit.*` metrics into the one
    /// registry; since counters only move up under `counter_set`, those
    /// read as the *maximum* across shards. The per-shard truth lives in
    /// the `sharded.shardN.*` gauges the coordinator publishes.
    pub(super) fn build(
        spec: &ShardedViyojitBuilder<B>,
        tree: &BudgetTree,
        owned: impl Iterator<Item = usize>,
        clock: Clock,
        telemetry: &Telemetry,
        profiler: Profiler,
    ) -> Self {
        let initial = tree.initial_shares();
        let mut driver = ShardDriver {
            engines: Vec::new(),
            slot_of_shard: vec![usize::MAX; spec.shards],
            frames: Vec::new(),
            profiler,
            clock,
        };
        for shard in owned {
            let mut config = spec.config.clone();
            config.dirty_budget_pages = initial[shard];
            let mut engine = Engine::new(
                spec.pages_per_shard,
                config,
                driver.clock.clone(),
                spec.costs.clone(),
                spec.ssd_config.clone(),
            );
            engine.attach_telemetry(telemetry.clone());
            engine.attach_profiler(driver.profiler.clone());
            // A tenant's own fault plan overrides the global one for its
            // shards. Shards share a plan's RNG stream; shard order is
            // deterministic, so runs stay reproducible from the seed.
            let tenant = spec.tenants.get(tree.tenant_of_shard(shard).0);
            if let Some(plan) = tenant
                .and_then(|t| t.faults.as_ref())
                .or(spec.faults.as_ref())
            {
                engine.attach_faults(plan.clone());
            }
            // Clones share the schedule's fire-at-most-once latch, so one
            // cluster-wide crash fires no matter which shard's seam
            // reaches the armed ordinal first.
            engine.attach_crashes(spec.crashes.clone());
            driver.slot_of_shard[shard] = driver.engines.len();
            driver
                .frames
                .push(intern_metric_name(format!("shard{shard}")));
            driver.engines.push((shard, engine));
        }
        driver
    }

    /// The clock the owned engines run on.
    pub(super) fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The crash schedule the owned engines consult (clones of one).
    pub(super) fn crashes(&self) -> &CrashSchedule {
        self.engines[0].1.crashes()
    }

    /// Shared access to an owned shard's engine.
    pub(super) fn engine(&self, shard: usize) -> &Engine<B> {
        &self.engines[self.slot_of_shard[shard]].1
    }

    /// Every owned engine, ascending by shard index.
    pub(super) fn engines(&self) -> impl Iterator<Item = &Engine<B>> {
        self.engines.iter().map(|(_, e)| e)
    }

    /// Exclusive access to every owned engine (late observer attachment
    /// through [`NvStore`](crate::NvStore)).
    pub(super) fn engines_mut(&mut self) -> impl Iterator<Item = &mut Engine<B>> {
        self.engines.iter_mut().map(|(_, e)| e)
    }

    /// Swaps the profiler the routed accesses are scoped under.
    pub(super) fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    pub(super) fn map(&mut self, shard: usize, len_bytes: u64) -> Result<RegionId, ViyojitError> {
        self.engines[self.slot_of_shard[shard]].1.map(len_bytes)
    }

    pub(super) fn unmap(&mut self, route: Route) -> Result<(), ViyojitError> {
        self.engines[self.slot_of_shard[route.shard]]
            .1
            .unmap(route.local)
    }

    pub(super) fn read(
        &mut self,
        route: Route,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<(), ViyojitError> {
        let slot = self.slot_of_shard[route.shard];
        let _scope = self.profiler.scope(self.frames[slot]);
        self.engines[slot].1.read(route.local, offset, buf)
    }

    pub(super) fn write(
        &mut self,
        route: Route,
        offset: u64,
        data: &[u8],
    ) -> Result<(), ViyojitError> {
        let slot = self.slot_of_shard[route.shard];
        let _scope = self.profiler.scope(self.frames[slot]);
        self.engines[slot].1.write(route.local, offset, data)
    }

    /// One demand report per owned shard, ascending by shard index.
    pub(super) fn shard_stats(&self) -> impl Iterator<Item = ShardStats> + '_ {
        self.engines.iter().map(|(shard, e)| ShardStats {
            shard: *shard,
            stats: e.stats(),
            dirty_pages: e.dirty_count(),
            budget_pages: e.dirty_budget(),
        })
    }

    /// `(global shard index, SSD counters)` per owned shard.
    pub(super) fn ssd_stats(&self) -> impl Iterator<Item = (usize, SsdStats)> + '_ {
        self.engines.iter().map(|(s, e)| (*s, e.ssd_stats()))
    }

    /// Applies one phase's grants to the owned shards they name — the
    /// one place a planned budget reaches a shard engine. A
    /// shrinking engine may stall flushing down to its new bound, so
    /// shrinks run under the shard's profiler frame to attribute that
    /// virtual time; grows never stall and take no frame.
    pub(super) fn apply_grants(&mut self, phase: Phase, grants: &[BudgetGrant]) {
        for g in grants {
            let slot = self.slot_of_shard[g.shard];
            let _scope = (phase == Phase::Shrink).then(|| self.profiler.scope(self.frames[slot]));
            self.engines[slot].1.set_dirty_budget(g.budget_pages);
        }
    }

    /// Simulates a power failure on every owned shard — racing `supply`
    /// when one is given (see [`Engine::power_failure_powered`]) — and
    /// returns each shard's report.
    pub(super) fn power_failure(
        &mut self,
        supply: Option<(&Battery, &PowerModel)>,
    ) -> Vec<(usize, PowerFailureReport)> {
        self.engines
            .iter_mut()
            .map(|(shard, e)| {
                let report = match supply {
                    Some((battery, power)) => e.power_failure_powered(battery, power),
                    None => e.power_failure(),
                };
                (*shard, report)
            })
            .collect()
    }

    /// Recovers every owned shard from its SSD after a power cycle.
    pub(super) fn recover(&mut self) {
        for (_, e) in &mut self.engines {
            e.recover();
        }
    }

    /// Power-cycles every owned shard from whatever intermediate state a
    /// panic's unwind left behind: the real emergency flush, a reload
    /// from durable contents, then the budget pinned to `floor` — free
    /// after recovery (nothing is dirty), and it keeps the cluster-wide
    /// sum of assigned budgets under the battery while the tree hands
    /// this driver's share to siblings. Returns the pages lost.
    pub(super) fn restart_at_floor(&mut self, floor: u64) -> u64 {
        let mut pages_lost = 0;
        for (_, e) in &mut self.engines {
            pages_lost += e.power_failure().pages_lost;
            e.recover();
            e.set_dirty_budget(floor);
        }
        pages_lost
    }

    /// Checks every owned shard's own invariants.
    ///
    /// # Errors
    ///
    /// The first [`InvariantViolation`] found.
    pub(super) fn check_invariants(&self) -> Result<(), InvariantViolation> {
        self.engines
            .iter()
            .try_for_each(|(_, e)| e.check_invariants())
    }
}
