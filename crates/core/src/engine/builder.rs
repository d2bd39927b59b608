//! Construction of sharded deployments: one builder, two execution modes.
//!
//! The builder consumes every attachment *before* anything runs, which
//! is what makes the parallel mode possible at all: shard threads take
//! ownership of their engines at spawn time, so there is no window where
//! a half-attached engine is visible from two threads. Both modes build
//! their engines through the one
//! [`ShardDriver::build`](super::driver::ShardDriver::build).
//!
//! - [`build_sequential`](ShardedViyojitBuilder::build_sequential)
//!   produces the single-threaded [`ShardedViyojit`] frontend: one driver
//!   holding every shard, called inline.
//! - [`build_parallel`](ShardedViyojitBuilder::build_parallel) spawns one
//!   OS thread per (group of) shard(s), each running a driver behind a
//!   command loop, and returns the split [`ShardDataHandle`] /
//!   [`ShardControlHandle`] pair.

use std::marker::PhantomData;
use std::sync::Arc;

use fault_sim::{CrashSchedule, FaultPlan};
use sim_clock::{Clock, CostModel, SimDuration};
use ssd_sim::SsdConfig;
use telemetry::{ExporterConfig, FlightRecorder, Profiler, Telemetry};

use crate::{ViyojitConfig, ViyojitError};

use super::parallel::{spawn_parallel, ShardControlHandle, ShardDataHandle};
use super::{BudgetTree, DirtyTracker, ShardedViyojit, SoftwareWalk, TenantQos};

/// One tenant declared on the builder: a named, contiguous group of
/// shards with its own QoS envelope and (optionally) its own fault plan.
#[derive(Debug, Clone)]
pub(super) struct TenantSpec {
    pub(super) name: String,
    pub(super) shards: usize,
    pub(super) qos: TenantQos,
    pub(super) faults: Option<FaultPlan>,
}

/// Builds a sharded Viyojit deployment (sequential or thread-parallel).
///
/// Required inputs are the constructor arguments; everything else has a
/// documented default. Unlike the deprecated `ShardedViyojit::new`,
/// validation failures surface as
/// [`ViyojitError::InvalidConfig`] instead of panics.
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
/// # Ok::<(), viyojit::ViyojitError>(())
/// ```
///
/// Parallel mode returns split data/control handles instead:
///
/// ```
/// use viyojit::{NvHeap, ShardControlPlane, ShardDataPlane, ShardedViyojitBuilder, ViyojitConfig};
///
/// let (mut data, mut ctrl) = ShardedViyojitBuilder::new(4, 256, ViyojitConfig::with_budget_pages(64))
///     .threads(2)
///     .build_parallel()?;
/// let r = data.map(4096 * 8)?;
/// data.write(r, 0, b"served by a shard thread")?;
/// data.sync()?;
/// assert_eq!(ctrl.dirty_count()?, 1);
/// # Ok::<(), viyojit::ViyojitError>(())
/// ```
#[derive(Debug)]
pub struct ShardedViyojitBuilder<B: DirtyTracker = SoftwareWalk> {
    pub(super) shards: usize,
    pub(super) pages_per_shard: usize,
    pub(super) config: ViyojitConfig,
    pub(super) min_per_shard: u64,
    pub(super) rebalance_period: SimDuration,
    pub(super) clock: Clock,
    pub(super) costs: CostModel,
    pub(super) ssd_config: SsdConfig,
    pub(super) threads: Option<usize>,
    pub(super) telemetry: Telemetry,
    pub(super) profiler: Profiler,
    pub(super) faults: Option<FaultPlan>,
    pub(super) crashes: CrashSchedule,
    pub(super) restart_budget: u32,
    pub(super) tenants: Vec<TenantSpec>,
    pub(super) flight: Option<Arc<FlightRecorder>>,
    pub(super) exporter: Option<ExporterConfig>,
    backend: PhantomData<B>,
}

impl ShardedViyojitBuilder<SoftwareWalk> {
    /// Starts a builder for `shards` engines of `pages_per_shard` pages
    /// each, sharing `config.dirty_budget_pages` as the global budget.
    ///
    /// Defaults: software-walk backend, per-shard floor of 1 page,
    /// 10 ms rebalance period, a fresh clock at zero, free cost model,
    /// instant SSD, no telemetry/profiler/faults, one thread per shard
    /// in parallel mode.
    pub fn new(shards: usize, pages_per_shard: usize, config: ViyojitConfig) -> Self {
        ShardedViyojitBuilder {
            shards,
            pages_per_shard,
            config,
            min_per_shard: 1,
            rebalance_period: SimDuration::from_millis(10),
            clock: Clock::new(),
            costs: CostModel::free(),
            ssd_config: SsdConfig::instant(),
            threads: None,
            telemetry: Telemetry::disabled(),
            profiler: Profiler::disabled(),
            faults: None,
            crashes: CrashSchedule::none(),
            restart_budget: 0,
            tenants: Vec::new(),
            flight: None,
            exporter: None,
            backend: PhantomData,
        }
    }
}

impl<B: DirtyTracker> ShardedViyojitBuilder<B> {
    /// Switches the dirty-tracking backend (e.g. `MmuAssisted`).
    pub fn backend<B2: DirtyTracker>(self) -> ShardedViyojitBuilder<B2> {
        ShardedViyojitBuilder {
            shards: self.shards,
            pages_per_shard: self.pages_per_shard,
            config: self.config,
            min_per_shard: self.min_per_shard,
            rebalance_period: self.rebalance_period,
            clock: self.clock,
            costs: self.costs,
            ssd_config: self.ssd_config,
            threads: self.threads,
            telemetry: self.telemetry,
            profiler: self.profiler,
            faults: self.faults,
            crashes: self.crashes,
            restart_budget: self.restart_budget,
            tenants: self.tenants,
            flight: self.flight,
            exporter: self.exporter,
            backend: PhantomData,
        }
    }

    /// Guarantees every shard at least `pages` of budget (default 1).
    pub fn min_per_shard(mut self, pages: u64) -> Self {
        self.min_per_shard = pages;
        self
    }

    /// Sets the demand-rebalance period (default 10 ms of virtual time).
    pub fn rebalance_period(mut self, period: SimDuration) -> Self {
        self.rebalance_period = period;
        self
    }

    /// Uses `clock` as the shared virtual timeline (default: fresh clock).
    pub fn clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Sets the hardware cost model (default: free).
    pub fn cost_model(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }

    /// Sets the per-shard SSD configuration (default: instant).
    pub fn ssd(mut self, ssd_config: SsdConfig) -> Self {
        self.ssd_config = ssd_config;
        self
    }

    /// Attaches telemetry to the frontend and every shard.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attaches a virtual-time profiler. In parallel mode each shard
    /// thread runs a [`Profiler::fork`] over its own clock.
    pub fn profiler(mut self, profiler: Profiler) -> Self {
        self.profiler = profiler;
        self
    }

    /// Attaches one fault plan, cloned to every shard.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Arms a crash-injection schedule, cloned to every shard. Clones
    /// share the schedule's fire-at-most-once latch, so at most one
    /// injected crash fires cluster-wide. The default inactive schedule
    /// ([`CrashSchedule::none`]) charges nothing anywhere.
    pub fn crashes(mut self, crashes: CrashSchedule) -> Self {
        self.crashes = crashes;
        self
    }

    /// Lets each parallel worker absorb up to `restarts` panics by
    /// respawning its shards from durable state (quarantined for the
    /// rest of the round it dropped out of) before a panic degrades to the fatal
    /// [`ViyojitError::ShardFailed`]. Default 0: every panic is fatal,
    /// the historical behaviour. Sequential mode ignores this — panics
    /// there unwind to the caller directly.
    pub fn restart_budget(mut self, restarts: u32) -> Self {
        self.restart_budget = restarts;
        self
    }

    /// Arms the flight recorder: every supervised crash seam (worker
    /// panic, injected crash signal, round timeout, the degradation
    /// governor entering degraded mode) dumps the crashing thread's
    /// recent trace window as `postmortem-<label>.jsonl` into the
    /// recorder's directory. Render a dump with
    /// `viyojit-trace postmortem <dump>`.
    pub fn flight_recorder(mut self, flight: FlightRecorder) -> Self {
        self.flight = Some(Arc::new(flight));
        self
    }

    /// Enables the live metrics exporter: a background thread
    /// periodically renders the merged telemetry registry (plus the
    /// wall-plane registry) in Prometheus text exposition format to
    /// `config.path`. Stops (after a final render) when the deployment is
    /// dropped.
    pub fn exporter(mut self, config: ExporterConfig) -> Self {
        self.exporter = Some(config);
        self
    }

    /// Caps the number of shard worker threads in parallel mode (default:
    /// one per shard). Shards are distributed round-robin over threads.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Declares a tenant owning the next `shards` shards (tenants claim
    /// contiguous shard ranges in declaration order) with `qos` as its
    /// guaranteed/burst dirty-page envelope.
    ///
    /// When any tenant is declared, the declared shard counts must sum to
    /// the builder's total shard count and every guarantee must cover its
    /// shards' floors; validation happens at build time. With no tenants
    /// declared, the whole machine is one implicit tenant and planning is
    /// identical to the historical flat arbiter.
    pub fn tenant(mut self, name: impl Into<String>, shards: usize, qos: TenantQos) -> Self {
        self.tenants.push(TenantSpec {
            name: name.into(),
            shards,
            qos,
            faults: None,
        });
        self
    }

    /// Attaches a fault plan to the most recently declared tenant only
    /// (its shards get this plan instead of the global [`Self::faults`]
    /// plan). Must follow a [`Self::tenant`] call.
    pub fn tenant_faults(mut self, faults: FaultPlan) -> Self {
        if let Some(last) = self.tenants.last_mut() {
            last.faults = Some(faults);
        } else {
            // Surfaced as InvalidConfig at build time.
            self.tenants.push(TenantSpec {
                name: String::new(),
                shards: 0,
                qos: TenantQos::guaranteed(0),
                faults: Some(faults),
            });
        }
        self
    }

    fn validate(&self) -> Result<(), ViyojitError> {
        if self.shards == 0 {
            return Err(ViyojitError::InvalidConfig(
                "at least one shard is required",
            ));
        }
        if self.pages_per_shard == 0 {
            return Err(ViyojitError::InvalidConfig("shards need at least one page"));
        }
        if self.min_per_shard == 0 {
            return Err(ViyojitError::InvalidConfig(
                "the per-shard budget floor must be positive",
            ));
        }
        if self.min_per_shard * self.shards as u64 > self.config.dirty_budget_pages {
            return Err(ViyojitError::InvalidConfig(
                "per-shard floors exceed the provisioned budget",
            ));
        }
        if self.rebalance_period.is_zero() {
            return Err(ViyojitError::InvalidConfig(
                "the rebalance period must be positive",
            ));
        }
        if self.threads == Some(0) {
            return Err(ViyojitError::InvalidConfig(
                "parallel mode needs at least one thread",
            ));
        }
        if !self.tenants.is_empty() {
            if self.tenants.iter().any(|t| t.shards == 0) {
                return Err(ViyojitError::InvalidConfig(
                    "tenants need at least one shard (tenant_faults requires a preceding tenant)",
                ));
            }
            let declared: usize = self.tenants.iter().map(|t| t.shards).sum();
            if declared != self.shards {
                return Err(ViyojitError::InvalidConfig(
                    "declared tenant shards must sum to the shard count",
                ));
            }
            for t in &self.tenants {
                if t.qos.guaranteed_pages < self.min_per_shard * t.shards as u64 {
                    return Err(ViyojitError::InvalidConfig(
                        "a tenant's guarantee is below its shard floors",
                    ));
                }
            }
            let guaranteed: u64 = self.tenants.iter().map(|t| t.qos.guaranteed_pages).sum();
            if guaranteed > self.config.dirty_budget_pages {
                return Err(ViyojitError::InvalidConfig(
                    "tenant guarantees exceed the provisioned budget",
                ));
            }
        }
        Ok(())
    }

    /// Materialises the budget hierarchy this builder describes: one
    /// implicit whole-machine tenant when none were declared, otherwise
    /// the declared tenants in order.
    pub(super) fn tree(&self) -> BudgetTree {
        if self.tenants.is_empty() {
            BudgetTree::single(
                self.shards,
                self.config.dirty_budget_pages,
                self.min_per_shard,
            )
        } else {
            BudgetTree::with_tenants(
                self.tenants
                    .iter()
                    .map(|t| (t.name.clone(), t.shards, t.qos))
                    .collect(),
                self.config.dirty_budget_pages,
                self.min_per_shard,
            )
        }
    }

    /// Builds the single-threaded sequential frontend. Engines are
    /// constructed in shard order on the shared clock, so every
    /// virtual-time charge of construction lands where it always has.
    ///
    /// # Errors
    ///
    /// [`ViyojitError::InvalidConfig`] describing the first invalid
    /// parameter.
    pub fn build_sequential(self) -> Result<ShardedViyojit<B>, ViyojitError> {
        self.validate()?;
        Ok(ShardedViyojit::assemble(self))
    }

    /// Spawns the thread-parallel runtime: `min(threads, shards)` shard
    /// worker threads (each owning its shards' engines outright), and
    /// returns the data-plane / control-plane handle pair. The runtime
    /// shuts down when both handles drop.
    ///
    /// # Errors
    ///
    /// [`ViyojitError::InvalidConfig`] describing the first invalid
    /// parameter.
    pub fn build_parallel(self) -> Result<(ShardDataHandle, ShardControlHandle), ViyojitError>
    where
        B: Send + 'static,
    {
        self.validate()?;
        Ok(spawn_parallel(self))
    }
}
