//! The unified NV-DRAM engine: one Fig. 6 state machine, pluggable
//! dirty-tracking backends.
//!
//! The paper describes one control loop — budget enforcement, epoch
//! recency, EWMA pressure, proactive copying, power failure, recovery —
//! and two mechanisms for *observing* dirtiness: write-protection faults
//! (§5, the software design) and an MMU dirty counter with shadow bits
//! (§5.4, the hardware sketch). The full-battery baseline of Figs. 7–8 is
//! the degenerate third case: every page is presumed dirty, so nothing is
//! tracked at all.
//!
//! [`Engine<B>`] owns the shared state machine; the [`DirtyTracker`]
//! backend supplies only the page-tracking mechanics. The three
//! implementations reproduce the historical `Viyojit`,
//! `MmuAssistedViyojit`, and `NvdramBaseline` types exactly (those names
//! survive as aliases/wrappers), including each mode's cost charging:
//! which operations trap, what the walker scans, and what a flush pays.
//!
//! On top of the engine, the sharded frontend multiplexes one battery's
//! budget across N per-region shards through a
//! `hierarchy::BudgetTree` — machine → tenant → shard, both levels one
//! demand-proportional largest-remainder division — the ROADMAP's
//! scale-out and multi-tenant frontend. It is one piece of
//! code with two transports: a `driver::ShardDriver` owns a set of
//! shard engines (built and wired in one place) and answers everything
//! one can ask of them; the `coordinator::Coordinator` owns the tree,
//! the rebalance timeline, the tenant ledger and the metric names, and
//! implements the round, publication, the governors and the audit — and
//! through them [`ShardControlPlane`] — once, against "ask the drivers".
//! [`sharded::ShardedViyojit`] is the coordinator calling one driver
//! inline; [`ShardDataHandle`] / [`ShardControlHandle`] are the same
//! coordinator behind a mutex, calling one supervised driver per worker
//! thread over channels (`parallel`).

mod backend;
mod builder;
mod coordinator;
mod degrade;
mod driver;
mod emergency;
mod hierarchy;
mod parallel;
mod plane;
mod sharded;

pub use backend::{DirtyTracker, FullDirty, MmuAssisted, SoftwareWalk};
pub use builder::ShardedViyojitBuilder;
pub use degrade::{DegradationConfig, DegradationGovernor, DegradeReason, DegradedMode};
pub use driver::ShardStats;
pub use emergency::{FlushObligation, MAX_FLUSH_ATTEMPTS, RETRY_BACKOFF_BASE, RETRY_BACKOFF_MAX};
use hierarchy::BudgetTree;
pub use hierarchy::{TenantId, TenantQos, TenantStats};
pub use parallel::{ShardControlHandle, ShardDataHandle, ROUND_TIMEOUT};
pub use plane::{ShardControlPlane, ShardDataPlane};
pub use sharded::ShardedViyojit;

use battery_sim::{Battery, PowerModel};
use fault_sim::{crashpoint, CrashSchedule, FaultPlan};
use mem_sim::{AccessError, Mmu, MmuStats, PageId, TlbStats, PAGE_SIZE};
use sim_clock::{Clock, CostModel, SimTime};
use ssd_sim::{Ssd, SsdConfig, SsdStats};
use telemetry::{CostClass, FlushReason, Profiler, Telemetry, TraceEvent};

use crate::{
    DirtySet, InvariantViolation, NvHeap, PageState, PowerFailureReport, PressureEstimator,
    RegionId, RegionInfo, RegionTable, TargetPolicy, ThresholdPolicy, UpdateHistory,
    VictimSelector, ViyojitConfig, ViyojitError, ViyojitStats,
};

/// Wall-plane histograms (`Telemetry::record_wall`): host time of one
/// flush issue and of one emergency flush.
const WALL_FLUSH_NANOS: &str = "viyojit.wall.flush_nanos";
const WALL_EMERGENCY_NANOS: &str = "viyojit.wall.emergency_nanos";

/// EWMA weight of the newest per-epoch new-dirty-page count in the
/// pressure prediction (§5.3).
const PRESSURE_ALPHA: f64 = 0.75;

/// Flush IOs outstanding at the SSD at most (§6.1).
const MAX_OUTSTANDING_IOS: usize = 16;

/// Epochs the fast-forward still runs one by one beyond the copier's drain
/// time (see [`cross_epoch_boundaries`]): the paper's 64-epoch history
/// depth (§5.2). Nothing reads a 64-epoch window, but a smaller margin
/// would change which epochs a run crosses and reports.
const FAST_FORWARD_MARGIN_EPOCHS: u64 = 64;

/// The backend-independent state of one NV-DRAM manager: the simulated
/// substrates (MMU, SSD, clock), the region table, every page's lifecycle
/// state, the recency/pressure trackers, the pending-IO list, and the
/// runtime counters.
///
/// Opaque outside the crate; backends reach into it through `pub(crate)`
/// fields. It exists as a named type so [`DirtyTracker`] hooks can take
/// the shared state and the backend state as *separate* borrows.
#[derive(Debug)]
pub struct EngineCore {
    pub(crate) config: ViyojitConfig,
    pub(crate) clock: Clock,
    pub(crate) mmu: Mmu,
    pub(crate) ssd: Ssd,
    pub(crate) regions: RegionTable,
    /// Each page's Clean → Dirty → InFlight lifecycle (§4.1): the backend
    /// moves a page Dirty when it discovers the first write, the engine
    /// moves it InFlight when its flush is issued and Clean when the IO
    /// completes. The baseline leaves every page Clean.
    pub(crate) pages: DirtySet,
    pub(crate) history: UpdateHistory,
    pub(crate) selector: VictimSelector,
    pub(crate) pressure: PressureEstimator,
    /// Pending flush IOs as `(completion instant, page)`.
    pub(crate) inflight: Vec<(SimTime, PageId)>,
    pub(crate) next_epoch_at: SimTime,
    /// Gate of [`poll`]: no flush IO completes and no epoch boundary falls
    /// before this instant, so a poll that finds the clock short of it has
    /// nothing to do. Never later than the earliest of those events; it
    /// may be earlier (stale), which costs one poll that finds nothing due.
    pub(crate) next_due: SimTime,
    /// Proactive-copy threshold computed at the last epoch boundary; the
    /// background copier tops up toward it continuously between epochs.
    pub(crate) current_threshold: u64,
    pub(crate) stats: ViyojitStats,
    pub(crate) telemetry: Telemetry,
    /// Virtual-time profiler shared with the MMU and SSD; disabled by
    /// default, in which case every span/charge is a no-op.
    pub(crate) profiler: Profiler,
    /// Fault-injection plan shared with the backing SSD; inactive by
    /// default, in which case every fault hook is an identity and the
    /// engine behaves byte-identically to a build without fault support.
    pub(crate) faults: FaultPlan,
    /// Crash schedule consulted at every state-mutation seam; inactive by
    /// default, in which case each `crashpoint!` check is a null test
    /// charging zero virtual time.
    pub(crate) crashes: CrashSchedule,
}

/// One NV-DRAM manager: the shared Fig. 6 state machine parameterised by
/// a dirty-tracking backend.
///
/// - `Engine<SoftwareWalk>` is [`Viyojit`](crate::Viyojit), the paper's
///   software manager (write-protect faults, PTE dirty-bit walks);
/// - `Engine<MmuAssisted>` is
///   [`MmuAssistedViyojit`](crate::MmuAssistedViyojit), the §5.4 hardware
///   offload (dirty-limit interrupts, shadow-bit recency);
/// - `Engine<FullDirty>` underlies
///   [`NvdramBaseline`](crate::NvdramBaseline), the full-battery
///   comparison system that tracks nothing.
///
/// # Examples
///
/// ```
/// use sim_clock::{Clock, CostModel};
/// use ssd_sim::SsdConfig;
/// use viyojit::{Engine, MmuAssisted, NvHeap, SoftwareWalk, ViyojitConfig};
///
/// fn dirty_after_one_write<B: viyojit::DirtyTracker>() -> u64 {
///     let mut nv = Engine::<B>::new(
///         64,
///         ViyojitConfig::with_budget_pages(8),
///         Clock::new(),
///         CostModel::free(),
///         SsdConfig::instant(),
///     );
///     let r = nv.map(4096).unwrap();
///     nv.write(r, 0, b"same engine, different tracker").unwrap();
///     nv.dirty_count()
/// }
///
/// assert_eq!(dirty_after_one_write::<SoftwareWalk>(), 1);
/// assert_eq!(dirty_after_one_write::<MmuAssisted>(), 1);
/// ```
#[derive(Debug)]
pub struct Engine<B: DirtyTracker> {
    pub(crate) core: EngineCore,
    pub(crate) backend: B,
}

impl<B: DirtyTracker> Engine<B> {
    /// Creates a manager over `total_pages` of NV-DRAM backed by an SSD of
    /// the same capacity. The backend arms its tracking mechanism: the
    /// software walker write-protects every page (Fig. 6 step 1), the
    /// hardware backend arms the MMU dirty limit, the baseline does
    /// nothing.
    pub fn new(
        total_pages: usize,
        config: ViyojitConfig,
        clock: Clock,
        costs: CostModel,
        ssd_config: SsdConfig,
    ) -> Self {
        let mut mmu = Mmu::new(total_pages, clock.clone(), costs);
        let backend = B::init(&mut mmu, &config);
        let ssd = Ssd::new(total_pages, ssd_config, clock.clone());
        let next_epoch_at = clock.now() + config.epoch;
        Engine {
            core: EngineCore {
                history: UpdateHistory::new(total_pages, 64),
                selector: VictimSelector::new(total_pages, TargetPolicy::LeastRecentlyUpdated, 0),
                pressure: PressureEstimator::new(PRESSURE_ALPHA),
                regions: RegionTable::new(total_pages as u64),
                pages: DirtySet::new(total_pages),
                inflight: Vec::new(),
                next_epoch_at,
                next_due: SimTime::ZERO,
                current_threshold: config.dirty_budget_pages,
                stats: ViyojitStats::default(),
                telemetry: Telemetry::disabled(),
                profiler: Profiler::disabled(),
                faults: FaultPlan::none(),
                crashes: CrashSchedule::none(),
                config,
                clock,
                mmu,
                ssd,
            },
            backend,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ViyojitConfig {
        &self.core.config
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.core.clock
    }

    /// Pages currently counted against the dirty budget.
    pub fn dirty_count(&self) -> u64 {
        B::dirty_count(&self.core)
    }

    /// The dirty budget in pages.
    pub fn dirty_budget(&self) -> u64 {
        self.core.config.dirty_budget_pages
    }

    /// Runtime counters.
    pub fn stats(&self) -> ViyojitStats {
        self.core.stats
    }

    /// MMU access counters.
    pub fn mmu_stats(&self) -> MmuStats {
        self.core.mmu.stats()
    }

    /// TLB counters.
    pub fn tlb_stats(&self) -> TlbStats {
        self.core.mmu.tlb_stats()
    }

    /// SSD counters (copy-out traffic; Fig. 9's write rate comes from
    /// `bytes_written`).
    pub fn ssd_stats(&self) -> SsdStats {
        self.core.ssd.stats()
    }

    /// The backing SSD (wear statistics, configuration).
    pub fn ssd(&self) -> &Ssd {
        &self.core.ssd
    }

    /// The MMU over NV-DRAM, which also holds what the SSD holds: its
    /// [`Mmu::durable_page`] is the device image a recovery would bring
    /// back, and [`Mmu::undo_stats`] counts how the undo log behind it was
    /// used.
    pub fn mmu(&self) -> &Mmu {
        &self.core.mmu
    }

    /// Attaches a telemetry handle (shared with the backing SSD). The
    /// manager then emits the Fig. 6 trace events and publishes its
    /// counters into the registry at every epoch boundary. Telemetry only
    /// observes the virtual clock, so results are identical with any sink.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.core.ssd.attach_telemetry(telemetry.clone());
        self.core.telemetry = telemetry;
    }

    /// Attaches a virtual-time profiler (shared with the MMU, which charges
    /// per-access hardware costs against it, and the SSD, which accounts
    /// device time off-clock). The engine then wraps its control-flow
    /// phases — fault handling, epoch walks, budget stalls, copy-out waits,
    /// governor actions — in causal spans so every virtual nanosecond is
    /// attributed to exactly one leaf. The profiler only observes the
    /// clock; results are identical with or without one attached.
    pub fn attach_profiler(&mut self, profiler: Profiler) {
        self.core.mmu.attach_profiler(profiler.clone());
        self.core.ssd.attach_profiler(profiler.clone());
        self.core.profiler = profiler;
    }

    /// Attaches a fault-injection plan (shared with the backing SSD, which
    /// consults it on every copier write). With an inactive plan —
    /// [`FaultPlan::none`] — every hook is an identity and behavior is
    /// byte-identical to a run without fault support.
    pub fn attach_faults(&mut self, faults: FaultPlan) {
        self.core.ssd.attach_faults(faults.clone());
        self.core.faults = faults;
    }

    /// The fault plan in force (inactive unless one was attached).
    pub fn faults(&self) -> &FaultPlan {
        &self.core.faults
    }

    /// Attaches a crash schedule. The engine then consults it at every
    /// instrumented state-mutation seam; when the armed `(point, hit)`
    /// pair is reached, the run unwinds with a
    /// [`CrashSignal`](fault_sim::CrashSignal) panic from exactly that
    /// seam, modelling an instantaneous power cut. With an inactive
    /// schedule — [`CrashSchedule::none`] — every check is a null test and
    /// behavior is byte-identical to a run without crash support.
    pub fn attach_crashes(&mut self, crashes: CrashSchedule) {
        self.core.crashes = crashes;
    }

    /// The crash schedule in force (inactive unless one was attached).
    pub fn crashes(&self) -> &CrashSchedule {
        &self.core.crashes
    }

    /// Reads region contents without touching the clock, the MMU access
    /// path, or any tracking state: the oracle's view of memory. Crash
    /// harnesses use this to snapshot the byte image at the instant of an
    /// injected crash and to compare post-recovery contents against a
    /// shadow reference, without the read itself perturbing the run.
    ///
    /// # Errors
    ///
    /// The same range errors as [`NvHeap::read`].
    pub fn peek(&self, region: RegionId, offset: u64, buf: &mut [u8]) -> Result<(), ViyojitError> {
        let addr = self.core.regions.resolve(region, offset, buf.len())?;
        self.core.mmu.peek(addr, buf);
        Ok(())
    }

    /// Live regions.
    pub fn regions(&self) -> impl Iterator<Item = (RegionId, RegionInfo)> + '_ {
        self.core.regions.iter()
    }

    /// Re-derives the dirty budget at runtime — e.g. after a battery cell
    /// failure shrank the available energy (§8). If the dirty population
    /// exceeds the new budget, the caller stalls while pages are flushed
    /// down to it, preserving durability throughout. The hardware backend
    /// additionally re-arms the MMU's dirty limit; the baseline backend
    /// accepts the call but has nothing to bound.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero.
    pub fn set_dirty_budget(&mut self, pages: u64) {
        assert!(pages > 0, "dirty budget must allow at least one dirty page");
        // The manager only sees the derived budget; health is reported by
        // whoever derived it (the battery governor), so 1000 here means
        // "not re-measured at this hook".
        self.core.telemetry.emit(|| TraceEvent::BatteryRecalc {
            budget_pages: pages,
            health_permille: 1000,
        });
        self.core.config.dirty_budget_pages = pages;
        B::on_budget_changed(&mut self.core, pages);
        stall_until_dirty_at_most(&mut self.core, &mut self.backend, pages, pages);
    }

    /// Simulates an external power failure: whatever the design obliges
    /// the battery to flush is flushed to the SSD. For the tracking
    /// backends that is every page counted dirty — by construction at most
    /// the dirty budget; for the baseline it is the entire capacity.
    ///
    /// Without a battery the flush has unbounded time; it runs the same
    /// executor as [`Engine::power_failure_powered`], which races a real
    /// battery: page by page after the tail of any IO in flight, retrying
    /// transient write errors with bounded exponential backoff, and losing
    /// only pages whose retries exhaust.
    pub fn power_failure(&mut self) -> PowerFailureReport {
        self.emergency_flush(None)
    }

    /// Simulates a power failure while `battery` drains at `power`'s
    /// system wattage: the executed emergency flush steps page-by-page on
    /// a local timeline and ends in a typed [`FlushOutcome`] — complete,
    /// pages lost to exhausted retries, or battery exhaustion (every
    /// not-yet-durable page lost). In-flight copier IOs at the failure
    /// instant are folded into the hold-up obligation.
    ///
    /// [`FlushOutcome`]: crate::FlushOutcome
    pub fn power_failure_powered(
        &mut self,
        battery: &Battery,
        power: &PowerModel,
    ) -> PowerFailureReport {
        self.emergency_flush(Some((battery, power)))
    }

    fn emergency_flush(&mut self, supply: Option<(&Battery, &PowerModel)>) -> PowerFailureReport {
        let wall = self.core.telemetry.wall_start();
        let obligation = B::failure_obligation(&mut self.core, &mut self.backend);
        let pages = B::failure_pages(&self.core);
        let report = emergency::execute(&mut self.core, obligation, pages, supply);
        self.core.telemetry.record_wall(WALL_EMERGENCY_NANOS, wall);
        report
    }

    /// Feeds the degradation governor fresh signals (the battery gauge's
    /// reported health plus this engine's SSD error counters) and, on a
    /// mode transition, applies the prescribed budget through
    /// [`Engine::set_dirty_budget`] — shrinking stalls writers until the
    /// dirty population fits (the stall-until-safe path); recovery
    /// restores the nominal budget. Returns the applied budget if a
    /// transition happened.
    pub fn govern_degradation(
        &mut self,
        governor: &mut DegradationGovernor,
        reported_health: f64,
    ) -> Option<u64> {
        let ssd = self.core.ssd.stats();
        let budget = governor.observe(reported_health, &ssd)?;
        let _span = self.core.profiler.span(CostClass::GovernorAction);
        let degraded = matches!(governor.mode(), DegradedMode::Degraded(_));
        self.core
            .telemetry
            .emit(|| TraceEvent::DegradedModeChanged {
                degraded,
                budget_pages: budget,
            });
        self.set_dirty_budget(budget);
        Some(budget)
    }

    /// Rebuilds NV-DRAM from the SSD after a power cycle: every page
    /// returns to its durable copy (zeroes if never written) — only the
    /// sectors written since their last hand-over are restored — the
    /// backend re-arms its tracking, and the trackers restart empty.
    /// Region mappings survive (their metadata lives in the flushed
    /// superblock).
    pub fn recover(&mut self) {
        B::recover_memory(&mut self.core, &mut self.backend);
        if B::HAS_CONTROL_LOOP {
            self.core.history.reset();
            self.core.selector.reset();
            self.core.pressure.reset();
            self.core.inflight.clear();
            self.core.pages.reset();
            self.core.next_epoch_at = self.core.clock.now() + self.core.config.epoch;
        }
        // The next poll re-derives it from the restarted trackers.
        self.core.next_due = SimTime::ZERO;
    }

    /// Checks every internal invariant, most importantly the paper's
    /// durability guarantee `dirty_count <= dirty_budget`: the page
    /// states' counters, the budget, one pending IO per InFlight page, the
    /// backend's own mechanism, and the undo log behind the device image.
    /// O(pages); intended for tests and property checks.
    ///
    /// # Errors
    ///
    /// The first [`InvariantViolation`] found.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let core = &self.core;
        core.pages.check_invariants()?;
        let (dirty, budget) = (B::dirty_count(core), core.config.dirty_budget_pages);
        if dirty > budget {
            return Err(InvariantViolation::BudgetExceeded { dirty, budget });
        }
        let (ios, pages) = (core.inflight.len() as u64, core.pages.in_flight_count());
        if ios != pages {
            return Err(InvariantViolation::InFlightListMismatch { ios, pages });
        }
        B::check_invariants(core)?;
        // A slot exactly for each held page with unsynced sectors, and
        // none for a page whose IO is in flight.
        match core.mmu.undo_violation(core.pages.in_flight_bits()) {
            Some((page, what)) => Err(InvariantViolation::UndoLog { page: page.0, what }),
            None => Ok(()),
        }
    }

    /// Panicking wrapper over [`Engine::check_invariants`] for tests.
    ///
    /// # Panics
    ///
    /// Panics with the violation's `Display` text if any invariant is
    /// violated.
    pub fn validate(&self) {
        if let Err(violation) = self.check_invariants() {
            panic!("{violation}");
        }
    }

    /// `true` if every clean mapped page matches its durable copy — the
    /// invariant that makes [`Engine::power_failure`]'s bounded flush
    /// sufficient for full durability.
    pub fn durable_state_consistent(&self) -> bool {
        B::durable_state_consistent(&self.core)
    }
}

impl<B: DirtyTracker> NvHeap for Engine<B> {
    fn map(&mut self, len_bytes: u64) -> Result<RegionId, ViyojitError> {
        // Tracked pages are already armed (protection or dirty limit, done
        // at startup), matching Fig. 6 step 1.
        self.core.regions.map(len_bytes)
    }

    fn unmap(&mut self, region: RegionId) -> Result<(), ViyojitError> {
        let info = self.core.regions.info(region)?;
        let core = &mut self.core;
        let start = info.first_page.index();
        let end = start + info.pages as usize;
        // Wait out the region's in-flight flushes so freed pages cannot be
        // remapped while an IO still references them. Waiting retires
        // other completions too, so re-check each page when its turn comes.
        let mut in_flight: Vec<PageId> = Vec::new();
        core.pages
            .in_flight_bits()
            .collect_range_into_map(start, end, &mut in_flight, |i| PageId(i as u64));
        for page in in_flight {
            if core.pages.state(page) == PageState::InFlight {
                wait_for_page_io::<B>(core, page);
            }
        }
        // The region's Dirty pages are garbage now, not data to preserve.
        let mut discarded: Vec<PageId> = Vec::new();
        core.pages
            .dirty_bits()
            .collect_range_into_map(start, end, &mut discarded, |i| PageId(i as u64));
        for &page in &discarded {
            core.selector.on_removed(page);
            core.pages.discard_dirty(page);
        }
        B::unmap_region(core, &info, &discarded);
        core.regions.unmap(region)?;
        Ok(())
    }

    fn read(&mut self, region: RegionId, offset: u64, buf: &mut [u8]) -> Result<(), ViyojitError> {
        let addr = self.core.regions.resolve(region, offset, buf.len())?;
        poll(&mut self.core, &mut self.backend);
        self.core
            .mmu
            .read(addr, buf)
            .expect("resolved addresses are in range");
        poll(&mut self.core, &mut self.backend);
        Ok(())
    }

    fn write(&mut self, region: RegionId, offset: u64, data: &[u8]) -> Result<(), ViyojitError> {
        let mut addr = self.core.regions.resolve(region, offset, data.len())?;
        poll(&mut self.core, &mut self.backend);
        let mut rest = data;
        while !rest.is_empty() {
            let in_page = PAGE_SIZE - (addr as usize % PAGE_SIZE);
            let n = in_page.min(rest.len());
            let (chunk, tail) = rest.split_at(n);
            loop {
                match self.core.mmu.write(addr, chunk) {
                    Ok(()) => break,
                    Err(e @ AccessError::OutOfRange { .. }) => {
                        unreachable!("resolved addresses are in range: {e}")
                    }
                    Err(err) => B::on_write_error(&mut self.core, &mut self.backend, err),
                }
            }
            addr += n as u64;
            rest = tail;
        }
        poll(&mut self.core, &mut self.backend);
        Ok(())
    }

    fn region_len(&self, region: RegionId) -> Result<u64, ViyojitError> {
        Ok(self.core.regions.info(region)?.len_bytes)
    }
}

// ----------------------------------------------------------------------
// The shared control flow (Fig. 6), generic over the backend. Free
// functions rather than methods so backend hooks can re-enter them with
// the core and backend as separate borrows.
// ----------------------------------------------------------------------

/// Retires every flush IO whose completion instant has passed: its page
/// moves Clean, releasing the budget slot, and the backend is told.
pub(crate) fn retire_completions<B: DirtyTracker>(core: &mut EngineCore) {
    let now = core.clock.now();
    let mut i = 0;
    while i < core.inflight.len() {
        if core.inflight[i].0 <= now {
            let (_, page) = core.inflight.swap_remove(i);
            core.pages.mark_clean(page);
            B::on_flush_complete(core, page);
            core.stats.flushes_completed += 1;
            core.telemetry
                .emit(|| TraceEvent::FlushComplete { page: page.0 });
        } else {
            i += 1;
        }
    }
}

/// The earliest instant at which [`poll`] has work: the first pending
/// flush completion or, for a backend with a control loop, the next epoch
/// boundary. What `next_due` is re-derived from, and the slow model its
/// fast path is checked against.
fn earliest_due<B: DirtyTracker>(core: &EngineCore) -> SimTime {
    let horizon = if B::HAS_CONTROL_LOOP {
        core.next_epoch_at
    } else {
        SimTime::from_nanos(u64::MAX)
    };
    let completions = core.inflight.iter().map(|&(done, _)| done);
    completions.fold(horizon, SimTime::min)
}

/// Retires due flush IOs and processes any epoch boundaries the virtual
/// clock has crossed. Called before and after every read/write, so the
/// common case — nothing due yet — is one compare against `next_due`,
/// inlined into the access; the work stays out of line.
#[inline]
pub(crate) fn poll<B: DirtyTracker>(core: &mut EngineCore, backend: &mut B) {
    if core.clock.now() < core.next_due {
        debug_assert!(
            core.clock.now() < earliest_due::<B>(core),
            "next_due {:?} is later than a due event",
            core.next_due
        );
        return;
    }
    run_due(core, backend);
}

/// [`poll`]'s work once something may be due; re-derives `next_due`.
#[inline(never)]
fn run_due<B: DirtyTracker>(core: &mut EngineCore, backend: &mut B) {
    retire_completions::<B>(core);
    if B::HAS_CONTROL_LOOP && core.clock.now() >= core.next_epoch_at {
        cross_epoch_boundaries(core, backend);
    }
    core.next_due = earliest_due::<B>(core);
}

/// Runs the epochs whose boundaries the clock has passed.
///
/// Proactive copies are issued only at epoch boundaries, as in the
/// paper (§5.3 is explicitly "an epoch based approach"); the EWMA
/// threshold exists precisely to leave enough budget slack to absorb
/// the new dirty pages that arrive *between* boundaries.
fn cross_epoch_boundaries<B: DirtyTracker>(core: &mut EngineCore, backend: &mut B) {
    // Fast-forward long idle gaps. Only the first epoch after the gap
    // observes new dirty bits, and the copier needs at most
    // budget/outstanding epochs to drain to its threshold, so epochs
    // beyond `cap` before "now" are no-ops: advance the epoch count in
    // one step and let the pressure prediction decay to zero, exactly
    // as processing them individually would.
    let now = core.clock.now();
    let pending = (now - core.next_epoch_at).as_nanos() / core.config.epoch.as_nanos() + 1;
    let cap = FAST_FORWARD_MARGIN_EPOCHS
        + core.config.dirty_budget_pages / MAX_OUTSTANDING_IOS as u64
        + 2;
    if pending > cap {
        let skipped = pending - cap;
        core.history.advance_epochs(skipped);
        core.pressure.reset();
        backend.on_epochs_skipped();
        core.next_epoch_at += core.config.epoch * skipped;
        core.stats.epochs_fast_forwarded += skipped;
    }
    while core.clock.now() >= core.next_epoch_at {
        run_epoch(core, backend);
        core.next_epoch_at += core.config.epoch;
    }
}

/// One epoch boundary (§5.2 + §5.3): the backend walks/discovers dirty
/// pages and refreshes recency, then the shared flow updates pressure
/// and issues proactive copies down to the threshold.
pub(crate) fn run_epoch<B: DirtyTracker>(core: &mut EngineCore, backend: &mut B) {
    core.stats.epochs += 1;
    core.history.advance_epoch();
    let epoch = core.history.current_epoch();
    core.profiler.set_epoch(epoch);
    let _span = core.profiler.span(CostClass::EpochWalk);

    let (walked, new_dirty) = B::epoch_walk(core, backend);
    // Power cut mid-epoch: recency refreshed but the pressure/threshold
    // update and proactive copies never happen.
    crashpoint!(core.crashes, EpochWalk);
    core.telemetry.emit(|| TraceEvent::EpochWalk {
        epoch,
        walked,
        new_dirty,
    });
    if core.config.tlb_flush_on_walk {
        core.telemetry.emit(|| TraceEvent::TlbFlush { epoch });
    }

    core.pressure.observe(new_dirty);
    core.current_threshold = match core.config.threshold_policy {
        ThresholdPolicy::Adaptive => core.pressure.threshold(core.config.dirty_budget_pages),
        ThresholdPolicy::FixedSlack(slack) => core.config.dirty_budget_pages.saturating_sub(slack),
    };

    retire_completions::<B>(core);
    // Issue enough copies that, once in-flight IOs drain, the dirty
    // population sits at the threshold. In-flight pages still count
    // against the budget (their bytes are not durable yet) but need no
    // further action, so the copier compares the not-yet-flushing
    // population to the threshold.
    issue_proactive_down_to(core, backend, core.current_threshold);
    publish_metrics::<B>(core);
    core.telemetry.snapshot_epoch(epoch);
}

/// Issues proactive copies until the not-yet-flushing dirty population
/// is at most `threshold` or the outstanding-IO cap is reached.
pub(crate) fn issue_proactive_down_to<B: DirtyTracker>(
    core: &mut EngineCore,
    backend: &mut B,
    threshold: u64,
) {
    while B::dirty_count(core).saturating_sub(core.pages.in_flight_count()) > threshold
        && core.inflight.len() < MAX_OUTSTANDING_IOS
    {
        let Some(victim) = core.selector.peek() else {
            break; // everything dirty is already in flight
        };
        issue_flush(core, backend, victim, FlushReason::Proactive);
    }
}

/// Hands `page` to the device — the one point where NV-DRAM contents
/// become durable, for the copier and the emergency flush alike — and
/// returns the write's completion instant. Nothing is copied: the page's
/// bytes in memory become its device image ([`Mmu::take_unsynced`]
/// releases the page's undo), and the `Ssd` is charged for the write.
///
/// The first `fallible_attempts` submissions consult the fault plan; each
/// injected error occupies its channel (naturally serialising the retry
/// behind it). After them the write is forced through — a copy that is
/// handed over must land, which is why the hand-over can be taken before
/// the first attempt. The emergency executor passes 0: it has drawn the
/// page's faults on its own timeline before it gets here. With an
/// inactive plan the fallible submit never errs and is identical to the
/// plain one.
pub(crate) fn hand_to_device(
    core: &mut EngineCore,
    page: PageId,
    physical: usize,
    fallible_attempts: u32,
) -> SimTime {
    core.mmu.take_unsynced(page);
    for attempt in 1..=fallible_attempts {
        match core.ssd.try_submit_write_sized(page, physical) {
            Ok(done) => return done,
            Err(err) => {
                core.stats.flush_retries += 1;
                let backoff = err.retry_after.saturating_since(core.clock.now());
                core.telemetry.emit(|| TraceEvent::FlushRetry {
                    page: page.0,
                    attempt,
                    backoff_nanos: backoff.as_nanos(),
                });
            }
        }
    }
    core.ssd.submit_write_sized(page, physical)
}

/// Re-protects `victim`, moves it InFlight and submits its flush (Fig. 6
/// steps 6-7).
/// Write-protecting *before* the SSD write is what makes the page's bytes
/// a stable snapshot where they lie (§5.1), so none is taken.
pub(crate) fn issue_flush<B: DirtyTracker>(
    core: &mut EngineCore,
    backend: &mut B,
    victim: PageId,
    reason: FlushReason,
) {
    let wall = core.telemetry.wall_start();
    core.telemetry.emit(|| TraceEvent::FlushIssued {
        page: victim.0,
        reason,
        last_update_epoch: core.history.last_update_epoch(victim),
    });
    core.mmu.protect_page(victim);
    core.pages.mark_in_flight(victim);
    B::mark_in_flight(core, victim);
    core.selector.on_removed(victim);
    let physical = B::flush_payload(core, backend, victim);
    // A runtime copy retries injected errors up to the emergency
    // executor's attempt cap and is then forced through: only the
    // emergency flush is allowed to abandon pages.
    let done = hand_to_device(core, victim, physical, MAX_FLUSH_ATTEMPTS);
    core.inflight.push((done, victim));
    core.next_due = core.next_due.min(done);
    // Power cut with the IO just submitted: the page is write-protected
    // and in flight but nothing has retired it.
    crashpoint!(core.crashes, FlushInFlight);
    core.stats.bytes_flushed += PAGE_SIZE as u64;
    if B::TRACKS_PHYSICAL {
        core.stats.physical_bytes_flushed += physical as u64;
    }
    match reason {
        FlushReason::Proactive => core.stats.proactive_flushes += 1,
        FlushReason::Forced => core.stats.forced_flushes += 1,
    }
    core.telemetry.record_wall(WALL_FLUSH_NANOS, wall);
}

/// Stalls (advancing the virtual clock through SSD completions) until at
/// most `limit` pages are counted dirty, issuing forced flushes as
/// needed. `event_budget` is the budget figure the `BudgetStall` trace
/// event reports: the software fault handler stalls to `budget - 1` but
/// reports the admission limit, while the hardware interrupt and the §8
/// budget hook report the budget itself.
pub(crate) fn stall_until_dirty_at_most<B: DirtyTracker>(
    core: &mut EngineCore,
    backend: &mut B,
    limit: u64,
    event_budget: u64,
) {
    let mut stalled = false;
    let mut span = None;
    while B::dirty_count(core) > limit {
        // Open the span lazily so calls that find the budget already
        // satisfied leave no trace (they move no virtual time either).
        if span.is_none() {
            span = Some(core.profiler.span(CostClass::BudgetStall));
        }
        if core.inflight.is_empty() {
            let victim = B::pick_forced_victim(core);
            issue_flush(core, backend, victim, FlushReason::Forced);
        }
        let earliest = core
            .inflight
            .iter()
            .map(|&(t, _)| t)
            .min()
            .expect("at least one IO in flight");
        let before = core.clock.now();
        core.clock.advance_to(earliest);
        core.stats.stall_time += core.clock.now().saturating_since(before);
        if !stalled {
            core.stats.budget_stalls += 1;
            stalled = true;
            let dirty = B::dirty_count(core);
            core.telemetry.emit(|| TraceEvent::BudgetStall {
                dirty,
                budget: event_budget,
            });
        }
        retire_completions::<B>(core);
    }
}

/// Advances the clock to the completion of `page`'s pending IO and
/// retires it. The caller must know the page is in flight.
pub(crate) fn wait_for_page_io<B: DirtyTracker>(core: &mut EngineCore, page: PageId) {
    let done = core
        .inflight
        .iter()
        .find(|&&(_, p)| p == page)
        .map(|&(t, _)| t)
        .expect("in-flight page has a pending IO");
    let _span = core.profiler.span(CostClass::CopyOutIo);
    core.clock.advance_to(done);
    retire_completions::<B>(core);
}

/// Publishes runtime counters, pressure state, and SSD state into the
/// attached metrics registry. No-op when telemetry is disabled.
pub(crate) fn publish_metrics<B: DirtyTracker>(core: &mut EngineCore) {
    if !core.telemetry.is_enabled() {
        return;
    }
    let stats = core.stats;
    let dirty = B::dirty_count(core);
    let in_flight = core.pages.in_flight_count();
    let threshold = core.current_threshold;
    let predicted = core.pressure.predicted();
    core.telemetry.metrics(|m| {
        m.counter_set("viyojit.faults_handled", stats.faults_handled);
        m.counter_set("viyojit.pages_dirtied", stats.pages_dirtied);
        m.counter_set("viyojit.proactive_flushes", stats.proactive_flushes);
        m.counter_set("viyojit.forced_flushes", stats.forced_flushes);
        m.counter_set("viyojit.flushes_completed", stats.flushes_completed);
        m.counter_set("viyojit.budget_stalls", stats.budget_stalls);
        m.counter_set("viyojit.stall_nanos", stats.stall_time.as_nanos());
        m.counter_set("viyojit.in_flight_collisions", stats.in_flight_collisions);
        m.counter_set("viyojit.epochs", stats.epochs);
        m.counter_set("viyojit.bytes_flushed", stats.bytes_flushed);
        if B::TRACKS_PHYSICAL {
            m.counter_set(
                "viyojit.physical_bytes_flushed",
                stats.physical_bytes_flushed,
            );
        }
        m.counter_set("viyojit.walk_touches", stats.walk_touches);
        if stats.flush_retries > 0 {
            m.counter_set("viyojit.flush_retries", stats.flush_retries);
        }
        m.gauge_set("viyojit.dirty_pages", dirty as f64);
        m.gauge_set("viyojit.in_flight_pages", in_flight as f64);
        m.gauge_set("viyojit.proactive_threshold", threshold as f64);
        m.gauge_set("viyojit.predicted_pressure", predicted);
    });
    // The bitmap scan total is host-side (how often a run scanned is a
    // wall fact, not a virtual one), so it goes to the wall-plane
    // registry, never the virtual one — snapshots and goldens stay
    // byte-identical.
    core.telemetry
        .set_wall_counter("bitmap.scans", mem_sim::dispatch::snapshot().skip);
    core.ssd.publish_metrics();
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_clock::SimDuration;

    /// `next_due` may be stale-early, never late.
    #[track_caller]
    fn assert_gate_sound<B: DirtyTracker>(nv: &Engine<B>, after: &str) {
        let (gate, due) = (nv.core.next_due, earliest_due::<B>(&nv.core));
        assert!(gate <= due, "after {after}: next_due {gate:?} > {due:?}");
    }

    fn engine<B: DirtyTracker>(budget: u64) -> (Engine<B>, RegionId) {
        let mut nv = Engine::<B>::new(
            64,
            // One page of slack: the copier runs at every epoch that finds
            // the budget full, and still leaves dirty pages to flush by hand.
            ViyojitConfig::builder(budget)
                .threshold_policy(ThresholdPolicy::FixedSlack(1))
                .build()
                .unwrap(),
            Clock::new(),
            CostModel::calibrated(),
            SsdConfig::datacenter(),
        );
        let region = nv.map(32 * PAGE_SIZE as u64).unwrap();
        (nv, region)
    }

    fn write_page<B: DirtyTracker>(nv: &mut Engine<B>, region: RegionId, page: u64) {
        nv.write(region, page * PAGE_SIZE as u64, &[page as u8; 64])
            .unwrap();
    }

    fn next_due_is_never_later_than_the_earliest_due_event<B: DirtyTracker>() {
        let (mut nv, region) = engine::<B>(4);
        assert_gate_sound(&nv, "new");

        // Faults past the budget: forced flushes through the stall loop,
        // which issues, waits and retires outside `poll`.
        for page in 0..12 {
            write_page(&mut nv, region, page);
            assert_gate_sound(&nv, "a faulting write");
        }
        assert!(nv.stats().forced_flushes > 0);

        // `issue_flush` on its own lowers the gate to the new completion...
        issue_one(&mut nv, region, FlushReason::Proactive);
        assert_gate_sound(&nv, "issue_flush");
        let (done, _) = nv.core.inflight[0];
        assert!(done > nv.core.clock.now(), "the IO is still pending");
        // ...so the first access past that instant retires it.
        nv.core.clock.advance_to(done);
        nv.read(region, 0, &mut [0u8; 8]).unwrap();
        assert!(nv.core.inflight.is_empty(), "a due IO hid behind the gate");
        assert_gate_sound(&nv, "a poll that retired an IO");
        assert!(nv.core.next_due > nv.core.clock.now(), "gate re-armed");

        // `retire_completions` outside `poll` leaves the gate stale-early.
        issue_one(&mut nv, region, FlushReason::Forced);
        retire_all(&mut nv);
        assert_gate_sound(&nv, "retire_completions");

        // The §8 budget hook stalls down to the new budget.
        nv.set_dirty_budget(2);
        assert!(nv.dirty_count() <= 2);
        assert_gate_sound(&nv, "set_dirty_budget");
        write_page(&mut nv, region, 20);
        assert_gate_sound(&nv, "a write under the shrunk budget");

        // A long idle gap: `poll` fast-forwards the epochs it skipped.
        nv.core.clock.advance(SimDuration::from_secs(10));
        nv.read(region, 0, &mut [0u8; 8]).unwrap();
        assert!(nv.stats().epochs_fast_forwarded > 0);
        assert_gate_sound(&nv, "the idle fast-forward");
        assert!(nv.core.next_due > nv.core.clock.now(), "gate re-armed");

        // Power failure with an IO in flight, then recovery.
        write_page(&mut nv, region, 21);
        issue_one(&mut nv, region, FlushReason::Forced);
        assert!(!nv.core.inflight.is_empty());
        nv.power_failure();
        assert_gate_sound(&nv, "power_failure");
        nv.recover();
        assert_gate_sound(&nv, "recover");
        for page in 0..8 {
            write_page(&mut nv, region, page);
            assert_gate_sound(&nv, "a write after recovery");
        }
        nv.validate();
    }

    /// Issues one flush by hand, outside `poll`, with the gate armed (past
    /// "now"), so that only `issue_flush` lowering it keeps it sound. The
    /// victim comes from the selector, which the hardware backend only
    /// fills at an epoch walk, so an epoch boundary is crossed first.
    fn issue_one<B: DirtyTracker>(nv: &mut Engine<B>, region: RegionId, reason: FlushReason) {
        nv.core.clock.advance(nv.core.config.epoch);
        loop {
            nv.read(region, 0, &mut [0u8; 8]).unwrap();
            if nv.core.inflight.is_empty() {
                break;
            }
            retire_all(nv);
        }
        assert!(nv.core.next_due > nv.core.clock.now(), "gate armed");
        let victim = nv.core.selector.peek().expect("a flushable dirty page");
        issue_flush(&mut nv.core, &mut nv.backend, victim, reason);
    }

    /// Drains every pending IO the way the stall loop does: advance to
    /// each completion, retire outside `poll`.
    fn retire_all<B: DirtyTracker>(nv: &mut Engine<B>) {
        while let Some(done) = nv.core.inflight.iter().map(|&(t, _)| t).max() {
            nv.core.clock.advance_to(done);
            retire_completions::<B>(&mut nv.core);
        }
    }

    #[test]
    fn next_due_is_sound_on_the_software_walk() {
        next_due_is_never_later_than_the_earliest_due_event::<SoftwareWalk>();
    }

    #[test]
    fn next_due_is_sound_on_the_mmu_assisted_backend() {
        next_due_is_never_later_than_the_earliest_due_event::<MmuAssisted>();
    }

    /// Every power failure runs one executor: an engine failed with no
    /// battery and its twin failed against a battery it cannot exhaust
    /// report the same flush. The tracking backends hold the system up
    /// through the tail of the IO in flight and then drain the three
    /// pages still Dirty: the in-flight page is counted but paid once, by
    /// its tail. The baseline maps half its capacity, so its unmapped
    /// pages are counted but carried by no IO.
    fn one_executor_with_or_without_a_battery<B: DirtyTracker>() {
        let twin = || {
            let (mut nv, region) = engine::<B>(8);
            for page in 0..4 {
                write_page(&mut nv, region, page);
            }
            if B::HAS_CONTROL_LOOP {
                issue_one(&mut nv, region, FlushReason::Forced);
                assert!(!nv.core.inflight.is_empty());
            }
            nv
        };
        let (mut bare, mut raced) = (twin(), twin());
        let now = bare.core.clock.now();
        let tail = bare
            .core
            .inflight
            .iter()
            .map(|&(done, _)| done.saturating_since(now))
            .max()
            .unwrap_or(SimDuration::ZERO);
        let drain = bare.ssd().config().drain_time(PAGE_SIZE as u64);
        let battery = Battery::new(battery_sim::BatteryConfig::with_capacity_joules(1e9));
        let power = PowerModel::datacenter_server(0.064);
        let bare = bare.power_failure();
        let raced = raced.power_failure_powered(&battery, &power);
        assert!(
            raced.energy_margin_joules.is_finite() && raced.energy_margin_joules > 0.0,
            "{raced:?}"
        );
        assert_eq!(
            PowerFailureReport {
                energy_margin_joules: bare.energy_margin_joules,
                ..raced
            },
            bare
        );
        assert!(bare.flush_time >= tail, "{bare:?} ends inside {tail:?}");
        let carried = if B::HAS_CONTROL_LOOP {
            assert_eq!(bare.dirty_pages, 4, "{bare:?}");
            assert_eq!(bare.flush_time, tail + drain * 3, "{bare:?}");
            bare.dirty_pages - 1
        } else {
            32
        };
        assert_eq!(bare.bytes_flushed, carried * PAGE_SIZE as u64, "{bare:?}");
    }

    #[test]
    fn one_executor_with_or_without_a_battery_on_the_software_walk() {
        one_executor_with_or_without_a_battery::<SoftwareWalk>();
    }

    #[test]
    fn one_executor_with_or_without_a_battery_on_the_mmu_assisted_backend() {
        one_executor_with_or_without_a_battery::<MmuAssisted>();
    }

    #[test]
    fn one_executor_with_or_without_a_battery_on_the_baseline() {
        one_executor_with_or_without_a_battery::<FullDirty>();
    }

    /// The in-flight page is paid by its IO's tail, so a battery that dies
    /// inside that tail loses it, alone or with the Dirty page behind it,
    /// as when each was stepped: the outcome is an exhausted battery, not
    /// a complete flush.
    fn a_battery_dead_inside_the_tail_loses_the_page_in_flight<B: DirtyTracker>() {
        for written in 1..=2u64 {
            let (mut nv, region) = engine::<B>(8);
            for page in 0..written {
                write_page(&mut nv, region, page);
            }
            issue_one(&mut nv, region, FlushReason::Forced);
            assert_eq!(nv.core.inflight.len(), 1);
            let battery = Battery::new(
                battery_sim::BatteryConfig::with_capacity_joules(1e-6).with_depth_of_discharge(1.0),
            );
            let power = PowerModel::datacenter_server(0.064);
            let report = nv.power_failure_powered(&battery, &power);
            assert_eq!(
                report.outcome,
                crate::FlushOutcome::BatteryExhausted,
                "{report:?}"
            );
            assert_eq!(
                (report.dirty_pages, report.pages_flushed, report.pages_lost),
                (written, 0, written),
                "{report:?}"
            );
            assert_eq!(report.bytes_flushed, 0, "{report:?}");
            assert!(report.energy_margin_joules < 0.0, "{report:?}");
            nv.recover();
            nv.validate();
        }
    }

    #[test]
    fn a_battery_dead_inside_the_tail_loses_the_page_in_flight_on_the_software_walk() {
        a_battery_dead_inside_the_tail_loses_the_page_in_flight::<SoftwareWalk>();
    }

    #[test]
    fn a_battery_dead_inside_the_tail_loses_the_page_in_flight_on_the_mmu_assisted_backend() {
        a_battery_dead_inside_the_tail_loses_the_page_in_flight::<MmuAssisted>();
    }

    /// A recovery lays back what a power failure lost and nothing else: a
    /// loss-free cycle restores no sector, and a cycle that loses pages
    /// restores exactly the sectors written since their last hand-over.
    fn recovery_restores_exactly_the_lost_sectors<B: DirtyTracker>() {
        let (mut nv, region) = engine::<B>(8);
        let page_bytes = PAGE_SIZE as u64;
        let restored = |nv: &Engine<B>| nv.core.mmu.undo_stats().sectors_restored;
        for page in 0..4u64 {
            nv.write(region, page * page_bytes, &[0xA0 + page as u8; PAGE_SIZE])
                .unwrap();
        }
        assert_eq!(nv.power_failure().pages_lost, 0);
        nv.recover();
        assert_eq!(restored(&nv), 0, "a loss-free cycle restores nothing");

        // Page p rewrites its first p + 1 sectors, and nothing is in flight.
        for page in 0..4u64 {
            nv.write(
                region,
                page * page_bytes,
                &vec![0xB0; 64 * (page as usize + 1)],
            )
            .unwrap();
        }
        retire_all(&mut nv);
        // Hold-up for two and a half page flushes, in ascending page order:
        // pages 0 and 1 land, and of what is lost only pages 2 and 3 were
        // written since their hand-over.
        let power = PowerModel::datacenter_server(0.064);
        let drain = nv.ssd().config().drain_time(5 * page_bytes / 2);
        let battery = Battery::new(
            battery_sim::BatteryConfig::with_capacity_joules(
                drain.as_secs_f64() * power.total_watts(),
            )
            .with_depth_of_discharge(1.0),
        );
        let report = nv.power_failure_powered(&battery, &power);
        assert_eq!(report.bytes_flushed, 2 * page_bytes, "{report:?}");
        // The unmet remainder is what the lost pages' IOs would have
        // carried: the four written pages, or every page the baseline maps.
        let owed = if B::HAS_CONTROL_LOOP { 4 } else { 32 } * page_bytes;
        let unmet = nv.ssd().config().drain_time(owed - report.bytes_flushed);
        assert_eq!(
            report.energy_margin_joules,
            -(unmet.as_secs_f64() * power.total_watts()),
            "{report:?}"
        );
        nv.recover();
        assert_eq!(restored(&nv), 3 + 4, "pages 2 and 3's unsynced sectors");
        for page in 0..4u64 {
            let mut byte = [0u8; 1];
            nv.peek(region, page * page_bytes + 64 * 4, &mut byte)
                .unwrap();
            assert_eq!(
                byte[0],
                0xA0 + page as u8,
                "page {page}'s sector 4 was never rewritten"
            );
            nv.peek(region, page * page_bytes, &mut byte).unwrap();
            let lost = page >= 2;
            assert_eq!(byte[0] == 0xB0, !lost, "page {page} lost: {lost}");
        }
        nv.validate();
    }

    #[test]
    fn recovery_restores_exactly_the_lost_sectors_on_the_software_walk() {
        recovery_restores_exactly_the_lost_sectors::<SoftwareWalk>();
    }

    #[test]
    fn recovery_restores_exactly_the_lost_sectors_on_the_mmu_assisted_backend() {
        recovery_restores_exactly_the_lost_sectors::<MmuAssisted>();
    }

    #[test]
    fn recovery_restores_exactly_the_lost_sectors_on_the_baseline() {
        recovery_restores_exactly_the_lost_sectors::<FullDirty>();
    }

    /// The undo log holds what was written, not whole pages. Only dirty
    /// pages have unsynced sectors, so 64 B rewrites of pages the copier
    /// has handed over, cycling over four times the budget's pages, hold
    /// at most one saved 64 B sector and its 32 B table per page of the
    /// budget.
    #[test]
    fn sector_writes_hold_at_most_a_chunk_per_budget_page() {
        let budget = 8;
        let (mut nv, region) = engine::<SoftwareWalk>(budget);
        for _ in 0..8 {
            for page in 0..4 * budget {
                write_page(&mut nv, region, page);
            }
        }
        let undo = nv.core.mmu.undo_stats();
        assert!(
            undo.partial_saves > 0,
            "no rewrite of a held page: {undo:?}"
        );
        assert!(undo.peak_bytes <= budget * (64 + 32), "{undo:?}");
        nv.validate();
    }

    /// Unmapping a region waits out the flush in flight on one of its
    /// pages, so the freed page leaves no IO behind, and discards the
    /// region's Dirty pages.
    fn unmap_waits_out_the_flush_in_flight<B: DirtyTracker>() {
        let (mut nv, region) = engine::<B>(8);
        for page in 0..4 {
            write_page(&mut nv, region, page);
        }
        issue_one(&mut nv, region, FlushReason::Forced);
        let (_, page) = nv.core.inflight[0];
        assert_eq!(nv.core.pages.state(page), PageState::InFlight);
        let info = nv.core.regions.info(region).unwrap();
        nv.unmap(region).unwrap();
        assert!(
            !nv.core
                .inflight
                .iter()
                .any(|&(_, p)| info.iter_pages().any(|q| q == p)),
            "an IO of the unmapped region is still in flight: {:?}",
            nv.core.inflight
        );
        assert_eq!(nv.dirty_count(), 0);
        nv.validate();
    }

    #[test]
    fn unmap_waits_out_the_flush_in_flight_on_the_software_walk() {
        unmap_waits_out_the_flush_in_flight::<SoftwareWalk>();
    }

    #[test]
    fn unmap_waits_out_the_flush_in_flight_on_the_mmu_assisted_backend() {
        unmap_waits_out_the_flush_in_flight::<MmuAssisted>();
    }

    /// The engine checks the IO list against the page states once, for
    /// every backend: an IO no InFlight page accounts for is a violation.
    fn a_stray_io_breaks_the_invariants<B: DirtyTracker>() {
        let (mut nv, region) = engine::<B>(8);
        write_page(&mut nv, region, 0);
        nv.validate();
        let now = nv.core.clock.now();
        nv.core.inflight.push((now, PageId(1)));
        let pages = nv.core.pages.in_flight_count();
        assert_eq!(
            nv.check_invariants(),
            Err(InvariantViolation::InFlightListMismatch {
                ios: pages + 1,
                pages
            })
        );
    }

    #[test]
    fn a_stray_io_breaks_the_invariants_on_every_backend() {
        a_stray_io_breaks_the_invariants::<SoftwareWalk>();
        a_stray_io_breaks_the_invariants::<MmuAssisted>();
        a_stray_io_breaks_the_invariants::<FullDirty>();
    }

    #[test]
    fn the_baseline_never_has_anything_due() {
        let (mut nv, region) = engine::<FullDirty>(4);
        write_page(&mut nv, region, 0);
        assert_eq!(nv.core.next_due, SimTime::from_nanos(u64::MAX));
        nv.core.clock.advance(SimDuration::from_secs(10));
        write_page(&mut nv, region, 1);
        assert_eq!(nv.stats().epochs, 0);
    }
}
