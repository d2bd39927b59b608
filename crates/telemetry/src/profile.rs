//! Causal, span-based virtual-time profiler.
//!
//! Every virtual nanosecond that the simulation charges to the shared
//! [`sim_clock::Clock`] is attributed to exactly one *leaf span*. A span
//! carries a [`CostClass`] (write-protection trap, TLB flush, budget
//! stall, ...) and spans nest causally: an epoch walk that issues a
//! proactive flush whose PTE update charges time yields the folded path
//! `app;epoch_walk;pte_update`. The root frame `app` absorbs all time
//! not inside any span — application work between instrumented sites.
//!
//! # Conservation
//!
//! Attribution uses a watermark: the profiler remembers the last instant
//! (`mark`) it accounted up to, and every instrumented site moves the
//! watermark forward, crediting the interval to the current span path.
//! By construction the folded totals sum to *exactly* the clock time
//! elapsed since the profiler was enabled — the invariant
//! `Σ leaf spans == clock elapsed` checked by
//! [`ProfileReport::is_conserved`] and by `viyojit-trace check`.
//!
//! Time that does not flow through the shared clock is tracked
//! separately and never counted against conservation:
//!
//! - *device time* (SSD queue wait and transfer time overlap wall time
//!   across channels), and
//! - the *local shutdown timeline* of the emergency flush executor.
//!
//! Both land in the auxiliary table ([`ProfileReport::aux`]).
//!
//! # Determinism
//!
//! Like [`crate::Telemetry`], a profiler observes the clock and never
//! advances it. The default handle is disabled and constructs nothing,
//! so runs with profiling off are bit-identical to uninstrumented runs.
//!
//! # Example
//!
//! ```
//! use sim_clock::{Clock, SimDuration};
//! use telemetry::{CostClass, Profiler};
//!
//! let clock = Clock::new();
//! let profiler = Profiler::enabled(clock.clone());
//!
//! clock.advance(SimDuration::from_micros(10)); // plain application work
//! {
//!     let _walk = profiler.span(CostClass::EpochWalk);
//!     clock.advance(SimDuration::from_micros(3)); // walk bookkeeping
//!     clock.advance(SimDuration::from_nanos(400)); // a PTE permission flip
//!     profiler.charge(CostClass::PteUpdate, SimDuration::from_nanos(400));
//! }
//!
//! let report = profiler.report().unwrap();
//! assert!(report.is_conserved());
//! assert_eq!(report.nanos_for("app"), 10_000);
//! assert_eq!(report.nanos_for("app;epoch_walk"), 3_000);
//! assert_eq!(report.nanos_for("app;epoch_walk;pte_update"), 400);
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use sim_clock::{Clock, SimDuration, SimTime};

/// Name of the implicit root frame absorbing unattributed time.
pub const ROOT_FRAME: &str = "app";

/// The mechanism a slice of virtual time is attributed to.
///
/// Each class maps 1:1 onto a stable lowercase frame name used in folded
/// stacks, `ProfileReport` tables, and the `viyojit-trace` CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CostClass {
    /// Write-protection trap: the fault itself plus its handling.
    WpTrap,
    /// TLB miss charged on address translation.
    TlbMiss,
    /// TLB hit charged on address translation.
    TlbHit,
    /// Whole-TLB invalidation (epoch boundary shootdown).
    TlbFlush,
    /// PTE permission change (protect/unprotect).
    PteUpdate,
    /// Per-PTE walk step during a dirty-bit scan.
    PteWalk,
    /// DRAM line transfer charged on reads/writes.
    DramAccess,
    /// Epoch-boundary bookkeeping: walk, threshold update, snapshots.
    EpochWalk,
    /// Waiting for a specific page's copy-out IO to land.
    CopyOutIo,
    /// Stalled because the dirty budget was exhausted.
    BudgetStall,
    /// Emergency flush executor (local shutdown timeline).
    EmergencyFlush,
    /// Retry/backoff of a failed flush attempt.
    FaultRetry,
    /// Degradation-governor decision and budget application.
    GovernorAction,
    /// SSD device: request waiting for a free channel.
    SsdQueueWait,
    /// SSD device: program latency plus bus transfer.
    SsdTransfer,
}

impl CostClass {
    /// Every cost class, in a stable order.
    pub const ALL: [CostClass; 15] = [
        CostClass::WpTrap,
        CostClass::TlbMiss,
        CostClass::TlbHit,
        CostClass::TlbFlush,
        CostClass::PteUpdate,
        CostClass::PteWalk,
        CostClass::DramAccess,
        CostClass::EpochWalk,
        CostClass::CopyOutIo,
        CostClass::BudgetStall,
        CostClass::EmergencyFlush,
        CostClass::FaultRetry,
        CostClass::GovernorAction,
        CostClass::SsdQueueWait,
        CostClass::SsdTransfer,
    ];

    /// Stable frame name used in folded stacks and reports.
    pub const fn name(self) -> &'static str {
        match self {
            CostClass::WpTrap => "wp_trap",
            CostClass::TlbMiss => "tlb_miss",
            CostClass::TlbHit => "tlb_hit",
            CostClass::TlbFlush => "tlb_flush",
            CostClass::PteUpdate => "pte_update",
            CostClass::PteWalk => "pte_walk",
            CostClass::DramAccess => "dram_access",
            CostClass::EpochWalk => "epoch_walk",
            CostClass::CopyOutIo => "copy_out_io",
            CostClass::BudgetStall => "budget_stall",
            CostClass::EmergencyFlush => "emergency_flush",
            CostClass::FaultRetry => "fault_retry",
            CostClass::GovernorAction => "governor_action",
            CostClass::SsdQueueWait => "ssd_queue_wait",
            CostClass::SsdTransfer => "ssd_transfer",
        }
    }
}

impl fmt::Display for CostClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct AuxSample {
    count: u64,
    nanos: u64,
}

#[derive(Debug)]
struct ProfilerState {
    clock: Clock,
    origin: SimTime,
    /// Everything up to this instant has been attributed.
    mark: SimTime,
    /// Open frames: `(leaf name, path length before this frame)`.
    frames: Vec<(&'static str, usize)>,
    /// Current folded path, always starting with [`ROOT_FRAME`].
    path: String,
    /// Self time per folded path.
    folded: BTreeMap<String, u64>,
    /// Self time per leaf frame name, across all paths.
    by_class: BTreeMap<&'static str, u64>,
    /// Self time per leaf frame name, split by epoch.
    by_epoch: BTreeMap<u64, BTreeMap<&'static str, u64>>,
    epoch: u64,
    /// Off-clock accounting (device time, shutdown timeline).
    aux: BTreeMap<&'static str, AuxSample>,
}

impl ProfilerState {
    fn new(clock: Clock) -> Self {
        let origin = clock.now();
        ProfilerState {
            clock,
            origin,
            mark: origin,
            frames: Vec::new(),
            path: String::from(ROOT_FRAME),
            folded: BTreeMap::new(),
            by_class: BTreeMap::new(),
            by_epoch: BTreeMap::new(),
            epoch: 0,
            aux: BTreeMap::new(),
        }
    }

    fn leaf(&self) -> &'static str {
        self.frames.last().map(|f| f.0).unwrap_or(ROOT_FRAME)
    }

    /// Credits `nanos` of self time to the current path.
    fn attribute(&mut self, nanos: u64) {
        if nanos == 0 {
            return;
        }
        *self.folded.entry(self.path.clone()).or_insert(0) += nanos;
        let leaf = self.leaf();
        *self.by_class.entry(leaf).or_insert(0) += nanos;
        *self
            .by_epoch
            .entry(self.epoch)
            .or_default()
            .entry(leaf)
            .or_insert(0) += nanos;
    }

    /// Moves the watermark to "now", crediting the interval to the
    /// current span.
    fn sync(&mut self) {
        let now = self.clock.now();
        let elapsed = now.saturating_since(self.mark).as_nanos();
        self.attribute(elapsed);
        self.mark = now;
    }

    fn push(&mut self, name: &'static str) {
        self.sync();
        self.frames.push((name, self.path.len()));
        self.path.push(';');
        self.path.push_str(name);
    }

    fn pop(&mut self) {
        self.sync();
        if let Some((_, len)) = self.frames.pop() {
            self.path.truncate(len);
        }
    }

    /// Attributes a known-size charge to `class` nested under the
    /// current span, and any preceding unaccounted time to the current
    /// span itself.
    fn charge(&mut self, class: CostClass, d: SimDuration) {
        let now = self.clock.now();
        let total = now.saturating_since(self.mark).as_nanos();
        let slice = d.as_nanos().min(total);
        self.attribute(total - slice);
        if slice > 0 {
            let len = self.path.len();
            self.frames.push((class.name(), len));
            self.path.push(';');
            self.path.push_str(class.name());
            self.attribute(slice);
            self.frames.pop();
            self.path.truncate(len);
        }
        self.mark = now;
    }

    fn aux_charge(&mut self, class: CostClass, d: SimDuration) {
        let entry = self.aux.entry(class.name()).or_default();
        entry.count += 1;
        entry.nanos += d.as_nanos();
    }

    fn set_epoch(&mut self, epoch: u64) {
        self.sync();
        self.epoch = epoch;
    }

    fn report(&mut self) -> ProfileReport {
        self.sync();
        let attributed: u64 = self.folded.values().sum();
        ProfileReport {
            elapsed: self.mark.saturating_since(self.origin),
            attributed: SimDuration::from_nanos(attributed),
            folded: self
                .folded
                .iter()
                .map(|(path, nanos)| (path.clone(), *nanos))
                .collect(),
            by_class: self.by_class.iter().map(|(n, v)| (*n, *v)).collect(),
            by_epoch: self
                .by_epoch
                .iter()
                .map(|(epoch, classes)| (*epoch, classes.iter().map(|(n, v)| (*n, *v)).collect()))
                .collect(),
            aux: self
                .aux
                .iter()
                .map(|(name, s)| (*name, s.count, s.nanos))
                .collect(),
        }
    }
}

/// Shared, cheaply clonable profiler handle.
///
/// Mirrors [`crate::Telemetry`]: the default handle is disabled and
/// constructs nothing; an enabled handle attributes every clock advance
/// to the innermost open span. All clones share one attribution state,
/// so the engine, MMU, and SSD cooperate on a single span stack.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    state: Option<Arc<Mutex<ProfilerState>>>,
}

impl Profiler {
    /// A disabled handle: attributes nothing, costs one branch per hook.
    pub fn disabled() -> Self {
        Profiler::default()
    }

    /// An enabled handle whose origin (and watermark) is `clock.now()`.
    pub fn enabled(clock: Clock) -> Self {
        Profiler {
            state: Some(Arc::new(Mutex::new(ProfilerState::new(clock)))),
        }
    }

    /// Whether this handle attributes anything.
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// A per-thread fork: a fresh profiler over `clock`, enabled exactly
    /// when this handle is enabled.
    ///
    /// The parallel sharded runtime cannot share one span stack across
    /// threads (spans would interleave nonsensically), so each shard
    /// thread forks the configured profiler against its own clock and the
    /// per-thread reports are collected separately.
    pub fn fork(&self, clock: Clock) -> Profiler {
        if self.is_enabled() {
            Profiler::enabled(clock)
        } else {
            Profiler::disabled()
        }
    }

    /// Opens a span for `class`; the span closes when the guard drops.
    ///
    /// Time elapsed before the span opens is credited to the enclosing
    /// span; time inside it (not claimed by nested spans or charges) is
    /// credited to this span.
    #[must_use = "the span closes when the guard is dropped"]
    pub fn span(&self, class: CostClass) -> SpanGuard {
        self.scope(class.name())
    }

    /// Opens a span with an arbitrary (interned) frame name.
    ///
    /// Used for grouping frames that are not cost classes, e.g. the
    /// per-shard `shard<N>` frames of the sharded manager.
    #[must_use = "the span closes when the guard is dropped"]
    #[inline]
    pub fn scope(&self, name: &'static str) -> SpanGuard {
        match &self.state {
            None => SpanGuard { state: None },
            Some(state) => open(state, name),
        }
    }

    /// Attributes a known-size charge (the cost-model amount just added
    /// to the clock) to `class`, nested under the current span.
    ///
    /// Any clock movement since the last accounting that *precedes* the
    /// charge is credited to the enclosing span, keeping attribution
    /// exact without requiring every site to open a span.
    #[inline]
    pub fn charge(&self, class: CostClass, d: SimDuration) {
        if let Some(state) = &self.state {
            locked(state).charge(class, d);
        }
    }

    /// Records off-clock time (device time, shutdown timeline) for
    /// `class` in the auxiliary table. Does not affect conservation.
    #[inline]
    pub fn aux_charge(&self, class: CostClass, d: SimDuration) {
        if let Some(state) = &self.state {
            locked(state).aux_charge(class, d);
        }
    }

    /// Switches the per-epoch attribution bucket, crediting time up to
    /// "now" to the previous epoch.
    pub fn set_epoch(&self, epoch: u64) {
        if let Some(state) = &self.state {
            locked(state).set_epoch(epoch);
        }
    }

    /// Moves the watermark to "now", crediting elapsed time to the
    /// current span.
    pub fn sync(&self) {
        if let Some(state) = &self.state {
            locked(state).sync();
        }
    }

    /// Snapshots attribution into a [`ProfileReport`] (`None` when
    /// disabled). Syncs first, so the report is conserved as of "now".
    pub fn report(&self) -> Option<ProfileReport> {
        self.state.as_ref().map(|state| locked(state).report())
    }
}

/// RAII guard closing a span opened by [`Profiler::span`]/[`Profiler::scope`].
#[derive(Debug)]
pub struct SpanGuard {
    state: Option<Arc<Mutex<ProfilerState>>>,
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(state) = &self.state {
            locked(state).pop();
        }
    }
}

/// The attribution state behind an enabled handle, locked: out of line,
/// so a disabled handle's hooks stay one inlined branch.
#[inline(never)]
fn locked(state: &Mutex<ProfilerState>) -> std::sync::MutexGuard<'_, ProfilerState> {
    state.lock().expect("profiler poisoned")
}

/// Opens a span named `name` on an enabled handle's state.
#[inline(never)]
fn open(state: &Arc<Mutex<ProfilerState>>, name: &'static str) -> SpanGuard {
    locked(state).push(name);
    SpanGuard {
        state: Some(Arc::clone(state)),
    }
}

/// Per-cost-class and per-epoch virtual-time breakdown.
///
/// Produced by [`Profiler::report`]. All durations are self time: the
/// folded table sums to [`ProfileReport::elapsed`] exactly when the
/// conservation invariant holds (it does by construction; see
/// [`ProfileReport::is_conserved`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// Clock time elapsed between enabling the profiler and the report.
    pub elapsed: SimDuration,
    /// Sum of all folded self times; equals `elapsed` when conserved.
    pub attributed: SimDuration,
    /// `(folded path, self nanos)` rows, lexicographic by path.
    pub folded: Vec<(String, u64)>,
    /// `(leaf frame name, self nanos)` rows across all paths.
    pub by_class: Vec<(&'static str, u64)>,
    /// Per-epoch `(leaf frame name, self nanos)` rows.
    pub by_epoch: Vec<(u64, Vec<(&'static str, u64)>)>,
    /// Off-clock accounting: `(class name, count, nanos)`.
    pub aux: Vec<(&'static str, u64, u64)>,
}

impl ProfileReport {
    /// Whether every elapsed nanosecond was attributed to exactly one
    /// leaf span: `Σ leaf spans == clock elapsed`.
    pub fn is_conserved(&self) -> bool {
        self.elapsed == self.attributed
    }

    /// Self nanos attributed to a folded path (0 when absent).
    pub fn nanos_for(&self, path: &str) -> u64 {
        self.folded
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    /// Self nanos attributed to a leaf frame across all paths.
    pub fn class_nanos(&self, name: &str) -> u64 {
        self.by_class
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Renders the folded-stack format consumed by `inferno` /
    /// `flamegraph.pl`: one `path value` line per folded path.
    pub fn render_folded(&self) -> String {
        let mut out = String::new();
        for (path, nanos) in &self.folded {
            out.push_str(path);
            out.push(' ');
            out.push_str(&nanos.to_string());
            out.push('\n');
        }
        out
    }

    /// Writes [`ProfileReport::render_folded`] to a writer.
    pub fn write_folded<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(self.render_folded().as_bytes())
    }
}

/// Run identity stamped at the head of every trace.
///
/// `viyojit-trace diff` refuses to compare two traces whose
/// `config_hash` or `backend` differ (unless forced), so regressions are
/// only ever reported between comparable runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Crate version of the writer (`CARGO_PKG_VERSION`).
    pub version: String,
    /// Bench or tool that produced the trace (e.g. `fig7`).
    pub bench: String,
    /// Engine backend label (e.g. `Viyojit`, `Viyojit-MMU`, `NV-DRAM`).
    pub backend: String,
    /// Stable FNV-1a hash of the rendered experiment configuration.
    pub config_hash: u64,
    /// Fault-injection seed, when fault injection was active.
    pub fault_seed: Option<u64>,
}

impl RunMeta {
    /// Builds a header for `bench` running `backend` with the given
    /// rendered configuration (hashed with [`fnv1a_64`]).
    pub fn new(bench: &str, backend: &str, config_text: &str, fault_seed: Option<u64>) -> Self {
        RunMeta {
            version: env!("CARGO_PKG_VERSION").to_string(),
            bench: bench.to_string(),
            backend: backend.to_string(),
            config_hash: fnv1a_64(config_text.as_bytes()),
            fault_seed,
        }
    }
}

/// 64-bit FNV-1a. Stable across platforms and Rust versions, unlike
/// `DefaultHasher`, so config hashes written into traces stay comparable
/// between runs of different builds.
pub use sim_clock::fnv1a_64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_constructs_nothing() {
        let profiler = Profiler::disabled();
        assert!(!profiler.is_enabled());
        let _guard = profiler.span(CostClass::WpTrap);
        profiler.charge(CostClass::TlbMiss, SimDuration::from_nanos(120));
        assert!(profiler.report().is_none());
    }

    #[test]
    fn unattributed_time_lands_on_the_root_frame() {
        let clock = Clock::new();
        let profiler = Profiler::enabled(clock.clone());
        clock.advance(SimDuration::from_micros(5));
        let report = profiler.report().unwrap();
        assert!(report.is_conserved());
        assert_eq!(report.nanos_for(ROOT_FRAME), 5_000);
    }

    #[test]
    fn spans_nest_and_conserve() {
        let clock = Clock::new();
        let profiler = Profiler::enabled(clock.clone());
        clock.advance(SimDuration::from_nanos(100));
        {
            let _fault = profiler.span(CostClass::WpTrap);
            clock.advance(SimDuration::from_nanos(40));
            {
                let _stall = profiler.span(CostClass::BudgetStall);
                clock.advance(SimDuration::from_nanos(60));
            }
            clock.advance(SimDuration::from_nanos(7));
        }
        let report = profiler.report().unwrap();
        assert!(report.is_conserved());
        assert_eq!(report.elapsed.as_nanos(), 207);
        assert_eq!(report.nanos_for("app"), 100);
        assert_eq!(report.nanos_for("app;wp_trap"), 47);
        assert_eq!(report.nanos_for("app;wp_trap;budget_stall"), 60);
        assert_eq!(report.class_nanos("wp_trap"), 47);
    }

    #[test]
    fn charge_splits_preceding_time_from_the_charge() {
        let clock = Clock::new();
        let profiler = Profiler::enabled(clock.clone());
        let _walk = profiler.span(CostClass::EpochWalk);
        clock.advance(SimDuration::from_nanos(30)); // walk bookkeeping
        clock.advance(SimDuration::from_nanos(400)); // the PTE charge
        profiler.charge(CostClass::PteUpdate, SimDuration::from_nanos(400));
        drop(_walk);
        let report = profiler.report().unwrap();
        assert!(report.is_conserved());
        assert_eq!(report.nanos_for("app;epoch_walk"), 30);
        assert_eq!(report.nanos_for("app;epoch_walk;pte_update"), 400);
    }

    #[test]
    fn charge_clamps_to_actual_clock_movement() {
        let clock = Clock::new();
        let profiler = Profiler::enabled(clock.clone());
        clock.advance(SimDuration::from_nanos(10));
        // Claimed charge exceeds what the clock actually moved.
        profiler.charge(CostClass::TlbMiss, SimDuration::from_nanos(1_000));
        let report = profiler.report().unwrap();
        assert!(report.is_conserved());
        assert_eq!(report.nanos_for("app;tlb_miss"), 10);
    }

    #[test]
    fn epochs_partition_attribution() {
        let clock = Clock::new();
        let profiler = Profiler::enabled(clock.clone());
        clock.advance(SimDuration::from_nanos(11));
        profiler.set_epoch(1);
        clock.advance(SimDuration::from_nanos(22));
        let report = profiler.report().unwrap();
        assert_eq!(report.by_epoch.len(), 2);
        assert_eq!(report.by_epoch[0], (0, vec![("app", 11)]));
        assert_eq!(report.by_epoch[1], (1, vec![("app", 22)]));
    }

    #[test]
    fn aux_charges_do_not_affect_conservation() {
        let clock = Clock::new();
        let profiler = Profiler::enabled(clock.clone());
        clock.advance(SimDuration::from_nanos(5));
        profiler.aux_charge(CostClass::SsdTransfer, SimDuration::from_micros(30));
        profiler.aux_charge(CostClass::SsdTransfer, SimDuration::from_micros(30));
        let report = profiler.report().unwrap();
        assert!(report.is_conserved());
        assert_eq!(report.elapsed.as_nanos(), 5);
        assert_eq!(report.aux, vec![("ssd_transfer", 2, 60_000)]);
    }

    #[test]
    fn folded_rendering_matches_flamegraph_format() {
        let clock = Clock::new();
        let profiler = Profiler::enabled(clock.clone());
        clock.advance(SimDuration::from_nanos(3));
        {
            let _s = profiler.span(CostClass::TlbFlush);
            clock.advance(SimDuration::from_nanos(9));
        }
        let folded = profiler.report().unwrap().render_folded();
        assert_eq!(folded, "app 3\napp;tlb_flush 9\n");
    }

    #[test]
    fn clones_share_one_span_stack() {
        let clock = Clock::new();
        let a = Profiler::enabled(clock.clone());
        let b = a.clone();
        let _span = a.span(CostClass::CopyOutIo);
        clock.advance(SimDuration::from_nanos(8));
        b.sync();
        let report = b.report().unwrap();
        assert_eq!(report.nanos_for("app;copy_out_io"), 8);
    }
}
