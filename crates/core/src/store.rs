//! The public store abstraction: everything a driver, benchmark, or
//! application needs from an NV-DRAM layer beyond the raw [`NvHeap`]
//! mapping surface.
//!
//! The bench crate used to improvise this privately; promoting it makes
//! new store variants (sharded managers, alternative trackers) usable by
//! the experiment driver, the examples, and the cross-crate tests with
//! no driver changes. Since the engine unification a single generic impl
//! covers every [`Engine`] backend; the sharded frontend and the baseline
//! wrapper add their own.

use fault_sim::FaultPlan;
use sim_clock::Clock;
use telemetry::{Profiler, Telemetry};

use crate::engine::{DirtyTracker, Engine, ShardedViyojit};
use crate::{NvHeap, NvdramBaseline, PowerFailureReport, ViyojitStats};

/// A complete NV-DRAM store: heap mapping plus the instrumentation and
/// power-failure surface shared by every implementation.
///
/// Implemented generically for every [`Engine`] backend — so by
/// [`Viyojit`](crate::Viyojit) (the paper's software manager) and
/// [`MmuAssistedViyojit`](crate::MmuAssistedViyojit) (the §5.4 hardware
/// offload) — and separately by [`NvdramBaseline`] (the full-battery
/// comparison system) and [`ShardedViyojit`] (the multi-shard frontend).
///
/// # Examples
///
/// ```
/// use sim_clock::{Clock, CostModel};
/// use ssd_sim::SsdConfig;
/// use viyojit::{NvStore, Viyojit, ViyojitConfig};
///
/// fn exercise<S: NvStore>(mut store: S) -> u64 {
///     let r = store.map(4096 * 8).unwrap();
///     store.write(r, 0, b"generic over any store").unwrap();
///     store.power_failure().dirty_pages
/// }
///
/// let v = Viyojit::new(
///     64,
///     ViyojitConfig::builder(8).build().unwrap(),
///     Clock::new(),
///     CostModel::free(),
///     SsdConfig::instant(),
/// );
/// assert!(exercise(v) <= 8);
/// ```
pub trait NvStore: NvHeap {
    /// Display name of the system ("Viyojit", "Viyojit-MMU", "NV-DRAM").
    fn system(&self) -> &'static str;

    /// A handle on the store's virtual clock.
    fn shared_clock(&self) -> Clock;

    /// Attaches a telemetry handle to the store (and its backing SSD).
    fn attach_telemetry(&mut self, telemetry: Telemetry);

    /// Attaches a virtual-time profiler to the store (and its MMU and
    /// SSD). The default ignores the handle — stores without span
    /// instrumentation simply record nothing.
    fn attach_profiler(&mut self, _profiler: Profiler) {}

    /// Attaches a fault-injection plan to the store (and its backing
    /// SSD). The default ignores the plan — stores without fault support
    /// simply never inject.
    fn attach_faults(&mut self, _faults: FaultPlan) {}

    /// Runtime counters, if the store tracks dirty state (`None` for the
    /// baseline, which has nothing to track).
    fn runtime_stats(&self) -> Option<ViyojitStats>;

    /// Bytes the store has written to its backing SSD so far.
    fn ssd_bytes_written(&self) -> u64;

    /// Erase-block cycles the store has cost its backing SSD so far.
    fn ssd_erases(&self) -> u64;

    /// Simulates an external power failure, flushing whatever the design
    /// obliges the battery to flush.
    fn power_failure(&mut self) -> PowerFailureReport;

    /// Rebuilds NV-DRAM from the SSD after a power cycle.
    fn recover(&mut self);
}

impl<B: DirtyTracker> NvStore for Engine<B> {
    fn system(&self) -> &'static str {
        B::SYSTEM
    }
    fn shared_clock(&self) -> Clock {
        self.clock().clone()
    }
    fn attach_telemetry(&mut self, telemetry: Telemetry) {
        Engine::attach_telemetry(self, telemetry);
    }
    fn attach_profiler(&mut self, profiler: Profiler) {
        Engine::attach_profiler(self, profiler);
    }
    fn attach_faults(&mut self, faults: FaultPlan) {
        Engine::attach_faults(self, faults);
    }
    fn runtime_stats(&self) -> Option<ViyojitStats> {
        B::HAS_CONTROL_LOOP.then(|| self.stats())
    }
    fn ssd_bytes_written(&self) -> u64 {
        self.ssd_stats().bytes_written
    }
    fn ssd_erases(&self) -> u64 {
        self.ssd().wear().total_erases()
    }
    fn power_failure(&mut self) -> PowerFailureReport {
        Engine::power_failure(self)
    }
    fn recover(&mut self) {
        Engine::recover(self);
    }
}

impl NvStore for NvdramBaseline {
    fn system(&self) -> &'static str {
        "NV-DRAM"
    }
    fn shared_clock(&self) -> Clock {
        self.clock().clone()
    }
    fn attach_telemetry(&mut self, telemetry: Telemetry) {
        NvdramBaseline::attach_telemetry(self, telemetry);
    }
    fn attach_profiler(&mut self, profiler: Profiler) {
        NvdramBaseline::attach_profiler(self, profiler);
    }
    fn attach_faults(&mut self, faults: FaultPlan) {
        NvdramBaseline::attach_faults(self, faults);
    }
    fn runtime_stats(&self) -> Option<ViyojitStats> {
        None
    }
    fn ssd_bytes_written(&self) -> u64 {
        self.ssd().stats().bytes_written
    }
    fn ssd_erases(&self) -> u64 {
        self.ssd().wear().total_erases()
    }
    fn power_failure(&mut self) -> PowerFailureReport {
        NvdramBaseline::power_failure(self)
    }
    fn recover(&mut self) {
        NvdramBaseline::recover(self);
    }
}

impl<B: DirtyTracker> NvStore for ShardedViyojit<B> {
    fn system(&self) -> &'static str {
        "Viyojit-Sharded"
    }
    fn shared_clock(&self) -> Clock {
        self.clock().clone()
    }
    fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.install_telemetry(telemetry);
    }
    fn attach_profiler(&mut self, profiler: Profiler) {
        self.install_profiler(profiler);
    }
    fn attach_faults(&mut self, faults: FaultPlan) {
        self.install_faults(faults);
    }
    fn runtime_stats(&self) -> Option<ViyojitStats> {
        Some(self.stats())
    }
    fn ssd_bytes_written(&self) -> u64 {
        self.ssd_stats().bytes_written
    }
    fn ssd_erases(&self) -> u64 {
        (0..self.shard_count())
            .map(|i| self.shard(i).ssd().wear().total_erases())
            .sum()
    }
    fn power_failure(&mut self) -> PowerFailureReport {
        ShardedViyojit::power_failure(self)
    }
    fn recover(&mut self) {
        ShardedViyojit::recover(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MmuAssistedViyojit, Viyojit, ViyojitConfig};
    use sim_clock::{CostModel, SimDuration};
    use ssd_sim::SsdConfig;
    use telemetry::TraceEvent;

    fn drive<S: NvStore>(mut store: S) -> (u64, SimDuration) {
        let r = store.map(4096 * 8).unwrap();
        for i in 0..8u64 {
            store.write(r, i * 4096, &[i as u8; 32]).unwrap();
        }
        let report = store.power_failure();
        store.recover();
        (report.dirty_pages, report.flush_time)
    }

    #[test]
    fn all_three_stores_drive_through_the_trait() {
        let cfg = || ViyojitConfig::with_budget_pages(4);
        let v = Viyojit::new(
            64,
            cfg(),
            Clock::new(),
            CostModel::free(),
            SsdConfig::instant(),
        );
        let hw = MmuAssistedViyojit::new(
            64,
            cfg(),
            Clock::new(),
            CostModel::free(),
            SsdConfig::instant(),
        );
        let base = NvdramBaseline::new(64, Clock::new(), CostModel::free(), SsdConfig::instant());
        assert_eq!(v.system(), "Viyojit");
        assert_eq!(hw.system(), "Viyojit-MMU");
        assert_eq!(base.system(), "NV-DRAM");
        assert!(drive(v).0 <= 4);
        assert!(drive(hw).0 <= 4);
        assert_eq!(drive(base).0, 64, "baseline backs up everything");
    }

    #[test]
    fn telemetry_attaches_through_the_trait() {
        let clock = Clock::new();
        let telemetry = Telemetry::recording(clock.clone());
        let mut v: Box<dyn NvStore> = Box::new(Viyojit::new(
            64,
            ViyojitConfig::with_budget_pages(2),
            clock.clone(),
            CostModel::free(),
            SsdConfig::instant(),
        ));
        v.attach_telemetry(telemetry.clone());
        let r = v.map(4096 * 8).unwrap();
        for i in 0..8u64 {
            v.write(r, i * 4096, &[1]).unwrap();
        }
        let events = telemetry.events();
        assert!(events
            .iter()
            .any(|e| matches!(e.event, TraceEvent::WriteFault { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.event, TraceEvent::SsdSubmit { .. })));
    }

    #[test]
    fn the_sharded_store_drives_through_the_trait() {
        let sharded = crate::ShardedViyojitBuilder::new(2, 64, ViyojitConfig::with_budget_pages(8))
            .min_per_shard(2)
            .rebalance_period(SimDuration::from_millis(1))
            .build_sequential()
            .expect("a valid sharded configuration");
        assert_eq!(sharded.system(), "Viyojit-Sharded");
        assert!(sharded.runtime_stats().is_some());
        let (dirty, _) = drive(sharded);
        assert!(dirty <= 8, "global budget bounds the sharded flush");
    }
}
