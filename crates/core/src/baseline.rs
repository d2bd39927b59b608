//! The comparison system: the full-battery NV-DRAM baseline the paper
//! evaluates against.

use mem_sim::MmuStats;
use sim_clock::{Clock, CostModel};
use ssd_sim::{Ssd, SsdConfig};

use crate::engine::{Engine, FullDirty};
use crate::{NvHeap, PowerFailureReport, RegionId, ViyojitConfig, ViyojitError};

/// State-of-the-art battery-backed DRAM: a battery sized for the *entire*
/// NV-DRAM capacity, so no tracking, no write protection, and no copy-out
/// traffic. This is the "NV-DRAM" baseline of Figs. 7-8.
///
/// A thin wrapper over [`Engine`] with the [`FullDirty`] backend (a
/// wrapper rather than an alias because the baseline takes no
/// [`ViyojitConfig`] — there is no budget to configure).
///
/// # Examples
///
/// ```
/// use sim_clock::{Clock, CostModel};
/// use ssd_sim::SsdConfig;
/// use viyojit::{NvdramBaseline, NvHeap};
///
/// let mut base = NvdramBaseline::new(16, Clock::new(), CostModel::free(), SsdConfig::instant());
/// let r = base.map(100)?;
/// base.write(r, 0, b"no faults ever")?;
/// # Ok::<(), viyojit::ViyojitError>(())
/// ```
#[derive(Debug)]
pub struct NvdramBaseline(Engine<FullDirty>);

impl NvdramBaseline {
    /// Creates a baseline over `total_pages` of NV-DRAM.
    pub fn new(total_pages: usize, clock: Clock, costs: CostModel, ssd_config: SsdConfig) -> Self {
        // The config is inert: the FullDirty backend bounds nothing.
        let config = ViyojitConfig::with_budget_pages(total_pages.max(1) as u64);
        NvdramBaseline(Engine::new(total_pages, config, clock, costs, ssd_config))
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Clock {
        self.0.clock()
    }

    /// MMU access counters.
    pub fn mmu_stats(&self) -> MmuStats {
        self.0.mmu_stats()
    }

    /// The backing SSD.
    pub fn ssd(&self) -> &Ssd {
        self.0.ssd()
    }

    /// Attaches a telemetry handle. The baseline itself emits no control
    /// flow (no faults, no budget), so this only instruments its SSD.
    pub fn attach_telemetry(&mut self, telemetry: telemetry::Telemetry) {
        self.0.attach_telemetry(telemetry);
    }

    /// Attaches a virtual-time profiler. The baseline has no control loop
    /// to span, so this instruments only the MMU access costs and the
    /// SSD's device-time accounting.
    pub fn attach_profiler(&mut self, profiler: telemetry::Profiler) {
        self.0.attach_profiler(profiler);
    }

    /// Attaches a fault-injection plan (shared with the backing SSD).
    pub fn attach_faults(&mut self, faults: fault_sim::FaultPlan) {
        self.0.attach_faults(faults);
    }

    /// Simulates a power failure. The baseline must assume *everything*
    /// could be dirty, so the battery obligation is the entire NV-DRAM
    /// capacity — the scaling problem Viyojit removes.
    pub fn power_failure(&mut self) -> PowerFailureReport {
        self.0.power_failure()
    }

    /// Reloads NV-DRAM from the SSD after a power cycle.
    pub fn recover(&mut self) {
        self.0.recover();
    }
}

impl NvHeap for NvdramBaseline {
    fn map(&mut self, len_bytes: u64) -> Result<RegionId, ViyojitError> {
        self.0.map(len_bytes)
    }

    fn unmap(&mut self, region: RegionId) -> Result<(), ViyojitError> {
        self.0.unmap(region)
    }

    fn read(&mut self, region: RegionId, offset: u64, buf: &mut [u8]) -> Result<(), ViyojitError> {
        self.0.read(region, offset, buf)
    }

    fn write(&mut self, region: RegionId, offset: u64, data: &[u8]) -> Result<(), ViyojitError> {
        self.0.write(region, offset, data)
    }

    fn region_len(&self, region: RegionId) -> Result<u64, ViyojitError> {
        self.0.region_len(region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NvHeap;
    use mem_sim::PAGE_SIZE;

    #[test]
    fn baseline_never_faults() {
        let mut b = NvdramBaseline::new(8, Clock::new(), CostModel::free(), SsdConfig::instant());
        let r = b.map(PAGE_SIZE as u64 * 4).unwrap();
        for i in 0..4u64 {
            b.write(r, i * PAGE_SIZE as u64, &[i as u8; 64]).unwrap();
        }
        assert_eq!(b.mmu_stats().write_faults, 0);
        let mut buf = [0u8; 64];
        b.read(r, 3 * PAGE_SIZE as u64, &mut buf).unwrap();
        assert_eq!(buf, [3u8; 64]);
    }

    #[test]
    fn baseline_battery_obligation_is_full_capacity() {
        let mut b = NvdramBaseline::new(100, Clock::new(), CostModel::free(), SsdConfig::instant());
        let _ = b.map(PAGE_SIZE as u64).unwrap();
        let report = b.power_failure();
        assert_eq!(report.dirty_pages, 100, "baseline must back up everything");
    }

    #[test]
    fn baseline_power_cycle_preserves_mapped_data() {
        let mut b = NvdramBaseline::new(8, Clock::new(), CostModel::free(), SsdConfig::instant());
        let r = b.map(PAGE_SIZE as u64 * 2).unwrap();
        b.write(r, 100, b"survive me").unwrap();
        b.power_failure();
        b.recover();
        let mut buf = [0u8; 10];
        b.read(r, 100, &mut buf).unwrap();
        assert_eq!(&buf, b"survive me");
    }
}
