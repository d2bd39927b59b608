//! The §5.4 alternative implementation: offloading dirty accounting to
//! the MMU.
//!
//! The software Viyojit pays a trap on the *first write to every page*.
//! §5.4 sketches a hardware fix: the MMU counts dirty-bit transitions
//! itself, raises an interrupt only when the count reaches the OS-set
//! limit, and provides a *shadow dirty bit* the OS can read-and-clear for
//! recency tracking without disturbing the counter. Writes to clean pages
//! then proceed at full speed; traps happen only at the budget boundary.
//! The paper's prediction: "a hardware implementation ... could eradicate
//! such tail latency overheads."
//!
//! [`MmuAssistedViyojit`] is that design on the simulated MMU's
//! [`dirty-limit`](mem_sim::Mmu::set_dirty_limit) and
//! [shadow-walk](mem_sim::Mmu::walk_and_clear_shadow_in) extensions. It
//! enforces the same durability bound as the software manager — the
//! hardware counter *is* the bound — while removing first-write faults
//! and epoch TLB flushes from the application's path. The tracking
//! mechanics live in the [`MmuAssisted`] backend; the control loop is the
//! shared [`Engine`](crate::Engine).

use crate::engine::{Engine, MmuAssisted};

/// Viyojit with §5.4's MMU offload: no first-write traps, interrupt-driven
/// budget enforcement, shadow-bit recency.
///
/// Since the engine unification this is [`Engine`] instantiated with the
/// [`MmuAssisted`] backend, so it exposes the same full surface as the
/// software manager — including `set_dirty_budget`, `regions`, and
/// `durable_state_consistent`, which the historical standalone
/// implementation lacked.
///
/// # Examples
///
/// ```
/// use sim_clock::{Clock, CostModel};
/// use ssd_sim::SsdConfig;
/// use viyojit::{MmuAssistedViyojit, NvHeap, ViyojitConfig};
///
/// let mut nv = MmuAssistedViyojit::new(
///     64,
///     ViyojitConfig::with_budget_pages(8),
///     Clock::new(),
///     CostModel::calibrated(),
///     SsdConfig::datacenter(),
/// );
/// let r = nv.map(16 * 4096)?;
/// nv.write(r, 0, b"no trap for this write")?;
/// assert_eq!(nv.stats().faults_handled, 0, "first writes do not trap");
/// # Ok::<(), viyojit::ViyojitError>(())
/// ```
pub type MmuAssistedViyojit = Engine<MmuAssisted>;

#[cfg(test)]
mod tests {
    use crate::{MmuAssistedViyojit, NvHeap, ViyojitConfig};
    use mem_sim::PAGE_SIZE;
    use sim_clock::{Clock, CostModel};
    use ssd_sim::SsdConfig;

    const PAGE: u64 = PAGE_SIZE as u64;

    fn hw(total: usize, budget: u64) -> MmuAssistedViyojit {
        MmuAssistedViyojit::new(
            total,
            ViyojitConfig::with_budget_pages(budget),
            Clock::new(),
            CostModel::free(),
            SsdConfig::instant(),
        )
    }

    #[test]
    fn first_writes_do_not_trap() {
        let mut nv = hw(64, 32);
        let r = nv.map(PAGE * 16).unwrap();
        for i in 0..16u64 {
            nv.write(r, i * PAGE, &[1]).unwrap();
        }
        assert_eq!(nv.stats().faults_handled, 0);
        assert_eq!(nv.dirty_count(), 16);
        nv.validate();
    }

    #[test]
    fn budget_is_enforced_by_the_hardware_counter() {
        let mut nv = hw(64, 4);
        let r = nv.map(PAGE * 32).unwrap();
        for i in 0..32u64 {
            nv.write(r, i * PAGE, &[i as u8]).unwrap();
            assert!(nv.dirty_count() <= 4, "page {i}");
            nv.validate();
        }
        assert!(nv.stats().faults_handled > 0, "limit interrupts must fire");
    }

    #[test]
    fn data_round_trips_and_survives_power_cycles() {
        let mut nv = hw(64, 4);
        let r = nv.map(PAGE * 16).unwrap();
        for i in 0..16u64 {
            nv.write(r, i * PAGE, &[i as u8 + 1; 64]).unwrap();
        }
        let report = nv.power_failure();
        assert!(report.dirty_pages <= 4);
        nv.recover();
        for i in 0..16u64 {
            let mut buf = [0u8; 64];
            nv.read(r, i * PAGE, &mut buf).unwrap();
            assert_eq!(buf, [i as u8 + 1; 64], "page {i}");
        }
        nv.validate();
    }

    #[test]
    fn rewrites_after_recovery_recount() {
        let mut nv = hw(32, 4);
        let r = nv.map(PAGE * 8).unwrap();
        nv.write(r, 0, b"x").unwrap();
        nv.power_failure();
        nv.recover();
        assert_eq!(nv.dirty_count(), 0);
        nv.write(r, 0, b"y").unwrap();
        assert_eq!(nv.dirty_count(), 1);
        nv.validate();
    }

    #[test]
    fn unmap_credits_the_hardware_counter() {
        let mut nv = hw(32, 8);
        let r = nv.map(PAGE * 8).unwrap();
        for i in 0..8u64 {
            nv.write(r, i * PAGE, &[1]).unwrap();
        }
        assert_eq!(nv.dirty_count(), 8);
        nv.unmap(r).unwrap();
        assert_eq!(nv.dirty_count(), 0);
        nv.validate();
    }

    #[test]
    fn epoch_discovery_feeds_the_proactive_copier() {
        use sim_clock::SimDuration;
        let mut nv = MmuAssistedViyojit::new(
            128,
            ViyojitConfig::with_budget_pages(16),
            Clock::new(),
            CostModel::calibrated(),
            SsdConfig::datacenter(),
        );
        let r = nv.map(PAGE * 64).unwrap();
        for round in 0..30u64 {
            for i in 0..8u64 {
                nv.write(r, ((round * 3 + i) % 64) * PAGE, &[round as u8])
                    .unwrap();
            }
            nv.clock().advance(SimDuration::from_millis(1));
        }
        nv.write(r, 0, &[99]).unwrap();
        assert!(nv.stats().epochs > 0);
        assert!(
            nv.stats().proactive_flushes > 0,
            "discovered pages must be proactively copied: {:?}",
            nv.stats()
        );
        nv.validate();
    }

    #[test]
    fn budget_rederivation_works_on_the_hardware_backend() {
        // The historical standalone implementation had no
        // `set_dirty_budget`; the unified engine provides it for free.
        let mut nv = hw(64, 8);
        let r = nv.map(PAGE * 16).unwrap();
        for i in 0..8u64 {
            nv.write(r, i * PAGE, &[1]).unwrap();
        }
        assert_eq!(nv.dirty_count(), 8);
        nv.set_dirty_budget(3);
        assert!(nv.dirty_count() <= 3, "shrinking stalls down to the bound");
        assert_eq!(nv.dirty_budget(), 3);
        assert!(nv.durable_state_consistent());
        assert_eq!(nv.regions().count(), 1);
        nv.validate();
    }
}
