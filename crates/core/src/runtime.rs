//! The Viyojit manager: dirty-budget enforcement (Fig. 6), epoch-based
//! recency tracking, proactive copying, power failure, and recovery.
//!
//! The control loop itself lives in the backend-generic
//! [`Engine`](crate::Engine) (see [`crate::engine`]); this module keeps
//! the software manager's public name and the [`PowerFailureReport`]
//! durability surface.

use battery_sim::{Battery, PowerModel};
use sim_clock::SimDuration;

use crate::engine::{Engine, SoftwareWalk};

/// How an emergency flush ended.
///
/// Ordered by severity so aggregations (the sharded frontend) can keep the
/// worst outcome across members.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlushOutcome {
    /// Every obligated page reached durability.
    Complete,
    /// The flush finished but some pages exhausted their write retries.
    PagesLost,
    /// The battery's deliverable energy ran out before the flush finished;
    /// every remaining page was lost.
    BatteryExhausted,
}

/// Outcome of a simulated power failure: what the battery had to flush and
/// how the executed emergency flush went.
///
/// # Examples
///
/// ```
/// use battery_sim::{Battery, BatteryConfig, PowerModel};
/// use sim_clock::{Clock, CostModel};
/// use ssd_sim::SsdConfig;
/// use viyojit::{FlushOutcome, NvHeap, Viyojit, ViyojitConfig};
///
/// let mut v = Viyojit::new(
///     64,
///     ViyojitConfig::with_budget_pages(4),
///     Clock::new(),
///     CostModel::free(),
///     SsdConfig::datacenter(),
/// );
/// let r = v.map(4096 * 16)?;
/// v.write(r, 0, b"critical data")?;
/// let report = v.power_failure();
/// assert!(report.dirty_pages <= 4, "never more dirty pages than budget");
/// assert_eq!(report.outcome, FlushOutcome::Complete);
/// assert!(report.all_pages_accounted());
/// # Ok::<(), viyojit::ViyojitError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerFailureReport {
    /// Pages that were inconsistent with the SSD at the failure instant
    /// (for the baseline: the full presumed-dirty obligation).
    pub dirty_pages: u64,
    /// Of those, pages that reached durability.
    pub pages_flushed: u64,
    /// Of those, pages abandoned (retries exhausted or battery death);
    /// their updates since the last durable copy are gone.
    pub pages_lost: u64,
    /// Transient write errors retried during the flush.
    pub retries: u64,
    /// Bytes flushed on battery power: the payloads an IO carried (the
    /// baseline's unmapped capacity carries none).
    pub bytes_flushed: u64,
    /// Time the flush held the system up, at conservative sequential
    /// bandwidth (§5.1), including fault-induced delays.
    pub flush_time: SimDuration,
    /// Deliverable battery energy left when the flush ended. Negative when
    /// the battery died first (the unmet remainder of the obligation);
    /// infinite when no battery is raced.
    pub energy_margin_joules: f64,
    /// How the flush ended.
    pub outcome: FlushOutcome,
}

impl PowerFailureReport {
    /// Energy the flush drew at the given system power.
    pub fn energy_needed_joules(&self, power: &PowerModel) -> f64 {
        self.flush_time.as_secs_f64() * power.total_watts()
    }

    /// `true` if the provisioned battery could power the flush — the
    /// durability guarantee of §4.1.
    pub fn survives(&self, battery: &Battery, power: &PowerModel) -> bool {
        self.energy_needed_joules(power) <= battery.effective_joules()
    }

    /// The accounting invariant of the executed flush: every obligated
    /// dirty page ended up either flushed or reported lost.
    pub fn all_pages_accounted(&self) -> bool {
        self.pages_flushed + self.pages_lost == self.dirty_pages
    }

    /// Folds `other` — the report of a member flushing in parallel to its
    /// own SSD off the same battery — into `self`: the obligation (pages,
    /// retries, bytes) sums, the hold-up time is the slowest member's,
    /// and the aggregate keeps the worst outcome and the smallest energy
    /// margin.
    pub fn merge(&mut self, other: &PowerFailureReport) {
        self.dirty_pages += other.dirty_pages;
        self.pages_flushed += other.pages_flushed;
        self.pages_lost += other.pages_lost;
        self.retries += other.retries;
        self.bytes_flushed += other.bytes_flushed;
        self.flush_time = self.flush_time.max(other.flush_time);
        self.energy_margin_joules = self.energy_margin_joules.min(other.energy_margin_joules);
        self.outcome = self.outcome.max(other.outcome);
    }
}

/// The Viyojit NV-DRAM manager (the paper's primary contribution).
///
/// `Viyojit` presents the full NV-DRAM capacity through the mmap-like
/// [`NvHeap`](crate::NvHeap) API while guaranteeing that at most
/// [`ViyojitConfig::dirty_budget_pages`](crate::ViyojitConfig) pages are
/// ever inconsistent with the backing SSD, so a battery sized for the
/// *budget* — not the DRAM — suffices for durability.
///
/// Mechanics (paper §5):
/// - every mapped page starts write-protected; the first write faults and
///   the handler adds the page to the dirty set (Fig. 6),
/// - if the budget is full the writer stalls while a least-recently-updated
///   victim is copied out,
/// - a per-epoch walker samples and clears PTE dirty bits (flushing the TLB
///   for exactness) to maintain update recency, feeds an EWMA predictor of
///   dirty-page pressure, and proactively copies cold pages so writers
///   rarely stall.
///
/// Since the engine unification this is [`Engine`] instantiated with the
/// [`SoftwareWalk`] backend; the hardware-assisted
/// [`MmuAssistedViyojit`](crate::MmuAssistedViyojit) shares every line of
/// the control loop and differs only in how dirtiness is observed.
///
/// # Examples
///
/// See [`NvHeap`](crate::NvHeap) for the write/read surface and
/// [`Engine::power_failure`] for the durability path.
pub type Viyojit = Engine<SoftwareWalk>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_the_obligation_and_keeps_the_worst_member() {
        let quick = PowerFailureReport {
            dirty_pages: 4,
            pages_flushed: 4,
            pages_lost: 0,
            retries: 1,
            bytes_flushed: 4 * 4096,
            flush_time: SimDuration::from_micros(10),
            energy_margin_joules: f64::INFINITY,
            outcome: FlushOutcome::Complete,
        };
        let lossy = PowerFailureReport {
            dirty_pages: 3,
            pages_flushed: 1,
            pages_lost: 2,
            retries: 7,
            bytes_flushed: 4096,
            flush_time: SimDuration::from_micros(90),
            energy_margin_joules: -0.5,
            outcome: FlushOutcome::BatteryExhausted,
        };
        for (mut total, other) in [(quick, lossy), (lossy, quick)] {
            total.merge(&other);
            assert_eq!(total.dirty_pages, 7);
            assert_eq!(total.pages_flushed, 5);
            assert_eq!(total.pages_lost, 2);
            assert_eq!(total.retries, 8);
            assert_eq!(total.bytes_flushed, 5 * 4096);
            assert_eq!(total.flush_time, SimDuration::from_micros(90), "slowest");
            assert_eq!(total.energy_margin_joules, -0.5, "smallest margin");
            assert_eq!(total.outcome, FlushOutcome::BatteryExhausted, "worst");
            assert!(total.all_pages_accounted());
        }
    }
}
