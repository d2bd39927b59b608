//! The executed emergency flush: page-by-page, against a possibly faulty
//! SSD, racing a draining battery.
//!
//! Every power failure runs this one executor. It steps the obligation one
//! page at a time on a **local** timeline (the shared virtual clock never
//! advances during a power failure — the rest of the system is dead),
//! starting from the tail of the longest IO still in flight, while the
//! battery's deliverable energy, when one is supplied, drains at
//! `PowerModel` wattage. A page in flight is covered by that tail, not
//! stepped: it is paid once, and lost if the battery ends inside it.
//!
//! The report counts the bytes an IO carried: `bytes_flushed` is a sum of
//! item payloads, and the unmet remainder of a battery death is the
//! uncovered tail plus the payloads of the items not flushed. Pages
//! counted in the obligation with no item — the in-flight pages, whose
//! bytes the device image has held since their hand-over, and the
//! baseline's unmapped capacity, durable as-is (all zeroes) — count as
//! flushed pages but carry no bytes; battery sizing still counts them
//! (`dirty_pages`).

use battery_sim::{Battery, PowerModel};
use fault_sim::crashpoint;
use mem_sim::PageId;
use sim_clock::SimDuration;
use telemetry::{CostClass, TraceEvent};

use crate::{FlushOutcome, PowerFailureReport};

use super::{hand_to_device, EngineCore};

/// Write retry policy for transient SSD errors during the emergency flush.
/// Backoff doubles from `RETRY_BACKOFF_BASE` per attempt, capped at
/// `RETRY_BACKOFF_MAX`; a page is abandoned after `MAX_FLUSH_ATTEMPTS`
/// failed attempts.
pub const MAX_FLUSH_ATTEMPTS: u32 = 8;
/// Backoff charged after the first failed attempt.
pub const RETRY_BACKOFF_BASE: SimDuration = SimDuration::from_micros(50);
/// Ceiling on the per-attempt backoff.
pub const RETRY_BACKOFF_MAX: SimDuration = SimDuration::from_millis(5);

/// One page the battery is obliged to make durable.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ObligationItem {
    pub(crate) page: PageId,
    /// Physical (post-codec) payload bytes this page's flush ships.
    pub(crate) payload: usize,
}

/// The pages a backend must submit to the SSD at the failure instant.
///
/// The report accounts for [`DirtyTracker::failure_pages`], which may
/// exceed the items: the pages without one count as flushed without an
/// IO of their own — on the tracking backends the pages in flight,
/// covered by the tail of their pending IOs, and on the full-battery
/// baseline, which counts its entire capacity while only mapped pages
/// carry content to submit, the unmapped remainder, durable by
/// construction (all zeroes). Like [`EngineCore`], public only so
/// [`DirtyTracker`] signatures can name it; opaque outside the crate.
///
/// [`DirtyTracker`]: super::DirtyTracker
/// [`DirtyTracker::failure_pages`]: super::DirtyTracker::failure_pages
#[derive(Debug)]
pub struct FlushObligation {
    pub(crate) items: Vec<ObligationItem>,
}

/// Exponential backoff after the `attempt`-th failure (1-based).
fn backoff_after(attempt: u32) -> SimDuration {
    let factor = 1u64 << (attempt - 1).min(63);
    (RETRY_BACKOFF_BASE * factor).min(RETRY_BACKOFF_MAX)
}

/// Executes the emergency flush.
///
/// `supply` is the powered path: the battery's deliverable energy (after
/// any injected hold-up shortfall) buys `energy / watts` seconds of flush
/// time on the local timeline; running out abandons every remaining page.
/// Without a supply the flush has unbounded time and only exhausted
/// retries can lose pages.
///
/// In-flight copier IOs at the failure instant are part of the obligation:
/// their pages are already write-protected with stable snapshots handed to
/// the device, so the executor charges the tail of the longest pending IO
/// to the local timeline before stepping the items, and counts those pages
/// flushed without stepping them again — unless the battery ends inside
/// that tail, which loses them and every item.
pub(crate) fn execute(
    core: &mut EngineCore,
    FlushObligation { items }: FlushObligation,
    pages: u64,
    supply: Option<(&Battery, &PowerModel)>,
) -> PowerFailureReport {
    // Local timeline: the shared clock is frozen (the system is dead), so
    // elapsed flush time accumulates here. Seed it with the tail of any
    // copier IO still in flight — those submissions already hold SSD
    // channels and the battery must power the device until they retire.
    let now = core.clock.now();
    let mut elapsed = core
        .inflight
        .iter()
        .map(|&(done, _)| done.saturating_since(now))
        .max()
        .unwrap_or(SimDuration::ZERO);

    let time_budget = supply.map(|(battery, power)| {
        let joules = battery.deliverable_joules(&core.faults);
        let watts = power.total_watts();
        (SimDuration::from_secs_f64(joules / watts), joules, watts)
    });

    // Pages in the obligation with no item to submit (the pages in flight,
    // the baseline's unmapped remainder) are durable as-is: count them
    // flushed.
    let mut pages_flushed = pages - items.len() as u64;
    let mut pages_lost = 0u64;
    let mut retries = 0u64;
    let mut backoff_total = SimDuration::ZERO;
    let mut bytes_flushed = 0u64;
    let mut exhausted = false;
    let ssd_config = core.ssd.config().clone();
    let drain_one = |bytes: usize| ssd_config.drain_time(bytes as u64);

    // A battery that dies before the IOs in flight retire cannot vouch
    // for their pages: they are lost, like every item behind them.
    if let Some((budget, _, _)) = time_budget {
        if elapsed > budget {
            exhausted = true;
            pages_flushed -= core.inflight.len() as u64;
            pages_lost += core.inflight.len() as u64;
            for &(_, page) in &core.inflight {
                core.telemetry
                    .emit(|| TraceEvent::PageLost { page: page.0 });
            }
        }
    }

    let mut remaining = items.iter();
    while !exhausted {
        let Some(item) = remaining.next() else {
            break;
        };
        let mut attempt = 1u32;
        let flushed = loop {
            let fault = core.faults.ssd_write_fault(item.page.0);
            let attempt_time = drain_one(item.payload) * fault.latency_factor as u64 + fault.stall;
            if let Some((budget, _, _)) = time_budget {
                if elapsed + attempt_time > budget {
                    exhausted = true;
                    break false;
                }
            }
            elapsed += attempt_time;
            if !fault.error {
                break true;
            }
            core.ssd.note_write_error(item.page.0, item.payload);
            // Power cut mid-retry: some pages durable, this one's failed
            // attempt charged but its backoff never taken.
            crashpoint!(core.crashes, EmergencyRetry);
            if attempt >= MAX_FLUSH_ATTEMPTS {
                break false;
            }
            let backoff = backoff_after(attempt);
            core.profiler.aux_charge(CostClass::FaultRetry, backoff);
            backoff_total += backoff;
            core.stats.flush_retries += 1;
            retries += 1;
            core.telemetry.emit(|| TraceEvent::FlushRetry {
                page: item.page.0,
                attempt,
                backoff_nanos: backoff.as_nanos(),
            });
            // Backoff only costs time when it exceeds the channel-release
            // gap the failed attempt already charged; charge the excess.
            elapsed += backoff;
            attempt += 1;
        };
        if flushed {
            // The attempts above drew this page's faults; a lost page
            // never gets here and keeps its unsynced sectors.
            hand_to_device(core, item.page, item.payload, 0);
            bytes_flushed += item.payload as u64;
            pages_flushed += 1;
        } else {
            pages_lost += 1;
            core.telemetry
                .emit(|| TraceEvent::PageLost { page: item.page.0 });
        }
    }
    if exhausted {
        // The battery is dead: every page still pending is lost.
        for rest in remaining {
            pages_lost += 1;
            core.telemetry
                .emit(|| TraceEvent::PageLost { page: rest.page.0 });
        }
    }

    let energy_margin_joules = match time_budget {
        Some((budget, joules, watts)) => {
            if exhausted {
                // Report the unmet remainder — the part of the in-flight
                // tail past the battery's end plus the payloads of the
                // items not flushed — as a negative margin: energy the
                // flush *needed* beyond what the battery delivered.
                let owed: u64 = items.iter().map(|item| item.payload as u64).sum();
                let unmet =
                    elapsed.saturating_sub(budget) + ssd_config.drain_time(owed - bytes_flushed);
                -(unmet.as_secs_f64() * watts)
            } else {
                joules - elapsed.as_secs_f64() * watts
            }
        }
        None => f64::INFINITY,
    };
    let outcome = if exhausted {
        FlushOutcome::BatteryExhausted
    } else if pages_lost > 0 {
        FlushOutcome::PagesLost
    } else {
        FlushOutcome::Complete
    };
    core.telemetry.emit(|| TraceEvent::EmergencyFlush {
        pages_flushed,
        pages_lost,
        retries,
    });
    // The emergency flush runs on its own timeline while the shared clock
    // is frozen, so it is accounted off-conservation: device/stall time
    // under `emergency_flush`, retry backoff separately under
    // `fault_retry` (the two aux classes partition `elapsed`).
    core.profiler.aux_charge(
        CostClass::EmergencyFlush,
        elapsed.saturating_sub(backoff_total),
    );
    PowerFailureReport {
        dirty_pages: pages,
        pages_flushed,
        pages_lost,
        retries,
        bytes_flushed,
        flush_time: elapsed,
        energy_margin_joules,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff_after(1), SimDuration::from_micros(50));
        assert_eq!(backoff_after(2), SimDuration::from_micros(100));
        assert_eq!(backoff_after(3), SimDuration::from_micros(200));
        assert_eq!(backoff_after(30), RETRY_BACKOFF_MAX);
    }
}
