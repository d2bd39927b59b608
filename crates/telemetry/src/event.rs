//! Typed trace events stamped with virtual time.
//!
//! Every event names one step of the Fig. 6 control flow (or a
//! neighbouring device/battery transition) and carries only `Copy`
//! payloads so recording never allocates.

use std::fmt;

use sim_clock::SimTime;

/// Why a flush was issued (Fig. 6 step 5 vs the proactive §6.2 path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlushReason {
    /// Issued by the epoch walker to keep headroom below the threshold.
    Proactive,
    /// Issued on the fault path because the dirty budget was exhausted.
    Forced,
}

impl fmt::Display for FlushReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlushReason::Proactive => f.write_str("proactive"),
            FlushReason::Forced => f.write_str("forced"),
        }
    }
}

/// What a fault-injection layer perturbed.
///
/// Emitted inside [`TraceEvent::FaultInjected`] by the `fault-sim` plan so
/// every injection is visible in the trace alongside the control-flow step
/// it disturbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// A submitted SSD write failed transiently and must be retried.
    SsdWriteError,
    /// A submitted SSD write was serviced at a multiple of nominal latency.
    SsdLatencySpike,
    /// The whole device stalled; every channel's free time was pushed back.
    SsdStall,
    /// The battery reported a state of charge that differs from reality.
    SocMisreport,
    /// The battery's real capacity dropped abruptly (cell failure).
    CapacityDrop,
    /// The battery delivered less hold-up energy than its health implied.
    HoldupShortfall,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::SsdWriteError => "ssd_write_error",
            FaultKind::SsdLatencySpike => "ssd_latency_spike",
            FaultKind::SsdStall => "ssd_stall",
            FaultKind::SocMisreport => "soc_misreport",
            FaultKind::CapacityDrop => "capacity_drop",
            FaultKind::HoldupShortfall => "holdup_shortfall",
        })
    }
}

/// One step of the simulated control flow.
///
/// Forced and proactive flushes share the [`TraceEvent::FlushIssued`]
/// variant and are distinguished by [`FlushReason`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A store hit a write-protected page (Fig. 6 step 1).
    WriteFault {
        /// Faulting NV-DRAM page index.
        page: u64,
    },
    /// A victim page was submitted to the SSD copier.
    FlushIssued {
        /// Victim NV-DRAM page index.
        page: u64,
        /// Forced (budget exhausted) or proactive (epoch walker).
        reason: FlushReason,
        /// Epoch of the victim's last update, if still tracked.
        last_update_epoch: Option<u64>,
    },
    /// A copier write-back completed and the page returned to clean.
    FlushComplete {
        /// The page whose flush retired.
        page: u64,
    },
    /// The fault path blocked because every budgeted slot was dirty or
    /// in flight.
    BudgetStall {
        /// Dirty pages at the moment of the stall.
        dirty: u64,
        /// The budget the store had to get back under.
        budget: u64,
    },
    /// The epoch walker scanned the page tables.
    EpochWalk {
        /// Epoch number that just closed.
        epoch: u64,
        /// PTEs inspected by the walk.
        walked: u64,
        /// Pages newly observed dirty during the closing epoch.
        new_dirty: u64,
    },
    /// The walker invalidated the TLB after clearing dirty bits.
    TlbFlush {
        /// Epoch whose walk triggered the invalidation.
        epoch: u64,
    },
    /// A write was submitted to the simulated SSD.
    SsdSubmit {
        /// Destination SSD page index.
        page: u64,
        /// Physical (post-codec) payload bytes charged to the device.
        bytes: u64,
    },
    /// A previously submitted SSD write reached durability.
    SsdComplete {
        /// The SSD page whose write completed.
        page: u64,
    },
    /// The battery model re-derived the dirty budget (§8 dynamics).
    BatteryRecalc {
        /// Dirty budget in pages after the recalculation.
        budget_pages: u64,
        /// Battery health in parts per thousand of nameplate capacity.
        health_permille: u64,
    },
    /// The fault plan perturbed a device or battery interaction.
    FaultInjected {
        /// What was perturbed.
        kind: FaultKind,
        /// Affected page, or `u64::MAX` when the fault is device/battery
        /// wide (omitted from the rendered payload in that case).
        page: u64,
        /// Kind-specific magnitude in parts per thousand (latency factor,
        /// misreport factor, drop factor, shortfall fraction); zero when
        /// the kind carries no magnitude.
        magnitude_permille: u64,
    },
    /// The emergency flush retried a transiently failed write.
    FlushRetry {
        /// Page whose write failed.
        page: u64,
        /// Attempt number that failed, starting at 1.
        attempt: u32,
        /// Exponential backoff charged before the next attempt, in
        /// virtual nanoseconds.
        backoff_nanos: u64,
    },
    /// The emergency flush abandoned a page (retries exhausted or the
    /// battery died first); the page's contents did not reach the SSD.
    PageLost {
        /// The abandoned page.
        page: u64,
    },
    /// The degradation governor changed operating mode.
    DegradedModeChanged {
        /// True when entering degraded mode, false on recovery to nominal.
        degraded: bool,
        /// Dirty budget in pages after the transition.
        budget_pages: u64,
    },
    /// A tenant's degraded-mode throttle changed: applied (its allocation
    /// capped while siblings keep their QoS) or lifted.
    TenantThrottled {
        /// Tenant index within the budget hierarchy.
        tenant: u64,
        /// True when the throttle was applied, false when lifted.
        throttled: bool,
        /// The allocation cap in pages while throttled; the tenant's
        /// restored QoS capacity (possibly `u64::MAX`) when lifted.
        cap_pages: u64,
    },
    /// A crash schedule fired: the run is about to unwind from the named
    /// state-mutation seam, modelling an instantaneous power cut there.
    CrashInjected {
        /// Stable crashpoint name (the seam that fired).
        point: &'static str,
        /// Which hit of the seam fired, 1-based.
        hit: u64,
    },
    /// A parallel worker thread panicked; its shards are quarantined while
    /// it recovers from durable state.
    ShardPanicked {
        /// First shard owned by the panicked thread.
        shard: u64,
        /// Self-recoveries this worker has performed so far, including
        /// the one this panic triggers.
        restarts: u64,
    },
    /// A panicked worker finished recovering its shards from durable state
    /// and rejoined the cluster.
    ShardRespawned {
        /// First shard owned by the recovered thread.
        shard: u64,
        /// Pages lost across the thread's shards during the crash flush.
        pages_lost: u64,
    },
    /// The coordinator gave up waiting for a worker's reply: the worker
    /// went silent past the round timeout, so the call was abandoned with
    /// `ViyojitError::RoundTimeout`.
    RoundTimedOut {
        /// The round in flight (or next to run) when the wait timed out.
        round: u64,
        /// Index of the worker thread that stayed silent.
        thread: u64,
    },
    /// An executed emergency flush finished (successfully or not).
    EmergencyFlush {
        /// Pages that reached durability (including presumed-durable clean
        /// pages counted by the baseline's full-capacity obligation).
        pages_flushed: u64,
        /// Pages lost to exhausted retries or battery death.
        pages_lost: u64,
        /// Total write retries performed.
        retries: u64,
    },
}

impl TraceEvent {
    /// Stable lowercase name of the variant, used by the sinks.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::WriteFault { .. } => "write_fault",
            TraceEvent::FlushIssued { .. } => "flush_issued",
            TraceEvent::FlushComplete { .. } => "flush_complete",
            TraceEvent::BudgetStall { .. } => "budget_stall",
            TraceEvent::EpochWalk { .. } => "epoch_walk",
            TraceEvent::TlbFlush { .. } => "tlb_flush",
            TraceEvent::SsdSubmit { .. } => "ssd_submit",
            TraceEvent::SsdComplete { .. } => "ssd_complete",
            TraceEvent::BatteryRecalc { .. } => "battery_recalc",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::FlushRetry { .. } => "flush_retry",
            TraceEvent::PageLost { .. } => "page_lost",
            TraceEvent::DegradedModeChanged { .. } => "degraded_mode_changed",
            TraceEvent::TenantThrottled { .. } => "tenant_throttled",
            TraceEvent::CrashInjected { .. } => "crash_injected",
            TraceEvent::ShardPanicked { .. } => "shard_panicked",
            TraceEvent::ShardRespawned { .. } => "shard_respawned",
            TraceEvent::RoundTimedOut { .. } => "round_timed_out",
            TraceEvent::EmergencyFlush { .. } => "emergency_flush",
        }
    }
}

impl fmt::Display for TraceEvent {
    /// Renders the payload as `key=value` pairs separated by spaces, with
    /// no leading kind (the sinks emit [`TraceEvent::kind`] separately).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::WriteFault { page } => write!(f, "page={page}"),
            TraceEvent::FlushIssued {
                page,
                reason,
                last_update_epoch,
            } => {
                write!(f, "page={page} reason={reason}")?;
                match last_update_epoch {
                    Some(e) => write!(f, " last_update_epoch={e}"),
                    None => write!(f, " last_update_epoch=none"),
                }
            }
            TraceEvent::FlushComplete { page } => write!(f, "page={page}"),
            TraceEvent::BudgetStall { dirty, budget } => {
                write!(f, "dirty={dirty} budget={budget}")
            }
            TraceEvent::EpochWalk {
                epoch,
                walked,
                new_dirty,
            } => write!(f, "epoch={epoch} walked={walked} new_dirty={new_dirty}"),
            TraceEvent::TlbFlush { epoch } => write!(f, "epoch={epoch}"),
            TraceEvent::SsdSubmit { page, bytes } => write!(f, "page={page} bytes={bytes}"),
            TraceEvent::SsdComplete { page } => write!(f, "page={page}"),
            TraceEvent::BatteryRecalc {
                budget_pages,
                health_permille,
            } => write!(
                f,
                "budget_pages={budget_pages} health_permille={health_permille}"
            ),
            TraceEvent::FaultInjected {
                kind,
                page,
                magnitude_permille,
            } => {
                write!(f, "kind={kind}")?;
                if *page != u64::MAX {
                    write!(f, " page={page}")?;
                }
                write!(f, " magnitude_permille={magnitude_permille}")
            }
            TraceEvent::FlushRetry {
                page,
                attempt,
                backoff_nanos,
            } => write!(
                f,
                "page={page} attempt={attempt} backoff_nanos={backoff_nanos}"
            ),
            TraceEvent::PageLost { page } => write!(f, "page={page}"),
            TraceEvent::DegradedModeChanged {
                degraded,
                budget_pages,
            } => write!(f, "degraded={degraded} budget_pages={budget_pages}"),
            TraceEvent::TenantThrottled {
                tenant,
                throttled,
                cap_pages,
            } => write!(
                f,
                "tenant={tenant} throttled={throttled} cap_pages={cap_pages}"
            ),
            TraceEvent::CrashInjected { point, hit } => {
                write!(f, "point={point} hit={hit}")
            }
            TraceEvent::ShardPanicked { shard, restarts } => {
                write!(f, "shard={shard} restarts={restarts}")
            }
            TraceEvent::ShardRespawned { shard, pages_lost } => {
                write!(f, "shard={shard} pages_lost={pages_lost}")
            }
            TraceEvent::RoundTimedOut { round, thread } => {
                write!(f, "round={round} thread={thread}")
            }
            TraceEvent::EmergencyFlush {
                pages_flushed,
                pages_lost,
                retries,
            } => write!(
                f,
                "pages_flushed={pages_flushed} pages_lost={pages_lost} retries={retries}"
            ),
        }
    }
}

/// A [`TraceEvent`] stamped with the virtual instant it describes and a
/// monotonically increasing sequence number (recording order).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracedEvent {
    /// Virtual time the event describes. For [`TraceEvent::SsdComplete`]
    /// this is the completion instant, which may lie in the future of the
    /// clock at recording time; all other events are stamped `now`.
    pub at: SimTime,
    /// Recording order, starting at zero, counting dropped events too.
    pub seq: u64,
    /// The event payload.
    pub event: TraceEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable_lowercase_names() {
        let e = TraceEvent::FlushIssued {
            page: 7,
            reason: FlushReason::Forced,
            last_update_epoch: Some(3),
        };
        assert_eq!(e.kind(), "flush_issued");
        assert_eq!(e.to_string(), "page=7 reason=forced last_update_epoch=3");
    }

    #[test]
    fn fault_event_omits_device_wide_page() {
        let device_wide = TraceEvent::FaultInjected {
            kind: FaultKind::SsdStall,
            page: u64::MAX,
            magnitude_permille: 0,
        };
        assert_eq!(device_wide.kind(), "fault_injected");
        assert_eq!(
            device_wide.to_string(),
            "kind=ssd_stall magnitude_permille=0"
        );
        let paged = TraceEvent::FaultInjected {
            kind: FaultKind::SsdWriteError,
            page: 9,
            magnitude_permille: 0,
        };
        assert_eq!(
            paged.to_string(),
            "kind=ssd_write_error page=9 magnitude_permille=0"
        );
    }

    #[test]
    fn emergency_events_render_key_value_payloads() {
        let retry = TraceEvent::FlushRetry {
            page: 4,
            attempt: 2,
            backoff_nanos: 100_000,
        };
        assert_eq!(retry.kind(), "flush_retry");
        assert_eq!(retry.to_string(), "page=4 attempt=2 backoff_nanos=100000");
        let lost = TraceEvent::PageLost { page: 11 };
        assert_eq!(lost.kind(), "page_lost");
        assert_eq!(lost.to_string(), "page=11");
        let mode = TraceEvent::DegradedModeChanged {
            degraded: true,
            budget_pages: 32,
        };
        assert_eq!(mode.kind(), "degraded_mode_changed");
        assert_eq!(mode.to_string(), "degraded=true budget_pages=32");
        let throttle = TraceEvent::TenantThrottled {
            tenant: 1,
            throttled: true,
            cap_pages: 12,
        };
        assert_eq!(throttle.kind(), "tenant_throttled");
        assert_eq!(throttle.to_string(), "tenant=1 throttled=true cap_pages=12");
        let done = TraceEvent::EmergencyFlush {
            pages_flushed: 30,
            pages_lost: 2,
            retries: 5,
        };
        assert_eq!(done.kind(), "emergency_flush");
        assert_eq!(done.to_string(), "pages_flushed=30 pages_lost=2 retries=5");
    }

    #[test]
    fn crash_and_supervision_events_render_key_value_payloads() {
        let crash = TraceEvent::CrashInjected {
            point: "flush_in_flight",
            hit: 2,
        };
        assert_eq!(crash.kind(), "crash_injected");
        assert_eq!(crash.to_string(), "point=flush_in_flight hit=2");
        let panicked = TraceEvent::ShardPanicked {
            shard: 3,
            restarts: 1,
        };
        assert_eq!(panicked.kind(), "shard_panicked");
        assert_eq!(panicked.to_string(), "shard=3 restarts=1");
        let respawned = TraceEvent::ShardRespawned {
            shard: 3,
            pages_lost: 0,
        };
        assert_eq!(respawned.kind(), "shard_respawned");
        assert_eq!(respawned.to_string(), "shard=3 pages_lost=0");
        let timed_out = TraceEvent::RoundTimedOut {
            round: 7,
            thread: 2,
        };
        assert_eq!(timed_out.kind(), "round_timed_out");
        assert_eq!(timed_out.to_string(), "round=7 thread=2");
    }

    #[test]
    fn display_handles_missing_history() {
        let e = TraceEvent::FlushIssued {
            page: 1,
            reason: FlushReason::Proactive,
            last_update_epoch: None,
        };
        assert_eq!(
            e.to_string(),
            "page=1 reason=proactive last_update_epoch=none"
        );
    }
}
