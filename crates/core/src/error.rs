//! Error types of the Viyojit public API.

use std::error::Error;
use std::fmt;

use crate::RegionId;

/// Why a Viyojit operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViyojitError {
    /// `vmap` could not find a contiguous run of free NV-DRAM pages.
    OutOfSpace {
        /// Pages requested.
        requested_pages: u64,
        /// Largest contiguous free run available.
        largest_free_run: u64,
    },
    /// The region handle does not name a live mapping.
    BadRegion(RegionId),
    /// The access fell outside the region.
    OutOfRange {
        /// The offending region.
        region: RegionId,
        /// Starting byte offset of the access.
        offset: u64,
        /// Length of the access.
        len: usize,
    },
    /// A zero-length mapping was requested.
    EmptyMapping,
    /// A configuration constraint was violated (builder validation).
    InvalidConfig(&'static str),
    /// An internal invariant check failed (see
    /// [`Engine::check_invariants`](crate::Engine::check_invariants)).
    Invariant(InvariantViolation),
    /// A parallel shard thread died (panicked or disconnected); the
    /// shards it owned are no longer serviceable.
    ShardFailed {
        /// Index of the first affected shard.
        shard: usize,
    },
    /// A parallel worker failed to answer within the round deadline: it is
    /// wedged (alive but unresponsive), so the cluster aborted the round
    /// instead of blocking forever.
    RoundTimeout,
}

/// A broken internal invariant, as reported by the non-panicking
/// `check_invariants` surface on [`DirtySet`](crate::DirtySet),
/// [`Engine`](crate::Engine), and the sharded/ballooned frontends.
///
/// The paper's durability argument rests on these holding at every
/// instant; property tests call `check_invariants` after each operation
/// and the panicking `validate` wrappers turn any violation into a test
/// failure with the violation's `Display` text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantViolation {
    /// The budget-bound population exceeds the dirty budget — the core
    /// durability guarantee is broken.
    BudgetExceeded {
        /// Pages counted against the budget.
        dirty: u64,
        /// The budget in force.
        budget: u64,
    },
    /// A running counter disagrees with a recount of the per-page states.
    CounterOutOfSync {
        /// Which counter ("dirty", "in-flight" or "known-dirty").
        counter: &'static str,
        /// Value obtained by recounting states.
        counted: u64,
        /// Value the running counter records.
        recorded: u64,
    },
    /// The pending-IO list length disagrees with the number of pages in
    /// the in-flight state.
    InFlightListMismatch {
        /// Pending flush IOs.
        ios: u64,
        /// Pages marked in flight.
        pages: u64,
    },
    /// A page's write protection disagrees with its tracked state
    /// (Fig. 6's ordering: writable ⟺ dirty).
    ProtectionMismatch {
        /// The offending page number.
        page: u64,
        /// `true` if the tracker counts the page dirty (and it should be
        /// writable); `false` if it is clean/in-flight (and protected).
        counted_dirty: bool,
    },
    /// The §5.4 hardware dirty counter disagrees with the PTE dirty bits
    /// it is defined to count.
    HardwareCounterMismatch {
        /// PTE dirty bits set.
        pte_dirty: u64,
        /// The hardware counter's value.
        counted: u64,
    },
    /// The undo log behind the device image is out of step with the
    /// pages it serves: a slot leaked, went stale, or is missing.
    UndoLog {
        /// The offending page number.
        page: u64,
        /// What is wrong with its slot.
        what: &'static str,
    },
    /// A budget arbiter handed out more pages than the shared battery
    /// provisions.
    OverCommit {
        /// Sum of budgets assigned to members.
        assigned: u64,
        /// The provisioned total.
        provisioned: u64,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::BudgetExceeded { dirty, budget } => write!(
                f,
                "durability violation: {dirty} dirty pages exceed budget {budget}"
            ),
            InvariantViolation::CounterOutOfSync {
                counter,
                counted,
                recorded,
            } => write!(
                f,
                "{counter} counter out of sync: states count {counted}, counter records {recorded}"
            ),
            InvariantViolation::InFlightListMismatch { ios, pages } => write!(
                f,
                "in-flight IO list out of sync with page states: {ios} IOs vs {pages} pages"
            ),
            InvariantViolation::ProtectionMismatch { page, counted_dirty } => {
                if *counted_dirty {
                    write!(f, "page {page} is dirty but write-protected")
                } else {
                    write!(f, "page {page} is clean/in-flight but writable")
                }
            }
            InvariantViolation::HardwareCounterMismatch { pte_dirty, counted } => write!(
                f,
                "hardware counter out of sync with PTE dirty bits: {pte_dirty} set vs {counted} counted"
            ),
            InvariantViolation::UndoLog { page, what } => {
                write!(f, "undo log out of step at page {page}: {what}")
            }
            InvariantViolation::OverCommit {
                assigned,
                provisioned,
            } => write!(
                f,
                "assigned budgets {assigned} exceed the provisioned {provisioned}"
            ),
        }
    }
}

impl Error for InvariantViolation {}

impl From<InvariantViolation> for ViyojitError {
    fn from(v: InvariantViolation) -> Self {
        ViyojitError::Invariant(v)
    }
}

impl fmt::Display for ViyojitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViyojitError::OutOfSpace {
                requested_pages,
                largest_free_run,
            } => write!(
                f,
                "no contiguous run of {requested_pages} free pages (largest run: {largest_free_run})"
            ),
            ViyojitError::BadRegion(r) => write!(f, "region {r} is not mapped"),
            ViyojitError::OutOfRange { region, offset, len } => write!(
                f,
                "access of {len} bytes at offset {offset} exceeds region {region}"
            ),
            ViyojitError::EmptyMapping => write!(f, "mappings must be at least one byte"),
            ViyojitError::InvalidConfig(reason) => write!(f, "invalid configuration: {reason}"),
            ViyojitError::Invariant(v) => write!(f, "invariant violated: {v}"),
            ViyojitError::ShardFailed { shard } => {
                write!(f, "shard {shard}'s worker thread died and cannot serve requests")
            }
            ViyojitError::RoundTimeout => {
                write!(f, "a worker thread failed to answer within the round deadline")
            }
        }
    }
}

impl Error for ViyojitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_informative() {
        let e = ViyojitError::OutOfSpace {
            requested_pages: 10,
            largest_free_run: 3,
        };
        let msg = e.to_string();
        assert!(msg.contains("10") && msg.contains('3'));
        assert!(msg.chars().next().unwrap().is_lowercase());
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<ViyojitError>();
        assert_error::<InvariantViolation>();
    }

    #[test]
    fn violations_convert_into_api_errors() {
        let v = InvariantViolation::BudgetExceeded {
            dirty: 9,
            budget: 8,
        };
        let e: ViyojitError = v.into();
        assert_eq!(e, ViyojitError::Invariant(v));
        assert!(e.to_string().contains("9 dirty pages exceed budget 8"));
    }
}
