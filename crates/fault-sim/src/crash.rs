//! Named, seeded crashpoints: power-cut injection at state-mutation seams.
//!
//! A [`CrashSchedule`] is a shared handle (same shape as [`FaultPlan`]
//! (crate::FaultPlan)): clones point at one schedule, so the schedule a
//! harness arms is the one every engine layer consults. The engine control
//! loop is instrumented with [`crashpoint!`](crate::crashpoint) checks at
//! every seam where a real power cut could interrupt a multi-step state
//! mutation — mid-epoch-walk, mid-discovery-scan, between budget shrink and
//! grow, mid-rebalance, mid-emergency-retry, mid-flush with in-flight IO,
//! and inside a parallel budget round between the stats upload and the
//! grant download.
//!
//! Firing is modelled as a panic carrying a [`CrashSignal`] payload: the
//! unwind abandons the mutation exactly where the check sits, leaving the
//! engine in the same intermediate state an instantaneous power cut would.
//! The harness catches the signal with `catch_unwind`, runs the *real*
//! stepped emergency executor from that state, recovers, and oracle-checks
//! that durable contents diverge from a shadow reference by at most the
//! budget-bounded loss. A schedule fires **at most once** — the emergency
//! executor and recovery path walk straight back through the same
//! instrumented seams, and must not crash again mid-crash.
//!
//! Design rules, mirrored from [`FaultPlan`](crate::FaultPlan):
//!
//! - **Inactive is free.** [`CrashSchedule::none`] holds no state; a check
//!   is a null test, charges zero virtual time, and draws no RNG.
//! - **Replayable.** [`CrashSchedule::seeded`] derives the firing point and
//!   ordinal from a single `u64` (the same `FAULT_SEED` contract the fault
//!   plan uses); [`CrashSchedule::armed`] pins them exactly.
//! - **Every firing is traced.** With telemetry attached, a firing emits a
//!   `crash_injected` event before the unwind starts.

use std::sync::{Arc, Mutex};

use sim_clock::SplitMix64;
use telemetry::{Telemetry, TraceEvent};

/// The named state-mutation seams the engine is instrumented at.
///
/// Each variant marks a point where an instantaneous power cut leaves a
/// multi-step mutation half-applied; the bounded-loss contract must hold
/// from every one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Crashpoint {
    /// Mid-epoch-walk: recency refreshed for some pages but not others,
    /// before the threshold / proactive-copy decisions run.
    EpochWalk,
    /// Mid-discovery-scan (hardware mode): some silently-dirtied pages
    /// absorbed into the known-dirty set, the rest still undiscovered.
    DiscoveryScan,
    /// Between the shrink pass and the grow pass of a budget reassignment:
    /// donors already shrunk, receivers not yet grown.
    BudgetShrinkGrow,
    /// Mid-rebalance: the tree has planned new targets but no engine has
    /// been touched yet.
    Rebalance,
    /// Inside the emergency executor's retry loop, after a failed flush
    /// attempt with the backoff not yet charged.
    EmergencyRetry,
    /// Immediately after a flush IO joins the in-flight set, before any
    /// completion can retire it.
    FlushInFlight,
    /// Inside a parallel budget round, between the `ShardStats` upload and
    /// the budget-grant download: the arbiter owns this worker's stats but
    /// the worker never learns its grant.
    BudgetRound,
}

impl Crashpoint {
    /// Every crashpoint, in catalog order (the order `seeded` draws from).
    pub const ALL: [Crashpoint; 7] = [
        Crashpoint::EpochWalk,
        Crashpoint::DiscoveryScan,
        Crashpoint::BudgetShrinkGrow,
        Crashpoint::Rebalance,
        Crashpoint::EmergencyRetry,
        Crashpoint::FlushInFlight,
        Crashpoint::BudgetRound,
    ];

    /// Stable machine-readable name (used in trace events, bench tables,
    /// and CLI arguments).
    pub fn name(self) -> &'static str {
        match self {
            Crashpoint::EpochWalk => "epoch_walk",
            Crashpoint::DiscoveryScan => "discovery_scan",
            Crashpoint::BudgetShrinkGrow => "budget_shrink_grow",
            Crashpoint::Rebalance => "rebalance",
            Crashpoint::EmergencyRetry => "emergency_retry",
            Crashpoint::FlushInFlight => "flush_in_flight",
            Crashpoint::BudgetRound => "budget_round",
        }
    }

    /// Parses a stable name back into a crashpoint.
    pub fn from_name(name: &str) -> Option<Crashpoint> {
        Crashpoint::ALL.into_iter().find(|p| p.name() == name)
    }

    fn index(self) -> usize {
        Crashpoint::ALL
            .iter()
            .position(|&p| p == self)
            .expect("every crashpoint is in ALL")
    }
}

/// The panic payload a firing crashpoint unwinds with.
///
/// Harnesses catch the unwind and downcast to this to distinguish an
/// injected crash from a genuine bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSignal {
    /// The seam that fired.
    pub point: Crashpoint,
    /// Which hit of that seam fired (1 = the first time it was reached).
    pub hit: u64,
}

#[derive(Debug)]
struct ScheduleState {
    /// Fire at the `hit`-th check of `point` (1-based).
    armed: (Crashpoint, u64),
    /// Checks seen so far, per catalog slot.
    hits: [u64; 7],
    /// Latched after the one allowed firing.
    fired: Option<CrashSignal>,
    telemetry: Telemetry,
}

/// Shared, cheaply clonable crash-schedule handle.
///
/// Deterministic: two schedules built with [`CrashSchedule::seeded`] from
/// the same seed arm the same `(point, hit)` pair, so runs that check the
/// seams in the same order crash at the same instruction.
#[derive(Debug, Clone, Default)]
pub struct CrashSchedule {
    seed: Option<u64>,
    state: Option<Arc<Mutex<ScheduleState>>>,
}

impl CrashSchedule {
    /// The inactive schedule: no state, never fires, checks are free.
    pub fn none() -> Self {
        CrashSchedule::default()
    }

    /// A schedule that fires at exactly the `hit`-th check of `point`
    /// (1-based). Panics if `hit` is zero.
    pub fn armed(point: Crashpoint, hit: u64) -> Self {
        assert!(hit >= 1, "crashpoint ordinals are 1-based");
        CrashSchedule {
            seed: None,
            state: Some(Arc::new(Mutex::new(ScheduleState {
                armed: (point, hit),
                hits: [0; 7],
                fired: None,
                telemetry: Telemetry::disabled(),
            }))),
        }
    }

    /// A schedule whose firing point and ordinal are drawn from `seed`:
    /// a uniform crashpoint and a hit ordinal in `1..=4`. The same seed
    /// always arms the same pair.
    pub fn seeded(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let point = Crashpoint::ALL[rng.below(7) as usize];
        let hit = 1 + rng.below(4);
        CrashSchedule {
            seed: Some(seed),
            ..CrashSchedule::armed(point, hit)
        }
    }

    /// The seed this schedule was drawn from, if any.
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// The `(point, hit)` pair this schedule fires at, if active.
    pub fn armed_at(&self) -> Option<(Crashpoint, u64)> {
        self.state
            .as_ref()
            .map(|s| s.lock().expect("crash schedule poisoned").armed)
    }

    /// How many times `point` has been checked so far.
    pub fn hits(&self, point: Crashpoint) -> u64 {
        match &self.state {
            Some(state) => state.lock().expect("crash schedule poisoned").hits[point.index()],
            None => 0,
        }
    }

    /// The signal this schedule fired with, if it has fired.
    pub fn fired(&self) -> Option<CrashSignal> {
        self.state
            .as_ref()
            .and_then(|s| s.lock().expect("crash schedule poisoned").fired)
    }

    /// Routes `crash_injected` trace events into `telemetry`. All clones
    /// share the destination.
    pub fn attach_telemetry(&self, telemetry: Telemetry) {
        if let Some(state) = &self.state {
            state.lock().expect("crash schedule poisoned").telemetry = telemetry;
        }
    }

    /// One seam check. Counts the hit and, if this is the armed `(point,
    /// hit)` and the schedule has not fired yet, unwinds with a
    /// [`CrashSignal`] panic. Inactive schedules return immediately.
    #[inline]
    pub fn check(&self, point: Crashpoint) {
        let Some(state) = &self.state else {
            return;
        };
        let signal = {
            let mut s = state.lock().expect("crash schedule poisoned");
            if s.fired.is_some() {
                return;
            }
            s.hits[point.index()] += 1;
            let (armed_point, armed_hit) = s.armed;
            if point != armed_point || s.hits[point.index()] != armed_hit {
                return;
            }
            let signal = CrashSignal {
                point,
                hit: armed_hit,
            };
            s.fired = Some(signal);
            s.telemetry.emit(|| TraceEvent::CrashInjected {
                point: point.name(),
                hit: armed_hit,
            });
            signal
            // The guard drops here: the unwind must not poison the mutex,
            // because recovery re-enters the instrumented seams.
        };
        std::panic::panic_any(signal);
    }
}

/// `crashpoint!(schedule, Seam)`: check the named [`Crashpoint`] against a
/// [`CrashSchedule`]. Expands to a null test when the schedule is inactive
/// and charges zero virtual time either way.
#[macro_export]
macro_rules! crashpoint {
    ($schedule:expr, $point:ident) => {
        $schedule.check($crate::Crashpoint::$point)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn inactive_schedule_never_fires() {
        let s = CrashSchedule::none();
        for point in Crashpoint::ALL {
            for _ in 0..100 {
                s.check(point);
            }
        }
        assert_eq!(s.fired(), None);
        assert_eq!(s.hits(Crashpoint::EpochWalk), 0, "inactive counts nothing");
    }

    #[test]
    fn armed_schedule_fires_at_exact_ordinal() {
        let s = CrashSchedule::armed(Crashpoint::FlushInFlight, 3);
        s.check(Crashpoint::FlushInFlight);
        s.check(Crashpoint::EpochWalk);
        s.check(Crashpoint::FlushInFlight);
        assert_eq!(s.fired(), None, "not yet at hit 3");
        let err = catch_unwind(AssertUnwindSafe(|| s.check(Crashpoint::FlushInFlight)))
            .expect_err("hit 3 must fire");
        let signal = err
            .downcast_ref::<CrashSignal>()
            .expect("payload is a CrashSignal");
        assert_eq!(signal.point, Crashpoint::FlushInFlight);
        assert_eq!(signal.hit, 3);
        assert_eq!(s.fired(), Some(*signal));
    }

    #[test]
    fn fires_at_most_once() {
        let s = CrashSchedule::armed(Crashpoint::EpochWalk, 1);
        catch_unwind(AssertUnwindSafe(|| s.check(Crashpoint::EpochWalk)))
            .expect_err("first hit fires");
        // Recovery walks back through the same seam: must not fire again,
        // and the mutex must not be poisoned by the unwind.
        for _ in 0..10 {
            s.check(Crashpoint::EpochWalk);
        }
        assert_eq!(s.fired().map(|f| f.hit), Some(1));
    }

    #[test]
    fn same_seed_arms_same_point() {
        for seed in 0..64 {
            let a = CrashSchedule::seeded(seed);
            let b = CrashSchedule::seeded(seed);
            assert_eq!(a.armed_at(), b.armed_at());
            assert_eq!(a.seed(), Some(seed));
            let (_, hit) = a.armed_at().expect("seeded schedules are armed");
            assert!((1..=4).contains(&hit));
        }
    }

    #[test]
    fn seeds_cover_every_crashpoint() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..64 {
            seen.insert(CrashSchedule::seeded(seed).armed_at().unwrap().0);
        }
        assert_eq!(seen.len(), Crashpoint::ALL.len());
    }

    #[test]
    fn clones_share_one_schedule() {
        let a = CrashSchedule::armed(Crashpoint::Rebalance, 2);
        let b = a.clone();
        a.check(Crashpoint::Rebalance);
        catch_unwind(AssertUnwindSafe(|| b.check(Crashpoint::Rebalance)))
            .expect_err("the clone sees the first hit and fires at 2");
        assert_eq!(a.fired().map(|f| f.point), Some(Crashpoint::Rebalance));
    }

    #[test]
    fn firing_emits_trace_event() {
        let clock = sim_clock::Clock::new();
        let telemetry = Telemetry::recording(clock);
        let s = CrashSchedule::armed(Crashpoint::EmergencyRetry, 1);
        s.attach_telemetry(telemetry.clone());
        catch_unwind(AssertUnwindSafe(|| s.check(Crashpoint::EmergencyRetry))).expect_err("fires");
        let events = telemetry.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].event.kind(), "crash_injected");
    }

    #[test]
    fn names_round_trip() {
        for point in Crashpoint::ALL {
            assert_eq!(Crashpoint::from_name(point.name()), Some(point));
        }
        assert_eq!(Crashpoint::from_name("nonsense"), None);
    }

    #[test]
    fn crashpoint_macro_expands_to_check() {
        let s = CrashSchedule::armed(Crashpoint::BudgetRound, 1);
        let err = catch_unwind(AssertUnwindSafe(|| crate::crashpoint!(s, BudgetRound)))
            .expect_err("macro checks the named point");
        assert!(err.downcast_ref::<CrashSignal>().is_some());
    }
}
