//! Seeded fault schedules for the SSD and battery simulators.
//!
//! A [`FaultPlan`] is a shared handle (same shape as [`telemetry::Telemetry`]):
//! clones point at one seeded RNG stream, so a plan attached to an SSD, a
//! battery, and an engine perturbs them from a single reproducible schedule.
//! The inactive plan ([`FaultPlan::none`], the default) consumes no RNG state
//! and answers every hook with the identity, so components that carry a plan
//! but were never given one behave bit-for-bit like unfaulted components.

use std::sync::{Arc, Mutex};

use sim_clock::{SimDuration, SplitMix64};
use telemetry::{FaultKind, Telemetry, TraceEvent};

/// Injection rates and magnitudes for one fault schedule.
///
/// All `*_rate` fields are per-opportunity Bernoulli probabilities in
/// `[0, 1]`: SSD rates are drawn once per submitted write, battery rates once
/// per report/query. Magnitudes describe the perturbation applied when the
/// draw fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability a submitted SSD write fails transiently.
    pub ssd_write_error_rate: f64,
    /// Probability a submitted SSD write is serviced at spiked latency.
    pub ssd_latency_spike_rate: f64,
    /// Multiplier applied to nominal write latency during a spike.
    pub ssd_latency_spike_factor: u32,
    /// Probability a submitted SSD write triggers a whole-device stall.
    pub ssd_stall_rate: f64,
    /// Duration every channel is pushed back by during a stall.
    pub ssd_stall: SimDuration,
    /// Probability a state-of-charge query is misreported.
    pub soc_misreport_rate: f64,
    /// Maximum relative misreport amplitude (reported = real × (1 ± a·u)).
    pub soc_misreport_amplitude: f64,
    /// Probability a capacity-drop check fires (checked once per query).
    pub capacity_drop_rate: f64,
    /// Fraction of health retained after an abrupt capacity drop.
    pub capacity_drop_factor: f64,
    /// Probability the battery under-delivers hold-up energy.
    pub holdup_shortfall_rate: f64,
    /// Fraction of deliverable energy lost during a shortfall.
    pub holdup_shortfall_fraction: f64,
}

impl FaultConfig {
    /// No faults: every rate zero. [`FaultPlan::seeded`] with this config is
    /// active (it owns an RNG) but never fires.
    pub fn none() -> Self {
        FaultConfig {
            ssd_write_error_rate: 0.0,
            ssd_latency_spike_rate: 0.0,
            ssd_latency_spike_factor: 8,
            ssd_stall_rate: 0.0,
            ssd_stall: SimDuration::from_millis(2),
            soc_misreport_rate: 0.0,
            soc_misreport_amplitude: 0.2,
            capacity_drop_rate: 0.0,
            capacity_drop_factor: 0.5,
            holdup_shortfall_rate: 0.0,
            holdup_shortfall_fraction: 0.25,
        }
    }

    /// A uniform storm: every fault class fires at `rate` with the default
    /// magnitudes from [`FaultConfig::none`], except capacity drops, which
    /// stay off (they are monotone and would dominate long sweeps; enable
    /// them explicitly when testing the governor's emergency shrink).
    pub fn storm(rate: f64) -> Self {
        FaultConfig {
            ssd_write_error_rate: rate,
            ssd_latency_spike_rate: rate,
            ssd_stall_rate: rate,
            soc_misreport_rate: rate,
            holdup_shortfall_rate: rate,
            ..FaultConfig::none()
        }
    }

    /// Panics unless every rate is a probability and every magnitude is in
    /// its meaningful range.
    pub fn validate(&self) {
        let rates = [
            ("ssd_write_error_rate", self.ssd_write_error_rate),
            ("ssd_latency_spike_rate", self.ssd_latency_spike_rate),
            ("ssd_stall_rate", self.ssd_stall_rate),
            ("soc_misreport_rate", self.soc_misreport_rate),
            ("capacity_drop_rate", self.capacity_drop_rate),
            ("holdup_shortfall_rate", self.holdup_shortfall_rate),
        ];
        for (name, rate) in rates {
            assert!(
                (0.0..=1.0).contains(&rate),
                "{name} must be in [0, 1], got {rate}"
            );
        }
        assert!(
            self.ssd_latency_spike_factor >= 1,
            "spike factor must be >= 1"
        );
        assert!(
            (0.0..=1.0).contains(&self.soc_misreport_amplitude),
            "soc_misreport_amplitude must be in [0, 1]"
        );
        assert!(
            (0.0..1.0).contains(&self.capacity_drop_factor) || self.capacity_drop_factor == 1.0,
            "capacity_drop_factor must be in (0, 1]",
        );
        assert!(
            self.capacity_drop_factor > 0.0,
            "capacity_drop_factor must be > 0"
        );
        assert!(
            (0.0..=1.0).contains(&self.holdup_shortfall_fraction),
            "holdup_shortfall_fraction must be in [0, 1]"
        );
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// Counts of injections actually fired, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient SSD write errors injected.
    pub ssd_write_errors: u64,
    /// SSD latency spikes injected.
    pub ssd_latency_spikes: u64,
    /// Whole-device SSD stalls injected.
    pub ssd_stalls: u64,
    /// State-of-charge misreports injected.
    pub soc_misreports: u64,
    /// Abrupt capacity drops injected.
    pub capacity_drops: u64,
    /// Hold-up shortfalls injected.
    pub holdup_shortfalls: u64,
}

impl FaultStats {
    /// Total injections across every kind.
    pub fn total(&self) -> u64 {
        self.ssd_write_errors
            + self.ssd_latency_spikes
            + self.ssd_stalls
            + self.soc_misreports
            + self.capacity_drops
            + self.holdup_shortfalls
    }
}

#[derive(Debug)]
struct PlanState {
    rng: SplitMix64,
    config: FaultConfig,
    telemetry: Telemetry,
    stats: FaultStats,
}

impl PlanState {
    fn record(&mut self, kind: FaultKind, page: u64, magnitude_permille: u64) {
        match kind {
            FaultKind::SsdWriteError => self.stats.ssd_write_errors += 1,
            FaultKind::SsdLatencySpike => self.stats.ssd_latency_spikes += 1,
            FaultKind::SsdStall => self.stats.ssd_stalls += 1,
            FaultKind::SocMisreport => self.stats.soc_misreports += 1,
            FaultKind::CapacityDrop => self.stats.capacity_drops += 1,
            FaultKind::HoldupShortfall => self.stats.holdup_shortfalls += 1,
        }
        self.telemetry.emit(|| TraceEvent::FaultInjected {
            kind,
            page,
            magnitude_permille,
        });
    }
}

/// The outcome of consulting the plan for one SSD write submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsdWriteFault {
    /// The write fails transiently after occupying its channel.
    pub error: bool,
    /// Latency multiplier for this write (1 = nominal).
    pub latency_factor: u32,
    /// Whole-device stall charged to every channel before servicing.
    pub stall: SimDuration,
}

impl SsdWriteFault {
    /// The unfaulted submission: no error, nominal latency, no stall.
    pub const NONE: SsdWriteFault = SsdWriteFault {
        error: false,
        latency_factor: 1,
        stall: SimDuration::ZERO,
    };
}

/// Shared, cheaply clonable fault-schedule handle.
///
/// Deterministic: two plans built with [`FaultPlan::seeded`] from the same
/// seed and config answer every hook identically when the hooks are called
/// in the same order.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: Option<u64>,
    state: Option<Arc<Mutex<PlanState>>>,
}

impl FaultPlan {
    /// The inactive plan: no RNG, no injections, every hook is the identity.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// An active plan replaying the schedule determined by `seed` under
    /// `config`. Panics if `config` fails [`FaultConfig::validate`].
    pub fn seeded(seed: u64, config: FaultConfig) -> Self {
        config.validate();
        FaultPlan {
            seed: Some(seed),
            state: Some(Arc::new(Mutex::new(PlanState {
                rng: SplitMix64::new(seed),
                config,
                telemetry: Telemetry::disabled(),
                stats: FaultStats::default(),
            }))),
        }
    }

    /// The seed this plan replays, if active.
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// The active plan's configuration.
    pub fn config(&self) -> Option<FaultConfig> {
        self.state
            .as_ref()
            .map(|s| s.lock().expect("fault plan poisoned").config)
    }

    /// Routes injection trace events into `telemetry`. All clones share the
    /// destination.
    pub fn attach_telemetry(&self, telemetry: Telemetry) {
        if let Some(state) = &self.state {
            state.lock().expect("fault plan poisoned").telemetry = telemetry;
        }
    }

    /// Injections fired so far, by kind.
    pub fn stats(&self) -> FaultStats {
        match &self.state {
            Some(state) => state.lock().expect("fault plan poisoned").stats,
            None => FaultStats::default(),
        }
    }

    /// Consulted by the SSD once per submitted write. Draws (in order)
    /// stall, latency spike, and write error for this submission.
    pub fn ssd_write_fault(&self, page: u64) -> SsdWriteFault {
        let Some(state) = &self.state else {
            return SsdWriteFault::NONE;
        };
        let mut s = state.lock().expect("fault plan poisoned");
        let config = s.config;
        let mut fault = SsdWriteFault::NONE;
        if s.rng.chance(config.ssd_stall_rate) {
            fault.stall = config.ssd_stall;
            let permille = fault.stall.as_nanos() / 1_000_000;
            s.record(FaultKind::SsdStall, u64::MAX, permille);
        }
        if s.rng.chance(config.ssd_latency_spike_rate) {
            fault.latency_factor = config.ssd_latency_spike_factor.max(1);
            s.record(
                FaultKind::SsdLatencySpike,
                page,
                fault.latency_factor as u64 * 1000,
            );
        }
        if s.rng.chance(config.ssd_write_error_rate) {
            fault.error = true;
            s.record(FaultKind::SsdWriteError, page, 0);
        }
        fault
    }

    /// Consulted by the battery once per state-of-charge report. Returns the
    /// multiplicative factor applied to the true reading (1.0 = truthful).
    pub fn soc_report_factor(&self) -> f64 {
        let Some(state) = &self.state else {
            return 1.0;
        };
        let mut s = state.lock().expect("fault plan poisoned");
        let config = s.config;
        if !s.rng.chance(config.soc_misreport_rate) {
            return 1.0;
        }
        // Symmetric around truthful: u in [-1, 1) scaled by the amplitude.
        let u = s.rng.next_f64() * 2.0 - 1.0;
        let factor = (1.0 + config.soc_misreport_amplitude * u).max(0.0);
        s.record(FaultKind::SocMisreport, u64::MAX, (factor * 1000.0) as u64);
        factor
    }

    /// Consulted once per battery health check. When it fires, returns the
    /// fraction of health retained (the caller multiplies health by it).
    pub fn capacity_drop(&self) -> Option<f64> {
        let state = self.state.as_ref()?;
        let mut s = state.lock().expect("fault plan poisoned");
        let config = s.config;
        if !s.rng.chance(config.capacity_drop_rate) {
            return None;
        }
        let factor = config.capacity_drop_factor;
        s.record(FaultKind::CapacityDrop, u64::MAX, (factor * 1000.0) as u64);
        Some(factor)
    }

    /// Consulted once per hold-up discharge. Returns the fraction of
    /// deliverable energy *lost* (0.0 = full delivery).
    pub fn holdup_shortfall(&self) -> f64 {
        let Some(state) = &self.state else {
            return 0.0;
        };
        let mut s = state.lock().expect("fault plan poisoned");
        let config = s.config;
        if !s.rng.chance(config.holdup_shortfall_rate) {
            return 0.0;
        }
        let fraction = config.holdup_shortfall_fraction;
        s.record(
            FaultKind::HoldupShortfall,
            u64::MAX,
            (fraction * 1000.0) as u64,
        );
        fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_plan_is_identity() {
        let plan = FaultPlan::none();
        assert_eq!(plan.seed(), None);
        assert_eq!(plan.ssd_write_fault(3), SsdWriteFault::NONE);
        assert_eq!(plan.soc_report_factor(), 1.0);
        assert_eq!(plan.capacity_drop(), None);
        assert_eq!(plan.holdup_shortfall(), 0.0);
        assert_eq!(plan.stats(), FaultStats::default());
    }

    #[test]
    fn zero_rate_active_plan_never_fires() {
        let plan = FaultPlan::seeded(99, FaultConfig::none());
        for page in 0..1000 {
            assert_eq!(plan.ssd_write_fault(page), SsdWriteFault::NONE);
        }
        assert_eq!(plan.soc_report_factor(), 1.0);
        assert_eq!(plan.stats().total(), 0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let config = FaultConfig::storm(0.3);
        let a = FaultPlan::seeded(7, config);
        let b = FaultPlan::seeded(7, config);
        for page in 0..500 {
            assert_eq!(a.ssd_write_fault(page), b.ssd_write_fault(page));
            assert_eq!(a.soc_report_factor(), b.soc_report_factor());
            assert_eq!(a.holdup_shortfall(), b.holdup_shortfall());
        }
        assert_eq!(a.stats(), b.stats());
        assert!(
            a.stats().total() > 0,
            "storm at 0.3 should fire in 500 rounds"
        );
    }

    #[test]
    fn clones_share_one_stream() {
        let a = FaultPlan::seeded(11, FaultConfig::storm(1.0));
        let b = a.clone();
        // Both clones fire (rate 1.0) and account into the same stats.
        assert!(a.ssd_write_fault(0).error);
        assert!(b.ssd_write_fault(1).error);
        assert_eq!(a.stats().ssd_write_errors, 2);
    }

    #[test]
    fn injections_emit_trace_events() {
        let clock = sim_clock::Clock::new();
        let telemetry = Telemetry::recording(clock);
        let plan = FaultPlan::seeded(5, FaultConfig::storm(1.0));
        plan.attach_telemetry(telemetry.clone());
        plan.ssd_write_fault(42);
        let events = telemetry.events();
        assert_eq!(events.len(), 3, "stall + spike + error at rate 1.0");
        assert!(events.iter().all(|e| e.event.kind() == "fault_injected"));
    }

    #[test]
    fn capacity_drop_returns_configured_factor() {
        let mut config = FaultConfig::none();
        config.capacity_drop_rate = 1.0;
        config.capacity_drop_factor = 0.5;
        let plan = FaultPlan::seeded(1, config);
        assert_eq!(plan.capacity_drop(), Some(0.5));
        assert_eq!(plan.stats().capacity_drops, 1);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn validate_rejects_rate_above_one() {
        FaultPlan::seeded(0, FaultConfig::storm(1.5));
    }
}
