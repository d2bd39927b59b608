//! Hysteresis-based degraded-mode budget governor.
//!
//! §8 of the paper re-derives the dirty budget when battery health changes;
//! this module generalises that into a governor that watches two health
//! signals — the battery gauge's reported health and the SSD's windowed
//! write-error rate — and shrinks the dirty budget to a degraded fraction
//! when either crosses its entry threshold. Hysteresis (separate, stricter
//! exit thresholds) prevents the budget from flapping when a signal hovers
//! near a threshold.
//!
//! The governor is pure policy: it owns no engine state and returns the
//! budget the engine *should* run with; callers apply it through the
//! existing [`set_dirty_budget`](crate::Engine::set_dirty_budget) /
//! [`set_total_budget`](super::ShardControlPlane::set_total_budget) paths,
//! which already stall writers until the dirty population fits the shrunk
//! budget.

use ssd_sim::SsdStats;

/// Which degraded-entry signal tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// Reported battery health fell below the entry threshold.
    BatteryHealth,
    /// The windowed SSD write-error rate rose above the entry threshold.
    SsdErrors,
    /// Both signals tripped in the same observation.
    Both,
}

/// The governor's typed status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedMode {
    /// Full nominal budget in force.
    Nominal,
    /// Degraded budget in force, with the signal that caused entry.
    Degraded(DegradeReason),
}

/// Thresholds and budget policy for [`DegradationGovernor`].
///
/// Entry thresholds trip degradation; exit thresholds (strictly safer than
/// entry) must be re-crossed before the governor restores the nominal
/// budget — the hysteresis band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationConfig {
    /// Enter degraded mode when reported battery health drops below this.
    pub health_enter: f64,
    /// Leave (the battery leg of) degraded mode only when reported health
    /// recovers above this. Must be `>= health_enter`.
    pub health_exit: f64,
    /// Enter degraded mode when the windowed write-error rate (errors per
    /// attempted write since the last observation) exceeds this.
    pub error_rate_enter: f64,
    /// Leave (the SSD leg of) degraded mode only when the windowed rate
    /// falls below this. Must be `<= error_rate_enter`.
    pub error_rate_exit: f64,
    /// Fraction of the nominal budget to run with while degraded.
    pub degraded_fraction: f64,
    /// Floor on the degraded budget (a budget of zero would deadlock every
    /// writer).
    pub min_budget_pages: u64,
}

impl Default for DegradationConfig {
    fn default() -> Self {
        DegradationConfig {
            health_enter: 0.55,
            health_exit: 0.7,
            error_rate_enter: 0.05,
            error_rate_exit: 0.01,
            degraded_fraction: 0.5,
            min_budget_pages: 1,
        }
    }
}

impl DegradationConfig {
    /// Panics unless thresholds are ordered for hysteresis and fractions
    /// are sane.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.health_enter)
                && (0.0..=1.0).contains(&self.health_exit)
                && self.health_exit >= self.health_enter,
            "health hysteresis requires 0 <= enter <= exit <= 1, got enter={} exit={}",
            self.health_enter,
            self.health_exit
        );
        assert!(
            self.error_rate_enter >= 0.0
                && self.error_rate_exit >= 0.0
                && self.error_rate_exit <= self.error_rate_enter,
            "error-rate hysteresis requires 0 <= exit <= enter, got enter={} exit={}",
            self.error_rate_enter,
            self.error_rate_exit
        );
        assert!(
            self.degraded_fraction > 0.0 && self.degraded_fraction <= 1.0,
            "degraded fraction must be in (0,1], got {}",
            self.degraded_fraction
        );
        assert!(
            self.min_budget_pages > 0,
            "degraded budget floor must allow at least one dirty page"
        );
    }
}

/// Watches battery health and SSD error rate and decides the dirty budget.
///
/// Call [`observe`](DegradationGovernor::observe) whenever fresh signals
/// are available (epoch boundaries, battery telemetry ticks). It returns
/// `Some(budget)` only on a mode *transition* — callers apply that budget
/// and otherwise leave the engine alone.
///
/// # Examples
///
/// ```
/// use ssd_sim::SsdStats;
/// use viyojit::{DegradationConfig, DegradationGovernor, DegradedMode};
///
/// let mut gov = DegradationGovernor::new(1024, DegradationConfig::default());
/// // Healthy battery, clean SSD: stays nominal, no budget change.
/// assert_eq!(gov.observe(1.0, &SsdStats::default()), None);
/// // Battery loses half its cells: degrade to half the budget.
/// assert_eq!(gov.observe(0.5, &SsdStats::default()), Some(512));
/// assert!(matches!(gov.mode(), DegradedMode::Degraded(_)));
/// // Hysteresis: recovering to 0.6 is above enter (0.55) but below
/// // exit (0.7), so the governor holds the degraded budget.
/// assert_eq!(gov.observe(0.6, &SsdStats::default()), None);
/// // Full recovery restores the nominal budget.
/// assert_eq!(gov.observe(0.9, &SsdStats::default()), Some(1024));
/// assert_eq!(gov.mode(), DegradedMode::Nominal);
/// ```
#[derive(Debug, Clone)]
pub struct DegradationGovernor {
    config: DegradationConfig,
    nominal_budget: u64,
    mode: DegradedMode,
    /// `(writes + write_errors, write_errors)` at the last observation, so
    /// each observation judges only the traffic since the previous one.
    last_seen: (u64, u64),
    transitions: u64,
}

impl DegradationGovernor {
    /// A governor holding `nominal_budget` pages while healthy.
    ///
    /// # Panics
    ///
    /// Panics if `nominal_budget` is zero or `config` is invalid.
    pub fn new(nominal_budget: u64, config: DegradationConfig) -> Self {
        assert!(nominal_budget > 0, "nominal budget must be positive");
        config.validate();
        DegradationGovernor {
            config,
            nominal_budget,
            mode: DegradedMode::Nominal,
            last_seen: (0, 0),
            transitions: 0,
        }
    }

    /// Current mode.
    pub fn mode(&self) -> DegradedMode {
        self.mode
    }

    /// The budget the governor currently prescribes.
    pub fn current_budget(&self) -> u64 {
        match self.mode {
            DegradedMode::Nominal => self.nominal_budget,
            DegradedMode::Degraded(_) => self.degraded_budget(),
        }
    }

    /// Mode transitions so far (enter + exit).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Updates the nominal budget (e.g. after a §8 battery re-derivation)
    /// without disturbing the mode. Returns the budget now prescribed.
    pub fn set_nominal_budget(&mut self, pages: u64) -> u64 {
        assert!(pages > 0, "nominal budget must be positive");
        self.nominal_budget = pages;
        self.current_budget()
    }

    fn degraded_budget(&self) -> u64 {
        let shrunk = (self.nominal_budget as f64 * self.config.degraded_fraction) as u64;
        shrunk.max(self.config.min_budget_pages)
    }

    /// Feeds fresh signals and returns `Some(new budget)` iff the mode
    /// changed. `reported_health` is what the battery gauge claims (which
    /// under fault injection may differ from the truth — the governor can
    /// only act on what it can see); `ssd` is the cumulative counter
    /// snapshot, windowed internally.
    pub fn observe(&mut self, reported_health: f64, ssd: &SsdStats) -> Option<u64> {
        let attempts = ssd.writes + ssd.write_errors;
        let (seen_attempts, seen_errors) = self.last_seen;
        let window_attempts = attempts.saturating_sub(seen_attempts);
        let window_errors = ssd.write_errors.saturating_sub(seen_errors);
        self.last_seen = (attempts, ssd.write_errors);
        let error_rate = if window_attempts == 0 {
            0.0
        } else {
            window_errors as f64 / window_attempts as f64
        };

        let next = match self.mode {
            DegradedMode::Nominal => {
                let battery_bad = reported_health < self.config.health_enter;
                let ssd_bad = error_rate > self.config.error_rate_enter;
                match (battery_bad, ssd_bad) {
                    (true, true) => DegradedMode::Degraded(DegradeReason::Both),
                    (true, false) => DegradedMode::Degraded(DegradeReason::BatteryHealth),
                    (false, true) => DegradedMode::Degraded(DegradeReason::SsdErrors),
                    (false, false) => DegradedMode::Nominal,
                }
            }
            DegradedMode::Degraded(_) => {
                // Exit requires *both* signals safely inside the exit band.
                let battery_ok = reported_health >= self.config.health_exit;
                let ssd_ok = error_rate <= self.config.error_rate_exit;
                if battery_ok && ssd_ok {
                    DegradedMode::Nominal
                } else {
                    self.mode // hold, whatever originally tripped it
                }
            }
        };
        if next == self.mode {
            return None;
        }
        self.mode = next;
        self.transitions += 1;
        Some(self.current_budget())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(writes: u64, errors: u64) -> SsdStats {
        SsdStats {
            writes,
            write_errors: errors,
            ..SsdStats::default()
        }
    }

    #[test]
    fn healthy_signals_never_transition() {
        let mut gov = DegradationGovernor::new(100, DegradationConfig::default());
        for i in 0..10 {
            assert_eq!(gov.observe(1.0, &stats(i * 50, 0)), None);
        }
        assert_eq!(gov.mode(), DegradedMode::Nominal);
        assert_eq!(gov.transitions(), 0);
    }

    #[test]
    fn error_spike_degrades_and_recovery_needs_clean_window() {
        let mut gov = DegradationGovernor::new(100, DegradationConfig::default());
        // 10 errors in 100 attempts = 10% > 5% enter threshold.
        assert_eq!(
            gov.observe(1.0, &stats(90, 10)),
            Some(50),
            "spike should halve the budget"
        );
        assert_eq!(gov.mode(), DegradedMode::Degraded(DegradeReason::SsdErrors));
        // Next window: 3 more errors in 100 attempts = 3% — above the 1%
        // exit threshold, so hysteresis holds the degraded budget.
        assert_eq!(gov.observe(1.0, &stats(187, 13)), None);
        // A clean window recovers.
        assert_eq!(gov.observe(1.0, &stats(287, 13)), Some(100));
        assert_eq!(gov.mode(), DegradedMode::Nominal);
        assert_eq!(gov.transitions(), 2);
    }

    #[test]
    fn both_signals_reported_as_both() {
        let mut gov = DegradationGovernor::new(100, DegradationConfig::default());
        assert!(gov.observe(0.1, &stats(50, 50)).is_some());
        assert_eq!(gov.mode(), DegradedMode::Degraded(DegradeReason::Both));
    }

    #[test]
    fn exit_requires_every_signal_healthy() {
        let mut gov = DegradationGovernor::new(100, DegradationConfig::default());
        assert!(gov.observe(0.2, &stats(100, 20)).is_some());
        // Battery recovers fully but the SSD is still erroring: hold.
        assert_eq!(gov.observe(1.0, &stats(180, 40)), None);
        // Both healthy: exit.
        assert_eq!(gov.observe(1.0, &stats(280, 40)), Some(100));
    }

    #[test]
    fn degraded_budget_never_below_floor() {
        let config = DegradationConfig {
            degraded_fraction: 0.5,
            min_budget_pages: 4,
            ..DegradationConfig::default()
        };
        let mut gov = DegradationGovernor::new(5, config);
        assert_eq!(gov.observe(0.0, &stats(0, 0)), Some(4));
    }

    #[test]
    fn nominal_budget_update_respects_mode() {
        let mut gov = DegradationGovernor::new(100, DegradationConfig::default());
        assert_eq!(gov.set_nominal_budget(200), 200);
        assert!(gov.observe(0.1, &stats(0, 0)).is_some());
        assert_eq!(gov.set_nominal_budget(400), 200);
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn inverted_hysteresis_band_panics() {
        let config = DegradationConfig {
            health_enter: 0.8,
            health_exit: 0.6,
            ..DegradationConfig::default()
        };
        DegradationGovernor::new(1, config);
    }
}
