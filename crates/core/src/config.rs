//! Runtime configuration of the Viyojit manager.

use battery_sim::{Battery, DirtyBudget, PowerModel};
use sim_clock::SimDuration;

use crate::{FlushCodec, ViyojitError};

/// How the proactive-copy threshold is derived from the dirty budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdPolicy {
    /// The paper's online algorithm (§5.3): `threshold = budget - EWMA of
    /// new-dirty-pages-per-epoch`, so slack tracks the observed burst size.
    Adaptive,
    /// `threshold = budget - slack` with a fixed slack. The two failure
    /// modes §5.3 describes: slack too small and bursts block writers on
    /// SSD copies; slack too large and the copier writes out pages that
    /// were about to be rewritten, wasting SSD bandwidth and wear.
    FixedSlack(u64),
}

/// Configuration of a [`Viyojit`](crate::Viyojit) instance.
///
/// The defaults mirror the paper's evaluation setup (§6.1): a 1 ms epoch,
/// TLB flushes on every epoch walk and the adaptive threshold. What the
/// paper fixes is fixed in the engine, not here: least-recently-updated
/// victims (§5.2), an EWMA weight of 0.75 on the newest observation
/// (§5.3) and at most 16 outstanding IO requests (§6.1).
///
/// # Examples
///
/// ```
/// use viyojit::ViyojitConfig;
///
/// let cfg = ViyojitConfig::with_budget_pages(512);
/// assert_eq!(cfg.dirty_budget_pages, 512);
/// assert!(cfg.tlb_flush_on_walk);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ViyojitConfig {
    /// Maximum number of pages that may be dirty (inconsistent with the
    /// SSD) at any instant.
    pub dirty_budget_pages: u64,
    /// Length of the dirty-bit sampling epoch (§5.2).
    pub epoch: SimDuration,
    /// Flush the TLB before each epoch walk so dirty bits are exact.
    /// Disabling this reproduces the §6.3 ablation.
    pub tlb_flush_on_walk: bool,
    /// How the proactive-copy threshold is derived (§5.3's adaptive
    /// algorithm by default; fixed slack for the ablation).
    pub threshold_policy: ThresholdPolicy,
    /// Payload treatment for copy-out writes (§7: compression/dedup).
    pub flush_codec: FlushCodec,
    /// Mondrian-style sub-page flushing (§7): ship only the 64 B sectors
    /// modified since the last flush, when a durable base copy exists.
    pub sector_flush: bool,
}

impl ViyojitConfig {
    /// Starts a validating builder seeded with the paper defaults and the
    /// given dirty budget. Unlike the panicking constructors, invalid
    /// combinations surface as [`ViyojitError::InvalidConfig`] from
    /// [`ViyojitConfigBuilder::build`]. Prefer this over direct struct
    /// construction.
    ///
    /// # Examples
    ///
    /// ```
    /// use viyojit::ViyojitConfig;
    ///
    /// let cfg = ViyojitConfig::builder(512).sector_flush(true).build()?;
    /// assert_eq!(cfg.dirty_budget_pages, 512);
    ///
    /// assert!(ViyojitConfig::builder(0).build().is_err());
    /// # Ok::<(), viyojit::ViyojitError>(())
    /// ```
    pub fn builder(dirty_budget_pages: u64) -> ViyojitConfigBuilder {
        ViyojitConfigBuilder {
            cfg: ViyojitConfig {
                dirty_budget_pages,
                epoch: SimDuration::from_millis(1),
                tlb_flush_on_walk: true,
                threshold_policy: ThresholdPolicy::Adaptive,
                flush_codec: FlushCodec::Raw,
                sector_flush: false,
            },
            total_pages: None,
        }
    }

    /// Paper-default configuration with an explicit dirty budget, the way
    /// the evaluation sweeps battery capacity ("we use the dirty budget as
    /// a proxy for the battery capacity", §6.1).
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero: a zero budget would forbid every write.
    pub fn with_budget_pages(pages: u64) -> Self {
        assert!(pages > 0, "dirty budget must allow at least one dirty page");
        Self::builder(pages).cfg
    }

    /// Paper-default configuration with the budget derived from a real
    /// battery provisioning via §5.1's chain (battery -> hold-up time ->
    /// flushable bytes).
    ///
    /// # Panics
    ///
    /// Panics if the derived budget rounds down to zero pages.
    pub fn from_battery(
        battery: &Battery,
        power: &PowerModel,
        flush_bandwidth_bytes_per_sec: u64,
    ) -> Self {
        let budget = DirtyBudget::derive(battery, power, flush_bandwidth_bytes_per_sec);
        Self::with_budget_pages(budget.pages())
    }
}

/// Validating builder for [`ViyojitConfig`], created by
/// [`ViyojitConfig::builder`].
///
/// Setters never panic; every constraint is checked once in
/// [`ViyojitConfigBuilder::build`], which rejects a zero budget, a budget
/// exceeding the NV-DRAM capacity (when [`ViyojitConfigBuilder::total_pages`]
/// is supplied) and a zero epoch.
#[derive(Debug, Clone)]
pub struct ViyojitConfigBuilder {
    cfg: ViyojitConfig,
    total_pages: Option<u64>,
}

impl ViyojitConfigBuilder {
    /// Sets the dirty budget in pages.
    #[must_use]
    pub fn budget_pages(mut self, pages: u64) -> Self {
        self.cfg.dirty_budget_pages = pages;
        self
    }

    /// Declares the NV-DRAM capacity so `build` can reject budgets larger
    /// than the memory they bound.
    #[must_use]
    pub fn total_pages(mut self, pages: u64) -> Self {
        self.total_pages = Some(pages);
        self
    }

    /// Sets the epoch length (§5.2).
    #[must_use]
    pub fn epoch(mut self, epoch: SimDuration) -> Self {
        self.cfg.epoch = epoch;
        self
    }

    /// Enables or disables TLB flushing on epoch walks (§6.3 ablation).
    #[must_use]
    pub fn tlb_flush_on_walk(mut self, flush: bool) -> Self {
        self.cfg.tlb_flush_on_walk = flush;
        self
    }

    /// Sets the proactive-copy threshold policy.
    #[must_use]
    pub fn threshold_policy(mut self, policy: ThresholdPolicy) -> Self {
        self.cfg.threshold_policy = policy;
        self
    }

    /// Sets the copy-out payload codec (§7).
    #[must_use]
    pub fn flush_codec(mut self, codec: FlushCodec) -> Self {
        self.cfg.flush_codec = codec;
        self
    }

    /// Enables or disables sub-page sector flushing (§7).
    #[must_use]
    pub fn sector_flush(mut self, enabled: bool) -> Self {
        self.cfg.sector_flush = enabled;
        self
    }

    /// Validates every constraint and produces the configuration.
    pub fn build(self) -> Result<ViyojitConfig, ViyojitError> {
        let cfg = self.cfg;
        if cfg.dirty_budget_pages == 0 {
            return Err(ViyojitError::InvalidConfig(
                "dirty budget must allow at least one dirty page",
            ));
        }
        if let Some(total) = self.total_pages {
            if cfg.dirty_budget_pages > total {
                return Err(ViyojitError::InvalidConfig(
                    "dirty budget exceeds the total NV-DRAM pages it bounds",
                ));
            }
        }
        if cfg.epoch.is_zero() {
            return Err(ViyojitError::InvalidConfig("epoch must be positive"));
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use battery_sim::BatteryConfig;

    #[test]
    fn defaults_match_the_papers_evaluation_setup() {
        let cfg = ViyojitConfig::with_budget_pages(100);
        assert_eq!(cfg.epoch, SimDuration::from_millis(1));
        assert!(cfg.tlb_flush_on_walk);
        assert_eq!(cfg.threshold_policy, ThresholdPolicy::Adaptive);
    }

    #[test]
    fn battery_derivation_produces_a_positive_budget() {
        let battery = Battery::new(BatteryConfig::with_capacity_joules(10_000.0));
        let power = PowerModel::datacenter_server(64.0);
        let cfg = ViyojitConfig::from_battery(&battery, &power, 2_000_000_000);
        assert!(cfg.dirty_budget_pages > 0);
    }

    #[test]
    #[should_panic(expected = "at least one dirty page")]
    fn zero_budget_panics() {
        let _ = ViyojitConfig::with_budget_pages(0);
    }

    #[test]
    fn builder_accepts_the_paper_defaults() {
        let built = ViyojitConfig::builder(100).build().unwrap();
        assert_eq!(built, ViyojitConfig::with_budget_pages(100));
    }

    #[test]
    fn builder_rejects_each_invalid_constraint() {
        assert!(ViyojitConfig::builder(0).build().is_err());
        assert!(ViyojitConfig::builder(100).total_pages(64).build().is_err());
        assert!(ViyojitConfig::builder(64).total_pages(64).build().is_ok());
        assert!(ViyojitConfig::builder(1)
            .epoch(SimDuration::ZERO)
            .build()
            .is_err());
    }

    #[test]
    fn builder_errors_render_through_viyojit_error() {
        let err = ViyojitConfig::builder(0).build().unwrap_err();
        assert!(err.to_string().contains("at least one dirty page"));
    }
}
