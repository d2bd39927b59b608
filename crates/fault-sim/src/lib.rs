//! Deterministic, seeded fault injection for the Viyojit simulation stack.
//!
//! Viyojit's durability argument (§5.1 of the paper) assumes the emergency
//! flush races a draining battery against an SSD that may misbehave at the
//! worst moment. This crate supplies the misbehaviour: a [`FaultPlan`] is a
//! reproducible schedule, derived from a single `u64` seed via [`sim_clock::SplitMix64`],
//! of transient SSD write errors, latency spikes, and whole-device stalls,
//! plus battery-side state-of-charge misreports, abrupt capacity drops, and
//! hold-up shortfalls.
//!
//! Design rules, mirrored from the telemetry crate:
//!
//! - **Observers, not actors.** The plan never touches the virtual clock; it
//!   only answers hooks the simulators call at decision points.
//! - **Inactive is free.** [`FaultPlan::none`] draws no RNG state and
//!   answers every hook with the identity, so components built without a
//!   plan behave bit-for-bit as before the crate existed.
//! - **Every injection is traced.** When a telemetry handle is attached,
//!   each fired injection emits a `fault_injected` trace event.
//!
//! # Example
//!
//! ```
//! use fault_sim::{FaultConfig, FaultPlan};
//!
//! let plan = FaultPlan::seeded(0xC0FFEE, FaultConfig::storm(0.1));
//! let replay = FaultPlan::seeded(0xC0FFEE, FaultConfig::storm(0.1));
//! for page in 0..100 {
//!     assert_eq!(plan.ssd_write_fault(page), replay.ssd_write_fault(page));
//! }
//! ```

mod crash;
mod plan;

pub use crash::{CrashSchedule, CrashSignal, Crashpoint};
pub use plan::{FaultConfig, FaultPlan, FaultStats, SsdWriteFault};
