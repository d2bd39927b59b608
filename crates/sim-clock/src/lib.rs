//! Virtual time and cost accounting for the Viyojit simulation stack.
//!
//! Every substrate in this workspace (MMU, TLB, SSD, battery, key-value
//! store) runs against a *virtual* nanosecond clock rather than wall-clock
//! time. This crate provides:
//!
//! - [`SimTime`] / [`SimDuration`]: nanosecond-precision instants and spans,
//! - [`Clock`]: a shareable, monotonically advancing virtual clock — one
//!   advancing thread per timeline, any number of readers,
//! - [`CostModel`]: named per-event costs, calibrated from the measurements
//!   the Viyojit paper reports (trap handling, TLB flush, PTE updates, ...),
//! - [`Histogram`]: a log-bucketed latency histogram for percentile
//!   reporting in the figure harnesses,
//! - [`SplitMix64`] / [`fnv1a_64`]: the one seeded generator every workload,
//!   fault schedule and test stream draws from, and the one byte hash.
//!
//! # Examples
//!
//! ```
//! use sim_clock::{Clock, SimDuration};
//!
//! let clock = Clock::new();
//! clock.advance(SimDuration::from_micros(25));
//! assert_eq!(clock.now().as_nanos(), 25_000);
//! ```

mod cost;
mod histogram;
mod rng;
mod time;

pub use cost::CostModel;
pub use histogram::Histogram;
pub use rng::{fnv1a_64, SplitMix64};
pub use time::{Clock, SimDuration, SimTime};
