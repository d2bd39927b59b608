//! A flash SSD device model: the backing store Viyojit proactively copies
//! dirty NV-DRAM pages to, and the destination of the battery-powered flush
//! after a power failure.
//!
//! The paper exercises the SSD through page-granularity writes with a
//! bounded number of outstanding requests (its experiments cap outstanding
//! IOs at 16), and reads it back only at recovery, which no experiment
//! times. This model reproduces the three properties the evaluation
//! depends on:
//!
//! - **service time**: each IO costs a fixed device latency plus a
//!   bandwidth term, across a configurable number of parallel channels,
//! - **queuing**: completions are ordered on the shared virtual clock so a
//!   caller that must wait (a write blocked at the dirty budget, Fig. 6
//!   step 7) advances time to the completion instant,
//! - **wear**: total bytes written and per-block erase counts, which back
//!   the paper's §4.3 claim that LRU-directed copying keeps SSD write
//!   traffic (and thus wear) acceptable — measured in Fig. 9.
//!
//! The device models time and wear, not bytes: a write is charged for its
//! payload and the data itself is not kept. The bytes a write made durable
//! are NV-DRAM's as of the hand-over, which the caller keeps (the engine's
//! `Mmu` holds memory plus an undo log of the sectors overwritten since
//! their last hand-over, and recovery lays that log back).
//!
//! # Examples
//!
//! ```
//! use mem_sim::PageId;
//! use sim_clock::Clock;
//! use ssd_sim::{Ssd, SsdConfig};
//!
//! let clock = Clock::new();
//! let mut ssd = Ssd::new(64, SsdConfig::datacenter(), clock.clone());
//! let done = ssd.submit_write(PageId(3), &[7u8; 4096]);
//! assert!(done > clock.now());
//! clock.advance_to(done);
//! assert_eq!(ssd.outstanding(), 0);
//! assert_eq!(ssd.stats().bytes_written, 4096);
//! ```

mod device;
mod wear;

pub use device::{Ssd, SsdConfig, SsdStats, SsdWriteError};
pub use wear::WearTracker;
