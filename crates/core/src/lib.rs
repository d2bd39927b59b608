//! # Viyojit: decoupling battery and DRAM capacities for battery-backed DRAM
//!
//! A from-scratch reproduction of *Viyojit* (Kateja, Badam, Govindan,
//! Sharma, Ganger — ISCA 2017). Battery-backed DRAM traditionally requires
//! battery energy proportional to DRAM capacity, but battery density grows
//! ~3x per 25 years while server DRAM grows >50,000x. Viyojit breaks the
//! coupling: it bounds the number of *dirty* pages (pages inconsistent with
//! a backing SSD) to a **dirty budget** derived from whatever battery is
//! provisioned, and exploits write skew so the bound costs little
//! performance.
//!
//! The crate provides:
//!
//! - [`Engine`] — the unified manager: one Fig. 6 state machine (mmap-like
//!   [`NvHeap`] API, exact synchronous dirty counting, epoch-based
//!   least-recently-updated victim selection ([`UpdateHistory`],
//!   [`VictimSelector`]), EWMA dirty-page-pressure prediction
//!   ([`PressureEstimator`]), proactive copy-out, power-failure flush and
//!   recovery), generic over a [`DirtyTracker`] backend;
//! - [`Viyojit`] — the engine with the [`SoftwareWalk`] backend
//!   (write-protection fault tracking, the paper's §5 design);
//! - [`MmuAssistedViyojit`] — the engine with the [`MmuAssisted`] backend
//!   (§5.4's hardware dirty counter and shadow bits);
//! - [`NvdramBaseline`] — the full-battery comparison system of Figs. 7-8
//!   (the engine with the [`FullDirty`] backend, which tracks nothing);
//! - [`ShardedViyojit`] — N per-shard engines multiplexing one battery's
//!   budget through the machine → tenant → shard budget hierarchy; §6.3's
//!   ballooning between co-located tenants is the same frontend with one
//!   single-shard tenant each ([`TenantQos`]).
//!
//! # Examples
//!
//! ```
//! use sim_clock::{Clock, CostModel};
//! use ssd_sim::SsdConfig;
//! use viyojit::{NvHeap, Viyojit, ViyojitConfig};
//!
//! // 256 pages of NV-DRAM, battery for only 16 dirty pages.
//! let mut nv = Viyojit::new(
//!     256,
//!     ViyojitConfig::with_budget_pages(16),
//!     Clock::new(),
//!     CostModel::calibrated(),
//!     SsdConfig::datacenter(),
//! );
//! let heap = nv.map(64 * 4096)?;
//! nv.write(heap, 0, b"durable at 6% of the battery")?;
//!
//! // Power fails: at most 16 pages need battery power to flush.
//! let report = nv.power_failure();
//! assert!(report.dirty_pages <= 16);
//! nv.recover();
//! let mut buf = [0u8; 28];
//! nv.read(heap, 0, &mut buf)?;
//! assert_eq!(&buf, b"durable at 6% of the battery");
//! # Ok::<(), viyojit::ViyojitError>(())
//! ```

mod baseline;
mod codec;
mod config;
mod dirty;
pub mod engine;
mod error;
mod heap;
mod history;
mod hw;
mod policy;
mod pressure;
mod region;
mod runtime;
mod stats;
mod store;

pub use baseline::NvdramBaseline;
pub use codec::{rle_decode, rle_encode, FlushCodec};
pub use config::{ThresholdPolicy, ViyojitConfig, ViyojitConfigBuilder};
pub use dirty::{DirtySet, PageState};
pub use engine::{
    DegradationConfig, DegradationGovernor, DegradeReason, DegradedMode, DirtyTracker, Engine,
    EngineCore, FullDirty, MmuAssisted, ShardControlHandle, ShardControlPlane, ShardDataHandle,
    ShardDataPlane, ShardStats, ShardedViyojit, ShardedViyojitBuilder, SoftwareWalk, TenantId,
    TenantQos, TenantStats, MAX_FLUSH_ATTEMPTS, RETRY_BACKOFF_BASE, RETRY_BACKOFF_MAX,
    ROUND_TIMEOUT,
};
pub use error::{InvariantViolation, ViyojitError};
pub use heap::NvHeap;
pub use history::UpdateHistory;
pub use hw::MmuAssistedViyojit;
pub use mem_sim::Bitmap2L;
pub use policy::{TargetPolicy, VictimSelector};
pub use pressure::PressureEstimator;
pub use region::{RegionId, RegionInfo, RegionTable};
pub use runtime::{FlushOutcome, PowerFailureReport, Viyojit};
pub use stats::ViyojitStats;
pub use store::NvStore;

// Re-export the fault-injection vocabulary so tests and benches can seed
// plans and crash schedules without naming the fault-sim crate directly.
pub use fault_sim::{CrashSchedule, CrashSignal, Crashpoint, FaultConfig, FaultPlan, FaultStats};

// Re-export the telemetry vocabulary so stores and drivers can be
// instrumented without naming the telemetry crate directly.
pub use telemetry::{
    fnv1a_64, CostClass, CsvSink, EpochSnapshot, FaultKind, FlushReason, JsonlSink,
    MetricsRegistry, NullSink, ProfileReport, Profiler, RunMeta, Sink, Telemetry, TelemetryConfig,
    TraceEvent, TracedEvent,
};
