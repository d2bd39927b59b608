//! The Viyojit evaluation harness: drives YCSB workloads against the
//! Redis-like store on either Viyojit or the full-battery baseline, and
//! holds every experiment of the evaluation (`fig1` ... `fig10`, the
//! ablations and the extensions) in one table that the `viyojit-bench`
//! binary dispatches over.
//!
//! # Scaling
//!
//! The paper's experiments use a 60 GB NV-DRAM, a 17.5 GB (or 52.5 GB)
//! Redis heap, and 10 M operations. This reproduction scales by
//! [`PAGES_PER_GB_UNIT`]: **1 paper-GB = 1 MiB = 256 pages**, and 10 M ops
//! become [`DEFAULT_OPS`]. Every reported quantity that the paper plots is
//! a ratio (throughput overhead %, budget as % of dataset, pages as % of
//! volume), so the scaling cancels out of the figures.
//!
//! # Examples
//!
//! ```
//! use viyojit_bench::{ExperimentConfig, run_viyojit, run_baseline, gb_units_to_pages};
//! use workloads::YcsbWorkload;
//!
//! let cfg = ExperimentConfig {
//!     operations: 2_000,
//!     initial_records: 512,
//!     ..ExperimentConfig::for_workload(YcsbWorkload::B)
//! };
//! let base = run_baseline(&cfg);
//! let viy = run_viyojit(&cfg, gb_units_to_pages(2.0));
//! assert!(viy.throughput_kops <= base.throughput_kops * 1.01);
//! ```

mod driver;
mod experiments;
mod profile;
mod report;

pub use driver::{
    gb_units_to_pages, run_baseline, run_mmu_assisted, run_on, run_viyojit, ExperimentConfig,
    ExperimentResult, OpLatencies, BUDGET_SWEEP_GB, DEFAULT_OPS, DEFAULT_RECORDS_PER_GB_UNIT,
    PAGES_PER_GB_UNIT, VALUE_BYTES,
};
pub use experiments::main;
