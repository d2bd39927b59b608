//! A Redis-like in-memory key-value store whose data *and* metadata live in
//! a persistent NV-DRAM heap — the application the Viyojit paper evaluates
//! (a Redis modified to keep its key-value pairs and metadata in a
//! non-volatile heap via the PMEM library, §6.1).
//!
//! Design notes mirroring the original:
//!
//! - a chained hash table whose bucket segments, entry nodes, and counters
//!   are all [`pheap`] allocations, so every operation generates realistic
//!   NV-DRAM write traffic;
//! - an ordered index for `scan` (YCSB-E, which the paper defers to
//!   future work) that lives in host memory and is derived from the hash
//!   table: `open` rebuilds it from the chains, so the table is the only
//!   persistent index and the two cannot disagree after a power cycle;
//! - **reads update metadata**: like Redis's per-entry LRU clock, every
//!   `get` stamps the entry's access field. This is why the paper's
//!   "read-only" YCSB-C still dirties pages (§6.2);
//! - after a power cycle the store is reopened from the heap's root
//!   directory and serves reads as a warm cache — the paper's headline use
//!   case.
//!
//! # Examples
//!
//! ```
//! use kvstore::KvStore;
//! use pheap::PHeap;
//! use sim_clock::{Clock, CostModel};
//! use ssd_sim::SsdConfig;
//! use viyojit::{Viyojit, ViyojitConfig};
//!
//! let nv = Viyojit::new(
//!     128,
//!     ViyojitConfig::with_budget_pages(16),
//!     Clock::new(),
//!     CostModel::free(),
//!     SsdConfig::instant(),
//! );
//! let heap = PHeap::format(nv, 100 * 4096)?;
//! let mut kv = KvStore::create(heap, 256)?;
//! kv.set(b"user:42", b"{\"name\":\"ada\"}")?;
//! assert_eq!(kv.get(b"user:42")?.as_deref(), Some(&b"{\"name\":\"ada\"}"[..]));
//! # Ok::<(), kvstore::KvError>(())
//! ```

mod error;
mod store;

pub use error::KvError;
/// FNV-1a 64-bit hash, used for bucket selection and fast key comparison.
pub use sim_clock::fnv1a_64;
pub use store::{KvStats, KvStore, ScanResults};
