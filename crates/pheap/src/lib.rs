//! A persistent heap allocator on battery-backed DRAM — the substitute for
//! the Intel PMEM library the paper's modified Redis links against.
//!
//! All *persistent* allocator state (bump pointer, run cursors, root
//! directory, per-block headers) lives *inside* the NV region and is
//! written through the [`NvHeap`](viyojit::NvHeap) API, so every metadata
//! update generates real NV-DRAM write traffic — this is why the paper's
//! "read-only" YCSB-C still dirties pages (§6.2: "internally, Redis still
//! performs several store instructions as part of the internal logic for
//! metadata operations"). Beside it the handle keeps volatile, host-side
//! state — each page's size class, where live payloads start, the freed
//! blocks, reused lowest address first — as libpmemobj keeps its runtime
//! state in DRAM: a pointer is validated and bounded from those, so
//! dereferencing it costs the one NV-DRAM access the paper's Redis pays
//! for a load, not a header read before it.
//!
//! Battery-backed DRAM gives a property true NVM lacks: on power failure
//! the *entire* memory image is flushed, so naive in-place metadata updates
//! are crash-safe by construction — no logging or fence discipline needed.
//! Recovery is [`PHeap::open`]: verify the superblock, rebuild the volatile
//! state from the block headers, pick up where the image left off.
//!
//! # Examples
//!
//! ```
//! use pheap::PHeap;
//! use sim_clock::{Clock, CostModel};
//! use ssd_sim::SsdConfig;
//! use viyojit::{Viyojit, ViyojitConfig};
//!
//! let nv = Viyojit::new(
//!     64,
//!     ViyojitConfig::with_budget_pages(8),
//!     Clock::new(),
//!     CostModel::free(),
//!     SsdConfig::instant(),
//! );
//! let mut heap = PHeap::format(nv, 48 * 4096)?;
//! let p = heap.alloc(100)?;
//! heap.write(p, 0, b"persistent bytes")?;
//! heap.set_root(0, Some(p))?;
//! let mut buf = [0u8; 16];
//! heap.read(p, 0, &mut buf)?;
//! assert_eq!(&buf, b"persistent bytes");
//! # Ok::<(), pheap::PHeapError>(())
//! ```

mod alloc;
mod error;
mod layout;

pub use alloc::{PHeap, PHeapStats, PPtr};
pub use error::PHeapError;
pub use layout::{class_size, size_class, MAX_ALLOC, NUM_CLASSES};
