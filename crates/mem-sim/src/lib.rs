//! A software model of the x86-64 memory-management hardware that Viyojit
//! drives: page tables with dirty/write-protect bits, a TLB with realistic
//! staleness semantics, and an MMU that raises write-protection faults.
//!
//! The Viyojit paper (§5) implements dirty-page tracking with three hardware
//! mechanisms, all reproduced here:
//!
//! 1. **Write-protection faults** — writes to a protected page trap to a
//!    software handler *before* the write executes ([`Mmu::write`] returns
//!    [`AccessError::WriteProtected`] without modifying memory; the handler
//!    unprotects and the MMU retries).
//! 2. **PTE dirty bits** — the first write through a TLB entry whose cached
//!    dirty bit is clear sets the PTE dirty bit; later writes through the
//!    same entry do *not* touch the PTE. This is exactly why §5.2's epoch
//!    walker must flush the TLB: clearing a PTE dirty bit without
//!    invalidating the TLB entry makes subsequent updates invisible.
//! 3. **TLB flush costs** — every flush and refill is charged to the shared
//!    virtual [`Clock`](sim_clock::Clock) using the calibrated
//!    [`CostModel`](sim_clock::CostModel).
//!
//! # Examples
//!
//! ```
//! use mem_sim::{AccessError, Mmu, PageId};
//! use sim_clock::{Clock, CostModel};
//!
//! let mut mmu = Mmu::new(16, Clock::new(), CostModel::free());
//! mmu.protect_page(PageId(0));
//! // First write traps, exactly like the hardware WP fault in Fig. 6.
//! assert!(matches!(mmu.write(0, b"hi"), Err(AccessError::WriteProtected(PageId(0)))));
//! mmu.unprotect_page(PageId(0));
//! mmu.write(0, b"hi").unwrap();
//! assert!(mmu.page_table().flags(PageId(0)).is_dirty());
//! ```

pub mod bitmap;
pub mod dispatch;
mod mmu;
mod page;
mod page_table;
mod page_vec;
mod tlb;

pub use bitmap::Bitmap2L;
pub use mmu::{AccessError, Mmu, MmuStats, UndoStats, WalkOptions, SECTOR_BYTES};
pub use page::{page_count, PageId, PAGE_SIZE};
pub use page_table::{PageTable, PteFlags};
pub use page_vec::PageVec;
pub use tlb::{Tlb, TlbEntry, TlbStats};
