//! The process-global count of [`Bitmap2L`](crate::Bitmap2L) scans.
//!
//! Every scan over a bitmap runs the one summary-guided word walk and
//! counts itself here. The counter is wall-clock observability only: it
//! is a monotone process total, never enters the virtual-time metrics
//! registry (which must replay deterministically), and is exported as
//! `bitmap.scans` by the engine's telemetry publication.

use std::sync::atomic::{AtomicU64, Ordering};

static SCANS: AtomicU64 = AtomicU64::new(0);

/// Point-in-time scan totals. The one walk is the old summary-guided
/// `skip` path, so every scan is reported there; `dense` and `unrolled`
/// name retired paths and read 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchCounts {
    /// Every scan since the process started.
    pub skip: u64,
    /// Always 0.
    pub dense: u64,
    /// Always 0.
    pub unrolled: u64,
}

/// Records one scan. Relaxed: the counter is a statistic, not
/// synchronization.
#[inline]
pub fn record() {
    SCANS.fetch_add(1, Ordering::Relaxed);
}

/// Snapshot of the process-global scan total.
pub fn snapshot() -> DispatchCounts {
    DispatchCounts {
        skip: SCANS.load(Ordering::Relaxed),
        ..DispatchCounts::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_moves_the_matching_counter() {
        let before = snapshot();
        record();
        record();
        let after = snapshot();
        // Other tests may record concurrently, so assert a lower bound.
        assert!(after.skip >= before.skip + 2);
        assert_eq!((after.dense, after.unrolled), (0, 0));
    }
}
