//! Error type of the persistent heap.

use std::error::Error;
use std::fmt;

use viyojit::ViyojitError;

/// Why a persistent-heap operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PHeapError {
    /// The requested allocation exceeds [`MAX_ALLOC`](crate::MAX_ALLOC).
    TooLarge {
        /// Bytes requested.
        requested: usize,
    },
    /// The region has no space left for the allocation.
    OutOfMemory,
    /// The pointer does not reference a live allocation (wild pointer,
    /// double free, or misaligned offset).
    BadPointer,
    /// The access exceeds the allocation's size.
    OutOfBounds,
    /// The image did not verify: the region does not hold a formatted
    /// heap, or its superblock or block headers contradict the region or
    /// each other (a stale or partly lost image).
    BadImage,
    /// The underlying NV-DRAM layer failed.
    Heap(ViyojitError),
}

impl fmt::Display for PHeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PHeapError::TooLarge { requested } => {
                write!(
                    f,
                    "allocation of {requested} bytes exceeds the maximum class"
                )
            }
            PHeapError::OutOfMemory => write!(f, "persistent region exhausted"),
            PHeapError::BadPointer => write!(f, "pointer does not reference a live allocation"),
            PHeapError::OutOfBounds => write!(f, "access exceeds the allocation size"),
            PHeapError::BadImage => {
                write!(f, "region does not contain a consistent formatted heap")
            }
            PHeapError::Heap(e) => write!(f, "NV-DRAM layer error: {e}"),
        }
    }
}

impl Error for PHeapError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PHeapError::Heap(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ViyojitError> for PHeapError {
    fn from(e: ViyojitError) -> Self {
        PHeapError::Heap(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let variants = [
            PHeapError::TooLarge { requested: 1 },
            PHeapError::OutOfMemory,
            PHeapError::BadPointer,
            PHeapError::OutOfBounds,
            PHeapError::BadImage,
            PHeapError::Heap(ViyojitError::EmptyMapping),
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn heap_errors_chain_their_source() {
        let e = PHeapError::from(ViyojitError::EmptyMapping);
        assert!(Error::source(&e).is_some());
    }
}
