//! Copy-out payload reduction (§7): "The write bandwidth to secondary
//! storage could be further reduced by using compression and
//! de-duplication."
//!
//! [`FlushCodec`] selects what the copier does to a page snapshot before
//! handing it to the SSD. Compression is a real (if simple) byte-level
//! run-length scheme with a working decoder — the encoded length is what
//! the SSD is charged for. Deduplication keeps a content-hash table of
//! pages already durable; a duplicate page costs only a reference record.
//!
//! The simulated SSD always stores the full logical snapshot, so the
//! codec affects *accounting* (bandwidth, wear, battery energy) and never
//! data correctness; a production dedup store would add reference
//! counting and hash-collision verification on top.

use mem_sim::PAGE_SIZE;

/// What the copier does to page payloads before the SSD write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FlushCodec {
    /// Write full 4 KiB pages (the paper's system).
    #[default]
    Raw,
    /// Run-length compress each page; the SSD is charged the encoded size.
    Rle,
    /// RLE plus content-hash deduplication: a page whose content is
    /// already durable anywhere on the device costs one reference record.
    RleDedup,
}

/// Size in bytes of a dedup reference record (hash + page id).
pub(crate) const DEDUP_RECORD_BYTES: usize = 16;

/// Run-length encodes `data`: each run becomes `(len-1) byte, value byte`.
/// Worst case doubles the input; page payloads cap at `PAGE_SIZE` anyway
/// because the copier falls back to raw for incompressible pages.
///
/// # Examples
///
/// ```
/// use viyojit::{rle_decode, rle_encode};
///
/// let data = [7u8, 7, 7, 7, 0, 0, 9];
/// let encoded = rle_encode(&data);
/// assert!(encoded.len() < data.len());
/// assert_eq!(rle_decode(&encoded, data.len()), data);
/// ```
pub fn rle_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 4);
    let mut i = 0;
    while i < data.len() {
        let value = data[i];
        let mut run = 1usize;
        while run < 256 && i + run < data.len() && data[i + run] == value {
            run += 1;
        }
        out.push((run - 1) as u8);
        out.push(value);
        i += run;
    }
    out
}

/// Decodes [`rle_encode`] output into exactly `len` bytes.
///
/// # Panics
///
/// Panics if `encoded` is malformed or does not decode to `len` bytes.
pub fn rle_decode(encoded: &[u8], len: usize) -> Vec<u8> {
    assert!(
        encoded.len().is_multiple_of(2),
        "RLE stream must be (len, value) pairs"
    );
    let mut out = Vec::with_capacity(len);
    for pair in encoded.chunks_exact(2) {
        let run = pair[0] as usize + 1;
        out.extend(std::iter::repeat_n(pair[1], run));
    }
    assert_eq!(out.len(), len, "RLE stream decoded to the wrong length");
    out
}

/// The physical bytes a page flush costs under `codec` — raw pages never
/// cost more than `PAGE_SIZE` because incompressible payloads fall back
/// to raw.
pub(crate) fn encoded_page_bytes(codec: FlushCodec, data: &[u8]) -> usize {
    match codec {
        FlushCodec::Raw => PAGE_SIZE,
        FlushCodec::Rle | FlushCodec::RleDedup => rle_encode(data).len().min(PAGE_SIZE),
    }
}

/// FNV-1a over a whole page, for dedup content addressing.
pub(crate) fn page_content_hash(data: &[u8]) -> u64 {
    sim_clock::fnv1a_64(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rle_round_trips_structured_data() {
        let mut page = vec![0u8; PAGE_SIZE];
        page[100..200].fill(0xAB);
        page[4000..4096].fill(0x01);
        let encoded = rle_encode(&page);
        assert!(encoded.len() < 64, "mostly-zero page compresses hard");
        assert_eq!(rle_decode(&encoded, PAGE_SIZE), page);
    }

    #[test]
    fn rle_round_trips_worst_case_data() {
        let noisy: Vec<u8> = (0..PAGE_SIZE).map(|i| (i * 131 % 251) as u8).collect();
        let encoded = rle_encode(&noisy);
        assert_eq!(rle_decode(&encoded, PAGE_SIZE), noisy);
        assert!(encoded.len() >= PAGE_SIZE, "no free lunch on noise");
        // ... which is why the copier caps the charge at PAGE_SIZE.
        assert_eq!(encoded_page_bytes(FlushCodec::Rle, &noisy), PAGE_SIZE);
    }

    #[test]
    fn rle_handles_long_runs_and_empty_input() {
        let long = vec![5u8; 1000];
        assert_eq!(rle_decode(&rle_encode(&long), 1000), long);
        assert!(rle_encode(&[]).is_empty());
        assert!(rle_decode(&[], 0).is_empty());
    }

    #[test]
    fn encoded_bytes_depend_on_codec() {
        let zeros = vec![0u8; PAGE_SIZE];
        assert_eq!(encoded_page_bytes(FlushCodec::Raw, &zeros), PAGE_SIZE);
        assert!(encoded_page_bytes(FlushCodec::Rle, &zeros) < 64);
    }

    #[test]
    fn content_hash_distinguishes_pages() {
        let a = vec![1u8; PAGE_SIZE];
        let mut b = a.clone();
        b[4095] = 2;
        assert_ne!(page_content_hash(&a), page_content_hash(&b));
        assert_eq!(page_content_hash(&a), page_content_hash(&a.clone()));
    }
}
