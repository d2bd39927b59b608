//! Bit-packed two-level bitmaps for page-state tracking.
//!
//! The simulator's hot loops — the §5.2 epoch walk, the hardware
//! discovery scan, dirty-set iteration — must be O(dirty), not O(DRAM):
//! at the paper's scale (140 GB ≈ 36.7M 4 KB pages) a byte-per-page scan
//! per simulated epoch makes the *simulator* the experiment bottleneck.
//! [`Bitmap2L`] packs one flag per page into `u64` leaf words and keeps a
//! second *summary* level with one bit per non-zero leaf word, so scans
//! skip clean space 64 pages at a time at the leaf level and 4096 pages
//! at a time at the summary level.
//!
//! Every scan primitive runs one walk: the summary-guided word walk over
//! a range of leaf words. All-ones words are appended as 64-page ranges
//! ([`extend_from_word`]), which is what keeps collection cheap over
//! uniformly set stretches.
//!
//! A single-bit transition touches the leaf word, the summary word only
//! when the leaf word crosses zero, and the running popcount — nothing
//! else is maintained per bit.
//!
//! # Examples
//!
//! ```
//! use mem_sim::Bitmap2L;
//!
//! let mut b = Bitmap2L::new(10_000);
//! b.set(3);
//! b.set(9_999);
//! assert_eq!(b.count(), 2);
//! assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![3, 9_999]);
//! assert_eq!(b.next_one_from(4), Some(9_999));
//! ```

/// A fixed-size bitmap with a one-bit-per-word summary level.
///
/// All index arguments must be `< len`; out-of-range indices panic, like
/// slice indexing. Mutating operations keep the summary and the running
/// popcount consistent, so [`Bitmap2L::count`] is O(1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap2L {
    /// Number of addressable bits.
    len: usize,
    /// Leaf level: bit `i % 64` of `words[i / 64]` is bit `i`.
    words: Vec<u64>,
    /// Summary level: bit `w % 64` of `summary[w / 64]` is set iff
    /// `words[w] != 0`.
    summary: Vec<u64>,
    /// Running popcount, maintained by every mutating operation.
    ones: usize,
}

impl Bitmap2L {
    /// Creates an all-zero bitmap over `len` bits.
    pub fn new(len: usize) -> Self {
        let n_words = len.div_ceil(64);
        Bitmap2L {
            len,
            words: vec![0; n_words],
            summary: vec![0; n_words.div_ceil(64)],
            ones: 0,
        }
    }

    /// Number of addressable bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the bitmap addresses no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits. O(1): the popcount is maintained incrementally.
    pub fn count(&self) -> usize {
        self.ones
    }

    /// Recomputes the popcount from the leaf words in one pass — the
    /// ground truth `count()` must agree with.
    pub fn recount(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    #[inline]
    fn check_index(&self, i: usize) {
        assert!(
            i < self.len,
            "bit index {i} out of range for bitmap of {} bits",
            self.len
        );
    }

    /// Tests bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn test(&self, i: usize) -> bool {
        self.check_index(i);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Sets bit `i`, returning `true` if it was previously clear.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        self.check_index(i);
        let w = i / 64;
        let mask = 1u64 << (i % 64);
        let word = self.words[w];
        if word & mask != 0 {
            return false;
        }
        self.words[w] = word | mask;
        if word == 0 {
            self.summary[w / 64] |= 1u64 << (w % 64);
        }
        self.ones += 1;
        true
    }

    /// Clears bit `i`, returning `true` if it was previously set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn clear(&mut self, i: usize) -> bool {
        self.check_index(i);
        let w = i / 64;
        let mask = 1u64 << (i % 64);
        let word = self.words[w];
        if word & mask == 0 {
            return false;
        }
        let new = word & !mask;
        self.words[w] = new;
        if new == 0 {
            self.summary[w / 64] &= !(1u64 << (w % 64));
        }
        self.ones -= 1;
        true
    }

    /// Clears the bits of leaf word `w` selected by `mask` and returns the
    /// ones that were set (`words[w] & mask`) — the masked drain a
    /// word-level walk is built from. O(1), with the summary bit and the
    /// popcount kept consistent; bits of `mask` the word lacks are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `w` is past the last word.
    #[inline]
    pub fn take_word(&mut self, w: usize, mask: u64) -> u64 {
        let word = self.words[w];
        let hits = word & mask;
        if hits != 0 {
            let rest = word & !mask;
            self.words[w] = rest;
            if rest == 0 {
                self.summary[w / 64] &= !(1u64 << (w % 64));
            }
            self.ones -= hits.count_ones() as usize;
        }
        hits
    }

    /// Clears every bit. O(words).
    pub fn clear_all(&mut self) {
        self.words.fill(0);
        self.summary.fill(0);
        self.ones = 0;
    }

    /// The raw leaf word holding bits `w * 64 .. w * 64 + 64`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is past the last word.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// The position of the first set bit at or after `start`, skipping
    /// clean space word-by-word at the leaf level and 64-words-at-a-time
    /// at the summary level.
    pub fn next_one_from(&self, start: usize) -> Option<usize> {
        if start >= self.len {
            return None;
        }
        let w = start / 64;
        let bits = self.words[w] & (!0u64 << (start % 64));
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
        let w = self.next_nonzero_word(w + 1)?;
        Some(w * 64 + self.words[w].trailing_zeros() as usize)
    }

    /// Index of the first non-zero leaf word at or after `from_word`,
    /// found through the summary level.
    fn next_nonzero_word(&self, from_word: usize) -> Option<usize> {
        if from_word >= self.words.len() {
            return None;
        }
        let mut s = from_word / 64;
        let mut sbits = self.summary[s] & (!0u64 << (from_word % 64));
        while sbits == 0 {
            s += 1;
            sbits = *self.summary.get(s)?;
        }
        Some(s * 64 + sbits.trailing_zeros() as usize)
    }

    /// The one bit iterator: set bits at or after `start`, ascending. It
    /// holds the unread bits of the current leaf word, so a bit costs one
    /// `trailing_zeros`; the summary is consulted once per non-zero word,
    /// not once per bit.
    fn ones_from(&self, start: usize) -> impl Iterator<Item = usize> + '_ {
        let first = start / 64;
        // Bits past `len` are never set, so a `start` inside the last
        // word's padding (or past the end) simply finds nothing.
        let mut pending = match self.words.get(first) {
            Some(&word) => word & (!0u64 << (start % 64)),
            None => 0,
        };
        let mut base = first * 64;
        let mut next_word = first + 1;
        std::iter::from_fn(move || {
            if pending == 0 {
                let w = self.next_nonzero_word(next_word)?;
                pending = self.words[w];
                base = w * 64;
                next_word = w + 1;
            }
            let b = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            Some(base + b)
        })
    }

    /// Iterates the positions of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.ones_from(0)
    }

    /// Iterates set bits within `start..end` in ascending order.
    ///
    /// `end` past `len` is harmless (no bit is set there); an inverted
    /// range yields nothing.
    pub fn iter_ones_in(&self, start: usize, end: usize) -> impl Iterator<Item = usize> + '_ {
        self.ones_from(start).take_while(move |&i| i < end)
    }

    /// The one walk behind every scan: calls `f(w)` for each leaf word
    /// `w` in `from..to` whose bit is set in `summary(s)`, ascending.
    /// Clean space costs one summary word per 64 leaf words; the edge
    /// summary words are masked to the range.
    #[inline]
    fn walk(from: usize, to: usize, summary: impl Fn(usize) -> u64, mut f: impl FnMut(usize)) {
        if from >= to {
            return;
        }
        let last = to - 1;
        for s in from / 64..=last / 64 {
            let mut sbits = summary(s);
            if s == from / 64 {
                sbits &= !0u64 << (from % 64);
            }
            if s == last / 64 {
                sbits &= !0u64 >> (63 - last % 64);
            }
            while sbits != 0 {
                let j = sbits.trailing_zeros() as usize;
                sbits &= sbits - 1;
                f(s * 64 + j);
            }
        }
    }

    /// Calls `f(word_index, word)` for every non-zero leaf word in
    /// ascending order (bit `b` of the passed word is page
    /// `word_index * 64 + b`).
    pub fn for_each_word(&self, mut f: impl FnMut(usize, u64)) {
        crate::dispatch::record();
        Self::walk(
            0,
            self.words.len(),
            |s| self.summary[s],
            |w| f(w, self.words[w]),
        );
    }

    /// Calls `f(word_index, self_word, other_word)` for every leaf word
    /// that is non-zero in *either* bitmap, in ascending order. The two
    /// bitmaps must have the same length. Words zero in both are never
    /// visited.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    // Inlined so each caller's closure folds into the walk: without it a
    // second instantiation ran `DirtySet::check_invariants` 25-40% slower.
    #[inline]
    pub fn for_each_word_union(&self, other: &Bitmap2L, mut f: impl FnMut(usize, u64, u64)) {
        assert_eq!(self.len, other.len, "bitmap lengths differ");
        crate::dispatch::record();
        Self::walk(
            0,
            self.words.len(),
            |s| self.summary[s] | other.summary[s],
            |w| f(w, self.words[w], other.words[w]),
        );
    }

    /// Appends every set bit position, ascending, to `out`.
    pub fn collect_into(&self, out: &mut Vec<usize>) {
        self.collect_into_map(out, |i| i);
    }

    /// [`Bitmap2L::collect_into`] with each position mapped through `f`,
    /// so called collections of typed IDs need no second pass.
    pub fn collect_into_map<T>(&self, out: &mut Vec<T>, f: impl Fn(usize) -> T + Copy) {
        out.reserve(self.ones);
        self.for_each_word(|w, bits| extend_from_word(out, w, bits, f));
    }

    /// Appends every set bit in `start..end`, ascending, to `out`.
    /// `end` is clamped to `len`. The same word walk as a whole-bitmap
    /// scan, from `start`'s word to `end`'s with the two edge words
    /// masked, so a range costs O(range words / 64 + non-zero words in
    /// range). Bit order matches `iter_ones_in` exactly.
    pub fn collect_range_into(&self, start: usize, end: usize, out: &mut Vec<usize>) {
        self.collect_range_into_map(start, end, out, |i| i);
    }

    /// [`Bitmap2L::collect_range_into`] with each position mapped
    /// through `f`.
    pub fn collect_range_into_map<T>(
        &self,
        start: usize,
        end: usize,
        out: &mut Vec<T>,
        f: impl Fn(usize) -> T + Copy,
    ) {
        let end = end.min(self.len);
        if start >= end {
            return;
        }
        crate::dispatch::record();
        let first_w = start / 64;
        let last_w = (end - 1) / 64;
        Self::walk(
            first_w,
            last_w + 1,
            |s| self.summary[s],
            |w| {
                let mut bits = self.words[w];
                if w == first_w {
                    bits &= !0u64 << (start % 64);
                }
                if w == last_w && !end.is_multiple_of(64) {
                    bits &= (1u64 << (end % 64)) - 1;
                }
                extend_from_word(out, w, bits, f);
            },
        );
    }

    /// Verifies internal consistency: the summary mirrors the leaf words
    /// and the maintained popcount matches a recount.
    ///
    /// # Errors
    ///
    /// A static description of the first inconsistency found.
    pub fn check_consistency(&self) -> Result<(), &'static str> {
        for (w, &word) in self.words.iter().enumerate() {
            let summarized = self.summary[w / 64] & (1u64 << (w % 64)) != 0;
            if summarized != (word != 0) {
                return Err("summary bit out of sync with leaf word");
            }
        }
        if self.recount() != self.ones {
            return Err("maintained popcount out of sync with leaf words");
        }
        Ok(())
    }
}

/// Appends the set bit positions of `bits` (word `w`), mapped through
/// `f`, to `out` in ascending order. All-ones words append a straight
/// range — the big win for dense scans, where `trailing_zeros`-per-bit
/// extraction is the bottleneck.
#[inline]
pub fn extend_from_word<T>(out: &mut Vec<T>, w: usize, mut bits: u64, f: impl Fn(usize) -> T) {
    let base = w * 64;
    if bits == !0u64 {
        out.extend((base..base + 64).map(f));
        return;
    }
    while bits != 0 {
        let b = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        out.push(f(base + b));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2 MiB cluster of 4 KiB pages: the stretch the dense tests fill
    /// wholesale so all-ones words sit next to sparse and empty ones.
    const CLUSTER: usize = 512;

    fn with_bits(len: usize, bits: impl IntoIterator<Item = usize>) -> Bitmap2L {
        let mut b = Bitmap2L::new(len);
        for i in bits {
            b.set(i);
        }
        b
    }

    #[test]
    fn empty_bitmap_has_nothing() {
        let b = Bitmap2L::new(0);
        assert!(b.is_empty());
        assert_eq!(b.count(), 0);
        assert_eq!(b.next_one_from(0), None);
        assert_eq!(b.iter_ones().count(), 0);
        assert_eq!(b.iter_ones_in(0, 10).count(), 0);
        b.check_consistency().unwrap();
    }

    #[test]
    fn single_bit_round_trips() {
        let mut b = Bitmap2L::new(100);
        assert!(b.set(37));
        assert!(!b.set(37), "second set reports no change");
        assert!(b.test(37));
        assert_eq!(b.count(), 1);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![37]);
        assert!(b.clear(37));
        assert!(!b.clear(37), "second clear reports no change");
        assert_eq!(b.count(), 0);
        b.check_consistency().unwrap();
    }

    #[test]
    fn word_boundaries_63_64_65() {
        let mut b = with_bits(130, [63, 64, 65]);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![63, 64, 65]);
        assert_eq!(b.next_one_from(0), Some(63));
        assert_eq!(b.next_one_from(64), Some(64));
        assert_eq!(b.next_one_from(66), None);
        b.clear(64);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![63, 65]);
        assert_eq!(b.next_one_from(64), Some(65));
        b.check_consistency().unwrap();
    }

    #[test]
    fn last_partial_word_is_addressable() {
        let b = with_bits(65, [64]);
        assert_eq!(b.count(), 1);
        assert_eq!(b.next_one_from(0), Some(64));
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![64]);
        b.check_consistency().unwrap();
    }

    #[test]
    fn fully_set_bitmap_is_full() {
        let b = with_bits(130, 0..130);
        assert_eq!(b.count(), 130);
        assert_eq!(b.recount(), 130);
        assert!(b.test(0) && b.test(129));
        assert_eq!(b.iter_ones().count(), 130);
        b.check_consistency().unwrap();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_test_panics() {
        let b = Bitmap2L::new(65);
        b.test(65);
    }

    #[test]
    fn summary_skips_across_many_clean_words() {
        // One bit far past a sea of zero words: next_one_from must find it
        // through the summary level, and the summary must clear with it.
        let mut b = Bitmap2L::new(1 << 20);
        b.set((1 << 20) - 1);
        assert_eq!(b.next_one_from(0), Some((1 << 20) - 1));
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![(1 << 20) - 1]);
        b.clear((1 << 20) - 1);
        assert_eq!(b.next_one_from(0), None);
        assert_eq!(b.iter_ones().next(), None);
        b.check_consistency().unwrap();
    }

    #[test]
    fn iter_ones_in_respects_bounds() {
        let b = with_bits(256, [0, 63, 64, 127, 128, 255]);
        assert_eq!(
            b.iter_ones_in(1, 128).collect::<Vec<_>>(),
            vec![63, 64, 127]
        );
        assert_eq!(
            b.iter_ones_in(128, 1000).collect::<Vec<_>>(),
            vec![128, 255]
        );
        assert_eq!(b.iter_ones_in(10, 10).count(), 0);
        assert_eq!(b.iter_ones_in(200, 100).count(), 0, "inverted range");
        assert_eq!(b.iter_ones_in(256, usize::MAX).count(), 0, "past the end");
        assert_eq!(b.iter_ones_in(usize::MAX, usize::MAX).count(), 0);
    }

    /// The pending-word iterator and the per-bit `next_one_from` probe
    /// are two implementations of the same order.
    #[test]
    fn iterator_matches_next_one_from_chain() {
        let b = with_bits(
            4 * CLUSTER + 77,
            (CLUSTER..2 * CLUSTER).chain((0..4 * CLUSTER + 77).step_by(131)),
        );
        for start in [0, 1, 63, 64, 65, CLUSTER - 1, CLUSTER, 4 * CLUSTER + 76] {
            let mut want = Vec::new();
            let mut next = start;
            while let Some(i) = b.next_one_from(next) {
                want.push(i);
                next = i + 1;
            }
            let got: Vec<usize> = b.iter_ones_in(start, usize::MAX).collect();
            assert_eq!(got, want, "from {start}");
        }
    }

    #[test]
    fn for_each_word_visits_only_nonzero_words_on_every_path() {
        let b = with_bits(64 * 100, [64 * 3 + 5, 64 * 97]);
        let mut seen = Vec::new();
        b.for_each_word(|w, bits| seen.push((w, bits)));
        assert_eq!(seen, vec![(3, 1 << 5), (97, 1)]);
    }

    #[test]
    fn union_walk_visits_words_set_in_either_on_every_path() {
        let a = with_bits(300, [2, 131]);
        let b = with_bits(300, [70, 131, 299]);
        let mut words = Vec::new();
        a.for_each_word_union(&b, |w, wa, wb| words.push((w, wa, wb)));
        assert_eq!(
            words,
            vec![
                (0, 1 << 2, 0),
                (1, 0, 1 << 6),
                (2, 1 << 3, 1 << 3),
                (4, 0, 1 << 43)
            ]
        );
    }

    #[test]
    fn collect_matches_iter_on_every_path() {
        // Empty cluster 0, full cluster 1, sparse clusters 2-3, partial
        // tail: all-ones words, mixed words and zero words side by side.
        let b = with_bits(
            4 * CLUSTER + 77,
            (CLUSTER..2 * CLUSTER)
                .chain((2 * CLUSTER..3 * CLUSTER).step_by(7))
                .chain([4 * CLUSTER + 76]),
        );
        let want: Vec<usize> = b.iter_ones().collect();
        assert_eq!(want.len(), b.count());
        let mut got = Vec::new();
        b.collect_into(&mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn collect_range_matches_iter_ones_in() {
        // A full cluster plus a sprinkle, and a handful of bits with
        // whole summary words of clean space between them.
        let dense = with_bits(
            4 * CLUSTER,
            (CLUSTER..2 * CLUSTER).chain((0..4 * CLUSTER).step_by(131)),
        );
        let sparse = with_bits(
            64 * 64 * 3,
            [5, CLUSTER + 63, CLUSTER + 64, 64 * 64 + 1, 64 * 64 * 3 - 1],
        );
        for b in [&dense, &sparse] {
            for (start, end) in [
                (0, 4 * CLUSTER),
                (1, 4 * CLUSTER - 1),
                (6, 4 * CLUSTER - 1),
                (CLUSTER, 2 * CLUSTER),
                (CLUSTER - 1, 2 * CLUSTER + 1),
                (CLUSTER + 63, CLUSTER + 65),
                (CLUSTER + 64, CLUSTER + 64),
                (64 * 64, 64 * 64 * 3),
                (64 * 64 + 2, 64 * 64 * 3 - 1),
                (100, 100),
                (513, 511),
                (0, usize::MAX),
            ] {
                let want: Vec<usize> = b.iter_ones_in(start, end).collect();
                let mut got = Vec::new();
                b.collect_range_into(start, end, &mut got);
                assert_eq!(got, want, "range {start}..{end} over {} bits", b.len());
            }
        }
    }

    #[test]
    fn take_word_drains_only_masked_set_bits() {
        let mut b = with_bits(200, [64, 66, 127, 130]);
        // Mask bit 65 is not set in the word; word bit 127 is not in the mask.
        assert_eq!(b.take_word(1, 0b111), 0b101);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![127, 130]);
        assert_eq!(b.take_word(1, 0b111), 0, "already drained");
        assert_eq!(b.take_word(0, !0), 0, "empty word");
        // Draining a word's last bit clears its summary bit.
        assert_eq!(b.take_word(1, !0), 1 << 63);
        assert_eq!(b.next_one_from(0), Some(130));
        assert_eq!(b.count(), 1);
        b.check_consistency().unwrap();
    }

    #[test]
    fn clear_all_resets_everything() {
        let mut b = with_bits(CLUSTER + 7, 0..CLUSTER + 7);
        b.clear_all();
        assert_eq!(b.count(), 0);
        assert_eq!(b.next_one_from(0), None);
        b.check_consistency().unwrap();
    }
}
