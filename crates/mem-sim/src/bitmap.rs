//! Bit-packed hierarchical bitmaps for page-state tracking, with
//! density-adaptive scan dispatch and a 2 MiB huge-page summary tier.
//!
//! The simulator's hot loops — the §5.2 epoch walk, the hardware
//! discovery scan, dirty-set iteration — must be O(dirty), not O(DRAM):
//! at the paper's scale (140 GB ≈ 36.7M 4 KB pages) a byte-per-page scan
//! per simulated epoch makes the *simulator* the experiment bottleneck.
//! [`Bitmap2L`] packs one flag per page into `u64` leaf words and keeps a
//! second *summary* level with one bit per non-zero leaf word, so sparse
//! scans skip clean space 64 pages at a time at the leaf level and 4096
//! pages at a time at the summary level.
//!
//! Word-skipping is the wrong plan once most words are non-zero: the
//! summary indirection plus `trailing_zeros`-per-bit extraction loses to
//! a straight-line walk. Every scan primitive therefore *dispatches* on
//! the maintained density ([`Bitmap2L::scan_path`]) between the word-skip
//! path, a straight-line full-word walk, and a 4-wide unrolled walk whose
//! inner loop autovectorizes (no unsafe intrinsics).
//!
//! On top of the leaf words sits a huge-page tier ([`HugeBitmap`]): one
//! maintained popcount per 512-page run (2 MiB at 4 KiB pages). Uniformly
//! clean runs are skipped and uniformly dirty runs are taken wholesale in
//! O(runs), without touching leaf words — the fix for scans over
//! mid/high-density state.
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

/// Pages per huge-tier run: 2 MiB at 4 KiB pages.
pub const RUN_PAGES: usize = 512;

/// Leaf words per huge-tier run.
pub const RUN_WORDS: usize = RUN_PAGES / 64;

/// The scan strategy picked per scan from the maintained density.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanPath {
    /// Summary-guided word skipping: O(ones + summary words). Wins when
    /// most leaf words are zero.
    Skip,
    /// Straight-line walk over every leaf word. Wins once enough words
    /// are non-zero that the summary indirection stops paying.
    Dense,
    /// Straight-line walk in 4-word chunks with a combined zero test —
    /// autovectorizable, for scans where most words are non-zero.
    Unrolled,
}

/// Classification of one 512-page run by its maintained popcount.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunClass {
    /// No bit set in the run: skip it without touching leaf words.
    Empty,
    /// Some bits set: the run's leaf words must be walked.
    Mixed,
    /// Every addressable bit in the run is set: take it wholesale.
    Full,
}

/// The 2 MiB huge-page summary tier: one maintained popcount per
/// 512-page run.
///
/// Budget accounting, clean-page mask checks, and emergency obligation
/// collection use [`HugeBitmap::class`] to classify runs in O(runs) —
/// uniformly clean runs are skipped and uniformly dirty runs are taken
/// as whole ranges, so only mixed runs pay a leaf-word walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HugeBitmap {
    /// Number of addressable bits in the owning bitmap.
    len: usize,
    /// Per-run popcounts; values in `0..=RUN_PAGES`.
    pop: Vec<u16>,
}

impl HugeBitmap {
    fn new(len: usize) -> Self {
        HugeBitmap {
            len,
            pop: vec![0; len.div_ceil(RUN_PAGES)],
        }
    }

    fn filled(len: usize) -> Self {
        let mut h = Self::new(len);
        for (r, pop) in h.pop.iter_mut().enumerate() {
            *pop = ((len - r * RUN_PAGES).min(RUN_PAGES)) as u16;
        }
        h
    }

    /// Number of 512-page runs (the last may be partial).
    pub fn runs(&self) -> usize {
        self.pop.len()
    }

    /// Addressable bits in run `r`: `RUN_PAGES`, or fewer for a trailing
    /// partial run.
    ///
    /// # Panics
    ///
    /// Panics if `r` is past the last run.
    #[inline]
    pub fn run_len(&self, r: usize) -> usize {
        assert!(r < self.pop.len(), "run index {r} out of range");
        (self.len - r * RUN_PAGES).min(RUN_PAGES)
    }

    /// Maintained popcount of run `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is past the last run.
    #[inline]
    pub fn run_pop(&self, r: usize) -> usize {
        self.pop[r] as usize
    }

    /// Classifies run `r` from its maintained popcount, in O(1).
    ///
    /// # Panics
    ///
    /// Panics if `r` is past the last run.
    #[inline]
    pub fn class(&self, r: usize) -> RunClass {
        let pop = self.pop[r] as usize;
        if pop == 0 {
            RunClass::Empty
        } else if pop == self.run_len(r) {
            RunClass::Full
        } else {
            RunClass::Mixed
        }
    }

    /// Calls `f(run_index, class)` for every run in ascending order.
    pub fn for_each_run(&self, mut f: impl FnMut(usize, RunClass)) {
        for r in 0..self.pop.len() {
            f(r, self.class(r));
        }
    }

    #[inline]
    fn add(&mut self, i: usize) {
        self.pop[i / RUN_PAGES] += 1;
    }

    #[inline]
    fn sub(&mut self, i: usize) {
        self.pop[i / RUN_PAGES] -= 1;
    }

    #[inline]
    fn sub_word(&mut self, w: usize, bits: u32) {
        self.pop[w / RUN_WORDS] -= bits as u16;
    }
}

/// A fixed-size bitmap with a one-bit-per-word summary level and a
/// per-512-page-run popcount tier.
///
/// All index arguments must be `< len`; out-of-range indices panic, like
/// slice indexing. Mutating operations keep the summary, the run
/// popcounts, and the running total popcount consistent, so
/// [`Bitmap2L::count`] is O(1), every scan primitive can dispatch on
/// density, and run classification never touches leaf words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap2L {
    /// Number of addressable bits.
    len: usize,
    /// Leaf level: bit `i % 64` of `words[i / 64]` is bit `i`.
    words: Vec<u64>,
    /// Summary level: bit `w % 64` of `summary[w / 64]` is set iff
    /// `words[w] != 0`.
    summary: Vec<u64>,
    /// Huge-page tier: per-512-page-run popcounts.
    huge: HugeBitmap,
    /// Running popcount, maintained by `set`/`clear`/`drain_words`.
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
            huge: HugeBitmap::new(len),
            ones: 0,
        }
    }

    /// Creates an all-ones bitmap over `len` bits.
    pub fn filled(len: usize) -> Self {
        let mut b = Self::new(len);
        for (w, word) in b.words.iter_mut().enumerate() {
            let bits_here = (len - w * 64).min(64);
            *word = if bits_here == 64 {
                !0
            } else {
                (1u64 << bits_here) - 1
            };
        }
        for (s, sword) in b.summary.iter_mut().enumerate() {
            let words_here = (b.words.len() - s * 64).min(64);
            *sword = if words_here == 64 {
                !0
            } else {
                (1u64 << words_here) - 1
            };
        }
        b.huge = HugeBitmap::filled(len);
        b.ones = len;
        b
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

    /// The huge-page summary tier: per-512-page-run popcounts and
    /// classification.
    #[inline]
    pub fn huge(&self) -> &HugeBitmap {
        &self.huge
    }

    /// Picks the scan strategy for the maintained density.
    ///
    /// Thresholds (set-bit density over `len`, measured on the wallclock
    /// harness — see DESIGN.md):
    ///
    /// - below 1/256 (< ~0.4 bits/word): [`ScanPath::Skip`] — most leaf
    ///   words are zero, summary skipping wins;
    /// - below 1/8 (< 8 bits/word): [`ScanPath::Dense`];
    /// - otherwise: [`ScanPath::Unrolled`].
    #[inline]
    pub fn scan_path(&self) -> ScanPath {
        Self::path_for(self.ones, self.len)
    }

    /// The scan strategy for `ones` set bits over `len` — the pure
    /// heuristic behind [`Bitmap2L::scan_path`].
    #[inline]
    pub fn path_for(ones: usize, len: usize) -> ScanPath {
        if ones * 256 < len {
            ScanPath::Skip
        } else if ones * 8 < len {
            ScanPath::Dense
        } else {
            ScanPath::Unrolled
        }
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
        self.huge.add(i);
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
        self.huge.sub(i);
        self.ones -= 1;
        true
    }

    /// Clears every bit. O(words).
    pub fn clear_all(&mut self) {
        self.words.fill(0);
        self.summary.fill(0);
        self.huge.pop.fill(0);
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

    /// Number of leaf words.
    pub fn word_count(&self) -> usize {
        self.words.len()
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
        self.next_one_in_word_from(w + 1)
    }

    /// First set bit in any word at or after `from_word`.
    fn next_one_in_word_from(&self, from_word: usize) -> Option<usize> {
        if from_word >= self.words.len() {
            return None;
        }
        let first_s = from_word / 64;
        for s in first_s..self.summary.len() {
            let mut sbits = self.summary[s];
            if s == first_s {
                sbits &= !0u64 << (from_word % 64);
            }
            if sbits != 0 {
                let w = s * 64 + sbits.trailing_zeros() as usize;
                return Some(w * 64 + self.words[w].trailing_zeros() as usize);
            }
        }
        None
    }

    /// Iterates the positions of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        let mut next = 0usize;
        std::iter::from_fn(move || {
            let i = self.next_one_from(next)?;
            next = i + 1;
            Some(i)
        })
    }

    /// Iterates set bits within `start..end` in ascending order.
    ///
    /// `end` is clamped to `len`; an inverted range yields nothing.
    pub fn iter_ones_in(&self, start: usize, end: usize) -> impl Iterator<Item = usize> + '_ {
        let end = end.min(self.len);
        let mut next = start;
        std::iter::from_fn(move || {
            if next >= end {
                return None;
            }
            let i = self.next_one_from(next)?;
            if i >= end {
                next = end;
                return None;
            }
            next = i + 1;
            Some(i)
        })
    }

    /// Calls `f(word_index, word)` for every non-zero leaf word in
    /// ascending order along the given scan path (bit `b` of the passed
    /// word is page `word_index * 64 + b`) — the equivalence tests use
    /// this to exercise each path regardless of density. All paths visit
    /// the same non-zero words in the same ascending order.
    pub fn for_each_word_with(&self, path: ScanPath, mut f: impl FnMut(usize, u64)) {
        match path {
            ScanPath::Skip => {
                for (s, &sword) in self.summary.iter().enumerate() {
                    let mut sbits = sword;
                    while sbits != 0 {
                        let j = sbits.trailing_zeros() as usize;
                        sbits &= sbits - 1;
                        let w = s * 64 + j;
                        f(w, self.words[w]);
                    }
                }
            }
            ScanPath::Dense => {
                for (w, &word) in self.words.iter().enumerate() {
                    if word != 0 {
                        f(w, word);
                    }
                }
            }
            ScanPath::Unrolled => {
                let words = &self.words;
                let n = words.len();
                let mut w = 0;
                while w + 4 <= n {
                    let (a, b, c, d) = (words[w], words[w + 1], words[w + 2], words[w + 3]);
                    if a | b | c | d != 0 {
                        if a != 0 {
                            f(w, a);
                        }
                        if b != 0 {
                            f(w + 1, b);
                        }
                        if c != 0 {
                            f(w + 2, c);
                        }
                        if d != 0 {
                            f(w + 3, d);
                        }
                    }
                    w += 4;
                }
                while w < n {
                    if words[w] != 0 {
                        f(w, words[w]);
                    }
                    w += 1;
                }
            }
        }
    }

    /// Reads and clears every non-zero leaf word: `f(word_index, word)`
    /// is called with the word's prior value, in ascending order, and the
    /// word (with its summary bit, run popcount, and total-popcount
    /// share) is cleared. The word-granularity analogue of a
    /// read-and-clear epoch walk. Dispatches on density.
    pub fn drain_words(&mut self, f: impl FnMut(usize, u64)) {
        let path = self.scan_path();
        crate::dispatch::record(path);
        self.drain_words_with(path, f);
    }

    /// [`Bitmap2L::drain_words`] with the scan path forced.
    pub fn drain_words_with(&mut self, path: ScanPath, mut f: impl FnMut(usize, u64)) {
        match path {
            ScanPath::Skip => {
                for s in 0..self.summary.len() {
                    let mut sbits = std::mem::take(&mut self.summary[s]);
                    while sbits != 0 {
                        let j = sbits.trailing_zeros() as usize;
                        sbits &= sbits - 1;
                        let w = s * 64 + j;
                        let word = std::mem::take(&mut self.words[w]);
                        let pop = word.count_ones();
                        self.huge.sub_word(w, pop);
                        self.ones -= pop as usize;
                        f(w, word);
                    }
                }
            }
            ScanPath::Dense | ScanPath::Unrolled => {
                // The walk drains everything, so the summary, run
                // popcounts, and total are wiped wholesale afterwards.
                if path == ScanPath::Dense {
                    for w in 0..self.words.len() {
                        let word = self.words[w];
                        if word != 0 {
                            self.words[w] = 0;
                            f(w, word);
                        }
                    }
                } else {
                    let n = self.words.len();
                    let mut w = 0;
                    while w + 4 <= n {
                        let (a, b, c, d) = (
                            self.words[w],
                            self.words[w + 1],
                            self.words[w + 2],
                            self.words[w + 3],
                        );
                        if a | b | c | d != 0 {
                            self.words[w] = 0;
                            self.words[w + 1] = 0;
                            self.words[w + 2] = 0;
                            self.words[w + 3] = 0;
                            if a != 0 {
                                f(w, a);
                            }
                            if b != 0 {
                                f(w + 1, b);
                            }
                            if c != 0 {
                                f(w + 2, c);
                            }
                            if d != 0 {
                                f(w + 3, d);
                            }
                        }
                        w += 4;
                    }
                    while w < n {
                        let word = self.words[w];
                        if word != 0 {
                            self.words[w] = 0;
                            f(w, word);
                        }
                        w += 1;
                    }
                }
                self.summary.fill(0);
                self.huge.pop.fill(0);
                self.ones = 0;
            }
        }
    }

    /// Calls `f(word_index, self_word, other_word)` for every leaf word
    /// that is non-zero in *either* bitmap, in ascending order,
    /// dispatching on the combined density. The two bitmaps must have the
    /// same length. Words zero in both are never visited.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn for_each_word_union(&self, other: &Bitmap2L, f: impl FnMut(usize, u64, u64)) {
        assert_eq!(self.len, other.len, "bitmap lengths differ");
        let path = Self::path_for(self.ones + other.ones, self.len.max(1));
        crate::dispatch::record(path);
        self.for_each_word_union_with(other, path, f);
    }

    /// [`Bitmap2L::for_each_word_union`] with the scan path forced.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn for_each_word_union_with(
        &self,
        other: &Bitmap2L,
        path: ScanPath,
        mut f: impl FnMut(usize, u64, u64),
    ) {
        assert_eq!(self.len, other.len, "bitmap lengths differ");
        match path {
            ScanPath::Skip => {
                for (s, (&sa, &sb)) in self.summary.iter().zip(&other.summary).enumerate() {
                    let mut sbits = sa | sb;
                    while sbits != 0 {
                        let j = sbits.trailing_zeros() as usize;
                        sbits &= sbits - 1;
                        let w = s * 64 + j;
                        f(w, self.words[w], other.words[w]);
                    }
                }
            }
            ScanPath::Dense => {
                for (w, (&wa, &wb)) in self.words.iter().zip(&other.words).enumerate() {
                    if wa | wb != 0 {
                        f(w, wa, wb);
                    }
                }
            }
            ScanPath::Unrolled => {
                let (xs, ys) = (&self.words, &other.words);
                let n = xs.len();
                let mut w = 0;
                while w + 4 <= n {
                    let u0 = xs[w] | ys[w];
                    let u1 = xs[w + 1] | ys[w + 1];
                    let u2 = xs[w + 2] | ys[w + 2];
                    let u3 = xs[w + 3] | ys[w + 3];
                    if u0 | u1 | u2 | u3 != 0 {
                        if u0 != 0 {
                            f(w, xs[w], ys[w]);
                        }
                        if u1 != 0 {
                            f(w + 1, xs[w + 1], ys[w + 1]);
                        }
                        if u2 != 0 {
                            f(w + 2, xs[w + 2], ys[w + 2]);
                        }
                        if u3 != 0 {
                            f(w + 3, xs[w + 3], ys[w + 3]);
                        }
                    }
                    w += 4;
                }
                while w < n {
                    if xs[w] | ys[w] != 0 {
                        f(w, xs[w], ys[w]);
                    }
                    w += 1;
                }
            }
        }
    }

    /// Appends every set bit position, ascending, to `out`. Dispatches on
    /// density; the dense paths additionally consult the huge tier, so
    /// empty runs are skipped and full runs are appended as straight
    /// ranges without touching leaf words.
    pub fn collect_into(&self, out: &mut Vec<usize>) {
        self.collect_into_map(out, |i| i);
    }

    /// [`Bitmap2L::collect_into`] with the scan path forced.
    pub fn collect_into_with(&self, path: ScanPath, out: &mut Vec<usize>) {
        self.collect_into_map_with(path, out, |i| i);
    }

    /// [`Bitmap2L::collect_into`] with each position mapped through `f`,
    /// so called collections of typed IDs need no second pass.
    pub fn collect_into_map<T>(&self, out: &mut Vec<T>, f: impl Fn(usize) -> T + Copy) {
        let path = self.scan_path();
        crate::dispatch::record(path);
        self.collect_into_map_with(path, out, f);
    }

    /// [`Bitmap2L::collect_into_map`] with the scan path forced.
    pub fn collect_into_map_with<T>(
        &self,
        path: ScanPath,
        out: &mut Vec<T>,
        f: impl Fn(usize) -> T + Copy,
    ) {
        out.reserve(self.ones);
        match path {
            ScanPath::Skip => {
                self.for_each_word_with(ScanPath::Skip, |w, bits| {
                    extend_from_word(out, w, bits, f)
                });
            }
            ScanPath::Dense | ScanPath::Unrolled => {
                for r in 0..self.huge.runs() {
                    match self.huge.class(r) {
                        RunClass::Empty => {}
                        RunClass::Full => {
                            let base = r * RUN_PAGES;
                            out.extend((base..base + self.huge.run_len(r)).map(f));
                        }
                        RunClass::Mixed => {
                            let w0 = r * RUN_WORDS;
                            let w1 = (w0 + RUN_WORDS).min(self.words.len());
                            if path == ScanPath::Dense {
                                for w in w0..w1 {
                                    extend_from_word(out, w, self.words[w], f);
                                }
                            } else {
                                let mut w = w0;
                                while w + 4 <= w1 {
                                    let (a, b, c, d) = (
                                        self.words[w],
                                        self.words[w + 1],
                                        self.words[w + 2],
                                        self.words[w + 3],
                                    );
                                    if a | b | c | d != 0 {
                                        extend_from_word(out, w, a, f);
                                        extend_from_word(out, w + 1, b, f);
                                        extend_from_word(out, w + 2, c, f);
                                        extend_from_word(out, w + 3, d, f);
                                    }
                                    w += 4;
                                }
                                while w < w1 {
                                    extend_from_word(out, w, self.words[w], f);
                                    w += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Appends every set bit in `start..end`, ascending, to `out`.
    /// `end` is clamped to `len`. Runs entirely inside the range are
    /// classified through the huge tier (skipped when empty, appended as
    /// ranges when full); only mixed runs and partial edge words pay a
    /// leaf-word walk. Bit order matches `iter_ones_in` exactly.
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
        crate::dispatch::record(self.scan_path());
        let first_w = start / 64;
        let last_w = (end - 1) / 64;
        let mut w = first_w;
        while w <= last_w {
            // A run-aligned word starting a run wholly inside [start, end)
            // can be classified through the huge tier.
            if w % RUN_WORDS == 0 && w * 64 >= start && (w + RUN_WORDS) * 64 <= end {
                let r = w / RUN_WORDS;
                match self.huge.class(r) {
                    RunClass::Empty => {
                        w += RUN_WORDS;
                        continue;
                    }
                    RunClass::Full => {
                        let base = r * RUN_PAGES;
                        out.extend((base..base + RUN_PAGES).map(f));
                        w += RUN_WORDS;
                        continue;
                    }
                    RunClass::Mixed => {}
                }
            }
            let mut bits = self.words[w];
            if w == first_w {
                bits &= !0u64 << (start % 64);
            }
            if w == last_w && end % 64 != 0 {
                bits &= (1u64 << (end % 64)) - 1;
            }
            extend_from_word(out, w, bits, f);
            w += 1;
        }
    }

    /// Iterates, in ascending order, the positions set in `self` *or*
    /// `other`. Both bitmaps must have the same length.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn iter_ones_union<'a>(&'a self, other: &'a Bitmap2L) -> impl Iterator<Item = usize> + 'a {
        assert_eq!(self.len, other.len, "bitmap lengths differ");
        let mut pending: u64 = 0;
        let mut base = 0usize;
        let mut next_word = 0usize;
        std::iter::from_fn(move || loop {
            if pending != 0 {
                let b = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                return Some(base + b);
            }
            // Find the next word non-zero in either bitmap via the
            // summaries.
            let w = loop {
                if next_word >= self.words.len() {
                    return None;
                }
                let s = next_word / 64;
                let sbits = (self.summary[s] | other.summary[s]) & (!0u64 << (next_word % 64));
                if sbits != 0 {
                    break s * 64 + sbits.trailing_zeros() as usize;
                }
                next_word = (s + 1) * 64;
            };
            pending = self.words[w] | other.words[w];
            base = w * 64;
            next_word = w + 1;
        })
    }

    /// Verifies internal consistency: the summary mirrors the leaf words,
    /// the run popcounts mirror per-run recounts, and the maintained
    /// popcount matches a recount.
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
        for r in 0..self.huge.runs() {
            let w0 = r * RUN_WORDS;
            let w1 = (w0 + RUN_WORDS).min(self.words.len());
            let pop: usize = self.words[w0..w1]
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum();
            if pop != self.huge.run_pop(r) {
                return Err("run popcount out of sync with leaf words");
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

    const ALL_PATHS: [ScanPath; 3] = [ScanPath::Skip, ScanPath::Dense, ScanPath::Unrolled];

    #[test]
    fn empty_bitmap_has_nothing() {
        let b = Bitmap2L::new(0);
        assert!(b.is_empty());
        assert_eq!(b.count(), 0);
        assert_eq!(b.next_one_from(0), None);
        assert_eq!(b.iter_ones().count(), 0);
        assert_eq!(b.huge().runs(), 0);
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
        let mut b = Bitmap2L::new(130);
        for i in [63usize, 64, 65] {
            b.set(i);
        }
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![63, 64, 65]);
        assert_eq!(b.next_one_from(0), Some(63));
        assert_eq!(b.next_one_from(64), Some(64));
        assert_eq!(b.next_one_from(66), None);
        b.clear(64);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![63, 65]);
        assert_eq!(b.next_one_from(64), Some(65));
        b.check_consistency().unwrap();
    }

    /// Satellite: huge-tier analogue of `word_boundaries_63_64_65` — bits
    /// at the 511/512/513 run boundary land in the right runs and the run
    /// popcounts track set/clear exactly.
    #[test]
    fn run_boundaries_511_512_513() {
        let mut b = Bitmap2L::new(3 * RUN_PAGES);
        for i in [511usize, 512, 513] {
            b.set(i);
        }
        assert_eq!(b.huge().runs(), 3);
        assert_eq!(b.huge().run_pop(0), 1, "bit 511 is the last of run 0");
        assert_eq!(b.huge().run_pop(1), 2, "bits 512 and 513 open run 1");
        assert_eq!(b.huge().run_pop(2), 0);
        assert_eq!(b.huge().class(0), RunClass::Mixed);
        assert_eq!(b.huge().class(2), RunClass::Empty);
        b.clear(512);
        assert_eq!(b.huge().run_pop(1), 1);
        b.clear(511);
        assert_eq!(b.huge().run_pop(0), 0);
        assert_eq!(b.huge().class(0), RunClass::Empty);
        b.check_consistency().unwrap();
        let mut collected = Vec::new();
        b.collect_into(&mut collected);
        assert_eq!(collected, vec![513]);
    }

    /// Satellite: a trailing partial run classifies as Full at its
    /// *partial* length, never at 512.
    #[test]
    fn partial_trailing_run_classifies_at_its_own_length() {
        // 513 bits: run 0 is full-length, run 1 holds a single bit.
        let mut b = Bitmap2L::new(RUN_PAGES + 1);
        assert_eq!(b.huge().runs(), 2);
        assert_eq!(b.huge().run_len(0), RUN_PAGES);
        assert_eq!(b.huge().run_len(1), 1);
        b.set(RUN_PAGES);
        assert_eq!(b.huge().class(1), RunClass::Full, "1/1 bits set");
        assert_eq!(b.huge().class(0), RunClass::Empty);
        // A 511-bit bitmap is a single partial run.
        let full = Bitmap2L::filled(RUN_PAGES - 1);
        assert_eq!(full.huge().runs(), 1);
        assert_eq!(full.huge().run_len(0), RUN_PAGES - 1);
        assert_eq!(full.huge().class(0), RunClass::Full);
        full.check_consistency().unwrap();
        // Collection through the huge tier honours the partial length.
        let mut collected = Vec::new();
        full.collect_into_with(ScanPath::Unrolled, &mut collected);
        assert_eq!(collected, (0..RUN_PAGES - 1).collect::<Vec<_>>());
    }

    /// Satellite: filled() and drain/clear keep the run tier consistent
    /// across whole-run and partial-run edges.
    #[test]
    fn run_tier_tracks_fill_drain_and_clear_all() {
        let mut b = Bitmap2L::filled(2 * RUN_PAGES + 100);
        assert_eq!(b.huge().runs(), 3);
        for r in 0..3 {
            assert_eq!(b.huge().class(r), RunClass::Full);
        }
        let mut seen_pop = 0usize;
        b.drain_words(|_, bits| seen_pop += bits.count_ones() as usize);
        assert_eq!(seen_pop, 2 * RUN_PAGES + 100);
        for r in 0..3 {
            assert_eq!(b.huge().class(r), RunClass::Empty);
        }
        b.check_consistency().unwrap();
        let mut c = Bitmap2L::filled(RUN_PAGES + 7);
        c.clear_all();
        assert_eq!(c.huge().run_pop(0), 0);
        assert_eq!(c.huge().run_pop(1), 0);
        c.check_consistency().unwrap();
    }

    #[test]
    fn for_each_run_reports_classes_in_order() {
        let mut b = Bitmap2L::new(3 * RUN_PAGES);
        for i in 0..RUN_PAGES {
            b.set(RUN_PAGES + i);
        }
        b.set(2 * RUN_PAGES + 9);
        let mut seen = Vec::new();
        b.huge().for_each_run(|r, class| seen.push((r, class)));
        assert_eq!(
            seen,
            vec![
                (0, RunClass::Empty),
                (1, RunClass::Full),
                (2, RunClass::Mixed)
            ]
        );
    }

    #[test]
    fn last_partial_word_is_addressable() {
        let mut b = Bitmap2L::new(65);
        b.set(64);
        assert_eq!(b.count(), 1);
        assert_eq!(b.next_one_from(0), Some(64));
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![64]);
        b.check_consistency().unwrap();
    }

    #[test]
    fn filled_bitmap_is_full() {
        let b = Bitmap2L::filled(130);
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
        b.clear((1 << 20) - 1);
        assert_eq!(b.next_one_from(0), None);
        b.check_consistency().unwrap();
    }

    #[test]
    fn iter_ones_in_respects_bounds() {
        let mut b = Bitmap2L::new(256);
        for i in [0usize, 63, 64, 127, 128, 255] {
            b.set(i);
        }
        assert_eq!(
            b.iter_ones_in(1, 128).collect::<Vec<_>>(),
            vec![63, 64, 127]
        );
        assert_eq!(
            b.iter_ones_in(128, 1000).collect::<Vec<_>>(),
            vec![128, 255]
        );
        assert_eq!(b.iter_ones_in(10, 10).count(), 0);
    }

    #[test]
    fn for_each_word_visits_only_nonzero_words_on_every_path() {
        let mut b = Bitmap2L::new(64 * 100);
        b.set(64 * 3 + 5);
        b.set(64 * 97);
        for path in ALL_PATHS {
            let mut seen = Vec::new();
            b.for_each_word_with(path, |w, bits| seen.push((w, bits)));
            assert_eq!(seen, vec![(3, 1 << 5), (97, 1)], "path {path:?}");
        }
    }

    #[test]
    fn drain_words_clears_and_reports_on_every_path() {
        for path in ALL_PATHS {
            let mut b = Bitmap2L::new(200);
            b.set(1);
            b.set(65);
            b.set(66);
            let mut seen = Vec::new();
            b.drain_words_with(path, |w, bits| seen.push((w, bits)));
            assert_eq!(seen, vec![(0, 2), (1, 0b110)], "path {path:?}");
            assert_eq!(b.count(), 0);
            assert_eq!(b.next_one_from(0), None);
            b.check_consistency().unwrap();
        }
    }

    #[test]
    fn union_iteration_merges_in_order() {
        let mut a = Bitmap2L::new(300);
        let mut b = Bitmap2L::new(300);
        a.set(2);
        b.set(70);
        a.set(131);
        b.set(131);
        b.set(299);
        assert_eq!(
            a.iter_ones_union(&b).collect::<Vec<_>>(),
            vec![2, 70, 131, 299]
        );
        for path in ALL_PATHS {
            let mut words = Vec::new();
            a.for_each_word_union_with(&b, path, |w, wa, wb| words.push((w, wa, wb)));
            assert_eq!(words.len(), 4, "words 0, 1, 2, 4 on path {path:?}");
            assert_eq!(words[0], (0, 1 << 2, 0));
        }
    }

    #[test]
    fn collect_matches_iter_on_every_path() {
        let mut b = Bitmap2L::new(4 * RUN_PAGES + 77);
        // Empty run 0, full run 1, mixed runs 2-3, partial tail.
        for i in RUN_PAGES..2 * RUN_PAGES {
            b.set(i);
        }
        for i in (2 * RUN_PAGES..3 * RUN_PAGES).step_by(7) {
            b.set(i);
        }
        b.set(4 * RUN_PAGES + 76);
        let want: Vec<usize> = b.iter_ones().collect();
        for path in ALL_PATHS {
            let mut got = Vec::new();
            b.collect_into_with(path, &mut got);
            assert_eq!(got, want, "path {path:?}");
        }
    }

    #[test]
    fn collect_range_matches_iter_ones_in() {
        let mut b = Bitmap2L::new(4 * RUN_PAGES);
        for i in RUN_PAGES..2 * RUN_PAGES {
            b.set(i);
        }
        for i in (0..4 * RUN_PAGES).step_by(131) {
            b.set(i);
        }
        for (start, end) in [
            (0, 4 * RUN_PAGES),
            (1, 4 * RUN_PAGES - 1),
            (RUN_PAGES, 2 * RUN_PAGES),
            (RUN_PAGES - 1, 2 * RUN_PAGES + 1),
            (RUN_PAGES + 63, RUN_PAGES + 65),
            (100, 100),
            (513, 511),
            (0, usize::MAX),
        ] {
            let want: Vec<usize> = b.iter_ones_in(start, end).collect();
            let mut got = Vec::new();
            b.collect_range_into(start, end, &mut got);
            assert_eq!(got, want, "range {start}..{end}");
        }
    }

    #[test]
    fn scan_path_tracks_density() {
        let mut b = Bitmap2L::new(1 << 16);
        assert_eq!(b.scan_path(), ScanPath::Skip);
        for i in 0..(1 << 16) / 128 {
            b.set(i * 128);
        }
        assert_eq!(b.scan_path(), ScanPath::Dense, "1/128 density");
        for i in 0..(1 << 16) / 4 {
            b.set(i * 4 + 1);
        }
        assert_eq!(b.scan_path(), ScanPath::Unrolled, "over 1/8 density");
    }

    #[test]
    fn clear_all_resets_everything() {
        let mut b = Bitmap2L::filled(100);
        b.clear_all();
        assert_eq!(b.count(), 0);
        assert_eq!(b.next_one_from(0), None);
        b.check_consistency().unwrap();
    }
}
