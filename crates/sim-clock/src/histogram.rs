//! A log-bucketed latency histogram for percentile reporting.

use crate::SimDuration;

/// Number of linear sub-buckets per power-of-two bucket. More sub-buckets
/// means finer percentile resolution at the cost of memory.
const SUB_BUCKETS: usize = 32;
/// Number of power-of-two buckets; covers values up to 2^48 ns (~3 days).
const LOG_BUCKETS: usize = 48;

/// A fixed-memory histogram of [`SimDuration`] samples with ~3% relative
/// error, in the spirit of HdrHistogram.
///
/// Used by the figure harnesses to report average and 99th-percentile
/// operation latencies (paper Fig. 8).
///
/// # Examples
///
/// ```
/// use sim_clock::{Histogram, SimDuration};
///
/// let mut h = Histogram::new();
/// for us in 1..=100 {
///     h.record(SimDuration::from_micros(us));
/// }
/// assert_eq!(h.len(), 100);
/// let p50 = h.percentile(50.0).as_micros();
/// assert!((45..=55).contains(&p50));
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum_nanos: u128,
    max: SimDuration,
    min: SimDuration,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; LOG_BUCKETS * SUB_BUCKETS],
            total: 0,
            sum_nanos: 0,
            max: SimDuration::ZERO,
            min: SimDuration::from_nanos(u64::MAX),
        }
    }

    fn bucket_index(nanos: u64) -> usize {
        if nanos < SUB_BUCKETS as u64 {
            return nanos as usize;
        }
        let log = 63 - nanos.leading_zeros() as usize; // floor(log2(nanos)) >= 5
        let shift = log - SUB_BUCKETS.trailing_zeros() as usize;
        let sub = ((nanos >> shift) as usize) - SUB_BUCKETS;
        let idx = (shift + 1) * SUB_BUCKETS + sub;
        idx.min(LOG_BUCKETS * SUB_BUCKETS - 1)
    }

    fn bucket_value(idx: usize) -> u64 {
        if idx < SUB_BUCKETS {
            return idx as u64;
        }
        let shift = idx / SUB_BUCKETS - 1;
        let sub = idx % SUB_BUCKETS;
        ((SUB_BUCKETS + sub) as u64) << shift
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        let nanos = d.as_nanos();
        self.counts[Self::bucket_index(nanos)] += 1;
        self.total += 1;
        self.sum_nanos += nanos as u128;
        if d > self.max {
            self.max = d;
        }
        if d < self.min {
            self.min = d;
        }
    }

    /// Number of recorded samples.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact sum of all samples in nanoseconds.
    pub fn sum_nanos(&self) -> u128 {
        self.sum_nanos
    }

    /// Arithmetic mean of all samples; zero if empty.
    pub fn mean(&self) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum_nanos / self.total as u128) as u64)
    }

    /// The largest recorded sample; zero if empty.
    pub fn max(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            self.max
        }
    }

    /// The smallest recorded sample; zero if empty.
    pub fn min(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            self.min
        }
    }

    /// The value at percentile `p` (0–100), with the histogram's bucket
    /// resolution (~3% relative error). Returns zero if empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> SimDuration {
        assert!(
            (0.0..=100.0).contains(&p),
            "percentile must be in [0,100], got {p}"
        );
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return SimDuration::from_nanos(Self::bucket_value(idx)).min_of(self.max);
            }
        }
        self.max
    }

    fn occupied(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Occupied buckets as `(bucket_lower_bound_nanos, count)` pairs,
    /// ascending. Two histograms with equal bucket sequences hold
    /// identical distributions at the histogram's resolution, so this is
    /// the comparison surface for bucket-for-bucket conservation tests.
    pub fn bucket_counts(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.occupied().map(|(i, c)| (Self::bucket_value(i), c))
    }

    /// Occupied buckets as `(inclusive_upper_bound_nanos, count)` pairs,
    /// ascending: the largest sample each bucket can hold, i.e. the next
    /// bucket's lower bound minus one (`u64::MAX` for the saturating last
    /// bucket). This is the `le` label of exposition-format export.
    pub fn bucket_upper_bounds(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.occupied().map(|(i, c)| {
            let upper = if i + 1 < self.counts.len() {
                Self::bucket_value(i + 1) - 1
            } else {
                u64::MAX
            };
            (upper, c)
        })
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_nanos += other.sum_nanos;
        if other.total > 0 {
            if other.max > self.max {
                self.max = other.max;
            }
            if other.min < self.min {
                self.min = other.min;
            }
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

trait MinOf {
    fn min_of(self, other: SimDuration) -> SimDuration;
}
impl MinOf for SimDuration {
    fn min_of(self, other: SimDuration) -> SimDuration {
        if self < other {
            self
        } else {
            other
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.percentile(99.0), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
    }

    #[test]
    fn empty_histogram_is_zero_at_every_percentile() {
        let h = Histogram::new();
        for &p in &[0.0f64, 0.1, 50.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), SimDuration::ZERO);
        }
        assert_eq!(h.min(), SimDuration::ZERO);
    }

    #[test]
    fn single_small_sample_is_exact_at_every_percentile() {
        // Values below SUB_BUCKETS nanos are bucketed exactly.
        let mut h = Histogram::new();
        h.record(SimDuration::from_nanos(17));
        assert_eq!(h.len(), 1);
        for &p in &[0.0f64, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(
                h.percentile(p),
                SimDuration::from_nanos(17),
                "p{p} of a single exact-range sample must be that sample"
            );
        }
        assert_eq!(h.mean(), SimDuration::from_nanos(17));
        assert_eq!(h.min(), h.max());
    }

    #[test]
    fn single_large_sample_dominates_every_percentile() {
        // Above the exact range the one occupied bucket floors the value,
        // so every percentile agrees and sits within the error bound.
        let mut h = Histogram::new();
        h.record(SimDuration::from_micros(7));
        let p0 = h.percentile(0.0);
        for &p in &[1.0f64, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), p0, "p{p} disagrees with p0");
        }
        let got = p0.as_nanos();
        assert!(
            got <= 7_000 && got as f64 >= 7_000.0 * 0.96,
            "single-sample percentile out of bounds: {got} ns"
        );
        assert_eq!(h.mean(), SimDuration::from_micros(7));
        assert_eq!(h.min(), h.max());
    }

    #[test]
    fn all_equal_samples_collapse_the_distribution() {
        let mut h = Histogram::new();
        for _ in 0..1_000 {
            h.record(SimDuration::from_micros(250));
        }
        assert_eq!(h.len(), 1_000);
        // Every percentile lands in the one occupied bucket, clamped to
        // the true (recorded) maximum.
        for &p in &[0.0f64, 10.0, 50.0, 99.0, 99.9, 100.0] {
            let got = h.percentile(p).as_nanos();
            assert!(
                got <= 250_000 && got as f64 >= 250_000.0 * 0.96,
                "p{p} of constant samples drifted: {got} ns"
            );
        }
        assert_eq!(h.mean(), SimDuration::from_micros(250));
        assert_eq!(h.min(), h.max());
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for n in 0..SUB_BUCKETS as u64 {
            h.record(SimDuration::from_nanos(n));
        }
        assert_eq!(h.min().as_nanos(), 0);
        assert_eq!(h.max().as_nanos(), SUB_BUCKETS as u64 - 1);
        assert_eq!(h.percentile(100.0).as_nanos(), SUB_BUCKETS as u64 - 1);
    }

    #[test]
    fn percentile_error_is_bounded() {
        let mut h = Histogram::new();
        for us in 1..=10_000u64 {
            h.record(SimDuration::from_micros(us));
        }
        for &p in &[50.0f64, 90.0, 99.0, 99.9] {
            let exact: f64 = (p / 100.0 * 10_000.0).ceil();
            let got = h.percentile(p).as_micros() as f64;
            let err = (got - exact).abs() / exact;
            assert!(err < 0.04, "p{p}: got {got}, exact {exact}, err {err}");
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_nanos(100));
        h.record(SimDuration::from_nanos(300));
        assert_eq!(h.mean().as_nanos(), 200);
    }

    #[test]
    fn bucket_counts_expose_the_distribution() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for h in [&mut a, &mut b] {
            h.record(SimDuration::from_nanos(3));
            h.record(SimDuration::from_micros(9));
            h.record(SimDuration::from_micros(9));
        }
        let got: Vec<(u64, u64)> = a.bucket_counts().collect();
        let want: Vec<(u64, u64)> = b.bucket_counts().collect();
        assert_eq!(got, want);
        assert_eq!(got.iter().map(|&(_, c)| c).sum::<u64>(), a.len());
        assert_eq!(got[0], (3, 1));
        b.record(SimDuration::from_nanos(3));
        let diverged: Vec<(u64, u64)> = b.bucket_counts().collect();
        assert_ne!(got, diverged);
    }

    #[test]
    fn upper_bounds_contain_their_samples() {
        let mut h = Histogram::new();
        let samples = [0, 17, 900, 70_000, u64::MAX];
        for &n in &samples {
            h.record(SimDuration::from_nanos(n));
        }
        let lower: Vec<u64> = h.bucket_counts().map(|(b, _)| b).collect();
        let upper: Vec<u64> = h.bucket_upper_bounds().map(|(b, _)| b).collect();
        assert_eq!(upper.len(), samples.len());
        for ((&n, &lo), &hi) in samples.iter().zip(&lower).zip(&upper) {
            assert!(lo <= n && n <= hi, "{n} outside its bucket [{lo}, {hi}]");
        }
        // Exact below the linear range; 900 ns sits in [896, 911].
        assert_eq!(&upper[..3], &[0, 17, 911]);
        assert_eq!(upper[4], u64::MAX);
    }

    #[test]
    fn merge_combines_counts_and_extrema() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(SimDuration::from_nanos(10));
        b.record(SimDuration::from_nanos(1_000_000));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.min().as_nanos(), 10);
        assert_eq!(a.max().as_nanos(), 1_000_000);
    }

    #[test]
    fn bucket_round_trip_is_monotone_and_close() {
        let mut prev = 0;
        for exp in 0..40u32 {
            let v = 1u64 << exp;
            for &v in &[v, v + v / 3, v + v / 2] {
                let idx = Histogram::bucket_index(v);
                let back = Histogram::bucket_value(idx);
                assert!(back <= v, "bucket value {back} exceeds sample {v}");
                assert!(
                    (v - back) as f64 <= v as f64 * 0.04,
                    "bucket error too large: {v} -> {back}"
                );
                assert!(back >= prev, "bucket values must be monotone");
                prev = back;
            }
        }
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn percentile_out_of_range_panics() {
        Histogram::new().percentile(101.0);
    }
}
