//! Zipfian and "latest" request distributions, implemented from scratch
//! after Gray et al.'s quickly-generating-billion-record algorithm — the
//! same generator family YCSB uses.

use sim_clock::{fnv1a_64, SplitMix64};

/// A Zipfian item generator over `0..n` with exponent `theta`.
///
/// Item 0 is the most popular rank. YCSB-style *scrambling* (spreading the
/// popular ranks across the keyspace) is available via
/// [`ZipfGenerator::sample_scrambled`].
///
/// # Examples
///
/// ```
/// use sim_clock::SplitMix64;
/// use workloads::ZipfGenerator;
///
/// let mut rng = SplitMix64::new(1);
/// let zipf = ZipfGenerator::new(1_000, 0.99);
/// let hits = (0..10_000).filter(|_| zipf.sample(&mut rng) == 0).count();
/// assert!(hits > 500, "rank 0 must dominate: {hits}");
/// ```
#[derive(Debug, Clone)]
pub struct ZipfGenerator {
    n: u64,
    theta: f64,
    zeta_n: f64,
    zeta_2: f64,
    alpha: f64,
}

impl ZipfGenerator {
    /// Creates a generator over `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is not in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipf domain must be non-empty");
        assert!(
            theta > 0.0 && theta < 1.0,
            "theta must be in (0,1), got {theta}"
        );
        let zeta_n = Self::zeta(0, n, theta, 0.0);
        ZipfGenerator {
            n,
            theta,
            zeta_n,
            zeta_2: Self::zeta(0, 2, theta, 0.0),
            alpha: 1.0 / (1.0 - theta),
        }
    }

    /// Incremental generalized harmonic number:
    /// `base + sum_{i=from+1..=to} i^-theta`.
    fn zeta(from: u64, to: u64, theta: f64, base: f64) -> f64 {
        let mut sum = base;
        for i in from + 1..=to {
            sum += 1.0 / (i as f64).powf(theta);
        }
        sum
    }

    /// Domain size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Grows the domain to `new_n` (for insert workloads), extending the
    /// harmonic sum incrementally.
    ///
    /// # Panics
    ///
    /// Panics if `new_n < n`.
    pub fn grow(&mut self, new_n: u64) {
        assert!(new_n >= self.n, "zipf domains only grow");
        self.zeta_n = Self::zeta(self.n, new_n, self.theta, self.zeta_n);
        self.n = new_n;
    }

    /// Draws a rank (0 = most popular).
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let eta = (1.0 - (2.0 / self.n as f64).powf(1.0 - self.theta))
            / (1.0 - self.zeta_2 / self.zeta_n);
        let item = (self.n as f64 * (eta * u - eta + 1.0).powf(self.alpha)) as u64;
        item.min(self.n - 1)
    }

    /// Draws a rank and scrambles it across the keyspace with an FNV-1a
    /// hash, as YCSB's `ScrambledZipfianGenerator` does, so popular keys
    /// are not clustered at low ids.
    pub fn sample_scrambled(&self, rng: &mut SplitMix64) -> u64 {
        fnv1a_64(&self.sample(rng).to_le_bytes()) % self.n
    }

    /// Fraction of total request mass received by the `k` most popular
    /// ranks.
    pub fn coverage_of_top(&self, k: u64) -> f64 {
        Self::zeta(0, k.min(self.n), self.theta, 0.0) / self.zeta_n
    }
}

/// The smallest fraction of an `n`-item Zipf(θ) population needed to cover
/// `percentile` percent of all requests — the Fig. 5 quantity. Computed
/// analytically from the harmonic sums.
///
/// # Examples
///
/// ```
/// use workloads::zipf_coverage_fraction;
///
/// let small = zipf_coverage_fraction(10_000, 0.99, 90.0);
/// let large = zipf_coverage_fraction(10_000_000, 0.99, 90.0);
/// assert!(large < small, "the hot fraction shrinks as the population grows");
/// ```
///
/// # Panics
///
/// Panics if `percentile` is outside `(0, 100]` or `n == 0`.
pub fn zipf_coverage_fraction(n: u64, theta: f64, percentile: f64) -> f64 {
    assert!(n > 0, "population must be non-empty");
    assert!(
        percentile > 0.0 && percentile <= 100.0,
        "percentile must be in (0,100], got {percentile}"
    );
    let target = percentile / 100.0;
    let zeta_n = ZipfGenerator::zeta(0, n, theta, 0.0);
    let mut cum = 0.0;
    for k in 1..=n {
        cum += 1.0 / (k as f64).powf(theta);
        if cum >= target * zeta_n {
            return k as f64 / n as f64;
        }
    }
    1.0
}

/// YCSB's "latest" distribution (workload D): recently-inserted items are
/// most popular. Draws `max - zipf_rank`, clamped to the live range.
///
/// # Examples
///
/// ```
/// use sim_clock::SplitMix64;
/// use workloads::LatestGenerator;
///
/// let mut rng = SplitMix64::new(2);
/// let mut latest = LatestGenerator::new(100, 0.99);
/// latest.observe_insert(); // now 101 items
/// let k = latest.sample(&mut rng);
/// assert!(k < 101);
/// ```
#[derive(Debug, Clone)]
pub struct LatestGenerator {
    zipf: ZipfGenerator,
}

impl LatestGenerator {
    /// Creates a generator over `0..n` items favouring high (recent) ids.
    pub fn new(n: u64, theta: f64) -> Self {
        LatestGenerator {
            zipf: ZipfGenerator::new(n, theta),
        }
    }

    /// Current item count.
    pub fn n(&self) -> u64 {
        self.zipf.n()
    }

    /// Records one insert: the domain grows and popularity re-anchors on
    /// the new latest item.
    pub fn observe_insert(&mut self) {
        let n = self.zipf.n();
        self.zipf.grow(n + 1);
    }

    /// Draws an item id, biased toward the most recent.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let rank = self.zipf.sample(rng);
        self.zipf.n() - 1 - rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SplitMix64 {
        SplitMix64::new(0xD15EA5E)
    }

    #[test]
    fn scrambled_keys_are_pinned() {
        // Fig. 7's keyspace and seed, YCSB's exponent.
        let z = ZipfGenerator::new(13_405, 0.99);
        let mut r = SplitMix64::new(0x5c1_e4ce);
        let keys: [u64; 8] = std::array::from_fn(|_| z.sample_scrambled(&mut r));
        assert_eq!(keys, [8517, 12180, 12711, 12224, 6785, 4374, 7608, 2946]);
    }

    #[test]
    fn samples_stay_in_domain() {
        let z = ZipfGenerator::new(100, 0.99);
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(z.sample(&mut r) < 100);
            assert!(z.sample_scrambled(&mut r) < 100);
        }
    }

    #[test]
    fn empirical_skew_matches_analytic_coverage() {
        let n = 1_000;
        let z = ZipfGenerator::new(n, 0.99);
        let mut r = rng();
        let mut counts = vec![0u64; n as usize];
        let draws = 200_000;
        for _ in 0..draws {
            counts[z.sample(&mut r) as usize] += 1;
        }
        // Top 10% of ranks should hold roughly coverage_of_top(n/10).
        let top_decile: u64 = counts[..(n / 10) as usize].iter().sum();
        let expected = z.coverage_of_top(n / 10);
        let got = top_decile as f64 / draws as f64;
        assert!(
            (got - expected).abs() < 0.03,
            "empirical {got:.3} vs analytic {expected:.3}"
        );
    }

    #[test]
    fn rank_zero_is_most_popular() {
        let z = ZipfGenerator::new(10_000, 0.99);
        let mut r = rng();
        let mut counts = [0u64; 16];
        for _ in 0..50_000 {
            let s = z.sample(&mut r);
            if s < 16 {
                counts[s as usize] += 1;
            }
        }
        for pair in counts.windows(2) {
            // Monotone up to noise; enforce loosely on the big gap.
            assert!(counts[0] >= pair[1], "rank 0 must dominate");
        }
    }

    #[test]
    fn growth_keeps_distribution_valid() {
        let mut z = ZipfGenerator::new(10, 0.9);
        let full = ZipfGenerator::new(1_000, 0.9);
        z.grow(1_000);
        assert!(
            (z.zeta_n - full.zeta_n).abs() < 1e-9,
            "incremental zeta must match"
        );
        let mut r = rng();
        for _ in 0..1_000 {
            assert!(z.sample(&mut r) < 1_000);
        }
    }

    #[test]
    fn coverage_fraction_shrinks_with_population_the_fig5_effect() {
        let mut prev = 1.0;
        for &n in &[10_000u64, 100_000, 1_000_000] {
            let frac = zipf_coverage_fraction(n, 0.99, 90.0);
            assert!(frac < prev, "n={n}: {frac} !< {prev}");
            prev = frac;
        }
    }

    #[test]
    fn coverage_fraction_orders_by_percentile() {
        let p90 = zipf_coverage_fraction(100_000, 0.99, 90.0);
        let p95 = zipf_coverage_fraction(100_000, 0.99, 95.0);
        let p99 = zipf_coverage_fraction(100_000, 0.99, 99.0);
        assert!(p90 < p95 && p95 < p99);
    }

    #[test]
    fn latest_prefers_recent_items() {
        let mut l = LatestGenerator::new(1_000, 0.99);
        for _ in 0..100 {
            l.observe_insert();
        }
        let mut r = rng();
        let newest_tenth = (0..10_000)
            .filter(|_| l.sample(&mut r) >= l.n() - l.n() / 10)
            .count();
        assert!(
            newest_tenth > 6_000,
            "latest distribution must favour recent items: {newest_tenth}"
        );
    }

    #[test]
    #[should_panic(expected = "theta must be in")]
    fn uniform_theta_is_rejected() {
        let _ = ZipfGenerator::new(10, 1.0);
    }

    #[test]
    #[should_panic(expected = "only grow")]
    fn shrinking_domain_panics() {
        let mut z = ZipfGenerator::new(10, 0.5);
        z.grow(5);
    }
}
