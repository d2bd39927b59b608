//! The workspace's one seeded generator and its one byte hash.
//!
//! Every figure is a function of a seeded input stream, so the stream has
//! to be reproducible from a bare `u64` across platforms, toolchains and
//! dependency versions. splitmix64 is small, well-studied, and passes
//! BigCrush when used as a one-stream generator, which is all a workload
//! or a fault schedule needs.

/// splitmix64 generator (Steele, Lea & Flood; public domain reference
/// implementation translated to Rust).
///
/// # Examples
///
/// ```
/// use sim_clock::SplitMix64;
///
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!(a.below(10) < 10);
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Integer in `[0, n)` as `next_u64() % n`: biased by at most `n / 2⁶⁴`,
    /// which is nothing at the page and key counts drawn here.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Bernoulli draw. `p <= 0` short-circuits without consuming a draw so
    /// that a plan with a given fault disabled produces the same schedule for
    /// the remaining faults regardless of how often the disabled hook runs.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        self.next_f64() < p
    }
}

/// 64-bit FNV-1a hash of a byte string.
///
/// # Examples
///
/// ```
/// use sim_clock::fnv1a_64;
///
/// assert_ne!(fnv1a_64(b"a"), fnv1a_64(b"b"));
/// assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
/// ```
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // First five outputs for seed 1234567 from the reference C code.
        let mut rng = SplitMix64::new(1234567);
        let got: Vec<u64> = (0..5).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            [
                6457827717110365317,
                3203168211198807973,
                9817491932198370423,
                4593380528125082431,
                16408922859458223821,
            ]
        );
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(42);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x), "out of range: {x}");
        }
    }

    #[test]
    fn zero_probability_consumes_no_state() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        assert!(!a.chance(0.0));
        assert!(!a.chance(-1.0));
        // `a` drew nothing, so both streams stay in lockstep.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_stays_under_its_bound() {
        let mut rng = SplitMix64::new(3);
        for n in [1, 2, 3, 7, 1 << 20, u64::MAX] {
            for _ in 0..1_000 {
                assert!(rng.below(n) < n);
            }
        }
        assert_eq!(rng.below(1), 0);
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn distinct_keys_rarely_collide() {
        use std::collections::HashSet;
        let hashes: HashSet<u64> = (0..10_000u32)
            .map(|i| fnv1a_64(format!("user{i}").as_bytes()))
            .collect();
        assert_eq!(hashes.len(), 10_000, "no collisions in a small keyspace");
    }
}
