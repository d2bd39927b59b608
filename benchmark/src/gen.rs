//! Seeded traffic generators.
//!
//! The `workloads` crate needs `rand`, which does not resolve offline, and
//! `StdRng` is not value-stable across `rand` releases anyway. Everything
//! here is splitmix64 plus the Gray et al. Zipfian YCSB uses, so the same
//! `--seed` gives the same operations on every host and toolchain. The
//! tests at the bottom pin the streams: an edit that changes the traffic
//! fails them.

/// YCSB's default skew.
pub const THETA: f64 = 0.99;
/// `k` + 12 decimal digits, like the figure harnesses' keys.
pub const KEY_BYTES: usize = 13;
/// With the store's 32 B node header and the key, an entry lands exactly
/// in the 1 KiB allocation class (YCSB's 1 KB records).
pub const VALUE_BYTES: usize = 976;
/// Bytes of a value that name its record and version.
const VALUE_TAG: usize = 12;

#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipfian ranks over `0..n` (rank 0 is the most popular).
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    zeta_n: f64,
    eta: f64,
    alpha: f64,
    rank1_below: f64,
}

impl Zipfian {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0);
        let zeta = |to: u64| (1..=to).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zeta_n = zeta(n);
        Zipfian {
            n,
            zeta_n,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zeta_n),
            alpha: 1.0 / (1.0 - theta),
            rank1_below: 1.0 + 0.5f64.powf(theta),
        }
    }

    pub fn rank(&self, u: f64) -> u64 {
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.rank1_below {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// YCSB's scrambling: spreads the popular ranks over the whole key space
/// so that hot records do not share pages by construction.
pub fn scramble(rank: u64, n: u64) -> u64 {
    fnv1a_64(&rank.to_le_bytes()) % n
}

pub fn write_key(buf: &mut [u8; KEY_BYTES], id: u64) {
    buf[0] = b'k';
    let mut rest = id;
    for slot in buf[1..].iter_mut().rev() {
        *slot = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
}

fn fill_byte(id: u64, version: u32) -> u8 {
    (id.wrapping_mul(31).wrapping_add(version as u64 * 17) % 251) as u8 + 1
}

/// The value the oracle expects for `(id, version)`: a tag naming both,
/// then a fill byte derived from them, so a stale or foreign value never
/// passes for the current one.
pub fn fill_value(buf: &mut [u8], id: u64, version: u32) {
    buf[..8].copy_from_slice(&id.to_le_bytes());
    buf[8..VALUE_TAG].copy_from_slice(&version.to_le_bytes());
    buf[VALUE_TAG..].fill(fill_byte(id, version));
}

pub fn value_matches(got: &[u8], id: u64, version: u32) -> bool {
    let fill = fill_byte(id, version);
    got.len() == VALUE_BYTES
        && got[..8] == id.to_le_bytes()
        && got[8..VALUE_TAG] == version.to_le_bytes()
        && got[VALUE_TAG..].iter().all(|&b| b == fill)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    Get(u64),
    /// Overwrite of a loaded record.
    Set(u64),
    /// A record id never used before.
    Insert(u64),
    Delete(u64),
    Scan {
        start: u64,
        len: usize,
    },
}

impl KvOp {
    /// The record the operation names (a scan's first).
    pub fn id(&self) -> u64 {
        match *self {
            KvOp::Get(id) | KvOp::Set(id) | KvOp::Insert(id) | KvOp::Delete(id) => id,
            KvOp::Scan { start, .. } => start,
        }
    }

    /// Index into per-kind tables: get, set, insert, delete, scan.
    pub fn kind(&self) -> usize {
        match self {
            KvOp::Get(_) => 0,
            KvOp::Set(_) => 1,
            KvOp::Insert(_) => 2,
            KvOp::Delete(_) => 3,
            KvOp::Scan { .. } => 4,
        }
    }
}

/// The traffic of one key-value workload.
#[derive(Debug, Clone)]
pub enum KvMix {
    /// Point operations on the loaded records, scrambled-Zipfian keys.
    Ycsb { set_percent: u64 },
    /// Insert-new / delete-oldest / short scans over a sliding id window.
    Churn,
}

#[derive(Debug, Clone)]
pub struct KvStream {
    rng: SplitMix64,
    mix: KvMix,
    zipf: Zipfian,
    records: u64,
    /// Live ids are `oldest..next` (churn only; YCSB never moves them).
    oldest: u64,
    next: u64,
}

impl KvStream {
    pub fn new(mix: KvMix, records: u64, seed: u64) -> Self {
        KvStream {
            rng: SplitMix64::new(seed),
            mix,
            zipf: Zipfian::new(records, THETA),
            records,
            oldest: 0,
            next: records,
        }
    }

    pub fn next_op(&mut self) -> KvOp {
        let dice = self.rng.next_u64() % 100;
        match self.mix {
            KvMix::Ycsb { set_percent } => {
                let id = scramble(self.zipf.rank(self.rng.next_f64()), self.records);
                if dice < set_percent {
                    KvOp::Set(id)
                } else {
                    KvOp::Get(id)
                }
            }
            KvMix::Churn => {
                let live = self.next - self.oldest;
                // Deleting below half the loaded records would drain the
                // store over a long run; insert instead.
                if dice < 40 || (dice < 80 && live < self.records / 2) {
                    self.next += 1;
                    KvOp::Insert(self.next - 1)
                } else if dice < 80 {
                    self.oldest += 1;
                    KvOp::Delete(self.oldest - 1)
                } else {
                    let r = self.rng.next_u64();
                    KvOp::Scan {
                        start: self.oldest + (r >> 8) % live,
                        len: 1 + (r & 15) as usize,
                    }
                }
            }
        }
    }
}

pub const SHARD_REGIONS: u64 = 16;
pub const SHARD_REGION_PAGES: u64 = 256;

/// `shard_wallclock`'s skew, seeded: 80 % of writes land on 160 pages of
/// each of three hot regions, the rest anywhere in the other thirteen.
#[derive(Debug, Clone)]
pub struct ShardStream(SplitMix64);

impl ShardStream {
    pub fn new(seed: u64) -> Self {
        ShardStream(SplitMix64::new(seed))
    }

    /// `(region index, page within the region)`.
    pub fn next_write(&mut self) -> (usize, u64) {
        let r = self.0.next_u64();
        if r % 10 < 8 {
            (((r >> 8) % 3) as usize, (r >> 24) % 160)
        } else {
            (
                (3 + (r >> 8) % (SHARD_REGIONS - 3)) as usize,
                (r >> 24) % SHARD_REGION_PAGES,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RECORDS: u64 = 13_405;

    fn first<T>(n: usize, mut f: impl FnMut() -> T) -> Vec<T> {
        (0..n).map(|_| f()).collect()
    }

    #[test]
    fn splitmix64_outputs_are_pinned() {
        let mut rng = SplitMix64::new(42);
        assert_eq!(
            first(16, || rng.next_u64()),
            [
                0xbdd732262feb6e95,
                0x28efe333b266f103,
                0x47526757130f9f52,
                0x581ce1ff0e4ae394,
                0x09bc585a244823f2,
                0xde4431fa3c80db06,
                0x37e9671c45376d5d,
                0xccf635ee9e9e2fa4,
                0x5705b8770b3d7dd5,
                0x9e54d738297f77ae,
                0x3474724a775b19bf,
                0x7e348a0e451650be,
                0x836ded897f3e46e6,
                0x851f977347ed6db7,
                0xaa47e31c02e78edc,
                0x341452c54d7c33f2,
            ]
        );
        let mut rng = SplitMix64::new(7);
        assert_eq!(
            first(16, || rng.next_u64()),
            [
                0x63cbe1e459320dd7,
                0x044c3cd7f43c661c,
                0xe6984080bab12a02,
                0x953aeb70673e29cb,
                0x73d33b666a1e21da,
                0x3fdabe86cbbeaa11,
                0x77cbc4a133c2d0f6,
                0x53fcd6513d02befe,
                0x225ec07a99506761,
                0x69c3a27688795369,
                0x1a82e79b05b5faeb,
                0xf5ba4eb728dd632c,
                0xeb0354df4a45b34e,
                0xdf0f9924a3016430,
                0xdd2f9b2d0b5f15e6,
                0x8c5c906b1aeb85f8,
            ]
        );
    }

    #[test]
    fn zipfian_ranks_and_scrambled_keys_are_pinned() {
        let zipf = Zipfian::new(RECORDS, THETA);
        let pinned: [(u64, [u64; 16], [u64; 16]); 2] = [
            (
                42,
                [
                    1021, 2, 8, 17, 0, 3636, 4, 1850, 16, 292, 3, 80, 99, 106, 470, 3,
                ],
                [
                    11035, 4983, 12971, 5143, 9805, 13245, 6044, 9386, 2732, 10760, 7394, 1250,
                    6653, 7408, 11439, 7394,
                ],
            ),
            (
                7,
                [
                    27, 0, 5026, 203, 52, 6, 62, 14, 1, 35, 1, 9026, 5965, 3751, 3487, 142,
                ],
                [
                    3487, 9805, 6229, 10470, 13117, 1222, 11461, 4388, 12216, 8135, 12216, 10058,
                    1343, 11221, 4965, 5780,
                ],
            ),
        ];
        for (seed, ranks, keys) in pinned {
            let mut rng = SplitMix64::new(seed);
            let got = first(16, || zipf.rank(rng.next_f64()));
            assert_eq!(got, ranks, "ranks for seed {seed}");
            let scrambled: Vec<u64> = got.iter().map(|&r| scramble(r, RECORDS)).collect();
            assert_eq!(scrambled, keys, "keys for seed {seed}");
        }
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let zipf = Zipfian::new(RECORDS, THETA);
        let mut rng = SplitMix64::new(1);
        let ranks = first(100_000, || zipf.rank(rng.next_f64()));
        assert!(ranks.iter().all(|&r| r < RECORDS));
        let top_ten = ranks.iter().filter(|&&r| r < 10).count();
        assert!(top_ten > 25_000, "top ten ranks drew {top_ten} of 100k");
    }

    fn mix_counts(mix: KvMix, seed: u64) -> [u64; 5] {
        let mut stream = KvStream::new(mix, RECORDS, seed);
        let mut counts = [0u64; 5];
        for _ in 0..100_000 {
            counts[stream.next_op().kind()] += 1;
        }
        counts
    }

    #[test]
    fn op_mix_counts_are_pinned() {
        // get, set, insert, delete, scan over the first 100 000 operations.
        assert_eq!(
            mix_counts(KvMix::Ycsb { set_percent: 50 }, 42),
            [50_085, 49_915, 0, 0, 0]
        );
        assert_eq!(
            mix_counts(KvMix::Ycsb { set_percent: 0 }, 42),
            [100_000, 0, 0, 0, 0]
        );
        assert_eq!(mix_counts(KvMix::Churn, 42), [0, 0, 39_870, 40_023, 20_107]);
        assert_eq!(mix_counts(KvMix::Churn, 7), [0, 0, 40_049, 39_998, 19_953]);
    }

    #[test]
    fn churn_window_stays_consistent() {
        let mut stream = KvStream::new(KvMix::Churn, RECORDS, 42);
        for _ in 0..200_000 {
            let (oldest, next) = (stream.oldest, stream.next);
            match stream.next_op() {
                KvOp::Insert(id) => assert_eq!(id, next),
                KvOp::Delete(id) => assert_eq!(id, oldest),
                KvOp::Scan { start, len } => {
                    assert!((oldest..next).contains(&start));
                    assert!((1..=16).contains(&len));
                }
                other => panic!("churn never issues {other:?}"),
            }
            assert!(stream.next - stream.oldest >= RECORDS / 2 - 1);
        }
    }

    #[test]
    fn shard_writes_are_pinned_and_skewed() {
        let mut stream = ShardStream::new(42);
        assert_eq!(
            first(8, || stream.next_write()),
            [
                (2, 79),
                (1, 50),
                (8, 19),
                (2, 110),
                (2, 36),
                (0, 124),
                (1, 133),
                (15, 158)
            ]
        );
        let mut stream = ShardStream::new(42);
        let writes = first(100_000, || stream.next_write());
        assert_eq!(writes.iter().filter(|w| w.0 < 3).count(), 80_001);
        assert!(writes
            .iter()
            .all(|&(r, p)| if r < 3 { p < 160 } else { r < 16 && p < 256 }));
    }

    #[test]
    fn keys_sort_like_their_ids() {
        let (mut a, mut b) = ([0u8; KEY_BYTES], [0u8; KEY_BYTES]);
        write_key(&mut a, 99_999);
        write_key(&mut b, 100_000);
        assert_eq!(&a, b"k000000099999");
        assert!(a < b);
    }

    #[test]
    fn values_name_their_record_and_version() {
        let mut v = vec![0u8; VALUE_BYTES];
        fill_value(&mut v, 17, 3);
        assert!(value_matches(&v, 17, 3));
        assert!(!value_matches(&v, 17, 2));
        assert!(!value_matches(&v, 18, 3));
        v[500] ^= 1;
        assert!(!value_matches(&v, 17, 3));
        assert!(!value_matches(&v[..100], 17, 3));
    }
}
