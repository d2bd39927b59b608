//! Synthetic datacenter file-system traces standing in for the proprietary
//! Microsoft traces of §3.
//!
//! The paper analyses file-system traces of four production applications
//! (Azure blob storage, Cosmos, Page rank, Search index serving), each
//! running on one machine with several volumes, and classifies volumes
//! into four behavioural categories (§3):
//!
//! 1. low write fraction, writes mostly to unique pages,
//! 2. low write fraction, writes further skewed (the best case),
//! 3. high write fraction, highly skewed (~10% of pages take 99% of
//!    writes),
//! 4. high write fraction, mostly unique pages (the worst case).
//!
//! The real traces cannot be redistributed, so [`paper_trace_suite`]
//! synthesizes one trace per application with volumes spanning those four
//! categories, calibrated so the headline conclusions reproduce: most
//! volumes write <15% of their capacity per hour, and skewed volumes need
//! only a small page fraction to cover 99% of writes.

use sim_clock::{SimDuration, SimTime, SplitMix64};

use crate::ZipfGenerator;

/// The four applications of §3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// Online blob store (S3-like).
    AzureBlob,
    /// Map-reduce-like data-parallel framework.
    Cosmos,
    /// Search-index construction.
    PageRank,
    /// Search-query serving.
    SearchIndex,
}

impl AppKind {
    /// Display name matching the paper's figure captions.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::AzureBlob => "Azure blob storage",
            AppKind::Cosmos => "Cosmos",
            AppKind::PageRank => "Page rank",
            AppKind::SearchIndex => "Search index serving",
        }
    }
}

/// Parameters of one synthetic file-system volume.
#[derive(Debug, Clone)]
pub struct VolumeSpec {
    /// Volume label ("A", "B", ...).
    pub name: &'static str,
    /// Volume size in pages.
    pub pages: u64,
    /// Total trace operations over the whole duration.
    pub total_ops: u64,
    /// Fraction of operations that are writes.
    pub write_fraction: f64,
    /// Zipf exponent of the write *page* distribution (higher = more
    /// skew). Ignored when `unique_writes` is set.
    pub write_theta: f64,
    /// If set, each write goes to the next never-written page — the
    /// log-structured worst case §3 assumes for its conservative analysis.
    pub unique_writes: bool,
    /// If set, `(hot_page_fraction, hot_write_fraction)`: that fraction of
    /// writes lands uniformly on that fraction of pages, the rest
    /// uniformly elsewhere. Models the paper's category-3 volumes ("10% of
    /// the pages accounting for 99% of the writes") whose concentration
    /// exceeds what a Zipf(theta < 1) tail can produce. Overrides
    /// `write_theta`.
    pub hot_mixture: Option<(f64, f64)>,
}

/// One application's trace specification.
#[derive(Debug, Clone)]
pub struct AppTraceSpec {
    /// Which application this models.
    pub app: AppKind,
    /// Trace duration (24 h for all apps except Cosmos's 3.5 h, §3).
    pub duration: SimDuration,
    /// The machine's volumes.
    pub volumes: Vec<VolumeSpec>,
}

/// One trace record: an access to a logical page of one volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the access happened.
    pub at: SimTime,
    /// The logical page within the volume.
    pub page: u64,
    /// Write or read.
    pub is_write: bool,
}

/// Streams the events of one volume in time order.
///
/// # Examples
///
/// ```
/// use workloads::{TraceGenerator, VolumeSpec};
/// use sim_clock::SimDuration;
///
/// let spec = VolumeSpec {
///     name: "A", pages: 1_000, total_ops: 500,
///     write_fraction: 0.3, write_theta: 0.9, unique_writes: false,
///     hot_mixture: None,
/// };
/// let events: Vec<_> = TraceGenerator::new(&spec, SimDuration::from_secs(60), 1).collect();
/// assert_eq!(events.len(), 500);
/// assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
/// ```
#[derive(Debug)]
pub struct TraceGenerator {
    rng: SplitMix64,
    write_zipf: ZipfGenerator,
    read_zipf: ZipfGenerator,
    pages: u64,
    write_fraction: f64,
    unique_writes: bool,
    hot_mixture: Option<(f64, f64)>,
    next_unique_page: u64,
    interarrival_nanos: u64,
    remaining: u64,
    now_nanos: u64,
}

impl TraceGenerator {
    /// Creates a generator for `spec` spread uniformly over `duration`.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no pages or no operations.
    pub fn new(spec: &VolumeSpec, duration: SimDuration, seed: u64) -> Self {
        assert!(
            spec.pages > 0 && spec.total_ops > 0,
            "degenerate volume spec"
        );
        TraceGenerator {
            rng: SplitMix64::new(seed),
            write_zipf: ZipfGenerator::new(spec.pages, spec.write_theta),
            read_zipf: ZipfGenerator::new(spec.pages, 0.9),
            pages: spec.pages,
            write_fraction: spec.write_fraction,
            unique_writes: spec.unique_writes,
            hot_mixture: spec.hot_mixture,
            next_unique_page: 0,
            interarrival_nanos: (duration.as_nanos() / spec.total_ops).max(1),
            remaining: spec.total_ops,
            now_nanos: 0,
        }
    }
}

impl Iterator for TraceGenerator {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Jittered arrival: uniform within the slot keeps bursts mild but
        // times strictly ordered.
        let jitter = self.rng.below(self.interarrival_nanos.max(2) / 2 + 1);
        let at = SimTime::from_nanos(self.now_nanos + jitter);
        self.now_nanos += self.interarrival_nanos;

        let is_write = self.rng.next_f64() < self.write_fraction;
        let page = if is_write {
            if self.unique_writes {
                let p = self.next_unique_page % self.pages;
                self.next_unique_page += 1;
                p
            } else if let Some((hot_pages, hot_writes)) = self.hot_mixture {
                let hot_count = ((self.pages as f64 * hot_pages) as u64).max(1);
                if self.rng.next_f64() < hot_writes {
                    self.rng.below(hot_count)
                } else {
                    hot_count + self.rng.below(self.pages.max(hot_count + 1) - hot_count)
                }
            } else {
                self.write_zipf.sample(&mut self.rng)
            }
        } else {
            self.read_zipf.sample_scrambled(&mut self.rng)
        };
        Some(TraceEvent { at, page, is_write })
    }
}

/// The four-application trace suite whose volumes span §3's categories.
///
/// Volume scale is reduced from the production hundreds-of-GB to tens of
/// thousands of pages so analyses run in seconds; all §3 metrics are
/// fractions, which are scale-free.
pub fn paper_trace_suite() -> Vec<AppTraceSpec> {
    let day = SimDuration::from_secs(24 * 3600);
    vec![
        AppTraceSpec {
            app: AppKind::AzureBlob,
            duration: day,
            volumes: vec![
                // Category 1: few writes, mostly unique pages.
                vol("A", 40_000, 160_000, 0.02, 0.50, true),
                vol("B", 32_000, 200_000, 0.05, 0.60, false),
                vol("C", 48_000, 240_000, 0.08, 0.75, false),
                vol("D", 40_000, 200_000, 0.04, 0.55, true),
                vol("E", 36_000, 180_000, 0.10, 0.85, false),
                vol("F", 44_000, 220_000, 0.06, 0.70, false),
                vol("G", 40_000, 200_000, 0.12, 0.90, false),
                vol("H", 36_000, 180_000, 0.03, 0.50, true),
            ],
        },
        AppTraceSpec {
            app: AppKind::Cosmos,
            duration: SimDuration::from_secs(3 * 3600 + 1800), // 3.5 h
            volumes: vec![
                vol("A", 40_000, 300_000, 0.10, 0.80, false),
                // Category 2: few writes, strongly skewed (≈30% of touched
                // pages hold 99% of writes in the paper).
                vol_mixture("B", 36_000, 280_000, 0.08, 0.04, 0.95),
                vol_mixture("C", 40_000, 320_000, 0.06, 0.03, 0.95),
                vol("D", 32_000, 260_000, 0.15, 0.85, false),
                // Category 4: write heavy, unique pages (worst case).
                vol("E", 36_000, 600_000, 0.70, 0.60, true),
                // Category 3: write heavy, ~10% of pages hold 99% of writes.
                vol_mixture("F", 40_000, 700_000, 0.70, 0.10, 0.99),
                vol("G", 36_000, 300_000, 0.12, 0.90, false),
            ],
        },
        AppTraceSpec {
            app: AppKind::PageRank,
            duration: day,
            volumes: vec![
                vol("A", 40_000, 400_000, 0.20, 0.90, false),
                vol("B", 36_000, 360_000, 0.25, 0.92, false),
                vol("C", 40_000, 380_000, 0.10, 0.85, false),
                vol("D", 32_000, 300_000, 0.30, 0.95, false),
                vol("E", 36_000, 340_000, 0.15, 0.88, false),
                vol("F", 40_000, 360_000, 0.22, 0.93, false),
            ],
        },
        AppTraceSpec {
            app: AppKind::SearchIndex,
            duration: day,
            volumes: vec![
                vol("A", 40_000, 500_000, 0.05, 0.90, false),
                vol("B", 36_000, 440_000, 0.08, 0.92, false),
                vol("C", 40_000, 480_000, 0.03, 0.85, false),
                vol("D", 32_000, 400_000, 0.12, 0.95, false),
                vol("E", 36_000, 420_000, 0.06, 0.88, false),
                vol("F", 40_000, 460_000, 0.10, 0.93, false),
            ],
        },
    ]
}

fn vol(
    name: &'static str,
    pages: u64,
    total_ops: u64,
    write_fraction: f64,
    write_theta: f64,
    unique_writes: bool,
) -> VolumeSpec {
    VolumeSpec {
        name,
        pages,
        total_ops,
        write_fraction,
        write_theta,
        unique_writes,
        hot_mixture: None,
    }
}

fn vol_mixture(
    name: &'static str,
    pages: u64,
    total_ops: u64,
    write_fraction: f64,
    hot_page_fraction: f64,
    hot_write_fraction: f64,
) -> VolumeSpec {
    VolumeSpec {
        name,
        pages,
        total_ops,
        write_fraction,
        write_theta: 0.99,
        unique_writes: false,
        hot_mixture: Some((hot_page_fraction, hot_write_fraction)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> VolumeSpec {
        vol("T", 10_000, 50_000, 0.3, 0.95, false)
    }

    /// The first events fig3/fig4 replay from one volume per application,
    /// chosen to cover reads and all three write paths (Zipf, unique,
    /// hot mixture). An edit that changes the traffic must fail here.
    #[test]
    fn first_events_are_pinned() {
        let first = |app: AppKind, volume: &str| -> Vec<(u64, u64, bool)> {
            let suite = paper_trace_suite();
            let spec = suite.iter().find(|s| s.app == app).unwrap();
            let vi = spec.volumes.iter().position(|v| v.name == volume).unwrap();
            TraceGenerator::new(&spec.volumes[vi], spec.duration, 0xF163 + vi as u64)
                .take(8)
                .map(|e| (e.at.as_nanos(), e.page, e.is_write))
                .collect()
        };
        assert_eq!(
            first(AppKind::AzureBlob, "G"),
            [
                (102246055, 26869, false),
                (566421517, 19261, false),
                (1076931348, 27360, false),
                (1508414881, 3653, false),
                (1864283588, 21717, false),
                (2205260640, 33223, false),
                (2663675059, 32123, false),
                (3138718708, 29720, false),
            ]
        );
        assert_eq!(
            first(AppKind::Cosmos, "E"),
            [
                (3759358, 11375, false),
                (25362140, 31141, false),
                (49402398, 0, true),
                (73197084, 1, true),
                (94081753, 2, true),
                (111234480, 3, true),
                (134894972, 22848, false),
                (155641213, 4, true),
            ]
        );
        assert_eq!(
            first(AppKind::Cosmos, "F"),
            [
                (6104080, 302, true),
                (25392235, 2314, true),
                (36275888, 22687, false),
                (60162978, 16041, false),
                (80851430, 2582, true),
                (98995079, 39459, false),
                (113603595, 33223, false),
                (129348409, 2469, true),
            ]
        );
        assert_eq!(
            first(AppKind::PageRank, "D"),
            [
                (134307918, 58, true),
                (338743557, 21190, false),
                (608926258, 1684, false),
                (951133946, 4564, false),
                (1248259964, 27485, false),
                (1561219585, 3086, false),
                (1871592099, 28343, false),
                (2121489508, 30405, false),
            ]
        );
        assert_eq!(
            first(AppKind::SearchIndex, "D"),
            [
                (14178672, 15770, false),
                (305755333, 21190, false),
                (500259915, 1684, false),
                (723119356, 4564, false),
                (967313620, 27485, false),
                (1138249875, 3086, false),
                (1354121172, 28343, false),
                (1579277976, 30405, false),
            ]
        );
    }

    #[test]
    fn generator_emits_exactly_total_ops_in_time_order() {
        let events: Vec<_> =
            TraceGenerator::new(&sample_spec(), SimDuration::from_secs(3600), 9).collect();
        assert_eq!(events.len(), 50_000);
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(events.iter().all(|e| e.page < 10_000));
    }

    #[test]
    fn write_fraction_is_respected() {
        let events: Vec<_> =
            TraceGenerator::new(&sample_spec(), SimDuration::from_secs(3600), 10).collect();
        let writes = events.iter().filter(|e| e.is_write).count();
        let frac = writes as f64 / events.len() as f64;
        assert!((0.28..0.32).contains(&frac), "write fraction {frac}");
    }

    #[test]
    fn unique_writes_touch_distinct_pages() {
        let spec = vol("U", 100_000, 20_000, 1.0, 0.5, true);
        let events: Vec<_> = TraceGenerator::new(&spec, SimDuration::from_secs(60), 3).collect();
        let pages: std::collections::HashSet<u64> = events
            .iter()
            .filter(|e| e.is_write)
            .map(|e| e.page)
            .collect();
        assert_eq!(pages.len(), events.len(), "every write hits a fresh page");
    }

    #[test]
    fn skewed_writes_concentrate_on_few_pages() {
        let spec = vol("S", 10_000, 100_000, 1.0, 0.99, false);
        let mut counts = std::collections::HashMap::new();
        for e in TraceGenerator::new(&spec, SimDuration::from_secs(60), 4) {
            *counts.entry(e.page).or_insert(0u64) += 1;
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = freqs.iter().sum();
        let top_decile: u64 = freqs.iter().take(counts.len() / 10).sum();
        assert!(
            top_decile as f64 / total as f64 > 0.6,
            "top decile only covered {:.2}",
            top_decile as f64 / total as f64
        );
    }

    #[test]
    fn suite_covers_all_four_apps_and_categories() {
        let suite = paper_trace_suite();
        assert_eq!(suite.len(), 4);
        let cosmos = suite.iter().find(|s| s.app == AppKind::Cosmos).unwrap();
        assert!(
            cosmos.duration < SimDuration::from_secs(24 * 3600),
            "Cosmos is 3.5 h"
        );
        // Category 3 exists: write heavy + very skewed.
        assert!(cosmos
            .volumes
            .iter()
            .any(|v| v.write_fraction >= 0.5 && v.write_theta > 0.95 && !v.unique_writes));
        // Category 4 exists: write heavy + unique.
        assert!(cosmos
            .volumes
            .iter()
            .any(|v| v.write_fraction >= 0.5 && v.unique_writes));
        for app in &suite {
            assert!(!app.volumes.is_empty());
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a: Vec<_> =
            TraceGenerator::new(&sample_spec(), SimDuration::from_secs(60), 7).collect();
        let b: Vec<_> =
            TraceGenerator::new(&sample_spec(), SimDuration::from_secs(60), 7).collect();
        assert_eq!(a, b);
    }
}
