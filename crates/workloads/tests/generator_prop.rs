//! Property tests of the workload generators: domains, mixes, and
//! determinism under arbitrary parameters.

use propcheck::{check, float, int};
use sim_clock::{SimDuration, SplitMix64};
use workloads::{TraceGenerator, VolumeSpec, YcsbGenerator, YcsbOp, YcsbWorkload, ZipfGenerator};

const CASES: u32 = 48;

#[test]
fn zipf_samples_stay_in_domain_for_any_parameters() {
    check(
        "zipf_samples_stay_in_domain_for_any_parameters",
        CASES,
        |rng| {
            let n = int(rng, 1..100_000);
            let theta = float(rng, 0.01..0.999);
            let seed = rng.next_u64();
            let zipf = ZipfGenerator::new(n, theta);
            let mut rng = SplitMix64::new(seed);
            for _ in 0..200 {
                assert!(zipf.sample(&mut rng) < n);
                assert!(zipf.sample_scrambled(&mut rng) < n);
            }
        },
    );
}

#[test]
fn zipf_coverage_is_monotone_in_k() {
    check("zipf_coverage_is_monotone_in_k", CASES, |rng| {
        let n = int(rng, 10..10_000);
        let theta = float(rng, 0.1..0.99);
        let zipf = ZipfGenerator::new(n, theta);
        let mut prev = 0.0;
        for k in [1, n / 4 + 1, n / 2 + 1, n] {
            let cov = zipf.coverage_of_top(k);
            assert!(cov >= prev - 1e-12);
            assert!((0.0..=1.0 + 1e-9).contains(&cov));
            prev = cov;
        }
        assert!((zipf.coverage_of_top(n) - 1.0).abs() < 1e-9);
    });
}

#[test]
fn ycsb_ops_reference_only_live_records() {
    check("ycsb_ops_reference_only_live_records", CASES, |rng| {
        let workload = YcsbWorkload::ALL[int(rng, 0..5) as usize];
        let records = int(rng, 1..5_000);
        let seed = rng.next_u64();
        let mut gen = YcsbGenerator::new(workload, records, seed);
        for _ in 0..300 {
            let op = gen.next_op();
            match op {
                YcsbOp::Insert(id) => assert!(id < gen.record_count()),
                other => assert!(
                    other.record() < gen.record_count(),
                    "{other:?} out of range"
                ),
            }
        }
        assert!(gen.record_count() >= records, "datasets never shrink");
    });
}

#[test]
fn ycsb_mixes_match_their_specification() {
    check("ycsb_mixes_match_their_specification", CASES, |rng| {
        let seed = rng.next_u64();
        // YCSB-B: 95/5 read/update within tolerance; C: strictly read-only.
        let mut b = YcsbGenerator::new(YcsbWorkload::B, 1_000, seed);
        let updates = (0..4_000).filter(|_| b.next_op().is_write()).count();
        assert!((100..320).contains(&updates), "B updates: {updates}");

        let mut c = YcsbGenerator::new(YcsbWorkload::C, 1_000, seed);
        for _ in 0..500 {
            assert!(!c.next_op().is_write());
        }
    });
}

#[test]
fn trace_generator_respects_spec_for_any_parameters() {
    check(
        "trace_generator_respects_spec_for_any_parameters",
        CASES,
        |rng| {
            let pages = int(rng, 10..20_000);
            let total_ops = int(rng, 1..5_000);
            let write_fraction = float(rng, 0.0..1.0);
            let theta = float(rng, 0.1..0.99);
            let unique = rng.chance(0.5);
            let seed = rng.next_u64();
            let spec = VolumeSpec {
                name: "P",
                pages,
                total_ops,
                write_fraction,
                write_theta: theta,
                unique_writes: unique,
                hot_mixture: None,
            };
            let events: Vec<_> =
                TraceGenerator::new(&spec, SimDuration::from_secs(60), seed).collect();
            assert_eq!(events.len() as u64, total_ops);
            for e in &events {
                assert!(e.page < pages);
            }
            assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
        },
    );
}

#[test]
fn hot_mixture_concentrates_writes() {
    check("hot_mixture_concentrates_writes", CASES, |rng| {
        let seed = rng.next_u64();
        let spec = VolumeSpec {
            name: "M",
            pages: 10_000,
            total_ops: 20_000,
            write_fraction: 1.0,
            write_theta: 0.9,
            unique_writes: false,
            hot_mixture: Some((0.1, 0.99)),
        };
        let hot_cutoff = 1_000u64;
        let events = TraceGenerator::new(&spec, SimDuration::from_secs(60), seed);
        let (mut hot, mut total) = (0u64, 0u64);
        for e in events {
            if e.is_write {
                total += 1;
                if e.page < hot_cutoff {
                    hot += 1;
                }
            }
        }
        let frac = hot as f64 / total as f64;
        assert!(frac > 0.97, "hot fraction {frac}");
    });
}
