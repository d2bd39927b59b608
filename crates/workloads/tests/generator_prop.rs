//! Property tests of the workload generators: domains, mixes, and
//! determinism under arbitrary parameters.

use proptest::prelude::*;
use sim_clock::{SimDuration, SplitMix64};
use workloads::{TraceGenerator, VolumeSpec, YcsbGenerator, YcsbOp, YcsbWorkload, ZipfGenerator};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn zipf_samples_stay_in_domain_for_any_parameters(
        n in 1..100_000u64,
        theta in 0.01..0.999f64,
        seed in any::<u64>(),
    ) {
        let zipf = ZipfGenerator::new(n, theta);
        let mut rng = SplitMix64::new(seed);
        for _ in 0..200 {
            prop_assert!(zipf.sample(&mut rng) < n);
            prop_assert!(zipf.sample_scrambled(&mut rng) < n);
        }
    }

    #[test]
    fn zipf_coverage_is_monotone_in_k(
        n in 10..10_000u64,
        theta in 0.1..0.99f64,
    ) {
        let zipf = ZipfGenerator::new(n, theta);
        let mut prev = 0.0;
        for k in [1, n / 4 + 1, n / 2 + 1, n] {
            let cov = zipf.coverage_of_top(k);
            prop_assert!(cov >= prev - 1e-12);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&cov));
            prev = cov;
        }
        prop_assert!((zipf.coverage_of_top(n) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ycsb_ops_reference_only_live_records(
        workload_idx in 0..5usize,
        records in 1..5_000u64,
        seed in any::<u64>(),
    ) {
        let workload = YcsbWorkload::ALL[workload_idx];
        let mut gen = YcsbGenerator::new(workload, records, seed);
        for _ in 0..300 {
            let op = gen.next_op();
            match op {
                YcsbOp::Insert(id) => prop_assert!(id < gen.record_count()),
                other => prop_assert!(
                    other.record() < gen.record_count(),
                    "{other:?} out of range"
                ),
            }
        }
        prop_assert!(gen.record_count() >= records, "datasets never shrink");
    }

    #[test]
    fn ycsb_mixes_match_their_specification(
        seed in any::<u64>(),
    ) {
        // YCSB-B: 95/5 read/update within tolerance; C: strictly read-only.
        let mut b = YcsbGenerator::new(YcsbWorkload::B, 1_000, seed);
        let updates = (0..4_000).filter(|_| b.next_op().is_write()).count();
        prop_assert!((100..320).contains(&updates), "B updates: {updates}");

        let mut c = YcsbGenerator::new(YcsbWorkload::C, 1_000, seed);
        for _ in 0..500 {
            prop_assert!(!c.next_op().is_write());
        }
    }

    #[test]
    fn trace_generator_respects_spec_for_any_parameters(
        pages in 10..20_000u64,
        total_ops in 1..5_000u64,
        write_fraction in 0.0..1.0f64,
        theta in 0.1..0.99f64,
        unique in any::<bool>(),
        seed in any::<u64>(),
    ) {
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
        prop_assert_eq!(events.len() as u64, total_ops);
        for e in &events {
            prop_assert!(e.page < pages);
        }
        prop_assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn hot_mixture_concentrates_writes(
        seed in any::<u64>(),
    ) {
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
        prop_assert!(frac > 0.97, "hot fraction {frac}");
    }
}
