//! `FAULT_SEED` read from the real environment. This file holds one test
//! and so runs alone in its process: it may set the variable.

use std::panic::catch_unwind;

#[test]
fn fault_seed_replays_one_case_and_a_malformed_one_is_refused() {
    std::env::set_var("FAULT_SEED", "1337");
    assert_eq!(propcheck::replayed_seed(), Some(1337));
    let mut first_draws = Vec::new();
    propcheck::check("by_generator", 48, |rng| first_draws.push(rng.next_u64()));
    assert_eq!(
        first_draws,
        [sim_clock::SplitMix64::new(1337).next_u64()],
        "one case, its generator seeded with FAULT_SEED itself"
    );
    let mut seeds = Vec::new();
    propcheck::check_seeds("by_seed", 0..16, |seed| seeds.push(seed));
    assert_eq!(seeds, [1337]);

    std::env::set_var("FAULT_SEED", "0x2a");
    let refused = catch_unwind(|| propcheck::check("never_runs", 1, |_| ()))
        .expect_err("a malformed FAULT_SEED must not fall back to the sweep");
    assert_eq!(
        refused.downcast_ref::<String>().map(String::as_str),
        Some("FAULT_SEED must be a u64, got \"0x2a\"")
    );

    std::env::remove_var("FAULT_SEED");
    assert_eq!(propcheck::replayed_seed(), None);
    let mut cases = 0;
    propcheck::check("full_sweep", 48, |_| cases += 1);
    assert_eq!(cases, 48);
}
