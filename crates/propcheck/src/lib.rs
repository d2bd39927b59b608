//! The workspace's one property-test harness: seeded cases, seed replay,
//! and generators as plain functions over [`SplitMix64`].
//!
//! A property is a closure that panics when it does not hold. [`check`]
//! runs it on `cases` generators, case `i` seeded from the property's name
//! and `i`; [`check_seeds`] runs it on the seeds it is handed, for
//! scenarios that are a function of a bare `u64`. Either way the panic of
//! a failing case names its seed (`replay with FAULT_SEED=<seed>`), and
//! with `FAULT_SEED` set that one seed runs alone — the same variable the
//! fault plans and CI's seed matrices use. There is no shrinking: a
//! failure is reproduced, not minimised.
//!
//! Case counts are constants at the call sites and the generators draw
//! from one stream in source order, so a property's cases change only
//! when its name or its generator code does.
//!
//! # Examples
//!
//! ```
//! use propcheck::{check, int, vec_of};
//!
//! check("reversing_twice_is_the_identity", 32, |rng| {
//!     let v = vec_of(rng, 0..50, |rng| int(rng, 0..=9));
//!     let mut w = v.clone();
//!     w.reverse();
//!     w.reverse();
//!     assert_eq!(v, w);
//! });
//! ```

use std::any::Any;
use std::collections::BTreeSet;
use std::ops::{Bound, Range, RangeBounds};
use std::panic::{catch_unwind, AssertUnwindSafe};

use sim_clock::{fnv1a_64, SplitMix64};

/// The seed `FAULT_SEED` names, when a reported failure is being replayed
/// or one leg of a CI seed matrix is running. A property that asserts
/// something about its whole sweep (every seam reached, enough cases off
/// the fast path) owes that only when this is `None`.
///
/// # Panics
///
/// Panics if `FAULT_SEED` is set to anything but a `u64`.
pub fn replayed_seed() -> Option<u64> {
    let var = std::env::var_os("FAULT_SEED")?;
    Some(parse_seed(&var.to_string_lossy()))
}

fn parse_seed(var: &str) -> u64 {
    var.parse()
        .unwrap_or_else(|_| panic!("FAULT_SEED must be a u64, got {var:?}"))
}

/// Runs `property` on `cases` seeded generators, or on the one
/// [`replayed_seed`] seeds.
///
/// # Panics
///
/// Panics when a case does, with the case's message and
/// `replay with FAULT_SEED=<seed>`.
#[track_caller]
pub fn check(name: &str, cases: u32, mut property: impl FnMut(&mut SplitMix64)) {
    check_seeds(name, case_seeds(name, cases), |seed| {
        property(&mut SplitMix64::new(seed))
    });
}

/// Runs `property` on each of `seeds`, or on the [`replayed_seed`] alone.
///
/// # Panics
///
/// As [`check`].
#[track_caller]
pub fn check_seeds(name: &str, seeds: impl IntoIterator<Item = u64>, property: impl FnMut(u64)) {
    run(name, replayed_seed(), seeds, property);
}

/// Case `i` of the property called `name` starts from a hash of both, so
/// two properties with the same generators do not see the same cases.
fn case_seeds(name: &str, cases: u32) -> impl Iterator<Item = u64> {
    let base = fnv1a_64(name.as_bytes());
    (0..u64::from(cases)).map(move |i| SplitMix64::new(base ^ i).next_u64())
}

#[track_caller]
fn run(
    name: &str,
    replay: Option<u64>,
    seeds: impl IntoIterator<Item = u64>,
    mut property: impl FnMut(u64),
) {
    let seeds: Vec<u64> = match replay {
        Some(seed) => vec![seed],
        None => seeds.into_iter().collect(),
    };
    for seed in seeds {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| property(seed))) {
            panic!(
                "{name} failed on seed {seed}: {}\nreplay with FAULT_SEED={seed}",
                panic_message(&*payload)
            );
        }
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("a panic that carried no message")
}

/// Uniform integer in `range`, which may be half-open or inclusive.
///
/// # Panics
///
/// Panics if `range` is empty.
pub fn int(rng: &mut SplitMix64, range: impl RangeBounds<u64>) -> u64 {
    let lo = match range.start_bound() {
        Bound::Included(&lo) => lo,
        Bound::Excluded(&lo) => lo.checked_add(1).expect("range starts past u64::MAX"),
        Bound::Unbounded => 0,
    };
    let hi = match range.end_bound() {
        Bound::Included(&hi) => hi,
        Bound::Excluded(&hi) => hi.checked_sub(1).expect("range ends before 0"),
        Bound::Unbounded => u64::MAX,
    };
    assert!(lo <= hi, "empty range {lo}..={hi}");
    match (hi - lo).checked_add(1) {
        Some(span) => lo + rng.below(span),
        None => rng.next_u64(),
    }
}

/// Uniform float in `[range.start, range.end)`.
pub fn float(rng: &mut SplitMix64, range: Range<f64>) -> f64 {
    range.start + rng.next_f64() * (range.end - range.start)
}

/// Index into `weights`, drawn in proportion to them.
///
/// # Panics
///
/// Panics if every weight is zero.
pub fn weighted(rng: &mut SplitMix64, weights: &[u32]) -> usize {
    let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
    assert!(total > 0, "no weight to draw from");
    let mut pick = rng.below(total);
    for (i, &w) in weights.iter().enumerate() {
        if pick < u64::from(w) {
            return i;
        }
        pick -= u64::from(w);
    }
    unreachable!("pick < total")
}

/// A vector of `len` draws of `item`, `len` itself drawn by [`int`].
pub fn vec_of<T>(
    rng: &mut SplitMix64,
    len: impl RangeBounds<u64>,
    mut item: impl FnMut(&mut SplitMix64) -> T,
) -> Vec<T> {
    let len = int(rng, len);
    (0..len).map(|_| item(rng)).collect()
}

/// `len` of `items`, every subset of that size equally likely, in the
/// order they have in `items`.
///
/// # Panics
///
/// Panics if the drawn length exceeds `items.len()`.
pub fn subsequence<T: Clone>(
    rng: &mut SplitMix64,
    items: &[T],
    len: impl RangeBounds<u64>,
) -> Vec<T> {
    let mut needed = int(rng, len);
    assert!(
        needed <= items.len() as u64,
        "{needed} of {} items",
        items.len()
    );
    // Selection sampling: keep each item with probability needed / left.
    let mut out = Vec::with_capacity(needed as usize);
    for (i, item) in items.iter().enumerate() {
        if rng.below((items.len() - i) as u64) < needed {
            out.push(item.clone());
            needed -= 1;
        }
    }
    out
}

/// A set of `size` distinct draws of `item`.
///
/// # Panics
///
/// Panics if `item` does not come up with that many distinct values.
pub fn btree_set<T: Ord>(
    rng: &mut SplitMix64,
    size: impl RangeBounds<u64>,
    mut item: impl FnMut(&mut SplitMix64) -> T,
) -> BTreeSet<T> {
    let size = int(rng, size) as usize;
    let mut set = BTreeSet::new();
    for _ in 0..1_000 * size {
        if set.len() == size {
            break;
        }
        set.insert(item(rng));
    }
    assert_eq!(set.len(), size, "the item domain is smaller than the set");
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `run` panicked with. Passing `replay` explicitly keeps these
    /// tests independent of a `FAULT_SEED` in the environment.
    fn failure_of(
        name: &str,
        replay: Option<u64>,
        cases: u32,
        property: impl FnMut(u64),
    ) -> String {
        let seeds = case_seeds(name, cases);
        let payload = catch_unwind(AssertUnwindSafe(|| run(name, replay, seeds, property)))
            .expect_err("the property fails on some case");
        panic_message(&*payload).to_string()
    }

    fn seed_named_in(message: &str) -> u64 {
        let (_, seed) = message
            .rsplit_once("replay with FAULT_SEED=")
            .expect("the panic says how to replay it");
        seed.parse().expect("the seed is a u64")
    }

    #[test]
    fn the_same_name_yields_the_same_case_stream() {
        let stream = |name: &str| {
            let mut draws = Vec::new();
            run(name, None, case_seeds(name, 16), |seed| {
                let mut rng = SplitMix64::new(seed);
                draws.push((seed, int(&mut rng, 0..1_000), float(&mut rng, 0.0..1.0)));
            });
            draws
        };
        assert_eq!(stream("a"), stream("a"));
        assert_eq!(stream("a").len(), 16);
        let seeds: BTreeSet<u64> = stream("a").iter().map(|d| d.0).collect();
        assert_eq!(seeds.len(), 16, "every case has a seed of its own");
        assert!(
            stream("a").iter().all(|d| !stream("b").contains(d)),
            "another property sees other cases"
        );
    }

    #[test]
    fn a_failure_names_the_seed_that_alone_reproduces_it() {
        let fails_on = |seed: u64| assert!(!seed.is_multiple_of(3), "seed {seed} divides by 3");
        let mut ran = 0;
        let message = failure_of("fails", None, 64, |seed| {
            ran += 1;
            fails_on(seed);
        });
        let seed = seed_named_in(&message);
        assert!(seed.is_multiple_of(3));
        assert!(message.starts_with(&format!("fails failed on seed {seed}: seed {seed} divides")));
        assert_eq!(
            case_seeds("fails", 64).position(|s| s == seed),
            Some(ran - 1),
            "the sweep stops at its first failing case"
        );

        let mut replayed = Vec::new();
        let again = failure_of("fails", Some(seed), 64, |seed| {
            replayed.push(seed);
            fails_on(seed);
        });
        assert_eq!(replayed, [seed], "the replay runs that case and no other");
        assert_eq!(again, message);
    }

    #[test]
    fn a_replayed_seed_runs_exactly_one_case() {
        let mut seen = Vec::new();
        run("any", Some(7), case_seeds("any", 48), |seed| {
            seen.push(seed)
        });
        assert_eq!(seen, [7]);
        // Also a seed the sweep would never have produced.
        assert!(case_seeds("any", 48).all(|s| s != 7));
    }

    #[test]
    fn a_non_string_panic_still_names_its_seed() {
        struct Signal;
        let message = failure_of("signal", None, 1, |_| std::panic::panic_any(Signal));
        assert!(message.contains("carried no message"));
        assert_eq!(
            Some(seed_named_in(&message)),
            case_seeds("signal", 1).next()
        );
    }

    #[test]
    #[should_panic(expected = "FAULT_SEED must be a u64, got \"seven\"")]
    fn a_malformed_seed_is_rejected() {
        parse_seed("seven");
    }

    #[test]
    fn a_well_formed_seed_parses() {
        assert_eq!(parse_seed("1337"), 1337);
        assert_eq!(parse_seed("18446744073709551615"), u64::MAX);
    }

    #[test]
    fn ints_and_floats_stay_inside_their_ranges() {
        let mut rng = SplitMix64::new(1);
        let mut seen = BTreeSet::new();
        for _ in 0..2_000 {
            seen.insert(int(&mut rng, 3..7));
            assert!((10..=12).contains(&int(&mut rng, 10..=12)));
            assert_eq!(int(&mut rng, 5..6), 5);
            assert_eq!(int(&mut rng, u64::MAX..=u64::MAX), u64::MAX);
            assert!(int(&mut rng, ..4) < 4);
            int(&mut rng, ..);
            let x = float(&mut rng, 0.25..0.75);
            assert!((0.25..0.75).contains(&x), "{x}");
        }
        assert_eq!(
            seen,
            BTreeSet::from([3, 4, 5, 6]),
            "both ends, nothing past them"
        );
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn an_empty_range_is_refused() {
        int(&mut SplitMix64::new(1), 4..4);
    }

    #[test]
    fn a_zero_weight_is_never_chosen() {
        let mut rng = SplitMix64::new(2);
        let mut counts = [0u32; 4];
        for _ in 0..8_000 {
            counts[weighted(&mut rng, &[0, 6, 0, 2])] += 1;
        }
        assert_eq!((counts[0], counts[2]), (0, 0));
        assert!(
            (5_600..6_400).contains(&counts[1]),
            "three draws in four: {counts:?}"
        );
    }

    #[test]
    fn collections_stay_inside_their_size_ranges() {
        let all: Vec<u64> = (0..40).collect();
        let mut rng = SplitMix64::new(3);
        let (mut shortest, mut longest) = (usize::MAX, 0);
        for _ in 0..500 {
            let v = vec_of(&mut rng, 2..9, |rng| int(rng, 0..5));
            assert!((2..9).contains(&v.len()) && v.iter().all(|&x| x < 5));
            shortest = shortest.min(v.len());
            longest = longest.max(v.len());
            assert!(vec_of(&mut rng, 0..=0, |rng| rng.next_u64()).is_empty());

            let sub = subsequence(&mut rng, &all, 1..=6);
            assert!((1..=6).contains(&sub.len()));
            assert!(
                sub.windows(2).all(|w| w[0] < w[1]),
                "in order, no repeats: {sub:?}"
            );
            assert_eq!(subsequence(&mut rng, &all, 40..=40), all);

            let set = btree_set(&mut rng, 1..=4, |rng| int(rng, 0..4));
            assert!((1..=4).contains(&set.len()) && set.iter().all(|&x| x < 4));
        }
        assert_eq!((shortest, longest), (2, 8), "both ends of the length range");
    }

    #[test]
    fn a_subsequence_takes_every_item_equally_often() {
        let all: Vec<usize> = (0..8).collect();
        let mut rng = SplitMix64::new(4);
        let mut taken = [0u32; 8];
        for _ in 0..8_000 {
            for i in subsequence(&mut rng, &all, 2..=2) {
                taken[i] += 1;
            }
        }
        assert!(
            taken.iter().all(|t| (1_800..2_200).contains(t)),
            "one draw in four each: {taken:?}"
        );
    }

    #[test]
    #[should_panic(expected = "smaller than the set")]
    fn a_set_larger_than_its_domain_is_refused() {
        btree_set(&mut SplitMix64::new(5), 3..=3, |rng| int(rng, 0..2));
    }
}
