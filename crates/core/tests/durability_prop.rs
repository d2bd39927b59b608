//! Property-based tests of the paper's central guarantee (§4.1):
//! under *any* access pattern the dirty population never exceeds the
//! budget, and a power failure at *any* instant loses no data.

use mem_sim::PAGE_SIZE;
use proptest::prelude::*;
use sim_clock::{Clock, CostModel, SimDuration};
use ssd_sim::SsdConfig;
use viyojit::{NvHeap, TargetPolicy, Viyojit, ViyojitConfig};

const PAGE: u64 = PAGE_SIZE as u64;
const REGION_PAGES: u64 = 24;

/// One step of a random workload.
#[derive(Debug, Clone)]
enum Op {
    /// Write `len` bytes of `fill` at `offset`.
    Write { offset: u64, len: u16, fill: u8 },
    /// Read back a range (exercises the read path, may cross epochs).
    Read { offset: u64, len: u16 },
    /// Let virtual time pass (epochs run, IOs retire).
    Idle { micros: u16 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let max_off = REGION_PAGES * PAGE - u16::MAX as u64;
    prop_oneof![
        4 => (0..max_off, 1..2048u16, any::<u8>())
            .prop_map(|(offset, len, fill)| Op::Write { offset, len, fill }),
        2 => (0..max_off, 1..2048u16).prop_map(|(offset, len)| Op::Read { offset, len }),
        1 => (1..2000u16).prop_map(|micros| Op::Idle { micros }),
    ]
}

fn build(budget: u64, policy: TargetPolicy) -> Viyojit {
    Viyojit::new(
        32,
        ViyojitConfig::builder(budget)
            .target_policy(policy)
            .build()
            .unwrap(),
        Clock::new(),
        CostModel::calibrated(),
        SsdConfig::datacenter(),
    )
}

/// Runs `ops` against both Viyojit and a plain in-memory model, checking
/// the budget invariant after every step, then crashes at the end and
/// verifies recovery restores exactly the model's contents.
fn run_and_crash(budget: u64, policy: TargetPolicy, ops: &[Op]) {
    let mut v = build(budget, policy);
    let r = v.map(REGION_PAGES * PAGE).unwrap();
    let mut model = vec![0u8; (REGION_PAGES * PAGE) as usize];

    for op in ops {
        match *op {
            Op::Write { offset, len, fill } => {
                let data = vec![fill; len as usize];
                v.write(r, offset, &data).unwrap();
                model[offset as usize..offset as usize + len as usize].fill(fill);
            }
            Op::Read { offset, len } => {
                let mut buf = vec![0u8; len as usize];
                v.read(r, offset, &mut buf).unwrap();
                assert_eq!(
                    buf,
                    &model[offset as usize..offset as usize + len as usize],
                    "read diverged from model before any crash"
                );
            }
            Op::Idle { micros } => {
                v.clock().advance(SimDuration::from_micros(micros as u64));
            }
        }
        assert!(
            v.dirty_count() <= budget,
            "budget violated: {} > {budget}",
            v.dirty_count()
        );
    }
    v.validate();
    assert!(v.durable_state_consistent());

    let report = v.power_failure();
    assert!(
        report.dirty_pages <= budget,
        "flush obligation exceeded budget"
    );
    v.recover();

    let mut after = vec![0u8; model.len()];
    v.read(r, 0, &mut after).unwrap();
    assert_eq!(after, model, "data lost across the power cycle");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn durability_holds_for_any_workload_lru(
        ops in prop::collection::vec(op_strategy(), 1..120),
        budget in 1..16u64,
    ) {
        run_and_crash(budget, TargetPolicy::LeastRecentlyUpdated, &ops);
    }

    #[test]
    fn durability_holds_for_any_workload_random_policy(
        ops in prop::collection::vec(op_strategy(), 1..80),
        budget in 1..8u64,
    ) {
        run_and_crash(budget, TargetPolicy::Random, &ops);
    }

    #[test]
    fn durability_holds_for_any_workload_fifo(
        ops in prop::collection::vec(op_strategy(), 1..80),
        budget in 1..8u64,
    ) {
        run_and_crash(budget, TargetPolicy::Fifo, &ops);
    }

    #[test]
    fn crash_at_any_point_preserves_prior_writes(
        prefix in prop::collection::vec(op_strategy(), 1..60),
        crash_after in 0..60usize,
    ) {
        // Crash mid-workload rather than at the end: replay the prefix up
        // to the crash point against the model, crash, recover, verify.
        let cut = crash_after.min(prefix.len());
        run_and_crash(4, TargetPolicy::LeastRecentlyUpdated, &prefix[..cut.max(1)]);
    }

    #[test]
    fn budget_shrink_is_always_safe(
        ops in prop::collection::vec(op_strategy(), 1..60),
        first_budget in 4..16u64,
        second_budget in 1..4u64,
    ) {
        let mut v = build(first_budget, TargetPolicy::LeastRecentlyUpdated);
        let r = v.map(REGION_PAGES * PAGE).unwrap();
        for op in &ops {
            if let Op::Write { offset, len, fill } = *op {
                v.write(r, offset, &vec![fill; len as usize]).unwrap();
            }
        }
        v.set_dirty_budget(second_budget);
        prop_assert!(v.dirty_count() <= second_budget);
        v.validate();
        let report = v.power_failure();
        prop_assert!(report.dirty_pages <= second_budget);
    }
}
