//! Property-based tests of the paper's central guarantee (§4.1):
//! under *any* access pattern the dirty population never exceeds the
//! budget, and a power failure at *any* instant loses no data.

use mem_sim::PAGE_SIZE;
use propcheck::{check, int, vec_of, weighted};
use sim_clock::{Clock, CostModel, SimDuration, SplitMix64};
use ssd_sim::SsdConfig;
use viyojit::{NvHeap, Viyojit, ViyojitConfig};

const PAGE: u64 = PAGE_SIZE as u64;
const REGION_PAGES: u64 = 24;

/// One step of a random workload.
#[derive(Debug)]
enum Op {
    /// Write `len` bytes of `fill` at `offset`.
    Write { offset: u64, len: u16, fill: u8 },
    /// Read back a range (exercises the read path, may cross epochs).
    Read { offset: u64, len: u16 },
    /// Let virtual time pass (epochs run, IOs retire).
    Idle { micros: u16 },
}

fn gen_op(rng: &mut SplitMix64) -> Op {
    let max_off = REGION_PAGES * PAGE - u16::MAX as u64;
    match weighted(rng, &[4, 2, 1]) {
        0 => Op::Write {
            offset: int(rng, 0..max_off),
            len: int(rng, 1..2048) as u16,
            fill: rng.next_u64() as u8,
        },
        1 => Op::Read {
            offset: int(rng, 0..max_off),
            len: int(rng, 1..2048) as u16,
        },
        _ => Op::Idle {
            micros: int(rng, 1..2000) as u16,
        },
    }
}

fn build(budget: u64) -> Viyojit {
    Viyojit::new(
        32,
        ViyojitConfig::with_budget_pages(budget),
        Clock::new(),
        CostModel::calibrated(),
        SsdConfig::datacenter(),
    )
}

/// Runs `ops` against both Viyojit and a plain in-memory model, checking
/// the budget invariant after every step, then crashes at the end and
/// verifies recovery restores exactly the model's contents.
fn run_and_crash(budget: u64, ops: &[Op]) {
    let mut v = build(budget);
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

const CASES: u32 = 48;

#[test]
fn durability_holds_for_any_workload_lru() {
    check("durability_holds_for_any_workload_lru", CASES, |rng| {
        let ops = vec_of(rng, 1..120, gen_op);
        let budget = int(rng, 1..16);
        run_and_crash(budget, &ops);
    });
}

#[test]
fn crash_at_any_point_preserves_prior_writes() {
    check("crash_at_any_point_preserves_prior_writes", CASES, |rng| {
        let prefix = vec_of(rng, 1..60, gen_op);
        let crash_after = int(rng, 0..60) as usize;
        // Crash mid-workload rather than at the end: replay the prefix up
        // to the crash point against the model, crash, recover, verify.
        let cut = crash_after.min(prefix.len());
        run_and_crash(4, &prefix[..cut.max(1)]);
    });
}

#[test]
fn budget_shrink_is_always_safe() {
    check("budget_shrink_is_always_safe", CASES, |rng| {
        let ops = vec_of(rng, 1..60, gen_op);
        let first_budget = int(rng, 4..16);
        let second_budget = int(rng, 1..4);
        let mut v = build(first_budget);
        let r = v.map(REGION_PAGES * PAGE).unwrap();
        for op in &ops {
            if let Op::Write { offset, len, fill } = *op {
                v.write(r, offset, &vec![fill; len as usize]).unwrap();
            }
        }
        v.set_dirty_budget(second_budget);
        assert!(v.dirty_count() <= second_budget);
        v.validate();
        let report = v.power_failure();
        assert!(report.dirty_pages <= second_budget);
    });
}
