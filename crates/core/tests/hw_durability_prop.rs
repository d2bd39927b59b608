//! Property tests of the §5.4 MMU-assisted manager: the hardware counter
//! must enforce the same durability bound as the software tracker, under
//! any workload and crash point.

use mem_sim::PAGE_SIZE;
use propcheck::{check, int, vec_of, weighted};
use sim_clock::{Clock, CostModel, SimDuration, SplitMix64};
use ssd_sim::SsdConfig;
use viyojit::{MmuAssistedViyojit, NvHeap, ViyojitConfig};

const PAGE: u64 = PAGE_SIZE as u64;
const REGION_PAGES: u64 = 24;

#[derive(Debug)]
enum Op {
    Write { offset: u64, len: u16, fill: u8 },
    Read { offset: u64, len: u16 },
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

const CASES: u32 = 40;

#[test]
fn hardware_counter_bounds_dirty_pages_and_crashes_lose_nothing() {
    check(
        "hardware_counter_bounds_dirty_pages_and_crashes_lose_nothing",
        CASES,
        |rng| {
            let ops = vec_of(rng, 1..100, gen_op);
            let budget = int(rng, 1..16);
            let mut nv = MmuAssistedViyojit::new(
                32,
                ViyojitConfig::with_budget_pages(budget),
                Clock::new(),
                CostModel::calibrated(),
                SsdConfig::datacenter(),
            );
            let r = nv.map(REGION_PAGES * PAGE).unwrap();
            let mut model = vec![0u8; (REGION_PAGES * PAGE) as usize];

            for op in &ops {
                match *op {
                    Op::Write { offset, len, fill } => {
                        nv.write(r, offset, &vec![fill; len as usize]).unwrap();
                        model[offset as usize..offset as usize + len as usize].fill(fill);
                    }
                    Op::Read { offset, len } => {
                        let mut buf = vec![0u8; len as usize];
                        nv.read(r, offset, &mut buf).unwrap();
                        assert_eq!(
                            &buf[..],
                            &model[offset as usize..offset as usize + len as usize]
                        );
                    }
                    Op::Idle { micros } => {
                        nv.clock().advance(SimDuration::from_micros(micros as u64));
                    }
                }
                assert!(nv.dirty_count() <= budget);
                nv.validate();
            }

            let report = nv.power_failure();
            assert!(report.dirty_pages <= budget);
            nv.recover();
            let mut after = vec![0u8; model.len()];
            nv.read(r, 0, &mut after).unwrap();
            assert_eq!(after, model);
        },
    );
}

#[test]
fn hardware_and_software_managers_agree_on_contents() {
    check(
        "hardware_and_software_managers_agree_on_contents",
        CASES,
        |rng| {
            let ops = vec_of(rng, 1..60, gen_op);
            let budget = int(rng, 2..12);
            use viyojit::Viyojit;

            let mut hw = MmuAssistedViyojit::new(
                32,
                ViyojitConfig::with_budget_pages(budget),
                Clock::new(),
                CostModel::calibrated(),
                SsdConfig::datacenter(),
            );
            let mut sw = Viyojit::new(
                32,
                ViyojitConfig::with_budget_pages(budget),
                Clock::new(),
                CostModel::calibrated(),
                SsdConfig::datacenter(),
            );
            let rh = hw.map(REGION_PAGES * PAGE).unwrap();
            let rs = sw.map(REGION_PAGES * PAGE).unwrap();
            for op in &ops {
                if let Op::Write { offset, len, fill } = *op {
                    let data = vec![fill; len as usize];
                    hw.write(rh, offset, &data).unwrap();
                    sw.write(rs, offset, &data).unwrap();
                }
            }
            let mut a = vec![0u8; (REGION_PAGES * PAGE) as usize];
            let mut b = a.clone();
            hw.read(rh, 0, &mut a).unwrap();
            sw.read(rs, 0, &mut b).unwrap();
            assert_eq!(a, b, "tracking strategy must never change data");
        },
    );
}
