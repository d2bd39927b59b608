//! Property test of the ordered index: `scan` must agree with a
//! `BTreeMap` range query under random inserts, updates, and deletes, and
//! across power cycles, after which `KvStore::open` rebuilds the index
//! from the hash chains.

use std::collections::BTreeMap;

use kvstore::KvStore;
use pheap::PHeap;
use propcheck::{check, int, vec_of, weighted};
use sim_clock::{Clock, CostModel, SplitMix64};
use ssd_sim::SsdConfig;
use viyojit::{Viyojit, ViyojitConfig};

#[derive(Debug)]
enum Op {
    Set { key: u8, val: u8 },
    Delete { key: u8 },
    Scan { start: u8, limit: u8 },
    PowerCycle,
}

fn gen_op(rng: &mut SplitMix64) -> Op {
    match weighted(rng, &[8, 4, 6, 1]) {
        0 => Op::Set {
            key: rng.next_u64() as u8,
            val: rng.next_u64() as u8,
        },
        1 => Op::Delete {
            key: rng.next_u64() as u8,
        },
        2 => Op::Scan {
            start: rng.next_u64() as u8,
            limit: int(rng, 1..40) as u8,
        },
        _ => Op::PowerCycle,
    }
}

/// Every fourth key is 127 bytes long, and the long keys share their first
/// 124 bytes: a probe comparing them spills past `cmp_stored_key`'s 64-byte
/// stack buffer, and they differ only past it.
fn key_bytes(key: u8) -> Vec<u8> {
    if key % 4 == 0 {
        format!("row-{:~<120}{key:03}", "").into_bytes()
    } else {
        format!("row-{key:03}").into_bytes()
    }
}

#[test]
fn scans_agree_with_btreemap_ranges() {
    check("scans_agree_with_btreemap_ranges", 32, |rng| {
        let ops = vec_of(rng, 1..120, gen_op);
        let budget = int(rng, 2..24);
        let nv = Viyojit::new(
            512,
            ViyojitConfig::with_budget_pages(budget),
            Clock::new(),
            CostModel::free(),
            SsdConfig::instant(),
        );
        let heap = PHeap::format(nv, 480 * 4096).unwrap();
        let region = heap.region();
        let mut kv = KvStore::create(heap, 64).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

        for op in &ops {
            match *op {
                Op::Set { key, val } => {
                    let k = key_bytes(key);
                    let v = vec![val; 64];
                    kv.set(&k, &v).unwrap();
                    model.insert(k, v);
                }
                Op::Delete { key } => {
                    let k = key_bytes(key);
                    assert_eq!(kv.delete(&k).unwrap(), model.remove(&k).is_some());
                }
                Op::Scan { start, limit } => {
                    let s = key_bytes(start);
                    let got = kv.scan(&s, limit as usize).unwrap();
                    let want: Vec<(Vec<u8>, Vec<u8>)> = model
                        .range(s..)
                        .take(limit as usize)
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    assert_eq!(got, want);
                }
                Op::PowerCycle => {
                    let mut nv = kv.into_heap().into_inner();
                    assert!(nv.power_failure().dirty_pages <= budget);
                    nv.recover();
                    kv = KvStore::open(PHeap::open(nv, region).unwrap()).unwrap();
                }
            }
        }
        // The index must still agree with the hash table exactly.
        assert_eq!(kv.audit_index().unwrap(), model.len() as u64);
    });
}
