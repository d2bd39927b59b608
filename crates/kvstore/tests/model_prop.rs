//! Model-based property test: the persistent store must behave exactly
//! like `std::collections::HashMap` under random operation sequences,
//! including across power cycles at arbitrary points.

use std::collections::HashMap;

use kvstore::{KvError, KvStore};
use pheap::PHeap;
use propcheck::{check, int, vec_of, weighted};
use sim_clock::{Clock, CostModel, SplitMix64};
use ssd_sim::SsdConfig;
use viyojit::{Viyojit, ViyojitConfig};

#[derive(Debug)]
enum Op {
    Set { key: u8, val_len: usize, fill: u8 },
    Get { key: u8 },
    Delete { key: u8 },
    PowerCycle,
}

fn gen_op(rng: &mut SplitMix64) -> Op {
    match weighted(rng, &[5, 3, 2, 1]) {
        0 => Op::Set {
            key: rng.next_u64() as u8,
            val_len: int(rng, 1..1500) as usize,
            fill: rng.next_u64() as u8,
        },
        1 => Op::Get {
            key: rng.next_u64() as u8,
        },
        2 => Op::Delete {
            key: rng.next_u64() as u8,
        },
        _ => Op::PowerCycle,
    }
}

/// Every fourth key is 127 bytes long, and the long keys share their first
/// 124 bytes: a probe comparing them spills past `cmp_stored_key`'s 64-byte
/// stack buffer, and they differ only past it.
fn key_bytes(key: u8) -> Vec<u8> {
    if key % 4 == 0 {
        format!("key-{:~<120}{key:03}", "").into_bytes()
    } else {
        format!("key-{key:03}").into_bytes()
    }
}

#[test]
fn store_matches_hashmap_across_power_cycles() {
    check("store_matches_hashmap_across_power_cycles", 24, |rng| {
        let ops = vec_of(rng, 1..100, gen_op);
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
        let mut kv = KvStore::create(heap, 32).unwrap();
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();

        for op in &ops {
            match *op {
                Op::Set { key, val_len, fill } => {
                    let k = key_bytes(key);
                    let v = vec![fill; val_len];
                    match kv.set(&k, &v) {
                        Ok(()) => {
                            model.insert(k, v);
                        }
                        Err(KvError::Heap(pheap::PHeapError::OutOfMemory)) => {}
                        Err(e) => panic!("set: {e}"),
                    }
                }
                Op::Get { key } => {
                    let k = key_bytes(key);
                    assert_eq!(kv.get(&k).unwrap(), model.get(&k).cloned());
                }
                Op::Delete { key } => {
                    let k = key_bytes(key);
                    let was = kv.delete(&k).unwrap();
                    assert_eq!(was, model.remove(&k).is_some());
                }
                Op::PowerCycle => {
                    let mut nv = kv.into_heap().into_inner();
                    let report = nv.power_failure();
                    assert!(report.dirty_pages <= budget);
                    nv.recover();
                    let heap = PHeap::open(nv, region).unwrap();
                    kv = KvStore::open(heap).unwrap();
                }
            }
        }

        // Full final audit: the hash chains, and the ordered index derived
        // from them.
        assert_eq!(kv.len().unwrap(), model.len() as u64);
        assert_eq!(kv.audit_index().unwrap(), model.len() as u64);
        for (k, v) in &model {
            let got = kv.get(k).unwrap();
            assert_eq!(got.as_ref(), Some(v));
        }
    });
}
