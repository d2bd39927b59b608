//! Model-based property test: the persistent file system must behave like
//! an in-memory map of byte vectors under random operation sequences,
//! including across power cycles.

use std::collections::HashMap;

use nvfs::{FsError, NvFileSystem};
use pheap::PHeap;
use propcheck::{check, int, vec_of, weighted};
use sim_clock::{Clock, CostModel, SplitMix64};
use ssd_sim::SsdConfig;
use viyojit::{Viyojit, ViyojitConfig};

#[derive(Debug)]
enum Op {
    Write {
        file: u8,
        offset: u32,
        len: u16,
        fill: u8,
    },
    Read {
        file: u8,
        offset: u32,
        len: u16,
    },
    Delete {
        file: u8,
    },
    PowerCycle,
}

fn gen_op(rng: &mut SplitMix64) -> Op {
    match weighted(rng, &[5, 3, 1, 1]) {
        0 => Op::Write {
            file: int(rng, 0..6) as u8,
            offset: int(rng, 0..200_000) as u32,
            len: int(rng, 1..4_096) as u16,
            fill: rng.next_u64() as u8,
        },
        1 => Op::Read {
            file: int(rng, 0..6) as u8,
            offset: int(rng, 0..200_000) as u32,
            len: int(rng, 1..4_096) as u16,
        },
        2 => Op::Delete {
            file: int(rng, 0..6) as u8,
        },
        _ => Op::PowerCycle,
    }
}

fn path(file: u8) -> Vec<u8> {
    format!("/vol/file{file}").into_bytes()
}

#[test]
fn file_system_matches_model_across_power_cycles() {
    check("file_system_matches_model_across_power_cycles", 24, |rng| {
        let ops = vec_of(rng, 1..60, gen_op);
        let budget = int(rng, 4..32);
        let nv = Viyojit::new(
            1024,
            ViyojitConfig::with_budget_pages(budget),
            Clock::new(),
            CostModel::free(),
            SsdConfig::instant(),
        );
        let heap = PHeap::format(nv, 900 * 4096).unwrap();
        let region = heap.region();
        let mut fs = NvFileSystem::format(heap).unwrap();
        // Model: path -> file contents grown on demand.
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();

        for op in &ops {
            match *op {
                Op::Write {
                    file,
                    offset,
                    len,
                    fill,
                } => {
                    let p = path(file);
                    let handle = fs.open_or_create(&p).unwrap();
                    let data = vec![fill; len as usize];
                    match fs.write(handle, offset as u64, &data) {
                        Ok(()) => {
                            let content = model.entry(p).or_default();
                            let end = offset as usize + len as usize;
                            if content.len() < end {
                                content.resize(end, 0);
                            }
                            content[offset as usize..end].fill(fill);
                        }
                        Err(FsError::NoSpace) => {
                            // Heap exhausted: the file may have been
                            // created; keep the model consistent with the
                            // possibly-partial write by re-reading.
                            let size = fs.len(handle).unwrap() as usize;
                            let mut content = vec![0u8; size];
                            if size > 0 {
                                fs.read(handle, 0, &mut content).unwrap();
                            }
                            model.insert(p, content);
                        }
                        Err(e) => panic!("write: {e}"),
                    }
                }
                Op::Read { file, offset, len } => {
                    let p = path(file);
                    let Some(handle) = fs.lookup(&p).unwrap() else {
                        assert!(!model.contains_key(&p));
                        continue;
                    };
                    let content = &model[&p];
                    let mut buf = vec![0u8; len as usize];
                    let end = offset as usize + len as usize;
                    if end > content.len() {
                        assert_eq!(
                            fs.read(handle, offset as u64, &mut buf),
                            Err(FsError::PastEndOfFile)
                        );
                    } else {
                        fs.read(handle, offset as u64, &mut buf).unwrap();
                        assert_eq!(&buf[..], &content[offset as usize..end]);
                    }
                }
                Op::Delete { file } => {
                    let p = path(file);
                    let existed = model.remove(&p).is_some();
                    match fs.delete(&p) {
                        Ok(()) => assert!(existed),
                        Err(FsError::NotFound) => assert!(!existed),
                        Err(e) => panic!("delete: {e}"),
                    }
                }
                Op::PowerCycle => {
                    let mut nv = fs.into_heap().into_inner();
                    let report = nv.power_failure();
                    assert!(report.dirty_pages <= budget);
                    nv.recover();
                    fs = NvFileSystem::open(PHeap::open(nv, region).unwrap()).unwrap();
                }
            }
        }

        // Final audit: sizes and full contents.
        for (p, content) in &model {
            let handle = fs.lookup(p).unwrap().expect("modelled file exists");
            assert_eq!(fs.len(handle).unwrap(), content.len() as u64);
            let mut buf = vec![0u8; content.len()];
            if !content.is_empty() {
                fs.read(handle, 0, &mut buf).unwrap();
            }
            assert_eq!(&buf, content);
        }
    });
}
