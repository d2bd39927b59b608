//! Wall-clock throughput of the sharded engine vs. thread count.
//!
//! Unlike `shard_scaling` (virtual-time, byte-identical golden), this
//! binary measures *host* time: the same skewed multi-region workload is
//! driven through the [`ShardDataPlane`] surface of the sequential
//! frontend (8 shards, one thread) and of the thread-parallel runtime at
//! 1/2/4/8 worker threads, and each configuration's operations-per-second
//! figure is recorded in `BENCH_shard_wallclock.json`. `host_cores` is
//! recorded alongside, because parallel speedup is only observable when
//! the host has a core for the driver thread and one for every worker —
//! with fewer, a cell honestly shows the messaging overhead and the
//! oversubscription instead, and the `--check` gate therefore compares
//! like-for-like throughput against the committed artifact rather than
//! asserting a speedup.
//!
//! Usage:
//!   shard_wallclock [--quick] [--out FILE] [--check COMMITTED_JSON]
//!
//! `--quick` runs the small CI configuration. `--check FILE` compares the
//! fresh sequential, 1-thread (the cell the repo benchmark's `shard_par`
//! measures) and 4-thread throughput against the committed artifact and
//! exits non-zero if any regressed more than [`REGRESSION_FACTOR`]×.

use std::time::Instant;

use mem_sim::PAGE_SIZE;
use sim_clock::{SimDuration, SplitMix64};
use viyojit::{
    NvHeap, ShardControlPlane, ShardDataPlane, ShardedViyojitBuilder, ViyojitConfig, ViyojitError,
};

/// CI gate: fail if ops/s regresses past this factor under the committed
/// artifact (absorbs runner-to-runner noise).
const REGRESSION_FACTOR: f64 = 3.0;

const PAGE: u64 = PAGE_SIZE as u64;
const SHARDS: usize = 8;
const GLOBAL_BUDGET: u64 = 512;
const MIN_PER_SHARD: u64 = 16;
const PAGES_PER_SHARD: usize = 4096;
const REGIONS: u64 = 16;
const REGION_PAGES: u64 = 256;
/// Writes between 1 ms [`ShardDataPlane::step`]s (the rebalance
/// heartbeat, as in `shard_scaling`).
const OPS_PER_TICK: u64 = 200;

const FULL_OPS: u64 = 400_000;
const QUICK_OPS: u64 = 60_000;

fn builder() -> ShardedViyojitBuilder {
    ShardedViyojitBuilder::new(
        SHARDS,
        PAGES_PER_SHARD,
        ViyojitConfig::builder(GLOBAL_BUDGET)
            .total_pages(PAGES_PER_SHARD as u64)
            .build()
            .expect("valid shard configuration"),
    )
    .min_per_shard(MIN_PER_SHARD)
    .rebalance_period(SimDuration::from_millis(5))
}

/// Drives the skewed workload (80% of writes on 3 hot regions) through
/// any data plane, returning host-elapsed seconds for the timed section
/// (writes, steps, and the final drain).
fn drive<D: NvHeap + ShardDataPlane>(nv: &mut D, ops: u64) -> Result<f64, ViyojitError> {
    let regions: Vec<_> = (0..REGIONS)
        .map(|_| nv.map(REGION_PAGES * PAGE))
        .collect::<Result<_, _>>()?;
    let mut rng = SplitMix64::new(0x9E37_79B9_7F4A_7C15);
    let start = Instant::now();
    for op in 0..ops {
        let r = rng.next_u64();
        let region_idx = if r % 10 < 8 {
            (r >> 8) % 3
        } else {
            3 + (r >> 8) % (REGIONS - 3)
        };
        let page = if region_idx < 3 {
            (r >> 24) % 160
        } else {
            (r >> 24) % REGION_PAGES
        };
        nv.write(
            regions[region_idx as usize],
            page * PAGE,
            &[(op % 251) as u8; 64],
        )?;
        if (op + 1).is_multiple_of(OPS_PER_TICK) {
            nv.step(SimDuration::from_millis(1))?;
        }
    }
    nv.sync()?;
    Ok(start.elapsed().as_secs_f64())
}

struct Cell {
    config: &'static str,
    threads: usize,
    ops: u64,
    elapsed_secs: f64,
    budget_held: bool,
}

impl Cell {
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed_secs.max(f64::MIN_POSITIVE)
    }
}

fn run_sequential(ops: u64) -> Cell {
    let mut nv = builder()
        .build_sequential()
        .expect("valid shard configuration");
    let elapsed_secs = drive(&mut nv, ops).expect("the sequential run must not fail");
    let report = ShardControlPlane::power_failure(&mut nv).expect("sequential never fails");
    Cell {
        config: "sequential",
        threads: 0,
        ops,
        elapsed_secs,
        budget_held: report.dirty_pages <= GLOBAL_BUDGET,
    }
}

fn run_parallel(ops: u64, threads: usize) -> Cell {
    let (mut data, mut ctrl) = builder()
        .threads(threads)
        .build_parallel()
        .expect("valid shard configuration");
    let elapsed_secs = drive(&mut data, ops).expect("the parallel run must not fail");
    let report = ctrl.power_failure().expect("no shard thread died");
    Cell {
        config: "parallel",
        threads,
        ops,
        elapsed_secs,
        budget_held: report.dirty_pages <= GLOBAL_BUDGET,
    }
}

fn report_json(mode: &str, host_cores: usize, cells: &[Cell]) -> String {
    let sequential = cells
        .iter()
        .find(|c| c.config == "sequential")
        .expect("the sweep always runs the sequential reference");
    let headline = cells
        .iter()
        .find(|c| c.config == "parallel" && c.threads == 4)
        .expect("the sweep always runs the 4-thread cell");
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"shard_wallclock\",\n");
    out.push_str("  \"schema_version\": 1,\n");
    let meta = telemetry::RunMeta::new(
        "shard_wallclock",
        "Viyojit",
        &format!("mode={mode} shards={SHARDS}"),
        None,
    );
    out.push_str(&format!(
        "  \"meta\": {},\n",
        viyojit_bench::meta_json(&meta)
    ));
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    out.push_str(&format!("  \"shards\": {SHARDS},\n"));
    out.push_str(
        "  \"note\": \"ops/s are host wall-clock; the driver thread and every worker want a \
         core each, so speedup_vs_sequential reads parallel speed-up only in cells with \
         threads < host_cores — the others show channel overhead and oversubscription — \
         and the --check gate compares like-for-like throughput against this artifact \
         instead of asserting a speedup\",\n",
    );
    out.push_str(&format!(
        "  \"headline\": {{\"threads\": 4, \"ops_per_sec\": {:.1}, \
         \"speedup_vs_sequential\": {:.2}}},\n",
        headline.ops_per_sec(),
        headline.ops_per_sec() / sequential.ops_per_sec(),
    ));
    out.push_str("  \"cells\": [\n");
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"config\": \"{}\", \"threads\": {}, \"ops\": {}, \
                 \"elapsed_ms\": {:.1}, \"ops_per_sec\": {:.1}, \
                 \"speedup_vs_sequential\": {:.2}, \"budget_held\": {}}}",
                c.config,
                c.threads,
                c.ops,
                c.elapsed_secs * 1e3,
                c.ops_per_sec(),
                c.ops_per_sec() / sequential.ops_per_sec(),
                c.budget_held,
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Pulls `ops_per_sec` out of the committed artifact's cell for
/// (`config`, `threads`). The artifact is our own line-per-cell format,
/// so a line scan is sufficient — no JSON parser needed.
fn extract_ops_per_sec(text: &str, config: &str, threads: usize) -> Option<f64> {
    let config_tag = format!("\"config\": \"{config}\",");
    let threads_tag = format!("\"threads\": {threads},");
    for line in text.lines() {
        if line.contains(&config_tag) && line.contains(&threads_tag) {
            let rest = &line[line.find("\"ops_per_sec\":")? + "\"ops_per_sec\":".len()..];
            let end = rest
                .find(|c: char| c != ' ' && c != '-' && c != '.' && !c.is_ascii_digit())
                .unwrap_or(rest.len());
            return rest[..end].trim().parse().ok();
        }
    }
    None
}

fn gate(fresh: &Cell, committed: &str) -> bool {
    let Some(committed_ops) = extract_ops_per_sec(committed, fresh.config, fresh.threads) else {
        eprintln!(
            "FAIL: committed artifact lacks the {} ({} threads) cell",
            fresh.config, fresh.threads
        );
        return false;
    };
    let fresh_ops = fresh.ops_per_sec();
    eprintln!(
        "gate: {} ({} threads) fresh {:.1} ops/s vs committed {:.1} ops/s (limit {REGRESSION_FACTOR}x)",
        fresh.config, fresh.threads, fresh_ops, committed_ops
    );
    if fresh_ops * REGRESSION_FACTOR < committed_ops {
        eprintln!("FAIL: throughput regressed more than {REGRESSION_FACTOR}x");
        return false;
    }
    true
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--out" => {
                i += 1;
                out_path = Some(args.get(i).expect("--out needs a path").clone());
            }
            "--check" => {
                i += 1;
                check_path = Some(args.get(i).expect("--check needs a path").clone());
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: shard_wallclock [--quick] [--out FILE] [--check COMMITTED_JSON]");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    // The gate always runs on the small configuration.
    if check_path.is_some() {
        quick = true;
    }

    let ops = if quick { QUICK_OPS } else { FULL_OPS };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut cells = Vec::new();
    eprintln!("measuring sequential ({SHARDS} shards, {ops} ops) ...");
    cells.push(run_sequential(ops));
    for &threads in &[1usize, 2, 4, 8] {
        eprintln!("measuring parallel ({threads} threads, {ops} ops) ...");
        cells.push(run_parallel(ops, threads));
    }
    assert!(
        cells.iter().all(|c| c.budget_held),
        "a configuration exceeded the global dirty budget at power failure"
    );

    let mode = if quick { "quick" } else { "full" };
    let json = report_json(mode, host_cores, &cells);
    print!("{json}");
    if let Some(path) = &out_path {
        std::fs::write(path, &json).expect("write artifact");
        eprintln!("wrote {path}");
    }

    if let Some(path) = &check_path {
        let committed = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read committed artifact {path}: {e}"));
        // Every gated cell reports before the verdict: no short-circuit.
        let failed = cells
            .iter()
            .filter(|c| c.config == "sequential" || matches!(c.threads, 1 | 4))
            .filter(|c| !gate(c, &committed))
            .count();
        if failed > 0 {
            std::process::exit(1);
        }
        eprintln!("gate: OK");
    }
}
