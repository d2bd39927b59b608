//! Wall-clock throughput of the sharded engine vs. thread count.
//!
//! Unlike `shard_scaling` (virtual-time, byte-identical golden), this
//! experiment measures *host* time: the same skewed multi-region workload is
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
//! `--out FILE` writes the artifact as well as printing it. `--quick`
//! runs the small CI configuration. `--check FILE` compares the
//! fresh sequential, 1-thread (the cell the repo benchmark's `shard_par`
//! measures) and 4-thread throughput against the committed artifact and
//! exits non-zero if any regressed more than [`REGRESSION_FACTOR`]×.

use std::time::Instant;

use super::shard_scaling::{
    cluster, skewed_target, GLOBAL_BUDGET, OPS_PER_TICK, PAGE, REGIONS, REGION_PAGES,
};
use crate::report::{cell_value, meta_json, publish};
use sim_clock::{SimDuration, SplitMix64};
use viyojit::{NvHeap, ShardControlPlane, ShardDataPlane, ViyojitError};

/// CI gate: fail if ops/s regresses past this factor under the committed
/// artifact (absorbs runner-to-runner noise).
const REGRESSION_FACTOR: f64 = 3.0;

const SHARDS: usize = 8;
const FULL_OPS: u64 = 400_000;
const QUICK_OPS: u64 = 60_000;

/// Drives `shard_scaling`'s skewed workload through any data plane, with
/// a 1 ms [`ShardDataPlane::step`] every `OPS_PER_TICK` writes, returning
/// host-elapsed seconds for the timed section (writes, steps, and the
/// final drain).
fn drive<D: NvHeap + ShardDataPlane>(nv: &mut D, ops: u64) -> Result<f64, ViyojitError> {
    let regions: Vec<_> = (0..REGIONS)
        .map(|_| nv.map(REGION_PAGES * PAGE))
        .collect::<Result<_, _>>()?;
    let mut rng = SplitMix64::new(0x9E37_79B9_7F4A_7C15);
    let start = Instant::now();
    for op in 0..ops {
        let (region, page) = skewed_target(rng.next_u64());
        nv.write(regions[region], page * PAGE, &[(op % 251) as u8; 64])?;
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
    let mut nv = cluster(SHARDS)
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
    let (mut data, mut ctrl) = cluster(SHARDS)
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
    out.push_str(&format!("  \"meta\": {},\n", meta_json(&meta)));
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

fn gate(fresh: &Cell, committed: &str) -> bool {
    let tags = [
        format!("\"config\": \"{}\",", fresh.config),
        format!("\"threads\": {},", fresh.threads),
    ];
    let Some(committed_ops) = cell_value(committed, &tags, "ops_per_sec") else {
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

pub(crate) fn run(args: &super::Args) {
    // The gate always runs on the small configuration.
    let quick = args.quick || args.check;
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
    if let Some(committed) = publish(&report_json(mode, host_cores, &cells), args) {
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
