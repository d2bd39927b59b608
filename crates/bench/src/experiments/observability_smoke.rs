//! Observability-plane smoke test: a supervised parallel run with the
//! live exporter and the flight recorder armed, self-validating every
//! artifact the plane produces.
//!
//! The run spawns a 4-shard / 2-thread deployment with per-thread
//! telemetry shards, arms one `BudgetRound` crashpoint (absorbed by the
//! restart budget), and drives writes, steps, budget rounds, and an
//! emergency flush. It then asserts:
//!
//! - the Prometheus exposition file parses line-by-line and carries the
//!   engine counters, the per-shard gauges, and the wall-clock
//!   histograms;
//! - counters rendered from the merged registry are monotonic across
//!   two consecutive renders;
//! - the injected worker panic left a `postmortem-worker*.jsonl` black
//!   box whose header records the firing seam
//!   (`crash_signal:budget_round`).
//!
//! The exposition file and the black-box dumps are left in `--out DIR`
//! (default `target/observability_smoke`) for `viyojit-trace postmortem`
//! and for CI artifact upload. Exits non-zero on any failed check.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use mem_sim::PAGE_SIZE;
use sim_clock::{Clock, CostModel, SimDuration, SplitMix64};
use ssd_sim::SsdConfig;
use telemetry::{render_prometheus, ExporterConfig, FlightRecorder, Report, RunMeta};
use viyojit::{
    CrashSchedule, Crashpoint, FaultConfig, FaultPlan, NvHeap, ShardControlPlane, ShardDataPlane,
    ShardedViyojitBuilder, SoftwareWalk, Telemetry, ViyojitConfig,
};

const PAGE: u64 = PAGE_SIZE as u64;
const SHARDS: usize = 4;
const THREADS: usize = 2;
const PAGES_PER_SHARD: usize = 64;
const BUDGET: u64 = 32;
const SEED: u64 = 42;
const FAULT_RATE: f64 = 0.02;

/// One parsed exposition render: bare-name sample values plus each
/// declared metric's kind.
#[derive(Debug)]
struct Exposition {
    values: BTreeMap<String, f64>,
    kinds: BTreeMap<String, String>,
}

/// Parses one exposition render: `# TYPE <name> <kind>` declarations and
/// `<name>[{labels}] <value>` samples. Returns the first violation as an
/// error: bad grammar, a metric family declared twice, or a histogram
/// whose cumulative `_bucket` counts decrease.
fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut values = BTreeMap::new();
    let mut kinds = BTreeMap::new();
    // The family and cumulative count of the previous `_bucket` sample.
    let mut last_bucket: Option<(&str, f64)> = None;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (Some(name), Some(kind), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(format!("line {n}: malformed TYPE declaration: {line}"));
            };
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("line {n}: unknown metric kind '{kind}'"));
            }
            if !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            {
                return Err(format!("line {n}: name outside the alphabet: {name}"));
            }
            if kinds.insert(name.to_string(), kind.to_string()).is_some() {
                return Err(format!("line {n}: family '{name}' declared twice"));
            }
            continue;
        }
        let Some((name, value)) = line.rsplit_once(' ') else {
            return Err(format!("line {n}: sample without a value: {line}"));
        };
        let parsed = value.parse::<f64>();
        if parsed.is_err() && !matches!(value, "NaN" | "+Inf" | "-Inf") {
            return Err(format!("line {n}: unparseable sample value: {line}"));
        }
        let Ok(v) = parsed else { continue };
        if let Some((family, _)) = name.split_once("_bucket{le=") {
            if last_bucket.is_some_and(|(f, count)| f == family && v < count) {
                return Err(format!("line {n}: cumulative bucket decreases: {line}"));
            }
            last_bucket = Some((family, v));
        } else if !name.contains('{') {
            values.insert(name.to_string(), v);
        }
    }
    Ok(Exposition { values, kinds })
}

fn check(report: &mut Report, what: &str, ok: bool, detail: &str) -> bool {
    report.row(&[what, if ok { "ok" } else { "FAIL" }, detail]);
    if !ok {
        eprintln!("FAIL: {what}: {detail}");
    }
    ok
}

fn find_worker_dump(dir: &Path) -> Option<PathBuf> {
    let entries = std::fs::read_dir(dir).ok()?;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("postmortem-worker") && name.ends_with(".jsonl") {
            return Some(entry.path());
        }
    }
    None
}

pub(crate) fn run(args: &super::Args) {
    // Injected crashes are caught by the worker supervisor.
    super::quiet_injected_crashes();
    let dir = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("target/observability_smoke"));
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    let exposition_path = dir.join("metrics.prom");

    let config_text = format!(
        "shards={SHARDS} threads={THREADS} pages_per_shard={PAGES_PER_SHARD} \
         budget={BUDGET} fault_rate={FAULT_RATE}"
    );
    let meta = RunMeta::new("observability_smoke", "Viyojit", &config_text, Some(SEED));
    let flight = FlightRecorder::new(&dir, meta).expect("create flight recorder");
    let crashes = CrashSchedule::armed(Crashpoint::BudgetRound, 1);
    let telemetry = Telemetry::recording(Clock::new());

    let (mut data, mut ctrl) = ShardedViyojitBuilder::new(
        SHARDS,
        PAGES_PER_SHARD,
        ViyojitConfig::with_budget_pages(BUDGET),
    )
    .backend::<SoftwareWalk>()
    .min_per_shard(2)
    .rebalance_period(SimDuration::from_millis(10))
    .clock(Clock::new())
    .cost_model(CostModel::free())
    .ssd(SsdConfig::instant())
    .telemetry(telemetry.clone())
    .faults(FaultPlan::seeded(SEED, FaultConfig::storm(FAULT_RATE)))
    .crashes(crashes.clone())
    .restart_budget(1)
    .threads(THREADS)
    .flight_recorder(flight)
    .exporter(ExporterConfig::to_file(
        &exposition_path,
        Duration::from_millis(10),
    ))
    .build_parallel()
    .expect("a valid observed configuration");

    // Phase 1: dirty every shard, then force the crash-armed budget
    // round. The worker absorbs the panic (restart budget 1), dumping
    // its black box on the way down.
    let regions: Vec<_> = (0..SHARDS)
        .map(|_| data.map(8 * PAGE).expect("map"))
        .collect();
    let mut rng = SplitMix64::new(SEED);
    for &region in &regions {
        for page in 0..8u64 {
            data.write(region, page * PAGE, &[rng.next_u64() as u8; 64])
                .expect("write");
        }
    }
    data.sync().expect("drain staged writes");
    ctrl.rebalance()
        .expect("crash-armed round must be absorbed");
    assert!(
        crashes.fired().is_some(),
        "the armed budget_round seam never fired"
    );

    // Phase 2: post-respawn traffic, virtual steps (wall-clock step
    // samples), another round, and an emergency flush.
    for &region in &regions {
        for page in 0..8u64 {
            data.write(region, page * PAGE, &[rng.next_u64() as u8; 64])
                .expect("post-respawn write");
        }
        data.step(SimDuration::from_millis(5)).expect("step");
    }
    data.sync().expect("drain staged writes");
    ctrl.rebalance().expect("post-respawn round");
    let first_render = render_prometheus(&telemetry);
    let failure = ctrl.power_failure().expect("emergency flush");
    let second_render = render_prometheus(&telemetry);

    // Dropping the handles stops the exporter after one final render.
    drop(data);
    drop(ctrl);

    let mut report = Report::stdout_csv();
    report.section("observability smoke: exposition, monotonicity, black box");
    report.columns(&["check", "status", "detail"]);
    let mut ok = true;

    let text = std::fs::read_to_string(&exposition_path)
        .unwrap_or_else(|e| panic!("exposition file missing: {e}"));
    let parsed = parse_exposition(&text);
    ok &= check(
        &mut report,
        "exposition_parses",
        parsed.is_ok(),
        parsed.as_ref().err().map_or("", |e| e.as_str()),
    );
    if let Ok(exposition) = &parsed {
        for name in [
            "viyojit_faults_handled",
            "sharded_rebalances",
            "sharded_shard0_dirty_pages",
            "sharded_shard0_budget_pages",
            "viyojit_wall_budget_round_nanos_count",
            "viyojit_wall_step_nanos_count",
            "viyojit_wall_emergency_nanos_count",
        ] {
            ok &= check(
                &mut report,
                name,
                exposition.values.contains_key(name),
                "present in final exposition",
            );
        }
    }

    let before = parse_exposition(&first_render).expect("in-run render parses");
    let after = parse_exposition(&second_render).expect("post-failure render parses");
    let monotonic = before.values.iter().all(|(name, &v)| {
        before.kinds.get(name).map(String::as_str) != Some("counter")
            || after.values.get(name).is_some_and(|&w| w >= v)
    });
    ok &= check(
        &mut report,
        "counters_monotonic",
        monotonic,
        "merged counters never regress across renders",
    );
    ok &= check(
        &mut report,
        "emergency_flushed",
        failure.pages_flushed + failure.pages_lost >= failure.dirty_pages,
        "every dirty page flushed or accounted lost",
    );

    let dump = find_worker_dump(&dir);
    ok &= check(
        &mut report,
        "black_box_written",
        dump.is_some(),
        "postmortem-worker*.jsonl exists",
    );
    if let Some(dump) = &dump {
        let dump_text = std::fs::read_to_string(dump).expect("read black box");
        let mut lines = dump_text.lines();
        let header_ok = lines
            .next()
            .is_some_and(|l| l.starts_with("{\"type\":\"meta\""));
        let seam_ok = lines.next().is_some_and(|l| {
            l.starts_with("{\"type\":\"postmortem\"")
                && l.contains("\"trigger\":\"crash_signal:budget_round\"")
        });
        ok &= check(
            &mut report,
            "black_box_header",
            header_ok,
            "dump opens with the run-identity meta record",
        );
        ok &= check(
            &mut report,
            "black_box_seam",
            seam_ok,
            "dump names the firing crash seam",
        );
        println!("postmortem_dump,{}", dump.display());
    }
    println!("exposition_file,{}", exposition_path.display());

    if !ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::parse_exposition;

    const GOOD: &str = "# TYPE a counter\na 1\n# TYPE h histogram\n\
        h_bucket{le=\"7\"} 1\nh_bucket{le=\"911\"} 3\nh_bucket{le=\"+Inf\"} 3\nh_sum 9\nh_count 3\n";

    #[test]
    fn the_gate_rejects_duplicate_families_and_shrinking_buckets() {
        let good = parse_exposition(GOOD).expect("a well-formed render parses");
        assert_eq!(good.values.get("h_count"), Some(&3.0));
        let twice = format!("{GOOD}# TYPE a counter\na 2\n");
        assert!(parse_exposition(&twice).unwrap_err().contains("twice"));
        let shrinking = GOOD.replace("h_bucket{le=\"911\"} 3", "h_bucket{le=\"911\"} 0");
        assert!(parse_exposition(&shrinking)
            .unwrap_err()
            .contains("decreases"));
    }
}
