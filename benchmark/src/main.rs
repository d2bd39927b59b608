//! The repo benchmark: six closed-loop, single-client workloads timed end
//! to end on the host and the virtual clock, and layer by layer from
//! outside the program. See `benchmark/README.md`.

mod compare;
mod drives;
mod gen;
mod kv;
mod metrics;
mod run;
mod shard;
mod stats;
mod store;
mod trace;
mod workload;

use std::process::{Command, ExitCode};

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u64 = 10;

const USAGE: &str = "\
usage: viyojit-benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
                         [--quick] [--out FILE]
       viyojit-benchmark compare --a FILE... --b FILE...
       viyojit-benchmark selfcheck [--seconds S] [--quick]
       viyojit-benchmark manifest";

struct Cli {
    workload: String,
    run: run::RunArgs,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: "all".into(),
        run: run::RunArgs {
            seed: 42,
            seconds: RUN_SECONDS,
            trace: false,
            quick: false,
        },
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |text: &String| {
            text.parse::<u64>()
                .map_err(|e| format!("{flag} {text}: {e}"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = value()?.clone(),
            "--seed" => cli.run.seed = number(value()?)?,
            "--seconds" => cli.run.seconds = number(value()?)?,
            "--trace" => cli.run.trace = number(value()?)? != 0,
            "--out" => cli.out = Some(value()?.clone()),
            "--quick" => cli.run.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(1..=60).contains(&cli.run.seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    Ok(cli)
}

/// Every workload in a child process of its own, so that peak memory and
/// the process-wide dispatch counters are each workload's alone.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for w in workload::all() {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", w.name])
            .args(["--seed", &cli.run.seed.to_string()])
            .args(["--seconds", &cli.run.seconds.to_string()])
            .args(["--trace", if cli.run.trace { "1" } else { "0" }]);
        if cli.run.quick {
            child.arg("--quick");
        }
        if let Some(out) = &cli.out {
            child.args(["--out", out]);
        }
        all_ok &= child.status().map_err(|e| e.to_string())?.success();
    }
    Ok(all_ok)
}

fn run_one(cli: &Cli) -> Result<bool, String> {
    let workload = workload::find(&cli.workload)
        .ok_or_else(|| format!("no workload named {}", cli.workload))?;
    let outcome = run::run(&workload, &cli.run);
    if cli.run.quick {
        println!("--quick: 1/20 of the operations; NOT comparable with full runs");
    }
    print!("{}", outcome.table(workload.name));
    if let Some(path) = &cli.out {
        use std::io::Write as _;
        let meta = compare::RunMeta {
            workload: workload.name.into(),
            seed: cli.run.seed,
            seconds: cli.run.seconds,
            trace: cli.run.trace,
            quick: cli.run.quick,
        };
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut file| file.write_all(compare::records(&meta, &outcome).as_bytes()))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", outcome.result_line());
    Ok(outcome.correct())
}

fn split_sides(args: &[String]) -> Result<(Vec<String>, Vec<String>), String> {
    let (mut a, mut b, mut side) = (Vec::new(), Vec::new(), None);
    for arg in args {
        match arg.as_str() {
            "--a" => side = Some(false),
            "--b" => side = Some(true),
            path => match side {
                Some(false) => a.push(path.to_string()),
                Some(true) => b.push(path.to_string()),
                None => return Err(format!("{path}: name a side with --a or --b first")),
            },
        }
    }
    if a.is_empty() || b.is_empty() {
        return Err("compare needs files on both sides".into());
    }
    Ok((a, b))
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest(RUN_SECONDS));
            Ok(true)
        }
        Some("compare") => {
            let (a, b) = split_sides(&args[1..])?;
            let (a, b) = (compare::ResultSet::load(&a)?, compare::ResultSet::load(&b)?);
            let (table, verdicts) = compare::compare(&a, &b);
            print!("{table}");
            for (side, set) in [("a", &a), ("b", &b)] {
                for problem in compare::digest_disagreements(&[set]) {
                    println!("side {side}: {problem}");
                }
            }
            Ok(!verdicts.iter().any(|v| {
                matches!(
                    v,
                    compare::Verdict::Regressed | compare::Verdict::Unresolved
                )
            }))
        }
        Some("selfcheck") => {
            let cli = parse_run(&args[1..])?;
            match compare::selfcheck(cli.run.seconds, cli.run.quick) {
                Ok(table) => {
                    print!("{table}");
                    println!("selfcheck: two sets of runs of this build agree");
                    Ok(true)
                }
                Err(report) => {
                    println!("{report}");
                    Ok(false)
                }
            }
        }
        _ => {
            let cli = parse_run(args)?;
            if cli.workload == "all" {
                run_all(&cli)
            } else {
                run_one(&cli)
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
