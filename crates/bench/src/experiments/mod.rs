//! The evaluation as one table: every experiment `viyojit-bench` runs, the
//! golden under `results/` it reproduces, and the shared options it reads.
//!
//! ```text
//! viyojit-bench <experiment> [--seed N] [--quick] [--check [FILE]] [--out PATH]
//! viyojit-bench list
//! ```
//!
//! One process runs one experiment: the panic hooks some experiments
//! install, the profile capture's run counter and the `mem_sim::dispatch`
//! totals are all per process.

use std::path::PathBuf;
use std::process::ExitCode;

use battery_sim::{Battery, BatteryConfig, PowerModel};
use mem_sim::PAGE_SIZE;
use ssd_sim::SsdConfig;
use viyojit::CrashSignal;

mod ablation_codec;
mod ablation_mmu;
mod ablation_pressure;
mod ablation_tlb;
mod ballooning;
mod battery_fluctuation;
mod crash_torture;
mod fault_storm;
mod fig1;
mod fig10;
mod fig2;
mod fig3;
mod fig4;
mod fig5;
mod fig7;
mod fig8;
mod fig9;
mod fs_replay;
mod observability_smoke;
mod shard_scaling;
mod shard_wallclock;
mod shutdown_time;
mod tenant_storm;
mod trace_replay;
mod wallclock;
mod ycsb_e;

/// One row of the table.
struct Experiment {
    /// The command word, `RunMeta.bench` and the `VIYOJIT_PROFILE` stem.
    name: &'static str,
    /// The `results/` file that holds the experiment's stdout, and the
    /// arguments `scripts/regression_gate.sh` reproduces it with.
    golden: Option<(&'static str, &'static [&'static str])>,
    /// The shared options it reads; the parser refuses every other one.
    options: &'static [Opt],
    run: fn(&Args),
}

/// A shared option a row reads; `CheckFile` is `--check FILE`.
#[derive(Clone, Copy)]
enum Opt {
    Seed,
    Quick,
    Check,
    CheckFile,
    Out,
}

impl Opt {
    fn flag(self) -> &'static str {
        match self {
            Opt::Seed => "--seed",
            Opt::Quick => "--quick",
            Opt::Check | Opt::CheckFile => "--check",
            Opt::Out => "--out",
        }
    }
}

#[rustfmt::skip]
const fn exp(name: &'static str, golden: Option<(&'static str, &'static [&'static str])>, options: &'static [Opt], run: fn(&Args)) -> Experiment {
    Experiment { name, golden, options, run }
}

/// Longest first, so the gate's one-run-per-core schedule ends together:
/// fig7-10, ycsb_e and trace_replay take 15-20 s each, the rest seconds.
#[rustfmt::skip]
const EXPERIMENTS: &[Experiment] = &[
    exp("fig7", Some(("fig7.csv", &[])), &[], fig7::run),
    exp("fig8", Some(("fig8.csv", &[])), &[], fig8::run),
    exp("fig9", Some(("fig9.csv", &[])), &[], fig9::run),
    exp("fig10", Some(("fig10.csv", &[])), &[], fig10::run),
    exp("ycsb_e", Some(("ycsb_e.csv", &[])), &[], ycsb_e::run),
    exp("trace_replay", Some(("trace_replay.csv", &[])), &[], trace_replay::run),
    exp("fs_replay", Some(("fs_replay.csv", &[])), &[], fs_replay::run),
    exp("fig1", Some(("fig1.csv", &[])), &[], fig1::run),
    exp("fig2", Some(("fig2.csv", &[])), &[], fig2::run),
    exp("fig3", Some(("fig3.csv", &[])), &[], fig3::run),
    exp("fig4", Some(("fig4.csv", &[])), &[], fig4::run),
    exp("fig5", Some(("fig5.csv", &[])), &[], fig5::run),
    exp("ablation_tlb", Some(("ablation_tlb.csv", &[])), &[], ablation_tlb::run),
    exp("ablation_pressure", Some(("ablation_pressure.csv", &[])), &[], ablation_pressure::run),
    exp("ablation_mmu", Some(("ablation_mmu.csv", &[])), &[], ablation_mmu::run),
    exp("ablation_codec", Some(("ablation_codec.csv", &[])), &[], ablation_codec::run),
    exp("ballooning", Some(("ballooning.csv", &[])), &[], ballooning::run),
    exp("battery_fluctuation", Some(("battery_fluctuation.csv", &[])), &[], battery_fluctuation::run),
    exp("shutdown_time", Some(("shutdown_time.csv", &[])), &[], shutdown_time::run),
    exp("fault_storm", Some(("fault_storm_5.csv", &["--quick"])), &[Opt::Quick], fault_storm::run),
    exp("shard_scaling", Some(("shard_scaling.csv", &[])), &[], shard_scaling::run),
    exp("tenant_storm", Some(("tenant_storm.csv", &["--seed", "42", "--check"])), &[Opt::Seed, Opt::Check], tenant_storm::run),
    exp("battery_fluctuation_mmu", None, &[], battery_fluctuation::run_mmu),
    exp("battery_fluctuation_capacity_drop", None, &[], battery_fluctuation::run_capacity_drop),
    exp("crash_torture", None, &[Opt::Quick], crash_torture::run),
    exp("observability_smoke", None, &[Opt::Out], observability_smoke::run),
    exp("wallclock", None, &[Opt::Quick, Opt::Out, Opt::CheckFile], wallclock::run),
    exp("shard_wallclock", None, &[Opt::Quick, Opt::Out, Opt::CheckFile], shard_wallclock::run),
];

/// The four options every experiment shares, as [`Opt`] spells them.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Args {
    pub(crate) seed: Option<u64>,
    /// The small configuration CI and the goldens run.
    pub(crate) quick: bool,
    /// Assert the experiment's contract, exiting non-zero on a violation.
    pub(crate) check: bool,
    /// The FILE of `--check FILE`: the committed artifact to compare with.
    pub(crate) committed: Option<PathBuf>,
    /// Where the experiment leaves its artifact.
    pub(crate) out: Option<PathBuf>,
}

impl Experiment {
    fn parse(&self, mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args::default();
        while let Some(flag) = argv.next() {
            let opt = self
                .options
                .iter()
                .find(|o| o.flag() == flag)
                .ok_or_else(|| format!("{} does not take {flag}", self.name))?;
            let mut arg = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
            match opt {
                Opt::Seed => args.seed = Some(arg()?.parse().map_err(|e| format!("--seed: {e}"))?),
                Opt::Quick => args.quick = true,
                Opt::Check => args.check = true,
                Opt::CheckFile => {
                    args.check = true;
                    args.committed = Some(arg()?.into());
                }
                Opt::Out => args.out = Some(arg()?.into()),
            }
        }
        Ok(args)
    }
}

/// A battery that can deliver all of `margin` times the energy the §5.1
/// rule provisions for flushing `pages` dirty pages: a datacenter SSD
/// draining under a datacenter server's power draw.
fn margin_battery(pages: u64, margin: f64) -> Battery {
    let flush = SsdConfig::datacenter().drain_time(pages * PAGE_SIZE as u64);
    let needed = flush.as_secs_f64() * PowerModel::datacenter_server(0.064).total_watts();
    Battery::new(BatteryConfig::with_capacity_joules(needed * margin).with_depth_of_discharge(1.0))
}

/// Leaves the default panic hook, and its backtrace, to genuine failures:
/// an injected crash unwinds with a `CrashSignal` that is always caught.
fn quiet_injected_crashes() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<CrashSignal>().is_none() {
            default_hook(info);
        }
    }));
}

/// Runs the experiment `std::env::args()` names; `list` prints one line
/// per experiment, its name and then its golden, for the regression gate.
pub fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let word = argv.next().unwrap_or_default();
    if word == "list" {
        for e in EXPERIMENTS {
            let (csv, args) = e.golden.unwrap_or_default();
            let words = [&[e.name, csv][..], args].concat();
            println!("{}", words.join(" ").trim_end());
        }
        return ExitCode::SUCCESS;
    }
    let parsed = match EXPERIMENTS.iter().find(|e| e.name == word) {
        Some(experiment) => experiment.parse(argv).map(|args| (experiment, args)),
        None if word.is_empty() => Err("name an experiment".to_string()),
        None => Err(format!("no experiment is named '{word}'")),
    };
    match parsed {
        Ok((experiment, args)) => {
            crate::profile::name_the_process(experiment.name);
            (experiment.run)(&args);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!(
                "{e}\nusage: viyojit-bench <experiment> [--seed N] [--quick] [--check [FILE]] [--out PATH]\n\
                 \x20      viyojit-bench list    (names every experiment)"
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn argv(words: &str) -> impl Iterator<Item = String> + '_ {
        words.split_whitespace().map(String::from)
    }

    fn named(name: &str) -> &'static Experiment {
        EXPERIMENTS.iter().find(|e| e.name == name).unwrap()
    }

    #[test]
    fn the_table_and_results_name_the_same_goldens_once_each() {
        let names: BTreeSet<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), EXPERIMENTS.len(), "an experiment name repeats");

        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let mut committed: Vec<String> = std::fs::read_dir(results)
            .expect("results/ is readable")
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .filter(|file| file.ends_with(".csv"))
            .collect();
        committed.sort();
        let mut in_table: Vec<String> = EXPERIMENTS
            .iter()
            .filter_map(|e| e.golden)
            .map(|(csv, _)| csv.to_string())
            .collect();
        in_table.sort();
        assert_eq!(
            in_table, committed,
            "the table's goldens against results/*.csv"
        );
    }

    #[test]
    fn the_parser_refuses_what_a_row_does_not_read() {
        assert_eq!(named("fig7").parse(argv("")), Ok(Args::default()));
        assert_eq!(
            named("fig7").parse(argv("--quick")),
            Err("fig7 does not take --quick".to_string())
        );
        assert_eq!(
            named("tenant_storm").parse(argv("--seed 7 --check")),
            Ok(Args {
                seed: Some(7),
                check: true,
                ..Args::default()
            })
        );
        assert!(named("tenant_storm").parse(argv("--seed x")).is_err());
        assert!(named("wallclock").parse(argv("FILE")).is_err());
        assert_eq!(
            named("wallclock").parse(argv("--check")),
            Err("--check needs a value".to_string())
        );
        assert_eq!(
            named("wallclock").parse(argv("--quick --check BENCH.json --out ci.json")),
            Ok(Args {
                quick: true,
                check: true,
                committed: Some("BENCH.json".into()),
                out: Some("ci.json".into()),
                ..Args::default()
            })
        );
    }
}
