//! Result files, `compare` and `selfcheck`.
//!
//! A result file is JSON Lines: a `run` record per run and a `metric`
//! record per value, appended by `--out`, so that one file holds a set of
//! runs. The records are flat and written by this program only, which is
//! why a field scanner is all the parsing they need.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

use crate::metrics::{self, Better, Outcome};
use crate::stats::{median, quartiles};
use crate::workload;

#[derive(Debug, Clone)]
pub struct RunMeta {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
}

/// The records of one run, ready to append to a result file.
pub fn records(meta: &RunMeta, outcome: &Outcome) -> String {
    let env = |name: &str| std::env::var(name).unwrap_or_else(|_| "unknown".into());
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"record\":\"run\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"quick\":{},\"comparable\":{},\"host_cores\":{host_cores},\"rustc\":\"{}\",\
         \"git_rev\":\"{}\",\"correct\":{},\"attempted\":{},\"failed\":{},\"virt_digest\":\"{}\"}}",
        meta.workload,
        meta.seed,
        meta.seconds,
        u8::from(meta.trace),
        meta.quick,
        !meta.quick,
        env("BENCH_RUSTC").replace(['"', '\\'], ""),
        env("BENCH_GIT_REV").replace(['"', '\\'], ""),
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        outcome.virt_digest,
    );
    for def in outcome.defs() {
        let _ = writeln!(
            out,
            "{{\"record\":\"metric\",\"workload\":\"{}\",\"seed\":{},\"name\":\"{}\",\
             \"value\":{},\"unit\":\"{}\"}}",
            meta.workload,
            meta.seed,
            def.name,
            metrics::json_number(outcome.value(def)),
            def.unit
        );
    }
    out
}

/// The raw text of `"key":<value>` in a flat record, unquoted.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let rest = &line[line.find(&tag)? + tag.len()..];
    match rest.strip_prefix('"') {
        Some(quoted) => quoted.split('"').next(),
        None => rest.split([',', '}']).next(),
    }
}

/// One side of a comparison: values by `(metric, workload)`, and digests
/// by `(workload, seed, seconds)`.
#[derive(Debug, Default)]
pub struct ResultSet {
    pub values: BTreeMap<(String, String), Vec<f64>>,
    pub digests: BTreeMap<(String, String, String), Vec<String>>,
    pub non_comparable: usize,
}

impl ResultSet {
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut set = ResultSet::default();
        for (number, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let need = |key: &str| {
                field(line, key)
                    .map(str::to_string)
                    .ok_or_else(|| format!("line {}: no \"{key}\" field", number + 1))
            };
            match need("record")?.as_str() {
                "run" => {
                    if need("comparable")? != "true" {
                        set.non_comparable += 1;
                    }
                    if need("trace")? == "0" {
                        set.digests
                            .entry((need("workload")?, need("seed")?, need("seconds")?))
                            .or_default()
                            .push(need("virt_digest")?);
                    }
                }
                "metric" => {
                    let value: f64 = need("value")?
                        .parse()
                        .map_err(|e| format!("line {}: {e}", number + 1))?;
                    set.values
                        .entry((need("name")?, need("workload")?))
                        .or_default()
                        .push(value);
                }
                other => return Err(format!("line {}: unknown record {other}", number + 1)),
            }
        }
        Ok(set)
    }

    pub fn load(paths: &[String]) -> Result<Self, String> {
        let mut text = String::new();
        for path in paths {
            text.push_str(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?);
            text.push('\n');
        }
        Self::parse(&text)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// A side's own runs spread wider than the bound, and the sides overlap.
    Unresolved,
    /// Per-layer metrics carry no bound; they are shown, not judged.
    Shown,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Shown => "-",
        }
    }
}

fn three(values: &[f64]) -> [f64; 3] {
    if values.len() >= 2 {
        quartiles(values)
    } else {
        [values[0]; 3]
    }
}

/// Judges side `b` against side `a` (the parent). Returns the verdict and
/// how much worse `b`'s median is, as a share of `a`'s (negative: better).
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: Option<f64>) -> (Verdict, f64) {
    let ([a1, a2, a3], [b1, b2, b3]) = (three(a), three(b));
    let worse_by = match (better, a2 == 0.0) {
        (_, true) => 0.0,
        (Better::Lower, false) => (b2 - a2) / a2.abs(),
        (Better::Higher, false) => (a2 - b2) / a2.abs(),
    };
    let Some(bound) = bound else {
        return (Verdict::Shown, worse_by);
    };
    let spread = |q1: f64, q2: f64, q3: f64| if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2.abs() };
    if spread(a1, a2, a3).max(spread(b1, b2, b3)) > bound {
        // Too noisy to call, unless the sides do not overlap at all.
        let ((a_lo, a_hi), (b_lo, b_hi)) = (min_max(a), min_max(b));
        let b_all_better = match better {
            Better::Lower => b_hi < a_lo,
            Better::Higher => b_lo > a_hi,
        };
        let b_all_worse = match better {
            Better::Lower => b_lo > a_hi,
            Better::Higher => b_hi < a_lo,
        };
        return match (b_all_better, b_all_worse) {
            (true, _) => (Verdict::Improved, worse_by),
            (_, true) => (Verdict::Regressed, worse_by),
            _ => (Verdict::Unresolved, worse_by),
        };
    }
    let verdict = if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (verdict, worse_by)
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// The comparison table, and the verdicts of the end-to-end rows.
pub fn compare(a: &ResultSet, b: &ResultSet) -> (String, Vec<Verdict>) {
    let mut out = String::new();
    let mut verdicts = Vec::new();
    let _ = writeln!(
        out,
        "{:<34} {:<14} {:>14} {:>14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "metric", "workload", "a median", "a q1..q3", "b median", "b q1..q3", "worse by", "bound"
    );
    for def in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
        for w in workload::all() {
            let key = (def.name.to_string(), w.name.to_string());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let (verdict, worse_by) = judge(va, vb, def.better, def.bound);
            if verdict != Verdict::Shown {
                verdicts.push(verdict);
            }
            let range = |v: &[f64]| {
                let [q1, _, q3] = three(v);
                format!("{q1:.4}..{q3:.4}")
            };
            let _ = writeln!(
                out,
                "{:<34} {:<14} {:>14.5} {:>14} {:>14.5} {:>14} {:>8.2}% {:>7}  {}",
                def.name,
                w.name,
                median(va),
                range(va),
                median(vb),
                range(vb),
                100.0 * worse_by,
                def.bound
                    .map_or("-".to_string(), |b| format!("{:.1}%", 100.0 * b)),
                verdict.name()
            );
        }
    }
    if a.non_comparable + b.non_comparable > 0 {
        let _ = writeln!(
            out,
            "warning: --quick runs are in these sets; they are not comparable"
        );
    }
    (out, verdicts)
}

/// Simulated statistics must repeat exactly: every run of a `(workload,
/// seed, seconds)` has one digest, and `shard_par`'s is `shard_seq`'s.
pub fn digest_disagreements(sets: &[&ResultSet]) -> Vec<String> {
    let mut all: BTreeMap<&(String, String, String), Vec<&String>> = BTreeMap::new();
    for set in sets {
        for (key, digests) in &set.digests {
            all.entry(key).or_default().extend(digests);
        }
    }
    let mut problems = Vec::new();
    for (key, digests) in &all {
        if digests.iter().any(|d| d != &digests[0]) {
            problems.push(format!("{key:?}: digests differ between runs: {digests:?}"));
        }
        if key.0 == "shard_par" {
            let twin = ("shard_seq".to_string(), key.1.clone(), key.2.clone());
            if let Some(seq) = all.get(&twin) {
                if seq[0] != digests[0] {
                    problems.push(format!(
                        "{key:?}: shard_par {} ≠ shard_seq {}",
                        digests[0], seq[0]
                    ));
                }
            }
        }
    }
    problems
}

/// Two sets of three end-to-end runs of this build, every workload, the
/// same three seeds on both sides; fails if any pair disagrees.
pub fn selfcheck(seconds: u64, quick: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut sets = Vec::new();
    for side in ["a", "b"] {
        let path = dir.join(format!("selfcheck-{side}.jsonl"));
        let _ = std::fs::remove_file(&path);
        for w in workload::all() {
            for seed in [42u64, 43, 44] {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", w.name, "--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                    .arg("--out")
                    .arg(&path);
                if quick {
                    cmd.arg("--quick");
                }
                let done = cmd.output().map_err(|e| e.to_string())?;
                if !done.status.success() {
                    return Err(format!(
                        "{} seed {seed} failed:\n{}",
                        w.name,
                        String::from_utf8_lossy(&done.stderr)
                    ));
                }
                eprintln!("selfcheck: set {side}, {}, seed {seed} done", w.name);
            }
        }
        sets.push(ResultSet::load(&[path.display().to_string()])?);
    }
    let (table, verdicts) = compare(&sets[0], &sets[1]);
    let mut problems = digest_disagreements(&[&sets[0], &sets[1]]);
    let disagreeing = verdicts
        .iter()
        .filter(|&&v| v != Verdict::Unchanged)
        .count();
    if disagreeing > 0 {
        problems.push(format!(
            "{disagreeing} end-to-end pairs are not `unchanged`"
        ));
    }
    if problems.is_empty() {
        Ok(table)
    } else {
        Err(format!("{table}\n{}", problems.join("\n")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Values;

    fn outcome(setup_s: f64) -> Outcome {
        let mut values = Values::default();
        for d in metrics::END_TO_END {
            values.set(d.name, 2.0);
        }
        values.set("setup_s", setup_s);
        Outcome {
            traced: false,
            attempted: 5,
            failed: 0,
            values,
            virt_digest: "00ff".into(),
            notes: Vec::new(),
        }
    }

    fn meta(workload: &str, quick: bool) -> RunMeta {
        RunMeta {
            workload: workload.into(),
            seed: 42,
            seconds: 10,
            trace: false,
            quick,
        }
    }

    #[test]
    fn records_round_trip_through_the_scanner() {
        let mut text = records(&meta("kv_churn", false), &outcome(1.0));
        text.push_str(&records(&meta("kv_churn", true), &outcome(3.0)));
        assert!(text.contains("\"host_cores\":"));
        assert!(text.contains("\"rustc\":\"") && text.contains("\"git_rev\":\""));
        let set = ResultSet::parse(&text).unwrap();
        assert_eq!(set.non_comparable, 1, "--quick runs are marked");
        let key = ("setup_s".to_string(), "kv_churn".to_string());
        assert_eq!(set.values[&key], [1.0, 3.0]);
        let digests = &set.digests[&("kv_churn".to_string(), "42".to_string(), "10".to_string())];
        assert_eq!(digests, &["00ff", "00ff"]);
        assert!(ResultSet::parse("{\"record\":\"metric\",\"name\":\"x\"}").is_err());
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let lower = |a: &[f64], b: &[f64]| judge(a, b, Better::Lower, Some(0.10)).0;
        assert_eq!(
            lower(&[10.0, 10.1, 10.2], &[10.3, 10.4, 10.5]),
            Verdict::Unchanged
        );
        assert_eq!(
            lower(&[10.0, 10.1, 10.2], &[11.5, 11.6, 11.7]),
            Verdict::Regressed
        );
        assert_eq!(
            lower(&[10.0, 10.1, 10.2], &[8.0, 8.1, 8.2]),
            Verdict::Improved
        );
        // A side spreading wider than the bound cannot be called…
        assert_eq!(
            lower(&[8.0, 10.0, 12.0], &[9.0, 10.5, 12.5]),
            Verdict::Unresolved
        );
        // …unless every run of one side beats every run of the other.
        assert_eq!(
            lower(&[8.0, 10.0, 12.0], &[5.0, 6.0, 7.0]),
            Verdict::Improved
        );
        assert_eq!(
            lower(&[8.0, 10.0, 12.0], &[13.0, 15.0, 17.0]),
            Verdict::Regressed
        );
        let higher = judge(
            &[100.0, 101.0, 102.0],
            &[80.0, 81.0, 82.0],
            Better::Higher,
            Some(0.10),
        );
        assert_eq!(higher.0, Verdict::Regressed);
        assert!((higher.1 - 20.0 / 101.0).abs() < 1e-12);
        assert_eq!(judge(&[1.0], &[5.0], Better::Lower, None).0, Verdict::Shown);
    }

    #[test]
    fn digests_must_repeat_and_the_shard_modes_must_agree() {
        let run = |workload: &str, digest: &str| {
            let mut o = outcome(1.0);
            o.virt_digest = digest.into();
            records(&meta(workload, false), &o)
        };
        let same = ResultSet::parse(&(run("shard_seq", "aa") + &run("shard_par", "aa"))).unwrap();
        assert!(digest_disagreements(&[&same, &same]).is_empty());
        // One run of shard_seq drifts: its runs now differ among themselves.
        let drifted = ResultSet::parse(&run("shard_seq", "ab")).unwrap();
        assert_eq!(digest_disagreements(&[&same, &drifted]).len(), 1);
        // The modes disagree with each other, each repeating exactly.
        let apart = ResultSet::parse(&(run("shard_seq", "aa") + &run("shard_par", "bb"))).unwrap();
        let problems = digest_disagreements(&[&apart]);
        assert_eq!(problems.len(), 1);
        assert!(
            problems[0].contains("shard_par bb ≠ shard_seq aa"),
            "{problems:?}"
        );
    }

    #[test]
    fn the_table_names_every_compared_pair() {
        let a = ResultSet::parse(&records(&meta("kv_churn", false), &outcome(1.0))).unwrap();
        let b = ResultSet::parse(&records(&meta("kv_churn", false), &outcome(2.0))).unwrap();
        let (table, verdicts) = compare(&a, &b);
        assert_eq!(verdicts.len(), metrics::END_TO_END.len());
        assert_eq!(
            verdicts
                .iter()
                .filter(|&&v| v == Verdict::Regressed)
                .count(),
            1
        );
        let row = table.lines().find(|l| l.starts_with("setup_s")).unwrap();
        assert!(row.contains("kv_churn") && row.contains("100.00%") && row.ends_with("regressed"));
    }
}
