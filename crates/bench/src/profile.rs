//! Env-gated profiling capture for the experiments.
//!
//! Setting `VIYOJIT_PROFILE=<dir>` makes an instrumented run write, per
//! experiment, a JSONL trace (`<dir>/<bench>-<n>-<label>.jsonl`: the
//! run-metadata header, the event stream and epoch snapshots, then the
//! profiler's attribution records) and a matching `.folded` flamegraph
//! input (`inferno` / `flamegraph.pl` compatible). With the variable
//! unset, [`ProfileCapture::from_env`] returns `None` before constructing
//! anything — no telemetry handle, no profiler, no files — so default
//! bench output stays byte-identical.

use std::fs::{self, File};
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use sim_clock::Clock;
use telemetry::{JsonlSink, Profiler, RunMeta, Sink, Telemetry};
use viyojit::NvStore;

/// The environment variable naming the capture output directory.
const PROFILE_ENV: &str = "VIYOJIT_PROFILE";

/// Per-process run counter, so sweeps that repeat a configuration still
/// get distinct trace files.
static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The experiment this process runs: the `bench` of every trace header
/// and the stem of every trace file.
static EXPERIMENT: OnceLock<&'static str> = OnceLock::new();

/// Names the process's experiment, once, before it runs.
pub(crate) fn name_the_process(experiment: &'static str) {
    EXPERIMENT
        .set(experiment)
        .expect("one process runs one experiment");
}

/// One experiment's worth of capture state: a recording telemetry handle
/// and an enabled profiler over the experiment's clock, plus the output
/// paths and identity header for [`ProfileCapture::finish`].
#[derive(Debug)]
pub(crate) struct ProfileCapture {
    stem: PathBuf,
    meta: RunMeta,
    telemetry: Telemetry,
    profiler: Profiler,
}

impl ProfileCapture {
    /// Builds a capture when `VIYOJIT_PROFILE` is set, creating the
    /// output directory if needed; `None` (and no construction at all)
    /// otherwise. The trace is named for the process's experiment
    /// (`bench` when none was named: a test or another library caller).
    ///
    /// `label` distinguishes runs within one experiment's sweep;
    /// `config_text` is any stable rendering of the run's configuration
    /// (hashed into the header so `viyojit-trace diff` can refuse
    /// incomparable traces); `fault_seed` is the fault-injection seed,
    /// when the run injects faults.
    pub(crate) fn from_env(
        label: &str,
        backend: &str,
        config_text: &str,
        fault_seed: Option<u64>,
        clock: &Clock,
    ) -> Option<ProfileCapture> {
        let dir = PathBuf::from(std::env::var_os(PROFILE_ENV)?);
        fs::create_dir_all(&dir).expect("VIYOJIT_PROFILE directory must be creatable");
        let bench = EXPERIMENT.get().copied().unwrap_or("bench");
        let n = RUN_COUNTER.fetch_add(1, Ordering::Relaxed);
        Some(ProfileCapture {
            stem: dir.join(format!("{bench}-{n:03}-{label}")),
            meta: RunMeta::new(bench, backend, config_text, fault_seed),
            telemetry: Telemetry::recording(clock.clone()),
            profiler: Profiler::enabled(clock.clone()),
        })
    }

    /// Attaches the recording telemetry and the profiler to a store.
    pub(crate) fn attach<H: NvStore>(&self, nv: &mut H) {
        nv.attach_telemetry(self.telemetry.clone());
        nv.attach_profiler(self.profiler.clone());
    }

    /// Writes the JSONL trace and the `.folded` flamegraph input,
    /// returning the trace path.
    pub(crate) fn finish(self) -> PathBuf {
        let report = self
            .profiler
            .report()
            .expect("capture profilers are always enabled");
        // Labels may contain dots (fault rates), so append the suffix
        // rather than letting `with_extension` truncate at the first one.
        let jsonl = path_with_suffix(&self.stem, "jsonl");
        let file = File::create(&jsonl).expect("profile trace must be writable");
        let mut sink = JsonlSink::new(BufWriter::new(file));
        sink.meta(&self.meta);
        self.telemetry.drain_into(&mut sink);
        // The host-side bitmap scan total rides along as a note (wall
        // plane, not the event stream) so `viyojit-trace summary` shows
        // how many scans production ran.
        sink.note(&format!(
            "bitmap scans: {}",
            mem_sim::dispatch::snapshot().skip
        ));
        sink.profile(&report);
        use std::io::Write;
        sink.into_inner()
            .flush()
            .expect("profile trace must be flushable");
        report
            .write_folded(
                File::create(path_with_suffix(&self.stem, "folded")).expect("folded output"),
            )
            .expect("folded output must be writable");
        jsonl
    }
}

fn path_with_suffix(stem: &Path, suffix: &str) -> PathBuf {
    let mut name = stem.as_os_str().to_os_string();
    name.push(".");
    name.push(suffix);
    PathBuf::from(name)
}
