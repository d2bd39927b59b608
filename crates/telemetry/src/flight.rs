//! The flight recorder: black-box postmortem dumps.
//!
//! Every supervised crash seam — a worker panic (including injected
//! `CrashSignal`s), a `RoundTimeout`, the degradation governor entering
//! degraded mode — dumps the crashing thread's recent trace window as
//! `postmortem-<label>.jsonl` so a survived crash always leaves
//! evidence. A dump is:
//!
//! 1. the run-identity `meta` record ([`RunMeta`]), so `viyojit-trace`
//!    can refuse to read mismatched dumps;
//! 2. a `postmortem` record naming the dumping thread, the trigger, and
//!    the last budget round the thread saw;
//! 3. the thread's retained trace events ([`Telemetry::local_events`] —
//!    per-thread, so the dump is deterministic under the `FAULT_SEED`
//!    contract even while sibling threads are mid-flight);
//! 4. a final registry snapshot ([`Telemetry::peek_snapshot`], which
//!    never perturbs later real snapshot deltas) carrying the thread's
//!    dirty/budget gauges and counters at the moment of the dump.
//!
//! Everything in the dump is virtual-time data; the wall-plane registry
//! is deliberately excluded so dumps are byte-comparable across runs.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::profile::RunMeta;
use crate::sink::{push_json_escaped, JsonlSink, Sink};
use crate::Telemetry;

/// Writes `postmortem-<label>.jsonl` black boxes into one directory.
///
/// Cheap to clone behind an `Arc`; each dump is a whole-file write, and
/// a re-dump under the same label overwrites (the black box keeps the
/// most recent crash).
#[derive(Debug)]
pub struct FlightRecorder {
    dir: PathBuf,
    meta: RunMeta,
}

impl FlightRecorder {
    /// Creates the recorder, creating `dir` (and parents) if needed.
    ///
    /// # Errors
    ///
    /// Propagates the `create_dir_all` failure.
    pub fn new(dir: impl Into<PathBuf>, meta: RunMeta) -> io::Result<FlightRecorder> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(FlightRecorder { dir, meta })
    }

    /// The directory dumps are written into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The path a dump under `label` is written to.
    pub fn dump_path(&self, label: &str) -> PathBuf {
        self.dir.join(format!("postmortem-{label}.jsonl"))
    }

    /// Dumps the black box for `label` (e.g. `worker0`, `control`).
    ///
    /// `trigger` is a stable lowercase cause: `panic`,
    /// `crash_signal:<seam>`, `round_timeout`, or `degraded_mode`.
    /// `telemetry` should be the dumping thread's own handle; only its
    /// local ring and registry are captured.
    ///
    /// # Errors
    ///
    /// Propagates the file write failure.
    pub fn dump(
        &self,
        label: &str,
        trigger: &str,
        last_round: u64,
        telemetry: &Telemetry,
    ) -> io::Result<PathBuf> {
        let mut buf = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut buf);
            sink.meta(&self.meta);
        }
        let mut record = String::from("{\"type\":\"postmortem\",\"label\":\"");
        push_json_escaped(&mut record, label);
        record.push_str("\",\"trigger\":\"");
        push_json_escaped(&mut record, trigger);
        let _ = write!(record, "\",\"last_round\":{last_round}}}");
        record.push('\n');
        buf.extend_from_slice(record.as_bytes());
        {
            let mut sink = JsonlSink::new(&mut buf);
            for event in telemetry.local_events() {
                sink.event(&event);
            }
            if let Some(snap) = telemetry.peek_snapshot(last_round) {
                sink.snapshot(&snap);
            }
        }
        let path = self.dump_path(label);
        fs::write(&path, buf)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceEvent;
    use sim_clock::{Clock, SimDuration};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("viyojit-flight-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn dump_writes_meta_postmortem_events_and_snapshot() {
        let dir = temp_dir("basic");
        let meta = RunMeta::new("test", "Viyojit", "cfg", Some(7));
        let flight = FlightRecorder::new(&dir, meta).unwrap();
        let clock = Clock::new();
        let telemetry = Telemetry::recording(clock.clone());
        clock.advance(SimDuration::from_nanos(10));
        telemetry.emit(|| TraceEvent::WriteFault { page: 3 });
        telemetry.metrics(|m| m.counter_add("faults", 1));
        telemetry.metrics(|m| m.gauge_set("viyojit.dirty_pages", 2.0));

        let path = flight
            .dump("worker0", "crash_signal:budget_round", 5, &telemetry)
            .unwrap();
        assert_eq!(path, dir.join("postmortem-worker0.jsonl"));
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("{\"type\":\"meta\""));
        assert_eq!(
            lines[1],
            "{\"type\":\"postmortem\",\"label\":\"worker0\",\
             \"trigger\":\"crash_signal:budget_round\",\"last_round\":5}"
        );
        assert!(lines[2].contains("\"kind\":\"write_fault\""));
        assert!(lines[3].starts_with("{\"type\":\"snapshot\",\"epoch\":5"));
        assert!(lines[3].contains("\"faults\":{\"delta\":1,\"total\":1}"));
        assert!(lines[3].contains("\"viyojit.dirty_pages\":2"));

        // A dump must not perturb later real snapshot deltas.
        telemetry.snapshot_epoch(0);
        let snaps = telemetry.snapshots();
        assert_eq!(snaps[0].counter("faults").unwrap().delta, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn redump_overwrites_and_dumps_are_reproducible() {
        let dir = temp_dir("redump");
        let meta = RunMeta::new("test", "Viyojit", "cfg", None);
        let flight = FlightRecorder::new(&dir, meta).unwrap();
        let make = || {
            let clock = Clock::new();
            let t = Telemetry::recording(clock.clone());
            clock.advance(SimDuration::from_nanos(4));
            t.emit(|| TraceEvent::PageLost { page: 9 });
            t
        };
        flight.dump("w", "panic", 1, &make()).unwrap();
        let first = fs::read(flight.dump_path("w")).unwrap();
        flight.dump("w", "panic", 1, &make()).unwrap();
        let second = fs::read(flight.dump_path("w")).unwrap();
        assert_eq!(first, second);
        let _ = fs::remove_dir_all(&dir);
    }
}
