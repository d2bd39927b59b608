//! Live metrics export: Prometheus text exposition of the merged registry.
//!
//! A background thread periodically renders the merged view of a
//! [`Telemetry`] handle (parent plus every forked shard) in Prometheus
//! text exposition format (version 0.0.4) and writes it atomically to a
//! file, which a scraper can read.
//!
//! The exporter is read-only: it merges on demand and never touches the
//! record path, so workers keep writing into their own uncontended
//! shards while an export is in progress.

use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::{MetricsRegistry, Telemetry};

/// Where and how often the exporter publishes.
#[derive(Debug, Clone)]
pub struct ExporterConfig {
    /// File the exposition text is (atomically) rewritten to.
    pub path: PathBuf,
    /// Render period.
    pub period: Duration,
}

impl ExporterConfig {
    /// A file-only exporter with the given period.
    pub fn to_file(path: impl Into<PathBuf>, period: Duration) -> Self {
        ExporterConfig {
            path: path.into(),
            period,
        }
    }
}

/// Sanitizes a metric name into the Prometheus name alphabet
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): dots and other separators become
/// underscores.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Renders a gauge value; Prometheus accepts `NaN`/`+Inf`/`-Inf` spelled
/// exactly so.
fn render_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

/// Appends one registry in Prometheus text exposition format.
fn render_registry(out: &mut String, registry: &MetricsRegistry) {
    for (name, value) in registry.counters() {
        let name = sanitize(name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in registry.gauges() {
        let name = sanitize(name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", render_f64(value));
    }
    for (name, hist) in registry.histograms() {
        let name = sanitize(name);
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        // `le` is an inclusive upper bound: the bucket's largest sample.
        for (upper, count) in hist.bucket_upper_bounds() {
            cumulative += count;
            let _ = writeln!(out, "{name}_bucket{{le=\"{upper}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", hist.len());
        let _ = writeln!(out, "{name}_sum {}", hist.sum_nanos());
        let _ = writeln!(out, "{name}_count {}", hist.len());
    }
}

/// Renders the merged virtual-plane registry of `telemetry`, then its
/// merged wall-plane registry, in Prometheus text exposition format.
/// Disabled handles render empty.
pub fn render_prometheus(telemetry: &Telemetry) -> String {
    let mut out = String::new();
    let planes = [
        telemetry.merged_registry(),
        telemetry.merged_wall_registry(),
    ];
    for registry in planes.iter().flatten() {
        render_registry(&mut out, registry);
    }
    out
}

/// Writes `text` to `path` atomically (write a sibling temp file, rename
/// over), so a scraper of the file never reads a torn exposition.
fn write_atomically(path: &PathBuf, text: &str) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// Stops the exporter thread on drop, after one final render.
#[derive(Debug)]
pub struct ExporterHandle {
    shutdown: mpsc::Sender<()>,
    join: Option<JoinHandle<()>>,
}

impl Drop for ExporterHandle {
    fn drop(&mut self) {
        let _ = self.shutdown.send(());
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Spawns the exporter thread over (a clone of) `telemetry`.
///
/// The thread renders every `config.period` (and once more on shutdown)
/// and writes the file atomically.
pub fn spawn_exporter(telemetry: Telemetry, config: ExporterConfig) -> ExporterHandle {
    let (shutdown, rx) = mpsc::channel::<()>();
    let join = thread::Builder::new()
        .name("viyojit-exporter".to_string())
        .spawn(move || {
            let render = || {
                let _ = write_atomically(&config.path, &render_prometheus(&telemetry));
            };
            render();
            while let Err(RecvTimeoutError::Timeout) = rx.recv_timeout(config.period) {
                render();
            }
            // The final render, on shutdown.
            render();
        })
        .expect("failed to spawn exporter thread");
    ExporterHandle {
        shutdown,
        join: Some(join),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_clock::{Clock, SimDuration};

    #[test]
    fn render_covers_counters_gauges_and_histograms() {
        let clock = Clock::new();
        let telemetry = Telemetry::recording(clock.clone());
        telemetry.metrics(|m| {
            m.counter_add("viyojit.write_faults", 3);
            m.counter_set("viyojit.epochs", 2);
            m.gauge_set("sharded.shard0.dirty_pages", 4.0);
            m.histogram_record("viyojit.stall", SimDuration::from_nanos(100));
            m.histogram_record("viyojit.stall", SimDuration::from_nanos(100));
        });
        let shard = telemetry.fork_shard(clock);
        shard.metrics(|m| m.counter_add("viyojit.write_faults", 2));
        let wall = telemetry.wall_start();
        telemetry.record_wall("viyojit.wall.step_nanos", wall);
        telemetry.set_wall_counter("bitmap.dispatch.skip", 11);

        let text = render_prometheus(&telemetry);
        assert!(text.contains("# TYPE viyojit_write_faults counter\nviyojit_write_faults 5\n"));
        assert!(text.contains("# TYPE viyojit_epochs counter\nviyojit_epochs 2\n"));
        assert!(text
            .contains("# TYPE sharded_shard0_dirty_pages gauge\nsharded_shard0_dirty_pages 4\n"));
        assert!(text.contains("# TYPE viyojit_stall histogram"));
        assert!(text.contains("viyojit_stall_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("viyojit_stall_count 2"));
        assert!(text.contains("# TYPE bitmap_dispatch_skip counter\nbitmap_dispatch_skip 11\n"));
        assert!(text.contains("# TYPE viyojit_wall_step_nanos histogram"));
        assert!(text.contains("viyojit_wall_step_nanos_count 1"));
        assert!(render_prometheus(&Telemetry::disabled()).is_empty());
    }

    #[test]
    fn bucket_le_is_an_inclusive_upper_bound() {
        let telemetry = Telemetry::recording(Clock::new());
        telemetry.metrics(|m| {
            m.histogram_record("lat", SimDuration::from_nanos(17));
            m.histogram_record("lat", SimDuration::from_nanos(900));
        });
        let text = render_prometheus(&telemetry);
        let (le, _) = text
            .lines()
            .filter_map(|l| l.strip_prefix("lat_bucket{le=\"")?.split_once("\"} "))
            .find(|&(_, cumulative)| cumulative == "2")
            .expect("a bucket holding both samples");
        assert!(le.parse::<u64>().unwrap() >= 900, "le={le} excludes 900 ns");
    }

    #[test]
    fn exporter_thread_writes_and_stops() {
        let clock = Clock::new();
        let telemetry = Telemetry::recording(clock);
        telemetry.metrics(|m| m.counter_add("x.live", 1));
        let path =
            std::env::temp_dir().join(format!("viyojit-export-test-{}.prom", std::process::id()));
        let handle = spawn_exporter(
            telemetry.clone(),
            ExporterConfig::to_file(&path, Duration::from_millis(10)),
        );
        telemetry.metrics(|m| m.counter_add("x.live", 4));
        drop(handle);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("x_live 5"), "final render missing: {text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sanitize_maps_dots_to_underscores() {
        assert_eq!(sanitize("viyojit.dirty_pages"), "viyojit_dirty_pages");
        assert_eq!(sanitize("sharded.tenant0.stall"), "sharded_tenant0_stall");
        assert_eq!(sanitize("9bad"), "_bad");
    }
}
