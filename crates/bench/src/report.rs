//! The JSON artifacts of the host-time experiments (`BENCH_*.json`):
//! their run identity, their output, and the one value a `--check` reads
//! back from the committed copy. Every other experiment reports through
//! `telemetry::Report`.

use crate::experiments::Args;

/// Prints the fresh artifact, writes it to `--out` if one is given, and
/// returns the committed artifact `--check FILE` names, if any.
pub(crate) fn publish(json: &str, args: &Args) -> Option<String> {
    print!("{json}");
    if let Some(path) = &args.out {
        std::fs::write(path, json).expect("write artifact");
        eprintln!("wrote {}", path.display());
    }
    let path = args.committed.as_ref()?;
    Some(
        std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read committed artifact {}: {e}", path.display())),
    )
}

/// Pulls `key`'s number out of the first line of `artifact` that carries
/// every one of `tags`. The artifacts are our own line-per-cell format,
/// so a line scan is sufficient — no JSON parser needed.
pub(crate) fn cell_value(artifact: &str, tags: &[String], key: &str) -> Option<f64> {
    let line = artifact
        .lines()
        .find(|line| tags.iter().all(|tag| line.contains(tag.as_str())))?;
    let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let end = rest
        .find(|c: char| c != ' ' && c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Renders a [`RunMeta`](telemetry::RunMeta) as an inline JSON object
/// for the crate's hand-rolled JSON artifacts (`BENCH_*.json`), carrying
/// the same run identity the JSONL trace path writes as its `meta`
/// record: writer version, bench name, backend label, config hash, and
/// the fault seed (or `null`).
pub(crate) fn meta_json(meta: &telemetry::RunMeta) -> String {
    let seed = meta
        .fault_seed
        .map_or_else(|| "null".to_string(), |s| s.to_string());
    format!(
        "{{\"version\": \"{}\", \"bench\": \"{}\", \"backend\": \"{}\", \
         \"config_hash\": \"{:016x}\", \"fault_seed\": {seed}}}",
        meta.version, meta.bench, meta.backend, meta.config_hash
    )
}

#[cfg(test)]
mod tests {
    use telemetry::{CsvSink, Report};

    #[test]
    fn stdout_report_builds() {
        // Smoke test: the stdout constructor wires a CSV sink.
        let report = Report::stdout_csv();
        drop(report);
    }

    #[test]
    fn rows_join_with_commas() {
        use std::cell::RefCell;
        use std::io;
        use std::rc::Rc;

        #[derive(Clone, Default)]
        struct Buf(Rc<RefCell<Vec<u8>>>);
        impl io::Write for Buf {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let buf = Buf::default();
        let mut report = Report::new().with_sink(CsvSink::new(buf.clone()));
        report.row(&["a", "1.5", "x"]);
        report.finish();
        assert_eq!(
            String::from_utf8(buf.0.borrow().clone()).unwrap(),
            "a,1.5,x\n"
        );
    }
}
