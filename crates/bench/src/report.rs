//! Table printing and JSON experiment records.
//!
//! Every record written by [`write_json`] is wrapped in a provenance
//! envelope — `{"meta": {...}, "report": <the record>}` — so a BENCH_*.json
//! artifact is self-describing: which git revision produced it, at what
//! worker-thread count, with which cargo features, and when.

use serde::{Serialize, Value};
use std::fs;
use std::path::PathBuf;
use std::time::{SystemTime, UNIX_EPOCH};

/// Prints an aligned text table: a header row plus data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", joined.join("  "));
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Run provenance stamped into every experiment record.
///
/// Built as a raw [`Value`] map (not a derived struct) because the vendored
/// derive does not handle the generic wrapper [`write_json`] would need.
pub fn run_meta() -> Value {
    let features = compiled_features();
    Value::Map(vec![
        (
            Value::Str("git_revision".into()),
            Value::Str(git_revision()),
        ),
        (
            Value::Str("threads".into()),
            Value::Num(serde::Number::UInt(effective_threads() as u128)),
        ),
        (
            Value::Str("features".into()),
            Value::Seq(features.into_iter().map(|f| Value::Str(f.into())).collect()),
        ),
        (
            Value::Str("timestamp".into()),
            Value::Str(iso_timestamp_utc()),
        ),
        (
            Value::Str("peak_rss_bytes".into()),
            Value::Num(serde::Number::UInt(peak_rss_bytes() as u128)),
        ),
    ])
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 where the proc filesystem is unavailable.
/// Stamped into every record's provenance envelope so a BENCH_*.json
/// documents the memory footprint of the run that produced it.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// Short commit hash of HEAD, or `"unknown"` outside a git checkout.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The worker-thread count a `threads: 0` ("auto") sweep would use:
/// `PAROLE_THREADS` when set, the machine's parallelism otherwise.
fn effective_threads() -> usize {
    match parole_par::threads_from_env() {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// Cargo features this harness build was compiled with.
fn compiled_features() -> Vec<&'static str> {
    let mut features = Vec::new();
    if cfg!(feature = "telemetry") {
        features.push("telemetry");
    }
    features
}

/// ISO-8601 UTC timestamp (`2026-02-14T09:31:07Z`), derived from
/// `SystemTime` by hand — the workspace deliberately vendors no date crate.
fn iso_timestamp_utc() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (h, min, s) = (secs / 3600 % 24, secs / 60 % 60, secs % 60);
    // Civil-from-days (Howard Hinnant's algorithm), valid for any date the
    // Unix epoch can reach.
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}T{h:02}:{min:02}:{s:02}Z")
}

/// Writes a JSON experiment record to `target/experiments/<name>.json`,
/// returning the path. The record is wrapped in the [`run_meta`] provenance
/// envelope. Failures are reported but non-fatal (the printed table is the
/// primary artifact).
pub fn write_json<T: Serialize>(name: &str, value: &T) -> Option<PathBuf> {
    let dir = PathBuf::from("target/experiments");
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("note: could not create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(format!("{name}.json"));
    let stamped = Value::Map(vec![
        (Value::Str("meta".into()), run_meta()),
        (Value::Str("report".into()), value.to_value()),
    ]);
    match serde_json::to_string_pretty(&stamped) {
        Ok(body) => match fs::write(&path, body) {
            Ok(()) => {
                println!("  [recorded {}]", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("note: could not write {}: {e}", path.display());
                None
            }
        },
        Err(e) => {
            eprintln!("note: could not serialize {name}: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn print_table_handles_ragged_rows() {
        // Smoke test: must not panic on rows narrower/wider than the header.
        print_table(
            "t",
            &["a", "b"],
            &[
                vec!["1".into()],
                vec!["22".into(), "333".into(), "4".into()],
            ],
        );
    }

    #[test]
    fn write_json_roundtrip() {
        #[derive(Serialize)]
        struct R {
            x: u32,
        }
        let path = write_json("bench_report_test", &R { x: 7 });
        if let Some(p) = path {
            let body = std::fs::read_to_string(&p).unwrap();
            assert!(body.contains("\"x\": 7"));
            // The provenance envelope wraps every record.
            assert!(body.contains("\"meta\""));
            assert!(body.contains("\"report\""));
            assert!(body.contains("\"git_revision\""));
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn run_meta_carries_the_four_provenance_fields() {
        let meta = run_meta();
        let Value::Map(entries) = &meta else {
            panic!("meta must be a map")
        };
        let keys: Vec<&str> = entries
            .iter()
            .filter_map(|(k, _)| match k {
                Value::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(
            keys,
            [
                "git_revision",
                "threads",
                "features",
                "timestamp",
                "peak_rss_bytes"
            ]
        );
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_bytes() > 0, "a live process has a resident set");
        }
    }

    #[test]
    fn iso_timestamp_is_well_formed() {
        let ts = iso_timestamp_utc();
        assert_eq!(ts.len(), 20, "{ts}");
        assert_eq!(&ts[10..11], "T");
        assert!(ts.ends_with('Z'));
        // Sanity: the clock is past the repo's creation era.
        let year: i64 = ts[..4].parse().unwrap();
        assert!(year >= 2024, "{ts}");
    }
}
