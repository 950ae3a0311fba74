//! Command-line entry point: runs one workload and prints the result line.
//!
//! ```text
//! pipebench --workload <market|signed|attack> --seed <n> --seconds <n> --trace <0|1>
//!           [--size <full|tiny>]
//! ```
//!
//! Details (input generation time, the tail percentile used, per-span
//! totals, failed checks) go to stderr; the last line of stdout is the JSON
//! result. A failed output check still prints the result, with
//! `"correct": false`, and exits with status 1.

use pipebench::{Args, USAGE};
use std::path::PathBuf;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("pipebench: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = pipebench::run(&args);
    for note in &outcome.notes {
        eprintln!("{note}");
    }
    if let Some(tracer) = &outcome.tracer {
        let path = PathBuf::from(".pipebench").join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
        match written {
            Ok(()) => eprintln!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("pipebench: cannot write spans to {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
    for problem in outcome.checks.problems() {
        eprintln!("CHECK FAILED: {problem}");
    }
    println!("{}", outcome.to_json());
    if !outcome.correct() {
        std::process::exit(1);
    }
}
