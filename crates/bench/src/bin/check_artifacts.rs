//! Validates the `BENCH_*.json` artifacts in a directory and, given a
//! directory of committed copies, holds each artifact to its copy.
//!
//! ```text
//! cargo run --release -p bench --bin check_artifacts                   # artifacts in .
//! cargo run --release -p bench --bin check_artifacts -- DIR GOLDEN_DIR # golden gate
//! ```
//!
//! Exits non-zero if no artifacts are found, any file fails to parse, or
//! an artifact is missing a key its experiment is required to carry
//! (see `bench::artifacts::required_keys`). With `GOLDEN_DIR`, it also
//! fails when an artifact differs from its committed copy outside the
//! `wall_clock` member, naming the key path of the first difference, and
//! when a file exists on one side only.

use std::path::Path;

use bench::artifacts;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let load = |dir: &str| {
        artifacts::read_dir(Path::new(dir)).unwrap_or_else(|e| {
            eprintln!("check_artifacts: {e}");
            std::process::exit(2);
        })
    };
    let fresh = load(args.first().map_or(".", String::as_str));
    let golden = args.get(1).map(|dir| load(dir));

    match artifacts::check_set(&fresh, golden.as_ref()) {
        Ok(passed) => {
            for line in &passed {
                println!("ok   {line}");
            }
            println!("check_artifacts: all {} artifacts valid", passed.len());
        }
        Err(failed) => {
            for e in &failed {
                eprintln!("FAIL {e}");
            }
            eprintln!("check_artifacts: {} failure(s)", failed.len());
            std::process::exit(1);
        }
    }
}
