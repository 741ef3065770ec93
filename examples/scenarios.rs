//! Run a whole experiment matrix from a scenario text file.
//!
//! ```text
//! cargo run --release --example scenarios [-- <file> [--threads <t>]]
//! ```
//!
//! Each non-comment line of the file is one `ScenarioSpec` (`key=value`
//! pairs; see the `sodiff::ScenarioSpec` docs for the format). The batch
//! `Driver` executes all of them and prints the aggregated report: on the
//! sequential executor with the default `--threads 1`, over a single
//! persistent worker pool of `t` participants with `--threads t` (t > 1).
//! Without arguments, the bundled `examples/scenarios.txt` matrix is run.

use std::time::Duration;

use sodiff::{Driver, ScenarioSpec};

const BUNDLED: &str = include_str!("scenarios.txt");

fn main() {
    let mut path = None;
    let mut threads = 1usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                threads = args
                    .next()
                    .expect("--threads requires a value")
                    .parse()
                    .expect("--threads must be a positive integer");
            }
            other => path = Some(other.to_string()),
        }
    }

    let text = match &path {
        Some(p) => std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {p}: {e}")),
        None => BUNDLED.to_string(),
    };
    let specs = match ScenarioSpec::parse_many(&text) {
        Ok(specs) => specs,
        Err(e) => {
            eprintln!("invalid scenario file: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{} scenario(s) from {}, {threads} thread(s)\n",
        specs.len(),
        path.as_deref()
            .unwrap_or("examples/scenarios.txt (bundled)")
    );

    let driver = Driver::with_threads(threads).expect("positive thread count");
    let batch = driver.run_batch(&specs);

    println!(
        "{:<16} {:>9} {:>9} {:>8} {:>12} {:>12} {:>10} {:>10}",
        "name", "nodes", "edges", "rounds", "max - avg", "local diff", "switch", "wall"
    );
    for s in &batch.scenarios {
        println!(
            "{:<16} {:>9} {:>9} {:>8} {:>12.2} {:>12.2} {:>10} {:>10}",
            s.name,
            s.nodes,
            s.edges,
            s.report.rounds,
            s.report.final_metrics.max_minus_avg,
            s.report.final_metrics.max_local_diff,
            s.report
                .switch_round
                .map(|r| r.to_string())
                .unwrap_or_else(|| "-".into()),
            millis(s.wall),
        );
    }
    println!(
        "\nbatch: {} rounds in {} (worst max-avg {:.2}, mean {:.2})",
        batch.total_rounds,
        millis(batch.total_wall),
        batch.worst_max_minus_avg,
        batch.mean_max_minus_avg
    );
    if let Some(p99) = batch.worst_steady_p99 {
        println!("steady-state scenarios: worst p99 deviation {p99:.2}");
    }
    if !batch.errors.is_empty() {
        eprintln!("\n{} scenario(s) failed:", batch.errors.len());
        for e in &batch.errors {
            eprintln!("  {e}");
        }
        std::process::exit(1);
    }
}

/// A wall time in milliseconds with two decimals (`0.37ms`, `2.41ms`).
fn millis(d: Duration) -> String {
    format!("{:.2}ms", d.as_secs_f64() * 1e3)
}
