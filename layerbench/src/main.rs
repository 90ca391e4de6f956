//! One benchmark for the whole system: the paper's from-scratch edge
//! coloring, the segmented recolorer under churn, and the multi-tenant
//! service, each driven only through the program's public functions.
//!
//! ```text
//! cargo run --release --manifest-path layerbench/Cargo.toml -- \
//!     --workload <scratch-powerlaw|churn-50k|fleet-1000> --seed <n> \
//!     --seconds <s> --trace <0|1> [--inject <corrupt-color|drop-edge>]
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it replays every layer on the inputs the program saw,
//! records spans and probe counters, and reports the per-layer metrics.
//! Every output is checked against the benchmark's own mirror of the input
//! (`check.rs`); a failed check prints `"correct": false` and exits 1.
//! See `README.md` for the workloads, metrics and reference figures.

mod check;
mod churn;
mod fleet;
mod measure;
mod scratch;

use measure::Outcome;
use std::process::ExitCode;

/// A deliberate fault fed to the output checks, to show that they fail
/// the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Gives one edge the color of an edge it shares a vertex with.
    CorruptColor,
    /// Drops one edge from the program's reported edge set.
    DropEdge,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub inject: Option<Inject>,
}

/// `DECO_THREADS` for this process.
const THREADS: &str = "1";

const WORKLOADS: [&str; 3] = ["scratch-powerlaw", "churn-50k", "fleet-1000"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut inject = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload {value:?}; expected one of {WORKLOADS:?}"
                    ));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must lie in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            "--inject" => {
                inject = Some(match value.as_str() {
                    "corrupt-color" => Inject::CorruptColor,
                    "drop-edge" => Inject::DropEdge,
                    _ => return Err(format!("unknown --inject {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        inject,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layerbench: {e}");
            return ExitCode::from(2);
        }
    };
    // One worker thread per network, before any network exists: a coloring
    // or commit steps its network through tens to hundreds of rounds, and
    // on a two-core shared host each round's barrier waits on whichever
    // worker the host stalled. One thread ran faster and spread about half
    // as much from run to run (README).
    std::env::set_var("DECO_THREADS", THREADS);
    measure::alloc::set_counting(args.trace);
    let outcome: Outcome = match args.workload.as_str() {
        "scratch-powerlaw" => scratch::run(&args),
        "churn-50k" => churn::run(&args),
        "fleet-1000" => fleet::run(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    measure::alloc::set_counting(false);
    outcome.print(&args)
}
