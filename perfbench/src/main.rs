//! End-to-end and per-layer benchmark of the steering stack.
//!
//! One process runs one workload for one seed and prints, as the last line
//! of standard output, one JSON object: whether every correctness check
//! held, how many operations the run attempted and how many failed, and
//! every metric by name and unit. `--trace 0` reports the end-to-end
//! metrics of untraced rounds; `--trace 1` reports the per-layer metrics
//! of a separate traced run. See `README.md` for the workloads, the
//! metrics and what each layer metric should move.
//!
//! Usage: `steer-perfbench --workload <discover_days|deploy_days|learn_groups>
//!         --seed <n> --seconds <n> --trace <0|1>`

mod deploy;
mod discover;
mod learn;
mod probe;
mod report;

use std::process::ExitCode;

use report::Outcome;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Wall seconds the timed rounds may fill (at least one round runs).
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                );
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome: Outcome = match args.workload.as_str() {
        "discover_days" => discover::run(&args),
        "deploy_days" => deploy::run(&args),
        "learn_groups" => learn::run(&args),
        other => {
            eprintln!("error: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    outcome.print()
}
