//! End-to-end and per-layer benchmark of the CleanML engine.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload quick_cold|paper_search --seed N --seconds S --trace 0|1
//! ```
//!
//! The program is driven only through its public library API: the
//! resident [`Engine`], its HTTP results gateway over a loopback socket,
//! the serial oracle `cleanml_core::run_study`, and the telemetry
//! registry. The last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; see `README.md` for what each
//! workload and metric means.

mod http;
mod json;
mod oracle;
mod session;
mod sha256;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

/// What one invocation does.
enum Mode {
    /// Measure a workload.
    Run(workload::Args),
    /// Print the serial oracle's digest-table line for `(spec, seed)`.
    Oracle { spec: String, seed: u64 },
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut oracle = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--oracle" => oracle = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    match (oracle, workload) {
        (Some(spec), None) => Ok(Mode::Oracle { spec, seed }),
        (None, Some(name)) => {
            let workload = workload::Workload::by_name(&name)
                .ok_or_else(|| format!("unknown workload {name:?}"))?;
            let seconds = seconds.ok_or("--seconds is required")?;
            if seconds == 0 {
                return Err("--seconds must be at least 1".into());
            }
            Ok(Mode::Run(workload::Args {
                workload,
                seed,
                seconds,
                trace: trace.ok_or("--trace is required")?,
            }))
        }
        _ => Err("give exactly one of --workload and --oracle".into()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&argv) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload quick_cold|paper_search --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let outcome = match mode {
        Mode::Run(args) => workload::run(&args).map(|report| report.print()),
        Mode::Oracle { spec, seed } => match oracle::Spec::by_name(&spec, seed) {
            Some(s) => oracle::run_oracle(&s).map(|d| println!("{}", d.line(s.name, seed))),
            None => Err(format!("unknown spec {spec:?}")),
        },
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_run_command_line() {
        match parse_args(&args("--workload paper_search --seed 4 --seconds 10 --trace 1")) {
            Ok(Mode::Run(a)) => {
                assert_eq!(a.workload.name(), "paper_search");
                assert_eq!((a.seed, a.seconds, a.trace), (4, 10, true));
            }
            _ => panic!("expected a run"),
        }
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload quick_cold --seed 1 --seconds 10", // no --trace
            "--workload quick_cold --seed 1 --seconds 10 --trace 2", // bad trace
            "--workload nope --seed 1 --seconds 10 --trace 0",
            "--workload quick_cold --seed x --seconds 10 --trace 0",
            "--workload quick_cold --seed 1 --seconds 0 --trace 0",
            "--workload quick_cold --seed 1 --seconds 10 --trace 0 --verbose",
            "--workload quick_cold --seed",
            "--oracle quick-outliers-duplicates-s2 --workload quick_cold --seed 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
