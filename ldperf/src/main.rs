//! `ldperf --workload <smallfile|largefile|cleaner> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then one JSON line with the metrics.
//! Exits 1 when any operation or correctness check failed, 2 on bad
//! arguments or a run that could not be set up.

use std::process::ExitCode;

use ldperf::workloads::{Params, Workload, DEFAULT_SEED};

const USAGE: &str =
    "usage: ldperf --workload <smallfile|largefile|cleaner> [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad value for {flag}: {value}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(format!("--seconds must be within 0..=3600, got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match ldperf::run(
        args.workload,
        &Params::full(args.seed),
        args.seconds,
        args.trace,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.text());
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
