//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! repro [--quick] [--trace <file>] [--json-out <file>] <experiment>...
//! repro [--quick] [--trace <file>] [--json-out <file>] all
//! repro --list
//! ```
//!
//! `--list` prints the full experiment index (E1–E17) with one-line
//! descriptions and paper-section anchors. Any other argument that starts
//! with `--` is an error: `repro` prints the usage and exits 2.
//!
//! Every run checks the paper's claims (`ld_bench::claims`) against the
//! reports it produced. It prints nothing when they hold; a claim that
//! fails is named on stderr, with its experiment, row and key, and
//! `repro` exits 1 after writing its output.
//!
//! `--json-out` writes the same results as JSON: one document for one
//! experiment, an array of them for several. The committed
//! `BENCH_<experiment>.json` baselines are these documents.
//!
//! `--trace` writes structured JSONL event traces (see the `ld-trace`
//! crate) for the traced experiments (`table4`, `table5`) and appends a
//! mechanical disk-time attribution footnote under their tables. Render
//! the file with `ldtrace <file>`. Tracing never changes the simulated
//! timings — table cells are identical with and without it.
//!
//! Experiments: `calibrate` (E12), `table2` (E1), `table3` (E2), `table4`
//! (E3), `table5` (E4), `table6` (E5), `recovery` (E6), `lists` (E7),
//! `segsize` (E8), `inodes` (E9), `compression` (E10), `loge` (E11),
//! `ablate` (E13), `nvram` (E14), `hotcold` (E15), `faults` (E16, the
//! stacks on faulty media), `queueing` (E17). See `DESIGN.md` for the
//! index and `EXPERIMENTS.md` for recorded results.

use std::path::PathBuf;

use ld_bench::claims;
use ld_bench::exp::{Opts, EXPERIMENTS};

/// Prints `msg` and exits with the usage-error status.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The flags that take no value.
const FLAGS: [&str; 2] = ["--quick", "--list"];
/// The flags that take a value.
const VALUE_FLAGS: [&str; 2] = ["--trace", "--json-out"];

/// The experiment names among `args`: every argument that is neither a
/// flag nor a value flag's value. An unknown flag is an error.
fn experiment_names(args: &[String]) -> Result<Vec<&str>, String> {
    let mut names = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if a.starts_with("--") {
            if !FLAGS.contains(&a.as_str()) && !VALUE_FLAGS.contains(&a.as_str()) {
                return Err(format!("unknown flag '{a}'"));
            }
        } else if i == 0 || !VALUE_FLAGS.contains(&args[i - 1].as_str()) {
            names.push(a.as_str());
        }
    }
    Ok(names)
}

/// The value after `flag`, if the flag is given; exits when it is missing.
fn flag_value<'a>(args: &'a [String], flag: &str, what: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Some(v),
        _ => fail(&format!("{flag} requires {what}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names = || {
        EXPERIMENTS
            .iter()
            .map(|e| e.0)
            .collect::<Vec<_>>()
            .join(" ")
    };
    let usage = || {
        eprintln!(
            "usage: repro [--quick] [--trace <file>] [--json-out <file>] \
             <experiment>... | all | --list"
        );
        eprintln!("experiments: {}", names());
    };
    let wanted = experiment_names(&args).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        usage();
        std::process::exit(2);
    });
    if args.iter().any(|a| a == "--list") {
        println!("experiments (run with `repro [--quick] <name>...`):");
        let mut index: Vec<_> = EXPERIMENTS.iter().collect();
        index.sort_by_key(|e| e.1[1..].parse::<u32>().unwrap_or(0));
        for (name, id, desc, _) in index {
            println!("  {id:<4} {name:<12} {desc}");
        }
        return;
    }
    let trace = flag_value(&args, "--trace", "a file argument").map(PathBuf::from);
    if let Some(path) = &trace {
        // Start each invocation with a fresh file; experiments append.
        if let Err(e) = std::fs::write(path, b"") {
            fail(&format!("cannot write trace file {}: {e}", path.display()));
        }
    }
    let json_out = flag_value(&args, "--json-out", "a file argument").map(PathBuf::from);
    let opts = Opts {
        quick: args.iter().any(|a| a == "--quick"),
        trace,
    };
    if wanted.is_empty() || wanted.contains(&"help") {
        usage();
        std::process::exit(if wanted.is_empty() { 2 } else { 0 });
    }

    let list: Vec<&str> = if wanted.contains(&"all") {
        EXPERIMENTS.iter().map(|e| e.0).collect()
    } else {
        wanted
    };

    let mut json_docs: Vec<String> = Vec::new();
    let mut broken: Vec<String> = Vec::new();
    for (i, name) in list.iter().enumerate() {
        let Some(&(_, _, _, run)) = EXPERIMENTS.iter().find(|e| e.0 == *name) else {
            fail(&format!("unknown experiment '{name}'; known: {}", names()));
        };
        let report = run(opts.clone());
        if i > 0 {
            println!("\n{}\n", "=".repeat(72));
        }
        println!("{}", report.text());
        json_docs.push(report.json());
        broken.extend(claims::check(name, &report));
    }
    if let Some(path) = &json_out {
        let doc = match json_docs.as_slice() {
            [one] => one.clone(),
            docs => format!(
                "[\n{}\n]\n",
                docs.iter()
                    .map(|d| d.trim_end())
                    .collect::<Vec<_>>()
                    .join(",\n")
            ),
        };
        if let Err(e) = std::fs::write(path, doc) {
            fail(&format!("cannot write {}: {e}", path.display()));
        }
        eprintln!("wrote {}", path.display());
    }
    if !broken.is_empty() {
        for msg in &broken {
            eprintln!("{msg}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::experiment_names;

    fn split(line: &str) -> Result<Vec<String>, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        experiment_names(&args).map(|names| names.into_iter().map(String::from).collect())
    }

    #[test]
    fn flags_are_known_and_values_are_not_experiments() {
        assert_eq!(
            split("--quick --trace t.jsonl table4 --json-out o.json table5"),
            Ok(vec!["table4".to_string(), "table5".to_string()])
        );
        assert_eq!(split("--list"), Ok(vec![]));
        for bad in ["--quik", "--bogus"] {
            assert_eq!(
                split(&format!("{bad} seed=7 table4")),
                Err(format!("unknown flag '{bad}'"))
            );
        }
    }
}
