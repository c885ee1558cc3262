//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! repro [--quick] [--trace <file>] [--faults <spec>] [--json-out <file>] <experiment>...
//! repro [--quick] [--trace <file>] [--faults <spec>] [--json-out <file>] all
//! repro --list
//! ```
//!
//! `--list` prints the full experiment index (E1–E17) with one-line
//! descriptions and paper-section anchors.
//!
//! Every run checks the paper's claims (`ld_bench::claims`) against the
//! reports it produced. It prints nothing when they hold; a claim that
//! fails is named on stderr, with its experiment, row and key, and
//! `repro` exits 1 after writing its output. Under `--faults` the claims
//! are not checked: they describe perfect media.
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
//! `--faults` injects the deterministic media-fault model into the MINIX
//! LLD stack of `table4`/`table5` (e.g.
//! `--faults seed=7,transient=2000,latent=0`; rates in ppm of sectors)
//! and appends a degraded-mode footnote: retries, remapped sectors,
//! unreadable blocks, and the `ldck` verdict on the post-run image. The
//! other stacks stay on perfect media — they have no retry machinery; the
//! `faults` experiment covers that comparison. Note latent/grown faults
//! destroy whatever data sits on the scheduled sectors; LLD reports such
//! loss, it cannot undo it.
//!
//! Experiments: `calibrate` (E12), `table2` (E1), `table3` (E2), `table4`
//! (E3), `table5` (E4), `table6` (E5), `recovery` (E6), `lists` (E7),
//! `segsize` (E8), `inodes` (E9), `compression` (E10), `loge` (E11),
//! `ablate` (E13), `nvram` (E14), `hotcold` (E15), `faults` (E16),
//! `queueing` (E17). See `DESIGN.md` for the index and `EXPERIMENTS.md`
//! for recorded results.

use std::path::PathBuf;

use ld_bench::claims;
use ld_bench::exp::{Opts, EXPERIMENTS};

/// Prints `msg` and exits with the usage-error status.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The flags that take a value.
const VALUE_FLAGS: [&str; 3] = ["--trace", "--faults", "--json-out"];

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
    let faults = flag_value(
        &args,
        "--faults",
        "a spec argument (e.g. seed=7,transient=2000)",
    )
    .map(|spec| ld_bench::faultctl::parse_spec(spec).unwrap_or_else(|msg| fail(&msg)));
    let json_out = flag_value(&args, "--json-out", "a file argument").map(PathBuf::from);
    let opts = Opts {
        quick: args.iter().any(|a| a == "--quick"),
        trace,
        faults,
    };
    let wanted: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| {
            !a.starts_with("--") && (i == 0 || !VALUE_FLAGS.contains(&args[i - 1].as_str()))
        })
        .map(|(_, a)| a.as_str())
        .collect();

    if wanted.is_empty() || wanted.contains(&"help") {
        eprintln!(
            "usage: repro [--quick] [--trace <file>] [--faults <spec>] \
             [--json-out <file>] <experiment>... | all | --list"
        );
        eprintln!("experiments: {}", names());
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
        // The claims describe perfect media.
        if opts.faults.is_none() {
            broken.extend(claims::check(name, &report));
        }
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
