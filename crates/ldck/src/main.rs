//! `ldck` command line: check an LLD disk image file.
//!
//! ```text
//! ldck [--segment-bytes N] [--summary-bytes N] [--quiet] IMAGE
//! ```
//!
//! Exit status: 0 when the image has no error-severity findings, 1 when it
//! does, 2 on usage or I/O problems.

use std::process::ExitCode;

use ldck::{check_image, Report, Severity};

struct Options {
    segment_bytes: usize,
    summary_bytes: usize,
    quiet: bool,
    image: Option<String>,
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("ldck: {msg}");
            eprintln!("usage: ldck [--segment-bytes N] [--summary-bytes N] [--quiet] IMAGE");
            return ExitCode::from(2);
        }
    };

    let Some(path) = opts.image.as_deref() else {
        eprintln!("ldck: no image file given");
        return ExitCode::from(2);
    };
    let image = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("ldck: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let config = lld::LldConfig {
        segment_bytes: opts.segment_bytes,
        summary_bytes: opts.summary_bytes,
        ..lld::LldConfig::default()
    };
    let report = check_image(&image, &config);
    print_report(&report, opts.quiet);
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        segment_bytes: 512 << 10,
        summary_bytes: 8 << 10,
        quiet: false,
        image: None,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--segment-bytes" => {
                let v = args.next().ok_or("--segment-bytes needs a value")?;
                opts.segment_bytes = parse_size(&v)?;
            }
            "--summary-bytes" => {
                let v = args.next().ok_or("--summary-bytes needs a value")?;
                opts.summary_bytes = parse_size(&v)?;
            }
            "-q" | "--quiet" => opts.quiet = true,
            s if s.starts_with('-') => return Err(format!("unknown option {s}")),
            _ => {
                if opts.image.is_some() {
                    return Err("more than one image file given".into());
                }
                opts.image = Some(arg);
            }
        }
    }
    Ok(opts)
}

/// Parses a byte size with an optional `k`/`m` suffix (e.g. `512k`).
fn parse_size(s: &str) -> Result<usize, String> {
    let (digits, mult) = match s.as_bytes().last() {
        Some(b'k' | b'K') => (&s[..s.len() - 1], 1usize << 10),
        Some(b'm' | b'M') => (&s[..s.len() - 1], 1usize << 20),
        _ => (s, 1),
    };
    digits
        .parse::<usize>()
        .map(|n| n * mult)
        .map_err(|_| format!("invalid size {s:?}"))
}

fn print_report(report: &Report, quiet: bool) {
    for f in &report.findings {
        if quiet && f.severity < Severity::Warning {
            continue;
        }
        println!("{f}");
    }
    let s = &report.stats;
    if !quiet {
        println!(
            "{} segments, {} valid summaries, {} records, checkpoint: {}, \
             {} blocks on {} lists",
            s.segments,
            s.valid_summaries,
            s.records,
            if s.checkpoint { "yes" } else { "no" },
            s.blocks,
            s.lists,
        );
        if s.bad_sectors > 0 {
            println!("{} remapped bad sector(s)", s.bad_sectors);
        }
    }
    let errors = report.errors().count();
    if errors > 0 {
        println!("ldck: {errors} error(s) found");
    } else if !quiet {
        println!("ldck: image is consistent");
    }
}
