//! `ldck` command line: check an LLD disk image file.
//!
//! ```text
//! ldck [--segment-bytes N] [--summary-bytes N] [--quiet] IMAGE
//! ldck --selftest
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
    selftest: bool,
    image: Option<String>,
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("ldck: {msg}");
            eprintln!(
                "usage: ldck [--segment-bytes N] [--summary-bytes N] [--quiet] IMAGE\n\
                 \x20      ldck --selftest"
            );
            return ExitCode::from(2);
        }
    };

    if opts.selftest {
        return selftest();
    }

    let Some(path) = opts.image.as_deref() else {
        eprintln!("ldck: no image file given (or use --selftest)");
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
        selftest: false,
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
            "--selftest" => opts.selftest = true,
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

/// Built-in smoke test used by CI: formats an in-memory image, dirties and
/// cleanly shuts it down, and expects `ldck` to pass it, to pass its
/// crash-mode (checkpoint-invalidated) variant, and to flag a seeded
/// summary corruption. The corruption classes are covered one by one in
/// `tests/corruption.rs`.
fn selftest() -> ExitCode {
    use ld_core::{FailureSet, ListHints, LogicalDisk, Pred, PredList};

    let config = lld::LldConfig::small_for_tests();
    let disk = simdisk::MemDisk::with_capacity(2 << 20);
    let mut ld = match lld::Lld::format(disk, config.clone()) {
        Ok(ld) => ld,
        Err(e) => return fail(&format!("format failed: {e}")),
    };
    let result = (|| -> ld_core::Result<()> {
        let lid = ld.new_list(PredList::Start, ListHints::default())?;
        let mut prev = None;
        for i in 0..24u8 {
            let pred = prev.map_or(Pred::Start, Pred::After);
            let bid = ld.new_block(lid, pred)?;
            ld.write(bid, &vec![i; 4096])?;
            prev = Some(bid);
        }
        ld.flush(FailureSet::PowerFailure)?;
        ld.shutdown()
    })();
    if let Err(e) = result {
        return fail(&format!("workload failed: {e}"));
    }
    let image = ld.into_disk().image_bytes();

    // 1. A cleanly shut down image must be consistent.
    let clean = check_image(&image, &config);
    if !clean.is_clean() || !clean.stats.checkpoint {
        print_report(&clean, false);
        return fail("clean image did not pass");
    }

    // 2. The same image with the checkpoint marker cleared (= what a
    //    started-then-crashed instance leaves behind) must also pass, via
    //    the sweep path.
    let mut crashed = image.clone();
    crashed[6] = 0;
    let swept = check_image(&crashed, &config);
    if !swept.is_clean() || swept.stats.checkpoint {
        print_report(&swept, false);
        return fail("checkpoint-less image did not pass the sweep check");
    }

    // 3. Corrupting one live summary byte must be detected.
    let layout = lld::Layout::compute(
        (image.len() / simdisk::SECTOR_SIZE) as u64,
        config.segment_bytes,
        config.summary_bytes,
    );
    let lld::checkpoint::CheckpointPeek::Valid(view) = lld::checkpoint::peek_image(&image, &layout)
    else {
        return fail("clean image lost its checkpoint");
    };
    let Some(live_seg) = view
        .usage
        .iter()
        .position(|u| u.state == lld::SegState::Live)
    else {
        return fail("no live segment to corrupt");
    };
    let mut corrupt = image.clone();
    let target = layout.summary_base(live_seg as u32) as usize * simdisk::SECTOR_SIZE;
    corrupt[target + 16] ^= 0xFF;
    let flagged = check_image(&corrupt, &config);
    if flagged.is_clean() {
        print_report(&flagged, false);
        return fail("summary corruption went undetected");
    }

    println!("ldck: selftest passed");
    ExitCode::SUCCESS
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("ldck: selftest: {msg}");
    ExitCode::from(1)
}
