//! `ldtrace` — renders a JSONL trace produced by `ld-trace` (e.g. via
//! `repro --trace`) as a human-readable I/O timeline, metric histograms,
//! and the mechanical time-attribution table, verifying that the
//! attribution components sum exactly to the disk's busy time.
//!
//! ```text
//! ldtrace <trace.jsonl> [--tail N]    # render + verify (default N=40)
//! ldtrace --selftest                  # record/export/parse roundtrip
//! ```
//!
//! Exit codes: 0 clean, 1 verification failure, 2 usage/IO error.

use std::process::ExitCode;

use ld_trace::{jsonl, Attribution, Event, FsOpKind, Tracer};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--selftest") {
        return selftest();
    }
    let mut tail = 40usize;
    let mut path: Option<&str> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tail" => {
                tail = match it.next().and_then(|v| v.parse().ok()) {
                    Some(n) => n,
                    None => return usage("--tail needs a number"),
                }
            }
            "--help" | "-h" => return usage(""),
            _ if a.starts_with("--") => return usage(&format!("unknown flag {a}")),
            _ => path = Some(a),
        }
    }
    let Some(path) = path else {
        return usage("no trace file given");
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("ldtrace: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    render(&text, tail)
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("ldtrace: {err}");
    }
    eprintln!("usage: ldtrace <trace.jsonl> [--tail N] | --selftest");
    ExitCode::from(if err.is_empty() { 0 } else { 2 })
}

/// Renders every run section in the file (the bench harness interleaves
/// `{"meta":"run",...}` headers between tracer exports).
fn render(text: &str, tail: usize) -> ExitCode {
    let mut failures = 0u32;
    let mut section = String::new();
    let mut title = String::from("trace");
    let mut any = false;
    for line in text.lines() {
        if jsonl::get_str(line, "meta") == Some("run") {
            if any {
                failures += render_section(&title, &section, tail);
            }
            let exp = jsonl::get_str(line, "exp").unwrap_or("?");
            let fs = jsonl::get_str(line, "fs").unwrap_or("?");
            title = format!("{exp} / {fs}");
            section.clear();
            any = true;
            continue;
        }
        any = true;
        section.push_str(line);
        section.push('\n');
    }
    if !section.is_empty() || any {
        failures += render_section(&title, &section, tail);
    }
    if failures > 0 {
        eprintln!("ldtrace: {failures} section(s) failed verification");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Renders one tracer export; returns 1 on verification failure.
fn render_section(title: &str, text: &str, tail: usize) -> u32 {
    println!("== {title} ==");
    let events: Vec<_> = text.lines().filter_map(jsonl::decode_event).collect();
    let shown = events.len().min(tail);
    if shown > 0 {
        println!(
            "-- timeline (last {shown} of {} buffered events) --",
            events.len()
        );
        for e in &events[events.len() - shown..] {
            println!("{e}");
        }
    } else {
        println!("-- no events buffered --");
    }

    for line in text.lines() {
        if jsonl::get_str(line, "meta") != Some("hist") {
            continue;
        }
        let (Some(name), Some(count)) = (
            jsonl::get_str(line, "name"),
            jsonl::get_u64(line, "count"),
        ) else {
            continue;
        };
        if count == 0 {
            continue;
        }
        let unit = jsonl::get_str(line, "unit").unwrap_or("");
        let sum = jsonl::get_u64(line, "sum").unwrap_or(0);
        let max = jsonl::get_u64(line, "max").unwrap_or(0);
        println!(
            "-- {name}: n={count} mean={} max={max} {unit} --",
            sum / count.max(1)
        );
        if let Some(buckets) = jsonl::get_u64_array(line, "buckets") {
            let peak = buckets.iter().copied().max().unwrap_or(1).max(1);
            for (i, &c) in buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let lo = ld_trace::Histogram::bucket_lo(i);
                let bar = "#".repeat(((c * 40).div_ceil(peak)) as usize);
                println!("  >= {lo:>10} {unit}: {c:>8} {bar}");
            }
        }
    }

    let attr = text.lines().find_map(jsonl::decode_attribution);
    if let Some(a) = attr {
        println!("-- mechanical time attribution --");
        print!("{}", a.render());
    }
    match ld_trace::verify_jsonl(text) {
        Ok(()) => {
            println!("verification: attribution sums exactly to disk busy time");
            println!();
            0
        }
        Err(e) => {
            println!("verification FAILED: {e}");
            println!();
            1
        }
    }
}

/// Offline self-test: record a synthetic mixed workload, export, parse it
/// back, and verify every cross-check `ldtrace` relies on.
fn selftest() -> ExitCode {
    let t = Tracer::new(128);
    let mut clock = 0u64;
    let mut busy = 0u64;
    // A deterministic little workload exercising every variant.
    for i in 0..200u64 {
        let seek = 1_000 + (i * 37) % 9_000;
        let rot = (i * 131) % 11_120;
        let xfer = 51 * (1 + i % 8);
        t.record(
            clock,
            Event::SeekStart {
                from_cyl: (i % 1_000) as u32,
                to_cyl: ((i * 13) % 2_000) as u32,
            },
        );
        clock += seek;
        t.record(clock, Event::SeekDone { us: seek });
        clock += rot;
        t.record(clock, Event::RotWait { us: rot });
        clock += xfer;
        t.record(clock, Event::Transfer { sectors: 1 + i % 8, us: xfer });
        t.record(clock, Event::CmdOverhead { us: 1_100 });
        clock += 1_100;
        busy += seek + rot + xfer + 1_100;
        if i % 16 == 0 {
            t.record(clock, Event::HeadSwitch { us: 1_600 });
            clock += 1_600;
            busy += 1_600;
        }
        // Queue + read-ahead memo events: no busy time of their own (the
        // mechanical components above already carry it), but they must
        // survive the JSONL roundtrip, feed the queue-depth histogram,
        // and land in the attribution memo counters.
        if i % 4 == 0 {
            t.record(clock, Event::QueueSubmit { tag: i, sector: i * 64, sectors: 8 });
            t.record(clock, Event::QueueDispatch { tag: i, depth: 1 + i % 6 });
            t.record(clock, Event::QueueComplete { tag: i, us: xfer });
        }
        if i % 5 == 0 {
            t.record(clock, Event::CacheHit { sector: i * 64, sectors: 8 });
        } else if i % 5 == 1 {
            t.record(clock, Event::CacheMiss { sector: i * 64, sectors: 8 });
        }
        if i % 25 == 0 {
            t.record(
                clock,
                Event::SegmentSeal {
                    seg: (i / 25) as u32,
                    write_seq: i,
                    fill_bytes: 400_000 + i * 100,
                    cap_bytes: 520_192,
                },
            );
            t.record(
                clock,
                Event::FsOp {
                    op: FsOpKind::Sync,
                    start_us: clock - 500,
                    us: 500,
                },
            );
        }
    }
    t.record(clock, Event::CleanerPass { reclaimed: 2, bytes_copied: 123_456 });
    t.record(clock, Event::RecoverySweep { summaries: 788, us: 12_000_000 });

    let a = t.attribution();
    if a.busy_us() != busy {
        eprintln!(
            "ldtrace selftest: attribution busy {} != expected {busy}",
            a.busy_us()
        );
        return ExitCode::FAILURE;
    }
    if a.cache_hits != 40 || a.cache_misses != 40 {
        eprintln!(
            "ldtrace selftest: read-ahead memo counters wrong ({}/{}, expected 40/40)",
            a.cache_hits, a.cache_misses
        );
        return ExitCode::FAILURE;
    }
    // 50 dispatches at depths 1..=6 feed the queue-depth histogram.
    let (qname, _, qdepth) = &t.histograms()[4];
    if *qname != "queue_depth" || qdepth.count() != 50 || qdepth.max() != 5 {
        eprintln!(
            "ldtrace selftest: queue-depth histogram wrong ({qname}, n={}, max={})",
            qdepth.count(),
            qdepth.max()
        );
        return ExitCode::FAILURE;
    }
    let jsonl_text = t.to_jsonl(Some(busy));
    if let Err(e) = ld_trace::verify_jsonl(&jsonl_text) {
        eprintln!("ldtrace selftest: clean export failed verification: {e}");
        return ExitCode::FAILURE;
    }
    // A corrupted busy line must be caught.
    let corrupted = t.to_jsonl(Some(busy + 1));
    if ld_trace::verify_jsonl(&corrupted).is_ok() {
        eprintln!("ldtrace selftest: corrupted export passed verification");
        return ExitCode::FAILURE;
    }
    // Ring accounting: 200 iterations emit >128 events, so the ring is
    // full and the oldest were dropped, yet attribution stayed exact.
    if t.dropped() == 0 || t.tail(usize::MAX).len() != t.capacity() {
        eprintln!("ldtrace selftest: ring accounting wrong");
        return ExitCode::FAILURE;
    }
    // The parsed-back event stream must reconstruct verbatim.
    let reparsed: Vec<_> = jsonl_text
        .lines()
        .filter_map(jsonl::decode_event)
        .collect();
    if reparsed != t.tail(usize::MAX) {
        eprintln!("ldtrace selftest: JSONL roundtrip mismatch");
        return ExitCode::FAILURE;
    }
    // Attribution line roundtrip.
    let parsed_attr: Option<Attribution> =
        jsonl_text.lines().find_map(jsonl::decode_attribution);
    if parsed_attr != Some(a) {
        eprintln!("ldtrace selftest: attribution roundtrip mismatch");
        return ExitCode::FAILURE;
    }
    println!(
        "ldtrace selftest: ok ({} events recorded, {} buffered, busy {} us attributed exactly)",
        t.recorded(),
        t.tail(usize::MAX).len(),
        busy
    );
    ExitCode::SUCCESS
}
