//! `ldtrace` — renders a JSONL trace produced by `ld-trace` (e.g. via
//! `repro --trace`) as a human-readable I/O timeline, metric histograms,
//! and the mechanical time-attribution table, verifying that a trace
//! whose ring dropped nothing sums, event by event, to that table.
//!
//! ```text
//! ldtrace <trace.jsonl> [--tail N]    # render + verify (default N=40)
//! ldtrace --selftest                  # record/export/parse roundtrip
//! ```
//!
//! Exit codes: 0 clean, 1 verification failure or no trace sections,
//! 2 usage/IO error.

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

/// Splits a trace file into `(title, body)` sections: the bench harness
/// writes a `{"meta":"run",...}` header before each tracer export, and a
/// bare export is one section titled `trace`.
fn sections(text: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        if jsonl::get_str(line, "meta") == Some("run") {
            let exp = jsonl::get_str(line, "exp").unwrap_or("?");
            let fs = jsonl::get_str(line, "fs").unwrap_or("?");
            out.push((format!("{exp} / {fs}"), String::new()));
            continue;
        }
        if out.is_empty() {
            out.push(("trace".to_string(), String::new()));
        }
        if let Some((_, body)) = out.last_mut() {
            body.push_str(line);
            body.push('\n');
        }
    }
    out
}

/// Renders every section in the file.
fn render(text: &str, tail: usize) -> ExitCode {
    let sections = sections(text);
    if sections.is_empty() {
        eprintln!("ldtrace: no trace sections");
        return ExitCode::FAILURE;
    }
    let failures: u32 = sections
        .iter()
        .map(|(title, body)| render_section(title, body, tail))
        .sum();
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
        let (Some(name), Some(count)) =
            (jsonl::get_str(line, "name"), jsonl::get_u64(line, "count"))
        else {
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
    let (verdict, failed) = match ld_trace::verify_jsonl(text) {
        Ok(0) => ("ok, events sum exactly to the attribution".to_string(), 0),
        Ok(n) => (format!("completeness not checked ({n} events dropped)"), 0),
        Err(e) => (format!("FAILED: {e}"), 1),
    };
    println!("verification: {verdict}");
    println!();
    failed
}

/// Offline self-test: record a synthetic mixed workload into a ring that
/// holds all of it and into one that overflows, export both, parse them
/// back, and check every verdict `ldtrace` relies on.
fn selftest() -> ExitCode {
    match selftest_checks() {
        Ok(summary) => {
            println!("ldtrace selftest: ok ({summary})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ldtrace selftest: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Records the synthetic workload into `t`; returns the attribution the
/// disk would have counted for it.
fn record_workload(t: &Tracer) -> Attribution {
    let mut clock = 0u64;
    let mut attr = Attribution::default();
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
        t.record(
            clock,
            Event::Transfer {
                sectors: 1 + i % 8,
                us: xfer,
            },
        );
        t.record(clock, Event::CmdOverhead { us: 1_100 });
        clock += 1_100;
        attr.seek_us += seek;
        attr.rotation_us += rot;
        attr.transfer_us += xfer;
        attr.overhead_us += 1_100;
        if i % 16 == 0 {
            t.record(clock, Event::HeadSwitch { us: 1_600 });
            clock += 1_600;
            attr.switch_us += 1_600;
        }
        // Queue, read-ahead and retry events carry no busy time of their
        // own (the mechanical components above already hold it), but they
        // must survive the JSONL roundtrip and feed their histogram or memo.
        if i % 4 == 0 {
            t.record(
                clock,
                Event::QueueSubmit {
                    tag: i,
                    sector: i * 64,
                    sectors: 8,
                },
            );
            t.record(
                clock,
                Event::QueueDispatch {
                    tag: i,
                    depth: 1 + i % 6,
                },
            );
            t.record(clock, Event::QueueComplete { tag: i, us: xfer });
        }
        if i % 5 == 0 {
            t.record(
                clock,
                Event::CacheHit {
                    sector: i * 64,
                    sectors: 8,
                },
            );
            attr.cache_hits += 1;
        } else if i % 5 == 1 {
            t.record(
                clock,
                Event::CacheMiss {
                    sector: i * 64,
                    sectors: 8,
                },
            );
            attr.cache_misses += 1;
        }
        if i % 50 == 0 {
            t.record(
                clock,
                Event::ReadRetry {
                    sector: i * 64,
                    attempt: 1,
                    us: rot,
                },
            );
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
    t.record(
        clock,
        Event::CleanerPass {
            reclaimed: 2,
            bytes_copied: 123_456,
        },
    );
    t.record(
        clock,
        Event::RecoverySweep {
            summaries: 788,
            us: 12_000_000,
        },
    );
    attr.retry_us = t.retry_us();
    attr
}

fn selftest_checks() -> Result<String, String> {
    if !sections("").is_empty() || !sections("\n").is_empty() {
        return Err("an empty file must hold no trace sections".into());
    }

    // A ring large enough for the whole workload: the trace is complete.
    let full = Tracer::new(4_096);
    let attr = record_workload(&full);
    // Retries at i = 0, 50, 100, 150 wait (i * 131) % 11_120 us each.
    if attr.retry_us != 6_550 + 1_980 + 8_530 {
        return Err(format!("retry memo wrong ({} us)", attr.retry_us));
    }
    // 50 dispatches at depths 1..=6 feed the queue-depth histogram.
    let (qname, _, qdepth) = &full.histograms()[4];
    if *qname != "queue_depth" || qdepth.count() != 50 || qdepth.max() != 5 {
        return Err(format!(
            "queue-depth histogram wrong ({qname}, n={}, max={})",
            qdepth.count(),
            qdepth.max()
        ));
    }
    let text = full.to_jsonl(&attr);
    match ld_trace::verify_jsonl(&text) {
        Ok(0) => {}
        other => return Err(format!("complete export verified as {other:?}")),
    }
    // An attribution the events do not account for must be caught, and
    // the failure must name the component.
    let over = Attribution {
        rotation_us: attr.rotation_us + 1,
        ..attr
    };
    match ld_trace::verify_jsonl(&full.to_jsonl(&over)) {
        Err(ld_trace::TraceError::Incomplete {
            component: "rotation",
            ..
        }) => {}
        other => return Err(format!("over-attributed export verified as {other:?}")),
    }
    // The parsed-back event stream and attribution must reconstruct
    // verbatim.
    let reparsed: Vec<_> = text.lines().filter_map(jsonl::decode_event).collect();
    if reparsed != full.tail(usize::MAX) {
        return Err("JSONL roundtrip mismatch".into());
    }
    if text.lines().find_map(jsonl::decode_attribution) != Some(attr) {
        return Err("attribution roundtrip mismatch".into());
    }

    // A ring that overflows: the oldest events are gone, so completeness
    // cannot be checked, and the export says so instead of failing.
    let small = Tracer::new(128);
    record_workload(&small);
    if small.dropped() == 0 || small.tail(usize::MAX).len() != 128 {
        return Err("ring accounting wrong".into());
    }
    match ld_trace::verify_jsonl(&small.to_jsonl(&attr)) {
        Ok(n) if n == small.dropped() => {}
        other => return Err(format!("overflowed export verified as {other:?}")),
    }
    Ok(format!(
        "{} events recorded, complete trace sums to busy {} us; {} of {} dropped in the overflowing ring",
        full.recorded(),
        attr.busy_us(),
        small.dropped(),
        small.recorded()
    ))
}
