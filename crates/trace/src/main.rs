//! `ldtrace` — renders a JSONL trace produced by `ld-trace` (e.g. via
//! `repro --trace`) as a human-readable I/O timeline, metric histograms,
//! and the mechanical time-attribution table, verifying that a trace
//! whose ring dropped nothing sums, event by event, to that table.
//!
//! ```text
//! ldtrace <trace.jsonl> [--tail N]    # render + verify (default N=40)
//! ```
//!
//! Exit codes: 0 clean, 1 verification failure or no trace sections,
//! 2 usage/IO error.

use std::process::ExitCode;

use ld_trace::jsonl;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
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
    eprintln!("usage: ldtrace <trace.jsonl> [--tail N]");
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

#[cfg(test)]
mod tests {
    use super::sections;

    #[test]
    fn sections_split_at_run_headers() {
        assert!(sections("").is_empty());
        assert!(sections("\n \n").is_empty(), "blank lines make no section");
        let bare = sections("{\"ev\":1}\n");
        assert_eq!(bare.len(), 1);
        assert_eq!(bare[0].0, "trace");
        let runs = sections(
            "{\"meta\":\"run\",\"exp\":\"table4\",\"fs\":\"MINIX\"}\n{\"ev\":1}\n\
             {\"meta\":\"run\",\"exp\":\"table5\",\"fs\":\"SunOS\"}\n",
        );
        let titles: Vec<&str> = runs.iter().map(|(t, _)| t.as_str()).collect();
        assert_eq!(titles, ["table4 / MINIX", "table5 / SunOS"]);
        assert_eq!(runs[0].1, "{\"ev\":1}\n");
        assert!(runs[1].1.is_empty());
    }
}
