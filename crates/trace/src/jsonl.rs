//! JSONL encoding and (minimal) decoding of trace files.
//!
//! The format is deliberately flat — one JSON object per line, values
//! limited to unsigned integers, short enum names, and integer arrays —
//! so both sides can be implemented dependency-free. The decoder only
//! understands what the encoder emits; it is not a general JSON parser.
//!
//! Line kinds:
//!
//! - events: `{"at_us":N,"seq":N,"ev":"SeekDone","us":N}`
//! - attribution: `{"meta":"attribution","seek_us":N,...,"busy_us":N}`
//! - histograms: `{"meta":"hist","name":"...","unit":"...","count":N,"sum":N,"max":N,"buckets":[..]}`
//! - tracer info: `{"meta":"tracer","capacity":N,"recorded":N,"dropped":N}`
//!
//! Consumers may also interleave their own context lines (e.g. the bench
//! harness writes `{"meta":"run",...}` headers); unknown lines are
//! skipped by the reader.

use crate::attr::Attribution;
use crate::event::{Event, FsOpKind, TraceEvent};

/// Extracts the u64 value of `"key":N` from a flat JSON line.
pub fn get_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the string value of `"key":"..."` from a flat JSON line.
pub fn get_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// Extracts the integer array value of `"key":[..]` from a flat line.
pub fn get_u64_array(line: &str, key: &str) -> Option<Vec<u64>> {
    let pat = format!("\"{key}\":[");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest.find(']')?;
    let body = &rest[..end];
    if body.trim().is_empty() {
        return Some(Vec::new());
    }
    body.split(',').map(|s| s.trim().parse().ok()).collect()
}

/// Encodes one stamped event as a JSONL line (no trailing newline).
pub fn encode_event(e: &TraceEvent) -> String {
    let head = format!(
        "{{\"at_us\":{},\"seq\":{},\"ev\":\"{}\"",
        e.at_us,
        e.seq,
        e.event.name()
    );
    let body = match e.event {
        Event::SeekStart { from_cyl, to_cyl } => {
            format!(",\"from_cyl\":{from_cyl},\"to_cyl\":{to_cyl}")
        }
        Event::SeekDone { us }
        | Event::RotWait { us }
        | Event::HeadSwitch { us }
        | Event::CmdOverhead { us } => format!(",\"us\":{us}"),
        Event::Transfer { sectors, us } => format!(",\"sectors\":{sectors},\"us\":{us}"),
        Event::CacheHit { sector, sectors } | Event::CacheMiss { sector, sectors } => {
            format!(",\"sector\":{sector},\"sectors\":{sectors}")
        }
        Event::SegmentSeal {
            seg,
            write_seq,
            fill_bytes,
            cap_bytes,
        } => format!(
            ",\"seg\":{seg},\"write_seq\":{write_seq},\"fill_bytes\":{fill_bytes},\"cap_bytes\":{cap_bytes}"
        ),
        Event::PartialWrite { seg, bytes } => format!(",\"seg\":{seg},\"bytes\":{bytes}"),
        Event::CleanerPass {
            reclaimed,
            bytes_copied,
        } => format!(",\"reclaimed\":{reclaimed},\"bytes_copied\":{bytes_copied}"),
        Event::RecoverySweep { summaries, us } => {
            format!(",\"summaries\":{summaries},\"us\":{us}")
        }
        Event::FsOp { op, start_us, us } => {
            format!(",\"op\":\"{}\",\"start_us\":{start_us},\"us\":{us}", op.name())
        }
        Event::ReadRetry { sector, attempt, us } => {
            format!(",\"sector\":{sector},\"attempt\":{attempt},\"us\":{us}")
        }
        Event::SectorRemap { sector } => format!(",\"sector\":{sector}"),
        Event::ScrubPass {
            relocated,
            remapped,
            unreadable,
        } => format!(",\"relocated\":{relocated},\"remapped\":{remapped},\"unreadable\":{unreadable}"),
        Event::QueueSubmit {
            tag,
            sector,
            sectors,
        } => format!(",\"tag\":{tag},\"sector\":{sector},\"sectors\":{sectors}"),
        Event::QueueDispatch { tag, depth } => format!(",\"tag\":{tag},\"depth\":{depth}"),
        Event::QueueComplete { tag, us } => format!(",\"tag\":{tag},\"us\":{us}"),
    };
    format!("{head}{body}}}")
}

/// Decodes an event line produced by [`encode_event`]. Returns `None` for
/// meta lines, foreign lines, or malformed input.
pub fn decode_event(line: &str) -> Option<TraceEvent> {
    let at_us = get_u64(line, "at_us")?;
    let seq = get_u64(line, "seq")?;
    let ev = get_str(line, "ev")?;
    let event = match ev {
        "SeekStart" => Event::SeekStart {
            from_cyl: get_u64(line, "from_cyl")? as u32,
            to_cyl: get_u64(line, "to_cyl")? as u32,
        },
        "SeekDone" => Event::SeekDone {
            us: get_u64(line, "us")?,
        },
        "RotWait" => Event::RotWait {
            us: get_u64(line, "us")?,
        },
        "Transfer" => Event::Transfer {
            sectors: get_u64(line, "sectors")?,
            us: get_u64(line, "us")?,
        },
        "HeadSwitch" => Event::HeadSwitch {
            us: get_u64(line, "us")?,
        },
        "CmdOverhead" => Event::CmdOverhead {
            us: get_u64(line, "us")?,
        },
        "CacheHit" => Event::CacheHit {
            sector: get_u64(line, "sector")?,
            sectors: get_u64(line, "sectors")?,
        },
        "CacheMiss" => Event::CacheMiss {
            sector: get_u64(line, "sector")?,
            sectors: get_u64(line, "sectors")?,
        },
        "SegmentSeal" => Event::SegmentSeal {
            seg: get_u64(line, "seg")? as u32,
            write_seq: get_u64(line, "write_seq")?,
            fill_bytes: get_u64(line, "fill_bytes")?,
            cap_bytes: get_u64(line, "cap_bytes")?,
        },
        "PartialWrite" => Event::PartialWrite {
            seg: get_u64(line, "seg")? as u32,
            bytes: get_u64(line, "bytes")?,
        },
        "CleanerPass" => Event::CleanerPass {
            reclaimed: get_u64(line, "reclaimed")?,
            bytes_copied: get_u64(line, "bytes_copied")?,
        },
        "RecoverySweep" => Event::RecoverySweep {
            summaries: get_u64(line, "summaries")?,
            us: get_u64(line, "us")?,
        },
        "FsOp" => Event::FsOp {
            op: FsOpKind::from_name(get_str(line, "op")?)?,
            start_us: get_u64(line, "start_us")?,
            us: get_u64(line, "us")?,
        },
        "ReadRetry" => Event::ReadRetry {
            sector: get_u64(line, "sector")?,
            attempt: get_u64(line, "attempt")?,
            us: get_u64(line, "us")?,
        },
        "SectorRemap" => Event::SectorRemap {
            sector: get_u64(line, "sector")?,
        },
        "ScrubPass" => Event::ScrubPass {
            relocated: get_u64(line, "relocated")?,
            remapped: get_u64(line, "remapped")?,
            unreadable: get_u64(line, "unreadable")?,
        },
        "QueueSubmit" => Event::QueueSubmit {
            tag: get_u64(line, "tag")?,
            sector: get_u64(line, "sector")?,
            sectors: get_u64(line, "sectors")?,
        },
        "QueueDispatch" => Event::QueueDispatch {
            tag: get_u64(line, "tag")?,
            depth: get_u64(line, "depth")?,
        },
        "QueueComplete" => Event::QueueComplete {
            tag: get_u64(line, "tag")?,
            us: get_u64(line, "us")?,
        },
        _ => return None,
    };
    Some(TraceEvent { at_us, seq, event })
}

/// Encodes the attribution meta line. The readahead memo fields are
/// emitted only when nonzero, so traces from runs that never exercised
/// them are byte-identical to the old format.
pub fn encode_attribution(a: &Attribution) -> String {
    let cache = if a.cache_hits > 0 || a.cache_misses > 0 {
        format!(
            ",\"cache_hits\":{},\"cache_misses\":{}",
            a.cache_hits, a.cache_misses
        )
    } else {
        String::new()
    };
    format!(
        "{{\"meta\":\"attribution\",\"seek_us\":{},\"rotation_us\":{},\"transfer_us\":{},\"switch_us\":{},\"overhead_us\":{}{},\"busy_us\":{}}}",
        a.seek_us, a.rotation_us, a.transfer_us, a.switch_us, a.overhead_us, cache, a.busy_us()
    )
}

/// Decodes an attribution meta line (returns `None` for other lines).
pub fn decode_attribution(line: &str) -> Option<Attribution> {
    if get_str(line, "meta") != Some("attribution") {
        return None;
    }
    Some(Attribution {
        seek_us: get_u64(line, "seek_us")?,
        rotation_us: get_u64(line, "rotation_us")?,
        transfer_us: get_u64(line, "transfer_us")?,
        switch_us: get_u64(line, "switch_us")?,
        overhead_us: get_u64(line, "overhead_us")?,
        cache_hits: get_u64(line, "cache_hits").unwrap_or(0),
        cache_misses: get_u64(line, "cache_misses").unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_variant_roundtrips() {
        let events = [
            Event::SeekStart {
                from_cyl: 3,
                to_cyl: 900,
            },
            Event::SeekDone { us: 11_500 },
            Event::RotWait { us: 5_500 },
            Event::Transfer {
                sectors: 8,
                us: 408,
            },
            Event::HeadSwitch { us: 1_600 },
            Event::CmdOverhead { us: 1_100 },
            Event::CacheHit {
                sector: 40,
                sectors: 8,
            },
            Event::CacheMiss {
                sector: 48,
                sectors: 8,
            },
            Event::SegmentSeal {
                seg: 7,
                write_seq: 42,
                fill_bytes: 500_000,
                cap_bytes: 520_192,
            },
            Event::PartialWrite {
                seg: 8,
                bytes: 12_000,
            },
            Event::CleanerPass {
                reclaimed: 3,
                bytes_copied: 90_000,
            },
            Event::RecoverySweep {
                summaries: 788,
                us: 12_000_000,
            },
            Event::FsOp {
                op: FsOpKind::Create,
                start_us: 100,
                us: 250,
            },
            Event::ReadRetry {
                sector: 4096,
                attempt: 2,
                us: 14_000,
            },
            Event::SectorRemap { sector: 4096 },
            Event::ScrubPass {
                relocated: 12,
                remapped: 3,
                unreadable: 0,
            },
            Event::QueueSubmit {
                tag: 17,
                sector: 2048,
                sectors: 128,
            },
            Event::QueueDispatch { tag: 17, depth: 6 },
            Event::QueueComplete {
                tag: 17,
                us: 190_000,
            },
        ];
        for (i, event) in events.into_iter().enumerate() {
            let stamped = TraceEvent {
                at_us: 1000 + i as u64,
                seq: i as u64,
                event,
            };
            let line = encode_event(&stamped);
            let back = decode_event(&line);
            assert_eq!(back, Some(stamped), "roundtrip failed for {line}");
        }
    }

    #[test]
    fn attribution_roundtrips() {
        let a = Attribution {
            seek_us: 1,
            rotation_us: 2,
            transfer_us: 3,
            switch_us: 4,
            overhead_us: 5,
            ..Attribution::default()
        };
        let line = encode_attribution(&a);
        assert!(!line.contains("cache_"), "zero memo stays off the wire");
        assert_eq!(decode_attribution(&line), Some(a));
        assert_eq!(get_u64(&line, "busy_us"), Some(15));
        // A nonzero memo roundtrips and leaves busy untouched.
        let b = Attribution {
            cache_hits: 2,
            cache_misses: 1,
            ..a
        };
        let line = encode_attribution(&b);
        assert_eq!(decode_attribution(&line), Some(b));
        assert_eq!(get_u64(&line, "busy_us"), Some(15));
    }

    #[test]
    fn foreign_and_malformed_lines_are_rejected_not_panicked() {
        assert_eq!(decode_event(""), None);
        assert_eq!(decode_event("{\"meta\":\"run\"}"), None);
        assert_eq!(
            decode_event("{\"at_us\":5,\"seq\":1,\"ev\":\"Nope\"}"),
            None
        );
        assert_eq!(decode_attribution("{\"garbage\":true}"), None);
        assert_eq!(get_u64_array("{\"b\":[1, 2,3]}", "b"), Some(vec![1, 2, 3]));
        assert_eq!(get_u64_array("{\"b\":[]}", "b"), Some(vec![]));
    }
}
