//! `ld-trace` — structured event tracing and metrics for the Logical Disk
//! stack.
//!
//! The paper's evaluation (§4.2) is an argument about *where simulated
//! time goes*: seek-bound small-file traffic vs transfer-bound segment
//! writes. End-of-run counters (`DiskStats`, `LldStats`) answer "how
//! much"; this crate answers "when and why" without giving up the
//! determinism of the simulated clock:
//!
//! - a bounded ring-buffer [`Tracer`] recording typed [`Event`]s stamped
//!   with the **simulated** clock (never wall time),
//! - log2 [`Histogram`]s (seek distance, rotational wait, segment fill at
//!   seal, per-FS-op latency, queue depth),
//! - the [`Attribution`] table of mechanical disk time, which the disk's
//!   own counters fill (`simdisk::DiskStats::attribution`),
//! - JSONL export and the `ldtrace` CLI that renders an I/O timeline and
//!   the attribution table, and checks that a complete trace's events
//!   sum to that table.
//!
//! # Cost model
//!
//! The simulated disk owns the one `Option<Tracer>` of a stack; every
//! layer above reaches it through the device. With `None` the only cost
//! is the branch. With a tracer attached, recording an event is a
//! fixed-size copy into a pre-allocated ring plus a histogram update —
//! no per-event allocation, no clock reads beyond what the layer already
//! knows.
//!
//! # Example
//!
//! ```
//! use ld_trace::{Attribution, Event, Tracer};
//!
//! let tracer = Tracer::new(1024);
//! tracer.record(10, Event::SeekDone { us: 11_500 });
//! tracer.record(21_500, Event::RotWait { us: 5_500 });
//! let attr = Attribution { seek_us: 11_500, rotation_us: 5_500, ..Attribution::default() };
//! let jsonl = tracer.to_jsonl(&attr);
//! // Nothing was dropped, so the events must sum to the attribution.
//! assert_eq!(ld_trace::verify_jsonl(&jsonl), Ok(0));
//! ```

mod attr;
mod event;
mod hist;
pub mod jsonl;

pub use attr::Attribution;
pub use event::{Event, FsOpKind, TraceEvent};
pub use hist::{Histogram, BUCKETS};

use std::cell::RefCell;
use std::rc::Rc;

#[derive(Debug)]
struct Inner {
    /// Pre-allocated ring; grows by `push` only until `cap` is reached.
    ring: Vec<TraceEvent>,
    cap: usize,
    /// Next slot to overwrite once the ring is full.
    next: usize,
    /// Events ever recorded (recorded - ring length = dropped); also the
    /// next event's sequence number.
    recorded: u64,
    hist_seek_cyl: Histogram,
    hist_rot_us: Histogram,
    hist_seal_fill_pct: Histogram,
    hist_fsop_us: Histogram,
    hist_queue_depth: Histogram,
}

/// A shared, cheaply-clonable tracing handle.
///
/// See the [crate docs](crate) for the cost model. All methods take
/// `&self`; interior mutability keeps call sites free of borrow
/// plumbing. The tracer is single-threaded by design (the whole
/// simulation is), matching the deterministic-clock invariant.
#[derive(Debug, Clone)]
pub struct Tracer(Rc<RefCell<Inner>>);

impl Tracer {
    /// Creates a tracer whose ring holds up to `capacity` events
    /// (clamped to at least 16). The ring is pre-allocated here so the
    /// recording path never allocates.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(16);
        Self(Rc::new(RefCell::new(Inner {
            ring: Vec::with_capacity(cap),
            cap,
            next: 0,
            recorded: 0,
            hist_seek_cyl: Histogram::new(),
            hist_rot_us: Histogram::new(),
            hist_seal_fill_pct: Histogram::new(),
            hist_fsop_us: Histogram::new(),
            hist_queue_depth: Histogram::new(),
        })))
    }

    /// Records `event` at simulated time `at_us`.
    ///
    /// Reentrant calls (impossible in the current single-threaded stack,
    /// but cheap to be safe about) drop the event instead of panicking.
    pub fn record(&self, at_us: u64, event: Event) {
        let Ok(mut inner) = self.0.try_borrow_mut() else {
            return;
        };
        let inner = &mut *inner;
        match event {
            Event::SeekStart { from_cyl, to_cyl } => {
                inner
                    .hist_seek_cyl
                    .record(u64::from(from_cyl.abs_diff(to_cyl)));
            }
            Event::RotWait { us } => inner.hist_rot_us.record(us),
            Event::SegmentSeal {
                fill_bytes,
                cap_bytes,
                ..
            } => {
                if let Some(pct) = (fill_bytes * 100).checked_div(cap_bytes) {
                    inner.hist_seal_fill_pct.record(pct);
                }
            }
            Event::FsOp { us, .. } => inner.hist_fsop_us.record(us),
            Event::QueueDispatch { depth, .. } => inner.hist_queue_depth.record(depth),
            _ => {}
        }
        let stamped = TraceEvent {
            at_us,
            seq: inner.recorded,
            event,
        };
        inner.recorded += 1;
        if inner.ring.len() < inner.cap {
            inner.ring.push(stamped);
        } else {
            inner.ring[inner.next] = stamped;
            inner.next = (inner.next + 1) % inner.cap;
        }
    }

    /// Events ever recorded (including those since evicted).
    pub fn recorded(&self) -> u64 {
        self.0.borrow().recorded
    }

    /// Events evicted from the ring.
    pub fn dropped(&self) -> u64 {
        let inner = self.0.borrow();
        inner.recorded - inner.ring.len() as u64
    }

    /// The last `n` events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<TraceEvent> {
        let inner = self.0.borrow();
        let len = inner.ring.len();
        let take = n.min(len);
        let mut out = Vec::with_capacity(take);
        // Ring order: `next..len` is the oldest stretch once wrapped.
        for i in 0..len {
            let idx = if len == inner.cap {
                (inner.next + i) % len
            } else {
                i
            };
            out.push(inner.ring[idx]);
        }
        out.split_off(len - take)
    }

    /// Human-readable dump of the trailing `n` events, for attaching to
    /// assertion failures in crash tests.
    pub fn dump_tail(&self, n: usize) -> String {
        let events = self.tail(n);
        let mut out = format!(
            "--- trace tail ({} of {} recorded, {} dropped) ---\n",
            events.len(),
            self.recorded(),
            self.dropped()
        );
        for e in &events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }

    /// The metric histograms as `(name, unit, histogram)` triples.
    pub fn histograms(&self) -> [(&'static str, &'static str, Histogram); 5] {
        let inner = self.0.borrow();
        [
            ("seek_distance", "cyl", inner.hist_seek_cyl),
            ("rotational_wait", "us", inner.hist_rot_us),
            ("segment_fill_at_seal", "%", inner.hist_seal_fill_pct),
            ("fs_op_latency", "us", inner.hist_fsop_us),
            ("queue_depth", "reqs", inner.hist_queue_depth),
        ]
    }

    /// Writes the trace as JSONL: tracer info, all ring events (oldest
    /// first), histograms, and the attribution line for `attr` — the
    /// disk's time over the traced span, which [`verify_jsonl`] checks
    /// the events against when the ring dropped nothing.
    pub fn export_jsonl<W: std::io::Write>(
        &self,
        w: &mut W,
        attr: &Attribution,
    ) -> std::io::Result<()> {
        let inner = self.0.borrow();
        writeln!(
            w,
            "{{\"meta\":\"tracer\",\"capacity\":{},\"recorded\":{},\"dropped\":{}}}",
            inner.cap,
            inner.recorded,
            inner.recorded - inner.ring.len() as u64
        )?;
        drop(inner);
        for e in self.tail(usize::MAX) {
            writeln!(w, "{}", jsonl::encode_event(&e))?;
        }
        for (name, unit, h) in self.histograms() {
            let buckets: Vec<String> = h.buckets().iter().map(u64::to_string).collect();
            writeln!(
                w,
                "{{\"meta\":\"hist\",\"name\":\"{name}\",\"unit\":\"{unit}\",\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[{}]}}",
                h.count(),
                h.sum(),
                h.max(),
                buckets.join(",")
            )?;
        }
        writeln!(w, "{}", jsonl::encode_attribution(attr))
    }

    /// [`export_jsonl`](Self::export_jsonl) into a `String`.
    pub fn to_jsonl(&self, attr: &Attribution) -> String {
        let mut buf = Vec::new();
        self.export_jsonl(&mut buf, attr).expect("Vec write"); // PANIC-OK: writing to a Vec<u8> cannot fail.
        String::from_utf8_lossy(&buf).into_owned()
    }
}

/// A consistency failure found in a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// No attribution line present.
    MissingAttribution,
    /// The attribution components do not sum to its own busy total (file
    /// corrupt or hand-edited).
    AttributionSumMismatch {
        /// Sum of the five components.
        components: u64,
        /// The recorded busy total.
        busy: u64,
    },
    /// The ring dropped nothing, yet the events of one mechanical
    /// component do not sum to the attribution: an instrumentation hole
    /// (or a corrupt file).
    Incomplete {
        /// Component label, as in [`Attribution::components`].
        component: &'static str,
        /// Sum of that component's events.
        events: u64,
        /// The attribution line's figure.
        attributed: u64,
    },
    /// Event sequence numbers go backwards (interleaved files).
    OutOfOrder {
        /// Line number (1-based) of the offending event.
        line: usize,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::MissingAttribution => write!(f, "no attribution line in trace"),
            TraceError::AttributionSumMismatch { components, busy } => write!(
                f,
                "attribution components sum to {components} but busy is {busy}"
            ),
            TraceError::Incomplete {
                component,
                events,
                attributed,
            } => write!(
                f,
                "{component} events sum to {events} us but {attributed} us is attributed"
            ),
            TraceError::OutOfOrder { line } => {
                write!(f, "event sequence goes backwards at line {line}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Verifies one tracer's worth of JSONL: events parse and are in order,
/// and the attribution line sums to its own busy total. Unless the tracer
/// line says the ring dropped events, the trace must also be complete:
/// the `SeekDone`/`RotWait`/`Transfer`/`HeadSwitch`/`CmdOverhead` events
/// sum, per component, exactly to the attribution.
///
/// Returns the number of events the ring dropped; completeness was
/// checked only when it is 0.
pub fn verify_jsonl(text: &str) -> Result<u64, TraceError> {
    let mut last_seq: Option<u64> = None;
    let mut attr: Option<Attribution> = None;
    let mut attr_busy: Option<u64> = None;
    let mut dropped = 0;
    let mut events = Attribution::default();
    for (i, line) in text.lines().enumerate() {
        if let Some(e) = jsonl::decode_event(line) {
            if last_seq.is_some_and(|s| e.seq < s) {
                return Err(TraceError::OutOfOrder { line: i + 1 });
            }
            last_seq = Some(e.seq);
            match e.event {
                Event::SeekDone { us } => events.seek_us += us,
                Event::RotWait { us } => events.rotation_us += us,
                Event::Transfer { us, .. } => events.transfer_us += us,
                Event::HeadSwitch { us } => events.switch_us += us,
                Event::CmdOverhead { us } => events.overhead_us += us,
                _ => {}
            }
        } else if let Some(a) = jsonl::decode_attribution(line) {
            attr_busy = jsonl::get_u64(line, "busy_us");
            attr = Some(a);
        } else if jsonl::get_str(line, "meta") == Some("tracer") {
            dropped = jsonl::get_u64(line, "dropped").unwrap_or(0);
        }
    }
    let attr = attr.ok_or(TraceError::MissingAttribution)?;
    let busy = attr_busy.unwrap_or(0);
    if attr.busy_us() != busy {
        return Err(TraceError::AttributionSumMismatch {
            components: attr.busy_us(),
            busy,
        });
    }
    if dropped == 0 {
        for ((component, attributed), (_, events)) in
            attr.components().into_iter().zip(events.components())
        {
            if events != attributed {
                return Err(TraceError::Incomplete {
                    component,
                    events,
                    attributed,
                });
            }
        }
    }
    Ok(dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_only_the_tail() {
        let t = Tracer::new(16);
        for i in 0..40u64 {
            t.record(i, Event::SeekDone { us: i });
        }
        assert_eq!(t.recorded(), 40);
        assert_eq!(t.dropped(), 24);
        let tail = t.tail(1000);
        assert_eq!(tail.len(), 16);
        assert_eq!(tail[0].at_us, 24);
        assert_eq!(tail[15].at_us, 39);
        // Sequence numbers count every event ever recorded.
        assert_eq!(tail[0].seq, 24);
    }

    #[test]
    fn tail_returns_newest_n_in_order() {
        let t = Tracer::new(16);
        for i in 0..10u64 {
            t.record(i, Event::RotWait { us: 1 });
        }
        let tail = t.tail(3);
        assert_eq!(tail.iter().map(|e| e.at_us).collect::<Vec<_>>(), [7, 8, 9]);
    }

    #[test]
    fn histograms_fill_from_events() {
        let t = Tracer::new(64);
        t.record(
            0,
            Event::SeekStart {
                from_cyl: 10,
                to_cyl: 200,
            },
        );
        t.record(0, Event::RotWait { us: 5_500 });
        t.record(
            0,
            Event::SegmentSeal {
                seg: 1,
                write_seq: 1,
                fill_bytes: 75,
                cap_bytes: 100,
            },
        );
        t.record(
            0,
            Event::FsOp {
                op: FsOpKind::Sync,
                start_us: 0,
                us: 1234,
            },
        );
        for (tag, depth) in [(0, 1), (1, 5), (2, 3)] {
            t.record(0, Event::QueueDispatch { tag, depth });
        }
        let hists = t.histograms();
        assert_eq!(hists[0].2.count(), 1);
        assert_eq!(hists[0].2.max(), 190);
        assert_eq!(hists[1].2.sum(), 5_500);
        assert_eq!(hists[2].2.max(), 75);
        assert_eq!(hists[3].2.mean(), 1234);
        let (name, _, depth) = &hists[4];
        assert_eq!(*name, "queue_depth");
        assert_eq!((depth.count(), depth.sum(), depth.max()), (3, 9, 5));
    }

    #[test]
    fn export_verifies_clean_and_detects_mismatch() {
        let t = Tracer::new(64);
        t.record(5, Event::SeekDone { us: 100 });
        t.record(10, Event::CmdOverhead { us: 50 });
        // Non-time events add nothing to any component.
        t.record(
            10,
            Event::CacheHit {
                sector: 0,
                sectors: 1,
            },
        );
        t.record(
            10,
            Event::FsOp {
                op: FsOpKind::Read,
                start_us: 0,
                us: 99,
            },
        );
        let attr = Attribution {
            seek_us: 100,
            overhead_us: 50,
            ..Attribution::default()
        };
        assert_eq!(verify_jsonl(&t.to_jsonl(&attr)), Ok(0));
        // An attribution the events do not account for names the component.
        let more = Attribution {
            transfer_us: 7,
            ..attr
        };
        assert_eq!(
            verify_jsonl(&t.to_jsonl(&more)),
            Err(TraceError::Incomplete {
                component: "transfer",
                events: 0,
                attributed: 7
            })
        );
        assert_eq!(verify_jsonl(""), Err(TraceError::MissingAttribution));
    }

    #[test]
    fn dropped_events_leave_completeness_unchecked() {
        let t = Tracer::new(16);
        for i in 0..20u64 {
            t.record(i, Event::SeekDone { us: 1 });
        }
        // The ring keeps 16 of the 20 one-microsecond seeks, so its events
        // cannot account for the attribution, and need not.
        let attr = Attribution {
            seek_us: 20,
            ..Attribution::default()
        };
        assert_eq!(verify_jsonl(&t.to_jsonl(&attr)), Ok(4));
    }

    #[test]
    fn dump_tail_is_readable() {
        let t = Tracer::new(64);
        t.record(
            7,
            Event::PartialWrite {
                seg: 3,
                bytes: 4096,
            },
        );
        let s = t.dump_tail(100);
        assert!(s.contains("PartialWrite"));
        assert!(s.contains("seg 3"));
    }
}
