//! Typed trace events.
//!
//! Every event is `Copy` and fixed-size so recording one into the
//! pre-allocated ring buffer never allocates — the zero-cost-when-disabled
//! contract of the tracer extends to "cheap when enabled" on hot paths.

/// A file-system operation kind, for [`Event::FsOp`] spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsOpKind {
    /// Path lookup.
    Lookup,
    /// File creation.
    Create,
    /// Directory creation.
    Mkdir,
    /// File read.
    Read,
    /// File write.
    Write,
    /// File removal.
    Unlink,
    /// Flush of all dirty state.
    Sync,
    /// Truncate to zero length.
    Truncate,
}

impl FsOpKind {
    /// Stable wire/display name.
    pub fn name(self) -> &'static str {
        match self {
            FsOpKind::Lookup => "lookup",
            FsOpKind::Create => "create",
            FsOpKind::Mkdir => "mkdir",
            FsOpKind::Read => "read",
            FsOpKind::Write => "write",
            FsOpKind::Unlink => "unlink",
            FsOpKind::Sync => "sync",
            FsOpKind::Truncate => "truncate",
        }
    }

    /// Inverse of [`name`](Self::name), for the JSONL reader.
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "lookup" => FsOpKind::Lookup,
            "create" => FsOpKind::Create,
            "mkdir" => FsOpKind::Mkdir,
            "read" => FsOpKind::Read,
            "write" => FsOpKind::Write,
            "unlink" => FsOpKind::Unlink,
            "sync" => FsOpKind::Sync,
            "truncate" => FsOpKind::Truncate,
            _ => return None,
        })
    }
}

/// One structured trace event. Time fields are *simulated* microseconds —
/// the tracer never consults a wall clock (determinism invariant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The disk arm started moving between cylinders.
    SeekStart {
        /// Cylinder the arm left.
        from_cyl: u32,
        /// Cylinder the arm moved to.
        to_cyl: u32,
    },
    /// The seek completed after `us` microseconds.
    SeekDone {
        /// Seek duration.
        us: u64,
    },
    /// The head waited for the platter to rotate to the target sector.
    RotWait {
        /// Rotational delay.
        us: u64,
    },
    /// Data moved between host and medium.
    Transfer {
        /// Sectors transferred.
        sectors: u64,
        /// Transfer time (media or bus rate).
        us: u64,
    },
    /// Head or cylinder switch during a multi-track transfer.
    HeadSwitch {
        /// Switch time.
        us: u64,
    },
    /// Per-command host/controller overhead.
    CmdOverhead {
        /// Overhead charged for this command.
        us: u64,
    },
    /// A read was served from the drive's read-ahead buffer.
    CacheHit {
        /// First sector of the request.
        sector: u64,
        /// Sectors requested.
        sectors: u64,
    },
    /// A read missed the read-ahead buffer (media access).
    CacheMiss {
        /// First sector of the request.
        sector: u64,
        /// Sectors requested.
        sectors: u64,
    },
    /// LLD sealed the open segment and wrote it to disk.
    SegmentSeal {
        /// Physical segment chosen.
        seg: u32,
        /// Segment-write sequence number.
        write_seq: u64,
        /// Payload bytes in the segment at seal.
        fill_bytes: u64,
        /// Payload capacity of a segment.
        cap_bytes: u64,
    },
    /// LLD wrote a below-threshold partial segment (§3.2).
    PartialWrite {
        /// Scratch segment used.
        seg: u32,
        /// Payload bytes written.
        bytes: u64,
    },
    /// One cleaner invocation finished.
    CleanerPass {
        /// Segments reclaimed by this pass.
        reclaimed: u64,
        /// Live bytes copied forward (write amplification).
        bytes_copied: u64,
    },
    /// A one-sweep recovery (§3.6) completed.
    RecoverySweep {
        /// Segment summaries read.
        summaries: u64,
        /// Simulated time the sweep took.
        us: u64,
    },
    /// A completed file-system operation span.
    FsOp {
        /// Operation kind.
        op: FsOpKind,
        /// Simulated time the operation started.
        start_us: u64,
        /// Operation latency.
        us: u64,
    },
    /// LLD re-drove a read after a media fault (one event per retry).
    ReadRetry {
        /// Sector that failed on the previous attempt.
        sector: u64,
        /// Retry ordinal (1 = first retry).
        attempt: u64,
        /// Simulated time the failed attempt consumed (memo; this time is
        /// already attributed to the mechanical components it used).
        us: u64,
    },
    /// A failing sector was quarantined into the bad-sector remap table.
    SectorRemap {
        /// The retired sector.
        sector: u64,
    },
    /// A scrub/relocate pass over suspect segments completed.
    ScrubPass {
        /// Live blocks migrated off failing media.
        relocated: u64,
        /// Sectors newly added to the bad-sector table.
        remapped: u64,
        /// Live blocks that stayed unreadable after retries.
        unreadable: u64,
    },
    /// A request entered the tagged command queue.
    QueueSubmit {
        /// Submission tag (the surviving tag when the request coalesced
        /// into an earlier one).
        tag: u64,
        /// First sector of the request.
        sector: u64,
        /// Sectors covered.
        sectors: u64,
    },
    /// The scheduler handed a queued request to the device.
    QueueDispatch {
        /// Submission tag of the chosen request.
        tag: u64,
        /// Pending-queue depth at dispatch time (including the chosen
        /// request); feeds the queue-depth histogram.
        depth: u64,
    },
    /// A dispatched request finished on the device.
    QueueComplete {
        /// Submission tag.
        tag: u64,
        /// Device service time (memo; this time is already attributed to
        /// the mechanical components it used).
        us: u64,
    },
}

impl Event {
    /// Stable wire/display name of the variant.
    pub fn name(&self) -> &'static str {
        match self {
            Event::SeekStart { .. } => "SeekStart",
            Event::SeekDone { .. } => "SeekDone",
            Event::RotWait { .. } => "RotWait",
            Event::Transfer { .. } => "Transfer",
            Event::HeadSwitch { .. } => "HeadSwitch",
            Event::CmdOverhead { .. } => "CmdOverhead",
            Event::CacheHit { .. } => "CacheHit",
            Event::CacheMiss { .. } => "CacheMiss",
            Event::SegmentSeal { .. } => "SegmentSeal",
            Event::PartialWrite { .. } => "PartialWrite",
            Event::CleanerPass { .. } => "CleanerPass",
            Event::RecoverySweep { .. } => "RecoverySweep",
            Event::FsOp { .. } => "FsOp",
            Event::ReadRetry { .. } => "ReadRetry",
            Event::SectorRemap { .. } => "SectorRemap",
            Event::ScrubPass { .. } => "ScrubPass",
            Event::QueueSubmit { .. } => "QueueSubmit",
            Event::QueueDispatch { .. } => "QueueDispatch",
            Event::QueueComplete { .. } => "QueueComplete",
        }
    }
}

/// An event stamped with the simulated clock and a monotone sequence
/// number (the sequence disambiguates events at the same instant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time the event was recorded.
    pub at_us: u64,
    /// Monotone per-tracer sequence number.
    pub seq: u64,
    /// The event payload.
    pub event: Event,
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:>12} us] #{:<6} ", self.at_us, self.seq)?;
        match self.event {
            Event::SeekStart { from_cyl, to_cyl } => {
                write!(f, "SeekStart    cyl {from_cyl} -> {to_cyl}")
            }
            Event::SeekDone { us } => write!(f, "SeekDone     {us} us"),
            Event::RotWait { us } => write!(f, "RotWait      {us} us"),
            Event::Transfer { sectors, us } => {
                write!(f, "Transfer     {sectors} sectors, {us} us")
            }
            Event::HeadSwitch { us } => write!(f, "HeadSwitch   {us} us"),
            Event::CmdOverhead { us } => write!(f, "CmdOverhead  {us} us"),
            Event::CacheHit { sector, sectors } => {
                write!(f, "CacheHit     {sectors} sectors @ {sector}")
            }
            Event::CacheMiss { sector, sectors } => {
                write!(f, "CacheMiss    {sectors} sectors @ {sector}")
            }
            Event::SegmentSeal {
                seg,
                write_seq,
                fill_bytes,
                cap_bytes,
            } => {
                let pct = (fill_bytes * 100).checked_div(cap_bytes).unwrap_or(0);
                write!(
                    f,
                    "SegmentSeal  seg {seg} (write #{write_seq}), {fill_bytes} B ({pct}% full)"
                )
            }
            Event::PartialWrite { seg, bytes } => {
                write!(f, "PartialWrite seg {seg}, {bytes} B")
            }
            Event::CleanerPass {
                reclaimed,
                bytes_copied,
            } => write!(
                f,
                "CleanerPass  reclaimed {reclaimed} segs, copied {bytes_copied} B"
            ),
            Event::RecoverySweep { summaries, us } => {
                write!(f, "RecoverySweep {summaries} summaries, {us} us")
            }
            Event::FsOp { op, start_us, us } => {
                write!(f, "FsOp         {} started {start_us}, {us} us", op.name())
            }
            Event::ReadRetry {
                sector,
                attempt,
                us,
            } => {
                write!(
                    f,
                    "ReadRetry    sector {sector}, attempt {attempt}, {us} us"
                )
            }
            Event::SectorRemap { sector } => write!(f, "SectorRemap  sector {sector}"),
            Event::ScrubPass {
                relocated,
                remapped,
                unreadable,
            } => write!(
                f,
                "ScrubPass    relocated {relocated}, remapped {remapped}, unreadable {unreadable}"
            ),
            Event::QueueSubmit {
                tag,
                sector,
                sectors,
            } => write!(f, "QueueSubmit  tag {tag}, {sectors} sectors @ {sector}"),
            Event::QueueDispatch { tag, depth } => {
                write!(f, "QueueDispatch tag {tag}, depth {depth}")
            }
            Event::QueueComplete { tag, us } => {
                write!(f, "QueueComplete tag {tag}, {us} us")
            }
        }
    }
}
